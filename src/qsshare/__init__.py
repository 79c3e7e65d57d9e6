"""Simulator and security-analysis toolkit for entanglement-swapping based
quantum secret sharing: a (2,2) scheme for classical bits with authentication,
and a (5,5) scheme for qubit secrets."""

from .bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    PAULI_CORRECTIONS,
    BellLabel,
    PauliCorrection,
    decode_classical,
    end_to_end_correction,
    infer_remote_bsm,
    swap_result,
    teleport_correction,
)
from .statevec import (
    DensityMatrix,
    StateVector,
    apply_pauli,
    bell_measure,
    bell_project,
    fidelity,
    measure_computational,
    prepare_bell,
    reduced_density,
    states_equal,
    trace_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_LABELS",
    "BSM_OUTCOMES",
    "PAULI_CORRECTIONS",
    "BellLabel",
    "DensityMatrix",
    "PauliCorrection",
    "StateVector",
    "apply_pauli",
    "bell_measure",
    "bell_project",
    "decode_classical",
    "end_to_end_correction",
    "fidelity",
    "infer_remote_bsm",
    "measure_computational",
    "prepare_bell",
    "reduced_density",
    "states_equal",
    "swap_result",
    "teleport_correction",
    "trace_distance",
]
