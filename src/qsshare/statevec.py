"""Exact state-vector simulation of small qubit registers.

This module is the ground-truth oracle for everything else in the package:
the closed-form pair algebra, the protocol runs, and the security
enumerations are all checked against it.

Conventions, fixed once so that transcripts are reproducible:

- Qubit ordering is big-endian: qubit 0 is the most significant bit of the
  amplitude index, so ``|q0 q1 ... >`` sits at index ``q0*2^(n-1) + ...``.
- Registers hold 1 to 6 qubits.  The largest protocol state (secret qubit
  plus two entangled pairs) needs 5; the sixth leaves room for one
  eavesdropper ancilla.
- Operations never mutate their inputs; every function returns a fresh
  ``StateVector``.  Values are safe to share between threads; sampled
  measurements draw from an explicitly passed ``numpy.random.Generator``.
- A Bell measurement is realised as a basis rotation (entangling gate from
  the first qubit onto the second, then the one-qubit mixing gate on the
  first) followed by two computational measurements: the first bit is the
  phase bit, the second the parity bit.  The measured pair is rotated back
  so it collapses to the reported pair state.  :func:`joint_distribution`
  rotates several disjoint pairs into that frame at once and reads all their
  outcomes off one set of squared amplitudes.
- A projection zeroes the other outcome's amplitudes and divides the rest
  by their own norm, so a register's norm deviation does not grow over a
  run.  Outcomes with probability below 1e-15 are treated as exactly zero
  and never sampled.
- State comparisons ignore global phase: states are equal when their
  fidelity is at least 1 - 1e-12.
- A ``StateVector`` may carry a stack of registers of one size: amplitudes
  shaped ``(..., 2^n)``, one register per leading index, built by
  :func:`stack`.  The gates (:func:`apply_pauli`, :func:`apply_hadamard`,
  :func:`apply_cnot`), :func:`prepare_bell_on` and
  :func:`joint_distribution` act on every register of a stack, and on each
  exactly as on that register alone (a Pauli or pair code may be an array,
  one per register).  Every other function takes one register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .bell import BELL_LABELS, BellLabel, _TwoBits, _bit, _index

MAX_QUBITS = 6
NORM_TOL = 1e-12
ZERO_PROBABILITY = 1e-15
EQUALITY_FIDELITY = 1.0 - 1e-12
PURITY_TOL = 1e-9

_SQRT_HALF = 1.0 / math.sqrt(2.0)


class StateVector:
    """Normalised complex amplitudes over a register of 1 to 6 qubits, or
    over each register of a stack (see the module notes)."""

    __slots__ = ("n_qubits", "amplitudes")

    def __init__(self, n_qubits: int, amplitudes) -> None:
        n_qubits = _register_size(n_qubits)
        amps = np.array(amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**n_qubits:
            raise ValueError(
                f"expected {2**n_qubits} amplitudes for {n_qubits} qubits, got {amps.size}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        norm_sq = float((np.abs(amps) ** 2).sum())
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalised: |amplitudes|^2 = {norm_sq}")
        self.n_qubits = n_qubits
        self.amplitudes = amps

    @classmethod
    def _wrap(cls, n_qubits: int, amps: np.ndarray) -> "StateVector":
        # Trusted internal constructor: skips validation on arrays produced
        # by operations that preserve normalisation.
        state = object.__new__(cls)
        state.n_qubits = n_qubits
        state.amplitudes = amps
        return state

    def __repr__(self) -> str:
        return f"StateVector(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over a few qubits."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError(f"density matrix must be square, got shape {entries.shape}")
        object.__setattr__(self, "entries", entries)
        if not np.allclose(entries, entries.conj().T, atol=1e-12):
            raise ValueError("density matrix is not Hermitian within 1e-12")
        trace = complex(np.trace(entries))
        if abs(trace - 1.0) > 1e-12:
            raise ValueError(f"density matrix trace is {trace}, expected 1")
        eigenvalues = np.linalg.eigvalsh(entries)
        if eigenvalues.min() < -1e-10:
            raise ValueError(f"density matrix has negative eigenvalue {eigenvalues.min()}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# ---------------------------------------------------------------------------
# Construction.

def zero_state(n_qubits: int) -> StateVector:
    """All-zeros computational basis state on ``n_qubits`` qubits."""
    n_qubits = _register_size(n_qubits)
    amps = np.zeros(2**n_qubits, dtype=complex)
    amps[0] = 1.0
    return StateVector._wrap(n_qubits, amps)


def single_qubit(amp0: complex, amp1: complex) -> StateVector:
    """One-qubit state ``amp0|0> + amp1|1>``; must be normalised within 1e-12."""
    return StateVector(1, [amp0, amp1])


def computational_state(bits: Iterable[int]) -> StateVector:
    """Product basis state |b0 b1 ...> for the given bit sequence."""
    bits = list(bits)
    index = 0
    for b in bits:
        bit = _bit(b)
        if bit is None:
            raise ValueError(f"bits must be 0 or 1, got {b}")
        index = (index << 1) | bit
    amps = np.zeros(2 ** _register_size(len(bits)), dtype=complex)
    amps[index] = 1.0
    return StateVector._wrap(len(bits), amps)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product; ``a``'s qubits come first (most significant)."""
    n = a.n_qubits + b.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product would need {n} qubits, cap is {MAX_QUBITS}")
    return StateVector._wrap(n, np.kron(a.amplitudes, b.amplitudes))


def stack(states: Sequence[StateVector]) -> StateVector:
    """The registers of ``states``, all of one size and stack shape, as one
    stack with a new stack axis after their own: register ``i`` of the new
    axis is ``states[i]``'s."""
    sizes = {state.n_qubits for state in states}
    if len(sizes) != 1:
        raise ValueError(f"a stack needs registers of one size, got {sorted(sizes)} qubits")
    return StateVector._wrap(sizes.pop(), np.stack([state.amplitudes for state in states], axis=-2))


def prepare_bell(label: BellLabel) -> StateVector:
    """Two-qubit maximally entangled state for the given 2-bit code."""
    return prepare_bell_on(zero_state(2), 0, 1, label)


def prepare_bell_on(state: StateVector, q_first: int, q_second: int, label: int | np.ndarray) -> StateVector:
    """Entangle two |0> qubits of a register into the labelled pair state.

    The phase/parity Pauli factors, or a code array (:func:`apply_pauli`),
    act on ``q_first``.  Raises if the two qubits are not both in |0> (they
    would carry prior correlations) in every register of a stack.
    """
    _check_pair(state, q_first, q_second, "pair qubits must be distinct")
    for q in (q_first, q_second):
        if _probability_of_one(state.amplitudes, state.n_qubits, q).max() > ZERO_PROBABILITY:
            raise ValueError("pair qubits must start in |0>")
    out = apply_hadamard(state, q_first)
    out = apply_cnot(out, q_first, q_second)
    return apply_pauli(out, q_first, label)


# ---------------------------------------------------------------------------
# Gates.

def apply_pauli(state: StateVector, q: int, corr: int | np.ndarray) -> StateVector:
    """Apply Z^z X^x (X first) to qubit ``q``: ``corr`` is ``2*z + x``, or codes over the stack axes."""
    _check_qubit(state, q)
    n = state.n_qubits
    codes = np.asarray(corr)  # one code is a 0-d array
    if codes.dtype.kind not in "iu" or (codes >> 2).any():  # a bool, float or object array holds no codes
        raise ValueError(f"Pauli codes must be 0..3, got {corr!r}")
    codes = codes[..., None, None, None]  # a stack the codes widen cannot reshape back
    view = state.amplitudes.reshape(state.amplitudes.shape[:-1] + (1 << q, 2, 1 << (n - q - 1)))
    out = np.where(codes & 1, view[..., ::-1, :], view)
    ones = out[..., 1:, :]  # row 0 untouched: a ×(1+0j) would turn a -0.0 part into +0.0
    np.multiply(ones, -1.0, out=ones, where=codes > 1)
    return StateVector._wrap(n, out.reshape(state.amplitudes.shape))


def apply_hadamard(state: StateVector, q: int) -> StateVector:
    _check_qubit(state, q)
    n = state.n_qubits
    view = _qubit_axis(state.amplitudes, n, q)
    lo, hi = view[:, :1], view[:, 1:]
    out = np.concatenate((lo + hi, lo - hi), axis=1) * _SQRT_HALF
    return StateVector._wrap(n, out.reshape(state.amplitudes.shape))


def apply_cnot(state: StateVector, control: int, target: int) -> StateVector:
    _check_pair(state, control, target, "control and target must be distinct")
    n = state.n_qubits
    q_lo, q_hi = min(control, target), max(control, target)
    view = state.amplitudes.reshape((-1, 2, 1 << (q_hi - q_lo - 1), 2, 1 << (n - q_hi - 1)))
    out = view.copy()
    if control == q_lo:
        out[:, 1] = view[:, 1, :, ::-1]
    else:
        out[:, :, :, 1] = view[:, ::-1, :, 1]
    return StateVector._wrap(n, out.reshape(state.amplitudes.shape))


# ---------------------------------------------------------------------------
# Measurement.

def measure_computational(
    state: StateVector, q: int, rng: np.random.Generator
) -> tuple[int, StateVector]:
    """Sample qubit ``q`` in the computational basis.

    Returns the bit and the collapsed, renormalised state.  Oracle API: no
    run samples with it (runs draw from linear maps with fair coins); the
    tests' plain-register Born sampler uses it as the reference.
    """
    _check_qubit(state, q)
    bit = _sample_bit(float(_probability_of_one(state.amplitudes, state.n_qubits, q)[0]), rng)
    _, collapsed = project_computational(state, q, bit)
    return bit, collapsed


def project_computational(state: StateVector, q: int, bit: int) -> tuple[float, StateVector | None]:
    """Project qubit ``q`` onto ``|bit>``.

    Returns the outcome probability and the renormalised post-measurement
    state, or ``(0.0, None)`` when the outcome has probability below the
    sampling floor.  Oracle API: no run, exact rate or generated pair table
    calls it.  :func:`bell_project`, the sampled measurements and the tests'
    statevec enumerator, the check on the symbolic linear maps, build on it.
    """
    _check_qubit(state, q)
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit}")
    n = state.n_qubits
    amps = state.amplitudes.copy()
    _qubit_axis(amps, n, q)[:, 1 - bit, :] = 0.0
    prob = float(np.real(np.vdot(amps, amps)))
    if prob < ZERO_PROBABILITY:
        return 0.0, None
    amps *= 1.0 / math.sqrt(prob)
    return prob, StateVector._wrap(n, amps)


def bell_measure(
    state: StateVector, q1: int, q2: int, rng: np.random.Generator
) -> tuple[BellLabel, StateVector]:
    """Measure qubits ``(q1, q2)`` in the Bell basis.

    The outcome is sampled with Born probabilities; the returned state has
    the measured pair collapsed to the reported pair state, so repeating the
    measurement returns the same label with certainty.  Oracle API, like
    :func:`measure_computational`: the tests' reference sampler uses it.
    """
    _check_pair(state, q1, q2, "Bell measurement needs two distinct qubits")
    b1, rotated = measure_computational(_rotate_from_pair_basis(state, q1, q2), q1, rng)
    b2, rotated = measure_computational(rotated, q2, rng)
    return BELL_LABELS[2 * b1 + b2], _rotate_to_pair_basis(rotated, q1, q2)


def bell_project(state: StateVector, q1: int, q2: int, label: BellLabel) -> tuple[float, StateVector | None]:
    """Project qubits ``(q1, q2)`` onto the labelled pair state.

    Returns the outcome probability and the post-measurement state (pair
    collapsed to the label), or ``(0.0, None)`` for a negligible outcome.
    Oracle API, like :func:`project_computational`: the tests' statevec
    enumerator and references call it; no run, exact rate or pair table does.
    """
    _check_pair(state, q1, q2, "Bell measurement needs two distinct qubits")
    rotated = _rotate_from_pair_basis(state, q1, q2)
    p1, rotated = project_computational(rotated, q1, label.z)
    if rotated is None:
        return 0.0, None
    p2, rotated = project_computational(rotated, q2, label.x)
    if rotated is None:
        return 0.0, None
    return p1 * p2, _rotate_to_pair_basis(rotated, q1, q2)


def joint_distribution(state: StateVector, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Joint Born distribution of Bell measurements on disjoint qubit pairs
    of ``state``.

    Every pair is rotated into the computational frame once, with the
    rotation :func:`bell_measure` uses, and the squared amplitudes are
    summed over the qubits not named.  The result has the stack axes of a
    stack first, then one axis of length 4 per pair (indexed like
    ``BELL_LABELS``).  The measurements act on disjoint qubits and commute,
    so each entry equals the product of conditional probabilities of any
    sequential order.
    Oracle API: the generated pair tables of ``verify-tables`` read it, and
    the tests use it as an order-free check of the projections.
    """
    named = [q for pair in pairs for q in pair]
    for q in named:
        _check_qubit(state, q)
    if len(set(named)) != len(named):
        raise ValueError(f"measured qubits must be distinct, got {named}")
    rotated = state
    for q1, q2 in pairs:
        rotated = _rotate_from_pair_basis(rotated, q1, q2)
    n = state.n_qubits
    amps = rotated.amplitudes
    stack_shape = amps.shape[:-1]
    n_stack = len(stack_shape)
    probs = (amps.real**2 + amps.imag**2).reshape(stack_shape + (2,) * n)
    rest = [q for q in range(n) if q not in named]
    shape = stack_shape + (4,) * len(pairs) + (-1,)
    axes = [*range(n_stack), *(n_stack + q for q in named + rest)]
    return probs.transpose(axes).reshape(shape).sum(axis=-1)


def _rotate_from_pair_basis(state: StateVector, q1: int, q2: int) -> StateVector:
    return apply_hadamard(apply_cnot(state, q1, q2), q1)


def _rotate_to_pair_basis(state: StateVector, q1: int, q2: int) -> StateVector:
    return apply_cnot(apply_hadamard(state, q1), q1, q2)


def _sample_bit(p_one: float, rng: np.random.Generator) -> int:
    # The coin of the oracle's sampled measurements; draws only for an
    # outcome that is not certain at the sampling floor.
    if p_one < ZERO_PROBABILITY:
        return 0
    if 1.0 - p_one < ZERO_PROBABILITY:
        return 1
    return int(rng.random() < p_one)


# ---------------------------------------------------------------------------
# Density matrices and comparisons.

def reduced_density(state: StateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace over every qubit not in ``keep``."""
    keep = sorted(set(keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    for q in keep:
        _check_qubit(state, q)
    n = state.n_qubits
    traced = [q for q in range(n) if q not in keep]
    view = state.amplitudes.reshape((2,) * n)
    rho = np.tensordot(view, view.conj(), axes=(traced, traced))
    dim = 2 ** len(keep)
    return DensityMatrix(rho.reshape(dim, dim))


def extract_pure_qubit(state: StateVector, q: int) -> StateVector:
    """Single-qubit state of ``q`` when it is unentangled with the rest.

    Raises if the reduced state is not pure within ``PURITY_TOL``.  The
    returned state carries an arbitrary global phase.
    """
    rho = reduced_density(state, [q])
    eigenvalues, eigenvectors = np.linalg.eigh(rho.entries)
    if eigenvalues[-1] < 1.0 - PURITY_TOL:
        raise ValueError(
            f"qubit {q} is entangled with the rest of the register "
            f"(largest eigenvalue {eigenvalues[-1]})"
        )
    return StateVector(1, eigenvectors[:, -1])


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap |<a|b>|^2."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"fidelity needs equal dimensions, got {a.n_qubits} and {b.n_qubits} qubits"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def states_equal(a: StateVector, b: StateVector) -> bool:
    """Equality up to global phase: fidelity at least ``EQUALITY_FIDELITY``."""
    return fidelity(a, b) >= EQUALITY_FIDELITY


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of the difference of two density matrices."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.entries.shape} vs {b.entries.shape}")
    eigenvalues = np.linalg.eigvalsh(a.entries - b.entries)
    return float(0.5 * np.sum(np.abs(eigenvalues)))


def _register_size(n_qubits) -> int:
    try:
        count = _index(n_qubits)
    except TypeError:  # a float such as 2.0 or a label is refused, not truncated
        count = -1
    if not 1 <= count <= MAX_QUBITS:
        raise ValueError(f"register must hold 1..{MAX_QUBITS} qubits, got {n_qubits}")
    return count


def _check_qubit(state: StateVector, q: int) -> None:
    # A label is an int, its code, but never a qubit index.
    if isinstance(q, _TwoBits) or not isinstance(q, (int, np.integer)) or not 0 <= q < state.n_qubits:
        raise IndexError(f"qubit {q} out of range for a {state.n_qubits}-qubit register")


def _check_pair(state: StateVector, q1: int, q2: int, message: str) -> None:
    _check_qubit(state, q1)
    _check_qubit(state, q2)
    if q1 == q2:
        raise ValueError(message)


def _qubit_axis(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    # View with qubit q factored onto the middle axis (big-endian layout);
    # the leading axis also takes the registers of a stack.
    return amps.reshape((-1, 2, 1 << (n - q - 1)))


def _probability_of_one(amps: np.ndarray, n: int, q: int) -> np.ndarray:
    # P(qubit q = 1) in each register of a stack, in flattened stack order.
    ones = amps.reshape((-1, 1 << q, 2, 1 << (n - q - 1)))[:, :, 1]
    return (ones.real**2 + ones.imag**2).sum(axis=(1, 2))
