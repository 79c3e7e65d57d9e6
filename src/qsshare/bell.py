"""Closed-form algebra of the four maximally entangled two-qubit states.

The four states are indexed by 2-bit codes: the first bit is the phase bit
(+ or -), the second the parity bit (00/11 vs 01/10 support)::

    00  (|00> + |11>)/sqrt(2)   Phi+
    01  (|01> + |10>)/sqrt(2)   Psi+
    10  (|00> - |11>)/sqrt(2)   Phi-
    11  (|01> - |10>)/sqrt(2)   Psi-

Teleportation corrections and entanglement-swapping outcomes are *generated*
by sweeping the state-vector simulator, not hard-coded: the lookup tables are
built on first use and cached.  Fixed reference tables (the expected 16- and
64-row contents) live alongside and are diffed against the generated ones by
the test suite and by the ``verify-tables`` command, which guards against any
drift in labeling or sign conventions between the simulator and this module.

Global phases are dropped throughout: they are unobservable, and the swapping
identities only hold modulo a phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product


@dataclass(frozen=True, order=True)
class BellLabel:
    """One of the four maximally entangled pair states as a (phase, parity) bit pair."""

    z: int
    x: int

    def __post_init__(self) -> None:
        if self.z not in (0, 1) or self.x not in (0, 1):
            raise ValueError(f"label bits must be 0 or 1, got ({self.z}, {self.x})")

    @classmethod
    def from_bits(cls, bits: str) -> "BellLabel":
        if len(bits) != 2 or any(c not in "01" for c in bits):
            raise ValueError(f"expected a 2-bit string, got {bits!r}")
        return cls(int(bits[0]), int(bits[1]))

    @property
    def bits(self) -> str:
        """Most-significant-bit-first rendering: phase bit, then parity bit."""
        return f"{self.z}{self.x}"

    @property
    def symbol(self) -> str:
        return ("Φ+", "Ψ+", "Φ-", "Ψ-")[2 * self.z + self.x]

    def as_outcome(self) -> "BsmOutcome":
        return BSM_OUTCOMES[2 * self.z + self.x]


@dataclass(frozen=True, order=True)
class BsmOutcome:
    """Two-bit result of a Bell-basis measurement, same bit convention as BellLabel."""

    b1: int
    b2: int

    def __post_init__(self) -> None:
        if self.b1 not in (0, 1) or self.b2 not in (0, 1):
            raise ValueError(f"outcome bits must be 0 or 1, got ({self.b1}, {self.b2})")

    @classmethod
    def from_bits(cls, bits: str) -> "BsmOutcome":
        return BellLabel.from_bits(bits).as_outcome()

    @property
    def bits(self) -> str:
        return f"{self.b1}{self.b2}"

    def as_label(self) -> BellLabel:
        return BELL_LABELS[2 * self.b1 + self.b2]


@dataclass(frozen=True, order=True)
class PauliCorrection:
    """Pauli operator Z^z_exp X^x_exp (X applied first) as an exponent pair.

    Z and X are self-inverse up to a global phase, so the operator that
    *encodes* a teleported state and the correction that *decodes* it share
    the same exponent pair.  Corrections compose by bitwise XOR.
    """

    z_exp: int
    x_exp: int

    def __post_init__(self) -> None:
        if self.z_exp not in (0, 1) or self.x_exp not in (0, 1):
            raise ValueError(
                f"exponents must be 0 or 1, got ({self.z_exp}, {self.x_exp})"
            )

    @property
    def symbol(self) -> str:
        return ("I", "X", "Z", "ZX")[2 * self.z_exp + self.x_exp]

    def compose(self, other: "PauliCorrection") -> "PauliCorrection":
        return PauliCorrection(self.z_exp ^ other.z_exp, self.x_exp ^ other.x_exp)


PHI_PLUS = BellLabel(0, 0)
PSI_PLUS = BellLabel(0, 1)
PHI_MINUS = BellLabel(1, 0)
PSI_MINUS = BellLabel(1, 1)
# Canonical instances: ``as_outcome``/``as_label`` hand these out, so
# converted codes compare and hash by identity in table lookups.
BELL_LABELS = (PHI_PLUS, PSI_PLUS, PHI_MINUS, PSI_MINUS)
BSM_OUTCOMES = (BsmOutcome(0, 0), BsmOutcome(0, 1), BsmOutcome(1, 0), BsmOutcome(1, 1))

CORRECTION_I = PauliCorrection(0, 0)
CORRECTION_X = PauliCorrection(0, 1)
CORRECTION_Z = PauliCorrection(1, 0)
CORRECTION_ZX = PauliCorrection(1, 1)
PAULI_CORRECTIONS = (CORRECTION_I, CORRECTION_X, CORRECTION_Z, CORRECTION_ZX)

# Probe state used by the oracle sweeps.  Its four Pauli images are pairwise
# distinguishable (no two have unit fidelity), so the encoding is unique.
_PROBE_AMPLITUDES = (0.6, 0.8j)


# ---------------------------------------------------------------------------
# Reference tables.  Transcribed row by row; the generated tables are diffed
# against these and any mismatch is reported with the offending rows.

_TELEPORT_ROWS = {
    PHI_PLUS: (CORRECTION_I, CORRECTION_X, CORRECTION_Z, CORRECTION_ZX),
    PSI_PLUS: (CORRECTION_X, CORRECTION_I, CORRECTION_ZX, CORRECTION_Z),
    PHI_MINUS: (CORRECTION_Z, CORRECTION_ZX, CORRECTION_I, CORRECTION_X),
    PSI_MINUS: (CORRECTION_ZX, CORRECTION_Z, CORRECTION_X, CORRECTION_I),
}

TELEPORT_REFERENCE = {
    (channel, outcome): row[i]
    for channel, row in _TELEPORT_ROWS.items()
    for i, outcome in enumerate(BSM_OUTCOMES)
}

# Each row groups the four initial pair combinations that share the same
# outcome->result mapping, followed by that mapping.
_SWAP_ROWS = (
    (
        ((PHI_PLUS, PHI_PLUS), (PSI_PLUS, PSI_PLUS), (PHI_MINUS, PHI_MINUS), (PSI_MINUS, PSI_MINUS)),
        (PHI_PLUS, PSI_PLUS, PHI_MINUS, PSI_MINUS),
    ),
    (
        ((PHI_PLUS, PSI_PLUS), (PSI_PLUS, PHI_PLUS), (PHI_MINUS, PSI_MINUS), (PSI_MINUS, PHI_MINUS)),
        (PSI_PLUS, PHI_PLUS, PSI_MINUS, PHI_MINUS),
    ),
    (
        ((PHI_PLUS, PHI_MINUS), (PSI_PLUS, PSI_MINUS), (PHI_MINUS, PHI_PLUS), (PSI_MINUS, PSI_PLUS)),
        (PHI_MINUS, PSI_MINUS, PHI_PLUS, PSI_PLUS),
    ),
    (
        ((PHI_PLUS, PSI_MINUS), (PSI_PLUS, PHI_MINUS), (PHI_MINUS, PSI_PLUS), (PSI_MINUS, PHI_PLUS)),
        (PSI_MINUS, PHI_MINUS, PSI_PLUS, PHI_PLUS),
    ),
)

SWAP_REFERENCE = {
    (pair_a, pair_b, outcome): results[i]
    for initial_pairs, results in _SWAP_ROWS
    for pair_a, pair_b in initial_pairs
    for i, outcome in enumerate(BSM_OUTCOMES)
}


# ---------------------------------------------------------------------------
# Oracle-generated tables.

@lru_cache(maxsize=1)
def generate_teleport_table() -> dict:
    """Sweep all 16 (channel, outcome) teleportations on the simulator.

    For each case a probe qubit is teleported, the Bell measurement is
    postselected on the outcome, and the unique Pauli mapping the probe to
    the receiver's qubit is identified by fidelity.
    """
    # Imported here to avoid an import cycle (statevec uses the label types).
    from . import statevec

    probe = statevec.single_qubit(*_PROBE_AMPLITUDES)
    candidates = {
        (outcome, corr): statevec.tensor(
            statevec.prepare_bell(outcome.as_label()), statevec.apply_pauli(probe, 0, corr)
        )
        for outcome in BSM_OUTCOMES
        for corr in PAULI_CORRECTIONS
    }
    table = {}
    for channel in BELL_LABELS:
        state = statevec.tensor(probe, statevec.prepare_bell(channel))
        for outcome in BSM_OUTCOMES:
            prob, post = statevec.bell_project(state, 0, 1, outcome.as_label())
            if post is None or abs(prob - 0.25) > 1e-9:
                raise AssertionError(
                    f"teleportation outcome {outcome.bits} on channel "
                    f"{channel.bits} had probability {prob}, expected 1/4"
                )
            matches = [
                corr
                for corr in PAULI_CORRECTIONS
                if statevec.states_equal(post, candidates[(outcome, corr)])
            ]
            if len(matches) != 1:
                raise AssertionError(
                    f"teleportation case ({channel.bits}, {outcome.bits}) "
                    f"matched {len(matches)} Pauli encodings"
                )
            table[(channel, outcome)] = matches[0]
    return table


@lru_cache(maxsize=1)
def generate_swap_table() -> dict:
    """Sweep all 64 swapping transformations on the simulator.

    Two pairs are prepared on a four-qubit register, the middle qubits are
    Bell-projected on the given outcome, and the surviving end-to-end pair is
    identified by fidelity against the four candidate arrangements.
    """
    from . import statevec

    candidates = {}
    for outcome, result in product(BSM_OUTCOMES, BELL_LABELS):
        candidate = statevec.zero_state(4)
        candidate = statevec.prepare_bell_on(candidate, 1, 2, outcome.as_label())
        candidates[(outcome, result)] = statevec.prepare_bell_on(candidate, 0, 3, result)
    table = {}
    for pair_a, pair_b in product(BELL_LABELS, repeat=2):
        state = statevec.zero_state(4)
        state = statevec.prepare_bell_on(state, 0, 1, pair_a)
        state = statevec.prepare_bell_on(state, 2, 3, pair_b)
        seen = set()
        for outcome in BSM_OUTCOMES:
            prob, post = statevec.bell_project(state, 1, 2, outcome.as_label())
            if post is None or abs(prob - 0.25) > 1e-9:
                raise AssertionError(
                    f"swap outcome {outcome.bits} on pairs "
                    f"({pair_a.bits}, {pair_b.bits}) had probability {prob}"
                )
            matches = [
                result
                for result in BELL_LABELS
                if statevec.states_equal(post, candidates[(outcome, result)])
            ]
            if len(matches) != 1:
                raise AssertionError(
                    f"swap case ({pair_a.bits}, {pair_b.bits}, {outcome.bits}) "
                    f"matched {len(matches)} pair states"
                )
            table[(pair_a, pair_b, outcome)] = matches[0]
            seen.add(matches[0])
        if len(seen) != 4:
            raise AssertionError(
                f"swap outcomes for pairs ({pair_a.bits}, {pair_b.bits}) "
                "are not a bijection"
            )
    return table


# ---------------------------------------------------------------------------
# Operations.

def teleport_correction(channel: BellLabel, bsm: BsmOutcome) -> PauliCorrection:
    """Correction the receiver applies to recover a state teleported over
    ``channel`` when the sender's Bell measurement gave ``bsm``.

    Equal to the encoding the in-flight state acquired, since Pauli factors
    are self-inverse up to phase.
    """
    return generate_teleport_table()[(channel, bsm)]


def swap_result(pair_sr1: BellLabel, pair_r1r2: BellLabel, bsm_r1: BsmOutcome) -> BellLabel:
    """Pair state swapped onto the two end parties after the middle party's
    Bell measurement returns ``bsm_r1``."""
    return generate_swap_table()[(pair_sr1, pair_r1r2, bsm_r1)]


def infer_remote_bsm(pair_a: BellLabel, pair_b: BellLabel, own_bsm: BsmOutcome) -> BsmOutcome:
    """Unique remote measurement outcome consistent with observing ``own_bsm``
    on one's own halves of the two shared pairs.

    Inverse of :func:`swap_result` in its third argument; the swap outcome is
    a bijection in that argument for fixed pairs.
    """
    observed = own_bsm.as_label()
    table = generate_swap_table()
    for outcome in BSM_OUTCOMES:
        if table[(pair_a, pair_b, outcome)] == observed:
            return outcome
    raise AssertionError("swap table lost bijectivity")  # pragma: no cover


def end_to_end_correction(
    pair1: BellLabel,
    pair2: BellLabel,
    swap_bsm: BsmOutcome,
    teleport_bsm: BsmOutcome,
) -> PauliCorrection:
    """Total encoding on the far receiver's qubit after swapping then
    teleporting: the teleport correction over the swapped channel.

    All four classical pieces are needed to determine it; no proper subset
    fixes even the parity exponent.
    """
    return teleport_correction(swap_result(pair1, pair2, swap_bsm), teleport_bsm)


def decode_classical(cipher_bit: int, corr: PauliCorrection) -> int:
    """Undo a Pauli encoding on a computational-basis bit.

    Only the X exponent acts on the bit value; a phase flip leaves any
    computational-basis measurement unchanged.
    """
    if cipher_bit not in (0, 1):
        raise ValueError(f"cipher bit must be 0 or 1, got {cipher_bit}")
    return cipher_bit ^ corr.x_exp


# ---------------------------------------------------------------------------
# Table verification.

def diff_teleport_table(generated: dict | None = None) -> list[str]:
    """Rows of the generated teleport table that disagree with the reference."""
    if generated is None:
        generated = generate_teleport_table()
    rows = []
    for channel in BELL_LABELS:
        for outcome in BSM_OUTCOMES:
            got = generated[(channel, outcome)]
            want = TELEPORT_REFERENCE[(channel, outcome)]
            if got != want:
                rows.append(
                    f"teleport channel={channel.symbol} bsm={outcome.bits}: "
                    f"generated {got.symbol}, reference {want.symbol}"
                )
    return rows


def diff_swap_table(generated: dict | None = None) -> list[str]:
    """Rows of the generated swap table that disagree with the reference."""
    if generated is None:
        generated = generate_swap_table()
    rows = []
    for pair_a, pair_b in product(BELL_LABELS, repeat=2):
        for outcome in BSM_OUTCOMES:
            got = generated[(pair_a, pair_b, outcome)]
            want = SWAP_REFERENCE[(pair_a, pair_b, outcome)]
            if got != want:
                rows.append(
                    f"swap pairs=({pair_a.symbol}, {pair_b.symbol}) "
                    f"bsm={outcome.bits}: generated {got.symbol}, "
                    f"reference {want.symbol}"
                )
    return rows
