"""Pair algebra of the four maximally entangled two-qubit states.

The four states, and the four outcomes of a Bell-basis measurement, are
2-bit codes: the first bit is the phase (Z) bit, the second the parity (X)
bit (00/11 vs 01/10 support), and a label is the ``int`` ``2*z + x``::

    00  (|00> + |11>)/sqrt(2)   Phi+
    01  (|01> + |10>)/sqrt(2)   Psi+
    10  (|00> - |11>)/sqrt(2)   Phi-
    11  (|01> - |10>)/sqrt(2)   Psi-

Every operation of the protocol is XOR on these codes, the Pauli-frame
bookkeeping of a Clifford circuit (Aaronson & Gottesman, PRA 70, 052328,
2004): teleporting over channel ``c`` with outcome ``m`` leaves the Pauli
encoding ``c ^ m``, and swapping pairs ``a`` and ``b`` with outcome ``m``
leaves the pair ``a ^ b ^ m``.

The oracle tables are the check: the 64-row swap table is *generated* on the
state-vector simulator, its 16 pair combinations going through each gate
together as one stack of registers and every row read off one joint Born
distribution of two Bell measurements over that stack, and its Φ+ rows are
the 16-row teleport table; both are diffed against reference tables
transcribed row by row, by the test suite (which also compares the XOR
operations with both on every row) and by the ``verify-tables`` command.
Protocol runs use the XOR operations alone: numpy is imported only by the
oracle sweep, so importing this module does not load it.

Global phases are dropped throughout: they are unobservable, and the swapping
identities only hold modulo a phase.
"""

from __future__ import annotations

import numbers
import operator
from functools import lru_cache


def _index(value) -> int:
    # operator.index, refusing a 2-bit value with TypeError as it refuses a
    # float: a label is an int, its code, but never a bit or a count.
    if isinstance(value, _TwoBits):
        raise TypeError(f"a {type(value).__name__} is not a bit")
    return operator.index(value)


def _bit(value) -> int | None:
    # ``value`` read as a bit: a bool or numpy int is its int; a float such
    # as 1.0 or a label is refused, not truncated, and gives None.
    try:
        bit = _index(value)
    except TypeError:
        return None
    return bit if bit in (0, 1) else None


class _TwoBits(int):
    """A Z bit and an X bit as the int code ``2*z + x``, equal only to the
    value of its own type and code.  ``a ^ b`` XORs the codes and returns
    the canonical instance of ``a``'s type.

    Each subclass lists its four symbols (``_SYMBOLS``) and canonical
    instances (``_CANONICAL``), indexed by code, which the constructor hands
    out."""

    __slots__ = ()

    def __new__(cls, z, x):
        bz, bx = _bit(z), _bit(x)
        if bz is None or bx is None:
            raise ValueError(f"{cls.__name__} bits must be 0 or 1, got ({z}, {x})")
        return cls._CANONICAL[2 * bz + bx]

    def __reduce__(self):
        return type(self), (self.z, self.x)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(z={self.z}, x={self.x})"

    def __eq__(self, other):
        if type(other) is type(self):
            return int.__eq__(self, other)
        # Unequal to any other number, the other type's label and its plain
        # code included; an array or a wildcard gets its reflected turn.
        return False if isinstance(other, numbers.Number) else NotImplemented

    __ne__ = object.__ne__  # the negation of __eq__, not int's
    __hash__ = int.__hash__

    @property
    def z(self) -> int:
        """The Z bit, a plain int."""
        return self >> 1

    @property
    def x(self) -> int:
        """The X bit, a plain int."""
        return self & 1

    @property
    def bits(self) -> str:
        """Most-significant-bit-first rendering: Z bit, then X bit."""
        return ("00", "01", "10", "11")[self]

    @property
    def symbol(self) -> str:
        return self._SYMBOLS[self]

    def __xor__(self, other):
        code = int.__xor__(self, other)  # NotImplemented unless ``other`` is an int
        return code if code is NotImplemented else self._CANONICAL[code]


class BellLabel(_TwoBits):
    """One of the four pair states, or the outcome of a Bell-basis
    measurement that projects onto it, as a (phase, parity) bit pair."""

    __slots__ = ()
    _SYMBOLS = ("Φ+", "Ψ+", "Φ-", "Ψ-")

    @classmethod
    def from_bits(cls, bits: str) -> BellLabel:
        if len(bits) != 2 or any(c not in "01" for c in bits):
            raise ValueError(f"expected a 2-bit string, got {bits!r}")
        return BELL_LABELS[int(bits, 2)]


class PauliCorrection(_TwoBits):
    """Pauli operator Z^z X^x (X applied first) as an exponent pair.

    Z and X are self-inverse up to a global phase, so the operator that
    *encodes* a teleported state and the correction that *decodes* it share
    the same exponent pair.  Corrections compose by ``^``.
    """

    __slots__ = ()
    _SYMBOLS = ("I", "X", "Z", "ZX")


# Canonical instances, indexed by code; Bell-measurement outcomes are labels.
BELL_LABELS = BellLabel._CANONICAL = tuple(int.__new__(BellLabel, code) for code in range(4))
PHI_PLUS, PSI_PLUS, PHI_MINUS, PSI_MINUS = BSM_OUTCOMES = BELL_LABELS

PAULI_CORRECTIONS = PauliCorrection._CANONICAL = tuple(int.__new__(PauliCorrection, code) for code in range(4))
CORRECTION_I, CORRECTION_X, CORRECTION_Z, CORRECTION_ZX = PAULI_CORRECTIONS

# ---------------------------------------------------------------------------
# Reference tables.  Transcribed row by row, independently of the XOR rule;
# the generated tables are diffed against these and any mismatch is
# reported with the offending rows.

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

def _surviving_pairs(joint) -> list:
    """Codes of the pair left on qubits (0, 3), nested as
    ``[pair a][pair b][middle outcome]``, from ``joint``: the joint Born
    distribution of the swap sweep's stack, with axes (pair a, pair b, Bell
    outcome on (1, 2), Bell outcome on (0, 3)).

    Each middle outcome must have probability 1/4; given it, exactly one end
    pair must have conditional probability at least ``EQUALITY_FIDELITY``;
    and each pair combination must map the outcomes one to one.  A failed
    check raises ``AssertionError`` naming its first failing case.
    """
    # Imported here: numpy serves only the oracle sweep, and statevec uses
    # the label types (an import cycle at module level).
    import numpy as np

    from . import statevec

    def case(a, b):
        return f"swap of pairs ({BELL_LABELS[a].bits}, {BELL_LABELS[b].bits})"

    middle = joint.sum(axis=-1)
    off = np.abs(middle - 0.25) > 1e-9
    if off.any():
        a, b, m = np.argwhere(off)[0]
        prob = float(middle[a, b, m])
        raise AssertionError(
            f"{case(a, b)}: outcome {BSM_OUTCOMES[m].bits} had probability {prob}, expected 1/4"
        )
    matches = joint / middle[..., None] >= statevec.EQUALITY_FIDELITY
    counts = matches.sum(axis=-1)
    if (counts != 1).any():
        a, b, m = np.argwhere(counts != 1)[0]
        raise AssertionError(
            f"{case(a, b)}: outcome {BSM_OUTCOMES[m].bits} matched {counts[a, b, m]} pair states"
        )
    # One pair per outcome: the outcomes map one to one when every pair is hit.
    missed = ~matches.any(axis=-2)
    if missed.any():
        a, b, _ = np.argwhere(missed)[0]
        raise AssertionError(f"{case(a, b)}: the outcomes are not a bijection")
    return matches.argmax(axis=-1).tolist()


@lru_cache(maxsize=1)
def generate_teleport_table() -> dict:
    """The 16 (channel, outcome) teleportations: the swap sweep's Φ+ rows.

    Teleporting one half of a Φ+ pair swaps entanglement (Zukowski et al.,
    PRL 71, 4287, 1993): the surviving pair is the channel's Choi state,
    whose code is the Pauli every teleported state picks up.  The swap
    sweep's pair a = Φ+ cases are that experiment, so they are not rerun.
    """
    return {
        (channel, outcome): PAULI_CORRECTIONS[pair]
        for (pair_a, channel, outcome), pair in generate_swap_table().items()
        if pair_a is PHI_PLUS
    }


@lru_cache(maxsize=1)
def generate_swap_table() -> dict:
    """Sweep all 64 swapping transformations on the simulator.

    A (4, 4) stack of four-qubit zero registers, indexed by (pair a, pair
    b), gets pair a on qubits (0, 1) and pair b on (2, 3), each by one
    preparation with a code array over the stack.  All 16 pair combinations
    go through each gate together, and one joint Born distribution of the
    two Bell measurements gives, for each combination and middle outcome,
    the surviving end-to-end pair.  Each combination must map the outcomes
    one to one.
    """
    import numpy as np

    from . import statevec

    pair_codes = np.arange(4)
    zeros = statevec.stack([statevec.stack([statevec.zero_state(4)] * 4)] * 4)
    pairs_a = statevec.prepare_bell_on(zeros, 0, 1, pair_codes[:, None])
    cases = statevec.prepare_bell_on(pairs_a, 2, 3, pair_codes)
    codes = _surviving_pairs(statevec.joint_distribution(cases, [(1, 2), (0, 3)]))
    return {
        (pair_a, pair_b, outcome): BELL_LABELS[code]
        for pair_a, row_a in zip(BELL_LABELS, codes)
        for pair_b, row in zip(BELL_LABELS, row_a)
        for outcome, code in zip(BSM_OUTCOMES, row)
    }


# ---------------------------------------------------------------------------
# Operations.

def teleport_correction(channel: BellLabel, bsm: BellLabel) -> PauliCorrection:
    """Correction the receiver applies to recover a state teleported over
    ``channel`` when the sender's Bell measurement gave ``bsm``.

    Equal to the encoding the in-flight state acquired, since Pauli factors
    are self-inverse up to phase.
    """
    return CORRECTION_I ^ channel ^ bsm


def swap_result(pair_sr1: BellLabel, pair_r1r2: BellLabel, bsm_r1: BellLabel) -> BellLabel:
    """Pair state swapped onto the two end parties after the middle party's
    Bell measurement returns ``bsm_r1``."""
    return pair_sr1 ^ pair_r1r2 ^ bsm_r1


def infer_remote_bsm(pair_a: BellLabel, pair_b: BellLabel, own_bsm: BellLabel) -> BellLabel:
    """Unique remote measurement outcome consistent with observing ``own_bsm``
    on one's own halves of the two shared pairs.

    Inverse of :func:`swap_result` in its third argument, which XOR is.
    """
    return pair_a ^ pair_b ^ own_bsm


def end_to_end_correction(
    pair1: BellLabel,
    pair2: BellLabel,
    swap_bsm: BellLabel,
    teleport_bsm: BellLabel,
) -> PauliCorrection:
    """Total encoding on the far receiver's qubit after swapping then
    teleporting: the teleport correction over the swapped channel.

    All four classical pieces are needed to determine it; no proper subset
    fixes even the parity exponent.
    """
    return CORRECTION_I ^ pair1 ^ pair2 ^ swap_bsm ^ teleport_bsm


def decode_classical(cipher_bit: int, corr: PauliCorrection) -> int:
    """Undo a Pauli encoding on a computational-basis bit.

    Only the X exponent acts on the bit value; a phase flip leaves any
    computational-basis measurement unchanged.
    """
    bit = _bit(cipher_bit)
    if bit is None:
        raise ValueError(f"cipher bit must be 0 or 1, got {cipher_bit}")
    return bit ^ corr.x


# ---------------------------------------------------------------------------
# Table verification.

def _diff_rows(generated: dict, reference: dict, row: str) -> list[str]:
    # ``row`` formats a key.  Rows come in key order, the order the
    # generators fill them; a row missing from ``generated`` raises KeyError.
    # Only the keys that differ are sorted: BellLabel compares in Python.
    differ = sorted(key for key, want in reference.items() if generated[key] != want)
    return [
        f"{row.format(*key)}: generated {generated[key].symbol}, reference {reference[key].symbol}"
        for key in differ
    ]


def diff_teleport_table(generated: dict) -> list[str]:
    """Rows of the generated teleport table that disagree with the reference."""
    return _diff_rows(generated, TELEPORT_REFERENCE, "teleport channel={0.symbol} bsm={1.bits}")


def diff_swap_table(generated: dict) -> list[str]:
    """Rows of the generated swap table that disagree with the reference."""
    return _diff_rows(generated, SWAP_REFERENCE, "swap pairs=({0.symbol}, {1.symbol}) bsm={2.bits}")
