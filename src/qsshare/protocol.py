"""Party state machines and full runs of the two secret-sharing schemes.

The (2,2) scheme shares one classical bit between receivers R1 and R2 in four
phases: authentication tokens (each receiver Bell-measures halves of two
publicly known pairs shared with the sender, who infers their outcomes from
their own measurement), information splitting (the sender prepares pairs
labelled by those outcomes, R1's measurement swaps a pair onto the sender and
R2, and the sender teleports the secret over it), authentication (receivers
return masked tokens; on a consistency match the sender publishes their
measurement result), and combining (both receivers pool their pieces).

The (5,5) scheme runs the same splitting circuit on a qubit secret, with the
five decryption pieces sent to five receivers over private channels and no
authentication round.

Every run produces a :class:`Transcript`: an ordered record of quantum sends,
classical messages, measurements and phase markers, serialisable as one JSON
object per line (schema ``qss-transcript/1``, bit strings rendered most
significant bit first).  A run reads its coins and pair codes off raw words
of Philox4x64-10 keyed by the 64-bit seed, a stream numpy pins across
versions, so identical (secret, seed, attack) triples yield byte-identical
transcripts.  Parties interact only through channel events inside a
single-threaded loop; independent runs may execute concurrently.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from . import statevec
from .bell import (
    BELL_LABELS,
    BellLabel,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    PauliCorrection,
    _bit,
    decode_classical,
    end_to_end_correction,
    infer_remote_bsm,
)
from .statevec import StateVector

TRANSCRIPT_SCHEMA = "qss-transcript/1"
MAX_SEED = 2**64 - 1

SENDER = "S"
RECEIVER_1 = "R1"
RECEIVER_2 = "R2"
RECEIVER_3 = "R3"
RECEIVER_4 = "R4"
RECEIVER_5 = "R5"
PARTIES = (SENDER, RECEIVER_1, RECEIVER_2, RECEIVER_3, RECEIVER_4, RECEIVER_5)

DEFAULT_AUTH_PAIRS: dict[str, tuple[BellLabel, BellLabel]] = {
    RECEIVER_1: (PHI_PLUS, PHI_MINUS),
    RECEIVER_2: (PSI_PLUS, PSI_MINUS),
}

ATTACK_KINDS = (
    "none",
    "intercept-resend-computational",
    "intercept-resend-bell",
    "token-flip",
    "r1-lie",
    "entangle-ancilla",
)
QUANTUM_SEND_TARGETS = ("auth-r1", "auth-r2", "split-r1", "split-r2")


class IncompleteSharesError(ValueError):
    """Raised when reconstruction is attempted with any piece missing."""


def make_rng(seed: int) -> np.random.Philox:
    """numpy's Philox4x64-10 bit generator keyed by a 64-bit seed; runs
    read only its raw words (``random_raw``)."""
    try:
        key = operator.index(seed)
    except TypeError:  # a float such as 1.5 is refused, not truncated
        key = -1
    if not 0 <= key <= MAX_SEED:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed}")
    return np.random.Philox(key=key)


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC'11): the multipliers as (high half, low half, whole)
# and each round's key increment (r * W0, r * W1) mod 2^64.
_PHILOX_M = tuple(
    (np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF), np.uint64(m))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_PHILOX_KEYS = tuple(
    (np.uint64(r * _PHILOX_W[0] % (MAX_SEED + 1)), np.uint64(r * _PHILOX_W[1] % (MAX_SEED + 1)))
    for r in range(_PHILOX_ROUNDS)
)
_LOW32 = np.uint64(0xFFFFFFFF)
_COIN_BELOW = 1 << 63  # a coin is 1 when its raw word's top bit is 0


def _mulhilo(a: tuple[np.uint64, ...], b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The high and low words of the 128-bit products a * b for a multiplier
    # a of _PHILOX_M, built from 32-bit halves so that no partial sum
    # overflows 64 bits; the partial sums are updated in place.
    a_hi, a_lo, a_full = a
    b_hi = b >> 32
    middle = b & _LOW32
    low = middle * a_lo
    middle *= a_hi
    low >>= 32
    middle += low  # a_hi * b_lo + the carry of a_lo * b_lo
    high = b_hi * a_hi
    b_hi *= a_lo
    np.bitwise_and(middle, _LOW32, out=low)
    other = b_hi
    other += low  # a_lo * b_hi + the low half of middle
    middle >>= 32
    other >>= 32
    high += middle
    high += other
    return high, b * a_full


def philox_words(keys: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` raw words of ``np.random.Philox(key=k)`` for each
    uint64 key ``k`` of ``keys``, as an array of shape (len(keys), count).

    numpy's Philox increments its counter before it fills each block of
    four words, so block j is the cipher of counter (j + 1, 0, 0, 0) under
    key (k, 0).  Round r maps (x0, x1, x2, x3) under key (k0, k1) + r·W to
    (hi(M1·x2) ^ x1 ^ k0, lo(M1·x2), hi(M0·x0) ^ x3 ^ k1, lo(M0·x0)), so
    the first two rounds fold:

    * round 0 gives (k, 0, h, l) with (h, l) = mulhilo(M0, j + 1), a
      vector over the blocks alone;
    * round 1 gives (hi(M1·h) ^ (k + W0), lo(M1·h), hi(M0·k) ^ l ^ W1,
      lo(M0·k)): one product over the blocks alone, one over the keys
      alone, and XORs that broadcast them to (keys × blocks) arrays.

    The other eight rounds multiply the full arrays, updating them in place.
    """
    keys = np.asarray(keys, dtype=np.uint64)[:, None]
    blocks = -(-count // 4)
    ctr_hi, ctr_lo = _mulhilo(_PHILOX_M[0], np.arange(1, blocks + 1, dtype=np.uint64))
    key_hi, x3 = _mulhilo(_PHILOX_M[0], keys)
    ctr_hi, x1 = _mulhilo(_PHILOX_M[1], ctr_hi)
    k0, k1 = _PHILOX_KEYS[1]
    x0 = ctr_hi ^ (keys + k0)
    x2 = key_hi ^ ctr_lo
    x2 ^= k1
    for k0, k1 in _PHILOX_KEYS[2:]:
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= keys + k0
        hi0 ^= x3
        hi0 ^= k1
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(len(keys), 4 * blocks)[:, :count]


def coin_index(keys: np.ndarray, count: int) -> np.ndarray:
    """The branch index the first ``count`` coins of ``make_rng(k)`` give
    each uint64 key ``k``, read as :func:`_draw` reads them: coin j is 1
    when raw word j is below 2^63, and the first coin is the most
    significant bit.  ``count`` is below 64, so an index fits an int64.

    Each key's coins fill the low bits of a 64-bit row, so packing the rows
    one after another gives each index as one big-endian word."""
    bits = np.zeros((len(keys), 64), dtype=bool)
    np.less(philox_words(keys, count), np.uint64(_COIN_BELOW), out=bits[:, 64 - count :])
    return np.packbits(bits).view(">i8").astype(np.int64)


# ---------------------------------------------------------------------------
# Attack models.

@dataclass(frozen=True)
class AttackModel:
    """An adversary action against a (2,2) run.

    Intercept-resend attacks measure in-flight qubits of one quantum send
    (``target``) and forward the collapsed states; ``entangle-ancilla``
    entangles an eavesdropper ancilla with the splitting qubit sent to R2
    instead of measuring it.  ``token-flip`` flips R2's one-bit token and
    ``r1-lie`` XORs ``delta`` into R1's two-bit token.  Classical messages
    are never blocked, only altered at their dishonest source or read.
    """

    kind: str = "none"
    target: str | None = None
    delta: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ATTACK_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind == "intercept-resend-computational":
            target = "split-r2" if self.target is None else self.target
            if target not in QUANTUM_SEND_TARGETS:
                raise ValueError(f"unknown intercept target {target!r}")
            object.__setattr__(self, "target", target)
        elif self.kind == "intercept-resend-bell":
            target = "split-r1" if self.target is None else self.target
            if target not in QUANTUM_SEND_TARGETS:
                raise ValueError(f"unknown intercept target {target!r}")
            if target == "split-r2":
                raise ValueError(
                    "a Bell-basis intercept needs two in-flight qubits; "
                    "the splitting send to R2 carries one"
                )
            object.__setattr__(self, "target", target)
        elif self.kind == "entangle-ancilla":
            if self.target not in (None, "split-r2"):
                raise ValueError("entangle-ancilla only targets the splitting send to R2")
            object.__setattr__(self, "target", "split-r2")
        elif self.target is not None:
            raise ValueError(f"attack {self.kind!r} takes no quantum-send target")
        if self.kind == "r1-lie":
            if self.delta is None:
                raise ValueError("r1-lie needs a 2-bit delta, e.g. r1-lie:01")
            if tuple(self.delta) not in {(0, 0), (0, 1), (1, 0), (1, 1)}:
                raise ValueError(f"delta must be a 2-bit pair, got {self.delta}")
            # Two Python ints, so that spec_string prints bits; 1.0 raises.
            object.__setattr__(self, "delta", tuple(map(operator.index, self.delta)))
        elif self.delta is not None:
            raise ValueError(f"attack {self.kind!r} takes no delta")

    @classmethod
    def from_spec(cls, text: str) -> "AttackModel":
        """Parse an attack spec string, e.g. ``token-flip``, ``r1-lie:01``,
        ``intercept-resend-computational:auth-r2``."""
        kind, colon, arg = text.strip().partition(":")
        if colon and not arg:
            raise ValueError(f"attack spec {text!r} has nothing after its ':'")
        if kind == "r1-lie":
            if len(arg) != 2 or any(c not in "01" for c in arg):
                raise ValueError(f"r1-lie needs a 2-bit delta, got {arg!r}")
            return cls(kind=kind, delta=(int(arg[0]), int(arg[1])))
        if arg:
            return cls(kind=kind, target=arg)
        return cls(kind=kind)

    @property
    def spec_string(self) -> str:
        if self.kind == "r1-lie":
            return f"r1-lie:{self.delta[0]}{self.delta[1]}"
        if self.target is not None:
            return f"{self.kind}:{self.target}"
        return self.kind


NO_ATTACK = AttackModel()


# ---------------------------------------------------------------------------
# Transcript model.

@dataclass
class Event:
    index: int
    phase: str
    kind: str  # phase | quantum-send | classical-public | classical-private | measurement
    sender: str | None = None
    recipient: str | None = None
    payload: str | None = None
    basis: str | None = None
    result: str | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "phase": self.phase,
                "kind": self.kind,
                "from": self.sender,
                "to": self.recipient,
                "payload": self.payload,
                "basis": self.basis,
                "result": self.result,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass
class ShareSet22:
    """Decryption pieces of a (2,2) run.

    R1 holds the first pair label and their swap measurement; R2 holds the
    measured cipher bit and the second pair label; the sender's teleport
    measurement becomes public after authentication.
    """

    pair1_label: BellLabel | None = None
    swap_bsm: BellLabel | None = None
    cipher_bit: int | None = None
    pair2_label: BellLabel | None = None
    teleport_bsm: BellLabel | None = None

    def to_json_obj(self) -> dict:
        return {
            "r1-share": {
                "pair-label": self.pair1_label.bits if self.pair1_label else None,
                "swap-bsm": self.swap_bsm.bits if self.swap_bsm else None,
            },
            "r2-share": {
                "cipher-bit": None if self.cipher_bit is None else str(self.cipher_bit),
                "pair-label": self.pair2_label.bits if self.pair2_label else None,
            },
            "public-teleport-bsm": self.teleport_bsm.bits if self.teleport_bsm else None,
        }


@dataclass
class ShareSet55:
    """The five decryption pieces of a (5,5) run.

    Held by R1 (swap measurement), R2 (the unmeasured encrypted qubit),
    R3 and R4 (the two pair labels) and R5 (the sender's teleport
    measurement).
    """

    swap_bsm: BellLabel | None = None
    encrypted_qubit: StateVector | None = None
    pair1_label: BellLabel | None = None
    pair2_label: BellLabel | None = None
    teleport_bsm: BellLabel | None = None

    def to_json_obj(self) -> dict:
        qubit = None
        if self.encrypted_qubit is not None:
            qubit = [[a.real, a.imag] for a in self.encrypted_qubit.amplitudes]
        return {
            "r1-swap-bsm": self.swap_bsm.bits if self.swap_bsm else None,
            "r2-encrypted-qubit": qubit,
            "r3-pair1-label": self.pair1_label.bits if self.pair1_label else None,
            "r4-pair2-label": self.pair2_label.bits if self.pair2_label else None,
            "r5-teleport-bsm": self.teleport_bsm.bits if self.teleport_bsm else None,
        }


@dataclass
class Transcript:
    seed: int
    scheme: str
    events: list[Event] = field(default_factory=list)
    shares: ShareSet22 | ShareSet55 | None = None
    outcome: str = "accepted"
    reconstructed: int | None = None
    reconstruction_fidelity: float | None = None
    eavesdropper: dict | None = None

    def to_jsonl(self) -> str:
        """One JSON object per line: header, events, then a footer with the
        final shares and outcome."""
        header = json.dumps(
            {"schema": TRANSCRIPT_SCHEMA, "scheme": self.scheme, "seed": self.seed},
            sort_keys=True,
            separators=(",", ":"),
        )
        footer_obj = {
            "outcome": self.outcome,
            "reconstructed": None if self.reconstructed is None else str(self.reconstructed),
            "shares": self.shares.to_json_obj() if self.shares is not None else None,
        }
        if self.scheme == "qss55":
            footer_obj["fidelity"] = self.reconstruction_fidelity
        if self.eavesdropper is not None:
            footer_obj["eavesdropper"] = self.eavesdropper
        footer = json.dumps(footer_obj, sort_keys=True, separators=(",", ":"))
        lines = [header, *(e.to_json() for e in self.events), footer]
        return "\n".join(lines) + "\n"

    def public_messages(self) -> list[Event]:
        return [e for e in self.events if e.kind == "classical-public"]


class _TranscriptBuilder:
    # Each helper appends one positionally built Event: (index, phase, kind,
    # sender, recipient, payload, basis, result).
    def __init__(self, seed: int, scheme: str) -> None:
        self.transcript = Transcript(seed=seed, scheme=scheme)
        self._events = self.transcript.events
        self._phase = ""

    def phase(self, name: str) -> None:
        self._phase = name
        events = self._events
        events.append(Event(len(events), name, "phase", None, None, name))

    def quantum_send(self, sender: str, recipient: str, wire: str) -> None:
        events = self._events
        events.append(Event(len(events), self._phase, "quantum-send", sender, recipient, wire))

    def classical(self, sender: str, recipient: str, bits: str, private: bool = False) -> None:
        kind = "classical-private" if private else "classical-public"
        events = self._events
        events.append(Event(len(events), self._phase, kind, sender, recipient, bits))

    def measurement(self, party: str, basis: str, result: str) -> None:
        events = self._events
        events.append(
            Event(len(events), self._phase, "measurement", party, None, None, basis, result)
        )


# Payloads a classical channel may carry and results a measurement may
# report: 1-2 bit strings.
_BIT_STRINGS = frozenset({"0", "1", "00", "01", "10", "11"})
_PARTY_SET = frozenset(PARTIES)


def validate_transcript(transcript: Transcript) -> None:
    """Check event ordering, channel discipline and abort safety.

    Classical channels may only carry 1-2 bit payloads, quantum sends only
    wire names, and a rejected run must never publish the sender's teleport
    measurement (the only classical message the sender emits in qss22).
    """
    for i, event in enumerate(transcript.events):
        if event.index != i:
            raise ValueError(f"event {i} carries index {event.index}")
        kind = event.kind
        if kind == "phase":
            continue
        if kind in ("classical-public", "classical-private"):
            if event.payload not in _BIT_STRINGS:
                raise ValueError(
                    f"classical event {i} payload {event.payload!r} is not a 1-2 bit string"
                )
            if event.sender not in _PARTY_SET or event.recipient not in _PARTY_SET:
                raise ValueError(f"classical event {i} has unknown endpoints")
        elif kind == "quantum-send":
            payload = event.payload or ""
            if not payload or all(c in "01" for c in payload):
                raise ValueError(
                    f"quantum send {i} must carry a wire name, got {event.payload!r}"
                )
            if event.basis is not None or event.result is not None:
                raise ValueError(f"quantum send {i} carries measurement fields")
        elif kind == "measurement":
            if event.basis not in ("bell", "computational"):
                raise ValueError(f"measurement {i} has basis {event.basis!r}")
            if event.result not in _BIT_STRINGS:
                raise ValueError(f"measurement {i} result {event.result!r} malformed")
        else:
            raise ValueError(f"unknown event kind {event.kind!r}")
    if transcript.outcome == "rejected":
        for event in transcript.events:
            if event.kind.startswith("classical") and event.sender == SENDER:
                raise ValueError(
                    "rejected run published a sender message "
                    f"(event {event.index})"
                )


# ---------------------------------------------------------------------------
# Phase steps and their linear maps.

class Step(NamedTuple):
    """One step of a phase: ``kind`` ``"z"`` measures ``qubits[0]`` in the
    computational basis, ``"bell"`` the pair ``qubits`` in the Bell basis,
    and ``"ancilla"`` attaches the eavesdropper's ancilla, a fresh qubit 5,
    by a CNOT from qubit 4.  ``name`` labels a measurement's result:
    ``eve``, ``code``, ``observed``, ``swap``, ``tele`` or ``cipher``."""

    kind: str
    qubits: tuple[int, ...] = ()
    name: str | None = None


def _intercept_steps(attack: AttackModel, target: str, in_flight: tuple[int, ...]) -> tuple[Step, ...]:
    # The eavesdropper's steps on the qubits of one quantum send.
    if attack.target != target:
        return ()
    if attack.kind == "intercept-resend-computational":
        return tuple(Step("z", (q,), "eve") for q in in_flight)
    if attack.kind == "intercept-resend-bell":
        return (Step("bell", in_flight, "eve"),)
    return (Step("ancilla"),)  # entangle-ancilla


@lru_cache(maxsize=None)
def token_steps(target: str, attack: AttackModel) -> tuple[Step, ...]:
    """Steps of one token round on :func:`prepare_token_register`: any
    intercept of the two sent halves (quantum send ``target``), the
    receiver's Bell measurement (``code``), then the sender's (``observed``)."""
    return _intercept_steps(attack, target, (1, 2)) + (
        Step("bell", (1, 2), "code"),
        Step("bell", (0, 3), "observed"),
    )


@lru_cache(maxsize=None)
def splitting_steps(attack: AttackModel, measure_cipher: bool) -> tuple[Step, ...]:
    """Steps of the splitting phase on :func:`prepare_splitting_register`:
    any intercept, R1's swap measurement, the sender's teleport measurement,
    R2's measurement of the cipher qubit when ``measure_cipher``, and the
    eavesdropper's reading of an attached ancilla."""
    steps = (
        _intercept_steps(attack, "split-r1", (2, 3))
        + _intercept_steps(attack, "split-r2", (4,))
        + (Step("bell", (2, 3), "swap"), Step("bell", (0, 1), "tele"))
    )
    if measure_cipher:
        steps += (Step("z", (4,), "cipher"),)
    if attack.kind == "entangle-ancilla":
        steps += (Step("z", (5,), "eve"),)
    return steps


def _code(outcome):
    # A 2-bit value (a Bell label or a Pauli correction) as its code
    # 2*z + x; anything else (a bit, a code, an int array) is its own code.
    return 2 * outcome.z + outcome.x if isinstance(outcome, (BellLabel, PauliCorrection)) else outcome


def _draw(word: int, coins: tuple[int, ...], rng: np.random.Philox) -> int:
    # ``word`` XOR the columns of the coins that ``rng``'s next raw words
    # draw, one word per coin, in order: coin j is 1 when word j is below
    # 2^63.
    for column, raw in zip(coins, rng.random_raw(len(coins)).tolist()):
        if raw < _COIN_BELOW:
            word ^= column
    return word


# Each phase's reference register, which prepare_token_register or
# prepare_splitting_register builds at all-zero inputs: whether the
# splitting secret |0> sits on qubit 0, and each Φ+ pair's qubits.  Every
# input bit is a sign symbol of its stabilizer generators (_coin_parities),
# in input order, so it has one input column of the phase's map
# (_linear_map): a secret bit s is X^s on qubit 0, so it flips the sign of
# Z on it, and a pair's code (z, x) is Z^z X^x on one of its qubits, so it
# flips the pair's XX by z and its ZZ by x.
_REFERENCES = {"token": (False, ((0, 1), (3, 2))), "splitting": (True, ((1, 2), (4, 3)))}

# The symbolic pass writes a Pauli as one int: qubit q's X bit is bit q and
# its Z bit is bit q + _Z.
_Z = statevec.MAX_QUBITS
_X_BITS = (1 << _Z) - 1


def _product_sign(generators: list[list[int]], pauli: int) -> int:
    # The sign mask of the product of ``generators`` that is ``pauli``, by
    # elimination over GF(2): each generator, reduced on the top bits of the
    # ones before it, joins the basis, and the Pauli is reduced last.
    basis = []
    for p, sign in generators + [[pauli, 0]]:
        for row, row_sign in basis:
            if p ^ row < p:  # p holds row's top bit
                p, sign = p ^ row, sign ^ row_sign
        basis.append((p, sign))
    assert p == 0, "a Pauli that commutes with every generator is not their product"
    return sign


def _coin_parities(phase: str, steps: tuple[Step, ...]) -> tuple[list[int], int, int]:
    """One symbolic stabilizer pass of ``steps`` on the phase's reference
    register (Aaronson & Gottesman, PRA 70, 052328, 2004): each outcome
    bit, in word order (a Bell step's z bit, then its x bit), as the mask
    of the symbols it is the XOR of, then the numbers of input symbols and
    of coins.  Symbol i below the input count is the phase's i-th input
    bit, most significant first; the fair coins sit above them.

    Each stabilizer generator is a Pauli and a mask of symbols: its sign is
    -1 when the XOR of those symbols is 1.  The reference register's
    generators are Z on the secret, then XX and ZZ on each Φ+ pair, and
    generator i starts with input symbol i as its sign (see _REFERENCES).
    A measured Pauli that anticommutes with a generator draws a new coin;
    any other is a product of generators and reads the XOR of their masks.
    A Bell step measures ZZ, its x bit, then XX, its z bit.  The ancilla
    step adds Z on qubit 5 and conjugates by the CNOT from qubit 4.  Every
    generator and measured Pauli is pure X or pure Z (CSS), so no product
    of generators picks up a phase.
    """
    secret, pairs = _REFERENCES[phase]
    paulis = [1 << _Z] if secret else []
    for a, b in pairs:
        paulis += [1 << a | 1 << b, (1 << a | 1 << b) << _Z]
    generators = [[pauli, 1 << i] for i, pauli in enumerate(paulis)]
    inputs = coins = len(generators)
    bits = []

    def measure(pauli: int) -> int:
        nonlocal coins
        anticommuting = [
            g for g in generators if ((g[0] >> _Z) & pauli ^ g[0] & (pauli >> _Z)).bit_count() & 1
        ]
        if not anticommuting:
            return _product_sign(generators, pauli)
        first, *rest = anticommuting
        for g in rest:
            g[0] ^= first[0]
            g[1] ^= first[1]
        first[:] = pauli, 1 << coins
        coins += 1
        return first[1]

    for kind, qubits, _ in steps:
        mask = sum(1 << q for q in qubits)
        if kind == "ancilla":
            generators.append([1 << (5 + _Z), 0])
            for g in generators:  # X4 -> X4 X5 and Z5 -> Z4 Z5
                g[0] ^= (g[0] >> 4 & 1) << 5 | (g[0] >> (5 + _Z) & 1) << (4 + _Z)
        elif kind == "bell":
            x = measure(mask << _Z)
            bits += [measure(mask), x]
        else:
            bits.append(measure(mask << _Z))
        assert not any(p & _X_BITS and p >> _Z for p, _ in generators), "a generator is not CSS"
    return bits, inputs, coins - inputs


class _LinearMap(NamedTuple):
    """A step list's outcomes on one phase (:func:`_linear_map`) as a GF(2)
    map of packed ints.  A word packs every outcome bit, in step order and a
    Bell step's z bit before its x bit, the first bit most significant; a
    column is the outcome bits one symbol flips."""

    inputs: tuple[int, ...]  # each input bit's column, the first input bit first
    coins: tuple[int, ...]  # each coin's column, in draw order
    # Each step name's (shift, width) in a word: the eavesdropper's steps,
    # always adjacent, share one field.
    fields: Mapping[str, tuple[int, int]]


@lru_cache(maxsize=None)
def _linear_map(phase: str, steps: tuple[Step, ...]) -> _LinearMap:
    """The outcomes of ``steps`` for every input of the ``phase``: one
    symbolic pass (:func:`_coin_parities`) gives each outcome bit as a
    parity of input bits and d fair coins, so an input's 2^d branches are
    equally likely by construction.  Branch i of an input is the XOR of the
    columns of the input's set bits and of i's set bits, read against the
    coins most significant first (:func:`_draw`), and the branches come out
    in ascending order of their words.

    The coins' columns are in reduced echelon form, each with its pivot at
    the outcome bit that drew it: that bit reads the new coin alone, and no
    earlier bit reads it.  So no other column sets a coin's pivot, every
    input column is already reduced against the coins, and ordering the
    coins by pivot, highest first, orders each input's branches by word.
    That is the order a run draws them in, not always the pass's: a Bell
    step's x bit draws its coin before its z bit does.
    """
    parities, inputs, coins = _coin_parities(phase, steps)
    columns = [0] * (inputs + coins)
    for mask in parities:
        columns = [column << 1 | mask >> symbol & 1 for symbol, column in enumerate(columns)]
    fields, shift = {}, len(parities)
    for step in steps:
        if step.kind != "ancilla":
            width = 2 if step.kind == "bell" else 1
            shift -= width
            if step.name in fields:
                end, joined = fields[step.name]
                assert step.name == "eve" and end == shift + width, f"{step.name} steps repeat apart"
                width += joined
            fields[step.name] = shift, width
    coin_columns = sorted(columns[inputs:], reverse=True)
    return _LinearMap(tuple(columns[:inputs]), tuple(coin_columns), MappingProxyType(fields))


def _xor_columns(columns: tuple[int, ...], index):
    # The XOR of the columns of index's set bits, the first column the most
    # significant bit: ints, or int arrays element by element.
    word = 0
    for bit, column in enumerate(reversed(columns)):
        word ^= (index >> bit & 1) * column
    return word


def _field(word, field: tuple[int, int]):
    # One field's outcome (_LinearMap.fields) in a word or word array.
    shift, width = field
    return word >> shift & (1 << width) - 1


def _input_index(inputs: tuple) -> int:
    # A phase's input codes as one index, the first most significant: only
    # the first, a splitting phase's secret, may be a bit.
    index = 0
    for value in inputs:
        index = 4 * index + _code(value)
    return index


def _draw_named(phase: str, steps: tuple[Step, ...], inputs: tuple, rng) -> dict:
    # The outcomes by step name of the branch of the input that ``rng``'s
    # fair coins draw; ``inputs`` are labels or bits.  The eavesdropper's
    # outcomes read as one bit string, in step order, a Bell outcome as
    # its label and a computational one as its bit.
    linear_map = _linear_map(phase, steps)
    word = _draw(_xor_columns(linear_map.inputs, _input_index(inputs)), linear_map.coins, rng)
    results = {}
    for name, field in linear_map.fields.items():
        value, width = _field(word, field), field[1]
        if name == "eve":
            results[name] = format(value, f"0{width}b")
        else:
            results[name] = BELL_LABELS[value] if width == 2 else value
    return results


# ---------------------------------------------------------------------------
# Authentication-token phase.

@dataclass
class AuthResult:
    codes: dict[str, BellLabel]
    records: dict[str, BellLabel]
    eavesdropped: dict[str, str]


# Each receiver's token round and the quantum send an eavesdropper targets.
_TOKEN_TARGETS = {RECEIVER_1: "auth-r1", RECEIVER_2: "auth-r2"}


def prepare_token_register(pair_a: BellLabel, pair_b: BellLabel) -> StateVector:
    """Four-qubit token-phase register: [kept half of pair a, sent half of
    pair a, sent half of pair b, kept half of pair b]."""
    state = statevec.zero_state(4)
    state = statevec.prepare_bell_on(state, 0, 1, pair_a)
    state = statevec.prepare_bell_on(state, 3, 2, pair_b)
    return state


def run_auth_tokens(
    rng: np.random.Philox,
    transcript: _TranscriptBuilder,
    attack: AttackModel,
) -> AuthResult:
    """Token phase of the (2,2) scheme.

    For each receiver the sender shares the two publicly known pairs of
    :data:`DEFAULT_AUTH_PAIRS`; the receiver Bell-measures their halves and
    keeps the outcome as a secret 2-bit code, while the sender measures the
    retained halves and infers the same code from the swap relation.
    Honest runs leave both sides with equal, uniformly distributed codes.
    """
    codes: dict[str, BellLabel] = {}
    records: dict[str, BellLabel] = {}
    eavesdropped: dict[str, str] = {}
    for receiver, target in _TOKEN_TARGETS.items():
        pair_a, pair_b = DEFAULT_AUTH_PAIRS[receiver]
        transcript.quantum_send(SENDER, receiver, "token-pair1-half")
        transcript.quantum_send(SENDER, receiver, "token-pair2-half")
        results = _draw_named("token", token_steps(target, attack), (pair_a, pair_b), rng)
        code, observed = results["code"], results["observed"]
        codes[receiver] = code
        records[receiver] = infer_remote_bsm(pair_a, pair_b, observed)
        if "eve" in results:
            eavesdropped[target] = results["eve"]
        transcript.measurement(receiver, "bell", code.bits)
        transcript.measurement(SENDER, "bell", observed.bits)
    return AuthResult(codes=codes, records=records, eavesdropped=eavesdropped)


# ---------------------------------------------------------------------------
# Information-splitting phase.

@dataclass
class SplitResult:
    swap_bsm: BellLabel
    teleport_bsm: BellLabel
    cipher_bit: int
    eavesdropped: dict[str, str]


def prepare_splitting_register(secret: StateVector, pair1: BellLabel, pair2: BellLabel) -> StateVector:
    """Five-qubit splitting register: [secret, kept half of pair 1, pair-1
    half to R1, pair-2 half to R1, pair-2 half to R2]."""
    state = statevec.tensor(secret, statevec.zero_state(4))
    state = statevec.prepare_bell_on(state, 1, 2, pair1)
    state = statevec.prepare_bell_on(state, 4, 3, pair2)
    return state


def _run_maps(attack: AttackModel) -> list[_LinearMap]:
    # The maps a seeded (2,2) run under the attack draws from, in draw
    # order: R1's and R2's token rounds, then the splitting phase.
    maps = [_linear_map("token", token_steps(target, attack)) for target in _TOKEN_TARGETS.values()]
    maps.append(_linear_map("splitting", splitting_steps(attack, True)))
    return maps


def coin_count(attack: AttackModel) -> int:
    """How many coins a seeded (2,2) run under the attack draws in all."""
    return sum(len(linear_map.coins) for linear_map in _run_maps(attack))


def _record_splitting(transcript: _TranscriptBuilder, results: Mapping) -> None:
    # The splitting phase's sends and its receivers' and sender's
    # measurements, from the outcomes by name.
    transcript.quantum_send(SENDER, RECEIVER_1, "split-pair1-half")
    transcript.quantum_send(SENDER, RECEIVER_1, "split-pair2-half")
    transcript.quantum_send(SENDER, RECEIVER_2, "split-cipher-qubit")
    transcript.measurement(RECEIVER_1, "bell", results["swap"].bits)
    transcript.measurement(SENDER, "bell", results["tele"].bits)
    if "cipher" in results:
        transcript.measurement(RECEIVER_2, "computational", str(results["cipher"]))


def run_splitting_22(
    secret_bit: int,
    pair1: BellLabel,
    pair2: BellLabel,
    rng: np.random.Philox,
    transcript: _TranscriptBuilder,
    attack: AttackModel,
) -> SplitResult:
    """Splitting phase of the (2,2) scheme on a computational-basis secret."""
    secret_bit = operator.index(secret_bit)  # a bool or numpy int runs as its int; 1.0 raises
    if secret_bit not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {secret_bit}")
    results = _draw_named("splitting", splitting_steps(attack, True), (secret_bit, pair1, pair2), rng)
    _record_splitting(transcript, results)
    return SplitResult(
        swap_bsm=results["swap"],
        teleport_bsm=results["tele"],
        cipher_bit=results["cipher"],
        eavesdropped={attack.target: results["eve"]} if "eve" in results else {},
    )


def splitting_branch(
    secret: StateVector,
    pair1: BellLabel,
    pair2: BellLabel,
    swap_bsm: BellLabel,
    teleport_bsm: BellLabel,
) -> tuple[float, StateVector]:
    """The honest splitting phase postselected on both Bell outcomes: the
    tests' postselection reference for R2's qubit in :func:`run_qss55`.

    Projects the Bell steps of :func:`splitting_steps` in step order, each
    onto the outcome of its name.  Returns the branch probability, 1/16 for
    every pair of outcomes whatever the secret, and the state of R2's qubit
    (with an arbitrary global phase): the one the cipher step would measure,
    left unmeasured here.
    """
    state = prepare_splitting_register(secret, pair1, pair2)
    outcomes = {"swap": swap_bsm, "tele": teleport_bsm}
    *bell_steps, cipher_step = splitting_steps(NO_ATTACK, True)
    probability = 1.0
    for _, qubits, name in bell_steps:
        p, state = statevec.bell_project(state, *qubits, outcomes[name])
        probability *= p
    return probability, statevec.extract_pure_qubit(state, *cipher_step.qubits)


# ---------------------------------------------------------------------------
# Authentication and reconstruction.

@dataclass(frozen=True)
class SenderRecords:
    """Everything the sender holds when verifying the receivers' tokens."""

    pair1_label: BellLabel
    pair2_label: BellLabel
    teleport_bsm: BellLabel
    secret_bit: int


def mask_tokens(
    code1: BellLabel, code2: BellLabel, swap_bsm: BellLabel, cipher_bit: int
) -> tuple[BellLabel, int]:
    """R1's token, its swap outcome XOR its code, and R2's token, its cipher
    bit XOR both bits of its code: on Bell labels, or on codes ``2*z + x``
    as ints or int arrays.

    XOR is its own inverse, so the sender unmasks received tokens with the
    same call and their stored codes.
    """
    c = _code(code2)
    return swap_bsm ^ code1, cipher_bit ^ (c >> 1 ^ c) & 1


def sent_tokens(
    code1: BellLabel, code2: BellLabel, swap_bsm: BellLabel, cipher_bit: int, attack: AttackModel
) -> tuple[BellLabel, int]:
    """The two tokens as the sender receives them: masked by
    :func:`mask_tokens`, then altered by an ``r1-lie`` or ``token-flip``
    attack."""
    token_r1, token_r2 = mask_tokens(code1, code2, swap_bsm, cipher_bit)
    if attack.kind == "r1-lie":
        z, x = attack.delta
        token_r1 ^= BELL_LABELS[2 * z + x]
    if attack.kind == "token-flip":
        token_r2 ^= 1
    return token_r1, token_r2


def _accepts(record2, tele, secret, token_r1, token_r2):
    # The sender's check on codes 2*z + x, as ints or int arrays: R2's
    # record, the teleport outcome, the secret bit, R1's token code and
    # R2's token bit.  Unmasking R1's token XORs R1's record in, and the
    # end-to-end correction XORs it out, so the record cancels: the
    # correction is record2 ^ token_r1 ^ tele.  R2's unmasked cipher bit
    # carries both bits of record2 and its prediction the x bit, which
    # cancels too.  What is left is one parity of five bits: R2's token,
    # the z bit of R2's record, the x bits of R1's token and of the
    # teleport outcome, and the secret.
    return (token_r2 ^ token_r1 ^ tele ^ secret ^ record2 >> 1) & 1 == 0


def verify_authentication(
    records: SenderRecords,
    token_r1: tuple[int, int],
    token_r2: int,
) -> bool:
    """Sender-side consistency check of the two masked tokens.

    The sender unmasks R1's swap outcome and R2's cipher bit with their
    stored codes and accepts when the cipher bit equals their exact
    prediction from the end-to-end correction.  Only on acceptance may the
    teleport measurement be published.  Tokens that are not bits raise
    ``ValueError``.
    """
    z, x = token_r1
    if _bit(z) is None or _bit(x) is None:
        raise ValueError(f"outcome bits must be 0 or 1, got ({z}, {x})")
    if _bit(token_r2) is None:
        raise ValueError(f"cipher token must be 0 or 1, got {token_r2!r}")
    record2, tele = _code(records.pair2_label), _code(records.teleport_bsm)
    return bool(_accepts(record2, tele, records.secret_bit, 2 * z + x, token_r2))


def _require_every_share(shares: ShareSet22 | ShareSet55) -> None:
    # Raises IncompleteSharesError naming the missing pieces in field order,
    # each field name with dashes for underscores.
    missing = [f.name.replace("_", "-") for f in fields(shares) if getattr(shares, f.name) is None]
    if missing:
        raise IncompleteSharesError(f"missing shares: {', '.join(missing)}")


def reconstruct22(shares: ShareSet22) -> int:
    """Recover the secret bit from a complete (2,2) share set.

    Raises :class:`IncompleteSharesError` when any piece is missing; a
    partial answer is never returned.
    """
    _require_every_share(shares)
    correction = end_to_end_correction(
        shares.pair1_label, shares.pair2_label, shares.swap_bsm, shares.teleport_bsm
    )
    return decode_classical(shares.cipher_bit, correction)


def reconstruct55(shares: ShareSet55) -> StateVector:
    """Recover the secret qubit from a complete (5,5) share set."""
    _require_every_share(shares)
    correction = end_to_end_correction(
        shares.pair1_label, shares.pair2_label, shares.swap_bsm, shares.teleport_bsm
    )
    return statevec.apply_pauli(shares.encrypted_qubit, 0, correction)


# ---------------------------------------------------------------------------
# Full runs.

def run_qss22(
    secret_bit: int,
    seed: int,
    attack: AttackModel = NO_ATTACK,
) -> Transcript:
    """One full (2,2) run: tokens, splitting, authentication, combining.

    On rejection the run aborts: the teleport measurement is never published
    and no reconstruction is attempted.
    """
    secret_bit = operator.index(secret_bit)  # a bool or numpy int runs as its int; 1.0 raises
    if secret_bit not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {secret_bit}")
    rng = make_rng(seed)
    builder = _TranscriptBuilder(operator.index(seed), "qss22")  # make_rng's key

    builder.phase("authentication-tokens")
    auth = run_auth_tokens(rng, builder, attack)

    builder.phase("information-splitting")
    split = run_splitting_22(
        secret_bit,
        auth.records[RECEIVER_1],
        auth.records[RECEIVER_2],
        rng,
        builder,
        attack,
    )

    builder.phase("authentication")
    code1 = auth.codes[RECEIVER_1]
    code2 = auth.codes[RECEIVER_2]
    token_r1, token_r2 = sent_tokens(code1, code2, split.swap_bsm, split.cipher_bit, attack)
    builder.classical(RECEIVER_1, SENDER, token_r1.bits)
    builder.classical(RECEIVER_2, SENDER, str(token_r2))

    records = SenderRecords(
        pair1_label=auth.records[RECEIVER_1],
        pair2_label=auth.records[RECEIVER_2],
        teleport_bsm=split.teleport_bsm,
        secret_bit=secret_bit,
    )
    accepted = verify_authentication(records, (token_r1.z, token_r1.x), token_r2)

    transcript = builder.transcript
    if accepted:
        builder.classical(SENDER, RECEIVER_1, split.teleport_bsm.bits)
        builder.classical(SENDER, RECEIVER_2, split.teleport_bsm.bits)
        builder.phase("combining")
        shares = ShareSet22(
            pair1_label=code1,
            swap_bsm=split.swap_bsm,
            cipher_bit=split.cipher_bit,
            pair2_label=code2,
            teleport_bsm=split.teleport_bsm,
        )
        transcript.shares = shares
        transcript.outcome = "accepted"
        transcript.reconstructed = reconstruct22(shares)
    else:
        transcript.outcome = "rejected"

    if attack.kind != "none":
        observed = dict(auth.eavesdropped)
        observed.update(split.eavesdropped)
        transcript.eavesdropper = {
            "attack": attack.spec_string,
            "observed": observed,
        }
    validate_transcript(transcript)
    return transcript


def run_qss55(
    secret_amplitudes: tuple[complex, complex],
    seed: int,
) -> tuple[Transcript, ShareSet55]:
    """One full (5,5) run on a qubit secret.

    The sender draws both pair labels uniformly, runs the splitting circuit,
    and distributes the four classical pieces over private channels; R2
    keeps the unmeasured encrypted qubit.  The swap and teleport outcomes
    come from the no-cipher splitting map at the pair codes drawn.  The
    circuit is Clifford, so R2's qubit is the secret under the Pauli
    :func:`end_to_end_correction` of the pieces (Pauli-frame bookkeeping):
    no register is simulated, and the printed amplitudes are the secret's
    own times Pauli signs.  There is no authentication round.  The
    transcript records the fidelity of reconstructing from the returned
    shares.
    """
    secret = statevec.single_qubit(*secret_amplitudes)  # validates normalisation
    rng = make_rng(seed)
    builder = _TranscriptBuilder(operator.index(seed), "qss55")  # make_rng's key

    builder.phase("information-splitting")
    # Word 0's low and high 32-bit halves give the pair codes, by top 2 bits.
    word = rng.random_raw()
    pair1, pair2 = BELL_LABELS[word >> 30 & 3], BELL_LABELS[word >> 62]
    builder.classical(SENDER, RECEIVER_3, pair1.bits, private=True)
    builder.classical(SENDER, RECEIVER_4, pair2.bits, private=True)
    # The swap and teleport outcomes are uniform whatever the secret qubit
    # (the teleportation property), so the map's secret-bit-0 branches serve.
    results = _draw_named("splitting", splitting_steps(NO_ATTACK, False), (0, pair1, pair2), rng)
    swap, tele = results["swap"], results["tele"]
    _record_splitting(builder, results)
    builder.classical(SENDER, RECEIVER_5, tele.bits, private=True)

    encrypted = statevec.apply_pauli(secret, 0, end_to_end_correction(pair1, pair2, swap, tele))
    shares = ShareSet55(swap, encrypted, pair1, pair2, tele)
    builder.phase("decoding")
    recovered = reconstruct55(shares)
    transcript = builder.transcript
    transcript.shares = shares
    transcript.outcome = "accepted"
    transcript.reconstruction_fidelity = statevec.fidelity(recovered, secret)
    validate_transcript(transcript)
    return transcript, shares
