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

Every run produces a :class:`Transcript`, which records its own events: quantum
sends, classical messages, measurements and phase markers, in order.  It is
serialised as one JSON object per line (schema ``qss-transcript/1``, bit
strings rendered most significant bit first) by :func:`jsonl`, the one line
writer of transcripts and ``qss-report/1`` reports: compact, keys sorted.  A
run reads its coins and pair codes off raw words of Philox4x64-10 keyed by the
64-bit seed, a stream numpy pins across versions, so identical (secret, seed,
attack) triples yield byte-identical transcripts.  Parties interact only
through channel events inside a single-threaded loop; independent runs may
execute concurrently.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from . import stabilizer, statevec
from .bell import (
    BELL_LABELS,
    BellLabel,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    _bit,
    _index,
    decode_classical,
    end_to_end_correction,
    infer_remote_bsm,
)
from .stabilizer import Step
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
# easy as 1, 2, 3", SC'11): the multipliers as (high half, low half, whole),
# each round's key increment (r * W0, r * W1) mod 2^64, and for each
# multiplier M the least x with hi(M·x) ≥ 2^63, ⌈2^127 / M⌉.
_M0, _M1 = _MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_M = tuple((np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF), np.uint64(m)) for m in _MULTIPLIERS)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_PHILOX_KEYS = tuple(
    (np.uint64(r * _PHILOX_W[0] % (MAX_SEED + 1)), np.uint64(r * _PHILOX_W[1] % (MAX_SEED + 1)))
    for r in range(_PHILOX_ROUNDS)
)
_HI_TOP_FROM = tuple(np.uint64(-(-(1 << 127) // m)) for m in _MULTIPLIERS)
# Rounds 0 and 1 on the counter alone for blocks j = 1..16 (words 0..63):
# rows hi(M1·h), lo(M1·h) and l ^ W1, where (h, l) = mulhilo(M0, j).
_COUNTER_ROUNDS = np.array(
    [(*divmod(_M1 * (_M0 * j >> 64), MAX_SEED + 1), (_M0 * j & MAX_SEED) ^ _PHILOX_W[1]) for j in range(1, 17)],
    dtype=np.uint64,
).T.copy()
_COUNTER_ROUNDS.flags.writeable = False  # a table of constants
_LOW32 = np.uint64(0xFFFFFFFF)
_COIN_BELOW = 1 << 63  # a coin is 1 when its raw word's top bit is 0
_TOP_BIT = np.uint64(_COIN_BELOW)


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


def coin_bits(keys: np.ndarray, coins: Iterable[int]) -> list[np.ndarray]:
    """Coins of ``make_rng(k)`` for each uint64 key ``k``, as :func:`_draw`
    reads them: one bool array per coin position in ``coins``, in the order
    asked, where coin j is True when raw word j is below 2^63.  Positions
    run from 0 to 63, in any order; any other raises ``ValueError``.  Only
    the Philox blocks that hold an asked coin are computed, and of the last
    round only the words read, so no coins compute no block.  An attack
    sweep asks for the coins that move the sender's check
    (:func:`security.attack_sweep`): coins 4 and 5, block 1 alone, under
    ``intercept-resend-computational:auth-r2``, and none at rate 0 or 1.

    numpy's Philox increments its counter before it fills each block of
    four words, so block j is the cipher of counter (j + 1, 0, 0, 0) under
    key (k, 0).  Round r maps (x0, x1, x2, x3) under key (k0, k1) + r·W to
    (hi(M1·x2) ^ x1 ^ k0, lo(M1·x2), hi(M0·x0) ^ x3 ^ k1, lo(M0·x0)), so:

    * round 0 gives (k, 0, h, l) with (h, l) = mulhilo(M0, j + 1), and
      round 1 (hi(M1·h) ^ (k + W0), lo(M1·h), hi(M0·k) ^ l ^ W1, lo(M0·k)):
      a column of ``_COUNTER_ROUNDS`` per block and one product over the
      keys;
    * rounds 2 to 8 multiply (blocks × keys) arrays, a row per computed
      block, so every key and counter term broadcasts along a contiguous
      row;
    * a coin reads only its word's top bit in round 9.  hi(M·x) ≥ 2^63
      exactly when x ≥ ⌈2^127 / M⌉ (``_HI_TOP_FROM``), and the top bit of
      a XOR is the XOR of the top bits, so a word is a wrapping multiply
      or a compare.

    Coin j is word j & 3 of block j >> 2."""
    coins = list(coins)
    if not all(0 <= coin < 64 for coin in coins):
        raise ValueError(f"coin positions run from 0 to 63, got {coins}")
    if not coins:  # no coin to read, so no block to compute
        return []
    keys = np.asarray(keys, dtype=np.uint64)
    blocks = sorted({coin >> 2 for coin in coins})
    ctr_hi, x1, ctr_lo = _COUNTER_ROUNDS[:, blocks, None]
    key_hi, x3 = _mulhilo(_PHILOX_M[0], keys)
    x0 = ctr_hi ^ (keys + _PHILOX_KEYS[1][0])
    x2 = key_hi ^ ctr_lo
    for k0, k1 in _PHILOX_KEYS[2:-1]:
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= keys + k0
        hi0 ^= x3
        hi0 ^= k1
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
    k0, k1 = _PHILOX_KEYS[-1]
    last_round = (  # each word's coin, a row per block
        lambda: (x2 < _HI_TOP_FROM[1]) ^ ((x1 ^ (keys + k0)) >= _TOP_BIT),
        lambda: x2 * _PHILOX_M[1][2] < _TOP_BIT,
        lambda: (x0 < _HI_TOP_FROM[0]) ^ ((x3 ^ k1) >= _TOP_BIT),
        lambda: x0 * _PHILOX_M[0][2] < _TOP_BIT,
    )
    words = {word: last_round[word]() for word in {coin & 3 for coin in coins}}
    rows = {block: row for row, block in enumerate(blocks)}
    return [words[coin & 3][rows[coin >> 2]] for coin in coins]


def coin_index(keys: np.ndarray, count: int) -> np.ndarray:
    """The branch index the first ``count`` coins of ``make_rng(k)`` give
    each uint64 key ``k`` (:func:`coin_bits`), the first coin most
    significant, as :func:`_draw` packs them.  ``count`` is below 64, so
    an index fits an int64, and a count of 0 gives zeros without a Philox
    pass.  The uniformity check reads every coin of the run this way
    (:func:`security._leaf_counts`)."""
    if not 0 <= count < 64:
        raise ValueError(f"coin_index packs 0 to 63 coins, got {count}")
    index = np.zeros(len(keys), dtype=np.int64)
    for coin in coin_bits(keys, range(count)):
        index <<= 1
        index |= coin
    return index


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
        if self.kind in ("intercept-resend-computational", "intercept-resend-bell"):
            bell = self.kind == "intercept-resend-bell"
            default = "split-r1" if bell else "split-r2"
            target = default if self.target is None else self.target
            if target not in QUANTUM_SEND_TARGETS:
                raise ValueError(f"unknown intercept target {target!r}")
            if bell and target == "split-r2":
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

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def jsonl(*records) -> str:
    """Each record as one line of compact JSON with sorted keys: the line
    format of transcripts and ``qss-report/1`` reports."""
    return "".join(_ENCODER.encode(record) + "\n" for record in records)


def _bits(label: BellLabel | None) -> str | None:
    return None if label is None else label.bits


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

    def to_json_obj(self) -> dict:
        return {
            "index": self.index,
            "phase": self.phase,
            "kind": self.kind,
            "from": self.sender,
            "to": self.recipient,
            "payload": self.payload,
            "basis": self.basis,
            "result": self.result,
        }


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
                "pair-label": _bits(self.pair1_label),
                "swap-bsm": _bits(self.swap_bsm),
            },
            "r2-share": {
                "cipher-bit": None if self.cipher_bit is None else str(self.cipher_bit),
                "pair-label": _bits(self.pair2_label),
            },
            "public-teleport-bsm": _bits(self.teleport_bsm),
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
            "r1-swap-bsm": _bits(self.swap_bsm),
            "r2-encrypted-qubit": qubit,
            "r3-pair1-label": _bits(self.pair1_label),
            "r4-pair2-label": _bits(self.pair2_label),
            "r5-teleport-bsm": _bits(self.teleport_bsm),
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
        header = {"schema": TRANSCRIPT_SCHEMA, "scheme": self.scheme, "seed": self.seed}
        footer = {
            "outcome": self.outcome,
            "reconstructed": None if self.reconstructed is None else str(self.reconstructed),
            "shares": self.shares.to_json_obj() if self.shares is not None else None,
        }
        if self.scheme == "qss55":
            footer["fidelity"] = self.reconstruction_fidelity
        if self.eavesdropper is not None:
            footer["eavesdropper"] = self.eavesdropper
        return jsonl(header, *(e.to_json_obj() for e in self.events), footer)

    def public_messages(self) -> list[Event]:
        return [e for e in self.events if e.kind == "classical-public"]

    def phase(self, name: str) -> None:
        self.events.append(Event(len(self.events), name, "phase", None, None, name))

    def quantum_send(self, sender: str, recipient: str, wire: str) -> None:
        self._record("quantum-send", sender, recipient, wire)

    def classical(self, sender: str, recipient: str, bits: str, private: bool = False) -> None:
        self._record("classical-private" if private else "classical-public", sender, recipient, bits)

    def measurement(self, party: str, basis: str, result: str) -> None:
        self._record("measurement", party, None, None, basis, result)

    def _record(self, kind: str, *values: str | None) -> None:
        # Appends an Event of sender, recipient, payload, basis and result in
        # the last event's phase: a marker carries its own name, and before
        # any marker the phase is "".
        events = self.events
        events.append(Event(len(events), events[-1].phase if events else "", kind, *values))


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
    """Steps of one token round on its four-qubit register [kept half of
    pair a, sent half of pair a, sent half of pair b, kept half of pair b]:
    any intercept of the two sent halves (quantum send ``target``), the
    receiver's Bell measurement (``code``), then the sender's (``observed``)."""
    return _intercept_steps(attack, target, (1, 2)) + (
        Step("bell", (1, 2), "code"),
        Step("bell", (0, 3), "observed"),
    )


@lru_cache(maxsize=None)
def splitting_steps(attack: AttackModel) -> tuple[Step, ...]:
    """Steps of the splitting phase on its five-qubit register [secret,
    kept half of pair 1, pair-1 half to R1, pair-2 half to R1, pair-2 half
    to R2]: any intercept, R1's swap measurement, the sender's teleport
    measurement, R2's measurement of the cipher qubit, and the
    eavesdropper's reading of an attached ancilla."""
    steps = (
        _intercept_steps(attack, "split-r1", (2, 3))
        + _intercept_steps(attack, "split-r2", (4,))
        + (Step("bell", (2, 3), "swap"), Step("bell", (0, 1), "tele"), Step("z", (4,), "cipher"))
    )
    if attack.kind == "entangle-ancilla":
        steps += (Step("z", (5,), "eve"),)
    return steps


def _draw(word: int, coins: tuple[int, ...], rng: np.random.Philox) -> int:
    # ``word`` XOR the columns of the coins that ``rng``'s next raw words
    # draw, one word per coin, in order: coin j is 1 when word j is below
    # 2^63.
    for column, raw in zip(coins, rng.random_raw(len(coins)).tolist()):
        if raw < _COIN_BELOW:
            word ^= column
    return word


def _input_index(inputs: tuple) -> int:
    # A phase's input codes as one index, the first most significant: only
    # the first, a splitting phase's secret, may be a bit.
    index = 0
    for value in inputs:
        index = 4 * index + value
    return index


def _draw_named(phase: str, steps: tuple[Step, ...], inputs: tuple, rng) -> dict:
    # The outcomes by step name of the branch of the input that ``rng``'s
    # fair coins draw; ``inputs`` are labels or bits.  The eavesdropper's
    # outcomes read as one bit string, in step order, a Bell outcome as
    # its label and a computational one as its bit.
    linear_map = stabilizer.linear_map(phase, steps)
    word = _draw(stabilizer.xor_columns(linear_map.inputs, _input_index(inputs)), linear_map.coins, rng)
    results = {}
    for name, field in linear_map.fields.items():
        value, width = stabilizer.field(word, field), field[1]
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
    transcript: Transcript,
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


def _run_maps(attack: AttackModel) -> list[stabilizer.LinearMap]:
    # The maps a seeded (2,2) run under the attack draws from, in draw
    # order: R1's and R2's token rounds, then the splitting phase.
    maps = [stabilizer.linear_map("token", token_steps(target, attack)) for target in _TOKEN_TARGETS.values()]
    maps.append(stabilizer.linear_map("splitting", splitting_steps(attack)))
    return maps


def coin_count(attack: AttackModel) -> int:
    """How many coins a seeded (2,2) run under the attack draws in all."""
    return sum(len(linear_map.coins) for linear_map in _run_maps(attack))


def _record_splitting(transcript: Transcript, results: Mapping) -> None:
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
    transcript: Transcript,
    attack: AttackModel,
) -> SplitResult:
    """Splitting phase of the (2,2) scheme on a computational-basis secret."""
    secret_bit = _index(secret_bit)  # a bool or numpy int runs as its int; 1.0 or a label raises
    if secret_bit not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {secret_bit}")
    results = _draw_named("splitting", splitting_steps(attack), (secret_bit, pair1, pair2), rng)
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
    *bell_steps, cipher_step = splitting_steps(NO_ATTACK)
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
    return swap_bsm ^ code1, cipher_bit ^ (code2 >> 1 ^ code2) & 1


def sent_tokens(
    code1: BellLabel, code2: BellLabel, swap_bsm: BellLabel, cipher_bit: int, attack: AttackModel
) -> tuple[BellLabel, int]:
    """The two tokens as the sender receives them: masked by
    :func:`mask_tokens`, then altered by an ``r1-lie`` or ``token-flip``
    attack."""
    token_r1, token_r2 = mask_tokens(code1, code2, swap_bsm, cipher_bit)
    if attack.kind == "r1-lie":
        token_r1 ^= 2 * attack.delta[0] + attack.delta[1]
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
    return bool(_accepts(records.pair2_label, records.teleport_bsm, records.secret_bit, 2 * z + x, token_r2))


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
    secret_bit = _index(secret_bit)  # a bool or numpy int runs as its int; 1.0 or a label raises
    if secret_bit not in (0, 1):
        raise ValueError(f"secret bit must be 0 or 1, got {secret_bit}")
    rng = make_rng(seed)
    transcript = Transcript(operator.index(seed), "qss22")  # make_rng's key

    transcript.phase("authentication-tokens")
    auth = run_auth_tokens(rng, transcript, attack)

    transcript.phase("information-splitting")
    split = run_splitting_22(
        secret_bit, auth.records[RECEIVER_1], auth.records[RECEIVER_2], rng, transcript, attack
    )

    transcript.phase("authentication")
    code1 = auth.codes[RECEIVER_1]
    code2 = auth.codes[RECEIVER_2]
    token_r1, token_r2 = sent_tokens(code1, code2, split.swap_bsm, split.cipher_bit, attack)
    transcript.classical(RECEIVER_1, SENDER, token_r1.bits)
    transcript.classical(RECEIVER_2, SENDER, str(token_r2))

    records = SenderRecords(
        pair1_label=auth.records[RECEIVER_1],
        pair2_label=auth.records[RECEIVER_2],
        teleport_bsm=split.teleport_bsm,
        secret_bit=secret_bit,
    )
    accepted = verify_authentication(records, (token_r1.z, token_r1.x), token_r2)

    if accepted:
        transcript.classical(SENDER, RECEIVER_1, split.teleport_bsm.bits)
        transcript.classical(SENDER, RECEIVER_2, split.teleport_bsm.bits)
        transcript.phase("combining")
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
    come from the honest splitting map at the pair codes drawn.  The
    circuit is Clifford, so R2's qubit is the secret under the Pauli
    :func:`end_to_end_correction` of the pieces (Pauli-frame bookkeeping):
    no register is simulated, and the printed amplitudes are the secret's
    own times Pauli signs.  There is no authentication round.  The
    transcript records the fidelity of reconstructing from the returned
    shares.
    """
    secret = statevec.single_qubit(*secret_amplitudes)  # validates normalisation
    rng = make_rng(seed)
    transcript = Transcript(operator.index(seed), "qss55")  # make_rng's key

    transcript.phase("information-splitting")
    # Word 0's low and high 32-bit halves give the pair codes, by top 2 bits.
    word = rng.random_raw()
    pair1, pair2 = BELL_LABELS[word >> 30 & 3], BELL_LABELS[word >> 62]
    transcript.classical(SENDER, RECEIVER_3, pair1.bits, private=True)
    transcript.classical(SENDER, RECEIVER_4, pair2.bits, private=True)
    # The swap and teleport outcomes are uniform whatever the secret qubit, so
    # secret bit 0 serves; the cipher bit draws no coin, and R2 keeps its qubit.
    results = _draw_named("splitting", splitting_steps(NO_ATTACK), (0, pair1, pair2), rng)
    del results["cipher"]
    swap, tele = results["swap"], results["tele"]
    _record_splitting(transcript, results)
    transcript.classical(SENDER, RECEIVER_5, tele.bits, private=True)

    encrypted = statevec.apply_pauli(secret, 0, end_to_end_correction(pair1, pair2, swap, tele))
    shares = ShareSet55(swap, encrypted, pair1, pair2, tele)
    transcript.phase("decoding")
    recovered = reconstruct55(shares)
    transcript.shares = shares
    transcript.outcome = "accepted"
    transcript.reconstruction_fidelity = statevec.fidelity(recovered, secret)
    validate_transcript(transcript)
    return transcript, shares
