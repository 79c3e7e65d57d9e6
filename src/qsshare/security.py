"""Exact secrecy and authentication analysis of the (2,2) and (5,5) schemes.

The branch sets come from the phase maps (:func:`stabilizer.linear_map`),
which the sampled runs draw from: one symbolic stabilizer pass per phase
step list gives each outcome bit as a parity of input bits and fair
coins.  Everything is on integer codes,
2-bit values as ``2*z + x``.  A (2,2) run's branches are indexed by the
secret, then the coins in draw order; a branch's columns pack into one int
word (:data:`_RUN_FIELDS`), affine over GF(2) in those bits.  So
:func:`_basis`, the one place that composes the maps, fixes the run by its
words at the all-zero branch and each single-bit one, the zero word XOR
one map column's image each, and :func:`_run_words` expands them into
one int64 array for the readers of every branch, the 512 honest cases
and a sweep's leaf keys, by doubling it once per basis bit.

- a view (:data:`_VIEW_COLUMNS`) of an honest run gives 1 bit, with guess
  advantage 1/2, when the secret's flip of its columns lies outside the
  GF(2) span of the coins' flips, and 0 bits otherwise;
- a k-bit public message is uniform when its bits have rank k;
- an attack detection rate is 1/2 when the secret or any coin flips the
  sender's check, and otherwise its value at zero.  The check is one
  parity of a run word's bits (:data:`_REJECT_MASK`), read off
  :func:`protocol._accepts`, which :func:`protocol.verify_authentication`
  also decides by;
- the encrypted qubit is the secret under one Pauli, the XOR of the four
  pieces' codes.  An unknown piece makes that Pauli uniform, which leaves
  the averaged qubit maximally mixed whatever the secret: the distance is
  exactly zero.  With all four pieces known the qubit is pure.

Floating point only appears at the reporting boundary, so "exactly zero"
results do not depend on rounding.

Priors: all hidden protocol randomness is uniform (matching the Born-rule
outcome distributions) and the secret bit is uniform.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat, starmap
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import protocol, stabilizer, statevec
from .bell import BELL_LABELS, PHI_PLUS, BellLabel, infer_remote_bsm
from .protocol import (
    NO_ATTACK,
    AttackModel,
    mask_tokens,
    sent_tokens,
)

REPORT_SCHEMA = "qss-report/1"

# The phase maps' lru cache, by the name the benchmark empties it through.
_splitting_branches = stabilizer.linear_map

# Normal quantile for a two-sided 99% interval.
Z_99 = 2.5758293035489004

PIECES = ("pair1", "pair2", "swap-bsm", "teleport-bsm")

# Each column's (shift, width) in a run word (_basis), as in LinearMap.fields;
# the low five bits are a sweep's leaf key, 8*tele + 2*token_r1 + token_r2.
_RUN_FIELDS = {
    "secret": (16, 1), "pair1": (14, 2), "pair2": (12, 2), "record1": (10, 2), "record2": (8, 2),
    "cipher": (7, 1), "swap": (5, 2), "tele": (3, 2), "token_r1": (1, 2), "token_r2": (0, 1),
}
# Each bit of each run column, least significant first, as the run word with
# it alone set; the token columns' shifts.
_UNITS = {name: tuple(1 << shift + bit for bit in range(width)) for name, (shift, width) in _RUN_FIELDS.items()}
_T1, _T2 = _RUN_FIELDS["token_r1"][0], _RUN_FIELDS["token_r2"][0]
# The run columns mask_tokens reads, in its argument order, and its
# arguments with each bit of each alone set, least significant first.
_MASKED = ("pair1", "pair2", "swap", "cipher")
_MASK_ARGS = {m: [tuple((n == m) << bit for n in _MASKED) for bit in range(_RUN_FIELDS[m][1])] for m in _MASKED}
# Each token round in draw order: its pair's and record's run columns, its
# map's input at the run's pairs, and the code infer_remote_bsm XORs in.
_TOKEN_ROUNDS = [
    (pair, record, protocol._input_index(labels), infer_remote_bsm(*labels, PHI_PLUS))
    for pair, record, labels in zip(
        ("pair1", "pair2"), ("record1", "record2"), map(protocol.DEFAULT_AUTH_PAIRS.get, protocol._TOKEN_TARGETS)
    )
]

# The columns of an honest run (_RUN_FIELDS) each adversary view sees.
# ``r1-alone`` and ``public-only`` include a full tap of the public channel.
# ``r2-alone`` includes R2's own traffic and the broadcast teleport result
# but not R1's point-to-point token; the deliberately stronger
# ``r2-with-r1-token`` adds that token and quantifies the resulting leak.
_VIEW_COLUMNS = {
    "r1-alone": ("pair1", "swap", "token_r1", "token_r2", "tele"),
    "r2-alone": ("pair2", "cipher", "token_r2", "tele"),
    "public-only": ("token_r1", "token_r2", "tele"),
    "all-shares": ("pair1", "swap", "pair2", "cipher", "tele"),
    "r2-with-r1-token": ("pair2", "cipher", "token_r1", "token_r2", "tele"),
}
VIEW_NAMES = tuple(_VIEW_COLUMNS)

_PROBE_QUBIT = (0.6, 0.8j)


# ---------------------------------------------------------------------------
# Honest-case enumeration.

class HonestCase(NamedTuple):
    """One of the 512 equiprobable outcomes of an honest (2,2) run."""

    secret: int
    pair1: BellLabel
    pair2: BellLabel
    swap_bsm: BellLabel
    teleport_bsm: BellLabel
    cipher_bit: int

    @property
    def masked_tokens(self) -> tuple[BellLabel, int]:
        return mask_tokens(self.pair1, self.pair2, self.swap_bsm, self.cipher_bit)


@lru_cache(maxsize=1)
def enumerate_honest_cases() -> tuple[HonestCase, ...]:
    """All 512 randomness/secret cases, ordered by secret, pair codes, swap
    outcome, then teleport outcome: the branches of a :data:`NO_ATTACK` run,
    its basis (:func:`_basis`) expanded over every branch
    (:func:`_run_words`), where token branch i of either round has code
    i, which the sender records, and splitting branch j of each input must
    be the (swap, teleport) pair with ``4*swap + tele == j``.  A repeated
    pair would mean the cipher qubit has not collapsed.
    """
    run = _run_words(_basis(NO_ATTACK))
    if len(run) != 512:
        raise AssertionError(f"{len(run)} honest branches, expected 512")
    swap, tele, cipher = (stabilizer.field(run, _RUN_FIELDS[name]) for name in ("swap", "tele", "cipher"))
    if (4 * swap + tele != np.arange(512) & 15).any():
        raise AssertionError("cipher qubit not collapsed")
    labels = product((0, 1), BELL_LABELS, BELL_LABELS, BELL_LABELS, BELL_LABELS)
    # Each case is its labels and its cipher bit, joined as tuples and typed
    # by tuple.__new__ in C: no _make frame and no length check, which the
    # five labels and one bit always meet.
    return tuple(map(tuple.__new__, repeat(HonestCase), map(operator.add, labels, zip(cipher.tolist()))))


# ---------------------------------------------------------------------------
# Mutual information of adversary views.

@dataclass
class SecrecyReport:
    view: str
    mutual_information: float
    guess_advantage: float
    cases_enumerated: int
    exact: bool

    def to_json_obj(self) -> dict:
        return {
            "view": self.view,
            "mutual-information-bits": self.mutual_information,
            "guess-advantage": self.guess_advantage,
            "cases-enumerated": self.cases_enumerated,
            "exact": self.exact,
        }


def mutual_information_22(view: str) -> SecrecyReport:
    """Exact mutual information between the secret bit and a view over the
    512 branches of an honest run, under uniform priors.

    The view's columns (:data:`_VIEW_COLUMNS`) are affine over GF(2) in the
    branch bits, so under either secret the view's values are a coset of
    the span of the coins' flips.  The two cosets are equal, 0 bits and a
    coin-flip guess, or disjoint, 1 bit and a sure one (:func:`_pins_secret`)."""
    if view not in _VIEW_COLUMNS:
        raise ValueError(f"unknown view {view!r}; known views: {', '.join(VIEW_NAMES)}")
    basis = _basis(NO_ATTACK)
    information = float(_pins_secret(basis, _VIEW_COLUMNS[view]))
    return SecrecyReport(
        view=view,
        mutual_information=information,
        guess_advantage=information / 2,
        cases_enumerated=1 << (len(basis) - 1),  # the branches it covers
        exact=True,
    )


def _flips(basis: tuple[int, ...], names: tuple[str, ...]) -> list[int]:
    # The named fields of a run's basis (_basis) at each single-bit branch
    # XOR at the all-zero one: what the secret flips, then each coin.
    mask = sum((1 << width) - 1 << shift for shift, width in map(_RUN_FIELDS.__getitem__, names))
    return [(w ^ basis[0]) & mask for w in basis[1:]]


def _rank(vectors: list[int]) -> int:
    # The GF(2) rank of ints read as bit vectors.
    return len(stabilizer.echelon([(v, 0) for v in vectors]))


def _pins_secret(basis: tuple[int, ...], names: tuple[str, ...]) -> bool:
    # Whether the named fields of a run's basis pin down the secret: the
    # secret's flip of their bits lies outside the span of the coins' flips.
    secret, *coins = _flips(basis, names)
    return stabilizer.reduce(stabilizer.echelon([(c, 0) for c in coins]), secret)[0] != 0


# ---------------------------------------------------------------------------
# Mixedness of the encrypted qubit in the (5,5) scheme.

def encrypted_qubit_mixedness_55(
    known: Mapping[str, BellLabel] | None = None,
    secret_amplitudes: tuple[complex, complex] = _PROBE_QUBIT,
) -> float:
    """Trace distance from the maximally mixed state of the encrypted qubit
    averaged over the classical pieces an adversary does not hold.

    ``known`` maps piece names (``pair1``, ``pair2``, ``swap-bsm``,
    ``teleport-bsm``) to their fixed values; the remaining pieces are
    averaged uniformly.  With any piece unknown the average is maximally
    mixed; with all four known the state is pure and the distance is 1/2.

    The encrypted qubit is the secret under one Pauli,
    :func:`bell.end_to_end_correction` of the pieces, the XOR of their
    codes.  With any piece unknown that Pauli is uniform over all four, and
    the four conjugations of any qubit average to the maximally mixed
    state, so the distance is exactly 0.0, with no float arithmetic.  With
    all four known the Pauli only flips the signs of Bloch axes, so the
    distance is half the length of the secret's Bloch vector.
    """
    known = dict(known or {})
    if set(known) - set(PIECES):
        raise ValueError(f"unknown piece names: {sorted(set(known) - set(PIECES))}")
    for name, value in known.items():
        if value not in BELL_LABELS:
            raise ValueError(f"piece {name} must be one of the four 2-bit codes, got {value!r}")
    amp0, amp1 = statevec.single_qubit(*secret_amplitudes).amplitudes.tolist()
    if len(known) < len(PIECES):
        return 0.0
    cross = amp0.conjugate() * amp1
    return 0.5 * math.hypot(2 * cross.real, 2 * cross.imag, abs(amp0) ** 2 - abs(amp1) ** 2)


# ---------------------------------------------------------------------------
# Exact attack detection rates over integer-coded branches.

def _basis(attack: AttackModel) -> tuple[int, ...]:
    """A (2,2) run under the attack as its run words (:data:`_RUN_FIELDS`)
    at the all-zero branch and each single-bit one, the secret's, then each
    coin's in draw order, which fix it (:func:`_run_words`).  Each step
    from a phase's map (:func:`stabilizer.linear_map`) to a run word is
    linear, so a phase word flips the run by its bits' images
    (:func:`_images`): a splitting bit flips its column and the token it
    masks (:func:`mask_tokens`), a code bit its pair and its token share,
    an observed bit the sender's record (:func:`infer_remote_bsm` XORs a
    constant) and the splitting input that record bit selects.  A basis
    word is the zero word (the attack's token alteration XOR each token
    round at the run's pairs) XOR one column's image: the secret's
    splitting input, a token coin or a splitting coin.
    """
    maps = protocol._run_maps(attack)
    inputs, coins, fields = maps[2]  # splitting: the secret's input column, then each record's two
    images = dict(_UNITS)
    for name, arguments in _MASK_ARGS.items():  # mask_tokens is linear: its tokens at each bit alone
        tokens = starmap(mask_tokens, arguments)
        images[name] = [unit ^ t1 << _T1 ^ t2 << _T2 for unit, (t1, t2) in zip(_UNITS[name], tokens)]
    split = {name: images[name] for name in ("swap", "tele", "cipher")}
    secret, z1, x1, z2, x2, *split_flips = _images(fields, split, inputs + coins)
    t1, t2 = sent_tokens(PHI_PLUS, PHI_PLUS, PHI_PLUS, 0, attack)
    zero = t1 << _T1 ^ t2 << _T2
    flips = [images["secret"][0] ^ secret]
    rounds = zip(_TOKEN_ROUNDS, maps, ((x1, z1), (x2, z2)))
    for (pair, record, index, constant), (token_inputs, token_coins, token_fields), selected in rounds:
        token = {"code": images[pair], "observed": [unit ^ image for unit, image in zip(images[record], selected)]}
        word = stabilizer.xor_columns(token_inputs, index) ^ constant << token_fields["observed"][0]
        at_pairs, *token_flips = _images(token_fields, token, (word, *token_coins))
        zero ^= at_pairs
        flips += token_flips
    return (zero, *[zero ^ flip for flip in flips + split_flips])


def _images(fields: Mapping[str, tuple[int, int]], images: Mapping[str, Sequence[int]], words) -> Iterator[int]:
    # The run word each phase word flips: the XOR of the images of its set
    # bits in the named fields, least significant first.  Others flip none.
    bits = [(1 << fields[name][0] + i, flip) for name in images for i, flip in enumerate(images[name])]
    for word in words:
        run_word = 0
        for bit, image in bits:
            if word & bit:
                run_word ^= image
        yield run_word


def _run_words(basis: tuple[int, ...]) -> np.ndarray:
    """A run's words at every one of its equally likely branches, in index
    order, as one int64 array, from its basis (:func:`_basis`): an affine
    word at branch b is its value at zero XOR the flip of each bit set in b.
    The secret's bit is the most significant, then the coins' in draw order
    (:func:`protocol._draw`), so these are the branches a run draws.  The
    array doubles once per bit, the last coin's first: the branches so far,
    then the same branches XOR that bit's flip, so each bit taken later
    sits above the ones before it and the secret's ends most significant.
    """
    zero, *rest = basis
    run = np.array([zero], dtype=np.int64)
    for word in reversed(rest):  # the last coin's bit is the least significant
        run = np.concatenate((run, run ^ (word ^ zero)))
    return run


def exact_detection_rate(attack: AttackModel) -> Fraction:
    """Exact probability that a (2,2) run under the attack is rejected, with
    uniform hidden randomness and secret: 1/2 when the secret or any coin
    flips the sender's check, one parity of a run word's bits
    (:data:`_REJECT_MASK`), and otherwise its value at zero (:func:`_basis`)."""
    return _detection_rate(_basis(attack))


def _sender_check(basis: tuple[int, ...]) -> tuple[int, list[int]]:
    # The sender's check on a run's basis (_basis): its value at the zero
    # word, and whether each basis branch flips the rejection parity
    # (_REJECT_MASK), the secret's then each coin's.
    zero, *rest = basis
    return _REJECTED_AT_ZERO ^ (zero & _REJECT_MASK).bit_count() & 1, [
        ((word ^ zero) & _REJECT_MASK).bit_count() & 1 for word in rest
    ]


def _detection_rate(basis: tuple[int, ...]) -> Fraction:
    # The rejection rate a run's basis (_basis) gives: 1/2 when a basis
    # branch flips the check, else its value at zero.
    at_zero, moves = _sender_check(basis)
    return Fraction(1, 2) if any(moves) else Fraction(at_zero)


def _rejected(words):
    # Whether the sender rejects a run word, or each word of an int array:
    # protocol._accepts on the five fields it checks, negated by `^ True`.
    checked = ("record2", "tele", "secret", "token_r1", "token_r2")
    return protocol._accepts(*(stabilizer.field(words, _RUN_FIELDS[name]) for name in checked)) ^ True


# The sender's check is one parity of a run word's bits: its value at the
# zero word XOR the parity of the bits whose unit word flips it.
_REJECTED_AT_ZERO = bool(_rejected(0))
_REJECT_MASK = sum(unit for units in _UNITS.values() for unit in units if _rejected(unit) != _REJECTED_AT_ZERO)


# ---------------------------------------------------------------------------
# Empirical attack sweeps.

@dataclass
class AttackSweepReport:
    attack: str
    trials: int
    detections: int
    detection_rate: float
    ci99: tuple[float, float]
    exact_rate: float
    exact_rate_rational: str
    consistent: bool

    def to_json_obj(self) -> dict:
        return {
            "attack": self.attack,
            "trials": self.trials,
            "detections": self.detections,
            "detection-rate": self.detection_rate,
            "ci99-low": self.ci99[0],
            "ci99-high": self.ci99[1],
            "exact-rate": self.exact_rate,
            "exact-rate-rational": self.exact_rate_rational,
            "consistent": self.consistent,
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score 99% interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = successes / trials
    denom = 1 + Z_99**2 / trials
    centre = (p + Z_99**2 / (2 * trials)) / denom
    half = Z_99 * math.sqrt(p * (1 - p) / trials + Z_99**2 / (4 * trials**2)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def interval_around_rate(rate: float, trials: int) -> tuple[float, float]:
    """Normal-approximation 99% interval for the empirical mean of ``trials``
    draws at success probability ``rate``.  Degenerate at rate 0 or 1."""
    half = Z_99 * math.sqrt(rate * (1 - rate) / trials)
    return max(0.0, rate - half), min(1.0, rate + half)


# Trials whose coins one numpy pass computes: it bounds the arrays a sweep
# holds, whatever its trial count.
_CHUNK_TRIALS = 4096


class _SweepRecord(NamedTuple):
    """What the sweeps know of the run under one attack (:func:`_leaf_table`)."""

    keys: np.ndarray  # each branch's leaf key, by branch index: the basis expanded
    basis: tuple[int, ...]  # the run's words at its basis branches (_basis)


@lru_cache(maxsize=None)
def _leaf_table(attack: AttackModel) -> _SweepRecord:
    """The sweeps' record of the run under the attack, built on first use:
    its basis (:func:`_basis`), which gives the exact rate and each basis
    bit's flip of the sender's check, and each branch's leaf key, the low
    five bits of that basis expanded (:func:`_run_words`), with tele 4 on
    rejection, which only the uniformity check reads.  The rejecting keys'
    share (key >= 32), read by field, must be the basis' rate, read by
    mask, or the record raises ``AssertionError``."""
    basis = _basis(attack)
    run = _run_words(basis)
    keys = np.where(_rejected(run), run & 7 | 32, run & 31)
    rate = _detection_rate(basis)
    if Fraction(int(np.count_nonzero(keys >= 32)), len(keys)) != rate:
        raise AssertionError(f"{attack.spec_string}: the leaf keys disagree with the basis rate {rate}")
    keys.flags.writeable = False
    return _SweepRecord(keys, basis)


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    # The seeds (seed + i) mod 2^64 of trials start <= i < stop, as uint64.
    return np.arange(start, stop, dtype=np.uint64) + np.uint64(seed % (protocol.MAX_SEED + 1))


def _trial_indices(seed: int, start: int, stop: int, coins: int) -> np.ndarray:
    # The branch indices of trials start <= i < stop cut to their first
    # coins: secret i mod 2 above the coins the trial's seed draws.
    return (np.arange(start, stop) & 1) << coins | protocol.coin_index(_trial_keys(seed, start, stop), coins)


def _leaf_counts(attack: AttackModel, trials: int, seed: int) -> np.ndarray:
    """How many of ``trials`` seeded (2,2) runs under the attack reach each
    of the 40 leaf keys, as an int64 array indexed by key: what the
    uniformity check reads, which needs every coin of every trial.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``.
    A run's transcript is a function of the attack, its secret and its
    coins, apart from the seed in its header, so the trials' coins are
    computed in one numpy pass per chunk, packed straight into branch
    indices (:func:`protocol.coin_index`), and index the leaf keys of the
    run's branches in the attack's record (:func:`_leaf_table`), whose basis
    holds a word per coin besides the all-zero and the secret's words.  A
    key is the low five bits of a run word, so its fields
    (:data:`_RUN_FIELDS`) are the run's first three payloads; a key of 32
    or more is a rejection.
    """
    record = _leaf_table(attack)
    keys, coins = record.keys, len(record.basis) - 2
    counts = np.zeros(40, dtype=np.int64)
    for start in range(0, trials, _CHUNK_TRIALS):
        indices = _trial_indices(seed, start, min(start + _CHUNK_TRIALS, trials), coins)
        counts += np.bincount(keys[indices], minlength=40)
    return counts


def attack_sweep(attack: AttackModel, trials: int, seed: int) -> AttackSweepReport:
    """Sample ``trials`` seeded (2,2) runs under the attack and compare their
    rejection fraction with the exact rate (:func:`exact_detection_rate`),
    read off the basis in the attack's record (:func:`_leaf_table`), so a
    warm sweep evaluates no branch of the run.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``,
    so every trial is reproducible in isolation.  No trial runs in full
    (:func:`protocol.run_qss22`) and no leaf key is read: the sender's check
    is one parity of a run word (:data:`_REJECT_MASK`), so a trial's
    rejection is the check's value at the zero word, XOR its secret when
    the secret moves the check, XOR each coin that moves it.  The trials
    compute only those coins (:func:`protocol.coin_bits`): none at rate 0
    or 1.
    """
    # Integers only: a float seed such as 1.5 raises instead of truncating.
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    basis = _leaf_table(attack).basis
    at_zero, (secret_moves, *coin_moves) = _sender_check(basis)
    moving = [j for j, move in enumerate(coin_moves) if move]
    detections = 0
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        rejected = np.arange(start, stop) & secret_moves ^ at_zero
        for coin in protocol.coin_bits(_trial_keys(seed, start, stop), moving):
            rejected ^= coin
        detections += int(np.count_nonzero(rejected))
    rate = detections / trials
    exact = _detection_rate(basis)
    low, high = interval_around_rate(float(exact), trials)
    return AttackSweepReport(
        attack=attack.spec_string,
        trials=trials,
        detections=detections,
        detection_rate=rate,
        ci99=wilson_interval(detections, trials),
        exact_rate=float(exact),
        exact_rate_rational=f"{exact.numerator}/{exact.denominator}",
        consistent=low <= rate <= high,
    )


# ---------------------------------------------------------------------------
# Uniformity of the public transcript.

@dataclass
class MessageUniformity:
    values: int
    exact_uniform: bool
    exact_secret_independent: bool
    empirical_counts: dict[str, int]
    chi_square_p: float

    def to_json_obj(self) -> dict:
        return {
            "values": self.values,
            "exact-uniform": self.exact_uniform,
            "exact-secret-independent": self.exact_secret_independent,
            "empirical-counts": self.empirical_counts,
            "chi-square-p": self.chi_square_p,
        }


@dataclass
class UniformityReport:
    trials: int
    messages: dict[str, MessageUniformity]

    def to_json_obj(self) -> dict:
        return {
            "trials": self.trials,
            "messages": {k: v.to_json_obj() for k, v in self.messages.items()},
        }


def public_transcript_uniformity(trials: int, seed: int) -> UniformityReport:
    """Check that every public classical message is uniform over its range
    and independent of the secret: exactly, a k-bit message when its bits
    have rank k and it does not pin down the secret (:func:`_pins_secret`),
    and empirically with a chi-square test over seeded runs.

    Trial ``i`` is the honest run with seed ``(seed + i) mod 2^64`` and
    secret ``i mod 2``; its three public messages are its leaf key's fields
    (:func:`_leaf_counts`), counted with the trials that reach each key.
    No trials report p = 1; a negative count raises ``ValueError``.  The
    exact checks read the basis in the honest run's sweep record
    (:func:`_leaf_table`), so a warm call evaluates no branch of the run.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    run = _leaf_table(NO_ATTACK).basis
    counts = _leaf_counts(NO_ATTACK, trials, seed)
    drawn = np.flatnonzero(counts)
    # In the order the run publishes them: the public-only view's columns.
    names = ("masked-swap-token", "masked-cipher-token", "published-teleport-bsm")
    messages = {}
    for name, column in zip(names, _VIEW_COLUMNS["public-only"]):
        width = _RUN_FIELDS[column][1]  # the message's bits, one value per bit string
        values = stabilizer.field(drawn, _RUN_FIELDS[column])
        observed = np.bincount(values, counts[drawn], 1 << width).astype(np.int64).tolist()
        messages[name] = MessageUniformity(
            values=1 << width,
            exact_uniform=_rank(_flips(run, (column,))) == width,
            exact_secret_independent=not _pins_secret(run, (column,)),
            empirical_counts={format(v, f"0{width}b"): c for v, c in enumerate(observed) if c},
            chi_square_p=_uniform_chi_square_p(observed) if trials else 1.0,
        )
    return UniformityReport(trials=trials, messages=messages)


def chi_square_sf(statistic: float, dof: int) -> float:
    """Survival function of the chi-square distribution for 1 or 3 degrees
    of freedom, the only ones the uniformity test needs.

    Odd degrees of freedom have closed forms: ``erfc(sqrt(x/2))`` for one,
    plus ``sqrt(2x/pi) e^(-x/2)`` for three.
    """
    tail = math.erfc(math.sqrt(statistic / 2))
    if dof == 1:
        return tail
    if dof == 3:
        return tail + math.sqrt(2 * statistic / math.pi) * math.exp(-statistic / 2)
    raise ValueError(f"no closed form for {dof} degrees of freedom")


def _uniform_chi_square_p(counts: list[int]) -> float:
    # Pearson's test of the counts against a uniform distribution.
    expected = sum(counts) / len(counts)
    statistic = sum((c - expected) ** 2 / expected for c in counts)
    return chi_square_sf(statistic, len(counts) - 1)


# ---------------------------------------------------------------------------
# Report serialisation (schema qss-report/1).

_REPORT_KINDS = {
    SecrecyReport: "secrecy",
    AttackSweepReport: "attack-sweep",
    UniformityReport: "uniformity",
}


def report_to_jsonl(report: SecrecyReport | AttackSweepReport | UniformityReport) -> str:
    return protocol.jsonl({"schema": REPORT_SCHEMA, "kind": _REPORT_KINDS[type(report)]}, report.to_json_obj())
