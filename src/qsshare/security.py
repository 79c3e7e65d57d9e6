"""Exact secrecy and authentication analysis of the (2,2) and (5,5) schemes.

The branch sets come from :mod:`protocol`, which writes each phase's
measurements once as a step list (:func:`protocol.token_steps`,
:func:`protocol.splitting_steps`) and reads it exactly: every branch of a
token round or of the splitting phase, under any attack, is one of 2^d
equally likely outcomes of a linear map over GF(2).

Everything is computed on integer codes: 2-bit values as ``2*z + x``.
The maps are the ones the sampled runs draw from
(:func:`protocol._linear_map`): per token or splitting step list, one
symbolic stabilizer pass on the phase's reference register, whose
generators carry each input bit as a sign symbol, gives each outcome bit
as a parity of input bits and fair coins, packed into int columns.
:func:`_run_columns` evaluates a (2,2) run under an attack at every one of
its equally likely branches, indexed by the secret, then the coins in draw
order, as int columns; the 512 randomness/secret cases of an honest run
are its :data:`NO_ATTACK` branches.  Every column is affine over GF(2) in
the branch bits, fixed by its values at the 2 + coins basis branches,
which :func:`_basis` composes from the three maps on ints without
evaluating the other branches, and each exact result is a rank question on
those values:

- a view (:data:`_VIEW_COLUMNS`) of an honest run gives 1 bit, with guess
  advantage 1/2, when the secret's flip of its columns lies outside the
  GF(2) span of the coins' flips, and 0 bits otherwise;
- a k-bit public message is uniform when its bits have rank k;
- an attack detection rate is 1/2 when the secret or any coin flips the
  sender's check, one parity of five bits (:func:`protocol._accepts`,
  which :func:`protocol.verify_authentication` also decides by), and
  otherwise that parity's value at zero.  Each token step list has one
  map, so a cold pass over the README's 13 attacks makes three symbolic
  token passes;
- the encrypted qubit's correction XORs the four pieces, so unknown pieces
  XOR-convolve a 4-bin histogram of corrections, and the averaged qubit is
  the secret's Bloch vector twirled by that histogram: each axis scaled by
  an integer sum of signs over the histogram's total, so an unknown piece
  gives exactly zero.

Floating point only appears at the reporting boundary, so "exactly zero"
results do not depend on rounding.

Priors: all hidden protocol randomness is uniform (matching the Born-rule
outcome distributions) and the secret bit is uniform.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping, NamedTuple

import numpy as np

from . import protocol, statevec
from .bell import BELL_LABELS, PHI_PLUS, BellLabel, end_to_end_correction, infer_remote_bsm
from .protocol import (
    NO_ATTACK,
    AttackModel,
    _code,
    mask_tokens,
    run_qss22,
    sent_tokens,
)

REPORT_SCHEMA = "qss-report/1"

# The phase maps' lru cache, by the name the benchmark empties it through.
_splitting_branches = protocol._linear_map

# Normal quantile for a two-sided 99% interval.
Z_99 = 2.5758293035489004

PIECES = ("pair1", "pair2", "swap-bsm", "teleport-bsm")

# Each token round's pair codes (protocol.DEFAULT_AUTH_PAIRS), in draw order.
_TOKEN_PAIRS = [
    tuple(map(_code, protocol.DEFAULT_AUTH_PAIRS[receiver])) for receiver in protocol._TOKEN_TARGETS
]

# The columns of an honest run (_run_columns) each adversary view sees.
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
    outcome, then teleport outcome: the branches of a :data:`NO_ATTACK` run
    (:func:`_run_columns`), where token branch i of either round has code
    i, which the sender records, and splitting branch j of each input must
    be the (swap, teleport) pair with ``4*swap + tele == j``.  A repeated
    pair would mean the cipher qubit has not collapsed.
    """
    run = _run_columns(NO_ATTACK)
    branches = np.arange(len(run["secret"]))
    if len(branches) != 512:
        raise AssertionError(f"{len(branches)} honest branches, expected 512")
    if (4 * run["swap"] + run["tele"] != branches & 15).any():
        raise AssertionError("cipher qubit not collapsed")
    labels = product((0, 1), BELL_LABELS, BELL_LABELS, BELL_LABELS, BELL_LABELS)
    # Each case is its labels and its cipher bit, joined as tuples.
    return tuple(map(HonestCase._make, map(operator.add, labels, zip(run["cipher"].tolist()))))


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
    run = _basis(NO_ATTACK)
    information = float(_pins_secret(run, _VIEW_COLUMNS[view]))
    return SecrecyReport(
        view=view,
        mutual_information=information,
        guess_advantage=information / 2,
        cases_enumerated=1 << (len(run["secret"]) - 1),  # the branches it covers
        exact=True,
    )


def _flips(run: dict[str, np.ndarray], names: tuple[str, ...]) -> list[int]:
    # The named columns of a run's basis (_basis), packed two bits each, at
    # each single-bit branch XOR at the all-zero one: what the secret
    # flips, then what each coin flips.
    packed = 0
    for name in names:
        packed = 4 * packed + run[name]
    return (packed[1:] ^ packed[0]).tolist()


def _rank(vectors: list[int]) -> int:
    # The GF(2) rank of ints read as bit vectors: each vector, reduced by
    # the pivots kept so far, one per top bit, is kept when nonzero.
    pivots: dict[int, int] = {}
    for v in vectors:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def _pins_secret(run: dict[str, np.ndarray], names: tuple[str, ...]) -> bool:
    # Whether the named columns of a run's basis pin down the secret: the
    # secret's flip of their bits lies outside the span of the coins' flips.
    flips = _flips(run, names)
    return _rank(flips) > _rank(flips[1:])


# ---------------------------------------------------------------------------
# Mixedness of the encrypted qubit in the (5,5) scheme.

# _BLOCH_SIGNS[c] is how the correction of code c, Z^z X^x with c = 2*z + x,
# signs the (X, Y, Z) Bloch axes of the qubit it conjugates.
_BLOCH_SIGNS = np.array([[1, 1, 1], [1, -1, -1], [-1, -1, 1], [-1, 1, -1]])


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

    The encrypted qubit is the secret under the Pauli
    :func:`end_to_end_correction`, the XOR of the pieces.  So the known
    pieces' correction (Φ+ standing in for each unknown piece), XOR-convolved
    with a uniform 4-bin histogram per unknown piece, gives integer weights
    of the four corrections.  Each correction but I flips the signs of two
    axes of the secret's Bloch vector (:data:`_BLOCH_SIGNS`), so the averaged
    qubit's Bloch vector is the secret's with each axis scaled by its
    weighted sign sum over the total weight, and the distance is half its
    length.  An unknown piece makes every weighted sign sum the integer 0,
    so the distance is exactly 0.0.
    """
    known = dict(known or {})
    unknown = [p for p in PIECES if p not in known]
    if set(known) - set(PIECES):
        raise ValueError(f"unknown piece names: {sorted(set(known) - set(PIECES))}")
    for name, value in known.items():
        if value not in BELL_LABELS:
            raise ValueError(f"piece {name} must be one of the four 2-bit codes, got {value!r}")
    weights = np.zeros(4, dtype=np.int64)
    weights[_code(end_to_end_correction(*(known.get(p, PHI_PLUS) for p in PIECES)))] = 1
    for _ in unknown:
        weights = weights[_XOR_CODES].sum(axis=1)
    amp0, amp1 = statevec.single_qubit(*secret_amplitudes).amplitudes.tolist()
    cross = amp0.conjugate() * amp1
    bloch = (2 * cross.real, 2 * cross.imag, abs(amp0) ** 2 - abs(amp1) ** 2)
    scales = (weights @ _BLOCH_SIGNS / weights.sum()).tolist()
    return 0.5 * math.hypot(*(scale * r for scale, r in zip(scales, bloch)))


# ---------------------------------------------------------------------------
# Exact attack detection rates over integer-coded branches.

# _XOR_CODES[c, v] == c ^ v: indexing 4 weights by it and summing each row
# XOR-convolves them with a uniform 2-bit value.
_XOR_CODES = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def _run_columns(attack: AttackModel) -> dict[str, np.ndarray]:
    """A (2,2) run under the attack at every one of its equally likely
    branches, in index order, as int columns (:func:`_columns`).

    A branch's index is the run's secret, then its coins in draw order,
    the first most significant (:func:`protocol._draw`), so these are the
    branches a run draws: each phase's map (:func:`protocol._linear_map`)
    is evaluated at its inputs and coins over every index at once.  Each
    token round reads its map at the run's pairs
    (:data:`protocol.DEFAULT_AUTH_PAIRS`), with the record inferred from
    the observed outcome (:func:`infer_remote_bsm`), and the splitting
    phase reads its map at the secret and both records.
    """
    maps = protocol._run_maps(attack)
    widths = [len(linear_map.coins) for linear_map in maps]
    shift = sum(widths)
    branches = np.arange(2 << shift)
    secret, coins = branches >> shift, []
    for width in widths:
        shift -= width
        coins.append(branches >> shift & (1 << width) - 1)
    rounds = []
    for pairs, token_map, coin in zip(_TOKEN_PAIRS, maps, coins):
        word = protocol._xor_columns(token_map.inputs, protocol._input_index(pairs))
        word ^= protocol._xor_columns(token_map.coins, coin)
        code, observed = (protocol._field(word, token_map.fields[name]) for name in ("code", "observed"))
        rounds.append((code, infer_remote_bsm(*pairs, observed)))
    (pair1, record1), (pair2, record2) = rounds
    splitting = maps[2]
    word = protocol._xor_columns(splitting.inputs, 16 * secret + 4 * record1 + record2)
    word ^= protocol._xor_columns(splitting.coins, coins[2])
    outcomes = (protocol._field(word, splitting.fields[name]) for name in ("swap", "tele", "cipher"))
    return _columns(attack, secret, pair1, record1, pair2, record2, *outcomes)


def _basis(attack: AttackModel) -> dict[str, np.ndarray]:
    """The run's columns (:func:`_columns`) at its all-zero branch, then at
    each single-bit branch, the secret's and each coin's in draw order: an
    affine column's value at any branch is its value at zero XOR the flips
    of the branch's set bits.

    The phases' maps (:func:`protocol._linear_map`) are composed on ints,
    apart from :func:`_run_columns`: the value at zero reads each map at
    its inputs, and each branch bit's flip is carried through the phases.
    The secret flips the splitting outcomes by its input column.  A token
    coin flips its round's code and observed outcome by its column, so the
    sender's record (:func:`infer_remote_bsm` XORs constants into the
    observed outcome), so the splitting outcomes by that record's input
    columns.  A splitting coin flips them by its column.  At these few
    branches, composing the maps costs less than reading them through
    numpy as :func:`_run_columns` does.
    """
    maps = protocol._run_maps(attack)
    # (pair1, record1, pair2, record2) at zero, and each token round's
    # coins' flips of its (code, observed outcome): Bell outcomes, 2 bits.
    zero, coin_flips = [], []
    for pairs, token_map in zip(_TOKEN_PAIRS, maps):
        code, observed = (token_map.fields[name] for name in ("code", "observed"))
        word = protocol._xor_columns(token_map.inputs, protocol._input_index(pairs))
        zero += protocol._field(word, code), infer_remote_bsm(*pairs, protocol._field(word, observed))
        coin_flips.append([(protocol._field(c, code), protocol._field(c, observed)) for c in token_map.coins])
    p1, r1, p2, r2 = zero
    splitting = maps[2]
    inputs = splitting.inputs  # the secret's column, then each record's two
    w = protocol._xor_columns(inputs, 4 * r1 + r2)
    # (secret, pair1, record1, pair2, record2, splitting word) at each
    # basis branch.
    rows = [(0, p1, r1, p2, r2, w), (1, p1, r1, p2, r2, w ^ inputs[0])]
    rows += [(0, p1 ^ c, r1 ^ o, p2, r2, w ^ protocol._xor_columns(inputs[1:3], o)) for c, o in coin_flips[0]]
    rows += [(0, p1, r1, p2 ^ c, r2 ^ o, w ^ protocol._xor_columns(inputs[3:], o)) for c, o in coin_flips[1]]
    rows += [(0, p1, r1, p2, r2, w ^ column) for column in splitting.coins]
    *columns, word = np.array(rows, dtype=np.int64).T
    outcomes = (protocol._field(word, splitting.fields[name]) for name in ("swap", "tele", "cipher"))
    return _columns(attack, *columns, *outcomes)


def _columns(attack, secret, pair1, record1, pair2, record2, swap, tele, cipher) -> dict[str, np.ndarray]:
    # A run's int columns by name, from its branches' inputs and splitting
    # outcomes: ``secret``, the receivers' codes ``pair1`` and ``pair2``,
    # the sender's records ``record1`` and ``record2``, ``swap``, ``tele``,
    # ``cipher``, and the tokens the sender receives, ``token_r1`` and
    # ``token_r2`` (mask_tokens on the code columns, XOR the attack's fixed
    # alteration, read off the input that masks to (Φ+, 0)).
    token_r1, token_r2 = mask_tokens(pair1, pair2, swap, cipher)
    alter_r1, alter_r2 = sent_tokens(PHI_PLUS, PHI_PLUS, PHI_PLUS, 0, attack)
    return dict(
        secret=secret, pair1=pair1, pair2=pair2, record1=record1, record2=record2,
        swap=swap, tele=tele, cipher=cipher,
        token_r1=token_r1 ^ _code(alter_r1), token_r2=token_r2 ^ alter_r2,
    )


def exact_detection_rate(attack: AttackModel) -> Fraction:
    """Exact probability that a (2,2) run under the attack is rejected, with
    uniform hidden randomness and secret.  The sender's check is one parity
    of five bits (:func:`protocol._accepts`) on the run's affine columns,
    so it is balanced, 1/2, when the secret or any coin flips it
    (:func:`_basis`), and otherwise constant at its value at zero."""
    return _detection_rate(_basis(attack))


def _detection_rate(basis: dict[str, np.ndarray]) -> Fraction:
    # The rejection rate a run's basis (_basis) gives: 1/2 when a basis
    # branch flips the rejection parity, and otherwise its value at zero.
    rejected = _rejected(basis)
    return Fraction(1, 2) if (rejected != rejected[0]).any() else Fraction(int(rejected[0]))


def _rejected(run: dict[str, np.ndarray]) -> np.ndarray:
    # The branches of a run's columns (_run_columns) the sender rejects.
    return ~protocol._accepts(run["record2"], run["tele"], run["secret"], run["token_r1"], run["token_r2"])


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


def wilson_interval(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    p = successes / trials
    denom = 1 + z**2 / trials
    centre = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def interval_around_rate(rate: float, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Normal-approximation interval for the empirical mean of ``trials``
    draws at success probability ``rate``.  Degenerate at rate 0 or 1."""
    half = z * math.sqrt(rate * (1 - rate) / trials)
    return max(0.0, rate - half), min(1.0, rate + half)


# Trials whose coins one numpy pass computes: it bounds the arrays a sweep
# holds, whatever its trial count.
_CHUNK_TRIALS = 4096


class _SweepRecord(NamedTuple):
    """What the sweeps know of the run under one attack (:func:`_leaf_table`)."""

    keys: np.ndarray  # the leaf key of each branch, by branch index
    leaves: list[tuple[bool, tuple[str, ...]] | None]  # a slot per key
    basis: dict[str, np.ndarray]  # the run at its basis branches (_basis)

    @property
    def coins(self) -> int:
        # A run draws this many coins: the keys cover 2 << coins branches.
        return len(self.keys).bit_length() - 2


@lru_cache(maxsize=None)
def _leaf_table(attack: AttackModel) -> _SweepRecord:
    # The sweeps' record of the run under the attack: the leaf key of every
    # branch (_run_columns), the tokens' payload bits 2*token_r1 + token_r2
    # plus 8*tele, with tele 4 on rejection; a slot per key for a run's
    # rejection and first three payloads, filled as trials reach it; and
    # the run's basis, read-only, which gives the exact rate.  The share of
    # rejecting keys (key >= 32) must be that rate.
    basis = _basis(attack)
    run = _run_columns(attack)
    keys = 2 * run["token_r1"] + run["token_r2"] + 8 * np.where(_rejected(run), 4, run["tele"])
    rate = _detection_rate(basis)
    if Fraction(int(np.count_nonzero(keys >= 32)), len(keys)) != rate:
        raise AssertionError(f"{attack.spec_string}: the leaf keys disagree with the basis rate {rate}")
    for column in (keys, *basis.values()):
        column.flags.writeable = False
    return _SweepRecord(keys, [None] * 40, basis)


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    # The seeds (seed + i) mod 2^64 of trials start <= i < stop, as uint64.
    return np.arange(start, stop, dtype=np.uint64) + np.uint64(seed % (protocol.MAX_SEED + 1))


def _trial_leaves(attack: AttackModel, trials: int, seed: int):
    """Yield ``((rejected, public payloads), count)`` over the distinct
    outcomes of ``trials`` seeded (2,2) runs under the attack.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``.
    A run's transcript is a function of the attack, its secret and its
    coins, apart from the seed in its header, so the trials' coins are
    computed in one numpy pass per chunk, packed straight into branch
    indices (:func:`protocol.coin_index`), and index the leaf keys of the
    run's branches in the attack's record (:func:`_leaf_table`), which also
    gives the coin count.  A key's first trial runs in full
    (:func:`run_qss22`), and its payloads must encode to the key.
    """
    record = _leaf_table(attack)
    keys, leaves, coins = record.keys, record.leaves, record.coins
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        seeds = _trial_keys(seed, start, stop)
        drawn = keys[(np.arange(start, stop) & 1) << coins | protocol.coin_index(seeds, coins)]
        counts = np.bincount(drawn, minlength=len(leaves)).tolist()
        for key in (key for key, count in enumerate(counts) if count and leaves[key] is None):
            i = int(np.argmax(drawn == key))
            transcript = run_qss22((start + i) & 1, int(seeds[i]), attack)
            payloads = tuple(event.payload for event in transcript.public_messages()[:3])
            rejected = transcript.outcome == "rejected"
            if int(payloads[0] + payloads[1], 2) + 8 * (4 if rejected else int(payloads[2], 2)) != key:
                raise AssertionError(f"a run with payloads {payloads} drew leaf key {key}")
            leaves[key] = rejected, payloads
        yield from ((leaves[key], count) for key, count in enumerate(counts) if count)


def attack_sweep(attack: AttackModel, trials: int, seed: int) -> AttackSweepReport:
    """Run the (2,2) scheme ``trials`` times under the attack and compare the
    rejection fraction with the exact rate (:func:`exact_detection_rate`),
    read off the basis in the attack's record (:func:`_leaf_table`), so a
    warm sweep evaluates no branch of the run.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``,
    so every trial is reproducible in isolation.  The sweep makes one full
    run per distinct leaf, the first trial to reach it (:func:`_trial_leaves`).
    """
    # Integers only: a float seed such as 1.5 raises instead of truncating.
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    detections = sum(count for (rejected, _), count in _trial_leaves(attack, trials, seed) if rejected)
    rate = detections / trials
    exact = _detection_rate(_leaf_table(attack).basis)
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
    secret ``i mod 2``; its three public messages are counted, with one full
    run per distinct leaf (:func:`_trial_leaves`).  No trials report p = 1;
    a negative count raises ``ValueError``.  The exact checks read the
    basis in the honest run's sweep record (:func:`_leaf_table`), so a warm
    call evaluates no branch of the run.
    """
    trials, seed = operator.index(trials), operator.index(seed)
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    run = _leaf_table(NO_ATTACK).basis
    # In the order the run publishes them: the public-only view's columns.
    names = ("masked-swap-token", "masked-cipher-token", "published-teleport-bsm")
    empirical: dict[str, dict[str, int]] = {name: {} for name in names}
    for (_, payloads), count in _trial_leaves(NO_ATTACK, trials, seed):
        for name, value in zip(names, payloads):
            empirical[name][value] = empirical[name].get(value, 0) + count
    messages = {}
    for name, column in zip(names, _VIEW_COLUMNS["public-only"]):
        counts = empirical[name]
        domain = _message_domain(name)
        chi_p = _uniform_chi_square_p([counts.get(v, 0) for v in domain]) if trials else 1.0
        messages[name] = MessageUniformity(
            values=len(domain),
            exact_uniform=_rank(_flips(run, (column,))) == len(domain).bit_length() - 1,
            exact_secret_independent=not _pins_secret(run, (column,)),
            empirical_counts=dict(sorted(counts.items())),
            chi_square_p=chi_p,
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


def _message_domain(name: str) -> list[str]:
    if name == "masked-cipher-token":
        return ["0", "1"]
    return ["00", "01", "10", "11"]


# ---------------------------------------------------------------------------
# Report serialisation (schema qss-report/1).

_REPORT_KINDS = {
    SecrecyReport: "secrecy",
    AttackSweepReport: "attack-sweep",
    UniformityReport: "uniformity",
}


def report_to_jsonl(report: SecrecyReport | AttackSweepReport | UniformityReport) -> str:
    header = json.dumps(
        {"schema": REPORT_SCHEMA, "kind": _REPORT_KINDS[type(report)]},
        sort_keys=True,
        separators=(",", ":"),
    )
    body = json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":"))
    return header + "\n" + body + "\n"
