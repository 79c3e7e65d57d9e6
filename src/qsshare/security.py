"""Exact secrecy and authentication analysis of the (2,2) and (5,5) schemes.

All claims that are stated as exact are backed by exhaustive enumeration.
The branch sets come from :mod:`protocol`, which writes each phase's
measurements once as a step list (:func:`protocol.token_steps`,
:func:`protocol.splitting_steps`) and tabulates it exactly: every branch
of a token round or of the splitting phase, under any attack, as one of
2^d equally likely rows.  The 512 equiprobable randomness/secret cases of
an honest (2,2) run (two pair codes, the swap and teleport measurement
outcomes, and the secret bit) are the honest splitting branches.

Everything is computed on integer codes: 2-bit values as ``2*z + x``.
The branches are the tables the sampled runs draw from
(:func:`protocol._stacked_branches`): per token or splitting step list,
every input's 2^d equal shares, from one symbolic stabilizer pass on the
phase's reference register whose generators carry each input bit as a
sign symbol, so a sum over rows is a count.  The rest is group-bys over
those codes:

- a view of the honest cases is a set of int columns (:data:`_VIEW_COLUMNS`,
  the masked tokens read off :data:`_MASK`, tabulated from
  :func:`protocol.mask_tokens`), counted by one integer key per case;
- the encrypted qubit's correction XORs the four pieces, so unknown pieces
  XOR-convolve a 4-bin histogram of corrections, and the average is at
  most four Pauli conjugations;
- an attack detection rate is an exact count over every branch of both
  token rounds and the splitting phase: a numpy gather over the arrays and
  the sender's acceptance rule tabulated once (:data:`_ACCEPT`, from
  :func:`protocol.verify_authentication`).  Each token step list has one
  table, so a cold pass over the README's 13 attacks makes three
  symbolic token passes.

Floating point only appears at the reporting boundary, so "exactly zero"
results do not depend on rounding.

Priors: all hidden protocol randomness is uniform (matching the Born-rule
outcome distributions) and the secret bit is uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from . import protocol, statevec
from .bell import (
    BELL_LABELS,
    PAULI_CORRECTIONS,
    PHI_PLUS,
    BellLabel,
    end_to_end_correction,
)
from .protocol import (
    NO_ATTACK,
    AttackModel,
    SenderRecords,
    _code,
    _stacked_branches,
    mask_tokens,
    run_qss22,
    sent_tokens,
    verify_authentication,
)

REPORT_SCHEMA = "qss-report/1"

# The stacked tables' lru cache, by the name the benchmark empties it through.
_splitting_branches = _stacked_branches

# Normal quantile for a two-sided 99% interval.
Z_99 = 2.5758293035489004

PIECES = ("pair1", "pair2", "swap-bsm", "teleport-bsm")

# The honest columns (_honest_columns) each adversary view sees in one run.
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

@dataclass(frozen=True)
class HonestCase:
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
    """All 512 randomness/secret cases, built from :func:`_honest_columns`
    and ordered by secret, pair codes, swap outcome, then teleport outcome."""
    columns = _honest_columns()
    names = ("secret", "pair1", "pair2", "swap", "tele", "cipher")
    return tuple(
        HonestCase(secret, *(BELL_LABELS[code] for code in codes), cipher)
        for secret, *codes, cipher in zip(*(columns[name].tolist() for name in names))
    )


def _honest_columns() -> dict[str, np.ndarray]:
    """The 512 honest cases as int columns, one entry per case: ``secret``,
    the codes ``pair1``, ``pair2``, ``swap`` and ``tele``, the ``cipher``
    bit and the masked tokens (``token_r1``, a code, and ``token_r2``, a
    bit), ordered by the first five.

    They are read off the honest splitting branches, each an equal share of
    its input.  Given the secret and the pair codes, each of the 16 (swap,
    teleport) outcome pairs must occur in exactly one branch; a second
    branch for the same pair would mean the cipher qubit has not collapsed.
    """
    honest = protocol.splitting_steps(NO_ATTACK, True)
    swap, tele, cipher = _columns("splitting", honest, ("swap", "tele", "cipher"))
    if (np.diff(np.sort(4 * swap + tele), axis=-1) == 0).any():
        raise AssertionError("cipher qubit not collapsed")
    if swap.shape[-1] != 16:
        raise AssertionError(f"{swap.shape[-1]} honest branches, expected 16")
    ordered = np.empty((2, 4, 4, 4, 4), dtype=np.int64)
    ordered[(*np.indices(swap.shape)[:3], swap, tele)] = cipher
    names = ("secret", "pair1", "pair2", "swap", "tele")
    columns = dict(zip(names, np.indices(ordered.shape).reshape(5, -1)))
    columns["cipher"] = ordered.reshape(-1)
    columns["token_r1"], columns["token_r2"] = _MASK[
        :, columns["pair1"], columns["pair2"], columns["swap"], columns["cipher"]
    ]
    return columns


def _secret_counts(key: np.ndarray, secret: np.ndarray) -> np.ndarray:
    # The (secret 0, secret 1) case counts of each key that occurs, in
    # ascending key order.
    counts = np.bincount(2 * key + secret, minlength=2 * int(key.max()) + 2).reshape(-1, 2)
    return counts[counts.any(axis=1)]


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
    """Exact mutual information between the secret bit and a view, by
    brute-force enumeration of all 512 cases under uniform priors.

    The view's columns (:data:`_VIEW_COLUMNS`) are read as one base-4 key
    per case, and the cases are counted by key and secret."""
    columns = _honest_columns()
    if view not in _VIEW_COLUMNS:
        raise ValueError(f"unknown view {view!r}; known views: {', '.join(VIEW_NAMES)}")
    key = 0
    for name in _VIEW_COLUMNS[view]:
        key = 4 * key + columns[name]
    counts = _secret_counts(key, columns["secret"])
    total = len(key)
    # With a uniform secret, I = 1 - H(secret | view); the conditional
    # entropy is 0 or 1 exactly when every view value pins down or is
    # independent of the secret.
    if (counts[:, 0] == counts[:, 1]).all():
        information, exact = 0.0, True
    elif (counts.min(axis=1) == 0).all():
        information, exact = 1.0, True
    else:
        information, exact = 0.0, False
        # Summed in the order of each view value's first case.
        _, first = np.unique(key, return_index=True)
        for c0, c1 in counts[np.argsort(first)].tolist():
            seen = c0 + c1
            for c in (c0, c1):
                if c:
                    information += (c / total) * math.log2(2 * c / seen)
    advantage = Fraction(int(counts.max(axis=1).sum()), total) - Fraction(1, 2)
    return SecrecyReport(
        view=view,
        mutual_information=information,
        guess_advantage=float(advantage),
        cases_enumerated=total,
        exact=exact,
    )


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

    The encrypted qubit is the secret under the Pauli
    :func:`end_to_end_correction`, the XOR of the pieces.  So the known
    pieces' correction (Φ+ standing in for each unknown piece), XOR-convolved
    with a uniform 4-bin histogram per unknown piece, weighs at most four
    Pauli conjugations of the secret.
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
    secret = statevec.single_qubit(*secret_amplitudes)
    accumulated = np.zeros((2, 2), dtype=complex)
    for code in np.flatnonzero(weights).tolist():
        encrypted = statevec.apply_pauli(secret, 0, PAULI_CORRECTIONS[code]).amplitudes
        accumulated += weights[code] * np.outer(encrypted, encrypted.conj())
    averaged = accumulated / weights.sum()
    return statevec.trace_distance(averaged, np.eye(2, dtype=complex) / 2)


# ---------------------------------------------------------------------------
# Exact attack detection rates over integer-coded branches.

# _XOR_CODES[c, v] == c ^ v: indexing 4 weights by it and summing each row
# XOR-convolves them with a uniform 2-bit value.
_XOR_CODES = np.bitwise_xor.outer(np.arange(4), np.arange(4))


def _accept_table() -> np.ndarray:
    # verify_authentication on every input, indexed by the records' codes,
    # the secret, R1's token code and R2's token bit.
    accept = np.zeros((4, 4, 4, 2, 4, 2), dtype=bool)
    for index in product(range(4), range(4), range(4), (0, 1), range(4), (0, 1)):
        record1, record2, tele, secret, token_r1, token_r2 = index
        labels = (BELL_LABELS[record1], BELL_LABELS[record2], BELL_LABELS[tele])
        records = SenderRecords(*labels, secret)
        accept[index] = verify_authentication(records, divmod(token_r1, 2), token_r2)
    accept.flags.writeable = False
    return accept


# Whether the sender accepts: _ACCEPT[record1, record2, tele, secret,
# token_r1, token_r2], with 2-bit values as codes 2*z + x.
_ACCEPT = _accept_table()


def _mask_table() -> np.ndarray:
    # mask_tokens on every input, indexed by the two codes, the swap code and
    # the cipher bit: R1's token codes, then R2's token bits.
    masked = np.zeros((2, 4, 4, 4, 2), dtype=np.int64)
    for index in product(range(4), range(4), range(4), (0, 1)):
        code1, code2, swap, cipher = index
        token_r1, token_r2 = mask_tokens(BELL_LABELS[code1], BELL_LABELS[code2], BELL_LABELS[swap], cipher)
        masked[(slice(None), *index)] = _code(token_r1), token_r2
    masked.flags.writeable = False
    return masked


# The masked tokens: _MASK[:, code1, code2, swap, cipher] is R1's token
# code and R2's token bit.
_MASK = _mask_table()


def _columns(
    phase: str, steps: tuple[protocol.Step, ...], names: tuple[str, ...], *index
) -> list[np.ndarray]:
    # The named outcome codes of the phase's stacked branches, each shaped
    # (*inputs, B) by input codes and branch, or as ``index`` picks.
    branches = _stacked_branches(phase, steps)[index]
    return [branches[..., i] for i in protocol._positions(steps, *names)]


def _sent_token_codes(attack: AttackModel) -> tuple[np.ndarray, np.ndarray]:
    # sent_tokens on every (code1, code2, swap, cipher): R1's token codes and
    # R2's token bits, each shaped (4, 4, 4, 2).  An attack XORs a fixed
    # alteration into the masked tokens, read off the input they mask to
    # (Φ+, 0).
    token_r1, token_r2 = sent_tokens(PHI_PLUS, PHI_PLUS, PHI_PLUS, 0, attack)
    return _MASK[0] ^ _code(token_r1), _MASK[1] ^ token_r2


def exact_detection_rate(attack: AttackModel) -> Fraction:
    """Exact probability that a (2,2) run under the attack is rejected,
    summed over every measurement branch with uniform hidden randomness:
    R1's token branches, R2's, the secret bit and the splitting branches.

    Every branch is int-coded (2-bit values as ``2*z + x``) and is one of
    the 2^d equal shares of its phase's stacked table, so the rate is a
    count over one numpy gather: the splitting branches of each pair of
    token branches are picked by the sender's records, the tokens the
    sender receives are looked up in a table of :func:`protocol.sent_tokens`,
    and acceptance in :data:`_ACCEPT`, the sender's rule tabulated once.

    Each token register is the (Φ+, Φ+) one under a Pauli frame on qubits
    0 and 3, which flips only the sender's observed outcome, by ``pair_a ^
    pair_b``, and the sender's record undoes it (:func:`infer_remote_bsm`).
    So every token round reads the (Φ+, Φ+) rows of its step list's table,
    where the record is the observed outcome.
    """
    (code1, record1), (code2, record2) = (
        _columns("token", protocol.token_steps(target, attack), ("code", "observed"), 0, 0)
        for target in ("auth-r1", "auth-r2")
    )
    sent_r1, sent_r2 = _sent_token_codes(attack)
    # Axes: secret, R1's token branch, R2's token branch, splitting branch.
    r1, r2 = record1[:, None], record2[None, :]
    splitting = protocol.splitting_steps(attack, True)
    swap, tele, cipher = _columns("splitting", splitting, ("swap", "tele", "cipher"), slice(None), r1, r2)
    tokens = code1[:, None, None], code2[None, :, None], swap, cipher
    secret = np.arange(2)[:, None, None, None]
    accepted = _ACCEPT[r1[..., None], r2[..., None], tele, secret, sent_r1[tokens], sent_r2[tokens]]
    return Fraction(accepted.size - int(np.count_nonzero(accepted)), accepted.size)


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


@lru_cache(maxsize=None)
def _leaf_table(attack: AttackModel) -> tuple[np.ndarray, list[tuple[bool, tuple[str, ...]]]]:
    # ``leaves`` holds the distinct outcomes of runs under the attack:
    # whether the run was rejected, and its first three public payloads.
    # ``positions`` gives, for each (coins, secret) pattern of a run
    # (_trial_leaves), where its leaf sits in ``leaves``, or -1 until a
    # trial first draws the pattern.
    return np.full(2 << protocol.coin_count(attack), -1, dtype=np.int16), []


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    # The seeds (seed + i) mod 2^64 of trials start <= i < stop, as uint64.
    return np.arange(start, stop, dtype=np.uint64) + np.uint64(seed % (protocol.MAX_SEED + 1))


def _trial_leaves(attack: AttackModel, trials: int, seed: int):
    """Yield ``((rejected, public payloads), count)`` over the distinct
    outcomes of ``trials`` seeded (2,2) runs under the attack.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``.
    A run's transcript is a function of the attack, its secret and its
    :func:`protocol.coin_count` coins, apart from the seed in its header, so
    the trials' coins are computed in one numpy pass per chunk
    (:func:`protocol.fair_coins`), and each (coins, secret) pattern not yet
    in :func:`_leaf_table` costs one full :func:`run_qss22`, which builds
    and validates its transcript.
    """
    coins = protocol.coin_count(attack)
    positions, leaves = _leaf_table(attack)
    weights = 1 << np.arange(coins)
    for start in range(0, trials, _CHUNK_TRIALS):
        stop = min(start + _CHUNK_TRIALS, trials)
        keys = _trial_keys(seed, start, stop)
        secrets = np.arange(start, stop) & 1
        patterns = protocol.fair_coins(keys, coins) @ weights | secrets << coins
        for i in np.flatnonzero(positions[patterns] < 0).tolist():
            pattern = int(patterns[i])
            if positions[pattern] >= 0:  # an earlier trial of the chunk drew it
                continue
            transcript = run_qss22(pattern >> coins, int(keys[i]), attack)
            payloads = tuple(event.payload for event in transcript.public_messages()[:3])
            leaf = (transcript.outcome == "rejected", payloads)
            if leaf not in leaves:
                leaves.append(leaf)
            positions[pattern] = leaves.index(leaf)
        counts = np.bincount(positions[patterns], minlength=len(leaves))
        yield from ((leaf, count) for leaf, count in zip(leaves, counts.tolist()) if count)


def attack_sweep(attack: AttackModel, trials: int, seed: int) -> AttackSweepReport:
    """Run the (2,2) scheme ``trials`` times under the attack and compare the
    rejection fraction with the exact branch-enumeration rate.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``,
    so every trial is reproducible in isolation.  Trials that draw the same
    coins with the same secret share one full run (:func:`_trial_leaves`).
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    detections = sum(count for (rejected, _), count in _trial_leaves(attack, trials, seed) if rejected)
    rate = detections / trials
    exact = exact_detection_rate(attack)
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


def _exact_message_stats(values: np.ndarray, secrets: np.ndarray) -> tuple[bool, bool]:
    # Whether every value a message takes is equally likely, and whether each
    # is as likely under either secret.
    counts = _secret_counts(values, secrets)
    totals = counts.sum(axis=1)
    return bool((totals == totals[0]).all()), bool((counts[:, 0] == counts[:, 1]).all())


def public_transcript_uniformity(trials: int, seed: int) -> UniformityReport:
    """Check that every public classical message is uniform over its range
    and independent of the secret: exactly, by enumeration over the 512
    honest cases, and empirically with a chi-square test over seeded runs.

    Trial ``i`` is the honest run with seed ``(seed + i) mod 2^64`` and
    secret ``i mod 2``; its three public messages are counted.  Trials that
    draw the same coins with the same secret share one full run
    (:func:`_trial_leaves`).  No trials report p = 1; a negative count
    raises ``ValueError``.
    """
    if trials < 0:
        raise ValueError(f"trials must not be negative, got {trials}")
    columns = _honest_columns()
    # In the order the run publishes them: the public-only view's columns.
    names = ("masked-swap-token", "masked-cipher-token", "published-teleport-bsm")
    exact = {
        name: _exact_message_stats(columns[column], columns["secret"])
        for name, column in zip(names, _VIEW_COLUMNS["public-only"])
    }
    empirical: dict[str, dict[str, int]] = {name: {} for name in exact}
    for (_, payloads), count in _trial_leaves(NO_ATTACK, trials, seed):
        for name, value in zip(exact, payloads):
            empirical[name][value] = empirical[name].get(value, 0) + count
    messages = {}
    for name, (uniform, independent) in exact.items():
        counts = empirical[name]
        domain = _message_domain(name)
        chi_p = _uniform_chi_square_p([counts.get(v, 0) for v in domain]) if trials else 1.0
        messages[name] = MessageUniformity(
            values=len(domain),
            exact_uniform=uniform,
            exact_secret_independent=independent,
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

def report_to_jsonl(report: SecrecyReport | AttackSweepReport | UniformityReport) -> str:
    import json

    kinds = {
        SecrecyReport: "secrecy",
        AttackSweepReport: "attack-sweep",
        UniformityReport: "uniformity",
    }
    header = json.dumps(
        {"schema": REPORT_SCHEMA, "kind": kinds[type(report)]},
        sort_keys=True,
        separators=(",", ":"),
    )
    body = json.dumps(report.to_json_obj(), sort_keys=True, separators=(",", ":"))
    return header + "\n" + body + "\n"
