"""Exact secrecy and authentication analysis of the (2,2) and (5,5) schemes.

All claims that are stated as exact are backed by exhaustive enumeration.
Each exact branch set is read off the joint Born distribution of the
circuit's measurements (:func:`statevec.joint_distribution`): the swap and
teleport Bell outcomes and the cipher bit of the splitting register, or the
code and observed outcomes of a token register, after any eavesdropper
measurement.  The circuits are Clifford circuits on stabilizer inputs, so
every Born probability of an n-qubit register is a multiple of 2^-n; each
one is snapped to that grid, with a float residual below 1e-12 asserted,
and tracked as an exact rational from there on.  The 512 equiprobable
randomness/secret cases of an honest (2,2) run (two pair codes, the swap
and teleport measurement outcomes, and the secret bit) are the honest
branch sets, and attack detection rates are exact sums over every branch.
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
from typing import Iterable, Mapping

import numpy as np

from . import protocol, statevec
from .bell import (
    BELL_LABELS,
    BSM_OUTCOMES,
    PHI_PLUS,
    BellLabel,
    end_to_end_correction,
    infer_remote_bsm,
)
from .protocol import (
    DEFAULT_AUTH_PAIRS,
    RECEIVER_1,
    RECEIVER_2,
    AttackModel,
    SenderRecords,
    mask_tokens,
    run_qss22,
    verify_authentication,
)

REPORT_SCHEMA = "qss-report/1"

# Normal quantile for a two-sided 99% interval.
Z_99 = 2.5758293035489004

PIECES = ("pair1", "pair2", "swap-bsm", "teleport-bsm")

VIEW_NAMES = ("r1-alone", "r2-alone", "public-only", "all-shares", "r2-with-r1-token")

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
    """All 512 randomness/secret cases, read off the honest splitting
    branches.

    Given the secret and the pair codes, each of the 16 (swap, teleport)
    outcome pairs must occur in exactly one branch, with probability exactly
    1/16; a second branch for the same pair would mean the cipher qubit has
    not collapsed.  Cases are ordered by secret, pair codes, swap outcome,
    then teleport outcome.
    """
    cases = []
    for secret in (0, 1):
        for pair1, pair2 in product(BELL_LABELS, repeat=2):
            ciphers = {}
            for p, swap, tele, cipher in _splitting_branches(secret, pair1, pair2, None):
                if (swap, tele) in ciphers:
                    raise AssertionError("cipher qubit not collapsed")
                if p != Fraction(1, 16):
                    raise AssertionError(f"honest branch probability {p}, expected 1/16")
                ciphers[swap, tele] = cipher
            if len(ciphers) != 16:
                raise AssertionError(f"{len(ciphers)} honest branches, expected 16")
            cases.extend(
                HonestCase(secret, pair1, pair2, swap, tele, ciphers[swap, tele])
                for swap, tele in product(BSM_OUTCOMES, repeat=2)
            )
    return tuple(cases)


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


def _view_values(view: str, case: HonestCase) -> tuple:
    """Everything visible to the named adversary view in one run.

    ``r1-alone`` and ``public-only`` include a full tap of the public
    channel.  ``r2-alone`` includes R2's own traffic and the broadcast
    teleport result but not R1's point-to-point token; the deliberately
    stronger ``r2-with-r1-token`` adds that token and quantifies the
    resulting leak.
    """
    token_r1, token_r2 = case.masked_tokens
    public_full = (token_r1, token_r2, case.teleport_bsm)
    if view == "r1-alone":
        return (case.pair1, case.swap_bsm) + public_full
    if view == "r2-alone":
        return (case.pair2, case.cipher_bit, token_r2, case.teleport_bsm)
    if view == "public-only":
        return public_full
    if view == "all-shares":
        return (case.pair1, case.swap_bsm, case.pair2, case.cipher_bit, case.teleport_bsm)
    if view == "r2-with-r1-token":
        return (case.pair2, case.cipher_bit) + public_full
    raise ValueError(f"unknown view {view!r}; known views: {', '.join(VIEW_NAMES)}")


def mutual_information_22(view: str) -> SecrecyReport:
    """Exact mutual information between the secret bit and a view, by
    brute-force enumeration of all 512 cases under uniform priors."""
    counts: dict[tuple, list[int]] = {}
    cases = enumerate_honest_cases()
    for case in cases:
        counts.setdefault(_view_values(view, case), [0, 0])[case.secret] += 1
    total = len(cases)
    # With a uniform secret, I = 1 - H(secret | view); the conditional
    # entropy is 0 or 1 exactly when every view value pins down or is
    # independent of the secret.
    if all(c0 == c1 for c0, c1 in counts.values()):
        information, exact = 0.0, True
    elif all(c0 == 0 or c1 == 0 for c0, c1 in counts.values()):
        information, exact = 1.0, True
    else:
        information, exact = 0.0, False
        for c0, c1 in counts.values():
            seen = c0 + c1
            for c in (c0, c1):
                if c:
                    information += (c / total) * math.log2(2 * c / seen)
    advantage = Fraction(sum(max(c0, c1) for c0, c1 in counts.values()), total) - Fraction(1, 2)
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
    """
    known = dict(known or {})
    unknown = [p for p in PIECES if p not in known]
    if set(known) - set(PIECES):
        raise ValueError(f"unknown piece names: {sorted(set(known) - set(PIECES))}")
    for name, value in known.items():
        if value not in BELL_LABELS:
            raise ValueError(f"piece {name} must be one of the four 2-bit codes, got {value!r}")
    secret = statevec.single_qubit(*secret_amplitudes)
    accumulated = np.zeros((2, 2), dtype=complex)
    count = 0
    for assignment in product(BELL_LABELS, repeat=len(unknown)):
        pieces = dict(known)
        pieces.update(zip(unknown, assignment))
        correction = end_to_end_correction(*(pieces[p] for p in PIECES))
        encrypted = statevec.apply_pauli(secret, 0, correction)
        accumulated += np.outer(encrypted.amplitudes, encrypted.amplitudes.conj())
        count += 1
    averaged = accumulated / count
    return statevec.trace_distance(averaged, np.eye(2, dtype=complex) / 2)


# ---------------------------------------------------------------------------
# Exact attack detection rates by branch enumeration.

def _dyadic(probability: float, n_qubits: int) -> Fraction:
    """The multiple of 2^-n nearest a Born probability of an n-qubit
    stabilizer register; raises unless the float is within 1e-12 of it."""
    scale = 1 << n_qubits
    count = round(probability * scale)
    if not abs(probability - count / scale) < 1e-12:
        raise AssertionError(
            f"branch probability {probability} is not a multiple of 1/{scale}"
        )
    return Fraction(count, scale)


def _accepts(
    sender_pair1: BellLabel,
    sender_pair2: BellLabel,
    receiver_code1: BellLabel,
    receiver_code2: BellLabel,
    swap: BellLabel,
    tele: BellLabel,
    cipher: int,
    secret: int,
    lie: BellLabel = PHI_PLUS,
    flip: int = 0,
) -> bool:
    token_r1, token_r2 = mask_tokens(receiver_code1, receiver_code2, swap, cipher)
    token_r1 ^= lie
    records = SenderRecords(sender_pair1, sender_pair2, tele, secret)
    return verify_authentication(records, (token_r1.z, token_r1.x), token_r2 ^ flip)


@lru_cache(maxsize=None)
def _splitting_branches(
    secret: int,
    pair1: BellLabel,
    pair2: BellLabel,
    intercept: str | None,
) -> tuple[tuple[Fraction, BellLabel, BellLabel, int], ...]:
    """All nonzero (probability, swap, teleport, cipher) branches of the
    splitting circuit, optionally with an eavesdropper measurement inserted
    on the in-flight qubits, in swap-major order per eavesdropper outcome."""
    base = protocol.prepare_splitting_register(
        statevec.computational_state([secret]), pair1, pair2
    )
    n = base.n_qubits
    staged: list[tuple[Fraction, statevec.StateVector]] = []
    if intercept is None:
        staged.append((Fraction(1), base))
    elif intercept == "comp-r2":
        for bit in (0, 1):
            p, state = statevec.project_computational(base, 4, bit)
            if state is not None:
                staged.append((_dyadic(p, n), state))
    elif intercept == "comp-r1":
        for b1 in (0, 1):
            p1, mid = statevec.project_computational(base, 2, b1)
            if mid is None:
                continue
            for b2 in (0, 1):
                p2, state = statevec.project_computational(mid, 3, b2)
                if state is not None:
                    staged.append((_dyadic(p1, n) * _dyadic(p2, n), state))
    elif intercept == "bell-r1":
        for label in BELL_LABELS:
            p, state = statevec.bell_project(base, 2, 3, label)
            if state is not None:
                staged.append((_dyadic(p, n), state))
    elif intercept == "ancilla-r2":
        extended = statevec.tensor(base, statevec.zero_state(1))
        staged.append((Fraction(1), statevec.apply_cnot(extended, 4, 5)))
    else:
        raise ValueError(f"unknown intercept {intercept!r}")
    branches = []
    for p_eve, state in staged:
        if not p_eve:
            continue
        joint = statevec.joint_distribution(state, [(2, 3), (0, 1)], [4])
        for (swap, tele, cipher), p in np.ndenumerate(joint):
            p = _dyadic(float(p), state.n_qubits)
            if p:
                branches.append((p_eve * p, BSM_OUTCOMES[swap], BSM_OUTCOMES[tele], cipher))
    return tuple(branches)


def _token_phase_branches(
    pair_a: BellLabel,
    pair_b: BellLabel,
    intercept: str | None,
) -> Iterable[tuple[Fraction, BellLabel, BellLabel]]:
    """All nonzero (probability, receiver code, sender record) branches of
    one token-phase round, optionally with an intercept on the sent halves."""
    base = protocol.prepare_token_register(pair_a, pair_b)
    n = base.n_qubits
    staged: list[tuple[Fraction, statevec.StateVector]] = []
    if intercept is None:
        staged.append((Fraction(1), base))
    elif intercept == "computational":
        for b1 in (0, 1):
            p1, mid = statevec.project_computational(base, 1, b1)
            if mid is None:
                continue
            for b2 in (0, 1):
                p2, state = statevec.project_computational(mid, 2, b2)
                if state is not None:
                    staged.append((_dyadic(p1, n) * _dyadic(p2, n), state))
    elif intercept == "bell":
        for label in BELL_LABELS:
            p, state = statevec.bell_project(base, 1, 2, label)
            if state is not None:
                staged.append((_dyadic(p, n), state))
    else:
        raise ValueError(f"unknown intercept {intercept!r}")
    for p_eve, state in staged:
        if not p_eve:
            continue
        joint = statevec.joint_distribution(state, [(1, 2), (0, 3)])
        for (code, observed), p in np.ndenumerate(joint):
            p = _dyadic(float(p), n)
            if p:
                record = infer_remote_bsm(pair_a, pair_b, BSM_OUTCOMES[observed])
                yield p_eve * p, BELL_LABELS[code], record


def exact_detection_rate(attack: AttackModel) -> Fraction:
    """Exact probability that a (2,2) run under the attack is rejected,
    summed over every measurement branch with uniform hidden randomness."""
    if attack.kind in ("none", "token-flip", "r1-lie"):
        flip = 1 if attack.kind == "token-flip" else 0
        lie = BellLabel(*attack.delta) if attack.kind == "r1-lie" else PHI_PLUS
        cases = enumerate_honest_cases()
        rejected = sum(
            not _accepts(
                c.pair1, c.pair2, c.pair1, c.pair2,
                c.swap_bsm, c.teleport_bsm, c.cipher_bit, c.secret,
                lie=lie, flip=flip,
            )
            for c in cases
        )
        return Fraction(rejected, len(cases))

    if attack.target in ("split-r1", "split-r2"):
        intercept = {
            ("intercept-resend-computational", "split-r1"): "comp-r1",
            ("intercept-resend-computational", "split-r2"): "comp-r2",
            ("intercept-resend-bell", "split-r1"): "bell-r1",
            ("entangle-ancilla", "split-r2"): "ancilla-r2",
        }[(attack.kind, attack.target)]
        total = Fraction(0)
        weight = Fraction(1, 2 * 16)  # secret x (pair1, pair2) codes
        for secret in (0, 1):
            for pair1, pair2 in product(BELL_LABELS, repeat=2):
                for p, swap, tele, cipher in _splitting_branches(secret, pair1, pair2, intercept):
                    if not _accepts(pair1, pair2, pair1, pair2, swap, tele, cipher, secret):
                        total += weight * p
        return total

    # Token-phase intercepts: the targeted receiver's code and the sender's
    # record may disagree; the other receiver stays honest and uniform.
    intercept = "computational" if attack.kind == "intercept-resend-computational" else "bell"
    which = RECEIVER_1 if attack.target == "auth-r1" else RECEIVER_2
    pair_a, pair_b = DEFAULT_AUTH_PAIRS[which]
    total = Fraction(0)
    for p_auth, code, record in _token_phase_branches(pair_a, pair_b, intercept):
        for other in BELL_LABELS:
            if which == RECEIVER_1:
                code1, record1, code2, record2 = code, record, other, other
            else:
                code1, record1, code2, record2 = other, other, code, record
            for secret in (0, 1):
                for p, swap, tele, cipher in _splitting_branches(secret, record1, record2, None):
                    if not _accepts(record1, record2, code1, code2, swap, tele, cipher, secret):
                        total += Fraction(1, 2 * 4) * p_auth * p
    return total


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


def attack_sweep(attack: AttackModel, trials: int, seed: int) -> AttackSweepReport:
    """Run the (2,2) scheme ``trials`` times under the attack and compare the
    rejection fraction with the exact branch-enumeration rate.

    Trial ``i`` runs with seed ``(seed + i) mod 2^64`` and secret ``i mod 2``,
    so every trial is reproducible in isolation.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    detections = 0
    for i in range(trials):
        transcript = run_qss22(i % 2, (seed + i) % (protocol.MAX_SEED + 1), attack)
        detections += transcript.outcome == "rejected"
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


def _exact_message_stats(values: list, secrets: list[int]) -> tuple[bool, bool]:
    domain = sorted(set(values))
    counts = {v: 0 for v in domain}
    by_secret = {v: [0, 0] for v in domain}
    for v, s in zip(values, secrets):
        counts[v] += 1
        by_secret[v][s] += 1
    uniform = len(set(counts.values())) == 1
    independent = all(c0 == c1 for c0, c1 in by_secret.values())
    return uniform, independent


def public_transcript_uniformity(trials: int, seed: int) -> UniformityReport:
    """Check that every public classical message is uniform over its range
    and independent of the secret: exactly, by enumeration over the 512
    honest cases, and empirically with a chi-square test over seeded runs."""
    cases = enumerate_honest_cases()
    secrets = [c.secret for c in cases]
    exact = {
        "masked-swap-token": _exact_message_stats([c.masked_tokens[0] for c in cases], secrets),
        "masked-cipher-token": _exact_message_stats([c.masked_tokens[1] for c in cases], secrets),
        "published-teleport-bsm": _exact_message_stats([c.teleport_bsm for c in cases], secrets),
    }
    empirical: dict[str, dict[str, int]] = {name: {} for name in exact}
    for i in range(trials):
        transcript = run_qss22(i % 2, (seed + i) % (protocol.MAX_SEED + 1))
        public = transcript.public_messages()
        observed = {
            "masked-swap-token": public[0].payload,
            "masked-cipher-token": public[1].payload,
            "published-teleport-bsm": public[2].payload,
        }
        for name, value in observed.items():
            empirical[name][value] = empirical[name].get(value, 0) + 1
    messages = {}
    sizes = {"masked-swap-token": 4, "masked-cipher-token": 2, "published-teleport-bsm": 4}
    for name, (uniform, independent) in exact.items():
        counts = empirical[name]
        observed_counts = [counts.get(v, 0) for v in _message_domain(name)]
        chi_p = _uniform_chi_square_p(observed_counts) if trials else 1.0
        messages[name] = MessageUniformity(
            values=sizes[name],
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
