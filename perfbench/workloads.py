"""The three workloads of the qsshare benchmark.

Each workload builds its inputs from the benchmark seed alone, runs one op
with every call into qsshare timed by the ``timer`` it is given (a
:class:`timing.PartTimer`), then checks the op's output.  A check that fails
raises :class:`CheckFailed`; the runner counts the op as failed.  Every
workload is a closed loop with one client: the next op starts only after
the previous one has been checked.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from qsshare import bell, cli, security
from qsshare.bell import BELL_LABELS, BSM_OUTCOMES
from qsshare.protocol import AttackModel

# The 13 attack specs of the README table ("none" included) with the exact
# detection rates the README states.
EXACT_RATES = {
    "none": Fraction(0),
    "token-flip": Fraction(1),
    "r1-lie:01": Fraction(1),
    "r1-lie:11": Fraction(1),
    "r1-lie:10": Fraction(0),
    "intercept-resend-computational:auth-r1": Fraction(0),
    "intercept-resend-computational:auth-r2": Fraction(1, 2),
    "intercept-resend-computational:split-r1": Fraction(0),
    "intercept-resend-computational:split-r2": Fraction(0),
    "intercept-resend-bell:auth-r1": Fraction(0),
    "intercept-resend-bell:auth-r2": Fraction(0),
    "intercept-resend-bell:split-r1": Fraction(0),
    "entangle-ancilla:split-r2": Fraction(0),
}

# The lru caches of the package, captured before any tracing wraps them so
# that their hit counts can be read and the exact workload can empty them.
CACHES = {
    "bell.teleport_table_cache": bell.generate_teleport_table,
    "bell.swap_table_cache": bell.generate_swap_table,
    "security.honest_cases_cache": security.enumerate_honest_cases,
    "security.branch_cache": security._splitting_branches,
}

FIDELITY_FLOOR = 1 - 1e-12
MIXEDNESS_TOL = 1e-12
# A sampled rate of 1/2 is checked against a band of six standard
# deviations (false alarm about 2e-9 per sweep); the program's own 99%
# interval is expected to miss one sweep in a hundred.
RATE_BAND_SIGMAS = 6


class CheckFailed(Exception):
    """An op's output disagrees with the known answer."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _fraction_text(rate: Fraction) -> str:
    return f"{rate.numerator}/{rate.denominator}"


def _run_cli(argv: list[str]) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return exc.code


def _random_qubit(rng: random.Random) -> tuple[complex, complex]:
    amp0 = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    amp1 = complex(rng.gauss(0, 1), rng.gauss(0, 1))
    norm = math.sqrt(abs(amp0) ** 2 + abs(amp1) ** 2)
    return amp0 / norm, amp1 / norm


class CacheCounters:
    """Hits and misses of :data:`CACHES`, kept across ``cache_clear`` calls
    (which reset the counts ``cache_info`` reports)."""

    def __init__(self) -> None:
        self._seen = {name: self._info(name) for name in CACHES}
        self.totals = {name: [0, 0] for name in CACHES}

    @staticmethod
    def _info(name: str) -> tuple[int, int]:
        info = CACHES[name].cache_info()
        return info.hits, info.misses

    def _fold(self) -> None:
        for name in CACHES:
            hits, misses = self._info(name)
            seen_hits, seen_misses = self._seen[name]
            self.totals[name][0] += hits - seen_hits
            self.totals[name][1] += misses - seen_misses
            self._seen[name] = (hits, misses)

    def reset(self) -> None:
        self._fold()
        self.totals = {name: [0, 0] for name in CACHES}

    def clear_caches(self) -> None:
        self._fold()
        for name, cached in CACHES.items():
            cached.cache_clear()
            self._seen[name] = (0, 0)

    def read(self) -> dict[str, list[int]]:
        self._fold()
        return {name: list(counts) for name, counts in self.totals.items()}


class Sweep:
    """One op is one ``analyze --attack`` call: an attack sweep of one of the
    13 README specs, or the public-transcript uniformity sweep, at the
    README's ``--trials 1000``.  Ops rotate through the 14 calls, and a run
    measures whole rotations, so every run does the same mix of work."""

    name = "sweep"
    unit = "protocol trials"
    trials = 1000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.caches = CacheCounters()
        self.attacks = [AttackModel.from_spec(spec) for spec in EXACT_RATES]
        self.round_ops = self.hash_ops = len(self.attacks) + 1
        self.index = 0
        # Warm the tables, the honest cases and the branch caches.
        for attack in self.attacks:
            security.attack_sweep(attack, 1, 0)
        security.public_transcript_uniformity(1, 0)

    def run_op(self, timed) -> tuple[int, bytes]:
        seed = self.rng.getrandbits(64)
        slot = self.index % self.round_ops
        self.index += 1
        if slot < len(self.attacks):
            report = timed(security.attack_sweep, self.attacks[slot], self.trials, seed)
            self._check_sweep(list(EXACT_RATES)[slot], report)
        else:
            report = timed(security.public_transcript_uniformity, self.trials, seed)
            self._check_uniformity(report)
        return self.trials, security.report_to_jsonl(report).encode()

    def _check_uniformity(self, report) -> None:
        for name, message in report.messages.items():
            _require(
                message.exact_uniform and message.exact_secret_independent,
                f"public message {name} is not exactly uniform and secret-independent",
            )
            _require(
                sum(message.empirical_counts.values()) == self.trials,
                f"public message {name} counted {message.empirical_counts}",
            )

    def _check_sweep(self, spec: str, report) -> None:
        exact = EXACT_RATES[spec]
        _require(
            report.exact_rate_rational == _fraction_text(exact),
            f"{spec}: exact rate {report.exact_rate_rational}, expected {_fraction_text(exact)}",
        )
        if exact in (0, 1):
            _require(
                report.detection_rate == float(exact) and report.consistent,
                f"{spec}: sampled rate {report.detection_rate} for exact rate {exact}",
            )
        else:
            p = float(exact)
            band = RATE_BAND_SIGMAS * math.sqrt(self.trials * p * (1 - p))
            _require(
                abs(report.detections - self.trials * p) <= band,
                f"{spec}: {report.detections}/{self.trials} detections for exact rate {exact}",
            )


class Transcripts:
    """One op is one in-process ``qsshare run`` writing a structured
    transcript; qss22 and qss55 runs alternate."""

    name = "transcripts"
    unit = "CLI runs"
    round_ops = 2
    hash_ops = 256
    # One of the README's four ``qsshare run`` examples carries an attack.
    attack_share = 0.25

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.caches = CacheCounters()
        self.workdir = workdir
        self.attacks = [spec for spec in EXACT_RATES if spec != "none"]
        self.count = 0
        warm = workdir / "warm.jsonl"
        for argv in (
            ["run", "--secret", "1", "--out", str(warm)],
            ["run", "--scheme", "qss55", "--secret", "0.6,0+0.8i", "--out", str(warm)],
        ):
            cli.main(argv)
            warm.unlink()

    def _next_input(self) -> tuple[list[str], dict]:
        seed = self.rng.getrandbits(64)
        self.count += 1
        # Each run writes a new file, removed once checked.  Rewriting one
        # path makes ext4 start writing the truncated file back on close,
        # which put the host's disk traffic into the op time.
        self.out = self.workdir / f"run-{self.count}.jsonl"
        argv = ["run", "--seed", str(seed), "--format", "structured", "--out", str(self.out)]
        if self.count % 2:
            secret = self.rng.getrandbits(1)
            attack = None
            if self.rng.random() < self.attack_share:
                attack = self.rng.choice(self.attacks)
                argv += ["--attack", attack]
            return argv + [f"--secret={secret}"], {"scheme": "qss22", "seed": seed,
                                                      "secret": secret, "attack": attack}
        amp0, amp1 = _random_qubit(self.rng)
        secret = ",".join(f"{a.real!r}{a.imag:+.17g}i" for a in (amp0, amp1))
        return argv + ["--scheme", "qss55", f"--secret={secret}"], {"scheme": "qss55", "seed": seed}

    def run_op(self, timed) -> tuple[int, bytes]:
        argv, expected = self._next_input()
        code = timed(_run_cli, argv)

        data = self.out.read_bytes()
        self.out.unlink()
        lines = data.decode("utf-8").splitlines()
        header, footer = json.loads(lines[0]), json.loads(lines[-1])
        _require(
            header == {"schema": "qss-transcript/1", "scheme": expected["scheme"],
                       "seed": expected["seed"]},
            f"unexpected transcript header {lines[0]}",
        )
        if expected["scheme"] == "qss22":
            _require(code in (cli.EXIT_OK, cli.EXIT_REJECTED), f"qss22 run exited {code}")
            _require(
                code == cli.EXIT_OK or expected["attack"] is not None,
                f"honest run with seed {expected['seed']} exited {code}",
            )
            if code == cli.EXIT_OK:
                _require(
                    footer["outcome"] == "accepted"
                    and footer["reconstructed"] == str(expected["secret"]),
                    f"accepted run reconstructed {footer['reconstructed']}, "
                    f"secret {expected['secret']}",
                )
        else:
            _require(code == cli.EXIT_OK, f"qss55 run exited {code}")
            _require(footer["fidelity"] >= FIDELITY_FLOOR, f"qss55 fidelity {footer['fidelity']}")
        return 1, data + f"exit {code}\n".encode()


class Exact:
    """One op is one cold exact-analysis pass, every lru cache emptied
    first: the work of ``verify-tables`` and ``analyze --view``, and the
    first exact rate of every ``analyze --attack`` process."""

    name = "exact"
    unit = "cold passes"
    round_ops = 1
    hash_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.caches = CacheCounters()
        self.attacks = [AttackModel.from_spec(spec) for spec in EXACT_RATES]
        self.domains = {
            "pair1": BELL_LABELS,
            "pair2": BELL_LABELS,
            "swap-bsm": BSM_OUTCOMES,
            "teleport-bsm": BSM_OUTCOMES,
        }

    def _known_pieces(self) -> list[dict]:
        return [
            {name: self.rng.choice(self.domains[name]) for name in names}
            for size in range(len(security.PIECES) + 1)
            for names in combinations(security.PIECES, size)
        ]

    def run_op(self, timed) -> tuple[int, bytes]:
        known_sets = self._known_pieces()
        secret = _random_qubit(self.rng)
        self.caches.clear_caches()
        teleport = timed(bell.generate_teleport_table)
        swap = timed(bell.generate_swap_table)
        mismatches = timed(bell.diff_teleport_table, teleport) + timed(bell.diff_swap_table, swap)
        cases = timed(security.enumerate_honest_cases)
        views = [timed(security.mutual_information_22, view) for view in security.VIEW_NAMES]
        rates = [timed(security.exact_detection_rate, attack) for attack in self.attacks]
        mixedness = [
            timed(security.encrypted_qubit_mixedness_55, known, secret) for known in known_sets
        ]

        _require(
            len(teleport) == 16 and len(swap) == 64 and not mismatches,
            f"table rows differ from the reference: {mismatches}",
        )
        _require(len(cases) == 512, f"{len(cases)} honest cases, expected 512")
        information = [v.mutual_information for v in views]
        _require(
            information == [0.0, 0.0, 0.0, 1.0, 1.0] and all(v.exact for v in views),
            f"mutual information {information}",
        )
        _require(rates == list(EXACT_RATES.values()), f"exact rates {rates}")
        *partial, full = mixedness
        _require(
            all(m <= MIXEDNESS_TOL for m in partial) and abs(full - 0.5) <= MIXEDNESS_TOL,
            f"encrypted-qubit mixedness {mixedness}",
        )

        lines = [
            f"teleport {channel.bits} {outcome.bits} {corr.symbol}"
            for (channel, outcome), corr in teleport.items()
        ]
        lines += [
            f"swap {a.bits} {b.bits} {outcome.bits} {result.symbol}"
            for (a, b, outcome), result in swap.items()
        ]
        lines += [security.report_to_jsonl(v).rstrip("\n") for v in views]
        lines += [f"rate {spec} {_fraction_text(r)}" for spec, r in zip(EXACT_RATES, rates)]
        lines += [f"mixedness {m!r}" for m in mixedness]
        return 1, ("\n".join(lines) + "\n").encode()


WORKLOADS = {w.name: w for w in (Sweep, Transcripts, Exact)}
