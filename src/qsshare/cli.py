"""Command-line front end: protocol runs, table verification, security analysis.

Exit codes: 0 success, 1 usage error, 2 protocol rejection (attack detected),
3 table verification mismatch.  Identical seeds and flags produce
byte-identical output files; exit codes are the only pass/fail channel.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import bell, security, statevec
from .protocol import MAX_SEED, NO_ATTACK, AttackModel, run_qss22, run_qss55

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_TABLE_MISMATCH = 3

QUBIT_NORM_ERROR = 1e-9
# A secret whose squared norm is off by more than a 32nd of statevec.NORM_TOL
# is renormalised with a warning.  Runs no longer need it (no run projects a
# register); raising it would change which secrets warn and the amplitudes
# their runs print.
QUBIT_NORM_SQ_WARN = statevec.NORM_TOL / 32


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; usage errors must exit 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_amplitude(text: str) -> complex:
    """Parse one amplitude written as ``re``, ``im·i`` or ``re±im·i``."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise UsageError(f"cannot parse amplitude {text!r}") from None


def parse_secret_qubit(text: str) -> tuple[complex, complex]:
    """Parse ``--secret`` for qss55: two comma-separated amplitudes, e.g.
    ``0.6,0+0.8i``.  Renormalises small deviations with a warning; rejects
    deviations beyond 1e-9."""
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError("a qubit secret needs two comma-separated amplitudes")
    amp0, amp1 = (parse_amplitude(p) for p in parts)
    if not all(math.isfinite(v) for a in (amp0, amp1) for v in (a.real, a.imag)):
        raise UsageError("qubit amplitudes must be finite")
    try:
        norm_sq = abs(amp0) ** 2 + abs(amp1) ** 2
    except OverflowError:  # finite amplitudes whose squares leave the float range
        norm_sq = math.inf
    norm = norm_sq ** 0.5
    if abs(norm - 1.0) > QUBIT_NORM_ERROR:
        raise UsageError(f"qubit amplitudes are not normalised (norm {norm})")
    if abs(norm_sq - 1.0) > QUBIT_NORM_SQ_WARN:
        print(
            f"warning: renormalising qubit amplitudes (norm deviation {abs(norm - 1.0):.3g})",
            file=sys.stderr,
        )
        amp0, amp1 = amp0 / norm, amp1 / norm
    return amp0, amp1


def _check_seed(seed: int) -> None:
    if not 0 <= seed <= MAX_SEED:
        raise UsageError("seed must be an unsigned 64-bit integer")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise UsageError("trials must be at least 1")


def _parse_attack(spec: str) -> AttackModel:
    try:
        return AttackModel.from_spec(spec)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write(out: str, content: str) -> None:
    if out == "-":
        sys.stdout.write(content)
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(content)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror or exc}") from None


def cmd_run(args: argparse.Namespace) -> int:
    _check_seed(args.seed)
    _check_trials(args.trials)
    attack = NO_ATTACK
    if args.attack is not None:
        if args.scheme == "qss55":
            raise UsageError("attack models are only defined for qss22")
        attack = _parse_attack(args.attack)
    if args.scheme == "qss22":
        if args.secret not in ("0", "1"):
            raise UsageError("qss22 shares a single bit: --secret 0 or 1")
        secret = int(args.secret)
    else:
        secret = parse_secret_qubit(args.secret)
    chunks: list[str] = []
    any_rejected = False
    for i in range(args.trials):
        trial_seed = (args.seed + i) % (MAX_SEED + 1)
        if args.scheme == "qss22":
            transcript = run_qss22(secret, trial_seed, attack)
            rejected = transcript.outcome == "rejected" or transcript.reconstructed != secret
            summary = (
                f"trial={i} scheme=qss22 seed={trial_seed} outcome={transcript.outcome}"
                f" reconstructed={transcript.reconstructed}"
            )
        else:
            transcript, _ = run_qss55(secret, trial_seed)
            rejected = transcript.reconstruction_fidelity < 1 - 1e-12
            summary = (
                f"trial={i} scheme=qss55 seed={trial_seed} outcome={transcript.outcome}"
                f" fidelity={transcript.reconstruction_fidelity!r}"
            )
        any_rejected = any_rejected or rejected
        chunks.append(transcript.to_jsonl() if args.format == "structured" else summary + "\n")
    _write(args.out, "".join(chunks))
    return EXIT_REJECTED if any_rejected else EXIT_OK


def cmd_verify_tables(args: argparse.Namespace) -> int:
    generated_teleport = bell.generate_teleport_table()
    generated_swap = bell.generate_swap_table()
    lines = [
        f"teleport {channel.symbol} bsm={outcome.bits} -> {corr.symbol}"
        for (channel, outcome), corr in generated_teleport.items()
    ]
    lines.extend(
        f"swap {pair_a.symbol}(x){pair_b.symbol} bsm={outcome.bits} -> {result.symbol}"
        for (pair_a, pair_b, outcome), result in generated_swap.items()
    )
    teleport_mismatches = bell.diff_teleport_table(generated_teleport)
    swap_mismatches = bell.diff_swap_table(generated_swap)
    lines += teleport_mismatches + swap_mismatches
    lines.append(
        f"{16 - len(teleport_mismatches)}/16 teleportation entries, "
        f"{64 - len(swap_mismatches)}/64 swapping entries verified"
    )
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_TABLE_MISMATCH if teleport_mismatches or swap_mismatches else EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.view is None) == (args.attack is None):
        raise UsageError("analyze needs exactly one of --view or --attack")
    _check_seed(args.seed)
    if args.view is not None:
        try:
            report = security.mutual_information_22(args.view)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        text = (
            f"view={report.view} mutual-information-bits={report.mutual_information!r}"
            f" guess-advantage={report.guess_advantage!r}"
            f" cases={report.cases_enumerated} exact={report.exact}\n"
        )
    else:
        _check_trials(args.trials)
        attack = _parse_attack(args.attack)
        report = security.attack_sweep(attack, args.trials, args.seed)
        text = (
            f"attack={report.attack} trials={report.trials}"
            f" detection-rate={report.detection_rate!r}"
            f" exact-rate={report.exact_rate_rational}"
            f" ci99=({report.ci99[0]!r},{report.ci99[1]!r})"
            f" consistent={report.consistent}\n"
        )
    content = security.report_to_jsonl(report) if args.format == "structured" else text
    _write(args.out, content)
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="qsshare", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a secret-sharing scheme end to end")
    run_parser.add_argument("--scheme", choices=("qss22", "qss55"), default="qss22")
    run_parser.add_argument(
        "--secret", required=True, help="bit for qss22, 're,re±im·i' amplitudes for qss55"
    )
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--trials", type=int, default=1)
    run_parser.add_argument("--attack", default=None, help="attack spec, e.g. token-flip or r1-lie:01")
    run_parser.add_argument("--out", default="-", help="output path, - for stdout")
    run_parser.add_argument("--format", choices=("text", "structured"), default="structured")
    run_parser.set_defaults(func=cmd_run)

    verify_parser = sub.add_parser("verify-tables", help="regenerate and diff the correction tables")
    verify_parser.add_argument("--out", default="-")
    verify_parser.set_defaults(func=cmd_verify_tables)

    analyze_parser = sub.add_parser("analyze", help="secrecy / attack analysis")
    analyze_parser.add_argument("--view", default=None, help=f"one of: {', '.join(security.VIEW_NAMES)}")
    analyze_parser.add_argument("--attack", default=None, help="attack spec to sweep")
    analyze_parser.add_argument("--trials", type=int, default=10000)
    analyze_parser.add_argument("--seed", type=int, default=0)
    analyze_parser.add_argument("--out", default="-")
    analyze_parser.add_argument("--format", choices=("text", "structured"), default="text")
    analyze_parser.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qsshare: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
