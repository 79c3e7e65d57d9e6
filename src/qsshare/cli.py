"""Command-line front end: protocol runs, table verification, security analysis.

Exit codes: 0 success, 1 usage error, 2 protocol rejection (attack detected),
3 table verification mismatch.  Identical seeds and flags produce
byte-identical output files; exit codes are the only pass/fail channel.

The commands and their flags are one table, :data:`COMMANDS`.  The parser
(:func:`build_parser`) reads it in argparse's syntax (``--flag VALUE`` or
``--flag=VALUE``, unique prefixes, the last repeat wins) and wording, and
``-h`` lists a command's flags.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence
from types import SimpleNamespace
from typing import NoReturn

from . import bell, statevec
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


def cmd_run(args: SimpleNamespace) -> int:
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


def cmd_verify_tables(args: SimpleNamespace) -> int:
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


def cmd_analyze(args: SimpleNamespace) -> int:
    from . import security

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


# A flag of :data:`COMMANDS`: it takes one value, converted by ``type``; a
# required flag has no default.
Flag = namedtuple("Flag", "help default type choices required", defaults=(None, str, None, False))
_OUT = Flag("output path, - for stdout", "-")
_FORMATS = ("text", "structured")

# Each command's handler, help and flags.  The handler reads ``--name`` as
# ``args.name``, the default when it is not given.  Handlers are named, not
# bound, and looked up when the command runs, so that a wrapper set on this
# module after import (perfbench's tracer) is the one called.
COMMANDS = {
    "run": ("cmd_run", "run a secret-sharing scheme end to end", {
        "--scheme": Flag("scheme to run", "qss22", choices=("qss22", "qss55")),
        "--secret": Flag("bit for qss22, 're,re±im·i' amplitudes for qss55", required=True),
        "--seed": Flag("seed of trial 0; trial i runs seed + i", 0, int),
        "--trials": Flag("number of runs", 1, int),
        "--attack": Flag("attack spec, e.g. token-flip or r1-lie:01"),
        "--out": _OUT,
        "--format": Flag("a text line or a JSONL transcript per trial", "structured", choices=_FORMATS),
    }),
    "verify-tables": ("cmd_verify_tables", "regenerate and diff the correction tables", {"--out": _OUT}),
    "analyze": ("cmd_analyze", "secrecy / attack analysis", {
        "--view": Flag("adversary view to analyze"),
        "--attack": Flag("attack spec to sweep"),
        "--trials": Flag("trials of an attack sweep", 10000, int),
        "--seed": Flag("seed of the sweep's trial 0", 0, int),
        "--out": _OUT,
        "--format": Flag("a text line or a JSONL report", "text", choices=_FORMATS),
    }),
}
_HELP = ("-h", "--help")
_HELP_VALUE = "argument -h/--help: ignored explicit argument {!r}"
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")  # a value: no flag looks like one


def _read(token: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """``token`` as argparse reads it among the flags ``names``: None for a
    value, else the flag it names (None for none) and its ``=`` value."""
    if token[:1] != "-" or token in ("-", "--"):
        return None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name in names:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in names if flag.startswith(name)]
        if len(matches) > 1:
            raise ValueError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value
    elif token[1] == "h":
        return "-h", token[2:]
    return None if " " in token or _NEGATIVE_NUMBER.match(token) else (None, None)


def _exit(command: str | None, error: str | None = None) -> NoReturn:
    """Exit as argparse does: 1 after the usage line and the ``error`` on
    stderr, else 0 after the help on stdout.  ``command`` None is qsshare's."""
    if command is None:
        prog, usage, title = "qsshare", f"qsshare [-h] {{{','.join(COMMANDS)}}} ...", __doc__.splitlines()[0]
        rows = [(name, entry[1]) for name, entry in COMMANDS.items()]
    else:
        prog, title, flags = f"qsshare {command}", COMMANDS[command][1], COMMANDS[command][2].items()
        shown = {n: f"{n} {{{','.join(f.choices)}}}" if f.choices else f"{n} {n[2:].upper()}" for n, f in flags}
        usage = " ".join([f"{prog} [-h]"] + [shown[n] if f.required else f"[{shown[n]}]" for n, f in flags])
        rows = [(shown[n], f.help) for n, f in flags]
    if error is not None:
        sys.stderr.write(f"usage: {usage}\n{prog}: error: {error}\n")
        raise SystemExit(EXIT_USAGE)
    rows.insert(0, ("-h, --help", "show this help and exit"))
    sys.stdout.write(f"usage: {usage}\n\n{title}\n\n" + "".join(f"  {left:<28}{text}\n" for left, text in rows))
    raise SystemExit(EXIT_OK)


def _parse_args(argv: Sequence[str] | None = None) -> SimpleNamespace:
    """``argv`` (``sys.argv[1:]`` when None) as its handler's namespace:
    ``command``, ``func`` and every flag.  A usage error exits 1 and ``-h``
    exits 0 (:func:`_exit`)."""
    argv = list(sys.argv[1:] if argv is None else argv)
    index = 0
    while index < len(argv) and (read := _read(argv[index], _HELP)) is not None:
        if read[0]:
            _exit(None, None if read[1] is None else _HELP_VALUE.format(read[1]))
        index += 1
    # argparse takes "--" for the command, unless nothing follows it.
    if argv[index:] in ([], ["--"]):
        _exit(None, "the following arguments are required: command")
    extras, command, rest = argv[:index], argv[index], argv[index + 1 :]
    if command not in COMMANDS:
        _exit(None, f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})")
    handler, _, flags = COMMANDS[command]
    # Strings from "--" on are left over; ambiguity fails before any flag is read.
    cut = rest.index("--") if "--" in rest else len(rest)
    try:
        reading = zip(rest, [_read(token, _HELP + tuple(flags)) for token in rest[:cut]])
    except ValueError as exc:
        _exit(command, str(exc))
    values = {name[2:]: flag.default for name, flag in flags.items()}
    for token, read in reading:
        name, value = read or (None, None)  # a stray value is left over, like an unknown flag
        if name in _HELP:
            _exit(command, None if value is None else _HELP_VALUE.format(value))
        if name is None:
            extras.append(token)
            continue
        if value is None:
            value, read = next(reading, (None, ()))
            if read is not None:
                _exit(command, f"argument {name}: expected one argument")
        flag = flags[name]
        try:
            values[name[2:]] = value = flag.type(value)
        except ValueError:
            _exit(command, f"argument {name}: invalid {flag.type.__name__} value: {value!r}")
        if flag.choices and value not in flag.choices:
            _exit(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, flag.choices))})")
    missing = [name for name, flag in flags.items() if flag.required and values[name[2:]] is None]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    if extras + rest[cut:]:
        _exit(None, f"unrecognized arguments: {' '.join(extras + rest[cut:])}")
    return SimpleNamespace(command=command, func=globals()[handler], **values)


def build_parser() -> Callable[[Sequence[str] | None], SimpleNamespace]:
    """The command line's parser, :func:`_parse_args`: it reads the
    :data:`COMMANDS` table, so nothing is built per call."""
    return _parse_args


def main(argv: list[str] | None = None) -> int:
    args = build_parser()(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"qsshare: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
