import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_fresh
from qsshare import bell, cli, security
from qsshare.bell import CORRECTION_I, PHI_MINUS, BellLabel
from qsshare.cli import EXIT_OK, EXIT_REJECTED, EXIT_TABLE_MISMATCH, EXIT_USAGE, main


def run_main(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run

def test_run_qss22_accepted(capsys):
    code, out, _ = run_main(["run", "--secret", "1", "--seed", "7"], capsys)
    assert code == EXIT_OK
    footer = json.loads(out.strip().splitlines()[-1])
    assert footer["outcome"] == "accepted"
    assert footer["reconstructed"] == "1"


def test_run_qss22_attack_detected(capsys):
    code, out, _ = run_main(
        ["run", "--secret", "0", "--attack", "token-flip", "--format", "text"], capsys
    )
    assert code == EXIT_REJECTED
    assert "outcome=rejected" in out


def test_run_qss55_reports_unit_fidelity(capsys):
    code, out, _ = run_main(
        ["run", "--scheme", "qss55", "--secret", "0.6,0+0.8i", "--seed", "3"], capsys
    )
    assert code == EXIT_OK
    footer = json.loads(out.strip().splitlines()[-1])
    assert footer["fidelity"] >= 1 - 1e-12


def test_run_qss55_renormalises_with_warning(capsys):
    slightly_off = f"{0.6 * (1 + 2e-10)},0.8i"
    code, _, err = run_main(
        ["run", "--scheme", "qss55", "--secret", slightly_off, "--seed", "1", "--format", "text"],
        capsys,
    )
    assert code == EXIT_OK
    assert "renormalising" in err


@pytest.mark.parametrize(
    "secret, seed",
    [
        # Norm off by 9.0e-13, squared norm by 1.8e-12: the simulator rejects
        # the secret itself.
        ("0.60000000000054,0+0.80000000000072i", 0),
        # Squared norm off by 2e-13, within the simulator's bound, but the
        # four outcome-0 projections of this seed leave it 16 times larger.
        ("0.9999999999999,0", 609),
    ],
)
def test_run_qss55_renormalises_near_normalised_secrets(secret, seed, capsys):
    code, out, err = run_main(
        ["run", "--scheme", "qss55", "--secret", secret, "--seed", str(seed)], capsys
    )
    assert code == EXIT_OK
    assert "renormalising" in err
    footer = json.loads(out.strip().splitlines()[-1])
    assert footer["fidelity"] >= 1 - 1e-12


def test_run_qss55_keeps_secrets_normalised_to_float_precision(capsys):
    code, _, err = run_main(
        ["run", "--scheme", "qss55", "--secret", "0.70710678118654757,0.70710678118654757"],
        capsys,
    )
    assert code == EXIT_OK
    assert err == ""


@pytest.mark.parametrize("secret", ["1e200,0", "1e308,1e308", "1e308+1e308i,0"])
def test_run_qss55_rejects_amplitudes_whose_squares_overflow(secret, capsys):
    # Finite amplitudes, but abs(a) or abs(a) ** 2 leaves the float range.
    code, out, err = run_main(["run", "--scheme", "qss55", "--secret", secret], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == "qsshare: error: qubit amplitudes are not normalised (norm inf)\n"


def test_run_multi_trial_ordering(capsys):
    code, out, _ = run_main(
        ["run", "--secret", "1", "--seed", "4", "--trials", "3", "--format", "text"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert [line.split()[0] for line in lines] == ["trial=0", "trial=1", "trial=2"]
    assert "seed=4" in lines[0] and "seed=6" in lines[2]


def test_byte_identical_outputs(tmp_path, capsys):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        code, _, _ = run_main(
            ["run", "--secret", "1", "--seed", "99", "--out", str(path)], capsys
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# verify-tables

def test_verify_tables_passes_on_fresh_build(capsys):
    code, out, _ = run_main(["verify-tables"], capsys)
    assert code == EXIT_OK
    assert "16/16 teleportation entries, 64/64 swapping entries verified" in out
    assert "teleport Φ- bsm=11 -> X" in out


def test_verify_tables_reports_corruption(monkeypatch, capsys):
    corrupted = dict(bell.generate_teleport_table())
    corrupted[(PHI_MINUS, BellLabel(1, 1))] = CORRECTION_I
    monkeypatch.setattr(bell, "generate_teleport_table", lambda: corrupted)
    code, out, _ = run_main(["verify-tables"], capsys)
    assert code == EXIT_TABLE_MISMATCH
    assert "teleport channel=Φ- bsm=11: generated I, reference X" in out
    assert "15/16 teleportation entries" in out


# ---------------------------------------------------------------------------
# analyze

def test_analyze_views(capsys):
    code, out, _ = run_main(["analyze", "--view", "r2-alone"], capsys)
    assert code == EXIT_OK
    assert "mutual-information-bits=0.0" in out
    code, out, _ = run_main(["analyze", "--view", "all-shares"], capsys)
    assert code == EXIT_OK
    assert "mutual-information-bits=1.0" in out


def test_analyze_attack_sweep(capsys):
    code, out, _ = run_main(
        ["analyze", "--attack", "intercept-resend-computational", "--trials", "400",
         "--seed", "6", "--format", "structured"],
        capsys,
    )
    assert code == EXIT_OK
    header, body = (json.loads(line) for line in out.strip().splitlines())
    assert header == {"schema": "qss-report/1", "kind": "attack-sweep"}
    assert body["exact-rate-rational"] == "0/1"
    assert body["consistent"] is True


def test_analyze_writes_report_file(tmp_path, capsys):
    path = tmp_path / "report.jsonl"
    code, _, _ = run_main(
        ["analyze", "--view", "public-only", "--format", "structured", "--out", str(path)],
        capsys,
    )
    assert code == EXIT_OK
    header = json.loads(path.read_text().splitlines()[0])
    assert header["schema"] == "qss-report/1"


# ---------------------------------------------------------------------------
# usage errors -> exit 1

@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--secret", "2"],
        ["run", "--secret", "1", "--seed", "-4"],
        ["run", "--secret", "1", "--attack", "laser"],
        ["run", "--secret", "1", "--trials", "0"],
        ["run", "--scheme", "qss55", "--secret", "1,1"],
        ["run", "--scheme", "qss55", "--secret", "0.6"],
        ["run", "--scheme", "qss55", "--secret", "nan,0"],
        ["run", "--scheme", "qss55", "--secret", "0.6,0.8i", "--attack", "token-flip"],
        ["analyze", "--view", "r2-alone", "--attack", "token-flip"],
        ["analyze"],
        ["analyze", "--view", "nonsense"],
        ["analyze", "--attack", "r1-lie"],
        ["analyze", "--attack", "laser"],
        ["analyze", "--view", "r2-alone", "--seed", "-1"],
        ["analyze", "--attack", "token-flip", "--seed", str(2**64)],
        ["analyze", "--attack", "token-flip", "--trials", "0"],
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    code, _, err = run_main(argv, capsys)
    assert code == EXIT_USAGE
    assert "error" in err


@pytest.mark.parametrize("command", [["run", "--secret", "1"], ["analyze"]])
@pytest.mark.parametrize(
    "flags, message",
    [
        (["--attack", "token-flip", "--seed", "-1", "--trials", "0"], "seed must be an unsigned 64-bit integer"),
        (["--attack", "laser", "--trials", "0"], "trials must be at least 1"),
        (["--attack", "laser"], "unknown attack kind 'laser'"),
    ],
)
def test_run_and_analyze_share_their_checks(command, flags, message, capsys):
    # The same messages, checked in the same order: seed, trials, spec.
    code, out, err = run_main(command + flags, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"qsshare: error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--secret", "1", "--attack", ""], "unknown attack kind ''"),
        (["analyze", "--attack", ""], "unknown attack kind ''"),
        (
            ["run", "--secret", "1", "--attack", "token-flip:"],
            "attack spec 'token-flip:' has nothing after its ':'",
        ),
        (["analyze", "--attack", "none:"], "attack spec 'none:' has nothing after its ':'"),
        (
            ["analyze", "--view", ""],
            f"unknown view ''; known views: {', '.join(security.VIEW_NAMES)}",
        ),
    ],
)
def test_empty_attack_and_view_are_usage_errors(argv, message, capsys):
    # An empty spec is a spec, not a missing flag, and a spec's colon needs
    # an argument after it: no honest run, no "exactly one of" complaint.
    code, out, err = run_main(argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"qsshare: error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--secret", "1"],
        ["verify-tables"],
        ["analyze", "--view", "public-only"],
    ],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "x.jsonl"
    code, out, err = run_main(argv + ["--out", str(path)], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err == f"qsshare: error: cannot write {path}: No such file or directory\n"


RUN_FLAGS = ("--scheme", "--secret", "--seed", "--trials", "--attack", "--out", "--format")
ANALYZE_FLAGS = ("--view", "--attack", "--trials", "--seed", "--out", "--format")


@pytest.mark.parametrize(
    "argv, prog, message",
    [
        ([], "qsshare", "the following arguments are required: command"),
        (["--bogus"], "qsshare", "the following arguments are required: command"),
        (
            ["frobnicate"],
            "qsshare",
            "argument command: invalid choice: 'frobnicate' (choose from 'run', 'verify-tables', 'analyze')",
        ),
        # Strings no command reads are reported by the top level, in order.
        (["run", "--secret", "1", "extra", "--bogus=2", "-x"], "qsshare", "unrecognized arguments: extra --bogus=2 -x"),
        (["verify-tables", "-"], "qsshare", "unrecognized arguments: -"),
        (["run", "--secret", "1", "--", "--x"], "qsshare", "unrecognized arguments: -- --x"),
        (["run", "--secret", "1", "--out", "--format", "text"], "qsshare run", "argument --out: expected one argument"),
        (["run", "--secret"], "qsshare run", "argument --secret: expected one argument"),
        # Only a negative number or a string with a space may start with -.
        (["run", "--secret", "1", "--seed", "-1e3"], "qsshare run", "argument --seed: expected one argument"),
        (["run", "--secret", "-x"], "qsshare run", "argument --secret: expected one argument"),
        (["run", "--secret", "1", "--seed", "x"], "qsshare run", "argument --seed: invalid int value: 'x'"),
        (["analyze", "--trials="], "qsshare analyze", "argument --trials: invalid int value: ''"),
        (
            ["run", "--secret", "1", "--format", "yaml"],
            "qsshare run",
            "argument --format: invalid choice: 'yaml' (choose from 'text', 'structured')",
        ),
        (
            ["run", "--sch", "qss33", "--secret", "1"],
            "qsshare run",
            "argument --scheme: invalid choice: 'qss33' (choose from 'qss22', 'qss55')",
        ),
        (["run", "--seed", "3"], "qsshare run", "the following arguments are required: --secret"),
        # A missing flag is reported before strings no command reads.
        (["run", "extra"], "qsshare run", "the following arguments are required: --secret"),
        (["run", "--", "--secret", "1"], "qsshare run", "the following arguments are required: --secret"),
        (["run", "--s", "1"], "qsshare run", "ambiguous option: --s could match --scheme, --secret, --seed"),
        (["run", "--s=1"], "qsshare run", "ambiguous option: --s=1 could match --scheme, --secret, --seed"),
        # Ambiguity is found before any flag is read.
        (
            ["run", "--seed", "x", "--format=yaml", "--s", "1"],
            "qsshare run",
            "ambiguous option: --s could match --scheme, --secret, --seed",
        ),
        # Otherwise flags are read in order.
        (["analyze", "--seed", "x", "--format=yaml"], "qsshare analyze", "argument --seed: invalid int value: 'x'"),
        (["run", "--secret", "1", "--help=x"], "qsshare run", "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_malformed_flags_exit_one(argv, prog, message, capsys):
    # argparse's wording, after a usage line under the same prog.  The
    # usage line's wrapping is not pinned.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == EXIT_USAGE
    assert out == ""
    assert err.startswith(f"usage: {prog} [-h] ")
    assert err.endswith(f"\n{prog}: error: {message}\n")
    assert err.count("error:") == 1


@pytest.mark.parametrize(
    "argv, spelled",
    [
        (["run", "--sec", "1", "--see", "5"], ["run", "--secret", "1", "--seed", "5"]),
        (["run", "--secret=1", "--seed=5", "--form=text"], ["run", "--secret", "1", "--seed", "5", "--format", "text"]),
        (["run", "--secret", "0", "--seed", "9", "--secret", "1", "--seed", "5"], ["run", "--secret", "1", "--seed", "5"]),
        (
            ["run", "--sc", "qss55", "--secret", "0.6,-0.8i", "--tri", "2"],
            ["run", "--scheme", "qss55", "--secret=0.6,-0.8i", "--trials", "2"],
        ),
        (["run", "--secret", "1", "--attack", "-a b"], ["run", "--secret", "1", "--attack=-a b"]),
        (["analyze", "--vi", "r2-alone", "--fo=structured"], ["analyze", "--view", "r2-alone", "--format", "structured"]),
        (["verify-tables", "--o", "-"], ["verify-tables"]),
    ],
)
def test_abbreviated_and_repeated_flags_parse_as_spelled_out(argv, spelled, capsys):
    assert run_main(argv, capsys) == run_main(spelled, capsys)


@pytest.mark.parametrize("argv", [["run", "--secret", "1", "--seed", "-4"], ["run", "--seed=-4", "--secret", "1"]])
def test_a_negative_seed_reaches_the_seed_check(argv, capsys):
    assert run_main(argv, capsys) == (EXIT_USAGE, "", "qsshare: error: seed must be an unsigned 64-bit integer\n")


@pytest.mark.parametrize(
    "argv, names",
    [
        (["-h"], ("--help", "run", "verify-tables", "analyze")),
        (["--he"], ("--help", "run", "verify-tables", "analyze")),
        (["run", "-h"], ("--help",) + RUN_FLAGS),
        (["run", "--secret", "1", "--help", "--seed", "x"], ("--help",) + RUN_FLAGS),
        (["verify-tables", "--help"], ("--help", "--out")),
        (["analyze", "--h"], ("--help",) + ANALYZE_FLAGS),
    ],
)
def test_help_names_every_flag_and_exits_zero(argv, names, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    out, err = capsys.readouterr()
    assert excinfo.value.code == EXIT_OK
    assert err == ""
    assert out.startswith("usage: qsshare")
    for name in names:
        assert f" {name}" in out, name


def test_main_calls_the_handler_the_module_holds(monkeypatch):
    # perfbench/tracing.py times a command by wrapping its handler on the
    # module, after import.
    calls = []
    monkeypatch.setattr(cli, "cmd_verify_tables", lambda args: calls.append(args.out) or EXIT_OK)
    assert main(["verify-tables"]) == EXIT_OK
    assert calls == ["-"]


def test_amplitude_parser():
    assert cli.parse_amplitude("0.6") == 0.6
    assert cli.parse_amplitude("0+0.8i") == 0.8j
    assert cli.parse_amplitude("-0.8i") == -0.8j
    with pytest.raises(cli.UsageError):
        cli.parse_amplitude("spam")


# ---------------------------------------------------------------------------
# Cold start

def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        "import sys, qsshare.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


def test_cli_import_loads_no_argparse():
    # The command line is parsed from the module's own table.
    code = "import sys, qsshare.cli\nprint([m for m in ('argparse', 'gettext') if m in sys.modules])"
    assert run_fresh(code).strip() == "[]"


def loaded_modules(argv):
    # The package's modules a fresh process has loaded after one command.
    src = str(Path(__file__).resolve().parent.parent / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    code = (
        "import contextlib, io, sys, qsshare.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): qsshare.cli.main({argv!r})\n"
        "print(sorted(m for m in sys.modules if m.startswith('qsshare.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_only_analyze_imports_security():
    # run and verify-tables need no security analysis, so they do not load
    # it.
    assert "qsshare.security" not in loaded_modules(["run", "--secret", "1"])
    assert "qsshare.security" not in loaded_modules(["verify-tables"])
    assert "qsshare.security" in loaded_modules(["analyze", "--view", "public-only"])
