"""The command line's byte pins, one table.

Each row is a ``qsshare`` command, the exit code it must return and either
the sha256 of its whole stdout or, for a one-line stdout, that line.  Each
row runs through :func:`qsshare.cli.main` in-process with stdout captured;
the bytes hashed are the UTF-8 a real process writes.  The installed
console script serves the same ``src/``, so CI checks these pins through
this module on every Python and numpy it tests.
"""

import hashlib
import re
import shlex
from pathlib import Path

import pytest

from qsshare import cli

README = Path(__file__).resolve().parent.parent / "README.md"

PINS = (
    # Every verify-tables row, pinned byte for byte: 80 table rows in key
    # order and the verdict line.
    ("verify-tables", 0, "30d87e38f1f341fb280b6d2ac48eafc8942b45ac817c8b49dc01da9a5a7c9fb9"),
    # The honest run: its 32 trials print Φ+ (code 0, a falsy label) as
    # teleport outcomes, swaps and pair labels, which must render as "00",
    # not null.  Trial 0 is the README's ``run --secret 1 --seed 7``.
    ("run --secret 1 --seed 7 --trials 32", 0, "b8a67135a722b0fdcb94b007706eed4d844defa04c2e955daa0e36acebc12c7f"),
    # An attacked multi-trial run: two eavesdropper Z steps come before the
    # swap in its splitting map.
    (
        "run --secret 1 --seed 7 --trials 32 --attack intercept-resend-computational:split-r1",
        0,
        "1b0a5714f3551f9c44d714b218273f5655156ff5fbdef22ebe041d4be0f72905",
    ),
    # A token round with a Bell eavesdropper step: runs draw each phase's
    # outcomes from its linear map.
    (
        "run --secret 1 --seed 7 --trials 32 --attack intercept-resend-bell:auth-r1",
        0,
        "1306271e25ce98aacff417196afbe15614c46fc21cd2eea6541478d07b154097",
    ),
    # The qss55 word layout: word 0 gives both pair codes, then four coins.
    # R2's qubit is a Pauli on the secret, so the bytes do not depend on the
    # LAPACK build; trial 3 is the README's ``--seed 3`` run, whose footer
    # holds "r2-encrypted-qubit":[[0.0,0.8],[-0.6,0.0]].
    (
        "run --scheme qss55 --secret 0.6,0+0.8i --seed 0 --trials 32",
        0,
        "1d8f63b5411461b6edf9bb2b3e55ce0a1f5de4f1799710ad0a3ec267e788629f",
    ),
    # A batched sweep: 10,000 trials run in three chunks of at most 4096,
    # and each trial's check reads 2 of its 10 coins, block 1 alone.
    (
        "analyze --attack intercept-resend-computational:auth-r2 --trials 10000 --seed 5 --format structured",
        0,
        "6c09326dad7f2b832c0758cedea91315ec998c2f541a09f7c7e5f2a8f0d6e2b8",
    ),
    # A cold sweep of the ancilla step list: its basis comes from the run's
    # maps, sampled with no run.
    (
        "analyze --attack entangle-ancilla --trials 1000 --seed 3 --format structured",
        0,
        "f9cf27d6ad427c1925c449c5b7ae8f1dff5c7c9f4760558adcb027c69c0c5363",
    ),
    # The widest run's cold sweep: 10 coins, so its basis has its largest
    # width, 12 words.
    (
        "analyze --attack intercept-resend-computational:auth-r1 --trials 1000 --seed 3 --format structured",
        0,
        "7273182c707bb0865d458b7864cbb66095e8ea7e5e10b194c0b380fa9be4d61e",
    ),
    # The README's "Command line" block, in its order (its verify-tables is
    # the first row), each with the exit code its comment states.
    ("run --secret 1 --seed 7", 0, "1dcbeb3938a0e15c05e5b5eaad019b621de10d49db076219a956f798f94965d5"),
    ("run --secret 0 --attack token-flip", 2, "23ac7fced54fb93f3817031e9b51f4061405a0015fd5c5fd933fb5bc2b916077"),
    ("run --secret 1 --seed 7 --format text", 0, "trial=0 scheme=qss22 seed=7 outcome=accepted reconstructed=1"),
    (
        "run --scheme qss55 --secret 0.6,0+0.8i --seed 3",
        0,
        "614ffe31ec62e50e0c2db25be86eb44b084a8e4761ef17a8535d12d414a0e48f",
    ),
    (
        "analyze --view r2-alone",
        0,
        "view=r2-alone mutual-information-bits=0.0 guess-advantage=0.0 cases=512 exact=True",
    ),
    (
        "analyze --view all-shares",
        0,
        "view=all-shares mutual-information-bits=1.0 guess-advantage=0.5 cases=512 exact=True",
    ),
    # The text form of an attack report, with its default target.
    (
        "analyze --attack intercept-resend-computational --trials 10000",
        0,
        "attack=intercept-resend-computational:split-r2 trials=10000 detection-rate=0.0 exact-rate=0/1"
        " ci99=(0.0,0.0006630497334598373) consistent=True",
    ),
    (
        "analyze --attack r1-lie:01 --trials 1000 --format structured",
        0,
        "8739e5f4a9ee378f7135fc5017a1330af9c7c1777c6bf77c0b7596f731f0eaec",
    ),
)


@pytest.mark.parametrize("command, code, expected", PINS, ids=[row[0] for row in PINS])
def test_pinned_stdout(command, code, expected, capsys):
    assert cli.main(command.split()) == code
    out = capsys.readouterr().out
    if re.fullmatch("[0-9a-f]{64}", expected):
        assert hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected + "\n"


def test_readme_commands_are_pinned():
    # Every qsshare command in the README's "Command line" block is a row.
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("qsshare ")]
    pinned = [command.split() for command, _, _ in PINS]
    assert commands and [command for command in commands if command not in pinned] == []
