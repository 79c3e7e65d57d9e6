"""A mutation gate for the stabilizer engine, the run's bit algebra, the
vectorised Philox, the numpy-free imports, the (5,5) mixedness, the
state-vector gates, the exact analysis's run basis, the attack sweeps'
rejections, the transcript's line writer and recorders, and the command
line's output.

Each mutant names a file under ``src/qsshare``, an exact old text that must
occur there once, its replacement, and the test files that must kill it
(the engine's tests, :data:`TESTS`, unless it names others).  For each
mutant the harness copies ``src/``, ``tests/``, ``pyproject.toml`` and
``README.md`` (whose examples ``tests/test_pins.py`` reads) to a
temporary directory, applies the mutant to the copy, and runs its tests
there; pyproject's ``pythonpath`` puts the copy's ``src`` first on the path.
A mutant is killed when a test fails.  Every mutant must be killed except the
no-op control, which must survive: that shows the gate can report a
survivor.  The script needs no package beyond the test dependencies:

    python tests/mutants.py

It prints one line per mutant and exits 1 when any verdict is not the
expected one.  It is not a tier-1 test: each mutant costs a pytest run,
the surviving control about 15 s on a 2-vCPU machine, and all 33 about
100–115 s.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_ranks.py", "tests/test_exact_branches.py", "tests/test_draws.py")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/qsshare
    old: str
    new: str
    killed: bool = True  # False for the control, which must survive
    tests: tuple[str, ...] = TESTS


MUTANTS = (
    # reduce stops recording which rows it took, so a sign read off a
    # product of generators loses their masks.
    Mutant("reduce-without-tag", "stabilizer.py", "        tag ^= row_tag\n", ""),
    # The transpose writes outcome bit k at word bit k, not top - k.
    Mutant("transpose-unreversed", "stabilizer.py", "|= 1 << top - k", "|= 1 << k"),
    # The symplectic partner without its X/Z swap: anticommutation is read
    # off the Pauli itself.
    Mutant("partner-unswapped", "stabilizer.py", "partner = pauli >> _Z | (pauli & _X_BITS) << _Z", "partner = pauli"),
    # bell loads numpy when imported, not only in its oracle sweep.
    Mutant(
        "bell-imports-numpy",
        "bell.py",
        "from functools import lru_cache\n",
        "from functools import lru_cache\n\nimport numpy as np\n",
        tests=("tests/test_stabilizer.py",),
    ),
    # A coin is 1 when its raw word's top bit is 1, not 0.
    Mutant(
        "draw-coin-inverted",
        "protocol.py",
        "raw < _COIN_BELOW",
        "raw >= _COIN_BELOW",
        tests=("tests/test_draws.py",),
    ),
    # The sender's check reads the x bit of R2's record, not its z bit.
    Mutant(
        "accepts-without-z-shift",
        "protocol.py",
        "secret ^ record2 >> 1) & 1",
        "secret ^ record2) & 1",
        tests=("tests/test_exact_branches.py",),
    ),
    # R2's token masks its cipher bit with the x bit of its code alone.
    Mutant(
        "mask-drops-r2-z",
        "protocol.py",
        "(code2 >> 1 ^ code2) & 1",
        "code2 & 1",
        tests=("tests/test_protocol.py",),
    ),
    # Philox's round keys start one increment late.
    Mutant(
        "philox-round-key-off-by-one",
        "protocol.py",
        "for r in range(_PHILOX_ROUNDS)",
        "for r in range(1, _PHILOX_ROUNDS + 1)",
        tests=("tests/test_draws.py",),
    ),
    # hi(M·x) reads as top bit 1 from one past ⌈2^127 / M⌉; random keys
    # reach that x with probability 2^-64.
    Mutant(
        "coin-threshold-off-by-one",
        "protocol.py",
        "-(-(1 << 127) // m))",
        "-(-(1 << 127) // m) + 1)",
        tests=("tests/test_batch.py",),
    ),
    # The counter table starts at block 0, not at numpy's first counter 1.
    Mutant(
        "counter-table-from-block-0",
        "protocol.py",
        "for j in range(1, 17)",
        "for j in range(16)",
        tests=("tests/test_batch.py",),
    ),
    # The coins read the four words of each block last word first.
    Mutant(
        "coin-lanes-reversed",
        "protocol.py",
        "words[coin & 3][rows",
        "words[3 - (coin & 3)][rows",
        tests=("tests/test_batch.py",),
    ),
    # The rounds run on the first blocks, as many as are asked for, not on
    # the asked ones: block 1's coins are read off block 0's row.
    Mutant(
        "coin-bits-from-first-blocks",
        "protocol.py",
        "_COUNTER_ROUNDS[:, blocks, None]",
        "_COUNTER_ROUNDS[:, : len(blocks), None]",
        tests=("tests/test_batch.py",),
    ),
    # The coins' columns are XORed in last coin first: coin weights read
    # least significant first.
    Mutant(
        "draw-coins-reversed",
        "protocol.py",
        "zip(coins, rng.random_raw(",
        "zip(coins[::-1], rng.random_raw(",
        tests=("tests/test_draws.py",),
    ),
    # The line writer keeps each record's key order.
    Mutant(
        "jsonl-unsorted",
        "protocol.py",
        "sort_keys=True, ",
        "",
        tests=("tests/test_draws.py",),
    ),
    # A recorded event takes the phase of the first event, not the last.
    Mutant(
        "record-in-first-phase",
        "protocol.py",
        "events[-1].phase",
        "events[0].phase",
        tests=("tests/test_draws.py",),
    ),
    # Three of the four pieces known already reads as a pure qubit.
    Mutant(
        "mixedness-three-pieces-pure",
        "security.py",
        "len(known) < len(PIECES)",
        "len(known) < len(PIECES) - 1",
        tests=("tests/test_security.py", "tests/test_secrecy_codes.py"),
    ),
    # A Z code flips the sign of the |0> row, not the |1> row.
    Mutant(
        "pauli-flips-row-0",
        "statevec.py",
        "ones = out[..., 1:, :]",
        "ones = out[..., :1, :]",
        tests=("tests/test_statevec.py", "tests/test_draws.py"),
    ),
    # A register whose amplitudes have an infinite or NaN imaginary part is
    # taken as finite.
    Mutant(
        "finite-real-only",
        "statevec.py",
        "np.isfinite(amps).all()",
        "np.isfinite(amps.real).all()",
        tests=("tests/test_statevec.py",),
    ),
    # The expansion doubles by the first coin's word first, so the last
    # coin's bit is the most significant of a branch index.
    Mutant(
        "run-words-unreversed",
        "security.py",
        "for word in reversed(rest):",
        "for word in rest:",
        tests=("tests/test_secrecy_codes.py", "tests/test_batch.py"),
    ),
    # A flip keeps the bits outside the named fields.
    Mutant(
        "flips-without-mask",
        "security.py",
        "(w ^ basis[0]) & mask",
        "w ^ basis[0]",
        tests=("tests/test_security.py", "tests/test_secrecy_codes.py"),
    ),
    # A bit that masks a token leaves R1's token share out of its image.
    Mutant(
        "token-images-without-r1-token",
        "security.py",
        "unit ^ t1 << _T1 ^ t2 << _T2",
        "unit ^ t2 << _T2",
        tests=("tests/test_security.py", "tests/test_secrecy_codes.py"),
    ),
    # The basis leaves out the last splitting coin's word.
    Mutant(
        "basis-without-last-coin",
        "security.py",
        "flips + split_flips]",
        "flips + split_flips[:-1]]",
        tests=("tests/test_secrecy_codes.py", "tests/test_ranks.py"),
    ),
    # The secret's word sets the secret's own bit but leaves out what the
    # secret flips in the splitting phase.
    Mutant(
        "basis-without-secret",
        "security.py",
        '[images["secret"][0] ^ secret]',
        '[images["secret"][0]]',
        tests=("tests/test_secrecy_codes.py", "tests/test_security.py"),
    ),
    # R1's token is packed over the teleport outcome's bits in a run word.
    Mutant(
        "token-r1-over-tele",
        "security.py",
        '"token_r1": (1, 2)',
        '"token_r1": (3, 2)',
        tests=("tests/test_secrecy_codes.py", "tests/test_security.py"),
    ),
    # The rejection mask leaves out the secret's bit.
    Mutant(
        "reject-mask-without-secret",
        "security.py",
        "for units in _UNITS.values()",
        "for units in list(_UNITS.values())[1:]",
        tests=("tests/test_security.py", "tests/test_secrecy_codes.py"),
    ),
    # The zero word sends R2's token flipped: every basis word, and so every
    # leaf key, rejects the honest run, which the record's own rate check
    # cannot see.
    Mutant(
        "basis-zero-flips-r2-token",
        "security.py",
        "zero = t1 << _T1 ^ t2 << _T2",
        "zero = t1 << _T1 ^ (t2 ^ 1) << _T2",
        tests=("tests/test_batch.py",),
    ),
    # An attack sweep leaves the last coin that moves the check out of a
    # trial's rejection.
    Mutant(
        "sweep-xor-without-last-coin",
        "security.py",
        "stop), moving)",
        "stop), moving[:-1])",
        tests=("tests/test_batch.py",),
    ),
    # A trial's rejection is the XOR of its flips alone, without the check's
    # value at the zero word: rate 0 and rate 1 swap.
    Mutant(
        "sweep-rejection-without-zero-word",
        "security.py",
        "& secret_moves ^ at_zero",
        "& secret_moves",
        tests=("tests/test_batch.py",),
    ),
    # No coins still run the cipher's rounds on the keys, so the packer's
    # indices of no coins are zeros after a Philox pass all the same.
    Mutant(
        "coin-index-of-no-coins-runs-philox",
        "protocol.py",
        "    if not coins:",
        "    if coins is None:",
        tests=("tests/test_batch.py",),
    ),
    # The uniformity check counts each drawn leaf key once, not once per
    # trial that reaches it.
    Mutant(
        "uniformity-unweighted",
        "security.py",
        "counts[drawn]",
        "None",
        tests=("tests/test_batch.py",),
    ),
    # A view pins the secret by reducing its flip against a span that holds
    # that flip too, so no view ever pins it.
    Mutant(
        "pins-secret-against-own-flip",
        "security.py",
        "for c in coins]), secret)",
        "for c in (secret, *coins)]), secret)",
        tests=("tests/test_security.py", "tests/test_secrecy_codes.py"),
    ),
    # A multi-trial run prints a blank line between its trials.
    Mutant(
        "run-trials-newline-joined",
        "cli.py",
        '"".join(chunks)',
        '"\\n".join(chunks)',
        tests=("tests/test_pins.py",),
    ),
    Mutant("no-op-control", "stabilizer.py", "        coins += 1\n", "        coins = coins + 1\n", killed=False),
)


def killed(mutant: Mutant) -> tuple[bool, float]:
    """Whether the tests fail on a copy of the tree with the mutant applied,
    and the seconds they took."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, copy)
        target = copy / "src" / "qsshare" / mutant.file
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests]
        start = time.perf_counter()
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    if result.returncode not in (0, 1):  # not a verdict: a collection or usage error
        raise SystemExit(f"{mutant.name}: pytest exited {result.returncode}\n{result.stdout}{result.stderr}")
    return result.returncode == 1, seconds


def main() -> int:
    wrong = 0
    for mutant in MUTANTS:
        verdict, seconds = killed(mutant)
        expected = "" if verdict == mutant.killed else " (unexpected)"
        wrong += bool(expected)
        print(f"{mutant.name}: {'killed' if verdict else 'survived'} in {seconds:.1f} s{expected}", flush=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
