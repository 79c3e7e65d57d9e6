"""The stabilizer engine and the pair algebra stand alone.

``qsshare.stabilizer`` imports only the standard library, and ``qsshare.bell``
imports numpy only inside its oracle sweep, so whatever needs only the int
maps and the 2-bit codes need not load numpy.  A fresh interpreter imports
both through the package and builds a map and a label XOR there.  The
engine's qubit bound is a local constant, held equal to the simulator's here.
"""

import ast
import sys
from pathlib import Path

from conftest import run_fresh
from qsshare import protocol, stabilizer, statevec
from qsshare.bell import BELL_LABELS

PACKAGE_IMPORT = """
import sys

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] in ("numpy", "qsshare"))

import qsshare
bare = loaded()
import qsshare.bell, qsshare.stabilizer
Step = qsshare.stabilizer.Step
token = qsshare.stabilizer.linear_map("token", (Step("bell", (1, 2), "code"), Step("bell", (0, 3), "observed")))
labels = qsshare.bell.BELL_LABELS
xor = [(type(a ^ b).__name__, (a ^ b).bits) for a in labels for b in labels]
print(repr((bare, loaded(), token.inputs, token.coins, dict(token.fields), xor)))
"""


def test_the_package_imports_the_engine_and_the_pair_algebra_without_numpy():
    bare, loaded, inputs, coins, fields, xor = ast.literal_eval(run_fresh(PACKAGE_IMPORT))
    assert bare == ["qsshare"]
    assert loaded == ["qsshare", "qsshare.bell", "qsshare.stabilizer"]
    honest = stabilizer.linear_map("token", protocol.token_steps("auth-r1", protocol.NO_ATTACK))
    assert (inputs, coins, fields) == (honest.inputs, honest.coins, dict(honest.fields))
    assert xor == [(type(a ^ b).__name__, (a ^ b).bits) for a in BELL_LABELS for b in BELL_LABELS]


def test_the_engine_imports_only_the_standard_library():
    # At any depth, so that no function imports numpy or a package module
    # when it runs.
    tree = ast.parse(Path(stabilizer.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {name.partition(".")[0] for name in imported} <= sys.stdlib_module_names, imported


def test_the_engine_bound_is_the_simulators():
    # A Pauli int holds each qubit's Z bit _Z places above its X bit, so the
    # pass covers registers of up to _Z qubits, as many as statevec holds.
    assert stabilizer._Z == statevec.MAX_QUBITS
