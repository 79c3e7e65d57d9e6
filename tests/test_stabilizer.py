"""The stabilizer engine stands alone.

``qsshare.stabilizer`` imports only the standard library, so whatever
needs only its int maps need not load numpy.  Importing it through the
package would load numpy anyway (``qsshare/__init__`` imports ``bell`` and
``statevec``), so a fresh interpreter loads the module by its file path and
builds a map there.  The engine's qubit bound is a local constant, held
equal to the simulator's here.
"""

import ast
import subprocess
import sys
from pathlib import Path

from qsshare import protocol, stabilizer, statevec

PATH_LOAD = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("stabilizer", {path!r})
module = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = module
spec.loader.exec_module(module)
Step = module.Step
token = module.linear_map("token", (Step("bell", (1, 2), "code"), Step("bell", (0, 3), "observed")))
loaded = sorted(name for name in sys.modules if name.partition(".")[0] in ("numpy", "qsshare"))
print(repr((token.inputs, token.coins, dict(token.fields), loaded)))
"""


def test_the_engine_builds_the_honest_token_map_without_numpy_or_the_package():
    code = PATH_LOAD.format(path=stabilizer.__file__)
    result = subprocess.run([sys.executable, "-I", "-B", "-c", code], capture_output=True, text=True, check=True)
    inputs, coins, fields, loaded = ast.literal_eval(result.stdout)
    assert loaded == []
    honest = stabilizer.linear_map("token", protocol.token_steps("auth-r1", protocol.NO_ATTACK))
    assert (inputs, coins, fields) == (honest.inputs, honest.coins, dict(honest.fields))


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
