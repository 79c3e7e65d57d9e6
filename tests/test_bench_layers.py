"""The functions the benchmark's traced run wraps must still exist.

``perfbench/tracing.py`` names them in ``LAYERS``; a name that no longer
resolves would otherwise only fail the benchmark's own smoke test.  The
module is read from its file, not edited or installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def _resolves(module_name: str, name: str) -> bool:
    owner = importlib.import_module(f"qsshare.{module_name}")
    for part in name.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_layer_resolves():
    layers = _layers()
    assert layers, "no traced layers found"
    missing = [
        f"{module_name}.{name}"
        for module_name, names in layers.items()
        for name in names
        if not _resolves(module_name, name)
    ]
    assert missing == []
