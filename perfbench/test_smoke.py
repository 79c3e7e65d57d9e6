"""Tiny-count smoke test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs one round of ops of each workload untraced and traced, checks that the metric
names and units match ``BENCHMARK.json``, and that the benchmark refuses to
run without the package source.  Kept out of the tier-1 suite, which
collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402

# A sweep op at the README's 1000 trials takes about a second; the smoke
# test only needs each call to run.
workloads.Sweep.trials = 4

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


ROUND_OPS = {"sweep": 14, "transcripts": 2, "exact": 1}


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _run_once(workload: str, trace: int) -> dict:
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
        args = Namespace(workload=workload, seed=3, seconds=0.001, trace=trace)
        return run.run(args, Path(workdir))["result"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == ["sweep", "transcripts", "exact"]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_traced_ops_are_correct_and_report_every_layer_metric():
    for workload in ("sweep", "transcripts", "exact"):
        result = _run_once(workload, trace=1)
        assert result["correct"] and result["failed"] == 0, (workload, result)
        # one untraced round of ops, one traced round
        assert result["attempted"] == 2 * ROUND_OPS[workload], (workload, result)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == _units("per_layer"), workload


def test_untraced_run_prints_every_end_to_end_metric():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "transcripts",
         "--seed", "3", "--seconds", "0.05", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package_source():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"{name}: ok")
