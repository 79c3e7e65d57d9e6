"""Run one workload of the qsshare benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 12 --trace 0

Workloads (see ``workloads.py``): ``sweep`` (sampled attack sweeps),
``transcripts`` (in-process ``qsshare run`` calls) and ``exact`` (cold exact
analysis passes).  The package is imported from ``src/`` of the checkout.

With ``--trace 0`` the run reports the end-to-end metrics:

- ``setup_s``: median, over several fresh interpreters, of the time from
  launch until the workload is ready (package import, input set-up, and for
  ``sweep`` and ``transcripts`` the warm-up of tables and caches);
- ``peak_rss_mb``: peak resident memory of this process;
- ``throughput_per_s``: work done per second of op time (protocol trials
  for ``sweep``, CLI runs for ``transcripts``, cold passes for ``exact``).

Times are scaled to a nominal host, one that runs the reference kernel of
``timing.py`` in ``REFERENCE_NOMINAL_S``.  ``timing.HostSampler`` times
that kernel every 50 ms, inside calls into qsshare too, and the trimmed
mean of the samples that fall in the ops gives the throughput's scale, so a
run that falls in one of the host's slow spells is scaled by that spell's
speed.  The set-up probes run one by one between the ops, spread over the
whole measurement, and each probe samples the host the same way while it
sets up and is scaled by what it saw.  The raw set-up time, raw throughput
and whole-run op latency percentiles are printed on the lines before the
result.

A run measures whole rounds of ops (``round_ops`` of the workload: the 14
calls of a sweep rotation, a qss22 and a qss55 run), so every run of a
workload does the same mix of work.

With ``--trace 1`` the run measures untraced for half the time, then traced
for the other half, and reports per-layer metrics from the traced half: calls
and self time per op of every function in ``tracing.LAYERS``, RNG draws per
protocol run, transcript bytes, lru cache hits and misses, and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
describe the machine, the op latency percentiles and a sha256 of the first
ops' output bytes.  Details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from timing import (REFERENCE_NOMINAL_S, HostSampler, PartTimer, reference_sample,
                    reference_seconds)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = 11
PROBE_TIMEOUT_S = 120
MAX_REPORTED_ERRORS = 5

COUNTER_UNITS = {
    "protocol.rng_draws_per_trial": "count",
    "protocol.rng_draws_per_trial.max": "count",
    "protocol.transcript_bytes": "bytes",
    "trace.overhead_pct": "%",
}


class Measurement:
    """Op times, reference samples, work units, failures and an output
    digest of one segment."""

    def __init__(self, sampler: HostSampler, hash_ops: int) -> None:
        self.timer = PartTimer(sampler)
        self.reference: list[float] = []
        self.op_seconds: list[float] = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.hash_ops = hash_ops
        self.hashed = 0
        self.digest = hashlib.sha256()

    def host_scale(self) -> float:
        """Factor that turns this segment's times into times on a host that
        runs the reference kernel in ``REFERENCE_NOMINAL_S`` (see
        ``timing.py``)."""
        return REFERENCE_NOMINAL_S / reference_seconds(self.reference)

    def scaled_seconds_per_unit(self) -> float:
        return sum(self.op_seconds) * self.host_scale() / self.units

    def raw_throughput(self) -> float:
        return self.units / sum(self.op_seconds)


def measure(workload, seconds: float, result: Measurement, on_op=None, between=None) -> None:
    """Run whole rounds of ops until ``seconds`` of op-loop time have passed,
    at least one round.  ``between(elapsed)`` runs after each op; its own
    time does not count towards ``seconds``."""
    samples = result.timer.sampler.samples
    elapsed = 0.0
    while True:
        if on_op is not None:
            on_op(result.attempted)
        start = time.perf_counter()
        first_sample = len(samples)
        result.attempted += 1
        before = result.timer.seconds
        try:
            units, output = workload.run_op(result.timer)
        except Exception:  # an op that raises or fails its check counts as failed
            result.failed += 1
            if result.failed <= MAX_REPORTED_ERRORS:
                traceback.print_exc(file=sys.stderr)
        else:
            result.op_seconds.append(result.timer.seconds - before)
            result.units += units
            if result.hashed < result.hash_ops:
                result.digest.update(output)
                result.hashed += 1
        result.reference.extend(samples[first_sample:])
        elapsed += time.perf_counter() - start
        if between is not None:
            between(elapsed)
        if elapsed >= seconds and result.attempted % workload.round_ops == 0:
            break
    if not result.reference:  # a segment shorter than the sampling interval
        result.reference.append(reference_sample())


class SetupProbes:
    """Times fresh interpreters running probe.py from launch to ready, one
    at a time, spread over the measurement of ``seconds``.  Each probe is
    scaled by the reference samples it took itself while it set up."""

    def __init__(self, workload: str, seed: int, workdir: Path, seconds: float) -> None:
        self.argv = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed), str(workdir)]
        self.schedule = [seconds * i / SETUP_PROBES for i in range(SETUP_PROBES)]
        self.raw: list[float] = []
        self.reference: list[float] = []

    def __call__(self, elapsed: float) -> None:
        while len(self.raw) < len(self.schedule) and elapsed >= self.schedule[len(self.raw)]:
            self.probe()

    def finish(self) -> None:
        while len(self.raw) < len(self.schedule):
            self.probe()

    def probe(self) -> None:
        start = time.perf_counter()
        with subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        word, *numbers = line.split() or [""]
        if word != "ready" or len(numbers) != 2 or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode} without getting ready")
        busy, reference = map(float, numbers)
        self.raw.append(ready - start - busy)
        self.reference.append(reference)

    def scaled_seconds(self) -> float:
        """Median of the probes, each scaled by its own reference."""
        return statistics.median(
            raw * REFERENCE_NOMINAL_S / ref for raw, ref in zip(self.raw, self.reference)
        )


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def latency_summary(measured: Measurement) -> str | None:
    """Raw op latency (median, and the tail percentiles with at least ten
    samples beyond them), raw throughput, and the reference time."""
    if not measured.op_seconds:
        return None
    ms = [t * 1000 for t in measured.op_seconds]
    parts = [f"n={len(ms)}", f"p50={statistics.median(ms):.4f}ms"]
    for pct in (90, 99):
        if len(ms) * (100 - pct) / 100 >= 10:
            parts.append(f"p{pct}={statistics.quantiles(ms, n=100)[pct - 1]:.4f}ms")
    parts.append(f"raw-throughput={measured.raw_throughput():.4f}/s")
    parts.append(f"reference={reference_seconds(measured.reference) * 1e6:.2f}us")
    return " ".join(parts)


def per_layer_metrics(tracer, caches: dict, traced: Measurement, overhead: float) -> dict:
    from tracing import FUNCTION_NAMES

    ops = traced.attempted
    metrics = {}
    for name, calls, self_ns in zip(FUNCTION_NAMES, tracer.calls, tracer.self_ns):
        metrics[f"{name}.calls"] = {"value": calls / ops, "unit": "count"}
        metrics[f"{name}.self_us"] = {"value": self_ns / ops / 1000, "unit": "us"}
    draws = tracer.rng_draws
    counters = {
        "protocol.rng_draws_per_trial": sum(draws) / len(draws) if draws else 0,
        "protocol.rng_draws_per_trial.max": max(draws, default=0),
        "protocol.transcript_bytes": tracer.transcript_bytes / ops,
        "trace.overhead_pct": overhead,
    }
    for name, (hits, misses) in caches.items():
        counters[f"{name}.hits"] = hits / ops
        counters[f"{name}.misses"] = misses / ops
    for name, value in counters.items():
        metrics[name] = {"value": value, "unit": COUNTER_UNITS.get(name, "count")}
    return metrics


def run(args: argparse.Namespace, workdir: Path) -> dict:
    import tracing
    import workloads  # imports the package, so its bytecode exists before the probes run

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)

    with HostSampler() as sampler:
        plain = Measurement(sampler, workload.hash_ops)
        if not args.trace:
            probes = SetupProbes(args.workload, args.seed, workdir, args.seconds)
            measure(workload, args.seconds, plain, between=probes)
            probes.finish()
        else:
            measure(workload, args.seconds / 2, plain)
            traced = Measurement(sampler, 0)
            tracer = tracing.Tracer()
            workload.caches.reset()
            tracer.install()
            try:
                measure(workload, args.seconds / 2, traced,
                        on_op=lambda i: setattr(tracer, "op", i))
            finally:
                tracer.uninstall()

    if not args.trace:
        segments = [plain]
        record["setup_raw_s"] = statistics.median(probes.raw)
        record["setup_probes"] = [
            {"raw_s": raw, "reference_us": ref * 1e6}
            for raw, ref in zip(probes.raw, probes.reference)
        ]
        record["host_scale"] = {"untraced": plain.host_scale()}
        metrics = {
            "setup_s": {"value": probes.scaled_seconds(), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "throughput_per_s": {"value": 1 / plain.scaled_seconds_per_unit(), "unit": "1/s"},
        } if plain.units else {}
    else:
        segments = [plain, traced]
        metrics = {}
        if plain.units and traced.units:
            overhead = (traced.scaled_seconds_per_unit() / plain.scaled_seconds_per_unit() - 1) * 100
            metrics = per_layer_metrics(tracer, workload.caches.read(), traced, overhead)
            # A change in host speed between the segments shows here; the
            # overhead figure is only as good as the two scales agree.
            record["host_scale"] = {"untraced": plain.host_scale(), "traced": traced.host_scale()}
            record["host_scale_shift_pct"] = (traced.host_scale() / plain.host_scale() - 1) * 100
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
        record["spans_kept"] = len(tracer.spans)
        record["traced_latency"] = latency_summary(traced)

    attempted = sum(s.attempted for s in segments)
    failed = sum(s.failed for s in segments)
    record.update(
        latency=latency_summary(plain),
        error_rate=failed / attempted,
        output_sha256=plain.digest.hexdigest(),
        output_sha256_ops=plain.hashed,
        unit=workload.unit,
    )
    return {"record": record, "result": {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "transcripts", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SOURCE / "qsshare" / "__init__.py").is_file():
        print(f"run.py: no qsshare package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        outcome = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record, result = outcome["record"], outcome["result"]
    record["result"] = result
    record_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    env = record["environment"]
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if "setup_raw_s" in record:
        print(f"# raw setup {record['setup_raw_s']:.4f}s")
    print(f"# {args.workload} seed={args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, error_rate={record['error_rate']}, "
          f"latency {record['latency']}")
    if args.trace:
        print(f"# traced latency {record['traced_latency']}, spans kept {record['spans_kept']}, "
              f"host scale shift {record.get('host_scale_shift_pct', 0):+.2f}%")
    print(f"# output sha256 over the first {record['output_sha256_ops']} ops: "
          f"{record['output_sha256']}")
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
