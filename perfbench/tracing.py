"""Spans and counters around calls into qsshare's public functions.

:class:`Tracer` replaces each function in :data:`LAYERS` by a wrapper in
every package module that binds it by name (``security`` imports
``end_to_end_correction`` from ``bell``, ``cli`` imports ``run_qss22`` from
``protocol``, and so on), so calls between modules and within a module are
timed alike.  A span's self time is its duration minus the time of the spans
it caused.  Spans (name, start, end, parent, op) stay in memory and are
written out when the run ends.

The generator returned by ``protocol.make_rng`` is wrapped in a
:class:`CountingGenerator`, which counts the values each protocol run draws.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

PACKAGE = "qsshare"
MODULES = ("statevec", "bell", "protocol", "security", "cli")

# Public functions timed per module; ``Class.method`` names a method.
LAYERS = {
    "statevec": (
        "zero_state",
        "single_qubit",
        "computational_state",
        "tensor",
        "prepare_bell",
        "prepare_bell_on",
        "apply_pauli",
        "apply_hadamard",
        "apply_cnot",
        "measure_computational",
        "project_computational",
        "bell_measure",
        "bell_project",
        "reduced_density",
        "extract_pure_qubit",
        "fidelity",
        "states_equal",
        "trace_distance",
    ),
    "bell": (
        "generate_teleport_table",
        "generate_swap_table",
        "teleport_correction",
        "swap_result",
        "infer_remote_bsm",
        "end_to_end_correction",
        "decode_classical",
        "diff_teleport_table",
        "diff_swap_table",
    ),
    "protocol": (
        "make_rng",
        "AttackModel.from_spec",
        "prepare_token_register",
        "run_auth_tokens",
        "prepare_splitting_register",
        "run_splitting_22",
        "splitting_branch",
        "verify_authentication",
        "reconstruct22",
        "reconstruct55",
        "run_qss22",
        "run_qss55",
        "validate_transcript",
        "Transcript.to_jsonl",
    ),
    "security": (
        "enumerate_honest_cases",
        "mutual_information_22",
        "encrypted_qubit_mixedness_55",
        "exact_detection_rate",
        "attack_sweep",
        "public_transcript_uniformity",
        "report_to_jsonl",
    ),
    "cli": (
        "main",
        "build_parser",
        "cmd_run",
        "parse_secret_qubit",
    ),
}

FUNCTION_NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Spans kept for the spans file; counters cover every call regardless.
SPAN_LIMIT = 50_000


class CountingGenerator:
    """A ``numpy.random.Generator`` stand-in that counts drawn values into
    one slot of a shared list."""

    __slots__ = ("_rng", "_counts", "_slot")

    def __init__(self, rng: np.random.Generator, counts: list[int]) -> None:
        self._rng = rng
        self._counts = counts
        self._slot = len(counts)
        counts.append(0)

    def random(self, *args, **kwargs):
        out = self._rng.random(*args, **kwargs)
        self._counts[self._slot] += np.size(out)
        return out

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self._counts[self._slot] += np.size(out)
        return out

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


class Tracer:
    """Wraps the functions of :data:`LAYERS` while installed."""

    def __init__(self) -> None:
        self.calls = [0] * len(FUNCTION_NAMES)
        self.self_ns = [0] * len(FUNCTION_NAMES)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.rng_draws: list[int] = []
        self.transcript_bytes = 0
        self.op = 0
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn, after=None):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = tracer._next_span
            tracer._next_span += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                tracer.calls[index] += 1
                tracer.self_ns[index] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append((span, index, start, end, parent, tracer.op))
            return result if after is None else after(result)

        return traced

    def _count_rng(self, rng: np.random.Generator) -> CountingGenerator:
        return CountingGenerator(rng, self.rng_draws)

    def _count_bytes(self, text: str) -> str:
        self.transcript_bytes += len(text.encode("utf-8"))
        return text

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        hooks = {"protocol.make_rng": self._count_rng, "protocol.Transcript.to_jsonl": self._count_bytes}
        for index, qualified in enumerate(FUNCTION_NAMES):
            module_name, _, name = qualified.partition(".")
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            after = hooks.get(qualified)
            if "." in name:
                class_name, method = name.split(".")
                owner = getattr(module, class_name)
                raw = inspect.getattr_static(owner, method)
                if isinstance(raw, classmethod):
                    self._set(owner, method, classmethod(self._wrap(index, raw.__func__, after)))
                else:
                    self._set(owner, method, self._wrap(index, raw, after))
                continue
            original = getattr(module, name)
            wrapped = self._wrap(index, original, after)
            for bound_in in modules:
                for attr, value in list(vars(bound_in).items()):
                    if value is original:
                        self._set(bound_in, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span, index, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {"span": span, "name": FUNCTION_NAMES[index], "start_ns": start,
                         "end_ns": end, "parent": parent, "op": op},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
