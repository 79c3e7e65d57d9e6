"""Part timing with a host-speed reference.

The host's speed swings by up to 1.8x, for spells from under a second to
tens of seconds (most likely another tenant sharing the physical core), and
a whole run can fall inside a slow spell.  So while the benchmark measures,
:class:`HostSampler` times a fixed reference kernel that uses no qsshare
code every ``SAMPLE_INTERVAL_S``: small complex NumPy arrays, pure-Python
loops, JSON and Fraction arithmetic, the same mix of interpreter and
library work as the program.  Times are then scaled by
``REFERENCE_NOMINAL_S / reference time``: the time they would take on a
host that runs the reference kernel in exactly ``REFERENCE_NOMINAL_S``.
Raw times are reported alongside.

The program's own state must not slow the kernel, or the program's cost
would come back as a faster scaled time.  So the garbage collector is off
while the kernel runs (a collection of a heap the program grew would
otherwise land in it), and one reference sample is the fastest of
``REFERENCE_REPEATS`` back-to-back kernel runs, which drops a preemption or
an interrupt that hits one of them.  A run's scale then uses a trimmed mean
of its samples (:func:`reference_seconds`): it follows the share of the run
spent in slow spells, which a median would not, and the trimming keeps a
stray sample from moving it.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_NOMINAL_S = 150e-6
REFERENCE_REPEATS = 3
SAMPLE_INTERVAL_S = 0.05
# Share of samples dropped at each end before the mean is taken.
REFERENCE_TRIM = 0.1

_HALF = 1 / np.sqrt(2)


def reference_kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    amps = np.zeros(32, dtype=complex)
    amps[0] = 1.0
    weight = Fraction(1)
    for q in range(5):
        view = amps.reshape((1 << q, 2, 1 << (4 - q)))
        out = np.empty_like(view)
        out[:, 0, :] = (view[:, 0, :] + view[:, 1, :]) * _HALF
        out[:, 1, :] = (view[:, 0, :] - view[:, 1, :]) * _HALF
        amps = out.reshape(-1)
        ones = out[:, 1, :]
        weight *= Fraction(round(float(np.real(np.vdot(ones, ones))) * 2), 2)
        json.dumps({"qubit": q, "bits": [b & 1 for b in range(8)]}, sort_keys=True)
    if weight != Fraction(1, 32):
        raise AssertionError(f"reference kernel computed {weight}")
    return time.perf_counter() - start


def reference_sample() -> float:
    """One reference sample: the fastest of a few kernel runs, with the
    garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(reference_kernel() for _ in range(REFERENCE_REPEATS))
    finally:
        if enabled:
            gc.enable()


def reference_seconds(samples: list[float]) -> float:
    """Trimmed mean of reference samples."""
    ordered = sorted(samples)
    cut = int(len(ordered) * REFERENCE_TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class HostSampler:
    """Takes a reference sample every ``SAMPLE_INTERVAL_S`` of wall time
    while active, from a ``SIGALRM`` handler, so the host's speed is
    sampled all through long calls into qsshare (a sweep call runs about a
    second) and while the process waits for a set-up probe.  The handler's
    own time is added up in ``busy``, for timers to leave out."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy = 0.0
        self._in_handler = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._in_handler:
            return
        self._in_handler = True
        start = time.perf_counter()
        try:
            self.samples.append(reference_sample())
        finally:
            self.busy += time.perf_counter() - start
            self._in_handler = False

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class PartTimer:
    """Adds up the time of calls, less the time the sampler took in them."""

    def __init__(self, sampler: HostSampler) -> None:
        self.sampler = sampler
        self.seconds = 0.0

    def __call__(self, fn, *args):
        busy = self.sampler.busy
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds += time.perf_counter() - start - (self.sampler.busy - busy)
