"""Machine-speed reference for drift correction.

The host this benchmark was written on is a shared 2-vCPU VM whose speed
drifts by a third over minutes, and it exposes no performance counters.  So
every timed operation is bracketed by a fixed piece of this benchmark's own
code -- interpreter work, allocation churn and NumPy gather/scatter traffic,
no ryprep -- and the operation's time is multiplied by
``NOMINAL_REF_S / measured reference``.
``NOMINAL_REF_S`` is the reference's typical time on that VM, so scaled
milliseconds stay close to real ones.

Each reference sample also guards the measurement: if the process used more
CPU time than the thread running the reference, some other thread of the
program was busy meanwhile, and a change that leaves a thread spinning
would make itself look faster by stealing the reference's core.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, TypeVar

import numpy as np

NOMINAL_REF_S = 0.0037

# CPU time the process may spend outside the reference thread during one
# sample: clock-read skew is a few microseconds, a busy thread is milliseconds.
_BUSY_SLACK_S = 50e-6
_BUSY_SHARE = 0.10

WINDOW = 5

_N_INTERP = 2000
_N_ALLOC = 10000
_N_ARRAY = 10


T = TypeVar("T")


class BusyThreadError(RuntimeError):
    """Another thread of the process consumed CPU while the reference ran."""


class RefClock:
    """Times the reference and keeps every raw sample for reporting."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._amps = rng.standard_normal(1 << 14)
        self._lo = np.arange(0, 1 << 14, 2)
        self._hi = self._lo + 1
        self.samples: list[float] = []

    def _work(self) -> float:
        acc = 0.0
        parts = []
        table = {}
        for i in range(_N_INTERP):
            v = i * 0.37
            table[i & 63] = (i, v)
            acc += v * v
            if i & 7 == 0:
                parts.append(repr(v))
        # allocation churn like parsing and JSON: build and drop a list, a
        # tuple and a string of floats, and a list of small ints
        floats = tuple([i * 0.001 for i in range(_N_ALLOC)])
        text = ",".join(parts) + ",".join(map(repr, floats[: _N_ALLOC // 5]))
        codes = list(text.encode())
        amps, lo, hi = self._amps, self._lo, self._hi
        for _ in range(_N_ARRAY):
            a0 = amps[lo]
            a1 = amps[hi]
            # an exact rotation keeps the values bounded however often it runs
            amps[lo] = 0.6 * a0 - 0.8 * a1
            amps[hi] = 0.8 * a0 + 0.6 * a1
        return acc + len(codes) + len(table)

    def sample(self) -> float:
        """Wall time of one reference run, in seconds."""
        p0 = time.process_time()
        c0 = time.thread_time()
        w0 = time.perf_counter()
        self._work()
        w1 = time.perf_counter()
        c1 = time.thread_time()
        p1 = time.process_time()
        thread_cpu = c1 - c0
        if (p1 - p0) - thread_cpu > _BUSY_SLACK_S + _BUSY_SHARE * thread_cpu:
            raise BusyThreadError(
                f"process CPU {1e3 * (p1 - p0):.3f} ms exceeded the reference thread's "
                f"{1e3 * thread_cpu:.3f} ms: another thread was busy"
            )
        self.samples.append(w1 - w0)
        return w1 - w0

    def measure(self, reps: int = 1) -> float:
        """Take ``reps`` samples; returns the median of the newest
        ``max(reps, WINDOW)`` samples, in seconds.  Around short operations
        the window reaches back a few milliseconds, which damps the noise of
        single samples at no extra cost."""
        for _ in range(max(1, reps)):
            self.sample()
        return statistics.median(self.samples[-max(reps, WINDOW) :])

    def timed(self, fn: Callable[[], T], ref_before: float) -> tuple[T, float, float, float]:
        """Run ``fn`` and sample the reference after it; returns its result,
        raw seconds, scaled seconds and the reference sampled after it."""
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0
        ref_after = self.measure(reps_for(raw))
        return out, raw, scale(raw, ref_before, ref_after), ref_after


def reps_for(op_seconds: float) -> int:
    """Reference samples per bracket: one, plus one per half second of the
    operation, so a long operation is scaled by a steadier reference."""
    return 1 + int(op_seconds / 0.5)


def scale(raw_s: float, ref_before: float, ref_after: float) -> float:
    """Operation time corrected to the nominal machine speed."""
    return raw_s * NOMINAL_REF_S * 2.0 / (ref_before + ref_after)
