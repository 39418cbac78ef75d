"""Drift calibration: a fixed reference pass timed next to the measured ops.

The machines this benchmark runs on drift: the same op mix has taken
12.4 s and 16.7 s in two identical runs, and a fixed CPU loop averaged
over 10 s windows moved by 15 %.  Every op time is therefore scaled by
``NOMINAL_PASS_S / pass_time``, where ``pass_time`` is the reference
pass's duration measured around the op's midpoint.  A machine running
at the speed the nominal value was taken on reports calibrated times
equal to wall times; a machine running 20 % slow for a while reports
its ops as if it had not.

The pass mixes interpreted scalar work with small numpy calls (sort,
cumsum, sum on 32-element arrays), the same blend as bfslab's inner
loops: compiled sorted-profile kernels at small n called from
coordinate descent, golden sections and bisections written in Python.
A pass made only of numpy calls tracked the product mix but not the
gauge mix, whose time goes mostly to scalar Python.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median pass time on the reference machine (2-core Xeon VM,
# Python 3.11, numpy 2.4).  A constant: changing it rescales every
# calibrated figure, so it is part of the benchmark's definition.
NOMINAL_PASS_S = 1.0e-3

_ITERS = 64
WINDOW_S = 1.5
_REPS = 3
_BASE = np.linspace(0.5, 2.0, 32)[::-1].copy()


def reference_pass() -> float:
    """One fixed unit of mixed scalar-Python and small-numpy work."""
    acc = 0.0
    for i in range(_ITERS):
        v = _BASE * (1.0 + 1e-3 * i)
        s = np.sort(v)
        c = np.cumsum(s)
        acc += float(np.sum(c * s)) * 1e-3
        lo, hi = 0.0, 4.0
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if mid * mid + math.sqrt(mid) > 2.0 + 1e-3 * i:
                hi = mid
            else:
                lo = mid
        acc += hi
    return acc


def pass_time() -> tuple[float, float]:
    """Median of a few reference passes: (seconds per pass, timestamp)."""
    times = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        reference_pass()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[_REPS // 2], time.perf_counter()


def scale(pass_s: float) -> float:
    """Factor turning a wall time into calibrated time at this pass speed."""
    return NOMINAL_PASS_S / pass_s


class Calibrator:
    """Reference-pass samples taken through a run, and the scale they give.

    An op's scale comes from the median of the samples within
    ``WINDOW_S`` of its midpoint (at least the two bracketing it).  The
    drift being corrected moves over seconds, while single passes jitter
    by a few percent; the window keeps the jitter of one sample out of
    a long op's time.
    """

    def __init__(self):
        self.times: list[float] = []
        self.passes: list[float] = []

    def measure(self) -> None:
        p, ts = pass_time()
        self.times.append(ts)
        self.passes.append(p)

    def scale_at(self, t: float) -> float:
        j = bisect.bisect_left(self.times, t)
        lo = min(bisect.bisect_left(self.times, t - WINDOW_S), max(j - 1, 0))
        hi = max(bisect.bisect_right(self.times, t + WINDOW_S), min(j + 1, len(self.times)))
        return scale(statistics.median(self.passes[lo:hi]))
