"""Host-speed calibration for the timed metrics.

The benchmark runs on a shared virtual machine whose speed changes in
phases of seconds to minutes: a fixed piece of pure-Python work takes 1.0
to 1.6 times its fastest time, depending on what other tenants of the host
do.  Raw times therefore move by 25% or more between two sets of runs of
the same code.  To take the host out of the figures, the harness runs a
fixed reference block -- stdlib ``Fraction`` arithmetic, big-integer
products and an interpreter loop, the kinds of work the program does, and
no code of the program -- between requests, about every ``EVERY_S``
seconds of work, and a measured time ``t`` over ``[a, b]`` is reported as

    t * REF_S / (mean time of the blocks run within WINDOW_S of [a, b])

that is, at the host speed where the block takes ``REF_S``.  A change to
the program moves the reported time by as much as it moves the raw time;
a slow phase of the host moves both the block and the request, and
cancels.  Raw times are printed next to the reported ones on stderr.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

clock = time.perf_counter

# The block's time on a quiet core of the machine the baseline was measured
# on (see README.md).  It only scales the reported figures.
REF_S = 0.0015
EVERY_S = 0.05  # one block per this much work between calibrations
MAX_BURST = 10  # blocks after one long request
WINDOW_S = 0.5

_A = 3 ** 2000 + 1
_B = 7 ** 1500 + 3
_M = 5 * 3 ** 2000 + 12


def block() -> float:
    """Run the reference block once; return its duration in seconds."""
    t0 = clock()
    x = Fraction(1)
    for k in range(1, 80):
        x = x * Fraction(k + 1, k + 2) + Fraction(1, k * k + 1)
    n = _A
    for _ in range(12):
        n = n * _B % _M
    s = 0
    for i in range(2500):
        s += i * i % 7
    return clock() - t0


class Calibrator:
    """Collects [start, duration] samples of the block in one process."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []
        self._last = clock() - MAX_BURST * EVERY_S  # a first tick runs a full burst

    def tick(self) -> None:
        """Between two requests: one block per EVERY_S of work since the
        last block, at most MAX_BURST."""
        n = min(MAX_BURST, round((clock() - self._last) / EVERY_S))
        for _ in range(n):
            t = clock()
            self.samples.append([t, block()])
        if n:
            self._last = clock()


def factor(samples: list[list[float]], a: float, b: float) -> float:
    """Mean block time around [a, b]: every sample within WINDOW_S of it,
    and at least the nearest sample on each side."""
    starts = [s[0] for s in samples]
    lo = bisect.bisect_left(starts, a - WINDOW_S)
    hi = bisect.bisect_right(starts, b + WINDOW_S)
    lo = min(lo, max(0, bisect.bisect_left(starts, a) - 1))
    hi = max(hi, min(len(samples), bisect.bisect_right(starts, b) + 1))
    return statistics.fmean(s[1] for s in samples[lo:hi])


def scale(samples: list[list[float]], a: float, b: float, t: float) -> float:
    """Time t measured over [a, b], at the reference host speed."""
    return t * REF_S / factor(samples, a, b)
