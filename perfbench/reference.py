"""A fixed stdlib-only probe that measures how fast the host is right now.

The host this benchmark was written on drifts in speed by up to 1.6x within
a few minutes, and by 1.3x within one 12 s command (other tenants share its
cores).  CPU time drifts with wall time, so no run length averages this
away.  So the measured command runs under a HostClock: a timer signal
interrupts it every PERIOD_S seconds and times one pass of the probe loop
in the same thread.  Each stretch of the command between two probes is then
scaled by REFERENCE_S over the probe time there, which gives the command's
time at the host speed where the probe takes REFERENCE_S.

The probe mixes what spin8 spends its time on: Fraction products and sums
(big-integer gcd), float arithmetic, small slotted objects and tuples.  It
imports nothing from spin8 and runs with the garbage collector off, so a
collection that spin8's heap has made due cannot land inside it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.005
PERIOD_S = 0.25
SMOOTH = 4


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _loop(n: int = 1000):
    acc = Fraction(0)
    x = 0.5
    rows = []
    for i in range(1, n):
        q = Fraction(i, i + 7) * Fraction(i + 3, 2 * i + 1)
        acc = acc + q if i % 64 else q
        x = x * 1.0000001 + 1e-9
        rows.append(_Pair(x, (i, x, q)))
        if len(rows) > 256:
            rows.clear()
    return acc, x


def _timed_loop() -> tuple[float, float]:
    """Start and end of one pass over the probe loop, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        t1 = perf_counter()
    finally:
        if enabled:
            gc.enable()
    return t0, t1


def probe_s() -> float:
    """Wall time of one pass over the probe loop."""
    t0, t1 = _timed_loop()
    return t1 - t0


def reference_s(repeats: int = 5) -> float:
    return statistics.median(probe_s() for _ in range(repeats))


class HostClock:
    """Time a call in stretches between probes; report raw and scaled time.

    Main thread only, since signal handlers run there.  The probes' own time
    is excluded from both figures; `intervals` says when each probe ran, so a
    tracer can take it out of the spans it interrupted.
    """

    def __init__(self):
        self.stretches: list[float] = []
        self.probes: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self._last = 0.0
        self._old_handler = None

    def _probe(self) -> float:
        t0, t1 = _timed_loop()
        self.probes.append(t1 - t0)
        self.intervals.append((t0, t1))
        return t1

    def _tick(self, signum, frame):
        self.stretches.append(perf_counter() - self._last)
        self._last = self._probe()

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._last = self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.stretches.append(end - self._last)
        self._probe()
        return False

    @property
    def raw_s(self) -> float:
        return sum(self.stretches)

    @property
    def scaled_s(self) -> float:
        """Each stretch times REFERENCE_S over the median of the SMOOTH probes
        nearest it, half before and half after it."""
        n = len(self.probes)
        half = SMOOTH // 2
        total = 0.0
        for i, stretch in enumerate(self.stretches):
            # stretch i lies between probes i and i + 1: take i-1 .. i+2
            near = self.probes[max(0, i - half + 1):min(n, i + half + 1)]
            total += stretch * REFERENCE_S / statistics.median(near)
        return total
