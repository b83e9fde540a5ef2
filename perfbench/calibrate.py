"""Machine-speed reference timed between pieces of measured work.

On a shared host the speed of identical pure-Python work drifts by up to
2x over tens of seconds, and whole runs land in slow or fast stretches.
A fixed reference kernel, timed in the same process between pieces of
the measured work, slows down and speeds up with it.  The benchmark
scales its busy time by ``NOMINAL_S`` over the reference time measured
around that work, so its rates read as if the machine ran the reference
at the nominal speed.

The kernel is the benchmark's own code, with stdlib ``fractions`` only,
and it resembles the program's hot path: products of sparse series held
as dicts from exponent tuples to ``Fraction``.  No change to jetfields
changes its cost.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

# Reference time of one chunk on the nominal machine.  Scaled rates are
# what the measured machine would give if one chunk took this long.
NOMINAL_S = 0.020
# A chunk is run after at least this much measured work since the last.
INTERVAL_S = 0.25
KERNELS_PER_CHUNK = 2

_rng = random.Random(7)
_SERIES = {(i, j, k): Fraction(_rng.randint(-9, 9) or 1, _rng.randint(1, 9))
           for i in range(4) for j in range(4) for k in range(3)}


def kernel() -> dict:
    """One product of two 48-term series over three variables."""
    out: dict = {}
    for ea, ca in _SERIES.items():
        for eb, cb in _SERIES.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return out


def chunk(clock=time.perf_counter) -> float:
    """Seconds taken by one reference chunk, with the collector paused.

    The collector is paused so that the program's heap, which a change
    to jetfields may grow or shrink, does not change the chunk's cost.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        for _ in range(KERNELS_PER_CHUNK):
            kernel()
        return clock() - t0
    finally:
        if was_enabled:
            gc.enable()


class Pacer:
    """Interleaves reference chunks with measured work.

    Call ``work(seconds)`` after each piece of measured work; a chunk runs
    once ``INTERVAL_S`` of work has built up.  Each stretch of work between
    two chunks is weighted by the mean of those two chunks.  ``reference_s``
    is the work-weighted mean chunk time, and ``scale`` turns busy seconds
    into nominal seconds.
    """

    def __init__(self, measure=chunk, interval: float = INTERVAL_S):
        self._measure = measure
        self._interval = interval
        measure()  # warm-up, not recorded
        self._last = measure()
        self._pending = 0.0
        self._weighted = 0.0
        self._work = 0.0
        self.chunks = 1

    def work(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= self._interval:
            self._sample()

    def _sample(self) -> None:
        r = self._measure()
        self.chunks += 1
        self._weighted += self._pending * (self._last + r) / 2
        self._work += self._pending
        self._pending = 0.0
        self._last = r

    def finish(self) -> float:
        """Close the last stretch of work and return ``reference_s``."""
        if self._pending or not self._work:
            self._sample()
        return self.reference_s

    @property
    def reference_s(self) -> float:
        return self._weighted / self._work if self._work else self._last


def scale(reference_s: float) -> float:
    """Factor from busy seconds on the measured machine to nominal seconds."""
    return NOMINAL_S / reference_s
