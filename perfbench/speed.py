"""Host speed, sampled while the benchmark runs.

The speed of a shared host drifts by up to 2x over seconds and minutes, so
raw times spread with the host, not with the program. :class:`Sampler` runs a
fixed piece of pure-Python work (:func:`probe`) from a ``SIGALRM`` handler
every ``INTERVAL_S`` of wall time, also in the middle of a job, and keeps
when each probe ran and how long it took. :meth:`Sampler.scaled` turns the
busy time of an interval (its length minus the probes inside it) into seconds
at the reference speed: busy time times ``PROBE_REF_S`` over the mean probe
time in and around the interval. A slower program moves the scaled time; a
slower host moves the probes and the busy time alike.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left, bisect_right

# the probe's time at the reference speed: its usual median on a 2-vCPU
# Intel Xeon host under CPython 3.11
PROBE_REF_S = 0.0011
INTERVAL_S = 0.05
# the probes that set an interval's speed: those within PAD_S of it, and
# at least MIN_PROBES of the nearest
PAD_S = 0.1
MIN_PROBES = 4


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work shaped like the
    engine's (integer arithmetic, dict updates, small frozensets and set
    unions), with the garbage collector paused so that a collection of the
    engine's heap does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts, sets, x = {}, [], 12345
        for i in range(3000):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            k = x & 511
            counts[k] = counts.get(k, 0) + ((x >> 7) & i)
            if i & 15 == 0:
                sets.append(frozenset((k, i & 63, x & 7)))
        union = set()
        for f in sets:
            union |= f
        sorted(counts.values())
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Context manager that probes the host speed every ``INTERVAL_S`` until
    it exits. Times passed to :meth:`scaled` are ``time.perf_counter()``
    readings taken inside the context."""

    def __init__(self):
        self.starts, self.ends, self.durations = [], [], []
        self._busy = False
        self._previous = None

    def _handler(self, signum, frame):
        if self._busy:  # a probe stalled past the next tick
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            took = probe()
            self.starts.append(t0)
            self.ends.append(time.perf_counter())
            self.durations.append(took)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scaled(self, start: float, end: float):
        """``(busy, at_reference)`` for the interval [start, end]: the
        seconds in it not spent in probes, and those seconds at the
        reference speed."""
        starts, ends = self.starts, self.ends
        inside_lo, inside_hi = bisect_left(starts, start), bisect_right(ends, end)
        busy = end - start - sum(ends[k] - starts[k] for k in range(inside_lo, inside_hi))
        lo, hi = bisect_left(starts, start - PAD_S), bisect_right(ends, end + PAD_S)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(starts)):
            if lo > 0 and (hi == len(starts) or start - ends[lo - 1] < starts[hi] - end):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("no host speed probe ran")
        speed = statistics.fmean(self.durations[lo:hi])
        return busy, busy * PROBE_REF_S / speed
