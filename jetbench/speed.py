"""Machine-speed probe: every reported time is scaled by it.

On a shared host the speed of one core drifts by up to 2x over seconds to
minutes, and every pure-Python computation slows with it, so the wall time of
the same request read in two runs can differ by more than any bound worth
setting.  The probe is a fixed pure-Python computation -- Fraction products
summed into a dict, the kind of work the jetvar kernel does, but none of its
code -- timed in the same process next to each timed interval.  An interval's
reference seconds are

    wall seconds * REFERENCE_S / mean(probe seconds around it)

that is, the time it would have taken on a core that runs the probe in
REFERENCE_S.  The probe runs MIN_REPS times right before and right after the
interval and, when the interval is sampled, every PERIOD_S inside it from a
SIGALRM handler; the handler's time is taken out of the interval's wall
seconds.  So a 40-second request is scaled by the speed of the core during
those 40 seconds, not at its two ends.  The mean, not the median, of the
samples is used: when the speed changes within an interval, the interval's
time grows with the mean of the probe's time over it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

# Probe seconds on an unloaded core of the machine the baseline was measured
# on (x86-64, Python 3.11.7); it only fixes the scale of reported times.
REFERENCE_S = 0.005
MIN_REPS = 2
PERIOD_S = 0.1
WARMUP_S = 0.5
_ZERO = Fraction(0)


def probe() -> float:
    """Seconds of one run of the fixed computation.

    The cyclic garbage collector is paused meanwhile: the probe's objects
    would otherwise set off collections of the program's heap, and a sample
    would grow with the heap of whatever runs around it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc: dict = {}
        for i in range(1, 1001):
            key = (i % 61, i % 7)
            acc[key] = acc.get(key, _ZERO) + Fraction(i, 7) * Fraction(3, i + 2)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def burst(seconds: float = 0.0) -> list:
    """Probe samples that add up to at least `seconds`, and at least
    MIN_REPS of them."""
    samples, total = [], 0.0
    while len(samples) < MIN_REPS or total < seconds:
        samples.append(probe())
        total += samples[-1]
    return samples


class Bracket:
    """Times intervals between probe bursts.

    The burst after one interval is also the burst before the next, so
    back-to-back intervals cost one burst each."""

    def __init__(self, warmup_s: float = WARMUP_S):
        self.before = burst(warmup_s)

    @contextlib.contextmanager
    def timed(self, sample: bool):
        """Times the body of the with-block and yields a dict that gets its
        "wall_s" and "ref_s" when the block ends.

        With `sample`, the probe also runs every PERIOD_S inside the block;
        only for work done in this thread, which the probe pauses.  Sampling
        uses SIGALRM and must run in the main thread."""
        ticks = []   # (start, end, probe seconds) of each in-block probe

        def tick(signum, frame):
            start = time.perf_counter()
            seconds = probe()
            ticks.append((start, time.perf_counter(), seconds))

        result: dict = {}
        if sample:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield result
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            if sample:
                signal.signal(signal.SIGALRM, previous)
        wall_s = t1 - t0 - sum(end - start for start, end, _ in ticks
                               if t0 <= start and end <= t1)
        result["wall_s"] = wall_s
        result["ref_s"] = self.close(wall_s, [s for *_, s in ticks])

    def close(self, wall_s: float, inside: list = ()) -> float:
        """Probes after an interval of `wall_s` seconds that has just ended,
        during which the probe read `inside`; returns its reference seconds."""
        after = burst()
        probe_s = statistics.fmean([*self.before, *inside, *after])
        self.before = after
        return wall_s * REFERENCE_S / probe_s
