"""Wall time rescaled to a reference machine speed.

Machine speed on a shared host drifts by up to 2x over seconds, and each CPU
flips between a fast and a slow state (about 1.6x apart) every few hundred
milliseconds.  So every timed segment is rescaled to a reference speed: a
fixed stdlib-only probe is timed before and after the segment and, with an
interval set, every interval seconds within it from a timer signal.  The
segment's wall time, less the time spent probing, is multiplied by
PROBE_NOMINAL_S times the mean probe speed (the mean of 1/probe time, which
weights each speed state by the time spent in it).
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from fractions import Fraction

PROBE_NOMINAL_S = 0.0004


def _probe_kernel():
    acc = 0
    seen = {}
    for a in range(1, 41):
        for b in range(1, 21):
            c = (a * b + acc) % 1009
            seen[(a, c)] = (c, b)
            acc = (acc + c) % 65521
    q = Fraction(1, 3)
    for i in range(1, 21):
        q = q * Fraction(i + 1, i) + Fraction(1, 7)
    return acc, q


def probe():
    """Seconds for one probe kernel, the best of nine.  Back to back, two
    best-of-three probes differ by 9.4% (IQR of their ratio), two best-of-nine
    probes by 2.7%."""
    best = math.inf
    for _ in range(9):
        t0 = time.perf_counter()
        _probe_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times segments in wall seconds and in reference-speed seconds.

    interval: seconds between probes within a segment, or None to probe only
    before and after it.  After each segment, speed is its mean probe speed;
    probing counts every second this clock has spent probing."""

    def __init__(self, interval=None):
        self.interval = interval
        self.probing = 0.0
        self.speed = None
        self.last_probe = self._probe()

    def _probe(self):
        t0 = time.perf_counter()
        p = probe()
        self.probing += time.perf_counter() - t0
        return p

    def _sample(self, signum, frame):
        self.probes.append(self._probe())

    def time(self, fn):
        """(fn's result, wall seconds, reference-speed seconds)"""
        self.probes = [self.last_probe]
        probing = self.probing
        if self.interval:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            wall = time.perf_counter() - t0
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self.probing - probing
        self.last_probe = self._probe()
        self.probes.append(self.last_probe)
        self.speed = statistics.fmean(1 / p for p in self.probes)
        return out, wall, wall * PROBE_NOMINAL_S * self.speed
