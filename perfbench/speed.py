"""Times corrected for the speed the machine had while they were taken.

On the virtual machine this benchmark was tuned on, the same Python code
runs up to 1.8x slower in phases that last from seconds to tens of
seconds (README.md, Noise), so a 30-second run can fall wholly in a slow
phase and no statistic of its raw times is steady from run to run.  A
`Speedometer` therefore samples the machine's speed while the passes run:
a timer signal interrupts the process every PERIOD_S and times one run
of `reference()`, a fixed piece of Python that builds hashed containers
and fractions like the workbench does.  No thread or process is started;
the handler runs in the main thread between bytecodes.

`raw(a, b)` is the time from `a` to `b` without the samples taken in it.
`factor(a, b)` is REF_SECONDS over the harmonic mean of the samples taken
within WINDOW_S of the interval, i.e. the machine's average speed over
the interval relative to one that runs `reference()` in REF_SECONDS.
`normalized(a, b)` is `raw(a, b) * factor(a, b)`.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.025
WINDOW_S = 0.25
# the time of reference() in the fast phase of the tuning VM (2.1 GHz
# Xeon, Python 3.11), so that normalized times read close to raw ones there
REF_SECONDS = 0.0005


def reference():
    d = {}
    for i in range(150):
        k = frozenset({(i % 7, i % 11), (i % 5,)})
        d[k] = d.get(k, Fraction(0)) + Fraction(1, 1 + i % 9)
    return d


class Speedometer:
    """Samples the time of `reference()` every PERIOD_S while entered."""

    def __init__(self):
        self.starts, self.durations = [], []

    def _sample(self, signum, frame):
        t0 = perf_counter()
        reference()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, a, b):
        return slice(bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b))

    def raw(self, a, b):
        """Seconds from `a` to `b`, without the samples taken in between."""
        return b - a - sum(self.durations[self._between(a, b)])

    def factor(self, a, b):
        nearby = self.durations[self._between(a - WINDOW_S, b + WINDOW_S)]
        if not nearby:  # no sample that close: take the next one
            i = min(bisect.bisect_left(self.starts, a), len(self.starts) - 1)
            nearby = self.durations[i : i + 1]
        return REF_SECONDS / statistics.harmonic_mean(nearby)

    def normalized(self, a, b):
        return self.raw(a, b) * self.factor(a, b)
