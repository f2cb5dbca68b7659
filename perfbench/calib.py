"""Speed sampling: how fast this interpreter runs while a command runs.

The sandbox this benchmark was tuned on changes speed by up to 1.7x from
one second to the next (a fixed pure-Python loop took 0.22-0.42 s, with no
steal time and CPU time equal to wall time), which no number of repeats
inside a 20 s run averages away.  So while the worker runs, a SIGPROF timer
times a short fixed slice every ``INTERVAL_S`` of CPU time, and each
measured interval is scaled by ``NOMINAL_S / mean slice time`` over that
interval: the result is in seconds at the speed at which the slice takes
``NOMINAL_S``.  The time spent in the slice is subtracted first.

The slice is stdlib-only (tuple-keyed dict lookups and Fraction
comparisons, as in latgames' scans) and imports nothing from ``src/``, so a
change to latgames cannot move it.
"""
from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01
# Typical slice time on the tuning machine (2 vCPUs, Python 3.11.7), so that
# scaled times read close to raw seconds there.
NOMINAL_S = 1.5e-4
# An interval with fewer samples than this is scaled by the latest ones.
MIN_SAMPLES = 10

_KEYS = [(f"c{i:02d}", f"c{j:02d}") for i in range(12) for j in range(10)]
_VALUES = {k: Fraction(7 * n % 23 - 11, 1 + n % 6) for n, k in enumerate(_KEYS)}


def _slice() -> int:
    hits = 0
    for a, b in zip(_KEYS, _KEYS[1:]):
        if _VALUES[a] <= _VALUES[b]:
            hits += 1
    return hits


class SpeedSampler:
    """Collects slice timings from a SIGPROF timer; one per process."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        _slice()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self):
        """Position to pass to ``scaled`` for an interval that starts now."""
        return len(self.samples), self.spent

    def scaled(self, mark, raw_s: float) -> float:
        """``raw_s``, measured from ``mark`` until now, without the time
        spent sampling and scaled to the nominal speed."""
        first, spent = mark
        window = self.samples[first:]
        if len(window) < MIN_SAMPLES:
            window = self.samples[-MIN_SAMPLES:]
        return (raw_s - (self.spent - spent)) * NOMINAL_S / statistics.fmean(window)
