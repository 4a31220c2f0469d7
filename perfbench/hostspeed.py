"""Host-speed calibration interleaved with the measured work.

The hosts this benchmark runs on change speed by up to ~1.7x for
seconds to minutes at a time: a fixed pure-Python loop that usually
takes 114 ms drops to 65 ms in bursts, and ``process_time`` moves with
wall time, so the drift is the processor's, not the scheduler's.  On
identical work (same seed, same ops) raw throughput then differed by
18% between three back-to-back runs.

:class:`HostSpeed` times a short fixed loop at most every ``interval``
seconds, at the boundaries of the work (between ops, between stream
ticks, between set-ups), never inside a timed interval.  A timed
interval is reported *at the reference speed*, using the samples taken
during it and the nearest one on either side::

    reported = measured * REFERENCE_MS / mean(samples around it)

so an op that ran while the loop took 10% longer than the reference
reports a time 10% shorter than it measured.  On the same three runs the
throughput spread fell from 18% to 4%.  A phase that slows the program
far more than the loop (seen once for ~3 minutes: 1.7x against 7%) is
not corrected.  The raw figures are printed on a ``#`` line before the
result.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

#: Iterations of the calibration loop (about 5 ms on a 2-vCPU VM).
LOOP = 50_000
#: The loop's time, in ms, on the reference host that reported figures
#: are scaled to.  Fixed: changing it rescales every time metric.
REFERENCE_MS = 5.0


def loop_ms() -> float:
    """Milliseconds of one fixed pure-Python loop."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


class HostSpeed:
    """Samples the calibration loop at most once per ``interval`` seconds."""

    def __init__(self, interval: float = 0.25) -> None:
        self.interval = interval
        #: Loop times in ms, and the ``perf_counter`` at which each ended.
        self.samples: List[float] = []
        self.times: List[float] = []

    def sample(self) -> float:
        """Take one sample now; returns the seconds it took."""
        started = time.perf_counter()
        self.samples.append(loop_ms())
        self.times.append(time.perf_counter())
        return self.times[-1] - started

    def poll(self) -> float:
        """Sample if ``interval`` has passed; returns the seconds spent."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.interval:
            return self.sample()
        return 0.0

    def median_ms(self) -> float:
        return statistics.median(self.samples)

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured over ``[start, end]`` by this to get
        it at reference speed: the samples inside the interval and the
        nearest one before and after it."""
        lo = max(0, bisect.bisect_right(self.times, start) - 1)
        hi = bisect.bisect_left(self.times, end) + 1
        return REFERENCE_MS / statistics.fmean(self.samples[lo:hi])

    def scaled(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)
