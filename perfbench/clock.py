"""
Timing that cancels the host's swings in CPU speed.

On the shared 2-vCPU VM the benchmark was built on (Intel Xeon at 2.0 GHz),
the host slows this process's CPU down by up to 2x for stretches of 1 to 30
seconds. That alone moved a run's median query time by 40%.

SpeedClock keeps a timed interval's time off the CPU (sleeps, waiting on a
source) as measured, and scales its CPU time by REFERENCE_S / g, where g is
the time a fixed pure-Python routine (the gauge) took right before and right
after the interval, and REFERENCE_S the gauge's time on that machine when
undisturbed. The gauge does not call linkquery, so a faster or slower engine
shows in full. With the process pinned to one CPU, CPU time plus time off the
CPU is the wall time.
"""
from __future__ import annotations

import random
from time import perf_counter, process_time
from typing import Tuple

# Gauge time on the reference machine, undisturbed (5th percentile of 4000).
REFERENCE_S = 0.00190


class SpeedClock:
    def __init__(self):
        rng = random.Random(0)
        self._keys = ["https://h%d.example/p%d#me" % (rng.randrange(50), i) for i in range(3000)]
        self._gauge_before = self.gauge()
        self._wall = self._cpu = 0.0

    def gauge(self) -> float:
        """Seconds for a fixed amount of string, dict, set and sort work."""
        start = perf_counter()
        rows = []
        groups = {}
        for key in self._keys:
            doc, _, fragment = key.partition("#")
            rows.append((doc, fragment, len(key)))
            groups.setdefault(doc, set()).add(fragment)
        rows.sort()
        return perf_counter() - start

    def start(self) -> None:
        self._wall, self._cpu = perf_counter(), process_time()

    def stop(self) -> Tuple[float, float]:
        """(scaled seconds, wall seconds) since start()."""
        wall = perf_counter() - self._wall
        cpu = process_time() - self._cpu
        gauge_after = self.gauge()
        factor = REFERENCE_S / ((self._gauge_before + gauge_after) / 2)
        self._gauge_before = gauge_after
        return max(wall - cpu, 0.0) + cpu * factor, wall
