"""Host speed, sampled alongside the work it normalises.

On a shared VM the vCPU a benchmark runs on swaps between a fast and a slow
state (about 1.6x apart) for stretches of a second to minutes, while other
tenants' load comes and goes.  Plain wall times then drift by tens of
percent between runs of the same code.  :class:`HostSpeed` measures that
drift where it happens: it pins the process to one CPU and, on a background
thread, times a fixed pure-Python loop every :data:`PERIOD_S`.  Each sample
is the best of three back-to-back runs of the loop, so the loop's own cold
caches drop out and what remains is how fast this CPU runs Python right now.

A sample's *speed* is ``REFERENCE_S / sample``: 1.0 on a host where the
loop takes :data:`REFERENCE_S`, higher on a faster one.  The mean speed
over an interval turns the interval's wall time into *reference seconds*
(``wall * mean speed``), the time the same work would take on the
reference host.  Samples are taken at a steady rate, so their mean speed
is the interval's time-averaged speed.  The sampler costs about 0.4% of the
interval it covers.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List, Tuple

#: Seconds between samples.
PERIOD_S = 0.02
#: The loop's time on the reference host (a 2-vCPU Intel Xeon KVM guest,
#: CPython 3.11, in its fast state).
REFERENCE_S = 50e-6


def _loop() -> int:
    table = {}
    total = 0
    for i in range(400):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


class HostSpeed:
    """Pin this process to one CPU and sample that CPU's speed until stopped."""

    def __init__(self) -> None:
        # Linux applies the mask to the calling thread; the sampler thread
        # inherits it, so both share the CPU the work runs on.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            self.sample()
            if self._stop.wait(PERIOD_S):
                return

    def sample(self) -> None:
        """Record one sample: (when taken, best of three loop times)."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append((time.perf_counter(), best))

    def speed(self, since: float) -> float:
        """Mean speed from ``time.perf_counter()`` value *since* until now.

        Takes one more sample first, so the interval always has one.
        """
        self.sample()
        return statistics.fmean(
            REFERENCE_S / s for t, s in list(self.samples) if t >= since
        )

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
