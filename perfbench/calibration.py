"""Host-speed calibration.

The benchmark host's speed drifts: on a shared two-core machine the same
pass ran anywhere between 250k and 430k events/s within one minute.
A fixed slice of pure-Python work, timed in the gaps between ingest calls
throughout every pass, tracks that drift, and the benchmark reports its
computing-time metrics (throughput, set-up time) scaled to a reference
speed: a value is what the pass would have measured on a host where the
slice takes :data:`REFERENCE_SLICE_S`.  The raw values are kept in the
run record.

The slice allocates no objects the garbage collector tracks, so it never
triggers (and absorbs) a collection of the program's garbage.
"""

from __future__ import annotations

import statistics
import time
from array import array
from typing import Callable

SLICE_ITERATIONS = 2000
#: Median slice time on the host the benchmark was defined on (two cores,
#: Python 3.11) when it ran at its fastest.
REFERENCE_SLICE_S = 0.25e-3
#: Shortest gap between two slices.
SLICE_EVERY_S = 0.02


def _slice(table: list[int]) -> int:
    total = 0
    for index in range(SLICE_ITERATIONS):
        slot = (index * 7) & 255
        value = table[slot]
        table[slot] = value ^ index
        total += value & 15
    return total


class Calibrator:
    """Times calibration slices and turns them into a speed factor."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 work: Callable[[], object] | None = None):
        self.clock = clock
        table = list(range(256))
        self._work = work or (lambda: _slice(table))
        self.slices = array("d")
        self._last = float("-inf")

    def due(self, now: float) -> bool:
        return now - self._last >= SLICE_EVERY_S

    def run(self) -> float:
        """Time one slice; returns the clock after it."""
        started = self.clock()
        self._work()
        self._last = self.clock()
        self.slices.append(self._last - started)
        return self._last

    def speed(self) -> float:
        """Host speed relative to the reference (0.5: half as fast)."""
        if not self.slices:
            return 1.0
        return REFERENCE_SLICE_S / statistics.median(self.slices)
