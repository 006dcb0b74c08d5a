"""Driving one pass of input units through an ingest call.

A pass is either unpaced (each unit is sent as soon as the previous call
returns, for throughput) or paced open-loop: unit ``k`` is *due* when its
last item has arrived at the offered rate, and the generator sends it
then, or at once when it is already late.  A result's latency runs from
the due time of the unit that carried its last contributing event to the
return of the call that delivered it, so a stall is charged to every
unit queued behind it, not only to the slow call itself.

The clock and the sleep are parameters, so the accounting can be tested
with a fake clock.
"""

from __future__ import annotations

import bisect
import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from calibration import Calibrator

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: A paced generator takes a calibration slice only with this much time
#: to spare before the next due time.
SLICE_ROOM_S = 0.002


def due_times(sizes: Sequence[int], rate: float, start: float) -> list[float]:
    """Due time of each unit: *start* plus the time the items after the
    first unit take to arrive at *rate* items per second.  Unit 0 is due
    at *start* (it is sent during set-up)."""
    due = []
    arrived = 0
    for index, size in enumerate(sizes):
        if index:
            arrived += size
        due.append(start + arrived / rate)
    return due


def tail_percentile(count: int, wanted: float) -> float | None:
    """*wanted*, or the highest percentile below it that still leaves
    :data:`MIN_BEYOND` of *count* samples beyond it; None when even that
    is impossible."""
    if count <= MIN_BEYOND:
        return None
    if count - _rank(count, wanted) >= MIN_BEYOND:
        return wanted
    return 100.0 * (count - MIN_BEYOND) / count


def _rank(count: int, pct: float) -> int:
    """1-based nearest rank; rounding first keeps a percentile computed
    as ``100 * rank / count`` on its own rank."""
    return max(1, math.ceil(round(pct / 100.0 * count, 9)))


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[_rank(len(ordered), pct) - 1]


def latency_summary(samples: Sequence[float],
                    wanted: Sequence[float] = (50.0, 99.0)) \
        -> dict[float, tuple[float, float] | None]:
    """``{wanted: (reported percentile, value)}`` under the
    ten-beyond rule (None when there are too few samples)."""
    ordered = sorted(samples)
    summary: dict[float, tuple[float, float] | None] = {}
    for pct in wanted:
        used = tail_percentile(len(ordered), pct)
        summary[pct] = None if used is None \
            else (used, percentile(ordered, used))
    return summary


@dataclass
class PassStats:
    """What one pass did.  Times are seconds."""

    items: int = 0            # items sent after set-up
    calls: int = 0            # ingest calls after set-up, and finish
    failed: int = 0           # calls that raised or delivered incomplete
    busy_s: float = 0.0       # time inside ingest and finish calls
    latencies: array = field(default_factory=lambda: array("d"))
    # The part of each latency the generator spent inside calls; the
    # rest it spent waiting for units to fall due.
    latency_busy: array = field(default_factory=lambda: array("d"))
    late: array = field(default_factory=lambda: array("d"))
    backlog_max: int = 0

    def scaled_latencies(self, speed: float) -> list[float]:
        """Latencies with their time inside calls scaled by *speed* (see
        :mod:`calibration`); waiting for due times is wall-clock time
        and stays as measured."""
        return [latency - busy + busy * speed for latency, busy
                in zip(self.latencies, self.latency_busy)]

    @property
    def throughput(self) -> float:
        return self.items / self.busy_s if self.busy_s > 0 else 0.0


Pairs = list  # list[tuple[str, CompositeEvent]]


def drive(payloads: Sequence[Any], sizes: Sequence[int],
          ingest: Callable[[Any], Pairs], finish: Callable[[], Pairs],
          consume: Callable[[Pairs], bool],
          locate: Callable[[Any, int], int] | None = None,
          rate: float | None = None, start: float | None = None,
          clock: Callable[[], float] = time.perf_counter,
          sleep: Callable[[float], None] = time.sleep,
          on_unit: Callable[[int], None] | None = None,
          calibrator: Calibrator | None = None) -> PassStats:
    """Send units ``1..n-1`` (unit 0 went in during set-up) and then call
    *finish*.

    *consume* takes each call's results and returns False when one is
    unacceptable (the call then counts as failed).  With a *rate*, the
    pass is paced from *start* (the return of the set-up call) and
    records one latency sample per result; *locate* maps a result and
    the index of the delivering call to the unit whose due time it is
    measured from (default: the delivering call's own unit).

    A *calibrator* gets a slice whenever one is due and the generator has
    time to spare: after a call when unpaced, in the wait before a due
    time when paced.  Slices are never counted as busy time.
    """
    stats = PassStats()
    due = due_times(sizes, rate, start) if rate is not None else None
    calls = _Calls()
    for index in range(1, len(payloads)):
        if due is not None:
            now = clock()
            wait = due[index] - now
            if calibrator is not None and wait > SLICE_ROOM_S \
                    and calibrator.due(now):
                now = calibrator.run()
                wait = due[index] - now
            if wait > 0:
                sleep(wait)
                now = clock()
            stats.late.append(max(0.0, now - due[index]))
            waiting = bisect.bisect_right(due, now) - index - 1
            if waiting > stats.backlog_max:
                stats.backlog_max = waiting
        if on_unit is not None:
            on_unit(index)
        sent = clock()
        try:
            pairs = ingest(payloads[index])
        except Exception:   # a failed call misses every latency limit
            returned = clock()
            calls.add(sent, returned)
            stats.failed += 1
            if due is not None:
                stats.latencies.append(math.inf)
                stats.latency_busy.append(0.0)
        else:
            returned = clock()
            calls.add(sent, returned)
            if not consume(pairs):
                stats.failed += 1
            if due is not None:
                _record(stats, due, pairs, index, returned, locate, calls)
        stats.busy_s += returned - sent
        stats.calls += 1
        stats.items += sizes[index]
        if due is None and calibrator is not None \
                and calibrator.due(returned):
            calibrator.run()
    if on_unit is not None:
        on_unit(len(payloads))
    sent = clock()
    try:
        pairs = finish()
    except Exception:
        returned = clock()
        stats.failed += 1
        if due is not None:
            stats.latencies.append(math.inf)
            stats.latency_busy.append(0.0)
    else:
        returned = clock()
        calls.add(sent, returned)
        if not consume(pairs):
            stats.failed += 1
        if due is not None:
            _record(stats, due, pairs, len(payloads) - 1, returned, locate,
                    calls)
    stats.busy_s += returned - sent
    stats.calls += 1
    return stats


class _Calls:
    """The intervals the generator spent inside calls, for splitting a
    latency into time inside calls and time waiting."""

    def __init__(self) -> None:
        self.sends = array("d")
        self.returns = array("d")
        self.busy_before = array("d")
        self.busy = 0.0

    def add(self, sent: float, returned: float) -> None:
        self.sends.append(sent)
        self.returns.append(returned)
        self.busy_before.append(self.busy)
        self.busy += returned - sent

    def busy_until(self, moment: float) -> float:
        """Time spent inside calls before *moment*."""
        index = bisect.bisect_right(self.sends, moment) - 1
        if index < 0:
            return 0.0
        inside = min(moment, self.returns[index]) - self.sends[index]
        return self.busy_before[index] + inside


def _record(stats: PassStats, due: list[float], pairs: Pairs, index: int,
            returned: float, locate: Callable[[Any, int], int] | None,
            calls: _Calls) -> None:
    latencies, busy = stats.latencies, stats.latency_busy
    if locate is None:
        latency = returned - due[index]
        inside = calls.busy - calls.busy_until(due[index])
        for _ in pairs:
            latencies.append(latency)
            busy.append(inside)
        return
    for pair in pairs:
        unit = locate(pair[1], index)
        latencies.append(returned - due[unit])
        busy.append(calls.busy - calls.busy_until(due[unit]))
