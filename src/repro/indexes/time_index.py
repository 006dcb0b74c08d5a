"""Temporal event index: interval queries over a time-ordered event list."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StreamError
from repro.events.event import Event


@dataclass(frozen=True)
class Interval:
    """A time interval with per-edge inclusiveness.

    The negation operator's non-occurrence intervals are open at positive
    event timestamps and closed at window edges; this type makes those
    choices explicit.
    """

    low: float = -math.inf
    high: float = math.inf
    low_inclusive: bool = True
    high_inclusive: bool = True

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(
                f"interval low {self.low} exceeds high {self.high}")

    def contains(self, timestamp: float) -> bool:
        if timestamp < self.low or timestamp > self.high:
            return False
        if timestamp == self.low and not self.low_inclusive:
            return False
        if timestamp == self.high and not self.high_inclusive:
            return False
        return True


class TimeIndex:
    """Events appended in time order, queryable by interval.

    Supports the access paths the engine needs: *range* (all events in an
    interval), *exists* (any event in an interval), and *prune* (drop
    events older than a horizon).  Appends must be non-decreasing in
    timestamp.
    """

    __slots__ = ("_timestamps", "_events")

    def __init__(self) -> None:
        self._timestamps: list[float] = []
        self._events: list[Event] = []

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    @property
    def earliest(self) -> float | None:
        return self._timestamps[0] if self._timestamps else None

    @property
    def latest(self) -> float | None:
        return self._timestamps[-1] if self._timestamps else None

    def append(self, event: Event) -> None:
        if self._timestamps and event.timestamp < self._timestamps[-1]:
            raise StreamError(
                f"TimeIndex append out of order: {event.timestamp} after "
                f"{self._timestamps[-1]}")
        self._timestamps.append(event.timestamp)
        self._events.append(event)

    def _bounds(self, interval: Interval) -> tuple[int, int]:
        return self._slice(interval.low, interval.high,
                           interval.low_inclusive, interval.high_inclusive)

    def _slice(self, low: float, high: float, low_inclusive: bool,
               high_inclusive: bool) -> tuple[int, int]:
        timestamps = self._timestamps
        start = (bisect.bisect_left(timestamps, low) if low_inclusive
                 else bisect.bisect_right(timestamps, low))
        stop = (bisect.bisect_right(timestamps, high) if high_inclusive
                else bisect.bisect_left(timestamps, high))
        return start, stop

    def range(self, interval: Interval) -> list[Event]:
        """All events whose timestamp lies in *interval*."""
        start, stop = self._bounds(interval)
        return self._events[start:stop]

    def exists(self, interval: Interval) -> bool:
        """True when at least one event lies in *interval*."""
        start, stop = self._bounds(interval)
        return start < stop

    def exists_between(self, low: float, high: float, low_inclusive: bool,
                       high_inclusive: bool) -> bool:
        """:meth:`exists` for the interval with these edges, without
        building an :class:`Interval` (the negation operator's probe)."""
        start, stop = self._slice(low, high, low_inclusive, high_inclusive)
        return start < stop

    def count(self, interval: Interval) -> int:
        start, stop = self._bounds(interval)
        return max(0, stop - start)

    def prune_before(self, horizon: float) -> int:
        """Drop events with ``timestamp < horizon``; returns the count."""
        cut = bisect.bisect_left(self._timestamps, horizon)
        if cut > 0:
            del self._timestamps[:cut]
            del self._events[:cut]
        return cut
