"""Outside-in span recording.

The benchmark wraps public methods on the instances it built; each call
records one span: its name, start, end, the enclosing span, the input
unit being processed, and item counts in and out.  Spans stay in
parallel arrays in memory and are written out once the run ends.

A layer's self time is its spans' durations minus the time their child
spans cover.  All spans are recorded on the calling thread, so children
nest strictly inside their parent and "covered" is the sum of the
children's durations.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Any, Callable

Counter = Callable[[tuple, Any], int]


class SpanRecorder:
    """Spans in parallel arrays; ``unit`` is stamped on each new span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.units = array("q")
        self.items_in = array("q")
        self.items_out = array("q")
        self.unit = -1
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, items_in: int = 0) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.units.append(self.unit)
        self.items_in.append(items_in)
        self.items_out.append(0)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(self.clock())
        return index

    def set_unit(self, unit: int) -> None:
        self.unit = unit

    def end(self, index: int, items_out: int = 0) -> None:
        self.ends[index] = self.clock()
        self.items_out[index] = items_out
        self._open.pop()

    def wrap(self, owner: Any, attribute: str, name: str,
             count_in: Counter | None = None,
             count_out: Callable[[Any], int] | None = None) -> None:
        """Replace ``owner.attribute`` (on the instance) by a wrapper
        that records one *name* span per call."""
        inner = getattr(owner, attribute)
        begin, end = self.begin, self.end

        def recorded(*args, **kwargs):
            index = begin(name, count_in(args, kwargs) if count_in else 0)
            out = None
            try:
                out = inner(*args, **kwargs)
                return out
            finally:
                end(index, count_out(out) if count_out and out is not None
                    else 0)

        setattr(owner, attribute, recorded)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for index, name in enumerate(self.names):
                handle.write(json.dumps(
                    [index, name, self.starts[index], self.ends[index],
                     self.parents[index], self.units[index],
                     self.items_in[index], self.items_out[index]]))
                handle.write("\n")


class LayerTotals:
    """Per span name: calls, self time, items in and out; and the time
    the top-level spans cover."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.items_in: dict[str, int] = {}
        self.items_out: dict[str, int] = {}
        self.top_level_s = 0.0


def totals(recorder: SpanRecorder,
           outermost_only: Callable[[str], str | None] = lambda name: None) \
        -> LayerTotals:
    """Aggregate the recorder's spans by name.

    Item counts of a span whose parent belongs to the same family
    (``outermost_only(name)`` returns the family, or None) are not added,
    so an item entering a layer through nested calls is counted once.
    """
    count = len(recorder)
    covered = [0.0] * count
    names, starts, ends, parents = (recorder.names, recorder.starts,
                                    recorder.ends, recorder.parents)
    for index in range(count):
        parent = parents[index]
        if parent >= 0:
            covered[parent] += ends[index] - starts[index]
    result = LayerTotals()
    for index in range(count):
        name = names[index]
        duration = ends[index] - starts[index]
        result.calls[name] = result.calls.get(name, 0) + 1
        result.self_s[name] = result.self_s.get(name, 0.0) \
            + duration - covered[index]
        parent = parents[index]
        if parent < 0:
            result.top_level_s += duration
        family = outermost_only(name)
        if family is not None and parent >= 0 \
                and outermost_only(names[parent]) == family:
            continue
        result.items_in[name] = result.items_in.get(name, 0) \
            + recorder.items_in[index]
        result.items_out[name] = result.items_out.get(name, 0) \
            + recorder.items_out[index]
    return result
