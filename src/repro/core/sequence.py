"""Sequence scan (SS) and sequence construction (SC): the native sequence
operators at the bottom of every SASE plan.

The scan drives the pattern NFA over the stream, materialising accepted
events into active instance stacks (:mod:`repro.core.instances`); when an
event completes the pattern, construction walks the stacks backwards along
RIP pointers and emits every event sequence ending at that event.

Two published optimizations are implemented here and toggled by the plan
configuration:

* **window pushdown** — the WITHIN window prunes stack fronts during the
  scan and bounds the backward walk during construction, so sequences that
  could only violate the window are never built;
* **PAIS (partitioned active instance stacks)** — when the WHERE clause
  contains an equality equivalence class covering every positive component,
  events are hashed into per-value partitions and sequences are constructed
  within a partition only, so the implied equality predicates never see a
  false candidate.

Single-variable WHERE predicates are additionally evaluated at push time
(filter pushdown), so non-qualifying events never enter a stack.
"""

from __future__ import annotations

import bisect
from typing import Any, Callable

from repro.core.expressions import EvalContext, compile_predicate
from repro.core.instances import Instance, StackGroup
from repro.core.match import Binding, Match
from repro.core.stats import PlanStats
from repro.lang.semantics import AnalyzedQuery
from repro.events.event import Event
from repro.obs.profile import ScanProfile

_NO_PARTITION = object()  # dict key for the single unpartitioned group


class SequenceScanConstruct:
    """The fused SS+SC operator."""

    #: True on code-generated subclasses (:mod:`repro.core.codegen`).
    compiled = False
    #: True when profiling hooks are present in the scan path.  The
    #: interpreted scan always has them (behind a None check); generated
    #: subclasses only emit them when compiled with ``profiling=True``.
    profiled = True
    #: True when the sequence-construction walk itself is generated code
    #: (non-Kleene patterns, and trailing-Kleene patterns under MAXIMAL
    #: semantics).  False here and on generated subclasses that inherit
    #: the interpreted ``_construct`` recursion.
    generated_construct = False
    #: True when ``feed_batch`` is a generated batch loop rather than the
    #: interpreted one below.
    generated_batch = False

    def __init__(self, analyzed: AnalyzedQuery, *,
                 window_pushdown: bool = True,
                 partition_pushdown: bool = True,
                 filter_pushdown: bool = True,
                 construction_pushdown: bool = False,
                 kleene_maximal: bool = True,
                 max_kleene_events: int = 10,
                 prune_interval: int = 512,
                 stats: PlanStats | None = None,
                 functions: Any = None,
                 system: Any = None):
        positives = analyzed.positives
        self._n = len(positives)
        self._variables = [component.variable for component in positives]
        self._kleene = [component.kleene for component in positives]
        self._components_by_type: dict[str, list[int]] = {}
        for index, component in enumerate(positives):
            for event_type in component.event_types:
                self._components_by_type.setdefault(
                    event_type, []).append(index)
        # Presorted descending: when one event type fills several
        # components, the later component must see the previous stack as
        # it was *before* this event is pushed there (an event cannot
        # precede itself in a sequence).
        for indexes in self._components_by_type.values():
            indexes.sort(reverse=True)

        self._window = analyzed.window if window_pushdown else None
        self._kleene_maximal = kleene_maximal
        self._max_kleene_events = max_kleene_events
        self._prune_interval = max(1, prune_interval)
        self._functions = functions
        self._system = system

        self._filters: list[list[Callable[[EvalContext], bool]]] = \
            [[] for _ in range(self._n)]
        if filter_pushdown:
            for index, variable in enumerate(self._variables):
                for info in analyzed.component_filters.get(variable, ()):
                    self._filters[index].append(
                        compile_predicate(info.expr))

        self._key_attrs: list[str] | None = None
        if partition_pushdown and analyzed.partition is not None:
            attrs = [analyzed.partition.key_attribute(variable)
                     for variable in self._variables]
            if all(attr is not None for attr in attrs):
                self._key_attrs = [attr for attr in attrs
                                   if attr is not None]

        # Construction pushdown: cross-component predicates checked during
        # the backward DFS, as soon as every variable they mention is
        # bound.  Because the walk binds components n-1 .. 0, a predicate
        # fires at the *minimum* component index among its variables.
        # Predicates over Kleene variables stay in the KleeneFilter, and
        # partition equalities are skipped when PAIS already enforces them.
        self._construction_checks: list[
            list[tuple[Callable[[EvalContext], bool],
                       list[tuple[str, int]]]]] = [[] for _ in
                                                   range(self._n)]
        self.construction_pushdown = False
        if construction_pushdown:
            position = {variable: index for index, variable
                        in enumerate(self._variables)}
            kleene_vars = {variable for index, variable
                           in enumerate(self._variables)
                           if self._kleene[index]}
            for info in analyzed.selection_predicates:
                if self._key_attrs is not None and \
                        info.is_partition_equality:
                    continue
                if info.variables & kleene_vars:
                    continue
                needed = [(variable, position[variable])
                          for variable in info.variables]
                trigger = min(index for _, index in needed)
                self._construction_checks[trigger].append(
                    (compile_predicate(info.expr), needed))
                self.construction_pushdown = True

        self._groups: dict[Any, StackGroup] = {}
        self._events_seen = 0
        self._instance_count = 0
        self._stats = stats if stats is not None else PlanStats()
        self._op_stats = self._stats.operator("SSC")
        self._profile: ScanProfile | None = None

    # -- public surface ----------------------------------------------------

    @property
    def partitioned(self) -> bool:
        return self._key_attrs is not None

    @property
    def instance_count(self) -> int:
        return self._instance_count

    @property
    def partition_count(self) -> int:
        return len(self._groups)

    @property
    def profile(self) -> ScanProfile | None:
        return self._profile

    def enable_profiling(self) -> ScanProfile:
        """Turn on per-component admit/construct counters."""
        if self._profile is None:
            self._profile = ScanProfile(self._variables)
        return self._profile

    def feed(self, event: Event) -> list[Match]:
        """Scan one event; return the matches it completes."""
        return self.feed_batch([event])

    def feed_batch(self, events: list[Event],
                   bounds: list[int] | None = None) -> list[Match]:
        """Scan a batch of events; return all matches in emission order.

        When *bounds* is given, the cumulative match count is appended
        after each event so the caller can slice the flat result list
        back into per-event chunks.  Generated subclasses replace this
        loop with a specialised one of the same contract.
        """
        matches: list[Match] = []
        op_stats = self._op_stats
        for event in events:
            op_stats.consumed += 1
            self._events_seen += 1
            component_indexes = self._components_by_type.get(event.type)
            if component_indexes:
                for index in component_indexes:  # presorted descending
                    self._admit(event, index, matches)
            if self._events_seen % self._prune_interval == 0:
                self._prune_all(event.timestamp)
            self._stats.record_stack_size(self._instance_count,
                                          len(self._groups))
            if bounds is not None:
                bounds.append(len(matches))
        op_stats.produced += len(matches)
        if self._profile is not None:
            self._profile.matches_emitted += len(matches)
        return matches

    def reset(self) -> None:
        self._groups.clear()
        self._events_seen = 0
        self._instance_count = 0

    # -- scan --------------------------------------------------------------

    def _admit(self, event: Event, index: int,
               matches: list[Match]) -> None:
        filters = self._filters[index]
        if filters:
            context = EvalContext({self._variables[index]: event},
                                  self._functions, self._system)
            for predicate in filters:
                if not predicate(context):
                    return

        key: Any = _NO_PARTITION
        if self._key_attrs is not None:
            key = event.attributes.get(self._key_attrs[index])
            if key is None:
                return

        group = self._groups.get(key)
        if group is None:
            if index != 0:
                return  # nothing to extend in this partition
            group = StackGroup(self._n)
            self._groups[key] = group
        elif self._window is not None:
            dropped = group.prune_before(event.timestamp - self._window)
            self._instance_count -= dropped

        previous = group.stacks[index - 1] if index > 0 else None
        if previous is not None:
            if len(previous) == 0:
                return
            # The earliest surviving predecessor must be strictly older.
            first = previous.get_absolute(
                previous.last_absolute_index - len(previous) + 1)
            if first.event.timestamp >= event.timestamp:
                return
            rip = previous.last_absolute_index
        else:
            rip = -1

        instance = group.stacks[index].push(event, rip)
        self._instance_count += 1
        if self._profile is not None:
            self._profile.admits[index] += 1
        if index == self._n - 1:
            self._construct(group, instance, matches)
        elif self._kleene[index]:
            # A Kleene event may extend sequences even when it lands in a
            # middle component; extension happens lazily at construction.
            pass

    def _prune_all(self, now: float) -> None:
        if self._window is None:
            return
        horizon = now - self._window
        emptied: list[Any] = []
        removed = 0
        for key, group in self._groups.items():
            alive = 0
            for stack in group.stacks:
                timestamps = stack._timestamps
                if timestamps and timestamps[0] < horizon:
                    cut = bisect.bisect_left(timestamps, horizon)
                    del stack._instances[:cut]
                    del timestamps[:cut]
                    stack._offset += cut
                    removed += cut
                alive += len(timestamps)
            if not alive:
                emptied.append(key)
        self._instance_count -= removed
        for key in emptied:
            del self._groups[key]

    # -- construction ------------------------------------------------------

    def _construct(self, group: StackGroup, trigger: Instance,
                   matches: list[Match]) -> None:
        if self._profile is not None:
            self._profile.construct_calls += 1
        end_ts = trigger.event.timestamp
        min_ts = end_ts - self._window if self._window is not None else None
        chosen: list[Binding | None] = [None] * self._n

        last = self._n - 1
        if self._kleene[last]:
            for anchor_binding, anchor in self._last_kleene_bindings(
                    group, trigger, min_ts):
                chosen[last] = anchor_binding
                if not self._passes_construction_checks(last, chosen):
                    continue
                self._descend(group, last - 1, anchor.rip,
                              anchor.event.timestamp, min_ts, chosen,
                              end_ts, matches)
        else:
            chosen[last] = trigger.event
            if not self._passes_construction_checks(last, chosen):
                return
            self._descend(group, last - 1, trigger.rip,
                          trigger.event.timestamp, min_ts, chosen,
                          end_ts, matches)

    def _descend(self, group: StackGroup, index: int, rip: int,
                 before_ts: float, min_ts: float | None,
                 chosen: list[Binding | None], end_ts: float,
                 matches: list[Match]) -> None:
        if index < 0:
            self._emit(chosen, end_ts, matches)
            return
        stack = group.stacks[index]
        for absolute in stack.candidate_range(rip, before_ts, min_ts):
            instance = stack.get_absolute(absolute)
            if self._kleene[index]:
                for binding in self._kleene_bindings(
                        stack, instance, before_ts):
                    chosen[index] = binding
                    if not self._passes_construction_checks(index,
                                                            chosen):
                        continue
                    self._descend(group, index - 1, instance.rip,
                                  instance.event.timestamp, min_ts, chosen,
                                  end_ts, matches)
            else:
                chosen[index] = instance.event
                if not self._passes_construction_checks(index, chosen):
                    continue
                self._descend(group, index - 1, instance.rip,
                              instance.event.timestamp, min_ts, chosen,
                              end_ts, matches)

    def _passes_construction_checks(self, index: int,
                                    chosen: list[Binding | None]) -> bool:
        checks = self._construction_checks[index]
        if not checks:
            return True
        for predicate, needed in checks:
            bindings = {variable: chosen[position]
                        for variable, position in needed}
            context = EvalContext(bindings, self._functions, self._system)
            if not predicate(context):
                return False
        return True

    def _emit(self, chosen: list[Binding | None], end_ts: float,
              matches: list[Match]) -> None:
        bindings: dict[str, Binding] = {}
        for variable, binding in zip(self._variables, chosen):
            assert binding is not None
            bindings[variable] = binding
        first = chosen[0]
        assert first is not None
        start_ts = first[0].timestamp if isinstance(first, tuple) \
            else first.timestamp
        matches.append(Match(bindings, start_ts, end_ts))

    # -- Kleene binding enumeration -----------------------------------------

    def _kleene_bindings(self, stack: Any, anchor: Instance,
                         before_ts: float) -> list[tuple[Event, ...]]:
        """Bindings for a middle Kleene component: the anchor instance plus
        events strictly between the anchor and the next component's event."""
        extras = [instance.event for instance in stack.instances_between(
            anchor.event.timestamp, before_ts)]
        return self._expand_kleene(anchor.event, extras)

    def _last_kleene_bindings(
            self, group: StackGroup, trigger: Instance,
            min_ts: float | None) -> list[tuple[tuple[Event, ...], Instance]]:
        """Bindings for a trailing Kleene component, all ending with the
        trigger event: ``(anchor, ..., trigger)`` for every valid anchor."""
        stack = group.stacks[self._n - 1]
        results: list[tuple[tuple[Event, ...], Instance]] = []
        # The trigger alone anchors the singleton binding.
        results.append(((trigger.event,), trigger))
        for absolute in stack.candidate_range(
                stack.last_absolute_index, trigger.event.timestamp, min_ts):
            anchor = stack.get_absolute(absolute)
            extras = [instance.event for instance in stack.instances_between(
                anchor.event.timestamp, trigger.event.timestamp)]
            if self._kleene_maximal:
                results.append((
                    (anchor.event, *extras, trigger.event), anchor))
            else:
                for subset in _subsets(extras, self._max_kleene_events):
                    results.append((
                        (anchor.event, *subset, trigger.event), anchor))
        return results

    def _expand_kleene(self, anchor: Event,
                       extras: list[Event]) -> list[tuple[Event, ...]]:
        if self._kleene_maximal:
            return [(anchor, *extras)]
        return [(anchor, *subset)
                for subset in _subsets(extras, self._max_kleene_events)]


def _subsets(events: list[Event],
             cap: int) -> list[tuple[Event, ...]]:
    """All order-preserving subsets of *events* (including the empty one),
    with the event list truncated at *cap* to bound the 2^n expansion."""
    events = events[:cap]
    subsets: list[tuple[Event, ...]] = [()]
    for event in events:
        subsets.extend(subset + (event,) for subset in list(subsets))
    return subsets
