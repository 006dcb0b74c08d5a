"""The relational-style operators a SASE plan pipes sequences through.

Sequence scan/construction emits candidate :class:`~repro.core.match.Match`
objects; these operators implement the rest of the event matching block and
the RETURN clause:

* :class:`Selection` — the WHERE clause's parameterized predicates;
* :class:`WindowFilter` — the WITHIN clause (a no-op safety net when the
  window was pushed into the scan);
* :class:`KleeneFilter` — per-event predicates over Kleene bindings;
* :class:`Negation` — non-occurrence checks against an indexed history of
  negative events, with delayed emission for trailing negation;
* :class:`Transformation` — evaluates RETURN items into composite events.
"""

from __future__ import annotations

import math
from typing import Any, Callable

from repro.core.expressions import EvalContext, compile_expr, \
    compile_predicate
from repro.core.match import Match
from repro.core.stats import PlanStats
from repro.events.event import CompositeEvent, Event
from repro.indexes import Interval, PartitionedTimeIndex, TimeIndex
from repro.lang.ast import AttributeRef, FunctionCall
from repro.lang.semantics import AnalyzedQuery, PredicateInfo


class Selection:
    """Filter matches by the parameterized (multi-variable) predicates.

    Predicates implied by an enforced partition scheme are skipped (the
    partitioned scan already guarantees them); the plan builder passes
    ``skip_partition_equalities`` accordingly.
    """

    def __init__(self, analyzed: AnalyzedQuery, *,
                 skip_partition_equalities: bool,
                 include_component_filters: bool = False,
                 include_cross_predicates: bool = True,
                 stats: PlanStats | None = None,
                 functions: Any = None, system: Any = None):
        predicates: list[PredicateInfo] = []
        if include_cross_predicates:
            for info in analyzed.selection_predicates:
                if skip_partition_equalities and \
                        info.is_partition_equality:
                    continue
                predicates.append(info)
        if include_component_filters:
            for infos in analyzed.component_filters.values():
                predicates.extend(infos)
        self._predicates = [compile_predicate(info.expr)
                            for info in predicates]
        self.predicate_count = len(self._predicates)
        self._functions = functions
        self._system = system
        self._stats = (stats or PlanStats()).operator("SL")

    def process(self, match: Match) -> Match | None:
        self._stats.consumed += 1
        if self._predicates:
            context = EvalContext(match.bindings, self._functions,
                                  self._system)
            for predicate in self._predicates:
                if not predicate(context):
                    return None
        self._stats.produced += 1
        return match


class WindowFilter:
    """Enforce ``end - start <= window``."""

    def __init__(self, window: float, stats: PlanStats | None = None):
        self._window = window
        self._stats = (stats or PlanStats()).operator("WD")

    def process(self, match: Match) -> Match | None:
        self._stats.consumed += 1
        if match.span > self._window:
            return None
        self._stats.produced += 1
        return match


class KleeneFilter:
    """Apply per-event WHERE predicates over Kleene bindings.

    A predicate like ``d.Price > a.Price`` (``d`` Kleene) must hold for the
    events bound to ``d``.  In maximal mode the binding is *trimmed* to the
    qualifying events (the binding is defined as "the qualifying events in
    the interval"); a binding left empty drops the match.  In subset mode a
    failing event drops the whole match — the subset without it is
    enumerated separately, so trimming would create duplicates.
    """

    def __init__(self, analyzed: AnalyzedQuery, *, maximal_mode: bool,
                 stats: PlanStats | None = None,
                 functions: Any = None, system: Any = None):
        self._per_var: dict[str, list[Callable[[EvalContext], bool]]] = {}
        for variable, infos in analyzed.kleene_predicates.items():
            if infos:
                self._per_var[variable] = [compile_predicate(info.expr)
                                           for info in infos]
        self._maximal = maximal_mode
        self._functions = functions
        self._system = system
        self._stats = (stats or PlanStats()).operator("KF")

    @property
    def is_trivial(self) -> bool:
        return not self._per_var

    def process(self, match: Match) -> Match | None:
        self._stats.consumed += 1
        current = match
        for variable, predicates in self._per_var.items():
            binding = current.bindings[variable]
            assert isinstance(binding, tuple)
            kept: list[Event] = []
            for event in binding:
                context = EvalContext(
                    current.bindings, self._functions,
                    self._system).rebind(variable, event)
                if all(predicate(context) for predicate in predicates):
                    kept.append(event)
            if len(kept) == len(binding):
                continue
            if not self._maximal or not kept:
                return None
            current = current.replace_binding(variable, tuple(kept))
        self._stats.produced += 1
        return current


# How many observed negative events between history prunes.
_NEG_PRUNE_INTERVAL = 512


class _NegationCheck:
    """Everything needed to check one negated component.

    The negative-event history is a temporal index (partitioned by the
    equality-class key when one is available), per the paper's "indexing
    relevant events both in temporal order and across value-based
    partitions".
    """

    __slots__ = ("variable", "event_types", "prev_index", "next_index",
                 "low_var", "high_var", "low_inclusive", "high_inclusive",
                 "local_filters", "cross_predicates", "key_attr", "history")

    def __init__(self, variable: str, event_types: tuple[str, ...],
                 prev_index: int, next_index: int,
                 positives: tuple[str, ...],
                 local_filters: list[Callable[[EvalContext], bool]],
                 cross_predicates: list[Callable[[EvalContext], bool]],
                 key_attr: str | None):
        self.variable = variable
        self.event_types = event_types
        self.prev_index = prev_index
        self.next_index = next_index
        # The interval's edges: the neighbouring positive variables (None
        # at a window edge).  Open at positive events, closed at window
        # edges.
        self.low_var = positives[prev_index] if prev_index >= 0 else None
        self.high_var = positives[next_index] \
            if next_index < len(positives) else None
        self.low_inclusive = self.low_var is None
        self.high_inclusive = self.high_var is None
        self.local_filters = local_filters
        self.cross_predicates = cross_predicates
        self.key_attr = key_attr
        self.history: TimeIndex | PartitionedTimeIndex
        if key_attr is not None:
            self.history = PartitionedTimeIndex(key_attr)
        else:
            self.history = TimeIndex()


class Negation:
    """The negation operator.

    Maintains a time-ordered history of candidate negative events per
    negated component (partitioned by the equality-class key when one is
    available).  Middle and leading negation are decided the moment a match
    arrives — every event that could violate them has already been seen.
    Trailing negation buffers the match until the stream time passes
    ``start + window`` (its non-occurrence interval closes), then decides.
    """

    def __init__(self, analyzed: AnalyzedQuery, *,
                 use_partition_index: bool,
                 stats: PlanStats | None = None,
                 functions: Any = None, system: Any = None):
        self._functions = functions
        self._system = system
        self._window = analyzed.window
        self._positives = analyzed.positives
        self._stats = (stats or PlanStats()).operator("NG")
        self._checks: list[_NegationCheck] = []
        self._pending: list[tuple[float, Match]] = []  # (deadline, match)
        self._watermark = -math.inf
        self._observed_since_prune = 0

        partition = analyzed.partition if use_partition_index else None
        positive_vars = tuple(component.variable
                              for component in analyzed.positives)
        for component, prev_index, next_index in analyzed.negation_layout():
            local: list[Callable[[EvalContext], bool]] = []
            cross: list[Callable[[EvalContext], bool]] = []
            for info in analyzed.negation_predicates[component.variable]:
                if partition is not None and info.is_partition_equality:
                    continue  # enforced by the partitioned history index
                compiled = compile_predicate(info.expr)
                if info.variables == {component.variable}:
                    local.append(compiled)
                else:
                    cross.append(compiled)
            key_attr = None
            if partition is not None:
                key_attr = partition.key_attribute(component.variable)
            self._checks.append(_NegationCheck(
                component.variable, component.event_types,
                prev_index, next_index, positive_vars, local, cross,
                key_attr))
        self._types = {event_type for check in self._checks
                       for event_type in check.event_types}
        # the partition attribute of some positive variable, used to compute
        # a match's key when looking up a partitioned history
        self._match_key_var: str | None = None
        self._match_key_attr: str | None = None
        if partition is not None:
            for component in analyzed.positives:
                attr = partition.key_attribute(component.variable)
                if attr is not None:
                    self._match_key_var = component.variable
                    self._match_key_attr = attr
                    break

    @property
    def has_trailing(self) -> bool:
        return any(check.next_index == len(self._positives)
                   for check in self._checks)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- stream side ---------------------------------------------------------

    def observe(self, event: Event) -> None:
        """Record a stream event into the negative-event histories."""
        if event.type not in self._types:
            return
        for check in self._checks:
            if event.type not in check.event_types:
                continue
            if check.local_filters:
                context = EvalContext({check.variable: event},
                                      self._functions, self._system)
                if not all(predicate(context)
                           for predicate in check.local_filters):
                    continue
            check.history.append(event)
        self._observed_since_prune += 1
        if self._window is not None and \
                self._observed_since_prune >= _NEG_PRUNE_INTERVAL:
            self._observed_since_prune = 0
            # A candidate interval never reaches below end - 2W (leading
            # negation looks back W from the match end; pending trailing
            # matches look forward from ends at least W ago).
            horizon = event.timestamp - 2 * self._window
            for check in self._checks:
                check.history.prune_before(horizon)

    def advance(self, watermark: float) -> list[Match]:
        """Move stream time forward; release trailing-negation matches
        whose interval has fully closed."""
        self._watermark = watermark
        if not self._pending:
            return []
        released: list[Match] = []
        remaining: list[tuple[float, Match]] = []
        for deadline, match in self._pending:
            if watermark > deadline:
                if self._passes_trailing(match):
                    released.append(match)
                    self._stats.produced += 1
            else:
                remaining.append((deadline, match))
        self._pending = remaining
        return released

    def flush(self) -> list[Match]:
        """End of stream: every still-pending match's interval can no longer
        receive events, so decide all of them now."""
        released = [match for _, match in self._pending
                    if self._passes_trailing(match)]
        self._stats.produced += len(released)
        self._pending.clear()
        return released

    # -- match side ----------------------------------------------------------

    def process(self, match: Match) -> Match | None:
        """Check a candidate match.  Returns the match when it passes every
        immediately-decidable negation; returns None when it is rejected
        *or buffered* (buffered matches come back through ``advance`` /
        ``flush``)."""
        self._stats.consumed += 1
        deadline: float | None = None
        for check in self._checks:
            if check.next_index == len(self._positives):
                this_deadline = (match.start + self._window
                                 if self._window is not None else math.inf)
                if self._watermark > this_deadline:
                    if self._violated(check, match):
                        return None
                else:
                    deadline = this_deadline if deadline is None \
                        else max(deadline, this_deadline)
            elif self._violated(check, match):
                return None
        if deadline is not None:
            self._pending.append((deadline, match))
            return None
        self._stats.produced += 1
        return match

    def _passes_trailing(self, match: Match) -> bool:
        for check in self._checks:
            if check.next_index == len(self._positives) and \
                    self._violated(check, match):
                return False
        return True

    def _violated(self, check: _NegationCheck, match: Match) -> bool:
        history = self._history_for(check, match)
        if history is None:
            return False
        low, high = self._bounds(check, match)
        if not check.cross_predicates:
            return history.exists_between(low, high, check.low_inclusive,
                                          check.high_inclusive)
        interval = Interval(low, high, check.low_inclusive,
                            check.high_inclusive)
        base = EvalContext(match.bindings, self._functions, self._system)
        for candidate in history.range(interval):
            context = base.rebind(check.variable, candidate)
            if all(predicate(context)
                   for predicate in check.cross_predicates):
                return True
        return False

    def _bounds(self, check: _NegationCheck,
                match: Match) -> tuple[float, float]:
        """The negated component's non-occurrence interval: from the
        last event of the positive before it (or the window's start)
        to the first event of the positive after it (or the window's
        end)."""
        bindings = match.bindings
        if check.low_var is None:  # leading negation
            low = match.end - self._window \
                if self._window is not None else -math.inf
        else:
            binding = bindings[check.low_var]
            low = binding[-1].timestamp if isinstance(binding, tuple) \
                else binding.timestamp
        if check.high_var is None:  # trailing negation
            high = match.start + self._window \
                if self._window is not None else math.inf
        else:
            binding = bindings[check.high_var]
            high = binding[0].timestamp if isinstance(binding, tuple) \
                else binding.timestamp
        return low, high

    def _history_for(self, check: _NegationCheck,
                     match: Match) -> TimeIndex | None:
        history = check.history
        if isinstance(history, TimeIndex):
            return history
        binding = match.bindings[self._match_key_var]
        anchor = binding[0] if isinstance(binding, tuple) else binding
        return history.partition(anchor.attributes.get(self._match_key_attr))


# How Transformation evaluates one RETURN item (bound at registration).
_READ_ATTRIBUTE = 0   # ``x.Attr`` straight off the bound event
_READ_TIMESTAMP = 1   # ``x.Timestamp``
_CALL = 2             # ``_f(x.Attr, y.Timestamp, ...)`` via the registry
_INTERPRET = 3        # anything else: the compiled closure
_UNREAD = object()    # a direct read failed; rerun the closure


def _read_path(expr: Any) -> tuple[str, str | None] | None:
    """``(variable, attribute)`` when *expr* is a plain attribute read,
    with attribute None for ``Timestamp``; None for any other shape."""
    if not isinstance(expr, AttributeRef):
        return None
    if expr.attribute in ("Timestamp", "timestamp"):
        return expr.variable, None
    return expr.variable, expr.attribute


class Transformation:
    """Evaluate the RETURN clause: matches to composite events.

    Each item is bound once, at registration.  A plain attribute read
    comes straight off the bound event; a ``_`` function whose arguments
    are all attribute reads gets its argument values in one loop and is
    called through the function registry (which reports unknown and
    failing functions).  Every other shape runs the item's compiled
    closure.  When a direct read fails (an unbound variable, a Kleene
    binding, a missing attribute) the item's closure runs instead and
    raises the interpreter's exact error, before any function call.
    """

    def __init__(self, analyzed: AnalyzedQuery,
                 stats: PlanStats | None = None,
                 functions: Any = None, system: Any = None):
        self._items: list[tuple[str, int, Any, Any, Callable]] = []
        for item in analyzed.return_items:
            expr = item.expr
            closure = compile_expr(expr)
            path = _read_path(expr)
            if path is not None:
                variable, attribute = path
                kind = _READ_ATTRIBUTE if attribute is not None \
                    else _READ_TIMESTAMP
                self._items.append((item.name, kind, variable, attribute,
                                    closure))
                continue
            args = [_read_path(arg) for arg in expr.args] \
                if isinstance(expr, FunctionCall) else None
            if functions is not None and args is not None \
                    and None not in args:
                self._items.append((item.name, _CALL, expr.name,
                                    tuple(args), closure))
            else:
                self._items.append((item.name, _INTERPRET, None, None,
                                    closure))
        self._needs_context = any(kind >= _CALL
                                  for _, kind, _, _, _ in self._items)
        self._output_type = analyzed.output_type
        self._output_stream = analyzed.output_stream
        self._functions = functions
        self._system = system
        self._stats = (stats or PlanStats()).operator("TF")

    def process(self, match: Match) -> CompositeEvent:
        self._stats.consumed += 1
        bindings = match.bindings
        context = EvalContext(bindings, self._functions, self._system) \
            if self._needs_context else None
        attributes: dict[str, Any] = {}
        for name, kind, first, second, closure in self._items:
            if kind == _READ_ATTRIBUTE:
                try:
                    value = bindings[first].attributes[second]
                except (KeyError, AttributeError):
                    value = _UNREAD
            elif kind == _CALL:
                try:
                    args = []
                    for variable, attribute in second:
                        event = bindings[variable]
                        args.append(event.timestamp if attribute is None
                                    else event.attributes[attribute])
                except (KeyError, AttributeError):
                    value = _UNREAD
                else:
                    value = self._functions.call(first, context, args)
            elif kind == _INTERPRET:
                value = closure(context)
            else:   # _READ_TIMESTAMP
                try:
                    value = bindings[first].timestamp
                except (KeyError, AttributeError):
                    value = _UNREAD
            if value is _UNREAD:  # the interpreter raises the exact error
                value = closure(context or EvalContext(
                    bindings, self._functions, self._system))
            attributes[name] = value
        self._stats.produced += 1
        return CompositeEvent(self._output_type, attributes, match.bindings,
                              match.start, match.end,
                              stream=self._output_stream)
