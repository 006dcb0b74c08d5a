"""Shared-plan optimization: evaluate one match pipeline for many queries.

In a multi-tenant deployment most registered queries are instances of a
few templates — the same EVENT/WHERE/WITHIN pattern, differing (at most)
in their RETURN clauses.  Kolchinsky & Schuster's CEP join-optimization
survey identifies multi-query sharing as the central scaling lever: the
expensive part of a query (the NFA sequence scan, the pushed predicates,
negation bookkeeping) is identical across such instances, so evaluating
it once and fanning the matches out to per-query continuations turns an
O(tenants) per-event cost into O(templates).

This module implements that sharing behind :class:`SharedPlanConfig`:

* :func:`plan_signature` canonicalizes a compiled query's *match plan* —
  every component, pushed predicate, selection/negation/Kleene predicate,
  the window, the partition scheme, and the plan switches — with pattern
  variables renamed positionally so ``SEQ(A x, B y)`` and ``SEQ(A p, B q)``
  share.  The RETURN clause is deliberately excluded: it is the per-query
  continuation.
* :class:`SharedGroup` owns one raw-match :class:`~repro.core.runtime
  .QueryRuntime` (the Transformation operator replaced by a pass-through)
  and memoizes its output per feed/advance/flush round.
* :class:`SharedMemberRuntime` is the per-query view the processor holds:
  it quacks like a raw-match ``QueryRuntime`` but delegates match
  production to the group; the processor applies the member's own RETURN
  clause, as it does for every query.

Sharing is safe exactly because the continuation is applied per member in
the member's registration order — the delivered result stream is
bit-identical to independent evaluation (the differential tests assert
this).  Queries whose predicates call external functions are excluded by
default: a function may read mutable system state (the event database),
and collapsing N evaluations into one could observe it at a different
point in the delivery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.match import Match
from repro.core.runtime import QueryRuntime
from repro.events.event import Event
from repro.lang.ast import (
    AggregateCall,
    AttributeRef,
    BinaryOp,
    Expr,
    FunctionCall,
    Literal,
    UnaryOp,
    VariableRef,
)
from repro.lang.semantics import AnalyzedQuery, PredicateInfo


@dataclass(frozen=True)
class SharedPlanConfig:
    """Switches for multi-query shared-plan evaluation.

    ``share_function_queries`` opts queries with external function calls
    in their WHERE clause into sharing; leave it off unless every such
    function is pure (see module docstring).
    """

    enabled: bool = True
    share_function_queries: bool = False


# -- canonical signatures ----------------------------------------------------

def _render(expr: Expr, rename: dict[str, str]) -> str:
    """Canonical text for *expr* with pattern variables renamed."""
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, AttributeRef):
        return f"{rename.get(expr.variable, expr.variable)}" \
               f".{expr.attribute}"
    if isinstance(expr, VariableRef):
        return rename.get(expr.name, expr.name)
    if isinstance(expr, BinaryOp):
        return f"({_render(expr.left, rename)} {expr.op.value} " \
               f"{_render(expr.right, rename)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op.value} {_render(expr.operand, rename)})"
    if isinstance(expr, FunctionCall):
        args = ", ".join(_render(arg, rename) for arg in expr.args)
        return f"{expr.name}({args})"
    if isinstance(expr, AggregateCall):
        inner = "*" if expr.arg is None else _render(expr.arg, rename)
        return f"{expr.kind.value}({inner})"
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _predicate_block(infos: list[PredicateInfo],
                     rename: dict[str, str]) -> tuple[str, ...]:
    return tuple(_render(info.expr, rename) for info in infos)


def plan_signature(analyzed: AnalyzedQuery, config: Any,
                   shared: SharedPlanConfig) -> tuple | None:
    """The canonical match-plan identity of a query, or None when the
    query must not be shared.  Two queries with equal signatures produce
    identical pre-RETURN match streams over any input."""
    if not shared.share_function_queries and \
            analyzed.where_calls_functions:
        return None

    rename = {component.variable: f"v{index}"
              for index, component in enumerate(analyzed.components)}
    components = tuple(
        (component.event_type, tuple(component.alt_types),
         component.negated, component.kleene, rename[component.variable])
        for component in analyzed.components)
    filters = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.component_filters.items(),
            key=lambda item: rename[item[0]]))
    negations = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.negation_predicates.items(),
            key=lambda item: rename[item[0]]))
    kleenes = tuple(
        (rename[variable], _predicate_block(infos, rename))
        for variable, infos in sorted(
            analyzed.kleene_predicates.items(),
            key=lambda item: rename[item[0]]))
    partition = None
    if analyzed.partition is not None:
        partition = tuple(sorted(
            (rename[variable], attribute) for variable, attribute
            in analyzed.partition.attr_by_var.items()))
    plan_knobs = (config.window_pushdown, config.partition_pushdown,
                  config.filter_pushdown, config.construction_pushdown,
                  config.kleene_mode.value, config.max_kleene_events,
                  config.prune_interval, config.use_codegen)
    return (analyzed.query.from_stream, components, analyzed.window,
            filters, _predicate_block(analyzed.selection_predicates,
                                      rename),
            negations, kleenes, partition, plan_knobs)


# -- the shared runtime ------------------------------------------------------

class SharedGroup:
    """One raw-match pipeline serving every member of a signature group.

    The group memoizes the pipeline's output per *round*: the first
    member the processor feeds in a dispatch round runs the pipeline,
    every other member reuses the cached matches.  Rounds are keyed by
    the identities of the fed events for ``feed`` and by watermark value
    for ``advance``; a member that re-appears under an unchanged key
    starts a new round (the pipeline is monotone, so a repeated
    ``advance`` at the same watermark yields the empty list both shared
    and independent).
    """

    def __init__(self, signature: tuple, pipeline: QueryRuntime):
        self.signature = signature
        self.pipeline = pipeline
        self.members: dict[str, SharedMemberRuntime] = {}
        self._kind: str | None = None
        self._key: Any = None
        self._cached: list = []
        self._consumed: set[str] = set()

    @property
    def events_consumed(self) -> int:
        return self.pipeline.stats.events_consumed

    @property
    def joinable(self) -> bool:
        """A query may only join before the pipeline has state: a member
        added later would see matches rooted in events that predate its
        own registration, which independent evaluation never produces."""
        return self.events_consumed == 0 and not self.pipeline.flushed

    def add_member(self, name: str,
                   analyzed: AnalyzedQuery) -> "SharedMemberRuntime":
        member = SharedMemberRuntime(self, name, analyzed)
        self.members[name] = member
        return member

    def remove_member(self, name: str) -> None:
        self.members.pop(name, None)
        self._consumed.discard(name)

    def _matches(self, member: str, kind: str, arg: Any) -> list:
        key = tuple(map(id, arg)) if kind == "feed" else arg
        if self._kind != kind or member in self._consumed \
                or self._key != key:
            if kind == "feed":
                self._cached = self.pipeline.feed_batch_grouped(arg)
            elif kind == "advance":
                self._cached = self.pipeline.advance(arg)
            else:
                self._cached = self.pipeline.flush()
            self._kind, self._key = kind, key
            self._consumed = set()
        self._consumed.add(member)
        return self._cached


class SharedMemberRuntime:
    """Per-query view over a :class:`SharedGroup`: the group's raw
    matches with this query's variable names.  The processor applies the
    query's own RETURN continuation.  Implements the parts of the
    ``QueryRuntime`` surface the processor and the exporters touch."""

    def __init__(self, group: SharedGroup, name: str,
                 analyzed: AnalyzedQuery):
        self.group = group
        self.name = name
        # The pipeline binds the *representative's* variable names; this
        # member's RETURN clause (and its results' provenance bindings)
        # use its own.  Signatures align components positionally, so the
        # rename is positional too; identity maps skip the copy.
        representative = group.pipeline.plan.analyzed
        rename = {rep.variable: own.variable
                  for rep, own in zip(representative.components,
                                      analyzed.components)}
        self._rename = None if all(key == value for key, value
                                   in rename.items()) else rename

    def _localize(self, matches: list[Match]) -> list[Match]:
        rename = self._rename
        if rename is None:
            return matches
        return [Match({rename[variable]: binding
                       for variable, binding in match.bindings.items()},
                      match.start, match.end) for match in matches]

    def feed(self, event: Event) -> list[Match]:
        return self.feed_batch_grouped([event])[0]

    def feed_batch(self, events: list[Event]) -> list[Match]:
        return [match for matches in self.feed_batch_grouped(events)
                for match in matches]

    def feed_batch_grouped(self, events: list[Event]) -> list[list[Match]]:
        return [self._localize(matches) for matches in
                self.group._matches(self.name, "feed", events)]

    def advance(self, watermark: float) -> list[Match]:
        return self._localize(
            self.group._matches(self.name, "advance", watermark))

    def flush(self) -> list[Match]:
        return self._localize(self.group._matches(self.name, "flush", ()))

    # -- QueryRuntime surface (delegated to the shared pipeline) -------------

    @property
    def plan(self):
        return self.group.pipeline.plan

    @property
    def stats(self):
        return self.group.pipeline.stats

    @property
    def scan_compiled(self) -> bool:
        return self.group.pipeline.scan_compiled

    @property
    def scan_coverage(self) -> dict[str, bool]:
        return self.group.pipeline.scan_coverage

    @property
    def stack_instances(self) -> int:
        return self.group.pipeline.stack_instances

    @property
    def partitions(self) -> int:
        return self.group.pipeline.partitions

    @property
    def pending_negations(self) -> int:
        return self.group.pipeline.pending_negations

    @property
    def scan_profile(self):
        return self.group.pipeline.scan_profile

    def enable_profiling(self):
        return self.group.pipeline.enable_profiling()
