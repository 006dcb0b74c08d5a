"""The complex event processor: continuous queries over the event stream.

Section 3 gives the processor three tasks, all supported here:

1. **monitoring queries** — registered with a callback; every satisfaction
   produces a notification result;
2. **archiving rules** — transformation queries whose RETURN clauses call
   database functions (``_updateLocation``, ``_updateContainment``); their
   results stream to the event database rather than the user;
3. **stream + database queries** — monitoring queries whose RETURN clause
   performs lookups (``_retrieveLocation``); detection triggers the
   subquery and the combined result goes back to the user.

The processor can also run **sharded**: construct it with a
:class:`~repro.sharding.ShardingConfig` whose :attr:`active` flag is set
and the cleaned stream is hash-partitioned across worker shards (see
``repro.sharding``).  The default configuration (one inline shard) keeps
the classic synchronous single-process behaviour.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterable, TYPE_CHECKING

import time

from repro.core.engine import CompiledQuery, Engine
from repro.core.operators import Transformation
from repro.core.plan import PlanConfig
from repro.core.runtime import QueryRuntime
from repro.core.shared import SharedGroup, SharedMemberRuntime, \
    SharedPlanConfig, plan_signature
from repro.errors import SaseError
from repro.events.event import CompositeEvent, Event
from repro.events.model import SchemaRegistry
from repro.obs.profile import ScanProfile, SlowFeedLog
from repro.obs.trace import DataflowTracer
from repro.system.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.config import ShardingConfig

ResultCallback = Callable[[str, CompositeEvent], None]


def _feed_run(runtime: Any, events: list[Event], slots: list[int],
              found: dict[int, list]) -> int:
    """Feed the events at *slots* to *runtime* as one batch, keeping each
    non-empty match list under its slot in *found*; returns the number
    fed."""
    batch = events if len(slots) == len(events) \
        else [events[slot] for slot in slots]
    for slot, matches in zip(slots, runtime.feed_batch_grouped(batch)):
        if matches:
            found[slot] = matches
    return len(slots)


class QueryKind(enum.Enum):
    MONITORING = "monitoring"
    ARCHIVING_RULE = "archiving rule"


@dataclass
class RegisteredQuery:
    """One live continuous query."""

    name: str
    kind: QueryKind
    compiled: CompiledQuery
    # The match pipeline: raw matches, RETURN not applied.
    runtime: QueryRuntime | SharedMemberRuntime
    # The RETURN clause, applied by the processor in (event,
    # registration) order.
    returns: Transformation
    on_result: ResultCallback | None
    results_produced: int = 0
    # The shared-plan group evaluating this query's match pipeline, or
    # None when the query runs independently.
    shared_group: SharedGroup | None = None

    @property
    def shared(self) -> bool:
        return self.shared_group is not None

    @property
    def input_stream(self) -> str:
        """The stream this query reads (the FROM clause; "if it is
        omitted, the query refers to a default system input")."""
        return self.compiled.analyzed.query.from_stream or \
            ComplexEventProcessor.DEFAULT_STREAM

    @property
    def output_stream(self) -> str | None:
        """The stream this query's composite events feed (INTO)."""
        return self.compiled.analyzed.output_stream


class ComplexEventProcessor:
    """Hosts continuous queries; feed it the cleaned event stream.

    Queries compose through named streams: a query whose RETURN clause ends
    in ``INTO <stream>`` publishes its composite events there, and a query
    with ``FROM <stream>`` consumes them — the language's mechanism for
    building detection hierarchies.  Cascades are depth-limited so a
    self-feeding query fails loudly instead of looping.
    """

    DEFAULT_STREAM = "default"
    MAX_CASCADE_DEPTH = 16

    def __init__(self, registry: SchemaRegistry, functions: Any = None,
                 system: Any = None, config: PlanConfig | None = None,
                 sharding: "ShardingConfig | None" = None,
                 use_dispatch_index: bool = True,
                 resilience: Any = None,
                 shared_plans: SharedPlanConfig | None = None):
        self._engine = Engine(registry, functions=functions, system=system,
                              config=config)
        self._queries: dict[str, RegisteredQuery] = {}
        # Shared-plan evaluation (off unless configured): signature ->
        # the latest (joinable) group.  Superseded groups stay alive
        # through their members only.  Not supported under sharding:
        # worker shards rebuild runtimes from specs on their own side.
        self._shared = shared_plans \
            if shared_plans is not None and shared_plans.enabled else None
        self._shared_groups: dict[tuple, SharedGroup] = {}
        # Online-lifecycle listeners: called with ("register" |
        # "deregister", registered) after the query set changes, so
        # long-lived attachments (the persistence manager's replay
        # horizon, a serving control plane) can re-derive their state.
        self._lifecycle_listeners: list[
            Callable[[str, RegisteredQuery], None]] = []
        self.metrics = MetricsCollector()
        self._sharding = sharding
        # ResilienceConfig (or None): the router reads it to arm worker
        # chaos, shard supervision, and load shedding.
        self.resilience = resilience
        self._router: Any = None
        # Multi-query dispatch index: stream -> event type -> the ordered
        # actions to take (feed subscribing queries, watermark-advance
        # negation queries that skip the event).  Built lazily per
        # (stream, type) pair, invalidated on (de)registration.
        self._use_dispatch_index = use_dispatch_index
        self._dispatch_cache: dict[
            tuple[str, str], list[tuple[RegisteredQuery, bool]]] = {}
        # What forces the dataflow to step one event at a time (see
        # _steps); None until derived from the current query set.
        self._where_calls_functions = False
        self._into_streams: frozenset[str] | None = None
        # Observability (all opt-in; the hot path pays one None check
        # per hook when disabled).
        self._tracer: DataflowTracer | None = None
        self._slow_log: SlowFeedLog | None = None
        # Exactly-once delivery gate (the persistence manager's match
        # suppression during crash recovery).
        self._delivery_filter: Callable[[str, CompositeEvent],
                                        bool] | None = None
        # Persistence write path, fused into the feed dataflow so
        # durability costs no extra calls in host loops (one None check
        # each when persistence is off).
        self._persist_log: Callable[[list[Event]], Any] | None = None
        self._persist_post: Callable[[int], Any] | None = None
        # True while a feed is executing: registration changes are
        # rejected so delivery never looks up a query a callback
        # removed.
        self._in_batch = False

    @property
    def sharding(self) -> "ShardingConfig | None":
        return self._sharding

    # -- observability --------------------------------------------------------

    @property
    def tracer(self) -> DataflowTracer | None:
        return self._tracer

    def enable_tracing(self, capacity: int = 4096) -> DataflowTracer:
        """Turn on dataflow tracing; returns the tracer.

        Under an active sharding configuration this must happen before
        the first feed: the worker specification snapshots the trace flag
        when the router starts, so shards launched untraced stay
        untraced.
        """
        if self._tracer is None:
            if self._router is not None:
                raise SaseError(
                    "enable tracing before the sharded stream starts; "
                    "worker shards snapshot the trace flag at launch")
            self._tracer = DataflowTracer(capacity)
        return self._tracer

    def attach_tracer(self, tracer: DataflowTracer) -> None:
        """Adopt an externally owned tracer (shard worker cores share one
        shipping tracer across their group processors)."""
        self._tracer = tracer

    @property
    def slow_feed_log(self) -> SlowFeedLog | None:
        return self._slow_log

    def enable_slow_feed_log(self, threshold_seconds: float,
                             capacity: int = 256) -> SlowFeedLog:
        """Log (event, query) whenever one feed call exceeds
        *threshold_seconds* of wall time."""
        self._slow_log = SlowFeedLog(threshold_seconds, capacity)
        return self._slow_log

    def enable_profiling(self) -> dict[str, ScanProfile]:
        """Turn on per-component scan counters for every registered
        query (register queries first; must precede the first event)."""
        return {name: registered.runtime.enable_profiling()
                for name, registered in self._queries.items()}

    def scan_profiles(self) -> dict[str, ScanProfile]:
        """The active per-query scan profiles (empty until enabled)."""
        profiles = {}
        for name, registered in self._queries.items():
            profile = registered.runtime.scan_profile
            if profile is not None:
                profiles[name] = profile
        return profiles

    # -- registration -------------------------------------------------------

    def register(self, name: str, query: str | CompiledQuery,
                 kind: QueryKind = QueryKind.MONITORING,
                 on_result: ResultCallback | None = None,
                 config: PlanConfig | None = None) -> RegisteredQuery:
        """Register a continuous query.  "The event processor immediately
        starts executing the query over the RFID stream ... until the query
        is deleted by the user"."""
        if self._in_batch:
            raise SaseError(
                "cannot register a query while a batch feed is in flight; "
                "register between feeds")
        if name in self._queries:
            raise SaseError(f"a query named {name!r} is already registered")
        if self._router is not None:
            raise SaseError(
                "cannot register a query after the sharded stream has "
                "started; register every query before the first feed")
        compiled = query if isinstance(query, CompiledQuery) \
            else self._engine.compile(query, config)
        runtime, group = self._build_runtime(name, compiled)
        returns = Transformation(
            compiled.analyzed, stats=runtime.stats,
            functions=self._engine.functions, system=self._engine.system)
        registered = RegisteredQuery(
            name=name, kind=kind, compiled=compiled, runtime=runtime,
            returns=returns, on_result=on_result, shared_group=group)
        self._queries[name] = registered
        self._query_set_changed()
        self._notify_lifecycle("register", registered)
        return registered

    def _query_set_changed(self) -> None:
        """Drop everything derived from the query set; it is rebuilt on
        the next feed."""
        self._dispatch_cache.clear()
        self._into_streams = None

    def _build_runtime(self, name: str, compiled: CompiledQuery) \
            -> tuple[QueryRuntime | SharedMemberRuntime,
                     SharedGroup | None]:
        """The query's raw-match pipeline: an independent runtime, or a
        member of a shared-plan group when sharing is on and the query's
        match plan is shareable."""
        signature = None
        if self._shared is not None and not self._sharded:
            signature = plan_signature(compiled.analyzed,
                                       compiled.plan.config, self._shared)
        if signature is None:
            return QueryRuntime(compiled.plan, self._engine.functions,
                                self._engine.system, raw_matches=True), None
        group = self._shared_groups.get(signature)
        if group is None or not group.joinable:
            # A warm group is never joined: its pipeline already holds
            # partial matches a query registered *now* must not see.
            pipeline = QueryRuntime(compiled.plan, self._engine.functions,
                                    self._engine.system, raw_matches=True)
            group = SharedGroup(signature, pipeline)
            self._shared_groups[signature] = group
        return group.add_member(name, compiled.analyzed), group

    def compile(self, query: str,
                config: PlanConfig | None = None) -> CompiledQuery:
        """Compile *query* without registering it (validation, or
        compile-once-register-later flows like admission queues)."""
        return self._engine.compile(query, config)

    def register_monitoring_query(self, name: str, query: str,
                                  on_result: ResultCallback | None = None) \
            -> RegisteredQuery:
        return self.register(name, query, QueryKind.MONITORING, on_result)

    def register_archiving_rule(self, name: str,
                                query: str) -> RegisteredQuery:
        return self.register(name, query, QueryKind.ARCHIVING_RULE)

    def deregister(self, name: str) -> None:
        """Withdraw a continuous query, releasing every resource it
        holds: its runtime (partition index, window state, pending
        negations), its shared-group membership, its dispatch-index
        entries, and its metrics.  Lifecycle listeners run last so
        attachments like the persistence manager's replay horizon
        re-derive from the remaining query set."""
        if self._in_batch:
            raise SaseError(
                "cannot deregister a query while a batch feed is in "
                "flight; deregister between feeds")
        if name not in self._queries:
            raise SaseError(f"no query named {name!r} is registered")
        if self._router is not None:
            raise SaseError(
                "cannot deregister a query after the sharded stream has "
                "started")
        registered = self._queries.pop(name)
        group = registered.shared_group
        if group is not None:
            group.remove_member(name)
            if not group.members and \
                    self._shared_groups.get(group.signature) is group:
                del self._shared_groups[group.signature]
        # Drop the runtime reference eagerly: RegisteredQuery objects can
        # outlive deregistration in caller hands, and the runtime is
        # where the per-query stream state (stacks, partitions, buffered
        # negations) lives.
        registered.runtime = None  # type: ignore[assignment]
        self._query_set_changed()
        self.metrics.forget(name)
        self._notify_lifecycle("deregister", registered)

    # -- online lifecycle ----------------------------------------------------

    def add_lifecycle_listener(
            self, listener: Callable[[str, RegisteredQuery], None]) -> None:
        """Call *listener(action, registered)* after every register or
        deregister ("register"/"deregister")."""
        self._lifecycle_listeners.append(listener)

    def remove_lifecycle_listener(
            self, listener: Callable[[str, RegisteredQuery], None]) -> None:
        try:
            self._lifecycle_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_lifecycle(self, action: str,
                          registered: RegisteredQuery) -> None:
        for listener in list(self._lifecycle_listeners):
            listener(action, registered)

    def shared_plan_report(self) -> dict[str, Any]:
        """Shared-plan introspection: group count, member fan-out, and
        how many registered queries ride a shared pipeline."""
        groups = {id(registered.shared_group)
                  for registered in self._queries.values()
                  if registered.shared_group is not None}
        shared_queries = sum(1 for registered in self._queries.values()
                             if registered.shared_group is not None)
        fanout = [len(registered.shared_group.members)
                  for registered in self._queries.values()
                  if registered.shared_group is not None]
        return {
            "enabled": self._shared is not None,
            "groups": len(groups),
            "shared_queries": shared_queries,
            "independent_queries": len(self._queries) - shared_queries,
            "max_fanout": max(fanout, default=0),
        }

    def queries(self) -> list[RegisteredQuery]:
        return list(self._queries.values())

    def query(self, name: str) -> RegisteredQuery:
        try:
            return self._queries[name]
        except KeyError:
            raise SaseError(f"no query named {name!r} is registered") \
                from None

    # -- stream side ----------------------------------------------------------

    def feed(self, event: Event,
             stream: str = DEFAULT_STREAM) \
            -> list[tuple[str, CompositeEvent]]:
        """Push one event through every query reading *stream*: a batch
        of one (see :meth:`feed_batch`).  Returns the (query name,
        result) pairs produced and fires callbacks.

        Under an active sharding configuration the event is handed to the
        shard router instead; the returned results are then the merged,
        deterministically ordered results that have become complete so far
        (asynchronous backends may emit them on a later feed or at flush).
        """
        return self._feed([event], stream).get(0, [])

    def feed_many(self, events: Iterable[Event]) \
            -> list[tuple[str, CompositeEvent]]:
        """Alias of :meth:`feed_batch` on the default stream."""
        return self.feed_batch(events)

    def feed_batch(self, events: Iterable[Event],
                   stream: str = DEFAULT_STREAM) \
            -> list[tuple[str, CompositeEvent]]:
        """Push a batch of events through every query reading *stream*
        in one call, result-identical to feeding them one at a time
        (same results, same order, same RETURN side effects).

        Delivery callbacks fire after the batch is processed, and
        registration changes from inside a callback are rejected.
        """
        events = list(events)
        if not events:
            return []
        found = self._feed(events, stream)
        if len(found) == 1:
            return next(iter(found.values()))
        return [pair for bucket in found.values() for pair in bucket]

    def feed_batch_grouped(self, events: list[Event],
                           stream: str = DEFAULT_STREAM) \
            -> list[list[tuple[str, CompositeEvent]]]:
        """Like :meth:`feed_batch` but returns one result list per input
        event — shard workers use this to tag results with the arrival
        number of the event that produced them.  Not available under an
        active sharding configuration (the router owns event order)."""
        if not events:
            return []
        if self._sharded:
            raise SaseError(
                "feed_batch_grouped is for synchronous processors; "
                "the sharded path groups by seq in the router")
        found = self._feed(events, stream)
        return [found.get(slot, []) for slot in range(len(events))]

    @property
    def _sharded(self) -> bool:
        return self._sharding is not None and self._sharding.active

    def _feed(self, events: list[Event], stream: str) \
            -> dict[int, list[tuple[str, CompositeEvent]]]:
        """The one dataflow behind every feed entry point.

        The WAL hook logs the whole batch before any of it is processed.
        The batch then runs as one chunk, or one event at a time when
        batching would be observable (see :meth:`_steps`).  Returns the
        delivered results by event slot, in slot order, for the slots
        that produced any (under sharding, where the router owns event
        order, by the last slot of each chunk); matches a due
        checkpoint's drain barrier releases join the last slot.
        """
        log = self._persist_log
        if log is not None:
            log(events)   # WAL-before-processing
        tracer = self._tracer
        router = self._ensure_router() if self._sharded else None
        step = 1 if self._steps(stream) else len(events)
        found: dict[int, list[tuple[str, CompositeEvent]]] = {}
        outer = self._in_batch
        self._in_batch = True
        try:
            for start in range(0, len(events), step):
                chunk = events[start:start + step] if step == 1 else events
                if tracer is not None:
                    tracer.begin(chunk[0], stream=stream)
                if router is not None:
                    delivered = self._deliver_all(
                        router.feed_batch(chunk, stream))
                    if delivered:
                        found[start + len(chunk) - 1] = delivered
                    continue
                for slot, bucket in self._dataflow(chunk, stream).items():
                    found[start + slot] = self._deliver_all(bucket)
        finally:
            self._in_batch = outer
        post = self._persist_post
        if post is not None:
            released = post(len(events))   # a due checkpoint's barrier
            if released:
                found.setdefault(len(events) - 1, []).extend(released)
        return found

    def _steps(self, stream: str) -> bool:
        """True when *stream* must be fed one event at a time: a
        per-event observer is installed (tracer, slow-feed log), a
        registered query's WHERE calls a function (it may read what an
        earlier event's RETURN wrote), or a query publishes INTO
        *stream* (its composites must reach the stream's readers before
        the next input event does)."""
        if self._into_streams is None:
            queries = self._queries.values()
            self._where_calls_functions = any(
                registered.compiled.analyzed.where_calls_functions
                for registered in queries)
            self._into_streams = frozenset(
                registered.output_stream for registered in queries
                if registered.output_stream is not None)
        return self._tracer is not None or self._slow_log is not None \
            or self._where_calls_functions or stream in self._into_streams

    def _dataflow(self, events: list[Event], stream: str,
                  only: frozenset | set | None = None) \
            -> dict[int, list[tuple[str, CompositeEvent]]]:
        """Run *events* through every query reading *stream* (restricted
        to *only* when given); returns the results by event slot, in slot
        order, for the slots that produced any — not yet delivered.

        Every query scans the whole batch first.  RETURN clauses then
        run per event in registration order, and each event's INTO
        composites reach their consumers breadth-first before the next
        event's RETURNs run, so RETURN side effects (event-database
        writes and reads) interleave exactly as under per-event feeding.
        """
        scans, hits = self._scan(events, stream, 0, only)
        found: dict[int, list[tuple[str, CompositeEvent]]] = {}
        for slot in sorted(hits):
            bucket = found[slot] = []
            pending = self._returns(scans, slot, bucket, 1)
            while pending:
                current_stream, current_event, depth = pending.popleft()
                if depth > self.MAX_CASCADE_DEPTH:
                    raise SaseError(
                        f"query cascade exceeded {self.MAX_CASCADE_DEPTH} "
                        f"levels on stream {current_stream!r}; check for an "
                        f"INTO/FROM cycle")
                cascade, _ = self._scan([current_event], current_stream,
                                        depth, only)
                pending.extend(self._returns(cascade, 0, bucket,
                                             depth + 1))
        return found

    def _scan(self, events: list[Event], stream: str, depth: int,
              only: frozenset | set | None) \
            -> tuple[list[tuple[RegisteredQuery, dict]], set[int]]:
        """Each reading query's raw matches in *events*, in registration
        order: ``(query, {slot: matches})`` pairs holding the non-empty
        match lists by event slot, plus the set of slots that have any.

        With the dispatch index enabled, a query is fed only the events
        whose type its pattern mentions (positively or under negation);
        a negation query still receives a skipped event's timestamp as a
        watermark, so trailing-negation matches release at the same
        stream time either way.  A query's runtime sees its feeds and
        watermarks in event order, consecutive feeds as one batch.
        """
        tracer = self._tracer
        if tracer is not None:
            for event in events:
                tracer.record(
                    "dispatch", stream=stream, ts=event.timestamp,
                    detail={"event_type": event.type, "depth": depth,
                            "actions": len(self._dispatch_actions(
                                stream, event.type))})
        # Per query, its steps through the batch in event order: the
        # slot of an event to feed, or ~slot of one to advance past.
        steps: dict[str, list[int]] = {}
        targets_by_type: dict[str, list[tuple[list[int], bool]]] = {}
        for slot, event in enumerate(events):
            targets = targets_by_type.get(event.type)
            if targets is None:
                targets = targets_by_type[event.type] = [
                    (steps.setdefault(registered.name, []), is_feed)
                    for registered, is_feed
                    in self._dispatch_actions(stream, event.type)
                    if only is None or registered.name in only]
            for taken, is_feed in targets:
                taken.append(slot if is_feed else ~slot)
        slow = self._slow_log
        metrics = self.metrics
        scans: list[tuple[RegisteredQuery, dict]] = []
        hits: set[int] = set()
        for registered in self._queries.values():
            taken = steps.get(registered.name)
            if not taken:
                continue
            runtime = registered.runtime
            started = time.perf_counter()
            found: dict[int, list] = {}
            if min(taken) >= 0:   # feeds only: one run
                fed = _feed_run(runtime, events, taken, found)
            else:
                run: list[int] = []
                fed = 0
                for step in taken:
                    if step >= 0:
                        run.append(step)
                        continue
                    if run:
                        fed += _feed_run(runtime, events, run, found)
                        run = []
                    released = runtime.advance(events[~step].timestamp)
                    if released:
                        found[~step] = released
                if run:
                    fed += _feed_run(runtime, events, run, found)
            elapsed = time.perf_counter() - started
            total = 0
            last_ts = None
            if found:
                total = sum(map(len, found.values()))
                last_ts = max(events[slot].timestamp for slot in found)
                hits.update(found)
            metrics.query(registered.name).record(fed, total, elapsed,
                                                  last_ts)
            scans.append((registered, found))
            if tracer is not None:
                self._trace_scan(tracer, registered, stream, events[0],
                                 fed, total, elapsed)
            if slow is not None and fed and elapsed >= slow.threshold:
                slow.record(registered.name, events[0], elapsed, total)
        return scans, hits

    def _returns(self, scans: list[tuple[RegisteredQuery, dict]],
                 slot: int, bucket: list[tuple[str, CompositeEvent]],
                 depth: int) -> deque:
        """Apply each query's RETURN to its matches for event *slot*, in
        registration order, into *bucket*; returns the INTO composites
        as pending ``(stream, event, depth)`` cascade steps."""
        tracer = self._tracer
        pending: deque = deque()
        for registered, found in scans:
            matches = found.get(slot)
            if matches is None:
                continue
            name = registered.name
            process = registered.returns.process
            for match in matches:
                result = process(match)
                bucket.append((name, result))
                if tracer is not None:
                    tracer.record(
                        "return", query=name, stream=result.stream,
                        ts=result.end,
                        detail={"attributes": dict(result.attributes)})
                if result.stream is not None:
                    if tracer is not None:
                        tracer.record("cascade", query=name,
                                      stream=result.stream, ts=result.end,
                                      detail={"depth": depth})
                    pending.append((result.stream, result.to_event(),
                                    depth))
        return pending

    @staticmethod
    def _trace_scan(tracer: DataflowTracer, registered: RegisteredQuery,
                    stream: str, event: Event, fed: int, results: int,
                    elapsed: float) -> None:
        name = registered.name
        if not fed:
            if results:
                tracer.record("advance", query=name, stream=stream,
                              ts=event.timestamp, duration=elapsed,
                              detail={"released": results})
            return
        tracer.record("scan", query=name, stream=stream,
                      ts=event.timestamp, duration=elapsed,
                      detail={"event_type": event.type,
                              "results": results})
        if results:
            tracer.record("construct", query=name, stream=stream,
                          ts=event.timestamp,
                          detail={"matches": results})

    def _dispatch_actions(self, stream: str, event_type: str) \
            -> list[tuple[RegisteredQuery, bool]]:
        """The ordered ``(query, is_feed)`` actions for one event on
        *stream* with *event_type*.  Registration order is preserved so
        result ordering is identical with the index on or off."""
        if not self._use_dispatch_index:
            return [(registered, True)
                    for registered in self._queries.values()
                    if registered.input_stream == stream]
        key = (stream, event_type)
        actions = self._dispatch_cache.get(key)
        if actions is None:
            actions = []
            for registered in self._queries.values():
                if registered.input_stream != stream:
                    continue
                types = self._subscribed_types(registered)
                if types is None or event_type in types:
                    actions.append((registered, True))
                elif registered.compiled.analyzed.has_negation:
                    # Not subscribed, but its pending trailing-negation
                    # matches must still see time move forward.
                    actions.append((registered, False))
            self._dispatch_cache[key] = actions
        return actions

    @staticmethod
    def _subscribed_types(registered: RegisteredQuery) \
            -> frozenset[str] | None:
        """The event types *registered* must observe (positive plus
        negated components), or None when it must see every type."""
        types: set[str] = set()
        for component in registered.compiled.analyzed.components:
            event_types = component.event_types
            if not event_types:
                return None  # untyped component: any-type bucket
            types.update(event_types)
        return frozenset(types)

    def advance_time(self, watermark: float,
                     only: frozenset | set | None = None) \
            -> list[tuple[str, CompositeEvent]]:
        """Advance stream time for every (selected) query without feeding
        an event, releasing pending trailing-negation matches.  Used by
        shard workers processing broadcast watermark ticks."""
        tracer = self._tracer
        produced: list[tuple[str, CompositeEvent]] = []
        for registered in self._queries.values():
            if only is not None and registered.name not in only:
                continue
            started = time.perf_counter()
            matches = registered.runtime.advance(watermark)
            if not matches:
                continue
            elapsed = time.perf_counter() - started
            self.metrics.query(registered.name).record(
                0, len(matches), elapsed, watermark)
            if tracer is not None:
                tracer.record(
                    "advance", query=registered.name, ts=watermark,
                    duration=elapsed, detail={"released": len(matches)})
            self._returns([(registered, {0: matches})], 0, produced, 1)
        return produced

    def _deliver(self, registered: RegisteredQuery,
                 result: CompositeEvent) -> None:
        registered.results_produced += 1
        if registered.on_result is not None:
            registered.on_result(registered.name, result)

    def set_delivery_filter(
            self, accept: Callable[[str, CompositeEvent],
                                   bool] | None) -> None:
        """Install a gate every emitted match must pass to be delivered
        (callbacks fired, result returned).  The persistence manager
        uses it to suppress already-durable matches during crash
        recovery, making restart exactly-once."""
        self._delivery_filter = accept

    def set_persistence_hooks(
            self, log: Callable[[list[Event]], Any] | None,
            post: Callable[[int], Any] | None) -> None:
        """Fuse the durability write path into the feed dataflow: *log*
        runs with every live batch before any of it is processed (the
        WAL append), *post* runs after delivery with the batch's event
        count and returns any matches a due checkpoint's drain barrier
        released.  The persistence manager installs these after recovery
        completes — never during replay — and removes them on close."""
        self._persist_log = log
        self._persist_post = post

    def _deliver_all(self, emitted: list[tuple[str, CompositeEvent]]) \
            -> list[tuple[str, CompositeEvent]]:
        accept = self._delivery_filter
        if accept is None:
            for name, result in emitted:
                self._deliver(self._queries[name], result)
            return emitted
        delivered: list[tuple[str, CompositeEvent]] = []
        for name, result in emitted:
            if accept(name, result):
                self._deliver(self._queries[name], result)
                delivered.append((name, result))
        return delivered

    def drain(self) -> list[tuple[str, CompositeEvent]]:
        """Checkpoint barrier: force every in-flight sharded batch to
        completion and deliver the released results.  A no-op (empty
        list) on the synchronous runtime."""
        if self._router is None:
            return []
        return self._deliver_all(self._router.drain())

    def close(self) -> None:
        """Release runtime resources: bounded shutdown of any shard
        workers, even wedged ones.  Unlike :meth:`flush` this emits
        nothing; after closing, ``feed`` fails loudly.  Idempotent."""
        if self._router is not None:
            self._router.close()

    @property
    def degraded(self) -> bool:
        """True once any shard was lost or shed work under supervision;
        results carry ``complete=False`` from that point on."""
        return bool(self._router is not None
                    and getattr(self._router, "degraded", False))

    def flush(self) -> list[tuple[str, CompositeEvent]]:
        """End of stream: release pending trailing-negation matches.

        Queries flush in cascade order (producers before their INTO
        consumers) so composite events released at flush time still reach
        downstream queries before those flush themselves.
        """
        if self._router is not None:
            # The router stays attached after flushing: its own guard
            # makes a later feed fail loudly, matching the classic
            # runtime's "already flushed" behaviour.
            return self._deliver_all(self._router.flush())
        produced = [(name, result)
                    for name, result, _ in self._flush_queries()]
        return self._deliver_all(produced)

    def _flush_queries(self, only: frozenset | set | None = None) \
            -> list[tuple[str, CompositeEvent, int]]:
        """Flush every (selected) query in cascade order.

        Returns ``(name, result, trigger_rank)`` triples where
        ``trigger_rank`` is the flush-order rank of the query whose flush
        released the result (cascade results carry their trigger's rank,
        keeping them glued behind it for deterministic merging).
        """
        produced: list[tuple[str, CompositeEvent, int]] = []
        order = self._flush_order()
        ranks = {registered.name: rank
                 for rank, registered in enumerate(order)}
        flushed: set[str] = set()
        if only is not None:
            # Queries flushed elsewhere (on worker shards) must not
            # receive late-routed composites here.
            flushed.update(name for name in self._queries
                           if name not in only)
        for registered in order:
            if only is not None and registered.name not in only:
                continue
            rank = ranks[registered.name]
            process = registered.returns.process
            for match in registered.runtime.flush():
                result = process(match)
                produced.append((registered.name, result, rank))
                if result.stream is not None:
                    self._route_late(result.stream, result.to_event(),
                                     flushed, produced, depth=0,
                                     trigger_rank=rank)
            flushed.add(registered.name)
        return produced

    def flush_ranks(self) -> dict[str, int]:
        """Each query's global flush-order rank (producers first)."""
        return {registered.name: rank
                for rank, registered in enumerate(self._flush_order())}

    def _route_late(self, stream: str, event: Event, flushed: set[str],
                    produced: list[tuple[str, CompositeEvent, int]],
                    depth: int, trigger_rank: int) -> None:
        if depth > self.MAX_CASCADE_DEPTH:
            raise SaseError(
                f"query cascade exceeded {self.MAX_CASCADE_DEPTH} levels "
                f"during flush on stream {stream!r}")
        for registered in self._queries.values():
            if registered.input_stream != stream or \
                    registered.name in flushed:
                continue
            process = registered.returns.process
            for match in registered.runtime.feed(event):
                result = process(match)
                produced.append((registered.name, result, trigger_rank))
                if result.stream is not None:
                    self._route_late(result.stream, result.to_event(),
                                     flushed, produced, depth + 1,
                                     trigger_rank)

    def _flush_order(self) -> list[RegisteredQuery]:
        """Producers before consumers: order queries by their stream depth
        (DEFAULT at depth 0, a query publishing INTO a stream puts that
        stream one level deeper)."""
        depth: dict[str, int] = {self.DEFAULT_STREAM: 0}
        changed = True
        iterations = 0
        while changed and iterations <= len(self._queries) + 1:
            changed = False
            iterations += 1
            for registered in self._queries.values():
                source = depth.get(registered.input_stream)
                target = registered.output_stream
                if source is not None and target is not None:
                    proposed = source + 1
                    if depth.get(target, -1) < proposed:
                        depth[target] = min(proposed,
                                            self.MAX_CASCADE_DEPTH)
                        changed = changed or \
                            depth[target] != self.MAX_CASCADE_DEPTH
        return sorted(self._queries.values(),
                      key=lambda registered: depth.get(
                          registered.input_stream, 0))

    # -- sharded execution ----------------------------------------------------

    def _ensure_router(self):
        if self._router is None:
            from repro.sharding.router import ShardRouter
            self._router = ShardRouter(self, self._sharding)
        return self._router

    @property
    def shard_plan(self):
        """The shardability plan in effect (None until sharded feeding
        starts)."""
        return self._router.plan if self._router is not None else None

    @property
    def engine_config(self) -> PlanConfig:
        return self._engine.config

    @property
    def use_dispatch_index(self) -> bool:
        """Whether the type-dispatch subscription index is active."""
        return self._use_dispatch_index

    @property
    def registry(self) -> SchemaRegistry:
        return self._engine.registry
