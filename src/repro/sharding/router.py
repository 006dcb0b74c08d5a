"""The shard router: partition-aware fan-out with deterministic merge.

The router sits between the processor's feed dataflow and the shard
workers.  Per fed event it

1. assigns a global arrival number (*seq*),
2. routes the event per query group — keyed groups receive it on
   ``stable_hash(partition key) % shards`` (with negation *fanout* types
   broadcast to every shard and watermark ticks to shards that did not
   get the event, so trailing-negation timeouts fire at the same stream
   time everywhere), broadcast groups on their home shard — batching
   entries per shard and shipping a batch when it reaches
   ``batch_size``,
3. runs *local* queries (system functions, INTO/FROM composition)
   synchronously in the coordinator, and
4. emits completed results strictly in seq order, merging worker and
   local results into the exact sequence the single-process runtime
   would have produced: per seq, queries in registration order, each
   query's watermark-released matches (ordered by detection time, shard,
   production index) before its scan matches, local cascade results
   last.

Backpressure propagates naturally: a full shard queue blocks the submit
path, which blocks ``feed``.  Nothing is dropped and nothing is
reordered.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.errors import SaseError
from repro.obs.trace import TICK_CONTEXT
from repro.resilience.supervisor import ShardSupervisor
from repro.sharding.analyzer import ShardPlan, build_shard_plan, \
    stable_hash
from repro.sharding.backends import make_backend
from repro.sharding.worker import EVENT_ENTRY, RELEASED, WATERMARK_ENTRY, \
    WorkerSpec
from repro.events.event import CompositeEvent, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sharding.config import ShardingConfig
    from repro.system.processor import ComplexEventProcessor


class _SeqState:
    """Everything known about one fed event's results so far."""

    __slots__ = ("stream", "pending", "worker", "local")

    def __init__(self, stream: str):
        self.stream = stream
        self.pending: set[tuple[int, int]] = set()   # (shard, batch id)
        self.worker: list = []   # (rank, kind, end, shard, idx, result)
        self.local: list = []    # (name, result) in production order


class ShardRouter:
    """Routes one processor's cleaned stream across worker shards."""

    def __init__(self, processor: "ComplexEventProcessor",
                 config: "ShardingConfig"):
        self._processor = processor
        self.config = config
        queries = processor.queries()
        self.plan: ShardPlan = build_shard_plan(
            queries, config.shards, processor.DEFAULT_STREAM)
        self._default_stream = processor.DEFAULT_STREAM
        self._rank_by_name = {registered.name: rank
                              for rank, registered in enumerate(queries)}
        self._name_by_rank = {rank: registered.name
                              for rank, registered in enumerate(queries)}
        self._stream_by_name = {registered.name: registered.input_stream
                                for registered in queries}
        self._local_names = self.plan.local_names
        self._metrics = processor.metrics

        # Resilience wiring (all default off: resilience is None).
        resilience = processor.resilience
        self._supervisor: ShardSupervisor | None = None
        self._shed = None
        self._shed_rng: random.Random | None = None
        self._degraded = False
        self.events_lost = 0
        chaos_spec, chaos_seed = None, 0
        if resilience is not None:
            chaos_spec = resilience.chaos
            chaos_seed = resilience.chaos_seed
            policy = resilience.shedding_policy()
            if policy.active:
                self._shed = policy
                self._shed_rng = random.Random(chaos_seed ^ 0x5EED5)

        if self.plan.groups:
            spec = WorkerSpec(registry=processor.registry,
                              engine_config=processor.engine_config,
                              groups=tuple(self.plan.groups),
                              use_dispatch_index=
                              processor.use_dispatch_index,
                              trace=processor.tracer is not None,
                              chaos=chaos_spec, chaos_seed=chaos_seed)
            if (resilience is not None and resilience.supervise
                    and config.backend != "inline"):
                self._supervisor = ShardSupervisor.from_config(
                    resilience, config.shards,
                    on_event=self._on_supervisor_event)
            self._backend = make_backend(
                config.backend, config.shards, spec, self._metrics,
                config.queue_capacity, config.response_timeout,
                supervisor=self._supervisor,
                on_shard_lost=self._on_shard_lost,
                transport=config.transport,
                ring_bytes=config.ring_bytes,
                workers=config.workers,
                secret=config.secret)
        else:
            # Every query is local; no workers to start.
            self._backend = None
        if self._shed is not None and (self._backend is None
                                       or self._backend.synchronous):
            # Shedding needs an asynchronous backend to have a queue to
            # protect; inline execution never falls behind.
            self._shed = None

        self._next_seq = 0
        self._next_emit = 0
        self._seq_states: dict[int, _SeqState] = {}
        self._batch_counter = 0
        # Per shard: (batch id, entries) of the batch being filled.
        self._open_batches: list[tuple[int, list] | None] = \
            [None] * config.shards
        self._batch_seqs: dict[tuple[int, int], set[int]] = {}
        self._flush_worker: list = []   # (rank, end, shard, idx, result)
        self._flushed = False

    # -- feeding --------------------------------------------------------------

    def feed_batch(self, events: list[Event], stream: str) \
            -> list[tuple[str, CompositeEvent]]:
        """Route a batch of events, run the local queries over it, then
        poll and emit once.

        Each event gets its own seq and is routed (partition hashing,
        batch sealing) exactly as if fed alone — router batching and
        caller batching compose instead of double-buffering — but the
        backend poll and the ordered emission run once per batch,
        shrinking the coordinator's per-event framing cost.
        """
        if self._flushed:
            raise SaseError("sharded stream already flushed")
        route = self._backend is not None and stream == self._default_stream
        states: list[_SeqState] = []
        for event in events:
            seq = self._next_seq
            self._next_seq += 1
            state = _SeqState(stream)
            self._seq_states[seq] = state
            states.append(state)
            if route:
                self._route(seq, event)
        if self._local_names:
            local = self._processor._dataflow(events, stream,
                                              only=self._local_names)
            for slot, bucket in local.items():
                states[slot].local = bucket
        if self._backend is not None:
            self._handle(self._backend.poll())
        return self._emit_ready()

    def _route(self, seq: int, event: Event) -> None:
        shards = self.config.shards
        event_groups: list[list[int]] = [[] for _ in range(shards)]
        tick_groups: list[list[int]] = [[] for _ in range(shards)]
        for group in self.plan.groups:
            if group.kind == "broadcast":
                event_groups[group.home_shard].append(group.group_id)
                continue
            attr = group.keyed.get(event.type)
            if attr is not None:
                target = stable_hash(
                    event.attributes.get(attr)) % shards
                event_groups[target].append(group.group_id)
                targets = {target}
            elif event.type in group.fanout_types:
                for shard in range(shards):
                    event_groups[shard].append(group.group_id)
                targets = set(range(shards))
            else:
                targets = set()
            if group.needs_watermark:
                # Shards that did not see the event still need its
                # timestamp so pending trailing-negation matches release
                # at the same stream time as a single-process run.
                for shard in range(shards):
                    if shard not in targets:
                        tick_groups[shard].append(group.group_id)
        supervised = self._supervisor is not None
        for shard in range(shards):
            if supervised and (event_groups[shard] or tick_groups[shard]) \
                    and not self._backend.shard_available(shard):
                # Degraded mode: the shard is gone (breaker open).  Its
                # events are lost — explicitly counted, and every result
                # emitted from here on carries ``complete=False``.
                if event_groups[shard]:
                    self.events_lost += 1
                    self._metrics.shard(shard).events_lost += 1
                continue
            if event_groups[shard]:
                self._admit_event(shard, seq, event,
                                  tuple(event_groups[shard]))
            if tick_groups[shard]:
                self._append_entry(shard, seq, (
                    WATERMARK_ENTRY, seq, event.timestamp,
                    tuple(tick_groups[shard])))
                self._metrics.shard(shard).watermarks_sent += 1
            open_batch = self._open_batches[shard]
            if open_batch is not None and \
                    len(open_batch[1]) >= self.config.batch_size:
                self._seal(shard)

    def _admit_event(self, shard: int, seq: int, event: Event,
                     group_ids: tuple) -> None:
        policy = self._shed
        if policy is not None and self._backend.overloaded(shard):
            admit = (policy.kind == "sample"
                     and self._shed_rng.random() < policy.probability)
            if not admit and policy.kind == "drop-oldest" \
                    and self._convert_oldest(shard):
                admit = True  # made room by shedding the oldest unsent
            if not admit:
                self._shed_event(shard, seq, event.timestamp, group_ids)
                return
        self._append_entry(shard, seq, (
            EVENT_ENTRY, seq, event, group_ids))
        self._metrics.shard(shard).events_routed += 1

    def _shed_event(self, shard: int, seq: int, timestamp: float,
                    group_ids: tuple) -> None:
        """Shed one event *watermark-safely*: its timestamp still
        reaches the shard (as a watermark entry, coalesced into the open
        batch's trailing watermark when possible) so window expiry and
        trailing-negation release stay as prompt as with the event."""
        self._metrics.shard(shard).events_shed += 1
        self._record_span("shed", {"shard": shard,
                                   "policy": self._shed.kind,
                                   "ts": timestamp})
        open_batch = self._open_batches[shard]
        if open_batch is not None and open_batch[1]:
            last = open_batch[1][-1]
            if last[0] == WATERMARK_ENTRY and last[3] == group_ids:
                open_batch[1][-1] = (WATERMARK_ENTRY, last[1], timestamp,
                                     group_ids)
                batch_id = open_batch[0]
                self._batch_seqs[(shard, batch_id)].add(seq)
                self._seq_states[seq].pending.add((shard, batch_id))
                return
        self._append_entry(shard, seq, (
            WATERMARK_ENTRY, seq, timestamp, group_ids))
        self._metrics.shard(shard).watermarks_sent += 1

    def _convert_oldest(self, shard: int) -> bool:
        """drop-oldest: turn the oldest still-unsent event entry of the
        shard's open batch into a watermark.  Already-submitted batches
        are committed, so there may be nothing left to shed."""
        open_batch = self._open_batches[shard]
        if open_batch is None:
            return False
        for index, entry in enumerate(open_batch[1]):
            if entry[0] == EVENT_ENTRY:
                _, old_seq, old_event, old_groups = entry
                open_batch[1][index] = (
                    WATERMARK_ENTRY, old_seq, old_event.timestamp,
                    old_groups)
                shard_metrics = self._metrics.shard(shard)
                shard_metrics.events_shed += 1
                shard_metrics.events_routed -= 1
                self._record_span("shed", {
                    "shard": shard, "policy": "drop-oldest",
                    "ts": old_event.timestamp})
                return True
        return False

    def _append_entry(self, shard: int, seq: int, entry: tuple) -> None:
        open_batch = self._open_batches[shard]
        if open_batch is None:
            self._batch_counter += 1
            open_batch = (self._batch_counter, [])
            self._open_batches[shard] = open_batch
            self._batch_seqs[(shard, open_batch[0])] = set()
        batch_id, entries = open_batch
        entries.append(entry)
        self._batch_seqs[(shard, batch_id)].add(seq)
        self._seq_states[seq].pending.add((shard, batch_id))

    def _seal(self, shard: int) -> None:
        open_batch = self._open_batches[shard]
        if open_batch is None:
            return
        self._open_batches[shard] = None
        batch_id, entries = open_batch
        self._metrics.shard(shard).batches_sent += 1
        self._backend.submit(shard, batch_id, entries)

    # -- responses and deterministic emission --------------------------------

    def _handle(self, responses: list) -> None:
        tracer = self._processor.tracer
        for response in responses:
            opcode, shard = response[0], response[1]
            tagged, delta = response[3], response[4]
            for name, d_events, d_results, d_busy, last_at, samples \
                    in delta:
                self._metrics.query(name).merge_delta(
                    d_events, d_results, d_busy, last_at, samples)
            if tracer is not None and len(response) > 5 and response[5]:
                tracer.fold(response[5], shard=shard)
            if opcode == "batch":
                batch_id = response[2]
                for seq, rank, kind, end, idx, result in tagged:
                    self._seq_states[seq].worker.append(
                        (rank, kind, end, shard, idx, result))
                for seq in self._batch_seqs.pop((shard, batch_id), ()):
                    self._seq_states[seq].pending.discard(
                        (shard, batch_id))
            else:
                for rank, end, idx, result in tagged:
                    self._flush_worker.append(
                        (rank, end, shard, idx, result))

    def _emit_ready(self) -> list[tuple[str, CompositeEvent]]:
        emitted: list[tuple[str, CompositeEvent]] = []
        while self._next_emit < self._next_seq:
            state = self._seq_states.get(self._next_emit)
            if state is None or state.pending:
                break
            emitted.extend(self._assemble(self._next_emit))
            self._next_emit += 1
        return emitted

    def _assemble(self, seq: int) -> list[tuple[str, CompositeEvent]]:
        """Reproduce the single-process result order for one seq."""
        state = self._seq_states.pop(seq)
        if self._backend is None or state.stream != self._default_stream:
            # Purely local execution already ran in exact classic order.
            return self._flag_degraded(state.local)
        by_rank: dict[int, tuple[list, list]] = {}
        for rank, kind, end, shard, idx, result in state.worker:
            chunks = by_rank.setdefault(rank, ([], []))
            chunks[0 if kind == RELEASED else 1].append(
                (end, shard, idx, result))
        depth0: dict[int, list] = {}
        cascade: list = []
        for name, result in state.local:
            # No query publishes INTO the default stream here (that
            # forces everything local), so a default-stream reader's
            # results are depth-0 and the rest are cascade tail.
            if self._stream_by_name[name] == self._default_stream:
                depth0.setdefault(self._rank_by_name[name], []) \
                    .append((name, result))
            else:
                cascade.append((name, result))
        out: list[tuple[str, CompositeEvent]] = []
        for rank in range(len(self._name_by_rank)):
            chunks = by_rank.get(rank)
            if chunks is not None:
                name = self._name_by_rank[rank]
                for chunk in chunks:
                    chunk.sort(key=lambda item: (item[0], item[1],
                                                 item[2]))
                    out.extend((name, item[3]) for item in chunk)
            out.extend(depth0.get(rank, ()))
        out.extend(cascade)
        return self._flag_degraded(out)

    def _flag_degraded(self, results: list) -> list:
        if self._degraded:
            # Explicit staleness: with a shard abandoned, surviving
            # shards keep answering but matches may be missing partners.
            for _, result in results:
                result.complete = False
        return results

    # -- resilience hooks -----------------------------------------------------

    def _record_span(self, op: str, detail: dict) -> None:
        tracer = self._processor.tracer
        if tracer is not None:
            tracer.record(op, detail=detail, trace_id=TICK_CONTEXT)

    def _on_supervisor_event(self, kind: str, shard: int,
                             detail: dict) -> None:
        self._record_span(kind, {"shard": shard, **detail})
        if kind == "breaker" and detail.get("to") == "open":
            self._metrics.shard(shard).breaker_opens += 1
            self._degraded = True

    def _on_shard_lost(self, shard: int, lost_events: int) -> None:
        """Backend callback: a shard was abandoned.  Clear its pending
        bookkeeping so seq emission and barriers cannot wait forever on
        responses that will never come."""
        self._degraded = True
        open_batch = self._open_batches[shard]
        if open_batch is not None:
            lost_events += sum(1 for entry in open_batch[1]
                               if entry[0] == EVENT_ENTRY)
            self._open_batches[shard] = None
        for key in [key for key in self._batch_seqs if key[0] == shard]:
            for seq in self._batch_seqs.pop(key):
                state = self._seq_states.get(seq)
                if state is not None:
                    state.pending.discard(key)
        self.events_lost += lost_events
        self._metrics.shard(shard).events_lost += lost_events

    def drain(self) -> list[tuple[str, CompositeEvent]]:
        """Barrier: seal every open batch and wait out all outstanding
        responses, emitting the now-complete seqs in order.  Used as a
        checkpoint fence — afterwards every match for every routed event
        has been emitted, on any backend.  The stream stays open."""
        if self._flushed:
            return []
        if self._backend is not None:
            for shard in range(self.config.shards):
                self._seal(shard)
            while self._backend.outstanding():
                self._handle(self._backend.wait())
        return self._emit_ready()

    # -- end of stream --------------------------------------------------------

    def flush(self) -> list[tuple[str, CompositeEvent]]:
        """Drain every shard, emit the remaining seqs in order, then
        interleave the flush phase exactly as a single-process flush
        would (producers before their INTO consumers, cascade results
        glued behind the flush result that triggered them)."""
        if self._flushed:
            return []
        self._flushed = True
        emitted: list[tuple[str, CompositeEvent]] = []
        if self._backend is not None:
            for shard in range(self.config.shards):
                self._seal(shard)
            self._backend.send_flush(1)
            while self._backend.outstanding():
                self._handle(self._backend.wait())
        emitted.extend(self._emit_ready())
        if self._seq_states:  # pragma: no cover - internal invariant
            raise SaseError(
                f"{len(self._seq_states)} event(s) never completed "
                f"across the shards")

        local_flush = self._processor._flush_queries(
            only=self._local_names) if self._local_names else []
        flush_rank = self._processor.flush_ranks()
        worker_groups: dict[int, list] = {}
        for rank, end, shard, idx, result in self._flush_worker:
            name = self._name_by_rank[rank]
            worker_groups.setdefault(flush_rank[name], []).append(
                (end, shard, idx, name, result))
        local_groups: dict[int, list] = {}
        for name, result, trigger_rank in local_flush:
            local_groups.setdefault(trigger_rank, []).append(
                (name, result))
        for rank in sorted(set(worker_groups) | set(local_groups)):
            group = worker_groups.get(rank, [])
            group.sort(key=lambda item: (item[0], item[1], item[2]))
            emitted.extend((item[3], item[4]) for item in group)
            emitted.extend(local_groups.get(rank, ()))
        if self._backend is not None:
            self._backend.stop()
        return self._flag_degraded(emitted)

    def close(self) -> None:
        """Stop the backend *without* the flush protocol: a bounded
        shutdown that succeeds even when a worker is wedged.  In-flight
        results are discarded; the router cannot be fed afterwards."""
        if self._backend is not None and not self._flushed:
            self._flushed = True
            self._backend.stop()

    # -- introspection --------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self._degraded

    def supervisor_states(self) -> dict[int, str]:
        """Breaker state per shard (empty when unsupervised)."""
        return (self._supervisor.states()
                if self._supervisor is not None else {})

    def worker_pids(self) -> dict[int, int]:
        """Worker process ids (process backend only; empty otherwise)."""
        return self._backend.worker_pids() if self._backend else {}
