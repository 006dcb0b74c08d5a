"""The fully wired SASE system (Figure 1).

``SaseSystem`` owns every layer: the store layout and simulated readers at
the bottom, the five-stage cleaning pipeline, the complex event processor
with its continuous queries, the event database, and observation taps for
the UI panels.  ``process_tick`` moves one scan's raw readings through the
whole stack; ``run_simulation`` drives a scripted scenario end to end.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable, Mapping, TYPE_CHECKING

from repro.cleaning.pipeline import CleaningConfig, CleaningPipeline
from repro.core.plan import PlanConfig
from repro.db.eventdb import EventDatabase
from repro.events.event import CompositeEvent, Event
from repro.events.model import SchemaRegistry
from repro.funcs.registry import FunctionRegistry, default_registry
from repro.ons.service import ObjectNameService
from repro.rfid.layout import StoreLayout
from repro.rfid.simulator import RawReading
from repro.schemas import retail_registry
from repro.system.context import SystemContext
from repro.system.processor import ComplexEventProcessor, QueryKind, \
    RegisteredQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.persist.config import PersistenceConfig
    from repro.persist.manager import RecoveryReport
    from repro.resilience.config import ResilienceConfig
    from repro.sharding.config import ShardingConfig


class TapLine:
    """A default tap line, ``[name] <infix>key=value, ...``, formatted
    only when a reader asks for it: taps keep their latest ``limit``
    lines, so most lines recorded are never read."""

    __slots__ = ("name", "infix", "attributes")

    def __init__(self, name: str, infix: str,
                 attributes: Mapping[str, object]):
        self.name = name
        self.infix = infix
        self.attributes = attributes

    def __str__(self) -> str:
        attrs = ", ".join(f"{key}={value}" for key, value
                          in self.attributes.items())
        return f"[{self.name}] {self.infix}{attrs}"


class SystemTaps:
    """Observation points for the UI (the right-hand panels of Figure 3).

    Each tap keeps its latest ``limit`` entries.  Messages and database
    reports may be recorded as :class:`TapLine`; they read back as
    strings.
    """

    _TAPS = ("_cleaning_output", "_stream_results", "_database_reports",
             "_messages")

    def __init__(self, limit: int = 1000):
        self._cleaning_output: deque[Event]
        self._stream_results: deque[tuple[str, CompositeEvent]]
        self._database_reports: deque[str | TapLine]
        self._messages: deque[str | TapLine]
        self.limit = limit

    @property
    def limit(self) -> int:
        return self._limit

    @limit.setter
    def limit(self, limit: int) -> None:
        """Keep the latest *limit* entries per tap from now on."""
        self._limit = limit
        for name in self._TAPS:
            setattr(self, name, deque(getattr(self, name, ()), maxlen=limit))

    @property
    def cleaning_output(self) -> list[Event]:
        return list(self._cleaning_output)

    @property
    def stream_results(self) -> list[tuple[str, CompositeEvent]]:
        return list(self._stream_results)

    @property
    def database_reports(self) -> list[str]:
        return [str(line) for line in self._database_reports]

    @property
    def messages(self) -> list[str]:
        return [str(line) for line in self._messages]

    def record_events(self, events: Iterable[Event]) -> None:
        self._cleaning_output.extend(events)

    def record_result(self, name: str, result: CompositeEvent) -> None:
        self._stream_results.append((name, result))

    def record_report(self, text: str | TapLine) -> None:
        self._database_reports.append(text)

    def record_message(self, text: str | TapLine) -> None:
        self._messages.append(text)


class SaseSystem:
    """All SASE layers wired together."""

    def __init__(self, layout: StoreLayout, ons: ObjectNameService,
                 registry: SchemaRegistry | None = None,
                 cleaning_config: CleaningConfig | None = None,
                 plan_config: PlanConfig | None = None,
                 functions: FunctionRegistry | None = None,
                 event_db: EventDatabase | None = None,
                 sharding: "ShardingConfig | None" = None,
                 persistence: "PersistenceConfig | None" = None,
                 resilience: "ResilienceConfig | None" = None):
        self.layout = layout
        self.ons = ons
        self.registry = registry or retail_registry()
        self.event_db = event_db or EventDatabase()
        self.context = SystemContext(event_db=self.event_db, ons=ons)
        self.functions = functions or default_registry()
        # Resilience layer (default off): quarantine at the cleaning
        # boundary, seeded chaos injection, shard supervision via the
        # router, transient-I/O retry inside persistence.
        self.resilience = resilience
        self.dead_letters = None
        self._injector = None
        if resilience is not None:
            from repro.resilience import DeadLetterQueue, FaultInjector
            if resilience.quarantine or resilience.dead_letter_path:
                self.dead_letters = DeadLetterQueue(
                    resilience.dead_letter_path)
                self.dead_letters.on_record = self._on_dead_letter
            chaos = resilience.chaos_config()
            if chaos is not None:
                self._injector = FaultInjector(chaos, scope="system",
                                               on_fault=self._on_fault)
        self.cleaning = CleaningPipeline(layout, ons, cleaning_config,
                                         quarantine=self.dead_letters)
        self.processor = ComplexEventProcessor(
            self.registry, functions=self.functions, system=self.context,
            config=plan_config, sharding=sharding, resilience=resilience)
        self.taps = SystemTaps()
        self._message_formatters: dict[str, Callable[[CompositeEvent],
                                                     str]] = {}
        self._exporter = None
        self._sync_reference_data(self.event_db)
        self.persistence = None
        if persistence is not None:
            from repro.persist.manager import PersistenceManager
            self.persistence = PersistenceManager(persistence, self,
                                                  injector=self._injector)

    def _sync_reference_data(self, event_db: EventDatabase) -> None:
        """Mirror layout areas and ONS products into *event_db* so
        RETURN-clause lookups (``_retrieveLocation``) can answer."""
        for area in self.layout.areas.values():
            event_db.register_area(area.area_id, area.kind.value,
                                   area.description)
        for record in self.ons:
            event_db.register_product(
                record.tag_id, record.product_name,
                category=record.category, price=record.price,
                expiration_date=record.expiration_date,
                saleable=record.saleable)

    # -- persistence hooks ----------------------------------------------------

    def recover(self) -> "RecoveryReport | None":
        """Run crash recovery against the configured data directory:
        restore the latest checkpoint, replay the WAL with exactly-once
        suppression, and re-fire callbacks for the suppressed (already
        durable) matches so the taps reflect the full history.  Returns
        the report, or None when persistence is off.  Call after
        registering queries, before the first live event."""
        if self.persistence is None:
            return None
        report = self.persistence.recover()
        for name, result in report.suppressed_matches:
            self.processor._deliver(self.processor.query(name), result)
        return report

    def adopt_event_db(self, event_db: EventDatabase) -> None:
        """Swap the live event database (checkpoint restoration).  The
        system context is shared with every query runtime, so built-in
        functions see the new database immediately."""
        self.event_db = event_db
        self.context.event_db = event_db

    def scratch_event_db(self) -> EventDatabase:
        """A throwaway database pre-seeded with reference data, used by
        recovery to absorb archiving-rule writes while warming engines
        over pre-checkpoint WAL records."""
        scratch = EventDatabase()
        self._sync_reference_data(scratch)
        return scratch

    def on_replayed_event(self, event: Event) -> None:
        """Recovery observer: replayed events reach the cleaning-output
        tap just as live ones do."""
        self.taps.record_events((event,))

    # -- query registration ---------------------------------------------------

    def register_monitoring_query(
            self, name: str, query: str,
            message: Callable[[CompositeEvent], str] | None = None) \
            -> RegisteredQuery:
        """Register a monitoring query; detections appear on the stream
        results tap and, via *message*, in the Message Results panel."""
        if message is not None:
            self._message_formatters[name] = message
        return self.processor.register(name, query, QueryKind.MONITORING,
                                       on_result=self._on_result)

    def register_archiving_rule(self, name: str,
                                query: str) -> RegisteredQuery:
        """Register a data-transformation rule for archiving."""
        return self.processor.register(name, query,
                                       QueryKind.ARCHIVING_RULE,
                                       on_result=self._on_rule_result)

    def _on_result(self, name: str, result: CompositeEvent) -> None:
        self.taps.record_result(name, result)
        formatter = self._message_formatters.get(name)
        if formatter is not None:
            self.taps.record_message(formatter(result))
        else:
            self.taps.record_message(TapLine(name, "", result.attributes))

    def _on_rule_result(self, name: str, result: CompositeEvent) -> None:
        self.taps.record_report(
            TapLine(name, "database update: ", result.attributes))
        tracer = self.processor.tracer
        if tracer is not None:
            tracer.record("db_write", query=name, ts=result.end,
                          detail={"attributes": dict(result.attributes)})

    # -- resilience hooks ---------------------------------------------------------

    @property
    def injector(self):
        """The system-scope chaos injector, or None (chaos off)."""
        return self._injector

    def _on_fault(self, site: str, count: int) -> None:
        tracer = self.processor.tracer
        if tracer is not None:
            tracer.record("fault", detail={"site": site, "count": count},
                          trace_id=-1)

    def _on_dead_letter(self, record) -> None:
        tracer = self.processor.tracer
        if tracer is not None:
            tracer.record("quarantine", ts=record.ingest_time,
                          detail={"stage": record.stage,
                                  "error": record.error},
                          trace_id=-1)

    def close(self) -> None:
        """Shut the system down: bounded shard-worker shutdown (a wedged
        worker cannot hang this), then persistence and the dead-letter
        file.  Emits nothing; use ``processor.flush()`` first when the
        remaining matches are wanted.  Idempotent."""
        self.processor.close()
        if self.persistence is not None:
            self.persistence.close()
        if self.dead_letters is not None:
            self.dead_letters.close()

    # -- observability ------------------------------------------------------------

    def enable_tracing(self, capacity: int = 4096):
        """Turn on dataflow tracing for the whole system: cleaning-tick
        spans plus the processor's per-event operator spans."""
        return self.processor.enable_tracing(capacity)

    def attach_exporter(self, exporter) -> None:
        """Attach a :class:`~repro.obs.export.MetricsExporter`; its tick
        cadence is driven by processed events, so a long-running system
        flushes metrics periodically without caller bookkeeping."""
        self._exporter = exporter

    @property
    def exporter(self):
        return self._exporter

    # -- data flow ----------------------------------------------------------------

    def process_tick(self, readings: Iterable[RawReading], now: float) \
            -> list[tuple[str, CompositeEvent]]:
        """One scan tick: raw readings -> cleaning -> processor."""
        injector = self._injector
        if injector is not None and injector.armed("ingest."):
            from repro.resilience.chaos import mangle_readings
            readings = mangle_readings(injector, list(readings))
        tracer = self.processor.tracer
        if tracer is not None:
            readings = list(readings)
            started = time.perf_counter()
            events = self.cleaning.process_tick(readings, now)
            # Tick-level spans precede any event's trace context, so they
            # carry the TICK_CONTEXT id (-1): cleaning smooths/filters the
            # raw readings, association resolves tags to products and
            # emits the typed events about to be fed.
            tracer.record("clean", ts=now,
                          duration=time.perf_counter() - started,
                          detail={"readings": len(readings),
                                  "events": len(events)},
                          trace_id=-1)
            if events:
                tracer.record("associate", ts=now,
                              detail={"event_types": sorted(
                                  {event.type for event in events})},
                              trace_id=-1)
        else:
            events = self.cleaning.process_tick(readings, now)
        persistence = self.persistence
        fed = events
        if persistence is not None:
            # The WAL append and checkpoint cadence are fused into the
            # processor's feed (set_persistence_hooks); the liveness
            # guard runs once per tick.
            persistence.require_live()
            # Skip what recovery already replayed from the WAL.
            fed = [event for event in events
                   if not persistence.should_skip(event)]
        # One cleaned tick is one batch; the router, when sharded, still
        # seals shard batches at its own batch_size.
        produced = self.processor.feed_batch(fed)
        self.taps.record_events(fed)
        if self._exporter is not None and fed:
            self._exporter.tick(len(fed))
        return produced

    def run_simulation(self,
                       ticks: Iterable[tuple[float, list[RawReading]]],
                       flush: bool = True) \
            -> list[tuple[str, CompositeEvent]]:
        """Drive a whole simulated scenario through the system."""
        produced: list[tuple[str, CompositeEvent]] = []
        for now, readings in ticks:
            produced.extend(self.process_tick(readings, now))
        if flush:
            produced.extend(self.processor.flush())
            if self.persistence is not None:
                # End of stream: the flush results above went through
                # the delivery gate into the out log; seal the run with
                # a final checkpoint.
                produced.extend(self.persistence.finalize())
        return produced

    # -- ad-hoc database access -------------------------------------------------

    def query_database(self, sql: str) -> list[dict]:
        """Ad-hoc SQL over the event database (the UI's bottom pane)."""
        rows = self.event_db.db.query(sql)
        self.taps.record_report(f"[ad-hoc] {sql.strip()} -> {len(rows)} "
                                f"row(s)")
        return rows
