"""Per-layer probes and the per-layer metrics of one traced pass.

Span recorders are installed from outside, on the instances the
benchmark built, around each layer's public entry points.  Nothing in
the program is switched on: the tracer, the slow-feed log and scan
profiling each force the processor's per-event path, so the benchmark
never enables them and checks they stay off.
"""

from __future__ import annotations

import resource

from spans import SpanRecorder, totals

CLEANING_STAGES = ("anomaly", "smoothing", "timeconv", "dedup", "eventgen")
SCAN_SPANS = ("core.scan.feed", "core.scan.batch", "core.scan.advance",
              "core.scan.flush")
DB_METHODS = ("product_info", "area_description", "update_location",
              "update_containment", "archive_event", "current_location",
              "movement_history", "current_containment",
              "containment_history", "current_contents", "trace")
TAP_METHODS = ("record_events", "record_result", "record_report",
               "record_message")


def _one(args, kwargs) -> int:
    return 1


def _first_len(args, kwargs) -> int:
    return len(args[0])


def _grouped_len(out) -> int:
    return sum(len(results) for results in out)


def _rows(out) -> int:
    """Rows a database call read or changed."""
    if isinstance(out, list):
        return len(out)
    return int(bool(out))


def install(recorder: SpanRecorder, harness) -> None:
    """Wrap every layer entry point of *harness*'s system."""
    processor = harness.processor
    wrap = recorder.wrap
    wrap(processor, "feed", "system.feed", _one, len)
    wrap(processor, "feed_batch", "system.feed", _first_len, len)
    wrap(processor, "flush", "system.flush", None, len)
    for registered in processor.queries():
        runtime = registered.runtime
        wrap(runtime, "feed", "core.scan.feed", _one, len)
        wrap(runtime, "feed_batch", "core.scan.batch", _first_len, len)
        wrap(runtime, "feed_batch_grouped", "core.scan.batch", _first_len,
             _grouped_len)
        wrap(runtime, "advance", "core.scan.advance", None, len)
        wrap(runtime, "flush", "core.scan.flush", None, len)
    system = harness.system
    if system is None:
        return
    cleaning = system.cleaning
    wrap(cleaning, "process_tick", "cleaning",
         lambda args, kwargs: len(args[0]), len)
    for stage in CLEANING_STAGES:
        wrap(getattr(cleaning, stage), "process", f"cleaning.{stage}")
    for method in TAP_METHODS:
        wrap(system.taps, method, "system.deliver")
    wrap(system.functions, "call", "funcs")
    for method in DB_METHODS:
        wrap(system.event_db, method, "db", None, _rows)
    if system.persistence is not None:
        wrap(system.persistence, "checkpoint", "persist.checkpoint")
        wrap(system.persistence, "finalize", "persist.finalize")


def _family(name: str) -> str | None:
    if name.startswith("core.scan."):
        return "core"
    if name == "db":
        return "db"
    return None


def assert_untraced(processor) -> None:
    """The in-program switches that change the execution path are off."""
    if processor.tracer is not None or processor.slow_feed_log is not None \
            or processor.scan_profiles():
        raise RuntimeError("an in-program tracing switch is on")


def runtime_counts(processor) -> tuple[int, int]:
    """(runtime calls, events into runtimes) from the processor's
    always-on metrics.  The per-query collector samples one latency per
    runtime call that consumed events, so equal counts in two passes mean
    the events entered the runtimes in the same batches."""
    calls = events = 0
    for metrics in processor.metrics.queries.values():
        calls += metrics._sampled
        events += metrics.events_in
    return calls, events


def counters(harness) -> dict[str, float]:
    """The always-on counters of one closed system that per-layer
    metrics are made from."""
    processor = harness.processor
    found: dict[str, float] = {"scan.consumed": 0, "scan.compiled": 0}
    for registered in processor.queries():
        runtime = registered.runtime
        found["scan.consumed"] += runtime.stats.events_consumed
        if runtime.scan_compiled:
            found["scan.compiled"] += runtime.stats.events_consumed
    system = harness.system
    if system is not None:
        stages = system.cleaning.stats
        anomaly = stages.stage("anomaly_filter")
        found["cleaning.readings_in"] = anomaly.consumed
        found["cleaning.anomaly.dropped"] = anomaly.dropped
        found["cleaning.events_out"] = \
            stages.stage("event_generation").produced
        found["cleaning.dedup.dropped"] = \
            stages.stage("deduplication").dropped
        if system.persistence is not None:
            gauges = system.persistence.gauges()
            found["persist.wal.records"] = gauges["wal_records"]
            found["persist.wal.bytes"] = gauges["wal_bytes"]
            found["persist.wal.fsyncs"] = gauges["wal_fsyncs"]
            found["persist.checkpoints"] = gauges["checkpoints_written"]
    for index, shard in processor.metrics.shards.items():
        found[f"shard.{index}.routed"] = shard.events_routed
        for name, value in (
                ("events_routed", shard.events_routed),
                ("batches_sent", shard.batches_sent),
                ("bytes_sent", shard.ring_bytes_sent),
                ("bytes_received", shard.ring_bytes_received),
                ("queue_full_stalls", shard.queue_full_stalls),
                ("spin_waits", shard.spin_waits),
                ("park_waits", shard.park_waits),
                ("pipe_fallbacks", shard.pipe_fallbacks)):
            key = f"sharding.{name}"
            found[key] = found.get(key, 0) + value
    return found


def children_cpu_s() -> float:
    """CPU time of the reaped child processes (the shard workers)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


COUNTED = ("cleaning.readings_in", "cleaning.events_out",
           "cleaning.anomaly.dropped", "cleaning.dedup.dropped",
           "persist.wal.records", "persist.wal.bytes", "persist.wal.fsyncs",
           "persist.checkpoints", "sharding.events_routed",
           "sharding.batches_sent", "sharding.bytes_sent",
           "sharding.bytes_received", "sharding.queue_full_stalls",
           "sharding.spin_waits", "sharding.park_waits",
           "sharding.pipe_fallbacks")


def layer_metrics(recorder: SpanRecorder, counts: dict[str, float],
                  wall_s: float, worker_cpu_s: float) -> dict[str, float]:
    """Every per-layer metric of a traced pass except the loadgen, py
    and trace-overhead ones, which come from the other passes."""
    found = totals(recorder, _family)
    self_s, calls = found.self_s, found.calls
    metrics: dict[str, float] = {
        "cleaning.self_s": self_s.get("cleaning", 0.0),
        "system.feed.calls": calls.get("system.feed", 0),
        "system.feed.self_s": self_s.get("system.feed", 0.0),
        "system.deliver.self_s": self_s.get("system.deliver", 0.0),
        "system.flush.self_s": self_s.get("system.flush", 0.0),
        "funcs.calls": calls.get("funcs", 0),
        "funcs.self_s": self_s.get("funcs", 0.0),
        "db.calls": calls.get("db", 0),
        "db.self_s": self_s.get("db", 0.0),
        "db.rows": found.items_out.get("db", 0),
        "persist.checkpoint.self_s": self_s.get("persist.checkpoint", 0.0),
        "persist.finalize.self_s": self_s.get("persist.finalize", 0.0),
    }
    for stage in CLEANING_STAGES:
        metrics[f"cleaning.{stage}.self_s"] = \
            self_s.get(f"cleaning.{stage}", 0.0)
    scan_events = sum(found.items_in.get(name, 0) for name in SCAN_SPANS)
    metrics["core.scan.self_s"] = sum(self_s.get(name, 0.0)
                                      for name in SCAN_SPANS)
    metrics["core.scan.events"] = scan_events
    metrics["core.scan.results"] = sum(found.items_out.get(name, 0)
                                       for name in SCAN_SPANS)
    metrics["core.batch_share"] = \
        found.items_in.get("core.scan.batch", 0) / scan_events \
        if scan_events else 0.0
    consumed = counts.get("scan.consumed", 0)
    metrics["core.compiled_share"] = \
        counts.get("scan.compiled", 0) / consumed if consumed else 0.0
    for name in COUNTED:
        metrics[name] = counts.get(name, 0)
    routed = [value for key, value in counts.items()
              if key.startswith("shard.")]
    metrics["sharding.skew"] = max(routed) * len(routed) / sum(routed) \
        if routed and sum(routed) else 0.0
    metrics["sharding.worker_cpu_s"] = worker_cpu_s
    metrics["trace.wall_s"] = wall_s
    # The self times add up to the top-level spans' time, so with the
    # glue they add up to the wall time.
    metrics["trace.glue_s"] = wall_s - found.top_level_s
    return metrics
