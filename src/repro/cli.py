"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run the paper's retail demonstration scenario and render
                  the Figure 3 UI panels;
* ``warehouse`` — run the supply-chain history through the archival rules
                  and print track-and-trace answers;
* ``explain``   — compile a query and print its plan;
* ``run``       — execute a query over events from a JSON-lines file;
* ``bench``     — a quick plan comparison on a synthetic stream;
* ``serve``     — run the multi-tenant query service over TCP;
* ``client``    — register/withdraw/subscribe/feed against a server.

Event files are JSON lines: ``{"type": "A", "timestamp": 1.0,
"attributes": {"id": 7}}``.  Schema files map type names to attribute
types: ``{"A": {"id": "int", "name": "string"}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any, Iterable, Sequence, TextIO

from repro.core.engine import Engine
from repro.core.plan import PlanConfig
from repro.errors import SaseError
from repro.events.event import Event
from repro.events.model import AttributeType, SchemaRegistry
from repro.rfid import NoiseModel
from repro.schemas import retail_registry
from repro.obs import MetricsExporter
from repro.persist import FsyncPolicy, PersistenceConfig
from repro.sharding import BACKENDS, TRANSPORTS, ShardingConfig
from repro.system import SaseSystem
from repro.ui import SaseConsole, format_trace_lines
from repro.workloads import (
    CONTAINMENT_RULE,
    LOCATION_UPDATE_RULE,
    MISPLACED_INVENTORY_QUERY,
    RetailConfig,
    RetailScenario,
    SHOPLIFTING_QUERY,
    UNPACK_RULE,
    WarehouseConfig,
    WarehouseHistory,
)

_NOISE_PRESETS = {
    "none": NoiseModel.perfect(),
    "mild": NoiseModel(miss_rate=0.05, duplicate_rate=0.05,
                       truncate_rate=0.01, ghost_rate=0.005),
    "harsh": NoiseModel.harsh(),
}

_TYPE_WORDS = {
    "int": AttributeType.INT,
    "float": AttributeType.FLOAT,
    "string": AttributeType.STRING,
    "bool": AttributeType.BOOL,
}


def main(argv: Sequence[str] | None = None,
         out: TextIO | None = None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args, out)
    except SaseError as exc:
        # Usage-class failures (malformed query, bad --chaos spec,
        # mismatched manifest): one line, exit 2 — the argparse
        # convention — never a traceback.
        print(f"error: {exc}", file=out)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=out)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SASE: complex event processing over streams "
                    "(CIDR 2007 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    demo = commands.add_parser(
        "demo", help="run the retail-store demonstration")
    demo.add_argument("--seed", type=int, default=2007)
    demo.add_argument("--noise", choices=sorted(_NOISE_PRESETS),
                      default="mild")
    demo.add_argument("--products", type=int, default=30)
    demo.add_argument("--shoppers", type=int, default=6)
    demo.add_argument("--shoplifters", type=int, default=2)
    demo.add_argument("--misplacements", type=int, default=2)
    demo.add_argument("--shards", type=int, default=1,
                      help="worker shards for the parallel runtime "
                           "(default: 1, classic single-process)")
    demo.add_argument("--shard-backend", choices=BACKENDS,
                      default="inline",
                      help="shard executor: inline (deterministic, "
                           "in-process), thread, process, or remote "
                           "(TCP worker daemons; see --shard-workers)")
    demo.add_argument("--shard-transport", choices=TRANSPORTS,
                      default="ring",
                      help="process-backend IPC: ring (shared-memory "
                           "ring buffers, default) or pipe (classic "
                           "pickle over multiprocessing queues); "
                           "ignored by other backends")
    demo.add_argument("--shard-workers", metavar="HOST:PORT,...",
                      help="remote backend only: one worker endpoint "
                           "per shard (start each with 'repro worker'; "
                           "localhost endpoints nothing listens on are "
                           "spawned and supervised automatically)")
    demo.add_argument("--shard-secret", metavar="SECRET",
                      help="remote backend only: shared secret keying "
                           "the worker handshake — a literal, env:NAME, "
                           "or file:PATH (give every 'repro worker' the "
                           "same one)")
    demo.add_argument("--data-dir", metavar="DIR",
                      help="durable persistence: write-ahead log, "
                           "checkpoints, and the match log live here; "
                           "re-running with the same DIR recovers and "
                           "resumes after a crash")
    demo.add_argument("--fsync", default="every_n:64", metavar="POLICY",
                      help="WAL fsync cadence: always, never, or "
                           "every_n:N (default: every_n:64)")
    demo.add_argument("--checkpoint-every", type=int, default=256,
                      metavar="N",
                      help="events between checkpoints; 0 keeps only "
                           "the final one (default: 256)")
    # Fault injection for the differential crash tests: SIGKILL the
    # whole process group right after the Nth WAL append.
    demo.add_argument("--crash-after", type=int, help=argparse.SUPPRESS)
    demo.add_argument("--chaos", metavar="SPEC",
                      help="deterministic fault injection, e.g. "
                           "'ingest.corrupt=0.02,worker.crash@40' "
                           "(see docs/resilience.md for the grammar)")
    demo.add_argument("--chaos-seed", type=int, default=0,
                      help="seed for the chaos schedule (default: 0)")
    demo.add_argument("--dead-letter", metavar="PATH",
                      help="persist quarantined readings to a JSON-lines "
                           "dead-letter file (inspect/replay with "
                           "'repro deadletter')")
    demo.add_argument("--shed", default="block", metavar="POLICY",
                      help="overload policy for full shard queues: "
                           "block (default, lossless), drop-newest, "
                           "drop-oldest, or sample:P")
    demo.add_argument("--trace", type=int, metavar="TAG",
                      help="print the movement history of one tag")
    demo.add_argument("--metrics-out", metavar="PATH",
                      help="write a metrics snapshot after the run "
                           "(.prom/.txt: Prometheus text, else JSON)")
    demo.add_argument("--trace-out", metavar="PATH",
                      help="record dataflow traces and dump them as "
                           "JSON lines")
    demo.set_defaults(handler=_cmd_demo)

    trace = commands.add_parser(
        "trace", help="run the retail demo with dataflow tracing and "
                      "render one query's intermediate-stream view")
    trace.add_argument("--query", default="shoplifting",
                       help="query to trace (default: shoplifting)")
    trace.add_argument("--seed", type=int, default=2007)
    trace.add_argument("--products", type=int, default=12)
    trace.add_argument("--shoppers", type=int, default=3)
    trace.add_argument("--shoplifters", type=int, default=1)
    trace.add_argument("--shards", type=int, default=1)
    trace.add_argument("--shard-backend", choices=BACKENDS,
                       default="inline")
    trace.add_argument("--shard-transport", choices=TRANSPORTS,
                       default="ring")
    trace.add_argument("--shard-workers", metavar="HOST:PORT,...")
    trace.add_argument("--shard-secret", metavar="SECRET")
    trace.add_argument("--limit", type=int, default=12,
                       help="show at most N traces (default: 12)")
    trace.add_argument("--jsonl", metavar="PATH",
                       help="also dump the selected spans as JSON lines")
    trace.add_argument("--slow-feed-ms", type=float, default=0.0,
                       help="log feeds slower than this many "
                            "milliseconds (0 = off)")
    trace.set_defaults(handler=_cmd_trace)

    recover = commands.add_parser(
        "recover", help="recover a demo --data-dir: restore the latest "
                        "checkpoint, replay the WAL, and report the "
                        "regenerated state without feeding new events")
    recover.add_argument("data_dir", metavar="DATA_DIR")
    recover.add_argument("--fsync", default="every_n:64",
                         metavar="POLICY",
                         help="fsync cadence for the recovered logs")
    recover.add_argument("--shard-secret", metavar="SECRET",
                         help="shared worker secret, needed when the "
                              "recovered manifest uses the remote "
                              "backend (secrets are never written to "
                              "the manifest)")
    recover.set_defaults(handler=_cmd_recover)

    warehouse = commands.add_parser(
        "warehouse", help="supply-chain rules + track-and-trace")
    warehouse.add_argument("--seed", type=int, default=17)
    warehouse.add_argument("--boxes", type=int, default=3)
    warehouse.add_argument("--items-per-box", type=int, default=4)
    warehouse.set_defaults(handler=_cmd_warehouse)

    explain = commands.add_parser(
        "explain", help="print the plan chosen for a query")
    explain.add_argument("query", help="query text, or @file to read one")
    explain.add_argument("--schemas", help="schema JSON file "
                                           "(default: retail schemas)")
    explain.add_argument("--naive", action="store_true",
                         help="plan with all optimizations off")
    explain.set_defaults(handler=_cmd_explain)

    run = commands.add_parser(
        "run", help="run a query over a JSON-lines or CSV event file")
    run.add_argument("query", help="query text, or @file to read one")
    run.add_argument("--events", required=True,
                     help="event file: JSON lines, or CSV when the name "
                          "ends in .csv ('-' for JSON-lines stdin)")
    run.add_argument("--schemas", help="schema JSON file (default: "
                                       "inferred from the events)")
    run.add_argument("--naive", action="store_true")
    run.add_argument("--limit", type=int, default=0,
                     help="print at most N results (0 = all)")
    run.set_defaults(handler=_cmd_run)

    bench = commands.add_parser(
        "bench", help="quick plan comparison on a synthetic stream")
    bench.add_argument("--events", type=int, default=3000)
    bench.add_argument("--window", type=float, default=30.0)
    bench.set_defaults(handler=_cmd_bench)

    serve = commands.add_parser(
        "serve", help="run the multi-tenant query service (JSON-lines "
                      "TCP; see docs/service.md)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: 0 = ephemeral; the "
                            "bound port is printed on startup)")
    serve.add_argument("--schemas", help="schema JSON file "
                                         "(default: retail schemas)")
    serve.add_argument("--manifest", metavar="PATH",
                       help="durable query-set manifest: every "
                            "registration/withdrawal rewrites it "
                            "atomically, and restarting with the same "
                            "PATH restores all tenants and queries")
    serve.add_argument("--max-tenants", type=int, default=1024)
    serve.add_argument("--max-total-queries", type=int, default=4096)
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="admission-queue depth once the service is "
                            "at capacity (default: 64)")
    serve.add_argument("--tenant-max-queries", type=int, default=8,
                       help="default per-tenant query quota (default: 8)")
    serve.add_argument("--tenant-max-events-per-second", type=float,
                       default=0.0,
                       help="default per-tenant ingest rate limit "
                            "(default: 0 = unlimited)")
    serve.add_argument("--tenant-max-pending-results", type=int,
                       default=1024,
                       help="default per-tenant result backlog before "
                            "shedding (default: 1024)")
    serve.add_argument("--no-shared-plans", action="store_true",
                       help="evaluate every tenant query independently "
                            "(disables cross-tenant plan sharing)")
    serve.add_argument("--metrics-out", metavar="PATH",
                       help="write a metrics snapshot (including "
                            "per-tenant gauges) on shutdown")
    serve.set_defaults(handler=_cmd_serve)

    client = commands.add_parser(
        "client", help="talk to a running query service")
    client.add_argument(
        "action", choices=("ping", "register", "withdraw", "subscribe",
                           "feed", "drain", "flush", "stats",
                           "shutdown"),
        help="register TENANT NAME QUERY | withdraw TENANT NAME | "
             "subscribe TENANT --limit N | feed TENANT --events FILE | "
             "drain TENANT | ping | flush | stats | shutdown")
    client.add_argument("tenant", nargs="?")
    client.add_argument("name", nargs="?")
    client.add_argument("query", nargs="?",
                        help="query text, or @file (register)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, required=True)
    client.add_argument("--events", metavar="PATH",
                        help="feed: JSON-lines event file ('-' = stdin)")
    client.add_argument("--limit", type=int, default=0,
                        help="subscribe: stop after N results; "
                             "drain: return at most N")
    client.set_defaults(handler=_cmd_client)

    deadletter = commands.add_parser(
        "deadletter", help="inspect or replay a dead-letter file "
                           "written by 'demo --dead-letter'")
    deadletter.add_argument("action", choices=("list", "replay"))
    deadletter.add_argument("path", metavar="PATH")
    deadletter.add_argument("--limit", type=int, default=20,
                            help="list: show at most N records "
                                 "(default: 20)")
    deadletter.add_argument("--rewrite", action="store_true",
                            help="replay: rewrite PATH keeping only the "
                                 "records that still fail validation")
    deadletter.set_defaults(handler=_cmd_deadletter)

    worker = commands.add_parser(
        "worker", help="serve one remote shard worker: listen for a "
                       "coordinator started with --shard-backend "
                       "remote and run its shard over TCP")
    worker.add_argument("--host", default="127.0.0.1",
                        help="interface to listen on "
                             "(default: 127.0.0.1)")
    worker.add_argument("--port", type=int, default=0,
                        help="port to listen on (default: 0 = pick an "
                             "ephemeral port and print it)")
    worker.add_argument("--once", action="store_true",
                        help="exit after the first coordinator "
                             "session instead of re-accepting")
    worker.add_argument("--shard-secret", metavar="SECRET",
                        help="shared secret the coordinator must prove "
                             "(literal, env:NAME, or file:PATH); "
                             "required")
    worker.add_argument("--chaos", metavar="SPEC",
                        help="arm net.* fault sites on this worker's "
                             "side of each session (for network chaos "
                             "testing)")
    worker.add_argument("--chaos-seed", type=int, default=0,
                        help="seed for the worker-side chaos schedule")
    worker.set_defaults(handler=_cmd_worker)

    return parser


# -- commands ----------------------------------------------------------------

_DEMO_PARAM_KEYS = ("seed", "noise", "products", "shoppers",
                    "shoplifters", "misplacements", "shards",
                    "shard_backend", "shard_transport", "shard_workers",
                    "chaos", "chaos_seed", "shed")
# Keys added after a data directory format already existed: manifests
# written by older runs lack them, so comparison fills in the defaults.
_DEMO_PARAM_DEFAULTS = {"chaos": None, "chaos_seed": 0, "shed": "block",
                        "shard_transport": "ring",
                        "shard_workers": None}
_MANIFEST_NAME = "manifest.json"


def _demo_params(args: argparse.Namespace) -> dict[str, Any]:
    return {key: getattr(args, key, _DEMO_PARAM_DEFAULTS.get(key))
            for key in _DEMO_PARAM_KEYS}


def _validate_shard_params(params: dict[str, Any],
                           secret: str | None = None) -> None:
    """Usage-error validation of the shard arguments, eagerly — before
    any manifest is written, worker spawned, or socket connected — so
    a typo exits 2 without side effects.  Normalizes ``shards`` to the
    endpoint count when the remote backend is given only
    ``--shard-workers``."""
    backend = params.get("shard_backend", "inline")
    transport = params.get("shard_transport", "ring")
    workers = params.get("shard_workers")
    if backend not in BACKENDS:
        raise SaseError(f"unknown shard backend {backend!r}; "
                        f"choose one of {', '.join(BACKENDS)}")
    if transport not in TRANSPORTS:
        raise SaseError(f"unknown shard transport {transport!r}; "
                        f"choose one of {', '.join(TRANSPORTS)}")
    if backend == "remote":
        if not workers:
            raise SaseError("--shard-backend remote needs "
                            "--shard-workers HOST:PORT[,HOST:PORT...]")
        from repro.sharding.remote import parse_endpoints, \
            resolve_secret
        endpoints = parse_endpoints(workers)
        if params.get("shards", 1) == 1:
            params["shards"] = len(endpoints)
        elif params["shards"] != len(endpoints):
            raise SaseError(
                f"--shards {params['shards']} does not match the "
                f"{len(endpoints)} endpoint(s) in --shard-workers")
        if secret is None:
            raise SaseError(
                "--shard-backend remote needs --shard-secret "
                "(a literal, env:NAME, or file:PATH shared with "
                "every worker)")
        resolve_secret(secret)  # unset env var / missing file: exit 2
    elif workers:
        raise SaseError("--shard-workers only applies to "
                        "--shard-backend remote")
    elif secret is not None:
        raise SaseError("--shard-secret only applies to "
                        "--shard-backend remote")
    chaos = params.get("chaos")
    if chaos:
        from repro.resilience.chaos import ChaosConfig
        config = ChaosConfig.parse(chaos, params.get("chaos_seed", 0))
        if config.armed("net.") and backend != "remote":
            raise SaseError("net.* chaos sites only apply to "
                            "--shard-backend remote")


def _build_demo_system(params: dict[str, Any],
                       persistence: PersistenceConfig | None = None,
                       dead_letter_path: str | None = None,
                       shard_secret: str | None = None) \
        -> tuple[RetailScenario, SaseSystem]:
    """The retail demo stack, reconstructible from a manifest: scenario,
    system, and the standard query/rule set."""
    scenario = RetailScenario.generate(RetailConfig(
        n_products=params["products"], n_shoppers=params["shoppers"],
        n_shoplifters=params["shoplifters"],
        n_misplacements=params["misplacements"], seed=params["seed"]))
    sharding = None
    if params["shards"] != 1 or params["shard_backend"] != "inline":
        workers = params.get("shard_workers")
        if workers:
            from repro.sharding.remote import parse_endpoints
            workers = parse_endpoints(workers)
        sharding = ShardingConfig(
            shards=params["shards"], backend=params["shard_backend"],
            transport=params.get("shard_transport", "ring"),
            workers=workers or (),
            secret=(shard_secret
                    if params["shard_backend"] == "remote" else None))
    resilience = None
    if params.get("chaos") or dead_letter_path \
            or params.get("shed", "block") != "block":
        from repro.resilience import ResilienceConfig
        resilience = ResilienceConfig(
            chaos=params.get("chaos"),
            chaos_seed=params.get("chaos_seed", 0),
            dead_letter_path=dead_letter_path,
            shedding=params.get("shed", "block"))
    system = SaseSystem(scenario.layout, scenario.ons,
                        sharding=sharding, persistence=persistence,
                        resilience=resilience)
    system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
    system.register_monitoring_query("misplaced",
                                     MISPLACED_INVENTORY_QUERY)
    for event_type in ("SHELF_READING", "COUNTER_READING",
                       "EXIT_READING"):
        system.register_archiving_rule(f"loc_{event_type}",
                                       LOCATION_UPDATE_RULE(event_type))
    return scenario, system


def _check_manifest(data_dir: str, params: dict[str, Any]) -> None:
    """Pin the demo arguments to the data directory: recovery replays
    the WAL against a re-generated source, so resuming with different
    arguments would silently diverge.  First run writes the manifest;
    later runs must match it."""
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, _MANIFEST_NAME)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            recorded = json.load(handle)
        recorded = {**_DEMO_PARAM_DEFAULTS, **recorded}
        if recorded != params:
            changed = sorted(key for key in set(recorded) | set(params)
                             if recorded.get(key) != params.get(key))
            raise SaseError(
                f"{data_dir} was created by a demo run with different "
                f"arguments (changed: {', '.join(changed)}); use the "
                f"original arguments or a fresh --data-dir")
        return
    temp_path = f"{path}.tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        json.dump(params, handle, indent=2, sort_keys=True)
    os.replace(temp_path, path)


def _read_manifest(data_dir: str) -> dict[str, Any]:
    path = os.path.join(data_dir, _MANIFEST_NAME)
    if not os.path.exists(path):
        raise SaseError(f"{data_dir}: no {_MANIFEST_NAME}; not a demo "
                        f"data directory")
    with open(path, encoding="utf-8") as handle:
        return {**_DEMO_PARAM_DEFAULTS, **json.load(handle)}


def _print_persistence_summary(system: SaseSystem, report,
                               out: TextIO) -> None:
    gauges = system.persistence.gauges()
    print("\npersistence:", file=out)
    if report is not None and (report.replayed_events
                               or report.scratch_events
                               or report.durable_matches):
        restored = "none" if report.checkpoint_lsn is None \
            else f"lsn {report.checkpoint_lsn}"
        print(f"  recovered: checkpoint {restored}, "
              f"{report.scratch_events + report.replayed_events} "
              f"event(s) replayed, {len(report.suppressed_matches)} "
              f"durable match(es) suppressed "
              f"({report.elapsed_seconds * 1e3:.0f} ms)", file=out)
    print(f"  wal: {gauges['wal_records']} record(s) in "
          f"{gauges['wal_segments']} segment(s), "
          f"{gauges['wal_bytes']} bytes, {gauges['wal_fsyncs']} "
          f"fsync(s)", file=out)
    print(f"  checkpoints: {gauges['checkpoints_written']} written; "
          f"out log: {gauges['out_records']} durable match(es)",
          file=out)


def _print_resilience_summary(system: SaseSystem, out: TextIO) -> None:
    print("\nresilience:", file=out)
    injector = system.injector
    if injector is not None:
        injected = {site: count for site, count
                    in sorted(injector.injected.items()) if count}
        described = ", ".join(f"{site} x{count}" for site, count
                              in injected.items()) or "none fired"
        print(f"  chaos: {described}", file=out)
    if system.dead_letters is not None:
        where = system.dead_letters.path or "in memory"
        print(f"  dead letters: {len(system.dead_letters)} record(s) "
              f"({where})", file=out)
    degraded = getattr(system.processor, "degraded", False)
    print(f"  degraded: {'yes — results may be incomplete' if degraded else 'no'}",
          file=out)


def _cmd_demo(args: argparse.Namespace, out: TextIO) -> None:
    params = _demo_params(args)
    _validate_shard_params(params, secret=args.shard_secret)
    persistence = None
    if args.data_dir:
        _check_manifest(args.data_dir, params)
        persistence = PersistenceConfig(
            data_dir=args.data_dir,
            fsync=FsyncPolicy.parse(args.fsync),
            checkpoint_every=args.checkpoint_every,
            crash_after=args.crash_after)
    elif args.crash_after is not None:
        raise SaseError("--crash-after requires --data-dir")
    scenario, system = _build_demo_system(
        params, persistence, dead_letter_path=args.dead_letter,
        shard_secret=args.shard_secret)
    if args.trace_out:
        system.enable_tracing()
    report = system.recover() if persistence is not None else None
    results = list(report.recovered_matches) if report is not None \
        else []
    results += system.run_simulation(
        scenario.ticks(_NOISE_PRESETS[args.noise]))

    detected = {r["x_TagId"] for name, r in results
                if name == "shoplifting"}
    misplaced = {r["x_TagId"] for name, r in results
                 if name == "misplaced"}
    print(f"shoplifted: truth={sorted(scenario.truth.shoplifted_tags())} "
          f"detected={sorted(detected)}", file=out)
    print(f"misplaced:  truth={sorted(scenario.truth.misplaced_tags())} "
          f"detected={sorted(misplaced)}", file=out)
    print(SaseConsole(system, max_lines=6).render(), file=out)
    if system.processor.sharding is not None:
        transport = (f", {args.shard_transport} transport"
                     if args.shard_backend == "process" else "")
        if args.shard_backend == "remote":
            transport = f", workers {args.shard_workers}"
        print(f"\nsharded runtime ({params['shards']} shard(s), "
              f"{args.shard_backend} backend{transport}):", file=out)
        plan = system.processor.shard_plan
        if plan is not None:
            for line in plan.describe().splitlines():
                print(f"  {line}", file=out)
        for line in system.processor.metrics.report_lines():
            print(f"  {line}", file=out)
    if args.trace is not None:
        print(f"\ntrace for tag {args.trace}:", file=out)
        for entry in system.event_db.movement_history(args.trace):
            print(f"  area {entry['area_id']} ({entry['description']}) "
                  f"[{entry['time_in']:g} .. "
                  f"{entry['time_out'] if entry['time_out'] is not None else 'now'}]",
                  file=out)
    if system.persistence is not None:
        _print_persistence_summary(system, report, out)
    if system.resilience is not None:
        _print_resilience_summary(system, out)
    if args.metrics_out:
        exporter = MetricsExporter(system.processor, args.metrics_out,
                                   persistence=system.persistence)
        exporter.flush()
        print(f"\nmetrics snapshot ({exporter.fmt}) written to "
              f"{args.metrics_out}", file=out)
    if args.trace_out:
        count = system.processor.tracer.dump_jsonl(args.trace_out)
        print(f"{count} trace span(s) written to {args.trace_out}",
              file=out)
    system.close()


def _cmd_recover(args: argparse.Namespace, out: TextIO) -> None:
    params = _read_manifest(args.data_dir)
    persistence = PersistenceConfig(data_dir=args.data_dir,
                                    fsync=FsyncPolicy.parse(args.fsync))
    _, system = _build_demo_system(params, persistence,
                                   shard_secret=args.shard_secret)
    report = system.recover()
    restored = "no checkpoint" if report.checkpoint_lsn is None \
        else f"checkpoint at lsn {report.checkpoint_lsn}"
    print(f"recovered {args.data_dir}: {restored}, "
          f"{report.scratch_events + report.replayed_events} WAL "
          f"event(s) replayed in {report.elapsed_seconds * 1e3:.0f} ms",
          file=out)
    print(f"durable matches: {report.durable_matches}; regenerated "
          f"this pass: {len(report.recovered_matches)}", file=out)
    detected = {r["x_TagId"] for name, r in report.recovered_matches
                if name == "shoplifting"}
    misplaced = {r["x_TagId"] for name, r in report.recovered_matches
                 if name == "misplaced"}
    print(f"shoplifting detections so far: {sorted(detected)}",
          file=out)
    print(f"misplaced detections so far:   {sorted(misplaced)}",
          file=out)
    print("event database:", file=out)
    for name in system.event_db.db.table_names():
        rows = sum(1 for _ in system.event_db.db.table(name).rows())
        print(f"  {name}: {rows} row(s)", file=out)
    # Seal the replayed state into a fresh checkpoint so the next
    # recovery (or demo resume) starts from here instead of re-replaying.
    system.persistence.checkpoint()
    system.persistence.close()


def _cmd_trace(args: argparse.Namespace, out: TextIO) -> None:
    shard_params = {"shards": args.shards,
                    "shard_backend": args.shard_backend,
                    "shard_transport": args.shard_transport,
                    "shard_workers": args.shard_workers}
    _validate_shard_params(shard_params, secret=args.shard_secret)
    scenario = RetailScenario.generate(RetailConfig(
        n_products=args.products, n_shoppers=args.shoppers,
        n_shoplifters=args.shoplifters, n_misplacements=1,
        seed=args.seed))
    sharding = None
    if shard_params["shards"] != 1 or args.shard_backend != "inline":
        workers = ()
        if args.shard_workers:
            from repro.sharding.remote import parse_endpoints
            workers = parse_endpoints(args.shard_workers)
        sharding = ShardingConfig(shards=shard_params["shards"],
                                  backend=args.shard_backend,
                                  transport=args.shard_transport,
                                  workers=workers,
                                  secret=(args.shard_secret
                                          if args.shard_backend
                                          == "remote" else None))
    system = SaseSystem(scenario.layout, scenario.ons, sharding=sharding)
    # A full retail run emits far more spans than the default ring; keep
    # enough history that early RETURN traces survive to the report.
    tracer = system.enable_tracing(capacity=1 << 17)
    if args.slow_feed_ms > 0:
        system.processor.enable_slow_feed_log(args.slow_feed_ms / 1e3)
    system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
    system.register_monitoring_query("misplaced",
                                     MISPLACED_INVENTORY_QUERY)
    for event_type in ("SHELF_READING", "COUNTER_READING",
                       "EXIT_READING"):
        system.register_archiving_rule(f"loc_{event_type}",
                                       LOCATION_UPDATE_RULE(event_type))
    names = [registered.name
             for registered in system.processor.queries()]
    if args.query not in names:
        raise SaseError(f"unknown query {args.query!r}; "
                        f"registered: {', '.join(names)}")
    # Profiling rides along unless the sharded runtime is active (worker
    # shards build their own runtimes from the spec).
    profiles = {} if sharding is not None \
        else system.processor.enable_profiling()
    system.run_simulation(scenario.ticks(NoiseModel.perfect()))

    lines = format_trace_lines(tracer, args.query, limit=args.limit,
                               hits_only=True)
    kind = "matching"
    if not lines:  # no hits recorded — fall back to the raw tail
        lines = format_trace_lines(tracer, args.query, limit=args.limit)
        kind = "recorded"
    print(f"dataflow trace for {args.query!r} "
          f"(last {args.limit} {kind} traces):", file=out)
    if not lines:
        lines = ["(no trace touched this query)"]
    for line in lines:
        print(f"  {line}", file=out)
    profile = profiles.get(args.query)
    if profile is not None:
        print(f"\nscan profile for {args.query!r}:", file=out)
        for line in profile.report_lines():
            print(f"  {line}", file=out)
    slow = system.processor.slow_feed_log
    if slow is not None:
        print(f"\nslow feeds (>= {args.slow_feed_ms:g} ms): "
              f"{slow.total_slow}", file=out)
        for line in slow.report_lines()[-5:]:
            print(f"  {line}", file=out)
    print("", file=out)
    for line in system.processor.metrics.report_lines():
        print(f"  {line}", file=out)
    if args.jsonl:
        count = tracer.dump_jsonl(args.jsonl, query=args.query)
        print(f"\n{count} span(s) written to {args.jsonl}", file=out)


def _cmd_warehouse(args: argparse.Namespace, out: TextIO) -> None:
    history = WarehouseHistory.generate(WarehouseConfig(
        n_boxes=args.boxes, items_per_box=args.items_per_box,
        seed=args.seed))
    system = SaseSystem(history.layout, history.ons)
    system.register_archiving_rule("containment", CONTAINMENT_RULE)
    system.register_archiving_rule("unpack", UNPACK_RULE)
    for event_type in ("LOADING_READING", "UNLOADING_READING",
                       "BACKROOM_READING", "SHELF_READING"):
        system.register_archiving_rule(f"loc_{event_type}",
                                       LOCATION_UPDATE_RULE(event_type))
    for event in history.events():
        system.processor.feed(event)
    system.processor.flush()
    for tag in history.item_tags:
        location = system.event_db.current_location(tag)
        assert location is not None
        moves = len(system.event_db.movement_history(tag))
        print(f"item {tag}: now at area {location['area_id']} "
              f"({location['description']}), {moves} recorded moves",
              file=out)


def _cmd_explain(args: argparse.Namespace, out: TextIO) -> None:
    registry = _load_schemas(args.schemas) if args.schemas \
        else retail_registry()
    engine = Engine(registry)
    config = PlanConfig.naive() if args.naive else None
    compiled = engine.compile(_read_query(args.query), config)
    print(compiled.explain(), file=out)


def _cmd_run(args: argparse.Namespace, out: TextIO) -> None:
    records = list(_read_event_records(args.events))
    registry = _load_schemas(args.schemas) if args.schemas \
        else _infer_registry(records)
    events = []
    skipped = 0
    for record in records:
        try:
            events.append(_to_event(record, registry))
        except SaseError:
            skipped += 1  # e.g. a CSV row with an empty attribute cell
    events.sort(key=lambda event: event.timestamp)
    if skipped:
        print(f"-- skipped {skipped} event(s) not matching their "
              f"schema", file=out)
    engine = Engine(registry)
    config = PlanConfig.naive() if args.naive else None
    printed = 0
    total = 0
    for composite in engine.run(_read_query(args.query), events, config):
        total += 1
        if not args.limit or printed < args.limit:
            printed += 1
            attrs = ", ".join(f"{key}={value}" for key, value
                              in composite.attributes.items())
            print(f"[{composite.start:g}, {composite.end:g}] {attrs}",
                  file=out)
    print(f"-- {total} result(s) over {len(events)} event(s)", file=out)


def _cmd_worker(args: argparse.Namespace, out: TextIO) -> None:
    if not 0 <= args.port <= 65535:
        raise SaseError(f"--port {args.port} is out of range (0-65535)")
    from repro.sharding.remote import resolve_secret, run_worker
    secret = resolve_secret(args.shard_secret)  # eager: exit 2
    if args.chaos:
        from repro.resilience.chaos import ChaosConfig
        ChaosConfig.parse(args.chaos, args.chaos_seed)  # eager: exit 2
    run_worker(args.host, args.port, once=args.once, out=out,
               secret=secret, chaos=args.chaos,
               chaos_seed=args.chaos_seed)


def _cmd_deadletter(args: argparse.Namespace, out: TextIO) -> None:
    from repro.resilience import DeadLetterQueue, validate_reading
    from repro.rfid.simulator import RawReading

    if not os.path.exists(args.path):
        raise SaseError(f"{args.path}: no such dead-letter file")
    records = DeadLetterQueue.load(args.path)
    if args.action == "list":
        print(f"{len(records)} dead-letter record(s) in {args.path}",
              file=out)
        for record in records[:args.limit]:
            when = "?" if record.ingest_time is None \
                else f"{record.ingest_time:g}"
            payload = json.dumps(record.payload, sort_keys=True,
                                 default=repr)
            print(f"  [{record.stage}] {record.error_type}: "
                  f"{record.error} @ t={when} payload={payload}",
                  file=out)
        if len(records) > args.limit:
            print(f"  ... {len(records) - args.limit} more "
                  f"(--limit to raise)", file=out)
        return

    # replay: re-validate each quarantined reading.  Records that pass
    # now (e.g. after an upstream fix changed what gets quarantined)
    # are printed as JSON lines ready to re-ingest; the rest stay dead.
    recovered = 0
    still_dead = []
    for record in records:
        payload = record.payload
        reading = None
        if isinstance(payload, dict) and \
                set(payload) >= {"epc", "reader_id", "time"}:
            try:
                reading = RawReading(epc=payload["epc"],
                                     reader_id=payload["reader_id"],
                                     time=payload["time"])
            except (TypeError, ValueError):
                reading = None
        if reading is not None and validate_reading(reading) is None:
            recovered += 1
            print(json.dumps({"epc": reading.epc,
                              "reader_id": reading.reader_id,
                              "time": reading.time}), file=out)
        else:
            still_dead.append(record)
    print(f"-- replayed {len(records)} record(s): {recovered} valid "
          f"again, {len(still_dead)} still dead", file=out)
    if args.rewrite:
        DeadLetterQueue.rewrite(args.path, still_dead)
        print(f"-- rewrote {args.path} with {len(still_dead)} "
              f"record(s)", file=out)


def _cmd_bench(args: argparse.Namespace, out: TextIO) -> None:
    from repro.workloads.synthetic import SyntheticConfig, \
        SyntheticStream, seq_query
    stream = SyntheticStream.generate(SyntheticConfig(
        n_events=args.events, n_types=3, id_domain=40, seed=1))
    query = seq_query(3, window=args.window, partitioned=True)
    engine = Engine(stream.registry)
    for label, config in (
            ("optimized", PlanConfig()),
            ("no PAIS", PlanConfig().without("partition_pushdown")),
            ("no window pushdown",
             PlanConfig().without("window_pushdown"))):
        runtime = engine.runtime(query, config=config)
        started = time.perf_counter()
        results = sum(len(runtime.feed(event)) for event in stream.events)
        results += len(runtime.flush())
        elapsed = time.perf_counter() - started
        print(f"{label:>20}: {len(stream.events) / elapsed:10,.0f} "
              f"events/s  ({results} matches)", file=out)


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> None:
    from repro.core.shared import SharedPlanConfig
    from repro.service import AdmissionPolicy, QueryService, TenantQuota
    from repro.service.server import serve as run_server

    registry = _load_schemas(args.schemas) if args.schemas \
        else retail_registry()
    service = QueryService(
        registry,
        policy=AdmissionPolicy(max_tenants=args.max_tenants,
                               max_total_queries=args.max_total_queries,
                               queue_limit=args.queue_limit),
        default_quota=TenantQuota(
            max_queries=args.tenant_max_queries,
            max_events_per_second=args.tenant_max_events_per_second,
            max_pending_results=args.tenant_max_pending_results),
        shared_plans=SharedPlanConfig(enabled=not args.no_shared_plans),
        manifest_path=args.manifest)
    if service.total_queries:
        print(f"restored {service.total_queries} query(ies) across "
              f"{len(service.tenants())} tenant(s) from {args.manifest}",
              file=out)

    def ready(port: int) -> None:
        print(f"listening on {args.host}:{port}", file=out, flush=True)

    run_server(service, host=args.host, port=args.port, ready=ready)
    if args.metrics_out:
        exporter = MetricsExporter(service.processor, args.metrics_out,
                                   service=service)
        exporter.flush()
        print(f"wrote metrics to {args.metrics_out}", file=out)
    print("service stopped", file=out)


def _cmd_client(args: argparse.Namespace, out: TextIO) -> None:
    from repro.service import ServiceClient

    def need(value: str | None, what: str) -> str:
        if value is None:
            raise SaseError(
                f"client {args.action} needs a {what} argument")
        return value

    with ServiceClient(host=args.host, port=args.port) as client:
        action = args.action
        if action == "ping":
            print("pong" if client.ping() else "no pong", file=out)
        elif action == "register":
            outcome = client.register(
                need(args.tenant, "TENANT"), need(args.name, "NAME"),
                _read_query(need(args.query, "QUERY")))
            status = outcome.get("status")
            line = status if status != "queued" \
                else f"queued at position {outcome.get('position')}"
            print(line, file=out)
        elif action == "withdraw":
            client.withdraw(need(args.tenant, "TENANT"),
                            need(args.name, "NAME"))
            print("withdrawn", file=out)
        elif action == "subscribe":
            client.subscribe(need(args.tenant, "TENANT"))
            received = 0
            while args.limit <= 0 or received < args.limit:
                push = client.wait_push()
                print(json.dumps(push, sort_keys=True), file=out,
                      flush=True)
                received += 1
        elif action == "feed":
            produced = 0
            count = 0
            for record in _read_event_records(
                    need(args.events, "--events")):
                produced += client.feed(need(args.tenant, "TENANT"),
                                        record)
                count += 1
            print(f"fed {count} event(s), {produced} result(s)",
                  file=out)
        elif action == "drain":
            for result in client.drain(need(args.tenant, "TENANT"),
                                       args.limit):
                print(json.dumps(result, sort_keys=True), file=out)
        elif action == "flush":
            print(f"flush released {client.flush()} result(s)",
                  file=out)
        elif action == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True),
                  file=out)
        elif action == "shutdown":
            client.shutdown()
            print("shutdown requested", file=out)


# -- helpers -----------------------------------------------------------------

def _read_query(spec: str) -> str:
    if spec.startswith("@"):
        with open(spec[1:], encoding="utf-8") as handle:
            return handle.read()
    return spec


def _read_event_records(path: str) -> Iterable[dict[str, Any]]:
    if path.endswith(".csv"):
        yield from _read_csv_records(path)
        return
    handle: TextIO
    if path == "-":
        handle = sys.stdin
        close = False
    else:
        handle = open(path, encoding="utf-8")
        close = True
    try:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SaseError(
                    f"{path}:{line_number}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or "type" not in record \
                    or "timestamp" not in record:
                raise SaseError(
                    f"{path}:{line_number}: each event needs 'type' and "
                    f"'timestamp' fields")
            yield record
    finally:
        if close:
            handle.close()


def _read_csv_records(path: str) -> Iterable[dict[str, Any]]:
    """CSV events: a ``type`` and ``timestamp`` column plus one column per
    attribute.  Values are inferred (int, float, bool, string); empty
    cells mean the attribute is absent for that event."""
    import csv
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        fields = reader.fieldnames or []
        if "type" not in fields or "timestamp" not in fields:
            raise SaseError(
                f"{path}: CSV events need 'type' and 'timestamp' columns; "
                f"found {fields}")
        for line_number, row in enumerate(reader, 2):
            try:
                timestamp = float(row["timestamp"])
            except (TypeError, ValueError):
                raise SaseError(
                    f"{path}:{line_number}: bad timestamp "
                    f"{row.get('timestamp')!r}") from None
            attributes = {}
            for key, raw in row.items():
                if key in ("type", "timestamp") or raw is None \
                        or raw == "":
                    continue
                attributes[key] = _infer_csv_value(raw)
            yield {"type": row["type"], "timestamp": timestamp,
                   "attributes": attributes}


def _infer_csv_value(raw: str) -> Any:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        return raw


def _load_schemas(path: str) -> SchemaRegistry:
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise SaseError(f"{path}: schema file must be a JSON object")
    registry = SchemaRegistry()
    for type_name, attributes in spec.items():
        declared = {}
        for attr_name, word in attributes.items():
            if word not in _TYPE_WORDS:
                raise SaseError(
                    f"{path}: unknown attribute type {word!r} "
                    f"(use one of {sorted(_TYPE_WORDS)})")
            declared[attr_name] = _TYPE_WORDS[word]
        registry.declare(type_name, **declared)
    return registry


def _infer_registry(records: list[dict[str, Any]]) -> SchemaRegistry:
    """Infer one schema per event type from the records' attributes."""
    inferred: dict[str, dict[str, AttributeType]] = {}
    for record in records:
        attributes = record.get("attributes", {})
        slot = inferred.setdefault(record["type"], {})
        for key, value in attributes.items():
            if isinstance(value, bool):
                attr_type = AttributeType.BOOL
            elif isinstance(value, int):
                attr_type = AttributeType.INT
            elif isinstance(value, float):
                attr_type = AttributeType.FLOAT
            else:
                attr_type = AttributeType.STRING
            previous = slot.get(key)
            if previous is AttributeType.FLOAT and \
                    attr_type is AttributeType.INT:
                continue  # keep the wider type
            if previous is AttributeType.INT and \
                    attr_type is AttributeType.FLOAT:
                slot[key] = AttributeType.FLOAT
                continue
            slot[key] = attr_type
    registry = SchemaRegistry()
    for type_name, attributes in inferred.items():
        registry.declare(type_name, **attributes)
    return registry


def _to_event(record: dict[str, Any],
              registry: SchemaRegistry) -> Event:
    schema = registry.get(record["type"])
    payload = schema.validate_payload(record.get("attributes", {}),
                                      coerce=True)
    return Event(record["type"], float(record["timestamp"]), payload)


if __name__ == "__main__":
    sys.exit(main())
