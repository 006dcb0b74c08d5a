"""The repository benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload retail --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``retail`` - the paper's Figure-2 store with noisy readers, through
  ``SaseSystem.process_tick``;
* ``retail-durable`` - the same with the write-ahead log and checkpoints;
* ``keyed`` - a keyed synthetic stream through
  ``ComplexEventProcessor.feed_batch`` in one process;
* ``keyed-sharded`` - the same over two process shards on rings.

With ``--trace 0`` the run repeats unpaced passes for throughput and set-up
time, then makes paced open-loop passes for latency, and prints the
end-to-end metrics.  With ``--trace 1`` it adds one pass with span
recorders installed on the system's layers and prints the per-layer
metrics instead.  Every pass's output is fingerprinted and checked; the
exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from array import array
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from calibration import REFERENCE_SLICE_S, Calibrator  # noqa: E402
from fingerprint import Fingerprint, precision_recall  # noqa: E402
from layers import (  # noqa: E402
    assert_untraced,
    children_cpu_s,
    counters,
    install,
    layer_metrics,
    runtime_counts,
)
from pacing import drive, latency_summary, percentile  # noqa: E402
from scenarios import WORKLOADS, Harness, Inputs, Workload  # noqa: E402
from spans import SpanRecorder  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"
#: Share of ``--seconds`` spent repeating unpaced passes.
UNPACED_SHARE = 0.55
MIN_UNPACED = 2
#: Paced passes per run.  A latency percentile is the median of the
#: passes' own: a stall in one pass, such as a WAL fsync waiting a tenth
#: of a second on a shared disk, delays every unit queued behind it and
#: can move that pass's median twentyfold, and the other two outvote it.
PACED_PASSES = 3
#: Set-up is timed on every pass; extra set-ups make up this many.
MIN_SETUPS = 7

SPEC_PATH = ROOT / "BENCHMARK.json"


class Pass:
    """A freshly built system driven over the whole input, then closed."""

    def __init__(self, workload: Workload, inputs: Inputs, data_dir: str,
                 rate: float | None = None,
                 recorder: SpanRecorder | None = None):
        gc.collect()
        self.fingerprint = Fingerprint()
        started = time.perf_counter()
        harness = workload.build(inputs, data_dir)
        try:
            self._drive(harness, inputs, started, rate, recorder)
        finally:
            harness.close()
        self.counts = counters(harness)

    def _drive(self, harness: Harness, inputs: Inputs, started: float,
               rate: float | None, recorder: SpanRecorder | None) -> None:
        fingerprint = self.fingerprint
        track = inputs.track
        on_unit = None
        if recorder is not None:
            install(recorder, harness)
            recorder.unit = 0
            on_unit = recorder.set_unit
        # No slices in a traced pass: they would show up as glue.
        self.calibrator = Calibrator() if recorder is None else None
        first_call = time.perf_counter()
        first = harness.ingest(inputs.payloads[0])
        ready = time.perf_counter()
        self.setup_s = ready - started
        complete = fingerprint.add(first, track)
        self.stats = stats = drive(
            inputs.payloads, inputs.sizes, harness.ingest, harness.finish,
            lambda pairs: fingerprint.add(pairs, track),
            locate=inputs.locate if inputs.unit_end is not None else None,
            rate=rate, start=ready, on_unit=on_unit,
            calibrator=self.calibrator)
        self.wall_s = time.perf_counter() - first_call
        stats.calls += 1
        stats.failed += not complete
        self.scores = [(name, *precision_recall(
            fingerprint.detected.get(name, set()), truth))
            for name, truth in inputs.truth.items()]
        self.runtime_counts = runtime_counts(harness.processor)
        assert_untraced(harness.processor)
        self.degraded = harness.processor.degraded


class GcWatch:
    """Garbage-collection pauses and gen-2 collections while active."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.pause_s += time.perf_counter() - self._started
        if info["generation"] == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


class Session:
    """Runs the passes of one benchmark run and collects what they
    found: fingerprints, set-up times, call counts and problems."""

    def __init__(self, workload: Workload, inputs: Inputs, scratch: str):
        self.workload = workload
        self.inputs = inputs
        self.scratch = scratch
        self.setups: list[float] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes: dict[str, dict] = {}
        self.slices: list[float] = []
        self._dirs = 0

    def data_dir(self) -> str:
        self._dirs += 1
        return os.path.join(self.scratch, f"data-{self._dirs}")

    def run(self, label: str, workload: Workload | None = None,
            rate: float | None = None,
            recorder: SpanRecorder | None = None) -> Pass:
        done = Pass(workload or self.workload, self.inputs, self.data_dir(),
                    rate, recorder)
        if workload is None:
            self.setups.append(done.setup_s)
        if done.calibrator is not None:
            self.slices.extend(done.calibrator.slices)
        stats = done.stats
        self.attempted += stats.calls
        self.failed += stats.failed
        if stats.failed:
            self.problems.append(f"{label}: {stats.failed} failed call(s)")
        if done.degraded:
            self.problems.append(f"{label}: the processor ran degraded")
        if workload is None:
            self.digests[label] = done.fingerprint.hexdigest()
        self.passes[label] = {"calls": stats.calls,
                              "items": sum(self.inputs.sizes),
                              "results": done.fingerprint.results}
        return done

    def extra_setups(self) -> None:
        """Build, make the first ingest call, close: set-up time only."""
        while len(self.setups) < MIN_SETUPS:
            gc.collect()
            started = time.perf_counter()
            harness = self.workload.build(self.inputs, self.data_dir())
            try:
                harness.ingest(self.inputs.payloads[0])
                self.setups.append(time.perf_counter() - started)
            finally:
                harness.close()

    def check(self, reference: Pass | None, scored: Pass) -> None:
        """Every pass agrees, the reference configuration agrees, and the
        retail detections match the scenario's ground truth."""
        digests = set(self.digests.values())
        if len(digests) != 1:
            self.problems.append(f"passes disagree: {self.digests}")
        if reference is not None and \
                {reference.fingerprint.hexdigest()} != digests:
            self.problems.append(
                f"output differs from {self.workload.reference}")
        for name, precision, recall in scored.scores:
            if precision != 1.0 or recall != 1.0:
                self.problems.append(
                    f"{name}: precision {precision:.3f}, recall "
                    f"{recall:.3f} against the ground truth")

    def speed(self) -> float:
        """Host speed over the whole run, relative to the reference."""
        return REFERENCE_SLICE_S / statistics.median(self.slices)

    def reference(self) -> Pass | None:
        """The reference configuration over the same input, untimed."""
        if self.workload.reference is None:
            return None
        return self.run("reference", WORKLOADS[self.workload.reference])


def measure(session: Session, seconds: int) -> tuple[dict, dict]:
    """The untraced run: end-to-end metrics and the pass records.

    Computing time is scaled to the reference host speed (see
    :mod:`calibration`): unpaced throughput by the slices taken during
    each pass, set-up time by the slices of the whole run, and the part
    of each latency spent inside calls by the slices of the paced pass.
    The part spent waiting for units to fall due is wall-clock time on
    the arrival schedule and stays as measured."""
    workload = session.workload
    deadline = time.perf_counter() + UNPACED_SHARE * seconds
    raw_throughputs, throughputs = [], []
    while len(throughputs) < MIN_UNPACED or time.perf_counter() < deadline:
        done = session.run(f"unpaced-{len(throughputs)}")
        raw_throughputs.append(done.stats.throughput)
        throughputs.append(done.stats.throughput / done.calibrator.speed())
    summaries, raw_summaries, late = [], [], array("d")
    samples = backlog_max = 0
    for index in range(PACED_PASSES):
        paced = session.run(f"paced-{index}", rate=workload.rate)
        stats = paced.stats
        summaries.append(latency_summary(
            stats.scaled_latencies(paced.calibrator.speed())))
        raw_summaries.append(latency_summary(stats.latencies))
        samples += len(stats.latencies)
        late.extend(stats.late)
        backlog_max = max(backlog_max, stats.backlog_max)
    session.extra_setups()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss \
        if workload.sharded else 0
    session.check(session.reference(), paced)

    run_speed = session.speed()
    raw = {
        "throughput_per_s": statistics.median(raw_throughputs),
        "latency_p50_ms": _median_ms(raw_summaries, 50.0),
        "latency_p99_ms": _median_ms(raw_summaries, 99.0),
        "setup_s": statistics.median(session.setups),
    }
    metrics = {
        "throughput_per_s": statistics.median(throughputs),
        "latency_p50_ms": _median_ms(summaries, 50.0),
        "latency_p99_ms": _median_ms(summaries, 99.0),
        "setup_s": raw["setup_s"] * run_speed,
        "peak_rss_mb": (self_rss + worker_rss) / 1024.0,
    }
    details = {
        "raw": raw,
        "speed": {"run": run_speed, "slices": len(session.slices)},
        "unpaced_throughputs": throughputs,
        "raw_unpaced_throughputs": raw_throughputs,
        "setup_samples": session.setups,
        "latency_samples": samples,
        "latency_tail_percentile": min(summary[99.0][0]
                                       for summary in summaries),
        "late_p99_ms": _late_p99_ms(late),
        "backlog_max": backlog_max,
        "rss_self_mb": self_rss / 1024.0,
        "rss_largest_worker_mb": worker_rss / 1024.0,
    }
    return metrics, details


def measure_layers(session: Session, out_dir: Path, seed: int) \
        -> tuple[dict, dict]:
    """The traced run: per-layer metrics from one pass with span
    recorders, beside an untraced pass of the same program."""
    workload = session.workload
    plain = session.run("untraced")
    with GcWatch() as watch:
        cpu = time.process_time()
        paced = session.run("paced", rate=workload.rate)
        cpu = time.process_time() - cpu
    recorder = SpanRecorder()
    worker_cpu = children_cpu_s()
    traced = session.run("traced", recorder=recorder)
    metrics = layer_metrics(recorder, traced.counts, traced.wall_s,
                            children_cpu_s() - worker_cpu)
    if traced.runtime_counts != plain.runtime_counts:
        session.problems.append(
            f"traced pass took another path: runtime (calls, events) "
            f"{traced.runtime_counts} vs {plain.runtime_counts} untraced")
    session.check(session.reference(), plain)
    metrics.update({
        "loadgen.late_p99_ms": _late_p99_ms(paced.stats.late),
        "loadgen.backlog_max": paced.stats.backlog_max,
        "py.cpu_s": cpu,
        "py.gc.pause_s": watch.pause_s,
        "py.gc.gen2": watch.gen2,
        "trace.overhead": traced.stats.throughput / plain.stats.throughput,
    })
    spans_path = out_dir / f"{workload.name}-s{seed}.spans.jsonl.gz"
    recorder.dump(str(spans_path))
    details = {"spans": len(recorder), "spans_file": spans_path.name,
               "untraced_throughput": plain.stats.throughput,
               "traced_throughput": traced.stats.throughput,
               "runtime_calls_events": list(plain.runtime_counts),
               "speed": session.speed()}
    return metrics, details


def _median_ms(summaries: list[dict], pct: float) -> float:
    """The median over the paced passes of each pass's *pct* latency
    percentile, in milliseconds."""
    found = [summary[pct] for summary in summaries]
    if None in found:
        raise RuntimeError("too few latency samples for the percentile")
    return statistics.median(value for _, value in found) * 1e3


def _late_p99_ms(late: Sequence[float]) -> float:
    ordered = sorted(late)
    return percentile(ordered, 99.0) * 1e3 if ordered else 0.0


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stop_children() -> None:
    """Stop and reap every process the run started: shard workers that
    a failed pass left running, and the resource tracker that
    ``multiprocessing.shared_memory`` starts for the shard rings, which
    would otherwise outlive the run."""
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    # Terminated runs still close their shard workers and scratch data.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    generated = time.perf_counter()
    inputs = workload.generate(args.seed, args.seconds)
    generated = time.perf_counter() - generated
    # The inputs live for the whole run: keep them out of the program's
    # garbage-collection work.
    gc.collect()
    gc.freeze()

    OUT_DIR.mkdir(exist_ok=True)
    TMP_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)
    session = Session(workload, inputs, scratch)
    try:
        if args.trace:
            metrics, details = measure_layers(session, OUT_DIR, args.seed)
        else:
            metrics, details = measure(session, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    correct = not session.problems
    failed = session.failed if correct else session.attempted
    record = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": git_commit(), "offered_rate_per_s": workload.rate,
        "input": inputs.record, "input_generation_s": generated,
        "passes": session.passes, "problems": session.problems,
        "error_rate": failed / session.attempted, **details,
    }
    for problem in session.problems:
        print(f"CHECK FAILED: {problem}")
    spec = json.loads(SPEC_PATH.read_text())
    reported = {entry["name"]: {"value": metrics[entry["name"]],
                                "unit": entry["unit"]}
                for entry in spec["per_layer" if args.trace
                                  else "end_to_end"]}
    for name, metric in reported.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    if not args.trace:
        # Printed, not in BENCHMARK.json (see METRICS.md): the p99 is too
        # unsteady on a shared host to gate a change, and the error rate
        # is 0 on a correct run and travels as failed / attempted.
        print(f"{'latency_p99_ms':28s} {metrics['latency_p99_ms']:14.6g} ms "
              f"(p{details['latency_tail_percentile']:.4g}, median of "
              f"{PACED_PASSES} passes, "
              f"{details['latency_samples']} samples)")
        print(f"{'error_rate':28s} {failed / session.attempted:14.6g} "
              f"ratio ({failed} of {session.attempted} calls failed)")
    print("record " + json.dumps(record, sort_keys=True))
    (OUT_DIR / f"{workload.name}-s{args.seed}-t{args.trace}.json") \
        .write_text(json.dumps({"record": record, "metrics": metrics},
                               indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": session.attempted,
        "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
