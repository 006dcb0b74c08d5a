"""Open-loop accounting and the percentile rule, on a fake clock."""

import math
from types import SimpleNamespace

import pytest

from pacing import (
    MIN_BEYOND,
    drive,
    due_times,
    latency_summary,
    percentile,
    tail_percentile,
)


class FakeClock:
    """Time moves only when the generator sleeps or a call does work."""

    def __init__(self) -> None:
        self.now = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


def result(end: float) -> SimpleNamespace:
    return SimpleNamespace(end=end, start=end, attributes={}, complete=True)


def run(clock, costs, outputs, rate=10.0, locate=None, finish_out=()):
    """Drive units whose calls take *costs* seconds and return
    *outputs*; every unit holds one item."""
    calls = iter(range(len(costs)))

    def ingest(payload):
        index = next(calls)
        clock.now += costs[index]
        return list(outputs[index])

    return drive(list(range(len(costs) + 1)), [1] * (len(costs) + 1),
                 ingest, lambda: list(finish_out), lambda pairs: True,
                 locate=locate, rate=rate, start=clock.now, clock=clock,
                 sleep=clock.sleep)


def test_due_times_count_items_after_the_first_unit():
    assert due_times([5, 2, 3], rate=10.0, start=1.0) == [1.0, 1.2, 1.5]


def test_on_time_sends_wait_for_the_due_time():
    clock = FakeClock()
    stats = run(clock, [0.01, 0.01], [[("q", result(1))], [("q", result(2))]])
    assert clock.sleeps == pytest.approx([0.1, 0.09])
    assert list(stats.late) == [0.0, 0.0]
    assert list(stats.latencies) == pytest.approx([0.01, 0.01])
    assert stats.backlog_max == 0


def test_a_stall_is_charged_to_the_units_queued_behind_it():
    clock = FakeClock()
    # Unit 1 (due 0.1) takes 0.35 s, so units 2..4 (due 0.2, 0.3, 0.4)
    # are sent late, at 0.45, 0.46, 0.47.
    costs = [0.35, 0.01, 0.01, 0.01]
    outputs = [[("q", result(index))] for index in range(4)]
    stats = run(clock, costs, outputs)
    assert list(stats.late) == pytest.approx([0.0, 0.25, 0.16, 0.07])
    # Latency runs from the due time, not from the late send.
    assert list(stats.latencies) == pytest.approx([0.35, 0.26, 0.17, 0.08])
    # All of it was spent inside calls: the stall, then the queue.
    assert list(stats.latency_busy) == pytest.approx(list(stats.latencies))
    assert stats.scaled_latencies(0.5) == pytest.approx(
        [0.175, 0.13, 0.085, 0.04])
    assert stats.backlog_max == 2
    assert stats.busy_s == pytest.approx(0.38)


def test_results_delivered_on_a_later_call_count_from_their_own_unit():
    clock = FakeClock()
    # Each unit's event carries timestamp == unit index; the result of
    # unit 1 only comes back with unit 3, the one of unit 2 at finish.
    outputs = [[], [], [("q", result(1))]]
    ends = [0, 1, 2, 3]

    def locate(found, delivered):
        return min(ends.index(found.end), delivered)

    stats = run(clock, [0.01] * 3, outputs, locate=locate,
                finish_out=[("q", result(2))])
    # Unit 1 was due at 0.1; unit 3 returned at 0.31.
    # Unit 2 was due at 0.2; finish returned at 0.31 too.
    assert list(stats.latencies) == pytest.approx([0.21, 0.11])
    # Only the calls count as busy; waiting for units 2 and 3 does not.
    assert list(stats.latency_busy) == pytest.approx([0.03, 0.02])
    assert stats.scaled_latencies(2.0) == pytest.approx([0.24, 0.13])


def test_a_failed_call_misses_every_limit():
    clock = FakeClock()

    def ingest(payload):
        raise RuntimeError("boom")

    stats = drive([0, 1], [1, 1], ingest, lambda: [], lambda pairs: True,
                  rate=10.0, start=0.0, clock=clock, sleep=clock.sleep)
    assert stats.failed == 1
    assert stats.calls == 2
    assert math.isinf(max(stats.latencies))
    assert math.isinf(max(stats.scaled_latencies(0.5)))


def test_unpaced_passes_never_sleep():
    clock = FakeClock()
    stats = run(clock, [0.01] * 3, [[]] * 3, rate=None)
    assert clock.sleeps == []
    assert len(stats.latencies) == 0
    assert stats.items == 3
    assert stats.throughput == pytest.approx(3 / 0.03)


def test_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile(1000, 99.0) == 99.0
    # 999 samples: p99 would leave only 9 beyond, so report the
    # highest percentile that leaves ten.
    used = tail_percentile(999, 99.0)
    assert used < 99.0
    assert 999 - math.ceil(used / 100 * 999) == MIN_BEYOND
    assert tail_percentile(20, 50.0) == 50.0
    assert tail_percentile(MIN_BEYOND, 50.0) is None


def test_latency_summary_reports_the_percentile_it_used():
    samples = [float(value) for value in range(1, 501)]
    summary = latency_summary(samples)
    assert summary[50.0] == (50.0, 250.0)
    used, value = summary[99.0]
    assert used == pytest.approx(98.0)
    assert value == 490.0
    assert percentile(sorted(samples), used) == value
    assert latency_summary([1.0] * 5)[99.0] is None


def test_calibration_slices_are_not_busy_time_and_keep_the_schedule():
    from calibration import Calibrator

    clock = FakeClock()

    def work():
        clock.now += 0.001

    calibrator = Calibrator(clock, work)
    calls = iter(range(3))

    def ingest(payload):
        next(calls)
        clock.now += 0.01
        return []

    stats = drive([0, 1, 2, 3], [1] * 4, ingest, lambda: [],
                  lambda pairs: True, rate=10.0, start=0.0, clock=clock,
                  sleep=clock.sleep, calibrator=calibrator)
    # Each wait had room for a slice; the sends stayed on time.
    assert len(calibrator.slices) == 3
    assert list(stats.late) == [0.0, 0.0, 0.0]
    assert stats.busy_s == pytest.approx(0.03)
    assert calibrator.speed() == pytest.approx(0.25e-3 / 0.001)


def test_unpaced_passes_calibrate_between_calls():
    from calibration import Calibrator

    clock = FakeClock()

    def work():
        clock.now += 0.001

    def ingest(payload):
        clock.now += 0.05
        return []

    calibrator = Calibrator(clock, work)
    stats = drive([0, 1, 2, 3], [1] * 4, ingest, lambda: [],
                  lambda pairs: True, clock=clock, sleep=clock.sleep,
                  calibrator=calibrator)
    assert len(calibrator.slices) == 3
    assert stats.busy_s == pytest.approx(0.15)
