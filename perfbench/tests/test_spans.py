"""Span recording and self time, with synthetic spans on a fake clock."""

import pytest

from spans import SpanRecorder, totals


class Ticker:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_the_time_children_cover():
    clock = Ticker()
    recorder = SpanRecorder(clock)
    outer = recorder.begin("outer")            # 0 .. 10
    clock.now = 1.0
    child = recorder.begin("child")            # 1 .. 4
    clock.now = 2.0
    grandchild = recorder.begin("grandchild")  # 2 .. 3
    clock.now = 3.0
    recorder.end(grandchild)
    clock.now = 4.0
    recorder.end(child)
    clock.now = 6.0
    second = recorder.begin("child")           # 6 .. 8
    clock.now = 8.0
    recorder.end(second)
    clock.now = 10.0
    recorder.end(outer)
    found = totals(recorder)
    assert found.self_s == pytest.approx(
        {"outer": 5.0, "child": 4.0, "grandchild": 1.0})
    assert found.calls == {"outer": 1, "child": 2, "grandchild": 1}
    assert found.top_level_s == pytest.approx(10.0)
    # Self times add up to the time the top-level spans cover.
    assert sum(found.self_s.values()) == pytest.approx(found.top_level_s)
    assert list(recorder.parents) == [-1, 0, 1, 0]


def test_wrapped_calls_record_units_counts_and_nesting():
    clock = Ticker()
    recorder = SpanRecorder(clock)

    class Layer:
        def inner(self, items):
            clock.now += 1.0
            return items[:1]

        def outer(self, items):
            clock.now += 2.0
            return self.inner(items) + self.inner(items)

    layer = Layer()
    recorder.wrap(layer, "inner", "scan.inner",
                  lambda args, kwargs: len(args[0]), len)
    recorder.wrap(layer, "outer", "scan.outer",
                  lambda args, kwargs: len(args[0]), len)
    recorder.unit = 7
    assert layer.outer([1, 2, 3]) == [1, 1]
    found = totals(recorder, lambda name: "scan")
    assert found.self_s == pytest.approx({"scan.outer": 2.0,
                                          "scan.inner": 2.0})
    # Items entering the family through nested calls count once.
    assert found.items_in == {"scan.outer": 3}
    assert found.items_out == {"scan.outer": 2}
    assert set(recorder.units) == {7}


def test_a_span_closes_when_the_call_raises():
    recorder = SpanRecorder(Ticker())

    class Layer:
        def fail(self):
            raise ValueError("boom")

    layer = Layer()
    recorder.wrap(layer, "fail", "layer")
    with pytest.raises(ValueError):
        layer.fail()
    after = recorder.begin("after")
    recorder.end(after)
    assert list(recorder.parents) == [-1, -1]
