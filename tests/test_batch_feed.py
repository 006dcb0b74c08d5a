"""Batched ingest at the system layer: ``feed_batch`` edge cases.

The batched API's contract is strict result identity with per-event
feeding — including negation watermarks advancing mid-batch, RETURN side
effects in per-event order, empty batches, registration changes around
(but never inside) a feed, and every sharding backend.  These tests pin
that contract at the processor, system, and service layers.
"""

from __future__ import annotations

import pytest

from repro.errors import SaseError
from repro.events.event import Event
from repro.events.model import AttributeType
from repro.funcs import FunctionRegistry
from repro.service import QueryService, TenantQuota
from repro.sharding import ShardingConfig
from repro.system import ComplexEventProcessor, SaseSystem
from repro.workloads import RetailConfig, RetailScenario, \
    SHOPLIFTING_QUERY, MISPLACED_INVENTORY_QUERY
from repro.workloads.retail import LOCATION_UPDATE_RULE
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    seq_query, synthetic_registry


def fingerprint(results):
    return [(name, result.start, result.end,
             tuple(sorted(result.attributes.items())))
            for name, result in results]


@pytest.fixture(scope="module")
def stream() -> SyntheticStream:
    return SyntheticStream.generate(SyntheticConfig(
        n_events=400, n_types=4, id_domain=8, seed=31))


def build_processor(stream, sharding=None) -> ComplexEventProcessor:
    processor = ComplexEventProcessor(stream.registry, sharding=sharding)
    processor.register("pair", seq_query(2, window=5.0, partitioned=True))
    processor.register("neg", seq_query(2, window=5.0, partitioned=True,
                                        negation_at=2))
    return processor


@pytest.fixture(scope="module")
def per_event_baseline(stream):
    processor = build_processor(stream)
    produced = []
    for event in stream.events:
        produced.extend(processor.feed(event))
    produced.extend(processor.flush())
    return fingerprint(produced)


def test_empty_batch_is_a_noop(stream):
    processor = build_processor(stream)
    assert processor.feed_batch([]) == []
    assert processor.feed_batch(iter([])) == []
    assert processor.metrics.query("pair").events_in == 0


@pytest.mark.parametrize("batch", [1, 3, 64, 1000])
def test_batched_equals_per_event(stream, per_event_baseline, batch):
    """Batches spanning watermark advances (the negation query skips
    most types, advancing its watermark mid-batch) still produce the
    per-event result sequence."""
    processor = build_processor(stream)
    produced = []
    events = stream.events
    for start in range(0, len(events), batch):
        produced.extend(processor.feed_batch(events[start:start + batch]))
    produced.extend(processor.flush())
    assert fingerprint(produced) == per_event_baseline


@pytest.mark.parametrize("backend", ["inline", "thread", "process"])
@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_batched_equals_per_event(stream, per_event_baseline,
                                          backend, shards):
    processor = build_processor(stream, sharding=ShardingConfig(
        shards=shards, backend=backend, batch_size=16))
    produced = []
    events = stream.events
    for start in range(0, len(events), 64):
        produced.extend(processor.feed_batch(events[start:start + 64]))
    produced.extend(processor.flush())
    assert fingerprint(produced) == per_event_baseline


def test_mid_batch_deregistration_rejected(stream):
    """A result callback must not mutate the query set while a batch is
    in flight: the batch path fails loudly instead of silently
    diverging."""
    processor = build_processor(stream)
    errors: list = []

    def deregister_now(name, result):
        try:
            processor.deregister("neg")
        except SaseError as error:
            errors.append(error)

    processor.query("pair").on_result = deregister_now
    processor.feed_batch(stream.events[:200])
    assert errors, "expected mid-batch deregistration to be rejected"
    assert "batch" in str(errors[0])
    # Between batches the same call is fine.
    processor.deregister("neg")
    assert processor.feed_batch(stream.events[200:250]) is not None


def _sibling_pair():
    """Two single-type queries that both match every B event, the first
    one's callback deregistering the second."""
    processor = ComplexEventProcessor(synthetic_registry(2))
    processor.register("first", "EVENT B x RETURN x.id")
    processor.register("second", "EVENT B x RETURN x.id")
    processor.query("first").on_result = \
        lambda name, result: processor.deregister("second")
    return processor


@pytest.mark.parametrize("entry", ["feed", "feed_batch"])
def test_callback_deregistering_sibling_raises_sase_error(entry):
    """``feed`` is a batch of one, so a callback deregistering a sibling
    that produced a result for the same event gets the same SaseError
    from ``feed`` as from ``feed_batch`` (never a bare KeyError)."""
    processor = _sibling_pair()
    event = Event("B", 1.0, {"id": 1, "v": 0, "price": 1.0})
    feed = processor.feed if entry == "feed" \
        else lambda item: processor.feed_batch([item])
    with pytest.raises(SaseError, match="in flight"):
        feed(event)
    assert [registered.name for registered in processor.queries()] \
        == ["first", "second"]


def test_deregistering_between_feeds_still_works():
    processor = _sibling_pair()
    processor.query("first").on_result = None
    event = Event("B", 1.0, {"id": 1, "v": 0, "price": 1.0})
    assert [name for name, _ in processor.feed(event)] \
        == ["first", "second"]
    processor.deregister("second")
    later = Event("B", 2.0, {"id": 2, "v": 0, "price": 1.0})
    assert [name for name, _ in processor.feed(later)] == ["first"]


def test_mid_batch_registration_rejected(stream):
    processor = build_processor(stream)
    errors: list = []

    def register_now(name, result):
        try:
            processor.register("late", seq_query(2, window=5.0))
        except SaseError as error:
            errors.append(error)

    processor.query("pair").on_result = register_now
    processor.feed_batch(stream.events[:200])
    assert errors, "expected mid-batch registration to be rejected"


def test_cascades_in_batch_match_per_event(stream):
    """INTO cascades run inside the batch: each input event's composites
    reach their consumers before the next input event's results, so
    feed_batch stays result-identical to per-event feeding."""
    registry = synthetic_registry(4)
    registry.declare("Pair", id=AttributeType.INT)

    def build():
        processor = ComplexEventProcessor(registry)
        processor.register(
            "pair", "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 5 "
                    "RETURN Pair(x.id AS id) INTO PAIRS")
        processor.register(
            "repeat", "FROM PAIRS EVENT SEQ(Pair p, Pair q) "
                      "WHERE p.id = q.id WITHIN 20 RETURN p.id")
        return processor

    reference = build()
    expected = []
    for event in stream.events[:200]:
        expected.extend(reference.feed(event))
    expected.extend(reference.flush())

    batched = build()
    produced = list(batched.feed_batch(stream.events[:200]))
    produced.extend(batched.flush())
    assert fingerprint(produced) == fingerprint(expected)
    assert any(name == "repeat" for name, _ in produced)


def test_where_function_reads_return_side_effect():
    """A WHERE clause calling a function that reads state another
    query's RETURN writes sees every earlier event's RETURN, batched or
    not: the dataflow steps one event at a time for such queries."""
    registry = synthetic_registry(2)

    def build():
        marked: set = set()
        functions = FunctionRegistry()
        functions.register("_mark", lambda key: marked.add(key) or key)
        functions.register("_marked", lambda key: key in marked)
        processor = ComplexEventProcessor(registry, functions=functions)
        processor.register("writer", "EVENT A x RETURN _mark(x.id)")
        processor.register("reader", "EVENT B y WHERE _marked(y.id) "
                                     "RETURN y.id")
        return processor

    # Two B events arrive before the A that marks their id.
    events = [Event(event_type, float(ts), {"id": key, "v": 0, "price": 1.0})
              for ts, (event_type, key) in enumerate(
                  [("A", 0), ("B", 0), ("B", 1), ("A", 1), ("B", 1),
                   ("B", 2), ("A", 2)])]
    reference = build()
    expected = [pair for event in events
                for pair in reference.feed(event)]
    assert [result.end for name, result in expected
            if name == "reader"] == [1.0, 4.0]
    batched = build()
    assert fingerprint(batched.feed_batch(events)) == fingerprint(expected)


def test_batched_metrics_aggregates_match(stream):
    per_event = build_processor(stream)
    for event in stream.events:
        per_event.feed(event)
    batched = build_processor(stream)
    for start in range(0, len(stream.events), 64):
        batched.feed_batch(stream.events[start:start + 64])
    for name in ("pair", "neg"):
        reference = per_event.metrics.query(name)
        measured = batched.metrics.query(name)
        assert measured.events_in == reference.events_in
        assert measured.results_out == reference.results_out
        assert measured.last_result_at == reference.last_result_at


# -- system layer ------------------------------------------------------------

RETAIL_DAYS = {
    "seed99": RetailConfig(seed=99),
    # The benchmark's store day: two misplaced-inventory detections read
    # a movement history the loc_* rules of the same tick write.
    "seed7": RetailConfig(n_products=60, n_shoppers=20, n_shoplifters=5,
                          n_misplacements=5, seed=7),
}


def _run_retail(config: RetailConfig, feed: str):
    """The retail query set over one store day, fed per tick through
    ``process_tick`` ("tick"), per cleaned tick through ``feed_batch``
    ("batch"), or one ``processor.feed`` per event ("event")."""
    scenario = RetailScenario.generate(config)
    system = SaseSystem(scenario.layout, scenario.ons)
    system.register_monitoring_query("shoplifting", SHOPLIFTING_QUERY)
    system.register_monitoring_query("misplaced",
                                     MISPLACED_INVENTORY_QUERY)
    for event_type in ("SHELF_READING", "COUNTER_READING", "EXIT_READING"):
        system.register_archiving_rule(f"loc_{event_type}",
                                       LOCATION_UPDATE_RULE(event_type))
    results = []
    for now, readings in scenario.ticks():
        if feed == "tick":
            results.extend(system.process_tick(readings, now))
            continue
        events = system.cleaning.process_tick(readings, now)
        if feed == "batch":
            results.extend(system.processor.feed_batch(events))
        else:
            for event in events:
                results.extend(system.processor.feed(event))
    results.extend(system.processor.flush())
    return fingerprint(results)


@pytest.mark.parametrize("day", sorted(RETAIL_DAYS))
def test_system_tick_batches_match_per_event(day):
    """Tick-sized batches keep RETURN side effects in per-event order:
    the misplaced query's ``_movementHistory`` reads exactly the rows
    the ``loc_*`` rules wrote for the events before it."""
    config = RETAIL_DAYS[day]
    expected = _run_retail(config, "event")
    assert any(name == "misplaced" for name, *_ in expected)
    assert _run_retail(config, "batch") == expected
    assert _run_retail(config, "tick") == expected


# -- service layer -----------------------------------------------------------

def test_service_feed_many_batches(stream):
    def build():
        service = QueryService(stream.registry,
                               default_quota=TenantQuota())
        service.register("t0", "pairs",
                         seq_query(2, window=5.0, partitioned=True))
        return service

    batched = build()
    count = batched.feed_many(stream.events[:200])
    reference = build()
    expected = sum(reference.feed(event)
                   for event in stream.events[:200])
    assert count == expected
    assert batched.events_fed == reference.events_fed == 200
    assert batched.drain("t0") == reference.drain("t0")
