"""Differential tests for the code-generated runtime (repro.core.codegen).

For every query in the corpus and randomized streams, the compiled scan
must produce *bit-identical* output to the interpreted scan — same
composite events, in the same order, at the same feed.  Shapes codegen
does not cover must transparently fall back to the interpreter.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.plan import KleeneMode, PlanConfig
from repro.events.event import Event
from repro.events.model import AttributeType, SchemaRegistry
from repro.funcs.registry import FunctionRegistry
from repro.workloads.hospital import HospitalScenario
from repro.workloads.synthetic import SyntheticConfig, SyntheticStream, \
    seq_query

# The corpus: every structural shape the scan supports — plain and
# partitioned sequences, repeated types, cross-variable predicates,
# negation in every position, Kleene closure, aggregates, unbounded
# windows, and ANY() multi-type components.
QUERIES = [
    "EVENT SEQ(A x, B y) WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y, C z) WHERE x.id = y.id AND y.id = z.id "
    "WITHIN 15 RETURN x.id",
    "EVENT SEQ(A x, B y) WHERE x.v < y.v WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y) WHERE x.v < 5 AND y.v >= 2 WITHIN 10 "
    "RETURN x.id, y.v",
    "EVENT SEQ(A x, !(B y), C z) WHERE x.id = y.id AND x.id = z.id "
    "WITHIN 10 RETURN x.id",
    "EVENT SEQ(!(C w), A x, B y) WHERE x.id = y.id AND w.id = x.id "
    "WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y, !(C w)) WHERE x.id = y.id AND w.id = x.id "
    "WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, A y) WHERE x.id = y.id WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y) RETURN x.id",  # unbounded window
    "EVENT SEQ(A a, B+ b) WHERE a.id = b.id WITHIN 10 "
    "RETURN a.id, COUNT(b)",
    "EVENT SEQ(A a, B+ b, C c) WHERE a.id = b.id AND a.id = c.id "
    "WITHIN 15 RETURN a.id",
    "EVENT SEQ(A x, ANY(B, C) y) WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y) WHERE x.v + 1 < y.v * 2 WITHIN 10 RETURN x.id",
    "EVENT SEQ(A x, B y) WHERE NOT x.v > 5 WITHIN 10 RETURN x.id",
    # Two cross-component equality classes: the second fuses into the
    # partition key.
    "EVENT SEQ(A x, B y) WHERE x.id = y.id AND x.v = y.v WITHIN 10 "
    "RETURN x.id",
    "EVENT SEQ(A x, B y, C z) WHERE x.id = y.id AND y.id = z.id "
    "AND x.v = y.v AND y.v = z.v WITHIN 15 RETURN x.id",
]

CONFIGS = [
    PlanConfig(),
    PlanConfig.naive(),
    PlanConfig().with_construction_pushdown(),
    PlanConfig(kleene_mode=KleeneMode.ANY_SUBSET),
]


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    for name in ("A", "B", "C"):
        registry.declare(name, id=AttributeType.INT, v=AttributeType.INT)
    return registry


def _random_stream(seed: int, size: int, id_domain: int = 3,
                   tie_probability: float = 0.2) -> list[Event]:
    rng = random.Random(seed)
    events = []
    ts = 0.0
    for index in range(size):
        if rng.random() > tie_probability:
            ts += rng.choice([0.5, 1.0, 2.0])
        events.append(Event(
            rng.choice(["A", "B", "C"]), ts,
            {"id": rng.randrange(id_domain), "v": rng.randrange(10)},
        ).with_seq(index))
    return events


def _keys(results):
    """A full identity key per composite: output values, bindings,
    detection interval — order-preserving."""
    keys = []
    for composite in results:
        bindings = tuple(
            (variable, binding)
            for variable, binding in sorted(composite.bindings.items()))
        keys.append((composite.type, tuple(composite.attributes.items()),
                     bindings, composite.start, composite.end))
    return keys


def _assert_identical(registry, query_text, events, config,
                      functions=None, expect_compiled=True):
    """Feed-by-feed comparison: same results at every step and at flush."""
    engine = Engine(registry, functions=functions)
    compiled_rt = engine.runtime(query_text, config=config)
    interp_rt = engine.runtime(
        query_text, config=config.without("use_codegen"))
    assert compiled_rt.scan_compiled is expect_compiled
    assert interp_rt.scan_compiled is False
    for event in events:
        assert _keys(compiled_rt.feed(event)) == \
            _keys(interp_rt.feed(event)), \
            f"divergence at event {event!r} for {query_text!r}"
    assert _keys(compiled_rt.flush()) == _keys(interp_rt.flush())


@pytest.mark.parametrize("query_text", QUERIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compiled_equals_interpreted(query_text, seed):
    registry = _registry()
    events = _random_stream(seed, size=40)
    for config in CONFIGS:
        _assert_identical(registry, query_text, events, config)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       size=st.integers(min_value=0, max_value=50),
       query_index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
       config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1))
def test_compiled_equals_interpreted_hypothesis(seed, size, query_index,
                                                config_index):
    registry = _registry()
    events = _random_stream(seed, size, id_domain=4, tie_probability=0.3)
    _assert_identical(registry, QUERIES[query_index], events,
                      CONFIGS[config_index])


def test_compiled_equals_interpreted_hospital_workload():
    scenario = HospitalScenario.generate()
    from repro.workloads.hospital import DOUBLE_DOSE_QUERY, \
        MISSED_DOSE_QUERY
    for query_text in (MISSED_DOSE_QUERY, DOUBLE_DOSE_QUERY):
        _assert_identical(scenario.registry, query_text, scenario.events,
                          PlanConfig())


def test_compiled_equals_interpreted_synthetic_workload():
    stream = SyntheticStream.generate(
        SyntheticConfig(n_events=400, n_types=4, id_domain=10))
    registry, events = stream.registry, stream.events
    for query_text in (
            seq_query(3, window=20.0, partitioned=True),
            seq_query(2, window=10.0, v_filter=5),
            seq_query(3, window=25.0, partitioned=True, negation_at=1)):
        _assert_identical(registry, query_text, events, PlanConfig())


# -- batched ingest ----------------------------------------------------------

def _assert_batched_identical(registry, query_text, events, config,
                              split_seed, functions=None):
    """Random batch splits through the compiled ``feed_batch`` (and the
    interpreter's loop-based one) must match per-event interpreted
    feeding exactly — same composites, same order, same flush."""
    engine = Engine(registry, functions=functions)
    compiled_rt = engine.runtime(query_text, config=config)
    interp_batch_rt = engine.runtime(
        query_text, config=config.without("use_codegen"))
    interp_rt = engine.runtime(
        query_text, config=config.without("use_codegen"))
    rng = random.Random(split_seed)
    compiled_out, interp_batch_out, interp_out = [], [], []
    index = 0
    while index < len(events):
        chunk = events[index:index + rng.randrange(1, 8)]
        index += len(chunk)
        compiled_out.extend(compiled_rt.feed_batch(chunk))
        interp_batch_out.extend(interp_batch_rt.feed_batch(chunk))
        for event in chunk:
            interp_out.extend(interp_rt.feed(event))
    compiled_out.extend(compiled_rt.flush())
    interp_batch_out.extend(interp_batch_rt.flush())
    interp_out.extend(interp_rt.flush())
    reference = _keys(interp_out)
    assert _keys(compiled_out) == reference, \
        f"compiled batched divergence for {query_text!r}"
    assert _keys(interp_batch_out) == reference, \
        f"interpreted batched divergence for {query_text!r}"


@pytest.mark.parametrize("query_text", QUERIES)
def test_batched_equals_per_event(query_text):
    registry = _registry()
    events = _random_stream(7, size=60)
    for config in CONFIGS:
        _assert_batched_identical(registry, query_text, events, config,
                                  split_seed=13)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       size=st.integers(min_value=0, max_value=50),
       query_index=st.integers(min_value=0, max_value=len(QUERIES) - 1),
       config_index=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
       split_seed=st.integers(min_value=0, max_value=1_000))
def test_batched_equals_per_event_hypothesis(seed, size, query_index,
                                             config_index, split_seed):
    registry = _registry()
    events = _random_stream(seed, size, id_domain=4, tie_probability=0.3)
    _assert_batched_identical(registry, QUERIES[query_index], events,
                              CONFIGS[config_index], split_seed)


def test_scan_coverage_flags():
    """Coverage introspection: which queries get a generated construct
    walk and batch body, and which fall back wholesale."""
    registry = _registry()
    engine = Engine(registry)
    trailing = engine.runtime(
        "EVENT SEQ(A a, B+ b) WHERE a.id = b.id WITHIN 10 "
        "RETURN a.id, COUNT(b)")
    assert trailing.scan_coverage == {
        "compiled": True, "construct": True, "batch": True}
    mid_kleene = engine.runtime(
        "EVENT SEQ(A a, B+ b, C c) WHERE a.id = b.id AND a.id = c.id "
        "WITHIN 15 RETURN a.id")
    assert mid_kleene.scan_coverage == {
        "compiled": True, "construct": False, "batch": True}
    interpreted = engine.runtime(
        "EVENT SEQ(A x, B y) WITHIN 10 RETURN x.id",
        config=PlanConfig(use_codegen=False))
    assert interpreted.scan_coverage == {
        "compiled": False, "construct": False, "batch": False}


# -- interpreter fallback ----------------------------------------------------

def test_function_call_filter_forces_fallback():
    """A WHERE predicate calling a user function is outside codegen's
    expression subset: the runtime must silently use the interpreter and
    produce the same results."""
    registry = _registry()
    functions = FunctionRegistry()
    functions.register("_even", lambda value: value % 2 == 0)
    query_text = "EVENT SEQ(A x, B y) WHERE _even(x.v) WITHIN 10 " \
        "RETURN x.id"
    events = _random_stream(3, size=40)
    _assert_identical(registry, query_text, events, PlanConfig(),
                      functions=functions, expect_compiled=False)


def test_fuzzed_fallback_queries_still_correct():
    """Fuzz across predicates that mix compilable and non-compilable
    fragments; whichever path is chosen, output must match the pure
    interpreter."""
    registry = _registry()
    functions = FunctionRegistry()
    functions.register("_identity", lambda value: value)
    fragments = [
        ("x.v < 5", True),
        ("x.id = y.id", True),
        ("_identity(x.v) = x.v", False),
        ("x.v + y.v > 4", True),
    ]
    rng = random.Random(11)
    for trial in range(8):
        chosen = rng.sample(fragments, rng.randrange(1, len(fragments)))
        where = " AND ".join(fragment for fragment, _ in chosen)
        query_text = f"EVENT SEQ(A x, B y) WHERE {where} WITHIN 10 " \
            f"RETURN x.id"
        events = _random_stream(100 + trial, size=30)
        # Single-variable function predicates push to the scan and force
        # fallback there; cross-variable ones stay in Selection so the
        # scan still compiles.
        pushed_uncompilable = any(
            not compilable and "y." not in fragment
            for fragment, compilable in chosen)
        _assert_identical(registry, query_text, events, PlanConfig(),
                          functions=functions,
                          expect_compiled=not pushed_uncompilable)


def test_stateful_fallback_fuzz():
    """Function predicates landing in a stateful shape's pushed filters
    force wholesale fallback; the interpreter loop must still carry its
    batch API and produce identical output under random batch splits."""
    registry = _registry()
    functions = FunctionRegistry()
    functions.register("_even", lambda value: value % 2 == 0)
    shapes = [
        ("EVENT SEQ(A a, B+ b) WHERE a.id = b.id AND _even(a.v) "
         "WITHIN 10 RETURN a.id, COUNT(b)", False),
        ("EVENT SEQ(A x, B y, C z) WHERE x.id = y.id AND y.id = z.id "
         "AND _even(z.v) WITHIN 15 RETURN x.id", False),
        ("EVENT SEQ(A x, B y) WHERE x.id = y.id AND x.v = y.v "
         "AND _even(y.v) WITHIN 10 RETURN x.id", False),
        ("EVENT SEQ(A a, B+ b) WHERE a.id = b.id WITHIN 10 "
         "RETURN a.id, COUNT(b)", True),
    ]
    for trial, (query_text, expect_compiled) in enumerate(shapes):
        events = _random_stream(200 + trial, size=50)
        _assert_identical(registry, query_text, events, PlanConfig(),
                          functions=functions,
                          expect_compiled=expect_compiled)
        _assert_batched_identical(registry, query_text, events,
                                  PlanConfig(), split_seed=trial,
                                  functions=functions)


def test_codegen_flag_off_uses_interpreter():
    registry = _registry()
    engine = Engine(registry)
    runtime = engine.runtime(
        "EVENT SEQ(A x, B y) WITHIN 10 RETURN x.id",
        config=PlanConfig(use_codegen=False))
    assert runtime.scan_compiled is False


def test_compiled_scan_exposes_source():
    registry = _registry()
    engine = Engine(registry)
    runtime = engine.runtime(
        "EVENT SEQ(A x, B y) WHERE x.id = y.id WITHIN 10 RETURN x.id")
    assert runtime.scan_compiled is True
    source = runtime._scan.codegen_source
    assert "def feed_batch(self, events, bounds=None):" in source
    assert "def feed(self, event):" not in source  # a batch of one
    assert "EvalContext" not in source  # the point of the exercise
