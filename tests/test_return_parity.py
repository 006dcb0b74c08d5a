"""RETURN-clause parity: the bound Transformation against the
interpreter.

``Transformation`` binds each RETURN item once at registration: plain
attribute and ``Timestamp`` reads come straight off the bound event, and
a ``_`` function over such reads gets its arguments in one loop.  Every
item must still evaluate exactly as its ``compile_expr`` closure does —
same values, and on failure the same error type and text — and a
function's side effect must run exactly once per match even when a
later item raises.
"""

from __future__ import annotations

import pytest

from repro.core.expressions import EvalContext, compile_expr
from repro.core.match import Match
from repro.core.operators import Transformation
from repro.errors import EvaluationError, FunctionError
from repro.events.event import Event
from repro.funcs.registry import FunctionRegistry
from repro.lang.parser import parse_query
from repro.lang.semantics import analyze

A1 = Event("A", 1.0, {"id": 7, "v": 10})
B2 = Event("B", 2.0, {"id": 7, "v": 20})
B3 = Event("B", 3.0, {"id": 7, "v": 30})
C4 = Event("C", 4.0, {"id": 7, "v": 40})


def registry_of(calls: list) -> FunctionRegistry:
    functions = FunctionRegistry()

    @functions.function("_pair")
    def pair(first, second):
        return f"{first}/{second}"

    @functions.function("_record", needs_context=True)
    def record(context, value):
        calls.append(value)
        return len(calls)

    @functions.function("_boom")
    def boom(value):
        raise ValueError(f"boom on {value}")

    return functions


def interpreted(analyzed, match: Match, functions) -> dict:
    """The reference: every item through its compiled closure."""
    context = EvalContext(match.bindings, functions, None)
    return {item.name: compile_expr(item.expr)(context)
            for item in analyzed.return_items}


def outcome(evaluate):
    try:
        return "ok", evaluate()
    except Exception as error:  # compared by type and text below
        return type(error).__name__, str(error)


PAIR = "EVENT SEQ(A x, B y) WITHIN 10 "
KLEENE = "EVENT SEQ(A a, B+ b, C c) WITHIN 10 "

CASES = [
    # (query, bindings) — values that evaluate
    (PAIR + "RETURN x.v", dict(x=A1, y=B2)),
    (PAIR + "RETURN x.v, y.id AS key", dict(x=A1, y=B2)),
    (PAIR + "RETURN x.Timestamp, y.timestamp", dict(x=A1, y=B2)),
    (PAIR + "RETURN 42, 'label', TRUE", dict(x=A1, y=B2)),
    (PAIR + "RETURN x.v + y.v * 2, y.v - x.v", dict(x=A1, y=B2)),
    (PAIR + "RETURN _pair(x.v, y.Timestamp)", dict(x=A1, y=B2)),
    (PAIR + "RETURN _pair(x.v + 1, 'k')", dict(x=A1, y=B2)),
    (KLEENE + "RETURN a.v, COUNT(b), SUM(b.v), LAST(b.v), c.Timestamp",
     dict(a=A1, b=(B2, B3), c=C4)),
    (KLEENE + "RETURN AVG(b.v), MIN(b.v), COUNT(*)",
     dict(a=A1, b=(B2, B3), c=C4)),
    # error cases: a Kleene binding read as one event, a missing
    # attribute, an unbound variable, an unknown or raising function
    (PAIR + "RETURN x.v", dict(x=(A1, A1), y=B2)),
    (PAIR + "RETURN y.Timestamp", dict(x=A1, y=(B2, B3))),
    (PAIR + "RETURN x.v", dict(x=Event("A", 1.0, {"id": 7}), y=B2)),
    (PAIR + "RETURN y.v", dict(x=A1)),
    (PAIR + "RETURN _pair(x.v, y.v)", dict(x=(A1, A1), y=B2)),
    (PAIR + "RETURN _pair(x.v, y.v)", dict(x=A1)),
    (PAIR + "RETURN _pair(x.v, y.v)",
     dict(x=A1, y=Event("B", 2.0, {"id": 7}))),
    (PAIR + "RETURN _nosuch(x.v)", dict(x=A1, y=B2)),
    (PAIR + "RETURN _boom(x.v)", dict(x=A1, y=B2)),
    (PAIR + "RETURN _boom(x.v + 1)", dict(x=A1, y=B2)),
]


@pytest.mark.parametrize("query, bindings", CASES,
                         ids=[f"{index}" for index in range(len(CASES))])
def test_bound_return_matches_interpreter(abc_registry, query, bindings):
    analyzed = analyze(parse_query(query), abc_registry)
    match = Match(bindings, 1.0, 4.0)
    expected = outcome(lambda: interpreted(
        analyzed, match, registry_of([])))
    transform = Transformation(analyzed, functions=registry_of([]))
    got = outcome(lambda: transform.process(match).attributes)
    assert got == expected
    if got[0] != "ok":
        assert got[0] in (EvaluationError.__name__, FunctionError.__name__)


def test_function_runs_once_when_a_later_item_raises(abc_registry):
    analyzed = analyze(parse_query(
        PAIR + "RETURN _record(x.v), y.v"), abc_registry)
    calls: list = []
    transform = Transformation(analyzed, functions=registry_of(calls))
    match = Match(dict(x=A1, y=Event("B", 2.0, {"id": 7})), 1.0, 2.0)
    with pytest.raises(EvaluationError, match="no attribute 'v'"):
        transform.process(match)
    assert calls == [10]


def test_function_not_called_when_its_argument_fails(abc_registry):
    analyzed = analyze(parse_query(
        PAIR + "RETURN _record(y.v)"), abc_registry)
    calls: list = []
    transform = Transformation(analyzed, functions=registry_of(calls))
    with pytest.raises(EvaluationError, match="Kleene binding"):
        transform.process(Match(dict(x=A1, y=(B2, B3)), 1.0, 3.0))
    assert calls == []


def test_no_registry_keeps_the_interpreter_error(abc_registry):
    analyzed = analyze(parse_query(PAIR + "RETURN _pair(x.v, y.v)"),
                       abc_registry)
    with pytest.raises(FunctionError, match="no function registry"):
        Transformation(analyzed).process(Match(dict(x=A1, y=B2), 1.0, 2.0))
