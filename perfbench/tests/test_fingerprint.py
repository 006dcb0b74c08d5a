"""The result fingerprint and the ground-truth score."""

from types import SimpleNamespace

from fingerprint import Fingerprint, precision_recall


def result(start, end, complete=True, **attributes):
    return SimpleNamespace(start=start, end=end, attributes=attributes,
                           complete=complete)


def digest(*batches):
    fingerprint = Fingerprint()
    for batch in batches:
        fingerprint.add(batch)
    return fingerprint.hexdigest()


def test_same_results_in_the_same_order_agree_across_call_boundaries():
    first = ("q", result(1, 2, x=1))
    second = ("q", result(2, 3, x=2))
    assert digest([first, second]) == digest([first], [second])


def test_the_fingerprint_is_sensitive_to_order():
    first = ("q", result(1, 2, x=1))
    second = ("p", result(1, 2, x=1))
    assert digest([first, second]) != digest([second, first])


def test_every_field_counts():
    base = digest([("q", result(1, 2, x=1))])
    assert digest([("p", result(1, 2, x=1))]) != base
    assert digest([("q", result(0, 2, x=1))]) != base
    assert digest([("q", result(1, 3, x=1))]) != base
    assert digest([("q", result(1, 2, x=2))]) != base


def test_incomplete_results_are_flagged_and_tags_tracked():
    fingerprint = Fingerprint()
    assert fingerprint.add([("q", result(1, 2, x=5))], {"q": "x"})
    assert not fingerprint.add([("q", result(1, 2, False, x=6))], {"q": "x"})
    assert fingerprint.results == 2
    assert fingerprint.detected == {"q": {5, 6}}


def test_precision_and_recall():
    assert precision_recall({1, 2}, {1, 2}) == (1.0, 1.0)
    assert precision_recall({1, 3}, {1, 2}) == (0.5, 0.5)
    assert precision_recall(set(), set()) == (1.0, 1.0)
    assert precision_recall(set(), {1}) == (0.0, 0.0)
