"""Order-sensitive digest of a run's results.

Every result is folded into a running hash as (query, start, end,
attributes) in delivery order, so two runs agree only when they produced
the same results in the same order.  Nothing is retained per result: a
kept list would add to the memory and garbage-collection time being
measured.
"""

from __future__ import annotations

import hashlib


class Fingerprint:
    """Running digest plus the counts the correctness checks need."""

    def __init__(self) -> None:
        self._digest = hashlib.blake2b(digest_size=16)
        self.results = 0
        # Tags detected per query, for the ground-truth score (tiny sets).
        self.detected: dict[str, set] = {}

    def add(self, pairs, track: dict[str, str] | None = None) -> bool:
        """Fold in one call's ``(query, result)`` pairs; False when any
        result is flagged incomplete.  *track* maps query name to the
        attribute whose values are collected into :attr:`detected`."""
        update = self._digest.update
        complete = True
        for name, result in pairs:
            update(repr((name, result.start, result.end,
                         tuple(result.attributes.items()))).encode())
            if not result.complete:
                complete = False
            if track is not None and name in track:
                self.detected.setdefault(name, set()).add(
                    result.attributes.get(track[name]))
        self.results += len(pairs)
        return complete

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def precision_recall(detected: set, truth: set) -> tuple[float, float]:
    """Precision and recall of *detected* against *truth* (1.0 when both
    are empty)."""
    hits = len(detected & truth)
    precision = hits / len(detected) if detected else float(not truth)
    recall = hits / len(truth) if truth else 1.0
    return precision, recall
