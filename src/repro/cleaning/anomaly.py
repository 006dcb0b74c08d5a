"""Anomaly Filtering layer: drop spurious readings and truncated ids.

Two checks, per the paper: structural validity of the id (length and
checksum — truncated ids fail both) and, when a known-tag set is available
(the ONS knows every registered item), membership — a well-formed EPC for a
tag that does not exist is a *ghost read* and is dropped as spurious.
"""

from __future__ import annotations

from typing import Iterable

from repro.cleaning.base import CleanReading, StageStats
from repro.rfid.simulator import RawReading
from repro.rfid.tags import parse_epc


class AnomalyFilter:
    """Stage 1 of the cleaning pipeline."""

    def __init__(self, known_tags: set[int] | None = None,
                 stats: StageStats | None = None):
        self._known_tags = known_tags
        self.stats = stats or StageStats("anomaly_filter")

    def process(self, readings: Iterable[RawReading]) -> list[CleanReading]:
        """Validate one scan's readings; invalid ones are dropped."""
        output: list[CleanReading] = []
        for reading in readings:
            self.stats.consumed += 1
            tag_id = parse_epc(reading.epc)
            if tag_id is None or (self._known_tags is not None
                                  and tag_id not in self._known_tags):
                self.stats.dropped += 1
                continue
            output.append(CleanReading(tag_id, reading.reader_id,
                                       reading.time))
        self.stats.produced += len(output)
        return output
