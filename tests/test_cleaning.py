"""Tests for the five cleaning and association layers."""

from __future__ import annotations

import pytest

from repro.cleaning import (
    AnomalyFilter,
    CleanReading,
    CleaningConfig,
    CleaningPipeline,
    Deduplication,
    EventGeneration,
    TemporalSmoothing,
    TimeConversion,
)
from repro.cleaning.base import LogicalReading
from repro.errors import CleaningError
from repro.ons import ObjectNameService
from repro.rfid import NoiseModel, default_retail_layout, encode_epc
from repro.rfid.simulator import RawReading
from repro.workloads import RetailConfig, RetailScenario


def raw(tag_id: int, reader: str = "R1", time: float = 1.0) -> RawReading:
    return RawReading(encode_epc(tag_id), reader, time)


class TestAnomalyFilter:
    def test_valid_reading_decoded(self):
        layer = AnomalyFilter()
        out = layer.process([raw(100)])
        assert out == [CleanReading(100, "R1", 1.0)]

    def test_truncated_id_dropped(self):
        layer = AnomalyFilter()
        broken = RawReading(encode_epc(100)[:-3], "R1", 1.0)
        assert layer.process([broken]) == []
        assert layer.stats.dropped == 1

    def test_ghost_tag_dropped_with_known_set(self):
        layer = AnomalyFilter(known_tags={100})
        assert layer.process([raw(100), raw(999)]) == \
            [CleanReading(100, "R1", 1.0)]

    def test_ghost_kept_without_known_set(self):
        layer = AnomalyFilter(known_tags=None)
        assert len(layer.process([raw(999)])) == 1

    def test_drop_counts_per_kind(self):
        """Each EPC is validated once; truncated, bad-checksum,
        non-numeric and ghost reads are all dropped and counted."""
        good = encode_epc(100)
        bad_check = good[:-2] + f"{(int(good[-2:]) + 1) % 100:02d}"
        readings = [
            raw(100), raw(101),
            RawReading(good[:-3], "R1", 1.0),           # truncated
            RawReading(good[:-1], "R1", 1.0),           # truncated
            RawReading(bad_check, "R1", 1.0),           # bad checksum
            RawReading("EPC00000001x000", "R1", 1.0),   # not digits
            RawReading("XYZ" + good[3:], "R1", 1.0),    # wrong prefix
            raw(999), raw(998),                         # ghosts
        ]
        layer = AnomalyFilter(known_tags={100, 101})
        assert layer.process(readings) == [CleanReading(100, "R1", 1.0),
                                           CleanReading(101, "R1", 1.0)]
        assert (layer.stats.consumed, layer.stats.dropped,
                layer.stats.produced) == (9, 7, 2)

    def test_drop_counts_on_noisy_store_day(self):
        """Pinned drop count of a seeded noisy scenario, so validating
        each EPC once keeps every truncated and ghost read dropped."""
        scenario = RetailScenario.generate(RetailConfig(seed=99))
        layer = AnomalyFilter(
            known_tags={record.tag_id for record in scenario.ons})
        noise = NoiseModel(miss_rate=0.1, duplicate_rate=0.1,
                           truncate_rate=0.02, ghost_rate=0.01)
        for _, readings in scenario.ticks(noise):
            layer.process(readings)
        assert (layer.stats.consumed, layer.stats.dropped,
                layer.stats.produced) == (11752, 245, 11507)


class TestTemporalSmoothing:
    def test_gap_filled_within_window(self):
        layer = TemporalSmoothing(window=2.0)
        layer.process([CleanReading(100, "R1", 0.0)], now=0.0)
        out = layer.process([], now=1.0)
        assert len(out) == 1 and out[0].smoothed
        assert out[0].time == 1.0

    def test_gap_beyond_window_not_filled(self):
        layer = TemporalSmoothing(window=2.0)
        layer.process([CleanReading(100, "R1", 0.0)], now=0.0)
        out = layer.process([], now=5.0)
        assert out == []

    def test_real_reading_refreshes_window(self):
        layer = TemporalSmoothing(window=1.5)
        layer.process([CleanReading(100, "R1", 0.0)], now=0.0)
        layer.process([CleanReading(100, "R1", 1.0)], now=1.0)
        out = layer.process([], now=2.0)
        assert len(out) == 1  # still within 1.5 of the t=1 reading

    def test_smoothing_is_per_reader(self):
        layer = TemporalSmoothing(window=2.0)
        layer.process([CleanReading(100, "R1", 0.0)], now=0.0)
        out = layer.process([CleanReading(100, "R2", 1.0)], now=1.0)
        # real reading at R2 plus smoothed reading at R1
        assert {(r.reader_id, r.smoothed) for r in out} == \
            {("R2", False), ("R1", True)}

    def test_zero_window_disables_smoothing(self):
        layer = TemporalSmoothing(window=0.0)
        layer.process([CleanReading(100, "R1", 0.0)], now=0.0)
        assert layer.process([], now=1.0) == []

    def test_negative_window_rejected(self):
        with pytest.raises(CleaningError):
            TemporalSmoothing(window=-1.0)


class TestTimeConversion:
    def test_quantisation(self):
        layer = TimeConversion(unit=5.0)
        out = layer.process([CleanReading(100, "R1", 12.3)])
        assert out[0].timestamp == 10.0
        assert out[0].time == 12.3

    def test_origin_shift(self):
        layer = TimeConversion(unit=1.0, origin=10.0)
        out = layer.process([CleanReading(100, "R1", 12.7)])
        assert out[0].timestamp == 2.0

    def test_invalid_unit(self):
        with pytest.raises(CleaningError):
            TimeConversion(unit=0)


class TestDeduplication:
    def _layer(self):
        return Deduplication(default_retail_layout(
            redundant_exit_reader=True))

    def _logical(self, tag, reader, timestamp):
        return LogicalReading(tag, reader, timestamp, timestamp)

    def test_redundant_readers_same_area_deduped(self):
        layer = self._layer()
        out = layer.process([self._logical(100, "R4", 1.0),
                             self._logical(100, "R4b", 1.0)])
        assert len(out) == 1
        assert layer.stats.dropped == 1

    def test_same_reader_same_unit_deduped(self):
        layer = self._layer()
        out = layer.process([self._logical(100, "R1", 1.0),
                             self._logical(100, "R1", 1.0)])
        assert len(out) == 1

    def test_new_time_unit_passes(self):
        layer = self._layer()
        layer.process([self._logical(100, "R1", 1.0)])
        out = layer.process([self._logical(100, "R1", 2.0)])
        assert len(out) == 1

    def test_different_areas_both_pass(self):
        layer = self._layer()
        out = layer.process([self._logical(100, "R1", 1.0),
                             self._logical(100, "R2", 1.0)])
        assert len(out) == 2


class TestEventGeneration:
    def test_enrichment(self):
        layout = default_retail_layout()
        ons = ObjectNameService()
        ons.register_product(100, "soap", category="household",
                             price=1.99, home_area_id=1)
        layer = EventGeneration(layout, ons)
        events = layer.process([LogicalReading(100, "R1", 3.0, 3.0)])
        assert len(events) == 1
        event = events[0]
        assert event.type == "SHELF_READING"
        assert event.timestamp == 3.0
        assert event["ProductName"] == "soap"
        assert event["AreaId"] == 1
        assert event["HomeAreaId"] == 1
        assert event["Saleable"] is True

    def test_counter_and_exit_types(self):
        layout = default_retail_layout()
        ons = ObjectNameService()
        ons.register_product(100, "soap")
        layer = EventGeneration(layout, ons)
        types = [layer.process([LogicalReading(100, reader, 1.0, 1.0)]
                               )[0].type for reader in ("R3", "R4")]
        assert types == ["COUNTER_READING", "EXIT_READING"]

    def test_unknown_tag_dropped(self):
        layer = EventGeneration(default_retail_layout(),
                                ObjectNameService())
        assert layer.process([LogicalReading(5, "R1", 1.0, 1.0)]) == []
        assert layer.stats.dropped == 1


class TestPipeline:
    def test_end_to_end_order_and_stats(self):
        layout = default_retail_layout()
        ons = ObjectNameService()
        for tag in (100, 101):
            ons.register_product(tag, f"p{tag}", home_area_id=1)
        pipeline = CleaningPipeline(layout, ons,
                                    CleaningConfig(smoothing_window=1.0))
        ticks = [
            (0.0, [raw(100, "R1", 0.0), raw(101, "R2", 0.0)]),
            (1.0, [raw(100, "R1", 1.0)]),   # 101 smoothed in
            (2.0, []),
        ]
        events = list(pipeline.run(ticks))
        timestamps = [event.timestamp for event in events]
        assert timestamps == sorted(timestamps)
        snapshot = pipeline.stats.snapshot()
        assert snapshot["anomaly_filter"][0] == 3
        assert snapshot["temporal_smoothing"][3] >= 1  # created
        assert snapshot["event_generation"][1] == len(events)

    def test_events_validate_against_registry(self, retail_schemas):
        layout = default_retail_layout()
        ons = ObjectNameService()
        ons.register_product(100, "soap")
        pipeline = CleaningPipeline(layout, ons)
        events = pipeline.process_tick([raw(100, "R3", 1.0)], now=1.0)
        schema = retail_schemas.get("COUNTER_READING")
        assert events[0].matches_schema(schema)
