"""Tests for the complex event processor and the wired system."""

from __future__ import annotations

import pytest

from repro.errors import SaseError
from repro.events.event import Event
from repro.ons import ObjectNameService
from repro.rfid import default_retail_layout
from repro.rfid.simulator import RawReading
from repro.rfid.tags import encode_epc
from repro.schemas import retail_registry
from repro.system import ComplexEventProcessor, QueryKind, SaseSystem
from repro.system.sase import TapLine
from repro.workloads import LOCATION_UPDATE_RULE, SHOPLIFTING_QUERY


def reading_event(event_type: str, ts: float, tag: int,
                  area: int) -> Event:
    return Event(event_type, ts, {
        "TagId": tag, "AreaId": area, "ReaderId": "R1",
        "ProductName": f"p{tag}", "Category": "general", "Price": 1.0,
        "ExpirationDate": "", "Saleable": True, "HomeAreaId": 1})


class TestProcessor:
    def _processor(self) -> ComplexEventProcessor:
        return ComplexEventProcessor(retail_registry())

    def test_register_and_feed(self):
        processor = self._processor()
        seen = []
        processor.register_monitoring_query(
            "exits", "EVENT EXIT_READING x RETURN x.TagId",
            on_result=lambda name, result: seen.append(result))
        produced = processor.feed(reading_event("EXIT_READING", 1, 7, 4))
        assert len(produced) == 1 and produced[0][0] == "exits"
        assert seen[0]["x_TagId"] == 7
        assert processor.query("exits").results_produced == 1

    def test_duplicate_name_rejected(self):
        processor = self._processor()
        processor.register_monitoring_query(
            "q", "EVENT EXIT_READING x RETURN x.TagId")
        with pytest.raises(SaseError, match="already registered"):
            processor.register_monitoring_query(
                "q", "EVENT EXIT_READING x RETURN x.TagId")

    def test_deregister_stops_query(self):
        processor = self._processor()
        processor.register_monitoring_query(
            "q", "EVENT EXIT_READING x RETURN x.TagId")
        processor.deregister("q")
        assert processor.feed(reading_event("EXIT_READING", 1, 7, 4)) == []
        with pytest.raises(SaseError):
            processor.deregister("q")

    def test_multiple_queries_share_stream(self):
        processor = self._processor()
        processor.register_monitoring_query(
            "exits", "EVENT EXIT_READING x RETURN x.TagId")
        processor.register_monitoring_query(
            "shelves", "EVENT SHELF_READING x RETURN x.TagId")
        produced = processor.feed_many([
            reading_event("SHELF_READING", 1, 7, 1),
            reading_event("EXIT_READING", 2, 7, 4)])
        assert {name for name, _ in produced} == {"exits", "shelves"}

    def test_flush_releases_trailing_negation(self):
        processor = self._processor()
        processor.register_monitoring_query(
            "no_checkout",
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y)) "
            "WHERE x.TagId = y.TagId WITHIN 100 RETURN x.TagId")
        assert processor.feed(
            reading_event("SHELF_READING", 1, 7, 1)) == []
        produced = processor.flush()
        assert len(produced) == 1

    def test_kind_recorded(self):
        processor = self._processor()
        rule = processor.register_archiving_rule(
            "rule", "EVENT SHELF_READING x "
                    "RETURN _updateLocation(x.TagId, x.AreaId, "
                    "x.Timestamp)")
        assert rule.kind is QueryKind.ARCHIVING_RULE


class TestSaseSystem:
    def _system(self) -> SaseSystem:
        layout = default_retail_layout()
        ons = ObjectNameService()
        ons.register_product(100, "soap", home_area_id=1)
        return SaseSystem(layout, ons)

    def test_reference_data_synced(self):
        system = self._system()
        assert system.event_db.area_description(4) is not None
        assert system.event_db.product_info(100) is not None

    def test_process_tick_runs_full_stack(self):
        system = self._system()
        system.register_monitoring_query(
            "shelf", "EVENT SHELF_READING x RETURN x.TagId")
        produced = system.process_tick(
            [RawReading(encode_epc(100), "R1", 1.0)], now=1.0)
        assert len(produced) == 1
        assert system.taps.cleaning_output
        assert system.taps.stream_results
        assert system.taps.messages

    def test_archiving_rule_updates_database(self):
        system = self._system()
        system.register_archiving_rule(
            "loc", LOCATION_UPDATE_RULE("SHELF_READING"))
        system.process_tick([RawReading(encode_epc(100), "R1", 1.0)],
                            now=1.0)
        location = system.event_db.current_location(100)
        assert location is not None and location["area_id"] == 1
        assert system.taps.database_reports

    def test_custom_message_formatter(self):
        system = self._system()
        system.register_monitoring_query(
            "shelf", "EVENT SHELF_READING x RETURN x.TagId",
            message=lambda result: f"custom {result['x_TagId']}")
        system.process_tick([RawReading(encode_epc(100), "R1", 1.0)],
                            now=1.0)
        assert system.taps.messages == ["custom 100"]

    def test_query_database_records_report(self):
        system = self._system()
        rows = system.query_database("SELECT * FROM areas")
        assert len(rows) == 4
        assert any("ad-hoc" in line
                   for line in system.taps.database_reports)

    def test_shoplifting_query_compiles_against_system(self):
        system = self._system()
        registered = system.register_monitoring_query(
            "shoplifting", SHOPLIFTING_QUERY)
        assert "PAIS" in registered.compiled.explain()

    def test_taps_bounded(self):
        system = self._system()
        system.taps.limit = 5
        for index in range(20):
            system.taps.record_message(f"m{index}")
        assert len(system.taps.messages) == 5
        assert system.taps.messages[-1] == "m19"

    def test_default_tap_lines_format_when_read(self, monkeypatch):
        formatted = []
        real = TapLine.__str__

        def counting(line):
            formatted.append(line.name)
            return real(line)

        monkeypatch.setattr(TapLine, "__str__", counting)
        system = self._system()
        system.taps.limit = 2
        system.register_monitoring_query(
            "shelf", "EVENT SHELF_READING x RETURN x.TagId, x.AreaId")
        system.register_archiving_rule(
            "loc", LOCATION_UPDATE_RULE("SHELF_READING"))
        for index in range(6):
            system.process_tick(
                [RawReading(encode_epc(100), "R1", float(index))],
                now=float(index))
        assert formatted == []   # six lines per tap recorded, none read
        assert system.taps.messages == ["[shelf] x_TagId=100, x_AreaId=1"] * 2
        assert system.taps.database_reports == [
            "[loc] database update: updateLocation=False"] * 2
        assert len(formatted) == 4
