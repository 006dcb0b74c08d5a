"""Tests for the event database: archival rules + track-and-trace."""

from __future__ import annotations

import pytest

from repro.db import EventDatabase
from repro.errors import DatabaseError
from repro.events.event import Event


@pytest.fixture
def edb() -> EventDatabase:
    database = EventDatabase()
    database.register_area(1, "shelf", "shelf A")
    database.register_area(2, "shelf", "shelf B")
    database.register_area(4, "exit", "south exit")
    database.register_product(100, "soap", price=1.99)
    return database


class TestLocationUpdate:
    def test_first_update_opens_stay(self, edb):
        assert edb.update_location(100, 1, 10.0)
        location = edb.current_location(100)
        assert location is not None
        assert location["area_id"] == 1 and location["time_out"] is None

    def test_move_closes_previous_stay(self, edb):
        edb.update_location(100, 1, 10.0)
        edb.update_location(100, 2, 20.0)
        history = edb.movement_history(100)
        assert [(entry["area_id"], entry["time_in"], entry["time_out"])
                for entry in history] == [(1, 10.0, 20.0), (2, 20.0, None)]

    def test_same_area_is_noop(self, edb):
        edb.update_location(100, 1, 10.0)
        assert not edb.update_location(100, 1, 50.0)
        assert len(edb.movement_history(100)) == 1

    def test_backwards_time_rejected(self, edb):
        edb.update_location(100, 1, 10.0)
        with pytest.raises(DatabaseError, match="precedes"):
            edb.update_location(100, 2, 5.0)

    def test_history_includes_descriptions(self, edb):
        edb.update_location(100, 1, 10.0)
        edb.update_location(100, 4, 20.0)
        history = edb.movement_history(100)
        assert history[-1]["description"] == "south exit"

    def test_unknown_tag_has_no_location(self, edb):
        assert edb.current_location(999) is None
        assert edb.movement_history(999) == []


class TestContainment:
    def test_open_and_close(self, edb):
        edb.update_containment(100, 900, 5.0)
        assert edb.current_containment(100) == 900
        edb.update_containment(100, None, 9.0)
        assert edb.current_containment(100) is None
        history = edb.containment_history(100)
        assert [(entry["parent_tag"], entry["time_out"])
                for entry in history] == [(900, 9.0)]

    def test_change_box(self, edb):
        edb.update_containment(100, 900, 5.0)
        edb.update_containment(100, 901, 8.0)
        assert edb.current_containment(100) == 901
        assert len(edb.containment_history(100)) == 2

    def test_same_parent_noop(self, edb):
        edb.update_containment(100, 900, 5.0)
        assert not edb.update_containment(100, 900, 8.0)

    def test_current_contents(self, edb):
        edb.register_product(101, "gel")
        edb.update_containment(100, 900, 5.0)
        edb.update_containment(101, 900, 5.0)
        edb.update_containment(100, None, 9.0)
        assert edb.current_contents(900) == [101]


class TestArchiveAndTrace:
    def test_archive_sequence(self, edb):
        first = edb.archive_event(Event("SHELF_READING", 1.0,
                                        {"TagId": 100, "AreaId": 1}))
        second = edb.archive_event(Event("EXIT_READING", 2.0,
                                         {"TagId": 100, "AreaId": 4}))
        assert (first, second) == (0, 1)
        rows = edb.db.query("SELECT event_type FROM event_archive "
                            "ORDER BY seq")
        assert [row["event_type"] for row in rows] == \
            ["SHELF_READING", "EXIT_READING"]

    def test_trace_bundle(self, edb):
        edb.update_location(100, 1, 10.0)
        edb.update_containment(100, 900, 5.0)
        trace = edb.trace(100)
        assert trace["product"]["product_name"] == "soap"
        assert trace["current_location"]["area_id"] == 1
        assert len(trace["containment_history"]) == 1

    def test_area_description(self, edb):
        assert edb.area_description(4) == "south exit"
        assert edb.area_description(99) is None

    def test_product_info_missing(self, edb):
        assert edb.product_info(12345) is None


def first_open_by_rowid(edb: EventDatabase, table: str, column: str,
                        key: int):
    """Brute force: the first row of *key* by rowid with no time_out."""
    for rowid, row in edb.db.table(table).rows():
        if row[0] == key and row[3] is None:
            return rowid, row
    return None


class TestOpenRowAccessPath:
    """The open stay comes from the index bucket's lowest open rowid;
    it must agree with a scan in rowid order whatever SQL did to the
    table."""

    def _moves(self, edb):
        for index, area in enumerate((1, 2, 4, 1, 2)):
            edb.update_location(100, area, 10.0 * (index + 1))
            edb.update_location(200, 4 if area == 1 else 1,
                                10.0 * (index + 1))

    def test_reopened_older_stay_wins(self, edb):
        self._moves(edb)
        edb.db.execute("UPDATE locations SET time_out = NULL "
                       "WHERE tag_id = 100 AND time_in = 20.0")
        expected = first_open_by_rowid(edb, "locations", "tag_id", 100)
        assert expected is not None and expected[1][2] == 20.0
        assert edb._current_location_row(100) == expected
        assert edb.current_location(100)["area_id"] == 2

    def test_after_delete(self, edb):
        self._moves(edb)
        edb.db.execute("UPDATE locations SET time_out = NULL "
                       "WHERE tag_id = 100 AND time_in = 20.0")
        edb.db.execute("DELETE FROM locations "
                       "WHERE tag_id = 100 AND time_in = 20.0")
        for tag in (100, 200):
            assert edb._current_location_row(tag) == \
                first_open_by_rowid(edb, "locations", "tag_id", tag)
        edb.db.execute("DELETE FROM locations WHERE tag_id = 100")
        assert edb.current_location(100) is None
        assert first_open_by_rowid(edb, "locations", "tag_id", 100) is None

    def test_containment_reopened(self, edb):
        edb.update_containment(100, 900, 1.0)
        edb.update_containment(100, 901, 2.0)
        edb.update_containment(100, 902, 3.0)
        edb.db.execute("UPDATE containment SET time_out = NULL "
                       "WHERE parent_tag = 900")
        assert edb._current_containment_row(100) == \
            first_open_by_rowid(edb, "containment", "child_tag", 100)
        assert edb.current_containment(100) == 900
