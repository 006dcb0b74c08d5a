"""Tests for SQL access-path selection (index usage) and EXPLAIN."""

from __future__ import annotations

import pytest

from repro.db import Database


@pytest.fixture
def db() -> Database:
    database = Database()
    database.execute(
        "CREATE TABLE t (id INT PRIMARY KEY, grp INT, name TEXT)")
    database.execute("CREATE INDEX ON t (grp)")
    for index in range(200):
        database.table("t").insert({"id": index, "grp": index % 10,
                                    "name": f"n{index}"})
    return database


class TestIndexedAccess:
    def test_primary_key_lookup(self, db):
        rows = db.query("SELECT name FROM t WHERE id = 42")
        assert rows == [{"name": "n42"}]
        assert "index lookup" in db.explain(
            "SELECT name FROM t WHERE id = 42")[0]

    def test_secondary_index_lookup(self, db):
        rows = db.query("SELECT id FROM t WHERE grp = 3")
        assert len(rows) == 20
        assert "index lookup on t.grp" in db.explain(
            "SELECT id FROM t WHERE grp = 3")[0]

    def test_index_with_residual_predicate(self, db):
        rows = db.query("SELECT id FROM t WHERE grp = 3 AND id < 50")
        assert sorted(row["id"] for row in rows) == [3, 13, 23, 33, 43]

    def test_constant_expression_pins_index(self, db):
        rows = db.query("SELECT id FROM t WHERE id = 40 + 2")
        assert rows == [{"id": 42}]
        assert "index lookup" in db.explain(
            "SELECT id FROM t WHERE id = 40 + 2")[0]

    def test_unindexed_column_scans(self, db):
        explain = db.explain("SELECT id FROM t WHERE name = 'n5'")
        assert "full scan" in explain[0]
        assert db.query("SELECT id FROM t WHERE name = 'n5'") == \
            [{"id": 5}]

    def test_or_prevents_index_use(self, db):
        explain = db.explain("SELECT id FROM t WHERE id = 1 OR grp = 2")
        assert "full scan" in explain[0]
        rows = db.query("SELECT id FROM t WHERE id = 1 OR grp = 2")
        assert len(rows) == 21  # id=1 is not in grp 2; 20 + 1

    def test_column_to_column_equality_not_pinned(self, db):
        explain = db.explain("SELECT id FROM t WHERE id = grp")
        assert "full scan" in explain[0]
        rows = db.query("SELECT id FROM t WHERE id = grp")
        assert sorted(row["id"] for row in rows) == list(range(10))

    def test_update_and_delete_use_index(self, db):
        assert "index lookup" in db.explain(
            "UPDATE t SET name = 'x' WHERE id = 7")[0]
        db.execute("UPDATE t SET name = 'x' WHERE id = 7")
        assert db.execute(
            "SELECT name FROM t WHERE id = 7").scalar() == "x"
        assert "index lookup" in db.explain(
            "DELETE FROM t WHERE grp = 9")[0]
        assert db.execute("DELETE FROM t WHERE grp = 9").affected == 20

    def test_indexed_results_match_scan_results(self, db):
        indexed = db.query("SELECT id FROM t WHERE grp = 4 ORDER BY id")
        scanned = db.query(
            "SELECT id FROM t WHERE grp + 0 = 4 ORDER BY id")
        assert indexed == scanned


class TestExplainShapes:
    def test_join_explain(self, db):
        db.execute("CREATE TABLE u (ref INT)")
        explain = db.explain("SELECT t.name FROM u, t WHERE u.ref = t.id")
        assert any("index join" in line for line in explain)

    def test_aggregate_and_sort_steps(self, db):
        explain = db.explain(
            "SELECT grp, COUNT(*) AS n FROM t GROUP BY grp "
            "ORDER BY n LIMIT 3")
        assert "aggregate" in explain
        assert "sort" in explain
        assert "limit 3" in explain

    def test_non_select_explain(self, db):
        assert db.explain("DROP TABLE t") == ["direct: DropTableStmt"]


class TestIndexJoinAccessPath:
    """The index join narrows its outer side by an indexed constant
    conjunct and must return exactly the cross product's rows, in the
    cross product's order."""

    @pytest.fixture
    def joined(self) -> Database:
        database = Database()
        database.execute("CREATE TABLE area (area_id INT PRIMARY KEY, "
                         "label TEXT)")
        database.execute("CREATE TABLE stay (tag INT, area_id INT, "
                         "t FLOAT)")
        database.execute("CREATE INDEX ON stay (tag)")
        for area in (3, 1, 2):
            database.table("area").insert({"area_id": area,
                                           "label": f"a{area}"})
        for index in range(60):
            database.table("stay").insert({
                "tag": index % 4, "area_id": (index * 7) % 3 + 1,
                "t": float(index % 5)})
        database.execute("DELETE FROM stay WHERE t = 4.0")
        return database

    @pytest.mark.parametrize("tables, join", [
        ("stay s, area a", "s.area_id = a.area_id"),
        ("area a, stay s", "a.area_id = s.area_id"),   # outer swapped
    ])
    def test_pinned_join_equals_cross_product(self, joined, tables, join):
        items = "s.tag, s.area_id, s.t, a.label"
        fast = f"SELECT {items} FROM {tables} WHERE s.tag = 2 AND {join}"
        # `+ 0` hides the equi-join from the planner: a plain cross
        # product, filtered row by row.
        brute = (f"SELECT {items} FROM {tables} "
                 f"WHERE s.tag = 2 AND s.area_id + 0 = a.area_id")
        plan = joined.explain(fast)
        assert plan[0].startswith("index join")
        assert "outer index lookup on stay.tag = 2" in plan
        assert not any("index join" in line
                       for line in joined.explain(brute))
        rows = joined.query(fast)
        assert rows and rows == joined.query(brute)
        ordered = " ORDER BY s.t"
        assert joined.query(fast + ordered) == joined.query(brute + ordered)

    def test_unpinned_join_equals_cross_product(self, joined):
        fast = ("SELECT s.tag, a.label FROM area a, stay s "
                "WHERE a.area_id = s.area_id")
        brute = ("SELECT s.tag, a.label FROM area a, stay s "
                 "WHERE a.area_id = s.area_id + 0")
        assert joined.query(fast) == joined.query(brute)

    def test_explain_does_not_run_the_join(self, joined, monkeypatch):
        from repro.db.executor import Executor

        def refuse(*args, **kwargs):
            raise AssertionError("explain executed the join")

        monkeypatch.setattr(Executor, "_index_join", staticmethod(refuse))
        plan = joined.explain("SELECT s.t FROM stay s, area a "
                              "WHERE s.area_id = a.area_id")
        assert plan == ["index join: s with a"]
