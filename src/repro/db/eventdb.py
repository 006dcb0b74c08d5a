"""The SASE event database: schema, archival rules, and track-and-trace.

Mirrors Section 3 of the paper: "a tag's location information is updated
when we observe this tag in a different location with a different
timestamp" (Location Update), "readings from unloading and loading zones
are aggregated into a containment relationship" (Containment Update), and
the track-and-trace queries of Section 4 (current location, movement
history).  Durations of stay are stored with ``time_in`` / ``time_out``
exactly as the paper describes for ``_updateLocation``.
"""

from __future__ import annotations

from typing import Any

from repro.db.database import Database
from repro.db.storage import Column, SqlType
from repro.errors import DatabaseError
from repro.events.event import Event


class EventDatabase:
    """The persistence component of the SASE system."""

    REQUIRED_TABLES = ("products", "areas", "locations", "containment",
                       "event_archive")

    def __init__(self, database: Database | None = None):
        self.db = database or Database()
        self._create_schema()
        self._archive_seq = 0

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        """Snapshot the event database to a JSON file (atomically, via
        :meth:`Database.dump`'s temp-file-and-replace)."""
        self.db.dump(path)

    @classmethod
    def load(cls, path: str) -> "EventDatabase":
        """Restore an event database saved with :meth:`save`."""
        return cls._adopt(Database.load(path), source=path)

    def to_snapshot(self) -> dict[str, Any]:
        """The JSON-serializable snapshot :meth:`save` writes (the
        checkpoint substrate of the persistence subsystem)."""
        return self.db.to_snapshot()

    @classmethod
    def from_snapshot(cls, snapshot: Any) -> "EventDatabase":
        """Rebuild an event database from a :meth:`to_snapshot` dict."""
        return cls._adopt(Database.from_snapshot(snapshot),
                          source="snapshot")

    @classmethod
    def _adopt(cls, database: Database, source: str) -> "EventDatabase":
        for required in cls.REQUIRED_TABLES:
            if not database.has_table(required):
                raise DatabaseError(
                    f"{source}: snapshot is missing the {required!r} "
                    f"table; not an event database")
        instance = cls.__new__(cls)
        instance.db = database
        next_seq = database.execute(
            "SELECT MAX(seq) FROM event_archive").scalar()
        instance._archive_seq = 0 if next_seq is None else next_seq + 1
        return instance

    def _create_schema(self) -> None:
        self.db.create_table("products", [
            Column("tag_id", SqlType.INT, primary_key=True),
            Column("product_name", SqlType.TEXT),
            Column("category", SqlType.TEXT),
            Column("price", SqlType.FLOAT),
            Column("expiration_date", SqlType.TEXT),
            Column("saleable", SqlType.BOOL),
        ])
        self.db.create_table("areas", [
            Column("area_id", SqlType.INT, primary_key=True),
            Column("kind", SqlType.TEXT),
            Column("description", SqlType.TEXT),
        ])
        self.db.create_table("locations", [
            Column("tag_id", SqlType.INT),
            Column("area_id", SqlType.INT),
            Column("time_in", SqlType.FLOAT),
            Column("time_out", SqlType.FLOAT),
        ])
        self.db.create_table("containment", [
            Column("child_tag", SqlType.INT),
            Column("parent_tag", SqlType.INT),
            Column("time_in", SqlType.FLOAT),
            Column("time_out", SqlType.FLOAT),
        ])
        self.db.create_table("event_archive", [
            Column("seq", SqlType.INT, primary_key=True),
            Column("event_type", SqlType.TEXT),
            Column("tag_id", SqlType.INT),
            Column("area_id", SqlType.INT),
            Column("ts", SqlType.FLOAT),
        ])
        for table, column in (("locations", "tag_id"),
                              ("containment", "child_tag"),
                              ("containment", "parent_tag"),
                              ("event_archive", "tag_id")):
            self.db.table(table).create_index(column)

    # -- reference data -------------------------------------------------------

    def register_product(self, tag_id: int, product_name: str,
                         category: str = "general", price: float = 0.0,
                         expiration_date: str = "",
                         saleable: bool = True) -> None:
        self.db.insert("products", {
            "tag_id": tag_id, "product_name": product_name,
            "category": category, "price": float(price),
            "expiration_date": expiration_date, "saleable": saleable})

    def register_area(self, area_id: int, kind: str,
                      description: str) -> None:
        self.db.insert("areas", {"area_id": area_id, "kind": kind,
                                 "description": description})

    def product_info(self, tag_id: int) -> dict[str, Any] | None:
        rows = self.db.table("products").lookup("tag_id", tag_id)
        if not rows:
            return None
        table = self.db.table("products")
        return dict(zip(table.column_names(), rows[0][1]))

    def area_description(self, area_id: int) -> str | None:
        rows = self.db.table("areas").lookup("area_id", area_id)
        return rows[0][1][2] if rows else None

    # -- archival rules ----------------------------------------------------------

    def update_location(self, tag_id: int, area_id: int,
                        timestamp: float) -> bool:
        """The ``_updateLocation`` rule: close the current location's stay
        and open a new one.  Returns False when the tag is already at
        *area_id* (the rule's EVENT/WHERE clauses normally prevent this
        call, but the database stays consistent regardless)."""
        table = self.db.table("locations")
        current = table.first_null("tag_id", tag_id, "time_out")
        if current is not None:
            rowid, row = current
            if row[1] == area_id:
                return False
            if row[2] is not None and timestamp < row[2]:
                raise DatabaseError(
                    f"location update for tag {tag_id} at {timestamp} "
                    f"precedes its current stay starting at {row[2]}")
            table.update(rowid, {"time_out": float(timestamp)})
        table.insert({"tag_id": tag_id, "area_id": area_id,
                      "time_in": float(timestamp), "time_out": None})
        return True

    def update_containment(self, child_tag: int, parent_tag: int | None,
                           timestamp: float) -> bool:
        """The Containment Update rule: close the child's current
        containment and open a new one (``parent_tag=None`` just removes
        the child from its container)."""
        table = self.db.table("containment")
        current = table.first_null("child_tag", child_tag, "time_out")
        if current is not None:
            rowid, row = current
            if row[1] == parent_tag:
                return False
            table.update(rowid, {"time_out": float(timestamp)})
        if parent_tag is None:
            return current is not None
        table.insert({"child_tag": child_tag, "parent_tag": parent_tag,
                      "time_in": float(timestamp), "time_out": None})
        return True

    def archive_event(self, event: Event) -> int:
        """Append one transformed event to the archive."""
        seq = self._archive_seq
        self._archive_seq += 1
        self.db.insert("event_archive", {
            "seq": seq,
            "event_type": event.type,
            "tag_id": event.get("TagId"),
            "area_id": event.get("AreaId"),
            "ts": float(event.timestamp)})
        return seq

    # -- track-and-trace queries ----------------------------------------------------

    def current_location(self, tag_id: int) -> dict[str, Any] | None:
        """Track-and-trace: where is this item now?"""
        current = self._current_location_row(tag_id)
        if current is None:
            return None
        _, row = current
        return {"tag_id": row[0], "area_id": row[1], "time_in": row[2],
                "time_out": row[3],
                "description": self.area_description(row[1])}

    def movement_history(self, tag_id: int) -> list[dict[str, Any]]:
        """Track-and-trace: every area the item stayed in, in order."""
        return self.db.query(
            f"SELECT l.area_id, l.time_in, l.time_out, a.description "
            f"FROM locations l, areas a "
            f"WHERE l.tag_id = {int(tag_id)} AND l.area_id = a.area_id "
            f"ORDER BY l.time_in")

    def current_containment(self, child_tag: int) -> int | None:
        current = self._current_containment_row(child_tag)
        return current[1][1] if current is not None else None

    def containment_history(self, child_tag: int) -> list[dict[str, Any]]:
        return self.db.query(
            f"SELECT parent_tag, time_in, time_out FROM containment "
            f"WHERE child_tag = {int(child_tag)} ORDER BY time_in")

    def current_contents(self, parent_tag: int) -> list[int]:
        """Children currently inside *parent_tag*."""
        table = self.db.table("containment")
        children = []
        for _, row in table.lookup("parent_tag", parent_tag):
            if row[3] is None:
                children.append(row[0])
        return sorted(children)

    def trace(self, tag_id: int) -> dict[str, Any]:
        """Full track-and-trace record: movement + containment history."""
        return {
            "tag_id": tag_id,
            "product": self.product_info(tag_id),
            "current_location": self.current_location(tag_id),
            "movement_history": self.movement_history(tag_id),
            "containment_history": self.containment_history(tag_id),
        }

    # -- internals ------------------------------------------------------------------

    def _current_location_row(self, tag_id: int) \
            -> tuple[int, list[Any]] | None:
        """The tag's open stay: its lowest-rowid row with no time_out."""
        return self.db.table("locations").first_null(
            "tag_id", tag_id, "time_out")

    def _current_containment_row(self, child_tag: int) \
            -> tuple[int, list[Any]] | None:
        return self.db.table("containment").first_null(
            "child_tag", child_tag, "time_out")
