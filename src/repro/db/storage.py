"""Storage layer: typed columns, tables, rows, and hash indexes.

Rows are stored as lists keyed by a monotonically increasing rowid.  Hash
indexes map a column value to the set of rowids holding it and are
maintained on every mutation; the executor uses them for equality lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.errors import TableError


class SqlType(enum.Enum):
    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"

    @classmethod
    def parse(cls, word: str) -> "SqlType":
        normalized = word.upper()
        aliases = {
            "INT": cls.INT, "INTEGER": cls.INT, "BIGINT": cls.INT,
            "FLOAT": cls.FLOAT, "REAL": cls.FLOAT, "DOUBLE": cls.FLOAT,
            "TEXT": cls.TEXT, "STRING": cls.TEXT, "VARCHAR": cls.TEXT,
            "BOOL": cls.BOOL, "BOOLEAN": cls.BOOL,
        }
        if normalized not in aliases:
            raise TableError(f"unknown SQL type {word!r}")
        return aliases[normalized]

    def coerce(self, value: Any) -> Any:
        """Coerce *value* for storage; None (NULL) always passes."""
        if value is None:
            return None
        try:
            if self is SqlType.INT:
                if isinstance(value, bool):
                    raise TypeError
                if isinstance(value, float) and not value.is_integer():
                    raise TypeError
                return int(value)
            if self is SqlType.FLOAT:
                if isinstance(value, bool):
                    raise TypeError
                return float(value)
            if self is SqlType.TEXT:
                if not isinstance(value, str):
                    raise TypeError
                return value
            if isinstance(value, bool):
                return value
            raise TypeError
        except (TypeError, ValueError):
            raise TableError(
                f"value {value!r} is not valid for type "
                f"{self.value}") from None
        raise AssertionError("unreachable")


@dataclass(frozen=True)
class Column:
    name: str
    type: SqlType
    primary_key: bool = False


_NO_ROWS: frozenset[int] = frozenset()


class HashIndex:
    """value -> set of rowids, for one column."""

    __slots__ = ("column", "_buckets")

    def __init__(self, column: str):
        self.column = column
        self._buckets: dict[Any, set[int]] = {}

    def add(self, value: Any, rowid: int) -> None:
        self._buckets.setdefault(value, set()).add(rowid)

    def remove(self, value: Any, rowid: int) -> None:
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(rowid)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> set[int] | frozenset[int]:
        return self._buckets.get(value, _NO_ROWS)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class Table:
    """One table: schema, rows, and maintained indexes."""

    def __init__(self, name: str, columns: Iterable[Column]):
        self.name = name
        self.columns = list(columns)
        if not self.columns:
            raise TableError(f"table {name!r} needs at least one column")
        seen: set[str] = set()
        for column in self.columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise TableError(
                    f"duplicate column {column.name!r} in table {name!r}")
            seen.add(lowered)
        self._position = {column.name.lower(): index
                          for index, column in enumerate(self.columns)}
        self._rows: dict[int, list[Any]] = {}
        self._next_rowid = 0
        self._indexes: dict[str, HashIndex] = {}
        primary = [column for column in self.columns if column.primary_key]
        if len(primary) > 1:
            raise TableError(
                f"table {name!r}: at most one PRIMARY KEY column")
        self._primary = primary[0].name.lower() if primary else None
        if self._primary is not None:
            self.create_index(self._primary)

    # -- schema ---------------------------------------------------------------

    def column_position(self, name: str) -> int:
        try:
            return self._position[name.lower()]
        except KeyError:
            raise TableError(
                f"table {self.name!r} has no column {name!r}; columns: "
                f"{', '.join(column.name for column in self.columns)}"
            ) from None

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def has_column(self, name: str) -> bool:
        return name.lower() in self._position

    # -- rows -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> Iterator[tuple[int, list[Any]]]:
        return iter(self._rows.items())

    def row(self, rowid: int) -> list[Any]:
        try:
            return self._rows[rowid]
        except KeyError:
            raise TableError(
                f"table {self.name!r} has no row {rowid}") from None

    def insert(self, values: dict[str, Any] | list[Any]) -> int:
        if isinstance(values, dict):
            row: list[Any] = [None] * len(self.columns)
            for key, value in values.items():
                row[self.column_position(key)] = value
        else:
            if len(values) != len(self.columns):
                raise TableError(
                    f"table {self.name!r} expects {len(self.columns)} "
                    f"values, got {len(values)}")
            row = list(values)
        for index, column in enumerate(self.columns):
            row[index] = column.type.coerce(row[index])
        if self._primary is not None:
            position = self._position[self._primary]
            key = row[position]
            if key is None:
                raise TableError(
                    f"table {self.name!r}: PRIMARY KEY may not be NULL")
            if self._indexes[self._primary].lookup(key):
                raise TableError(
                    f"table {self.name!r}: duplicate PRIMARY KEY {key!r}")
        rowid = self._next_rowid
        self._next_rowid += 1
        self._rows[rowid] = row
        for column_name, index in self._indexes.items():
            index.add(row[self._position[column_name]], rowid)
        return rowid

    def update(self, rowid: int, changes: dict[str, Any]) -> None:
        row = self.row(rowid)
        for key, value in changes.items():
            position = self.column_position(key)
            coerced = self.columns[position].type.coerce(value)
            column_name = self.columns[position].name.lower()
            if column_name == self._primary and coerced != row[position]:
                if coerced is None:
                    raise TableError(
                        f"table {self.name!r}: PRIMARY KEY may not be NULL")
                if self._indexes[self._primary].lookup(coerced):
                    raise TableError(
                        f"table {self.name!r}: duplicate PRIMARY KEY "
                        f"{coerced!r}")
            index = self._indexes.get(column_name)
            if index is not None:
                index.remove(row[position], rowid)
                index.add(coerced, rowid)
            row[position] = coerced

    def delete(self, rowid: int) -> None:
        row = self.row(rowid)
        for column_name, index in self._indexes.items():
            index.remove(row[self._position[column_name]], rowid)
        del self._rows[rowid]

    # -- indexes -----------------------------------------------------------------

    def create_index(self, column: str) -> None:
        lowered = column.lower()
        position = self.column_position(column)
        if lowered in self._indexes:
            return
        index = HashIndex(lowered)
        for rowid, row in self._rows.items():
            index.add(row[position], rowid)
        self._indexes[lowered] = index

    def index_for(self, column: str) -> HashIndex | None:
        return self._indexes.get(column.lower())

    def lookup(self, column: str, value: Any) -> list[tuple[int, list[Any]]]:
        """Equality lookup, via the index when one exists."""
        index = self._indexes.get(column.lower())
        if index is not None:
            return [(rowid, self._rows[rowid])
                    for rowid in sorted(index.lookup(value))]
        position = self.column_position(column)
        return [(rowid, row) for rowid, row in self._rows.items()
                if row[position] == value]

    def first_null(self, column: str, value: Any,
                   null_column: str) -> tuple[int, list[Any]] | None:
        """The lowest-rowid row with *column* = *value* whose
        *null_column* is NULL, or None — through the index when one
        exists, without materializing the other matching rows."""
        index = self._indexes.get(column.lower())
        position = self.column_position(null_column)
        if index is None:
            for rowid, row in self.lookup(column, value):
                if row[position] is None:
                    return rowid, row
            return None
        rows = self._rows
        found = None
        for rowid in index.lookup(value):
            if rows[rowid][position] is None and \
                    (found is None or rowid < found):
                found = rowid
        return None if found is None else (found, rows[found])
