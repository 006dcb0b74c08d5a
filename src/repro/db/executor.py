"""Statement execution over the storage layer.

NULL semantics are deliberately simple (and documented): any comparison
involving NULL is false, arithmetic with NULL yields NULL, and aggregates
skip NULLs (COUNT(*) counts rows).  This matches what the SASE system needs
from its event database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import re

from repro.db.sql_parser import (
    ColRef,
    CreateIndexStmt,
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    SelectStmt,
    SqlAggregate,
    SqlBetween,
    SqlBinary,
    SqlExpr,
    SqlIn,
    SqlIsNull,
    SqlLike,
    SqlLiteral,
    SqlOp,
    SqlUnary,
    Statement,
    UpdateStmt,
)
from repro.db.storage import Table
from repro.errors import SqlError, TableError


@dataclass
class ResultSet:
    """Columns and rows returned by a statement.

    DML statements return an empty-column result with ``affected`` set.
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    affected: int = 0

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> tuple[Any, ...] | None:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise SqlError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}")
        return self.rows[0][0]

    def as_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]


@dataclass(frozen=True)
class _IndexJoin:
    """A two-table equi-join through the inner table's hash index."""

    outer_alias: str
    outer_table: Table
    outer_column: str
    inner_alias: str
    inner_table: Table
    inner_column: str
    pinned: tuple[str, Any] | None   # (outer column, constant) narrowing
    swapped: bool                    # the outer is the FROM list's second


class _Env:
    """Column resolution for one combined row across FROM tables."""

    __slots__ = ("frames",)

    def __init__(self, frames: list[tuple[str, Table, Sequence[Any]]]):
        # each frame: (alias, table, row values)
        self.frames = frames

    def resolve(self, ref: ColRef) -> Any:
        if ref.table is not None:
            for alias, table, row in self.frames:
                if alias.lower() == ref.table.lower():
                    return row[table.column_position(ref.column)]
            raise SqlError(f"unknown table alias {ref.table!r}")
        hits = [(table, row) for _, table, row in self.frames
                if table.has_column(ref.column)]
        if not hits:
            raise SqlError(f"unknown column {ref.column!r}")
        if len(hits) > 1:
            raise SqlError(f"ambiguous column {ref.column!r}; qualify it")
        table, row = hits[0]
        return row[table.column_position(ref.column)]


def _contains_aggregate(expr: SqlExpr) -> bool:
    if isinstance(expr, SqlAggregate):
        return True
    if isinstance(expr, SqlBinary):
        return _contains_aggregate(expr.left) or \
            _contains_aggregate(expr.right)
    if isinstance(expr, (SqlUnary, SqlIsNull, SqlBetween, SqlIn,
                         SqlLike)):
        return _contains_aggregate(expr.operand)
    return False


def _like_matches(pattern: str, value: str) -> bool:
    """SQL LIKE: ``%`` matches any run, ``_`` any single character."""
    regex = "".join(
        ".*" if character == "%" else
        "." if character == "_" else
        re.escape(character)
        for character in pattern)
    return re.fullmatch(regex, value, flags=re.DOTALL) is not None


def _evaluate(expr: SqlExpr, env: _Env) -> Any:
    if isinstance(expr, SqlLiteral):
        return expr.value
    if isinstance(expr, ColRef):
        return env.resolve(expr)
    if isinstance(expr, SqlIsNull):
        is_null = _evaluate(expr.operand, env) is None
        return (not is_null) if expr.negated else is_null
    if isinstance(expr, SqlUnary):
        value = _evaluate(expr.operand, env)
        if expr.op == "NOT":
            return not bool(value)
        return None if value is None else -value
    if isinstance(expr, SqlAggregate):
        raise SqlError("aggregate used outside an aggregating SELECT")
    if isinstance(expr, SqlBetween):
        value = _evaluate(expr.operand, env)
        low = _evaluate(expr.low, env)
        high = _evaluate(expr.high, env)
        if value is None or low is None or high is None:
            return False
        try:
            inside = low <= value <= high
        except TypeError:
            raise SqlError(
                f"cannot compare {value!r} with BETWEEN bounds") from None
        return (not inside) if expr.negated else inside
    if isinstance(expr, SqlIn):
        value = _evaluate(expr.operand, env)
        if value is None:
            return False
        choices = [_evaluate(choice, env) for choice in expr.choices]
        inside = value in [c for c in choices if c is not None]
        return (not inside) if expr.negated else inside
    if isinstance(expr, SqlLike):
        value = _evaluate(expr.operand, env)
        if value is None:
            return False
        if not isinstance(value, str):
            raise SqlError(f"LIKE applies to text, got {value!r}")
        matched = _like_matches(expr.pattern, value)
        return (not matched) if expr.negated else matched
    assert isinstance(expr, SqlBinary)
    if expr.op is SqlOp.AND:
        return bool(_evaluate(expr.left, env)) and \
            bool(_evaluate(expr.right, env))
    if expr.op is SqlOp.OR:
        return bool(_evaluate(expr.left, env)) or \
            bool(_evaluate(expr.right, env))
    left = _evaluate(expr.left, env)
    right = _evaluate(expr.right, env)
    if expr.op in (SqlOp.EQ, SqlOp.NEQ, SqlOp.LT, SqlOp.LTE,
                   SqlOp.GT, SqlOp.GTE):
        if left is None or right is None:
            return False
        try:
            if expr.op is SqlOp.EQ:
                return left == right
            if expr.op is SqlOp.NEQ:
                return left != right
            if expr.op is SqlOp.LT:
                return left < right
            if expr.op is SqlOp.LTE:
                return left <= right
            if expr.op is SqlOp.GT:
                return left > right
            return left >= right
        except TypeError:
            raise SqlError(
                f"cannot compare {left!r} with {right!r}") from None
    if left is None or right is None:
        return None
    try:
        if expr.op is SqlOp.ADD:
            return left + right
        if expr.op is SqlOp.SUB:
            return left - right
        if expr.op is SqlOp.MUL:
            return left * right
        if expr.op is SqlOp.MOD:
            return left % right
        if right == 0:
            raise SqlError("division by zero")
        return left / right
    except TypeError:
        raise SqlError(f"arithmetic failed on {left!r}, {right!r}") from None


def _evaluate_aggregated(expr: SqlExpr, group: list[_Env]) -> Any:
    """Evaluate an expression that may contain aggregates over a group."""
    if isinstance(expr, SqlAggregate):
        if expr.arg is None:  # COUNT(*)
            return len(group)
        values = [value for value in
                  (_evaluate(expr.arg, env) for env in group)
                  if value is not None]
        if expr.func == "COUNT":
            return len(values)
        if not values:
            return None
        if expr.func == "SUM":
            return sum(values)
        if expr.func == "AVG":
            return sum(values) / len(values)
        if expr.func == "MIN":
            return min(values)
        return max(values)
    if isinstance(expr, SqlBinary):
        if expr.op in (SqlOp.AND, SqlOp.OR):
            raise SqlError("logical operators over aggregates are not "
                           "supported in SELECT items")
        left = _evaluate_aggregated(expr.left, group)
        right = _evaluate_aggregated(expr.right, group)
        if left is None or right is None:
            return None
        return _evaluate(SqlBinary(expr.op, SqlLiteral(left),
                                   SqlLiteral(right)),
                         _Env([]))
    if isinstance(expr, SqlUnary):
        value = _evaluate_aggregated(expr.operand, group)
        if expr.op == "NOT":
            return not bool(value)
        return None if value is None else -value
    if not group:
        raise SqlError("cannot evaluate a non-aggregate item over an "
                       "empty group")
    return _evaluate(expr, group[0])


@dataclass
class Executor:
    """Executes parsed statements against a table catalogue."""

    tables: dict[str, Table] = field(default_factory=dict)

    # -- catalogue ----------------------------------------------------------

    def table(self, name: str) -> Table:
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise TableError(
                f"unknown table {name!r}; known tables: "
                f"{', '.join(sorted(self.tables)) or '(none)'}") from None

    # -- dispatch -----------------------------------------------------------

    def execute(self, statement: Statement) -> ResultSet:
        if isinstance(statement, SelectStmt):
            return self._select(statement)
        if isinstance(statement, InsertStmt):
            return self._insert(statement)
        if isinstance(statement, UpdateStmt):
            return self._update(statement)
        if isinstance(statement, DeleteStmt):
            return self._delete(statement)
        if isinstance(statement, CreateTableStmt):
            return self._create_table(statement)
        if isinstance(statement, CreateIndexStmt):
            table = self.table(statement.table)
            table.create_index(statement.column)
            return ResultSet([], [], affected=0)
        if isinstance(statement, DropTableStmt):
            name = statement.name.lower()
            if name not in self.tables:
                raise TableError(f"unknown table {statement.name!r}")
            del self.tables[name]
            return ResultSet([], [], affected=0)
        raise SqlError(f"unsupported statement {statement!r}")

    def explain(self, statement: Statement) -> list[str]:
        """Describe the access paths *statement* would use, without
        executing it."""
        if isinstance(statement, SelectStmt):
            frames = [(alias, self.table(name))
                      for name, alias in statement.tables]
            lines = []
            join = self._plan_index_join(frames, statement.where) \
                if len(frames) == 2 else None
            if join is not None:
                lines.append(
                    f"index join: {frames[0][0]} with {frames[1][0]}")
                if join.pinned is not None:
                    lines.append(
                        f"outer index lookup on {join.outer_table.name}."
                        f"{join.pinned[0]} = {join.pinned[1]!r}")
            else:
                for alias, table in frames:
                    pinned = None
                    if len(frames) == 1:
                        pinned = _find_indexed_equality(
                            statement.where, alias, table)
                    if pinned is not None:
                        lines.append(
                            f"index lookup on {table.name}.{pinned[0]} "
                            f"= {pinned[1]!r}")
                    else:
                        lines.append(f"full scan of {table.name} "
                                     f"({len(table)} rows)")
            if statement.group_by or any(
                    _contains_aggregate(item.expr)
                    for item in statement.items):
                lines.append("aggregate")
            if statement.order_by:
                lines.append("sort")
            if statement.limit is not None:
                lines.append(f"limit {statement.limit}")
            return lines
        if isinstance(statement, (UpdateStmt, DeleteStmt)):
            table = self.table(statement.table)
            pinned = _find_indexed_equality(statement.where,
                                            statement.table, table)
            verb = "update" if isinstance(statement, UpdateStmt) \
                else "delete"
            if pinned is not None:
                return [f"{verb} via index lookup on "
                        f"{table.name}.{pinned[0]} = {pinned[1]!r}"]
            return [f"{verb} via full scan of {table.name} "
                    f"({len(table)} rows)"]
        return [f"direct: {type(statement).__name__}"]

    # -- DDL / DML ------------------------------------------------------------

    def _create_table(self, statement: CreateTableStmt) -> ResultSet:
        name = statement.name.lower()
        if name in self.tables:
            raise TableError(f"table {statement.name!r} already exists")
        self.tables[name] = Table(statement.name, statement.columns)
        return ResultSet([], [], affected=0)

    def _insert(self, statement: InsertStmt) -> ResultSet:
        table = self.table(statement.table)
        empty = _Env([])
        count = 0
        for row_exprs in statement.rows:
            values = [_evaluate(expr, empty) for expr in row_exprs]
            if statement.columns is not None:
                if len(values) != len(statement.columns):
                    raise SqlError(
                        f"INSERT has {len(statement.columns)} columns but "
                        f"{len(values)} values")
                table.insert(dict(zip(statement.columns, values)))
            else:
                table.insert(values)
            count += 1
        return ResultSet([], [], affected=count)

    def _matching_rowids(self, table: Table, alias: str,
                         where: SqlExpr | None) -> list[int]:
        candidates = self._candidate_rows(table, alias, where)
        rowids = []
        for rowid, row in candidates:
            if where is None or bool(
                    _evaluate(where, _Env([(alias, table, row)]))):
                rowids.append(rowid)
        return rowids

    def _candidate_rows(self, table: Table, alias: str,
                        where: SqlExpr | None) \
            -> list[tuple[int, list[Any]]]:
        """Rows to test against *where* — an index lookup when an
        AND-conjunct pins an indexed column to a constant, else a scan."""
        pinned = _find_indexed_equality(where, alias, table)
        if pinned is not None:
            column, value = pinned
            return table.lookup(column, value)
        return list(table.rows())

    def _update(self, statement: UpdateStmt) -> ResultSet:
        table = self.table(statement.table)
        rowids = self._matching_rowids(table, statement.table,
                                       statement.where)
        for rowid in rowids:
            env = _Env([(statement.table, table, list(table.row(rowid)))])
            changes = {column: _evaluate(expr, env)
                       for column, expr in statement.assignments}
            table.update(rowid, changes)
        return ResultSet([], [], affected=len(rowids))

    def _delete(self, statement: DeleteStmt) -> ResultSet:
        table = self.table(statement.table)
        rowids = self._matching_rowids(table, statement.table,
                                       statement.where)
        for rowid in rowids:
            table.delete(rowid)
        return ResultSet([], [], affected=len(rowids))

    # -- SELECT ------------------------------------------------------------------

    def _select(self, statement: SelectStmt) -> ResultSet:
        frames = [(alias, self.table(name))
                  for name, alias in statement.tables]
        seen_aliases: set[str] = set()
        for alias, _ in frames:
            if alias.lower() in seen_aliases:
                raise SqlError(f"duplicate table alias {alias!r}")
            seen_aliases.add(alias.lower())

        envs = [env for env in self._scan(frames, statement.where)
                if statement.where is None
                or bool(_evaluate(statement.where, env))]

        aggregate_mode = bool(statement.group_by) or any(
            _contains_aggregate(item.expr) for item in statement.items)

        if aggregate_mode:
            columns, rows = self._project_aggregated(statement, envs)
        else:
            columns, rows = self._project_plain(statement, envs)
            if statement.order_by:
                keyed = [
                    ([_evaluate(expr, env)
                      for expr, _ in statement.order_by], row)
                    for env, row in zip(envs, rows)]
                # stable multi-pass sort: last key first
                for position in reversed(range(len(statement.order_by))):
                    descending = statement.order_by[position][1]
                    keyed.sort(key=lambda pair, p=position:
                               _sort_key(pair[0][p]), reverse=descending)
                rows = [row for _, row in keyed]

        if aggregate_mode and statement.order_by:
            rows = self._order_output(statement, columns, rows)
        if statement.distinct:
            unique: list[tuple[Any, ...]] = []
            seen: set[tuple[Any, ...]] = set()
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        if statement.limit is not None:
            rows = rows[:statement.limit]
        return ResultSet(columns, rows)

    def _scan(self, frames: list[tuple[str, Table]],
              where: SqlExpr | None) -> list[_Env]:
        """Cross product of the FROM tables, with an index-accelerated path
        for the common single-equi-join two-table case."""
        if len(frames) == 2:
            join = self._plan_index_join(frames, where)
            if join is not None:
                return self._index_join(join)
        envs: list[_Env] = [_Env([])]
        for alias, table in frames:
            if len(frames) == 1:
                rows = self._candidate_rows(table, alias, where)
            else:
                rows = list(table.rows())
            expanded = []
            for env in envs:
                for _, row in rows:
                    expanded.append(_Env(env.frames + [(alias, table, row)]))
            envs = expanded
        return envs

    def _plan_index_join(self, frames: list[tuple[str, Table]],
                         where: SqlExpr | None) -> _IndexJoin | None:
        """The index-join plan when the WHERE contains ``a.col = b.col``
        and one side is indexed (the inner, probed side); the outer side
        is narrowed by an AND-conjunct pinning one of its indexed columns
        to a constant, when there is one.  None when no such join
        exists."""
        join = _find_equi_join(where, frames[0][0], frames[1][0])
        if join is None:
            return None
        (left_col, right_col) = join
        (left_alias, left_table) = frames[0]
        (right_alias, right_table) = frames[1]
        swapped = False
        if right_table.index_for(right_col) is None and \
                left_table.index_for(left_col) is not None:
            # swap so the indexed side is the inner lookup
            left_alias, right_alias = right_alias, left_alias
            left_table, right_table = right_table, left_table
            left_col, right_col = right_col, left_col
            swapped = True
        if right_table.index_for(right_col) is None:
            return None
        return _IndexJoin(
            left_alias, left_table, left_col, right_alias, right_table,
            right_col, _find_indexed_equality(where, left_alias, left_table),
            swapped)

    @staticmethod
    def _index_join(join: _IndexJoin) -> list[_Env]:
        """Run *join*: every (outer, inner) row pair agreeing on the join
        columns, framed and ordered as the FROM list's cross product."""
        outer = join.outer_table
        inner = join.inner_table
        outer_rows = outer.lookup(*join.pinned) \
            if join.pinned is not None else outer.rows()
        outer_position = outer.column_position(join.outer_column)
        pairs = []
        for outer_id, outer_row in outer_rows:
            for inner_id, inner_row in inner.lookup(
                    join.inner_column, outer_row[outer_position]):
                pairs.append((outer_id, outer_row, inner_id, inner_row))
        if join.swapped:   # back to the FROM list's order
            pairs.sort(key=lambda pair: (pair[2], pair[0]))
            return [_Env([(join.inner_alias, inner, inner_row),
                          (join.outer_alias, outer, outer_row)])
                    for _, outer_row, _, inner_row in pairs]
        return [_Env([(join.outer_alias, outer, outer_row),
                      (join.inner_alias, inner, inner_row)])
                for _, outer_row, _, inner_row in pairs]

    def _project_plain(self, statement: SelectStmt,
                       envs: list[_Env]) -> tuple[list[str],
                                                  list[tuple[Any, ...]]]:
        if not statement.items:  # SELECT *
            columns: list[str] = []
            multi = len(statement.tables) > 1
            for name, alias in statement.tables:
                table = self.table(name)
                for column in table.column_names():
                    columns.append(f"{alias}.{column}" if multi else column)
            rows = []
            for env in envs:
                combined: list[Any] = []
                for _, _, row in env.frames:
                    combined.extend(row)
                rows.append(tuple(combined))
            return columns, rows
        columns = [_item_name(item.expr, item.alias, index)
                   for index, item in enumerate(statement.items)]
        rows = [tuple(_evaluate(item.expr, env)
                      for item in statement.items) for env in envs]
        return columns, rows

    def _project_aggregated(self, statement: SelectStmt,
                            envs: list[_Env]) -> tuple[list[str],
                                                       list[tuple[Any, ...]]]:
        if not statement.items:
            raise SqlError("SELECT * cannot be combined with aggregates")
        columns = [_item_name(item.expr, item.alias, index)
                   for index, item in enumerate(statement.items)]
        if statement.group_by:
            groups: dict[tuple[Any, ...], list[_Env]] = {}
            order: list[tuple[Any, ...]] = []
            for env in envs:
                key = tuple(_evaluate(ref, env)
                            for ref in statement.group_by)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(env)
            rows = [tuple(_evaluate_aggregated(item.expr, groups[key])
                          for item in statement.items) for key in order]
        else:
            rows = [tuple(_evaluate_aggregated(item.expr, envs)
                          for item in statement.items)]
        return columns, rows

    def _order_output(self, statement: SelectStmt, columns: list[str],
                      rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
        positions = []
        for expr, descending in statement.order_by:
            if not isinstance(expr, ColRef) or expr.table is not None:
                raise SqlError("ORDER BY with aggregates must name an "
                               "output column")
            try:
                positions.append((columns.index(expr.column), descending))
            except ValueError:
                raise SqlError(
                    f"ORDER BY column {expr.column!r} is not in the "
                    f"SELECT list") from None
        ordered = list(rows)
        for position, descending in reversed(positions):
            ordered.sort(key=lambda row, p=position: _sort_key(row[p]),
                         reverse=descending)
        return ordered


def _expr_is_constant(expr: SqlExpr) -> bool:
    if isinstance(expr, SqlLiteral):
        return True
    if isinstance(expr, SqlBinary):
        return _expr_is_constant(expr.left) and \
            _expr_is_constant(expr.right)
    if isinstance(expr, SqlUnary):
        return _expr_is_constant(expr.operand)
    return False


def _find_indexed_equality(expr: SqlExpr | None, alias: str,
                           table: Table) -> tuple[str, Any] | None:
    """Find an AND-conjunct ``col = <constant>`` over an indexed column of
    *table*; returns (column, value)."""
    if expr is None:
        return None
    if isinstance(expr, SqlBinary) and expr.op is SqlOp.AND:
        return (_find_indexed_equality(expr.left, alias, table)
                or _find_indexed_equality(expr.right, alias, table))
    if isinstance(expr, SqlBinary) and expr.op is SqlOp.EQ:
        for column_side, value_side in ((expr.left, expr.right),
                                        (expr.right, expr.left)):
            if not isinstance(column_side, ColRef):
                continue
            if column_side.table is not None and \
                    column_side.table.lower() != alias.lower():
                continue
            if not table.has_column(column_side.column):
                continue
            if table.index_for(column_side.column) is None:
                continue
            if _expr_is_constant(value_side):
                return (column_side.column,
                        _evaluate(value_side, _Env([])))
    return None


def _find_equi_join(expr: SqlExpr | None, left_alias: str,
                    right_alias: str) -> tuple[str, str] | None:
    """Find ``left.col = right.col`` among the AND-conjuncts of *expr*."""
    if expr is None:
        return None
    if isinstance(expr, SqlBinary) and expr.op is SqlOp.AND:
        return (_find_equi_join(expr.left, left_alias, right_alias)
                or _find_equi_join(expr.right, left_alias, right_alias))
    if isinstance(expr, SqlBinary) and expr.op is SqlOp.EQ and \
            isinstance(expr.left, ColRef) and \
            isinstance(expr.right, ColRef):
        left, right = expr.left, expr.right
        if left.table is None or right.table is None:
            return None
        if left.table.lower() == left_alias.lower() and \
                right.table.lower() == right_alias.lower():
            return left.column, right.column
        if left.table.lower() == right_alias.lower() and \
                right.table.lower() == left_alias.lower():
            return right.column, left.column
    return None


def _sort_key(value: Any) -> tuple[int, Any]:
    """NULLs sort first (ascending); columns are typed so non-null values
    within one column are mutually comparable."""
    if value is None:
        return (0, 0)
    return (1, value)


def _item_name(expr: SqlExpr, alias: str | None, index: int) -> str:
    if alias:
        return alias
    if isinstance(expr, ColRef):
        return expr.column
    if isinstance(expr, SqlAggregate):
        return expr.func.lower()
    return f"expr_{index}"
