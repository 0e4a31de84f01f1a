"""Statement execution for the mini DBMS.

:class:`Database` is the user-facing object: ``db.execute(sql)`` parses
and runs one statement and returns a :class:`ResultSet` (columns +
rows).  The improvement-query statements (CREATE IMPROVEMENT INDEX /
IMPROVE) are delegated to :mod:`repro.dbms.improve`.

Expression evaluation uses SQL-ish three-valued-light semantics: an
ordering comparison (``<``, ``>``, ``<=``, ``>=``) with NULL is false,
``=`` and ``<>`` compare NULL as a value, arithmetic with NULL raises,
and ORDER BY puts NULL after every value (first under DESC).
A pseudo column ``rowid`` (insertion order, 0-based) is always
available, which is how IMPROVE targets are usually selected.  Each
statement compiles its expressions once (:func:`_compile`) and runs the
result on every row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

from repro.dbms import ast_nodes as ast
from repro.dbms.catalog import Catalog, Column, Table
from repro.dbms.improve import ImprovementService
from repro.dbms.parser import parse_script
from repro.errors import SQLExecutionError

__all__ = ["Database", "ResultSet"]


@dataclass
class ResultSet:
    """Uniform statement result: header + rows (+ a short status line)."""

    columns: list
    rows: list
    status: str = "OK"

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        """Values of one result column across all rows."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise SQLExecutionError(f"result has no column {name!r}")
        return [row[idx] for row in self.rows]

    def pretty(self) -> str:
        """A fixed-width text rendering (for the examples/CLI)."""
        if not self.columns:
            return self.status
        widths = [len(str(c)) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(_fmt(cell)))
        header = " | ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        rule = "-+-".join("-" * w for w in widths)
        lines = [header, rule]
        for row in self.rows:
            lines.append(" | ".join(_fmt(cell).ljust(w) for cell, w in zip(row, widths)))
        return "\n".join(lines)


def _fmt(cell) -> str:
    if cell is None:
        return "NULL"
    if isinstance(cell, float):
        return f"{cell:.6g}"
    return str(cell)


class Database:
    """An in-memory SQL database with improvement-query support."""

    def __init__(self):
        self.catalog = Catalog()
        self.improvements = ImprovementService(self.catalog)

    # ------------------------------------------------------------------
    def execute(self, sql: str) -> ResultSet:
        """Execute one statement; multi-statement scripts use :meth:`run_script`."""
        results = self.run_script(sql)
        if len(results) != 1:
            raise SQLExecutionError(f"expected one statement, got {len(results)}")
        return results[0]

    def run_script(self, sql: str) -> list[ResultSet]:
        """Execute a ';'-separated script; one ResultSet per statement."""
        return [self._dispatch(stmt) for stmt in parse_script(sql)]

    # ------------------------------------------------------------------
    def _dispatch(self, stmt) -> ResultSet:
        if isinstance(stmt, ast.CreateTable):
            self.catalog.create(stmt.name, [Column(n, t) for n, t in stmt.columns])
            return ResultSet([], [], status=f"CREATE TABLE {stmt.name}")
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop(stmt.name)
            self.improvements.forget_table(stmt.name)
            return ResultSet([], [], status=f"DROP TABLE {stmt.name}")
        if isinstance(stmt, ast.Insert):
            return self._insert(stmt)
        if isinstance(stmt, ast.Select):
            return self._select(stmt)
        if isinstance(stmt, ast.Update):
            return self._update(stmt)
        if isinstance(stmt, ast.Delete):
            return self._delete(stmt)
        if isinstance(stmt, ast.ShowTables):
            return ResultSet(["table"], [[n] for n in self.catalog.names()])
        if isinstance(stmt, ast.Describe):
            table = self.catalog.get(stmt.name)
            return ResultSet(
                ["column", "type"], [[c.name, c.type_name] for c in table.columns]
            )
        if isinstance(stmt, ast.CreateImprovementIndex):
            self.improvements.create_index(stmt)
            return ResultSet([], [], status=f"CREATE IMPROVEMENT INDEX {stmt.name}")
        if isinstance(stmt, ast.Improve):
            return self.improvements.improve(stmt, self._matching_row_ids)
        if isinstance(stmt, ast.ExplainImprove):
            return self.improvements.explain(
                stmt.statement, self._matching_row_ids, analyze=stmt.analyze
            )
        raise SQLExecutionError(f"unsupported statement {type(stmt).__name__}")

    # ------------------------------------------------------------------
    def _insert(self, stmt: ast.Insert) -> ResultSet:
        table = self.catalog.get(stmt.table)
        for row in stmt.rows:
            table.insert([_compile(expr, None)(None, None) for expr in row])
        return ResultSet([], [], status=f"INSERT {len(stmt.rows)}")

    def _select(self, stmt: ast.Select) -> ResultSet:
        table = self.catalog.get(stmt.table)
        columns = stmt.columns if stmt.columns is not None else table.column_names
        indices = [self._output_index(table, c) for c in columns]
        row_ids = self._matching_row_ids(table, stmt.where)
        rows = [
            [table.rows[i][j] if j >= 0 else i for j in indices] for i in row_ids
        ]
        if stmt.order_by is not None:
            column, ascending = stmt.order_by
            key_idx = self._output_index(table, column)
            paired = list(zip(rows, row_ids))

            def key(pair: tuple) -> tuple:
                row, row_id = pair
                if key_idx in indices:
                    value = row[indices.index(key_idx)]
                else:
                    value = row_id if key_idx < 0 else table.rows[row_id][key_idx]
                # NULL after every value: last under ASC, first under DESC,
                # as in PostgreSQL.  The sort is stable either way.
                return (value is None, value)

            paired.sort(key=key, reverse=not ascending)
            rows = [row for row, __ in paired]
        if stmt.limit is not None:
            rows = rows[: stmt.limit]
        return ResultSet(list(columns), rows)

    def _update(self, stmt: ast.Update) -> ResultSet:
        table = self.catalog.get(stmt.table)
        row_ids = self._matching_row_ids(table, stmt.where)
        assignments = [(column, _compile(expr, table)) for column, expr in stmt.assignments]
        for row_id in row_ids:
            row = table.rows[row_id]
            for column, value in assignments:
                table.update_cell(row_id, column, value(row, row_id))
        return ResultSet([], [], status=f"UPDATE {len(row_ids)}")

    def _delete(self, stmt: ast.Delete) -> ResultSet:
        table = self.catalog.get(stmt.table)
        row_ids = self._matching_row_ids(table, stmt.where)
        removed = table.delete_rows(row_ids)
        return ResultSet([], [], status=f"DELETE {removed}")

    # ------------------------------------------------------------------
    def _matching_row_ids(self, table: Table, where) -> list[int]:
        if where is None:
            return list(range(len(table.rows)))
        predicate = _compile(where, table)
        return [row_id for row_id, row in enumerate(table.rows) if predicate(row, row_id)]

    @staticmethod
    def _output_index(table: Table, column: str) -> int:
        """Column index; -1 is the rowid pseudo column."""
        if column.lower() == "rowid":
            return -1
        return table.column_index(column)


#: A compiled expression: ``(row, row_id) -> value``.
Compiled = Callable[[list, int], object]


def _divide(a, b):
    if b == 0:
        raise SQLExecutionError("division by zero")
    return a / b


_ORDERINGS = {"<": operator.lt, ">": operator.gt, "<=": operator.le, ">=": operator.ge}
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide}


def _compile(expr, table: Table | None) -> Compiled:
    """``expr`` as one closure per node, evaluated against a row of ``table``.

    Column positions are resolved here, once per statement.  An error
    is raised by the closure, when and where row-at-a-time evaluation
    would meet it: an unknown column raises only when a row reaches it,
    so it never raises on an empty table or in an operand that AND/OR
    short-circuits.  ``table`` None is the row-free context of INSERT
    values, which refuses every column reference.  Recursion follows
    the tree, whose depth the parser bounds.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        return lambda row, row_id: value
    if isinstance(expr, ast.ColumnRef):
        if table is None:
            return _raise(SQLExecutionError, f"column {expr.name!r} not allowed here")
        name = expr.name
        if name.lower() == "rowid":
            return lambda row, row_id: row_id
        if name not in table.column_names:
            # column_index raises the unknown-column error, row by row.
            return lambda row, row_id: row[table.column_index(name)]
        idx = table.column_index(name)
        return lambda row, row_id: row[idx]
    if isinstance(expr, ast.Unary):
        operand = _compile(expr.operand, table)
        if expr.op == "-":

            def negate(row, row_id):
                value = operand(row, row_id)
                _require_number(value)
                return -value

            return negate
        return lambda row, row_id: not operand(row, row_id)
    if isinstance(expr, ast.Binary):
        return _compile_binary(expr.op, _compile(expr.left, table), _compile(expr.right, table))
    return _raise(SQLExecutionError, f"cannot evaluate {expr!r}")


def _compile_binary(op: str, left: Compiled, right: Compiled) -> Compiled:
    if op == "AND":
        return lambda row, row_id: bool(left(row, row_id)) and bool(right(row, row_id))
    if op == "OR":
        return lambda row, row_id: bool(left(row, row_id)) or bool(right(row, row_id))
    if op == "=":
        return lambda row, row_id: left(row, row_id) == right(row, row_id)
    if op in ("<>", "!="):
        return lambda row, row_id: not left(row, row_id) == right(row, row_id)
    if op in _ORDERINGS:
        compare = _ORDERINGS[op]

        def ordering(row, row_id):
            a, b = left(row, row_id), right(row, row_id)
            if a is None or b is None:
                return False
            try:
                return compare(a, b)
            except TypeError:
                raise SQLExecutionError(f"cannot compare {a!r} and {b!r}")

        return ordering

    apply = _ARITHMETIC.get(op)

    def arithmetic(row, row_id):
        a, b = left(row, row_id), right(row, row_id)
        _require_number(a)
        _require_number(b)
        if apply is None:
            raise SQLExecutionError(f"unknown operator {op!r}")
        return apply(a, b)

    return arithmetic


def _raise(error: type[Exception], message: str) -> Compiled:
    """A closure that raises ``error(message)`` whenever a row reaches it."""

    def fail(row, row_id):
        raise error(message)

    return fail


def _require_number(value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SQLExecutionError(f"expected a number, got {value!r}")
