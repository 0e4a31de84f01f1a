"""Tables, columns, and the schema catalog of the mini DBMS."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SQLCatalogError, SQLExecutionError

__all__ = ["Column", "Table", "Catalog"]

_TYPES = {"INT": int, "INTEGER": int, "FLOAT": float, "REAL": float, "TEXT": str}


@dataclass(frozen=True)
class Column:
    name: str
    type_name: str  #: INT | FLOAT | TEXT (INTEGER/REAL normalize)

    def __post_init__(self):
        canonical = {"INTEGER": "INT", "REAL": "FLOAT"}.get(self.type_name, self.type_name)
        if canonical not in ("INT", "FLOAT", "TEXT"):
            raise SQLCatalogError(f"unknown column type {self.type_name!r}")
        object.__setattr__(self, "type_name", canonical)

    def coerce(self, value):
        """Coerce a literal to the column type; None passes through."""
        if value is None:
            return None
        if self.type_name == "INT":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SQLExecutionError(f"column {self.name}: expected a number, got {value!r}")
            if isinstance(value, float) and not value.is_integer():
                raise SQLExecutionError(f"column {self.name}: {value} is not an integer")
            return int(value)
        if self.type_name == "FLOAT":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SQLExecutionError(f"column {self.name}: expected a number, got {value!r}")
            return float(value)
        if not isinstance(value, str):
            raise SQLExecutionError(f"column {self.name}: expected text, got {value!r}")
        return value


@dataclass
class Table:
    """An in-memory heap table with insertion-order row ids."""

    name: str
    columns: list  #: [Column, ...]
    rows: list = field(default_factory=list)  #: list of value lists
    #: UPDATEs and DELETEs so far; an INSERT only appends rows, which an
    #: improvement index can apply without a rebuild (its staleness check)
    mutations: int = 0

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SQLCatalogError(f"table {self.name}: duplicate column names")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column_index(self, name: str) -> int:
        """Position of a column by name (SQLCatalogError if absent)."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise SQLCatalogError(f"table {self.name}: no column {name!r}")

    def insert(self, values: list) -> int:
        """Append a row (type-coerced); returns its rowid."""
        if len(values) != len(self.columns):
            raise SQLExecutionError(
                f"table {self.name}: expected {len(self.columns)} values, got {len(values)}"
            )
        row = [col.coerce(v) for col, v in zip(self.columns, values)]
        self.rows.append(row)
        return len(self.rows) - 1

    def update_cell(self, row_id: int, column: str, value) -> None:
        """Overwrite one cell (type-coerced)."""
        idx = self.column_index(column)
        self.rows[row_id][idx] = self.columns[idx].coerce(value)
        self.mutations += 1

    def delete_rows(self, row_ids) -> int:
        """Delete the given rowids; returns the number removed."""
        doomed = set(row_ids)
        before = len(self.rows)
        self.rows = [r for i, r in enumerate(self.rows) if i not in doomed]
        if len(self.rows) != before:
            self.mutations += 1
        return before - len(self.rows)

    def numeric_matrix(self, columns: list[str], start: int = 0):
        """Rows ``start`` onward, restricted to numeric columns, as float lists."""
        indices = [self.column_index(c) for c in columns]
        for c, i in zip(columns, indices):
            if self.columns[i].type_name == "TEXT":
                raise SQLExecutionError(f"column {c} is TEXT; numeric column required")
        out = []
        for row_id, row in enumerate(self.rows[start:], start):
            values = [row[i] for i in indices]
            if any(v is None for v in values):
                raise SQLExecutionError(
                    f"table {self.name} row {row_id}: NULL in numeric column"
                )
            out.append([float(v) for v in values])
        return out


class Catalog:
    """The database schema: tables by name."""

    def __init__(self):
        self._tables: dict[str, Table] = {}

    def create(self, name: str, columns) -> Table:
        """Create a table (SQLCatalogError on duplicates)."""
        if name in self._tables:
            raise SQLCatalogError(f"table {name!r} already exists")
        table = Table(name=name, columns=list(columns))
        self._tables[name] = table
        return table

    def drop(self, name: str) -> None:
        """Drop a table (SQLCatalogError if absent)."""
        if name not in self._tables:
            raise SQLCatalogError(f"no table {name!r}")
        del self._tables[name]

    def get(self, name: str) -> Table:
        """Look up a table (SQLCatalogError if absent)."""
        table = self._tables.get(name)
        if table is None:
            raise SQLCatalogError(f"no table {name!r}")
        return table

    def names(self) -> list[str]:
        """Sorted table names."""
        return sorted(self._tables)

    def __contains__(self, name: str) -> bool:
        return name in self._tables
