"""AST node types produced by the SQL parser."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "Literal",
    "ColumnRef",
    "Unary",
    "Binary",
    "CreateTable",
    "DropTable",
    "Insert",
    "Select",
    "Update",
    "Delete",
    "ShowTables",
    "Describe",
    "CreateImprovementIndex",
    "AdjustClause",
    "Improve",
    "ExplainImprove",
]


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Literal:
    value: object  #: float | int | str | None


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  #: "-" | "NOT"
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str  #: arithmetic, comparison, AND/OR
    left: object
    right: object


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: list  #: [(name, type_str), ...]


@dataclass(frozen=True)
class DropTable:
    name: str


@dataclass(frozen=True)
class Insert:
    table: str
    rows: list  #: list of value-expression lists


@dataclass(frozen=True)
class Select:
    table: str
    columns: list | None  #: None means '*'
    where: object | None = None
    order_by: tuple | None = None  #: (column, ascending)
    limit: int | None = None


@dataclass(frozen=True)
class Update:
    table: str
    assignments: list  #: [(column, expression), ...]
    where: object | None = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: object | None = None


@dataclass(frozen=True)
class ShowTables:
    pass


@dataclass(frozen=True)
class Describe:
    name: str


# ----------------------------------------------------------------------
# Improvement-query extension
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CreateImprovementIndex:
    """CREATE IMPROVEMENT INDEX idx ON objects (a, b) USING QUERIES q (wa, wb, k) [SENSE MAX]"""

    name: str
    object_table: str
    attribute_columns: list
    query_table: str
    weight_columns: list
    k_column: str
    sense: str = "min"


@dataclass(frozen=True)
class AdjustClause:
    """One ADJUST item: bounds for (or freezing of) an attribute."""

    column: str
    frozen: bool = False
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class Improve:
    """IMPROVE objects TARGET WHERE ... USING idx REACH n | BUDGET x
    [COST L1|L2|LINF] [ADJUST ...] [METHOD name] [APPLY]"""

    table: str
    where: object
    index: str
    reach: int | None = None  #: Min-Cost IQ goal (tau)
    budget: float | None = None  #: Max-Hit IQ budget (beta)
    cost: str = "L2"
    adjust: list = field(default_factory=list)  #: [AdjustClause, ...]
    method: str = "efficient"
    apply: bool = False


@dataclass(frozen=True)
class ExplainImprove:
    """EXPLAIN [ANALYZE] IMPROVE ... — plan the wrapped IMPROVE.

    Plain EXPLAIN plans without running; EXPLAIN ANALYZE runs the query
    (results discarded, byte-identical to the plain IMPROVE) and extends
    each plan row with the observed per-stage timings and counters.
    """

    statement: Improve
    analyze: bool = False
