"""The IMPROVE extension: improvement queries from SQL.

Mirrors the paper's analytic tool (§6.1): the user selects target
objects via SQL, specifies which attributes may be adjusted and in what
range, picks a cost function, and issues a Min-Cost (``REACH n``) or
Max-Hit (``BUDGET x``) improvement query.

Index lifecycle: ``CREATE IMPROVEMENT INDEX`` records the object-table
attribute columns, the query-table weight/k columns, and the ranking
sense.  The engine is built by the first IMPROVE and kept; each later
IMPROVE (or EXPLAIN) brings it up to date from what the catalog shows:

* rows appended to the query table since the engine last saw it go
  through ``engine.add_query``, the §4.3 insertion, one row at a time;
* the engine is rebuilt from both tables instead after an UPDATE or a
  DELETE of either table (``APPLY`` writes back by UPDATE), after any
  INSERT into the object table (an exact-mode ``add_object`` adds ``n``
  hyperplanes and splits the cells they cut; a few dozen inserts cost
  more than a rebuild while each also dropped every ranking prefix, and
  the break-even is unmeasured since inserts keep the prefixes), and
  when more query rows were appended than the engine holds (about where
  a rebuild becomes cheaper).

Either way IMPROVE runs against current data, and both paths refuse a
bad ``k`` with the same :class:`~repro.errors.ValidationError`.

Result shape: one row per target with the per-attribute deltas, the
total cost, hits before/after, and whether the goal was met.  With
``APPLY`` the deltas are also written back to the object table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost import NAMED_COSTS
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.plan import ANALYZE_FIELDS, PLAN_FIELDS
from repro.core.queries import QuerySet
from repro.core.strategy import StrategySpace
from repro.dbms import ast_nodes as ast
from repro.dbms.catalog import Catalog
from repro.errors import SQLCatalogError, SQLExecutionError

__all__ = ["ImprovementService", "IndexDefinition"]


@dataclass
class IndexDefinition:
    """Schema-level description of one improvement index."""

    name: str
    object_table: str
    attribute_columns: list
    query_table: str
    weight_columns: list
    k_column: str
    sense: str
    engine: ImprovementQueryEngine | None = None
    #: ``(mutations, rows)`` of the object table when the engine was built
    objects_seen: tuple = (-1, 0)
    query_mutations: int = -1  #: the query table's mutations at the build
    query_rows: int = 0  #: query-table rows the engine holds


class ImprovementService:
    """Owns improvement indexes and executes IMPROVE statements."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._indexes: dict[str, IndexDefinition] = {}

    # ------------------------------------------------------------------
    def create_index(self, stmt: ast.CreateImprovementIndex) -> None:
        """Register an improvement index (engine built lazily)."""
        if stmt.name in self._indexes:
            raise SQLCatalogError(f"improvement index {stmt.name!r} already exists")
        objects = self.catalog.get(stmt.object_table)
        queries = self.catalog.get(stmt.query_table)
        for column in stmt.attribute_columns:
            objects.column_index(column)
        for column in list(stmt.weight_columns) + [stmt.k_column]:
            queries.column_index(column)
        self._indexes[stmt.name] = IndexDefinition(
            name=stmt.name,
            object_table=stmt.object_table,
            attribute_columns=list(stmt.attribute_columns),
            query_table=stmt.query_table,
            weight_columns=list(stmt.weight_columns),
            k_column=stmt.k_column,
            sense=stmt.sense,
        )

    def forget_table(self, table_name: str) -> None:
        """Drop indexes referring to a dropped table."""
        doomed = [
            name
            for name, definition in self._indexes.items()
            if table_name in (definition.object_table, definition.query_table)
        ]
        for name in doomed:
            del self._indexes[name]

    # ------------------------------------------------------------------
    def _engine(self, definition: IndexDefinition) -> ImprovementQueryEngine:
        objects = self.catalog.get(definition.object_table)
        queries = self.catalog.get(definition.query_table)
        held = definition.query_rows
        appended = len(queries.rows) - held
        if (
            definition.engine is None
            or definition.objects_seen != (objects.mutations, len(objects.rows))
            or definition.query_mutations != queries.mutations
            or appended > held
        ):
            return self._build(definition, objects, queries)
        if appended:
            columns = definition.weight_columns + [definition.k_column]
            for row in queries.numeric_matrix(columns, start=held):
                definition.engine.add_query(row[:-1], row[-1])
                definition.query_rows += 1
        return definition.engine

    @staticmethod
    def _build(definition: IndexDefinition, objects, queries) -> ImprovementQueryEngine:
        matrix = np.asarray(objects.numeric_matrix(definition.attribute_columns))
        if matrix.shape[0] == 0:
            raise SQLExecutionError(f"table {objects.name} is empty")
        weights_and_k = np.asarray(
            queries.numeric_matrix(definition.weight_columns + [definition.k_column])
        )
        if weights_and_k.shape[0] == 0:
            raise SQLExecutionError(f"table {queries.name} is empty")
        dataset = Dataset(matrix, names=definition.attribute_columns, sense=definition.sense)
        query_set = QuerySet(weights_and_k[:, :-1], weights_and_k[:, -1], normalized=False)
        definition.engine = ImprovementQueryEngine(dataset, query_set)
        definition.objects_seen = (objects.mutations, len(objects.rows))
        definition.query_mutations = queries.mutations
        definition.query_rows = len(queries.rows)
        return definition.engine

    # ------------------------------------------------------------------
    def _prepare(self, stmt: ast.Improve, matching_row_ids):
        """Shared IMPROVE/EXPLAIN prelude: resolve index, targets, args.

        Returns ``(definition, table, targets, engine, cost, space)``.
        """
        definition = self._indexes.get(stmt.index)
        if definition is None:
            raise SQLCatalogError(f"no improvement index {stmt.index!r}")
        if stmt.table != definition.object_table:
            raise SQLExecutionError(
                f"index {stmt.index!r} indexes table {definition.object_table!r}, "
                f"not {stmt.table!r}"
            )
        table = self.catalog.get(stmt.table)
        targets = matching_row_ids(table, stmt.where)
        if not targets:
            raise SQLExecutionError("TARGET WHERE matched no rows")
        engine = self._engine(definition)

        cost_cls = NAMED_COSTS.get(stmt.cost)
        if cost_cls is None:
            raise SQLExecutionError(
                f"COST must be one of {sorted(NAMED_COSTS)}, got {stmt.cost!r}"
            )
        dim = len(definition.attribute_columns)
        cost = cost_cls(dim)
        space = self._space(stmt.adjust, definition, dim)
        return definition, table, targets, engine, cost, space

    def explain(self, stmt: ast.Improve, matching_row_ids, analyze: bool = False):
        """EXPLAIN [ANALYZE] IMPROVE: one plan row per target.

        Plain EXPLAIN builds the plans an executed IMPROVE with the same
        clauses would run and executes nothing; multi-target statements
        plan through ``engine.explain_multi`` so the rows reflect the
        one joint combinatorial loop that would actually run.  With
        ``analyze`` the wrapped IMPROVE runs (results discarded,
        byte-identical to the plain statement) and each row is extended
        with the observed per-stage timings and counters
        (:data:`~repro.core.plan.ANALYZE_FIELDS`).
        """
        from repro.dbms.executor import ResultSet  # local import to avoid a cycle

        _, _, targets, engine, cost, space = self._prepare(stmt, matching_row_ids)
        columns = ["rowid"] + list(PLAN_FIELDS)
        if analyze:
            columns += list(ANALYZE_FIELDS)
        if len(targets) == 1:
            target = targets[0]
            if analyze:
                _, executed = engine.analyze(
                    target,
                    tau=stmt.reach,
                    budget=stmt.budget,
                    cost=cost,
                    space=space,
                    method=stmt.method,
                )
                plans = (executed,)
            else:
                plans = (
                    engine.explain(
                        target,
                        tau=stmt.reach,
                        budget=stmt.budget,
                        cost=cost,
                        space=space,
                        method=stmt.method,
                    ),
                )
        else:
            if stmt.method not in ("efficient",):
                raise SQLExecutionError(
                    "multi-target IMPROVE supports METHOD efficient only"
                )
            if analyze:
                _, plans = engine.analyze_multi(
                    targets,
                    tau=stmt.reach,
                    budget=stmt.budget,
                    costs=cost,
                    spaces=space,
                )
            else:
                plans = engine.explain_multi(
                    targets,
                    tau=stmt.reach,
                    budget=stmt.budget,
                    costs=cost,
                    spaces=space,
                )
        rows = [
            [plan.target] + [value for _, value in plan.rows()] for plan in plans
        ]
        verb = "EXPLAIN ANALYZE" if analyze else "EXPLAIN"
        return ResultSet(columns, rows, status=f"{verb} IMPROVE {len(targets)}")

    def improve(self, stmt: ast.Improve, matching_row_ids):
        """Execute an IMPROVE statement; returns its ResultSet."""
        from repro.dbms.executor import ResultSet  # local import to avoid a cycle

        definition, table, targets, engine, cost, space = self._prepare(
            stmt, matching_row_ids
        )
        columns = (
            ["rowid"]
            + [f"delta_{c}" for c in definition.attribute_columns]
            + ["cost", "hits_before", "hits_after", "satisfied"]
        )
        rows = []
        if len(targets) == 1:
            target = targets[0]
            if stmt.reach is not None:
                result = engine.min_cost(
                    target, stmt.reach, cost=cost, space=space, method=stmt.method
                )
            else:
                result = engine.max_hit(
                    target, stmt.budget, cost=cost, space=space, method=stmt.method
                )
            rows.append(
                [target]
                + [float(v) for v in result.strategy.vector]
                + [result.total_cost, result.hits_before, result.hits_after,
                   int(result.satisfied)]
            )
            strategies = {target: result.strategy}
        else:
            if stmt.method not in ("efficient",):
                raise SQLExecutionError(
                    "multi-target IMPROVE supports METHOD efficient only"
                )
            if stmt.reach is not None:
                result = engine.min_cost_multi(targets, stmt.reach, costs=cost, spaces=space)
            else:
                result = engine.max_hit_multi(targets, stmt.budget, costs=cost, spaces=space)
            for target in targets:
                strategy = result.strategies[target]
                rows.append(
                    [target]
                    + [float(v) for v in strategy.vector]
                    + [strategy.cost, result.hits_before, result.hits_after,
                       int(result.satisfied)]
                )
            strategies = result.strategies

        if stmt.apply:
            for target, strategy in strategies.items():
                for column, delta in zip(definition.attribute_columns, strategy.vector):
                    if abs(float(delta)) > 0:
                        current = table.rows[target][table.column_index(column)]
                        table.update_cell(target, column, float(current) + float(delta))
        return ResultSet(columns, rows, status=f"IMPROVE {len(targets)}")

    @staticmethod
    def _space(adjust_clauses, definition: IndexDefinition, dim: int):
        if not adjust_clauses:
            return None
        items = []
        for clause in adjust_clauses:
            try:
                idx = definition.attribute_columns.index(clause.column)
            except ValueError:
                raise SQLExecutionError(
                    f"ADJUST column {clause.column!r} is not an indexed attribute"
                )
            items.append((idx, None if clause.frozen else (clause.lower, clause.upper)))
        return StrategySpace.from_adjustments(dim, items)
