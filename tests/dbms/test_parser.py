import pytest

from repro.dbms import ast_nodes as ast
from repro.dbms.parser import MAX_DEPTH, parse, parse_script
from repro.errors import SQLSyntaxError


class TestDDL:
    def test_create_table(self):
        stmt = parse("CREATE TABLE t (a INT, b FLOAT, c TEXT)")
        assert stmt == ast.CreateTable("t", [("a", "INT"), ("b", "FLOAT"), ("c", "TEXT")])

    def test_drop_table(self):
        assert parse("DROP TABLE t") == ast.DropTable("t")

    def test_create_requires_type(self):
        with pytest.raises(SQLSyntaxError):
            parse("CREATE TABLE t (a)")


class TestDML:
    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t VALUES (1, 2.5, 'x'), (3, 4.5, 'y')")
        assert isinstance(stmt, ast.Insert)
        assert len(stmt.rows) == 2
        assert stmt.rows[0][2] == ast.Literal("x")

    def test_insert_negative_number(self):
        stmt = parse("INSERT INTO t VALUES (-5)")
        assert stmt.rows[0][0] == ast.Unary("-", ast.Literal(5))

    def test_update(self):
        stmt = parse("UPDATE t SET a = a + 1, b = 0 WHERE a > 3")
        assert isinstance(stmt, ast.Update)
        assert len(stmt.assignments) == 2
        assert stmt.where is not None

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.Delete)


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.columns is None

    def test_full_clause_stack(self):
        stmt = parse("SELECT a, b FROM t WHERE a >= 2 AND NOT b < 1 ORDER BY a DESC LIMIT 5")
        assert stmt.columns == ["a", "b"]
        assert stmt.order_by == ("a", False)
        assert stmt.limit == 5

    @pytest.mark.parametrize("limit", ["-1", "2.5", "1e999"])
    def test_limit_must_be_a_whole_number_of_rows(self, limit):
        # Refused, not run as rows[:-1], as 2 rows or into a bare OverflowError.
        with pytest.raises(SQLSyntaxError, match="LIMIT needs a whole number"):
            parse(f"SELECT * FROM t LIMIT {limit}")

    def test_limit_zero(self):
        assert parse("SELECT * FROM t LIMIT 0").limit == 0

    def test_expression_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a + b * 2 = 7")
        where = stmt.where
        assert where.op == "="
        assert where.left.op == "+"
        assert where.left.right.op == "*"

    def test_parentheses(self):
        stmt = parse("SELECT * FROM t WHERE (a + b) * 2 = 7")
        assert stmt.where.left.op == "*"
        assert stmt.where.left.left.op == "+"

    def test_or_and_precedence(self):
        stmt = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        assert stmt.where.op == "OR"
        assert stmt.where.right.op == "AND"


def _nested(kind: str, levels: int) -> str:
    """A WHERE body that nests ``levels`` deep in one construct."""
    if kind == "parentheses":
        return "(" * levels + "a" + ")" * levels
    if kind == "not":
        return "NOT " * levels + "a"
    return " + ".join(["a"] * (levels + 1))  # a left-deep operator chain


class TestNestingBound:
    """Deep input is a syntax error, never a RecursionError."""

    @pytest.mark.parametrize("kind", ["parentheses", "not", "operators"])
    def test_at_the_bound(self, kind):
        assert parse(f"SELECT * FROM t WHERE {_nested(kind, MAX_DEPTH)}").where is not None

    @pytest.mark.parametrize("kind", ["parentheses", "not", "operators"])
    def test_one_past_the_bound(self, kind):
        with pytest.raises(SQLSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            parse(f"SELECT * FROM t WHERE {_nested(kind, MAX_DEPTH + 1)}")

    def test_parentheses_parse_without_recursion(self):
        # Deeper than recursive descent fits in Python's default stack.
        where = parse("SELECT * FROM t WHERE " + _nested("parentheses", 130)).where
        assert where == ast.ColumnRef("a")

    def test_long_operator_chain(self):
        # 500 terms: past the bound, and deep enough to overflow a recursive evaluator.
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t WHERE " + _nested("operators", 499) + " > 0")

    def test_the_bound_counts_parentheses_and_operators_together(self):
        levels = MAX_DEPTH // 2
        parse("SELECT * FROM t WHERE " + "(" * levels + _nested("not", levels) + ")" * levels)
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t WHERE " + "(" * levels + _nested("not", levels + 1) + ")" * levels)


class TestImprovementExtension:
    def test_create_improvement_index(self):
        stmt = parse(
            "CREATE IMPROVEMENT INDEX idx ON cars (mpg, price) "
            "USING QUERIES prefs (w1, w2, k) SENSE MAX"
        )
        assert stmt == ast.CreateImprovementIndex(
            name="idx",
            object_table="cars",
            attribute_columns=["mpg", "price"],
            query_table="prefs",
            weight_columns=["w1", "w2"],
            k_column="k",
            sense="max",
        )

    def test_weight_arity_checked(self):
        with pytest.raises(SQLSyntaxError):
            parse(
                "CREATE IMPROVEMENT INDEX idx ON cars (mpg, price) "
                "USING QUERIES prefs (w1, k)"
            )

    def test_improve_reach(self):
        stmt = parse(
            "IMPROVE cars TARGET WHERE rowid = 3 USING idx REACH 250 COST L1 "
            "ADJUST mpg BETWEEN -5 AND 5, price FROZEN METHOD greedy APPLY"
        )
        assert stmt.reach == 250 and stmt.budget is None
        assert stmt.cost == "L1" and stmt.method == "greedy" and stmt.apply
        assert stmt.adjust == [
            ast.AdjustClause("mpg", lower=-5.0, upper=5.0),
            ast.AdjustClause("price", frozen=True),
        ]

    def test_improve_budget(self):
        stmt = parse("IMPROVE cars TARGET WHERE price > 100 USING idx BUDGET 50.5")
        assert stmt.budget == 50.5 and stmt.reach is None
        assert stmt.cost == "L2" and not stmt.apply

    def test_improve_kernel_clause(self):
        # The kernel backend switch is gone: KERNEL is no longer a clause.
        with pytest.raises(SQLSyntaxError):
            parse("IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 5 KERNEL native")

    def test_fractional_reach_rejected(self):
        with pytest.raises(SQLSyntaxError, match="whole number"):
            parse("IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 2.7")

    def test_reach_and_budget_mutually_exclusive(self):
        with pytest.raises(SQLSyntaxError):
            parse("IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 5 BUDGET 2")
        with pytest.raises(SQLSyntaxError):
            parse("IMPROVE cars TARGET WHERE rowid = 0 USING idx")

    def test_adjust_requires_shape(self):
        with pytest.raises(SQLSyntaxError):
            parse("IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 2 ADJUST mpg")


class TestScripts:
    def test_multiple_statements(self):
        statements = parse_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1);")
        assert len(statements) == 2

    def test_parse_rejects_multi(self):
        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t; SELECT * FROM t")

    def test_show_and_describe(self):
        assert isinstance(parse("SHOW TABLES"), ast.ShowTables)
        assert parse("DESCRIBE t") == ast.Describe("t")

    def test_garbage(self):
        with pytest.raises(SQLSyntaxError):
            parse("FLY ME TO THE MOON")


class TestExplain:
    def test_explain_improve_wraps_statement(self):
        stmt = parse("EXPLAIN IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 5")
        assert isinstance(stmt, ast.ExplainImprove)
        assert stmt.statement.reach == 5
        assert stmt.analyze is False

    def test_explain_analyze_sets_flag(self):
        stmt = parse(
            "EXPLAIN ANALYZE IMPROVE cars TARGET WHERE rowid = 0 USING idx BUDGET 2"
        )
        assert isinstance(stmt, ast.ExplainImprove)
        assert stmt.analyze is True
        assert stmt.statement.budget == 2

    def test_analyze_requires_improve(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN ANALYZE SELECT * FROM cars")

    def test_explain_requires_improve(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN SELECT * FROM cars")

    def test_explain_rejects_apply(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN IMPROVE cars TARGET WHERE rowid = 0 USING idx REACH 5 APPLY")
