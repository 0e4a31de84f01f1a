import pytest

from repro.dbms.executor import Database
from repro.dbms.parser import MAX_DEPTH
from repro.errors import SQLCatalogError, SQLExecutionError


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (a INT, b FLOAT, name TEXT)")
    database.execute(
        "INSERT INTO t VALUES (1, 1.5, 'one'), (2, 2.5, 'two'), (3, 3.5, 'three')"
    )
    return database


class TestDDL:
    def test_show_tables(self, db):
        db.execute("CREATE TABLE z (x INT)")
        assert db.execute("SHOW TABLES").column("table") == ["t", "z"]

    def test_describe(self, db):
        result = db.execute("DESCRIBE t")
        assert result.rows == [["a", "INT"], ["b", "FLOAT"], ["name", "TEXT"]]

    def test_duplicate_table(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("CREATE TABLE t (x INT)")

    def test_drop(self, db):
        db.execute("DROP TABLE t")
        with pytest.raises(SQLCatalogError):
            db.execute("SELECT * FROM t")


class TestInsertTypes:
    def test_int_column_rejects_fraction(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t VALUES (1.5, 1.0, 'x')")

    def test_text_column_rejects_number(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t VALUES (1, 1.0, 42)")

    def test_arity_checked(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("INSERT INTO t VALUES (1, 2.0)")

    def test_null_allowed(self, db):
        db.execute("INSERT INTO t VALUES (NULL, NULL, NULL)")
        assert len(db.execute("SELECT * FROM t")) == 4


class TestSelect:
    def test_where_filters(self, db):
        result = db.execute("SELECT name FROM t WHERE a >= 2")
        assert result.column("name") == ["two", "three"]

    def test_arithmetic_in_where(self, db):
        result = db.execute("SELECT a FROM t WHERE a * 2 + 1 = 5")
        assert result.column("a") == [2]

    def test_order_and_limit(self, db):
        result = db.execute("SELECT a FROM t ORDER BY a DESC LIMIT 2")
        assert result.column("a") == [3, 2]

    @pytest.mark.parametrize(
        "order, expected",
        [
            ("b", [3, 1, 2, 4]),
            ("b DESC", [2, 4, 1, 3]),
            ("name", [3, 4, 1, 2]),
            ("name DESC", [2, 1, 4, 3]),
            ("b DESC LIMIT 3", [2, 4, 1]),
            ("name LIMIT 3", [3, 4, 1]),
        ],
    )
    def test_order_by_puts_null_last_ascending_first_descending(self, order, expected):
        # NULLs keep their insertion order among themselves.
        db = Database()
        db.execute("CREATE TABLE t (a INT, b FLOAT, name TEXT)")
        db.execute(
            "INSERT INTO t VALUES (1, 2.0, 'x'), (2, NULL, NULL), (3, 1.0, 'a'), (4, NULL, 'b')"
        )
        assert db.execute(f"SELECT a FROM t ORDER BY {order}").column("a") == expected

    def test_rowid_pseudo_column(self, db):
        result = db.execute("SELECT rowid, a FROM t WHERE rowid = 1")
        assert result.rows == [[1, 2]]

    def test_string_comparison(self, db):
        result = db.execute("SELECT a FROM t WHERE name = 'two'")
        assert result.column("a") == [2]

    def test_and_or_not(self, db):
        result = db.execute("SELECT a FROM t WHERE a = 1 OR NOT (a < 3)")
        assert result.column("a") == [1, 3]

    def test_null_comparisons_false(self, db):
        db.execute("INSERT INTO t VALUES (NULL, 9.0, 'n')")
        assert db.execute("SELECT a FROM t WHERE a < 100").column("a") == [1, 2, 3]

    def test_unknown_column(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("SELECT nope FROM t")

    def test_pretty_renders(self, db):
        text = db.execute("SELECT a, name FROM t").pretty()
        assert "name" in text and "three" in text


class TestCompiledPredicate:
    """Each statement compiles its expressions once; errors stay per row."""

    def test_unknown_column_on_an_empty_table_matches_nothing(self, db):
        db.execute("CREATE TABLE e (x INT)")
        assert db.execute("SELECT * FROM e WHERE nope = 1").rows == []
        assert db.execute("DELETE FROM e WHERE nope = 1").status == "DELETE 0"
        with pytest.raises(SQLCatalogError, match="no column 'nope'"):
            db.execute("SELECT * FROM t WHERE nope = 1")

    @pytest.mark.parametrize("where, expected", [
        ("a > 0 OR nope = 1", [1, 2, 3]),
        ("a > 0 OR name + 1 = 2", [1, 2, 3]),
        ("NOT (a < 0 AND a / 0 = 1)", [1, 2, 3]),
        ("a < 0 AND nope / 0 = 1", []),
    ])
    def test_short_circuited_operand_never_raises(self, db, where, expected):
        assert db.execute(f"SELECT a FROM t WHERE {where}").column("a") == expected

    def test_operand_reached_by_a_row_raises(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("SELECT a FROM t WHERE a > 1 OR nope = 1")
        with pytest.raises(SQLExecutionError, match="division by zero"):
            db.execute("SELECT a FROM t WHERE a < 2 AND a / 0 = 1")

    @pytest.mark.parametrize("op", ["<", ">", "<=", ">="])
    def test_ordering_comparison_with_null_is_false(self, db, op):
        db.execute("INSERT INTO t VALUES (NULL, 9.0, 'n')")
        assert 9.0 not in db.execute(f"SELECT b FROM t WHERE a {op} 2").column("b")
        # False, not unknown: its negation holds.
        assert 9.0 in db.execute(f"SELECT b FROM t WHERE NOT a {op} 2").column("b")
        assert db.execute(f"SELECT b FROM t WHERE a {op} NULL").rows == []
        assert db.execute(f"SELECT b FROM t WHERE NULL {op} a").rows == []

    @pytest.mark.parametrize("op", ["=", "<>", "!="])
    def test_equality_comparison_with_null_is_false(self, db, op):
        db.execute("INSERT INTO t VALUES (NULL, 9.0, 'n')")
        assert 9.0 not in db.execute(f"SELECT b FROM t WHERE a {op} 2").column("b")
        assert 9.0 in db.execute(f"SELECT b FROM t WHERE NOT a {op} 2").column("b")
        for where in (f"a {op} NULL", f"NULL {op} a", f"1 {op} NULL", f"NULL {op} NULL"):
            assert db.execute(f"SELECT b FROM t WHERE {where}").rows == [], where

    @pytest.mark.parametrize("column", ["a", "rowid"])
    def test_insert_values_refuse_a_column_reference(self, db, column):
        with pytest.raises(SQLExecutionError, match="not allowed here"):
            db.execute(f"INSERT INTO t VALUES (1, 2.0, 'x'), ({column}, 2.0, 'y')")
        # Rows before the refused one were inserted, as row-at-a-time.
        assert db.execute("SELECT a FROM t").column("a") == [1, 2, 3, 1]

    def test_update_reads_cells_it_already_set(self, db):
        db.execute("UPDATE t SET a = a * 10, b = a + 0.5 WHERE rowid = 1")
        assert db.execute("SELECT a, b FROM t WHERE rowid = 1").rows == [[20, 20.5]]

    @pytest.mark.parametrize("where, expected", [
        ("(" * MAX_DEPTH + "a" + ")" * MAX_DEPTH, [1, 2, 3]),
        ("NOT " * MAX_DEPTH + "a", [1, 2, 3]),
        (" + ".join(["a"] * (MAX_DEPTH + 1)), [1, 2, 3]),
        (" OR ".join(["a = 2"] + [f"a = {100 + i}" for i in range(MAX_DEPTH - 1)]), [2]),
    ], ids=["parentheses", "not", "operators", "or-list"])
    def test_deepest_expressions_evaluate(self, db, where, expected):
        assert db.execute(f"SELECT a FROM t WHERE {where}").column("a") == expected


class TestUpdateDelete:
    def test_update_with_expression(self, db):
        db.execute("UPDATE t SET b = b * 10 WHERE a = 2")
        assert db.execute("SELECT b FROM t WHERE a = 2").column("b") == [25.0]

    def test_update_all_rows(self, db):
        db.execute("UPDATE t SET a = a + 100")
        assert db.execute("SELECT a FROM t").column("a") == [101, 102, 103]

    def test_delete_where(self, db):
        result = db.execute("DELETE FROM t WHERE a = 2")
        assert result.status == "DELETE 1"
        assert db.execute("SELECT a FROM t").column("a") == [1, 3]

    def test_division_by_zero(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT a FROM t WHERE a / 0 = 1")

    def test_type_error_in_arithmetic(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("SELECT a FROM t WHERE name + 1 = 2")


class TestScript:
    def test_run_script(self):
        db = Database()
        results = db.run_script(
            "CREATE TABLE s (x INT); INSERT INTO s VALUES (1), (2); SELECT x FROM s"
        )
        assert len(results) == 3
        assert results[2].column("x") == [1, 2]
