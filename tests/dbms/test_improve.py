import pytest

from repro.dbms.executor import Database
from repro.errors import (
    SQLCatalogError,
    SQLExecutionError,
    SQLSyntaxError,
    ValidationError,
)


@pytest.fixture
def db():
    """The camera scenario from the paper's Figure 1 (max-sense)."""
    database = Database()
    database.run_script(
        """
        CREATE TABLE cameras (resolution FLOAT, storage FLOAT, price FLOAT);
        INSERT INTO cameras VALUES
            (10, 2, 250), (12, 4, 340), (8, 8, 199), (14, 6, 410), (9, 3, 150);
        CREATE TABLE prefs (w_res FLOAT, w_sto FLOAT, w_pri FLOAT, k INT);
        INSERT INTO prefs VALUES
            (5.0, 3.5, -0.05, 1), (2.5, 7.0, -0.08, 1),
            (1.0, 1.0, -0.01, 2), (4.0, 1.0, -0.02, 2);
        CREATE IMPROVEMENT INDEX idx ON cameras (resolution, storage, price)
            USING QUERIES prefs (w_res, w_sto, w_pri, k) SENSE MAX;
        """
    )
    return database


class TestImproveReach:
    def test_min_cost_reaches_goal(self, db):
        result = db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3")
        assert result.column("satisfied") == [1]
        assert result.column("hits_after")[0] >= 3

    def test_result_schema(self, db):
        result = db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2")
        assert result.columns == [
            "rowid",
            "delta_resolution",
            "delta_storage",
            "delta_price",
            "cost",
            "hits_before",
            "hits_after",
            "satisfied",
        ]

    def test_apply_writes_back(self, db):
        before = db.execute("SELECT resolution FROM cameras WHERE rowid = 0").rows[0][0]
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 APPLY"
        )
        delta = result.column("delta_resolution")[0]
        after = db.execute("SELECT resolution FROM cameras WHERE rowid = 0").rows[0][0]
        assert after == pytest.approx(before + delta)

    def test_without_apply_no_write(self, db):
        before = db.execute("SELECT * FROM cameras").rows
        db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3")
        assert db.execute("SELECT * FROM cameras").rows == before

    def test_adjust_frozen_column(self, db):
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2 "
            "ADJUST resolution BETWEEN -100 AND 100, storage BETWEEN -100 AND 100, "
            "price FROZEN"
        )
        assert result.column("delta_price")[0] == pytest.approx(0.0, abs=1e-9)

    def test_frozen_items_alone_freeze_only_themselves(self, db):
        # No bounded column lists what may change, so the others move,
        # as `repro improve --freeze price` lets them.
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 ADJUST price FROZEN"
        )
        assert result.column("satisfied") == [1]
        assert result.column("delta_price")[0] == 0.0
        moved = (result.column("delta_resolution")[0], result.column("delta_storage")[0])
        assert moved != (0.0, 0.0)

    def test_unmentioned_columns_frozen(self, db):
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2 "
            "ADJUST resolution BETWEEN -100 AND 100"
        )
        assert result.column("delta_storage")[0] == pytest.approx(0.0, abs=1e-9)
        assert result.column("delta_price")[0] == pytest.approx(0.0, abs=1e-9)

    def test_method_selection(self, db):
        efficient = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 METHOD efficient"
        )
        greedy = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 METHOD greedy"
        )
        assert efficient.column("cost")[0] <= greedy.column("cost")[0] * 1.2 + 1e-9

    def test_method_auto_is_not_a_solver(self, db):
        # The solver decides the answer, so it is never picked from stats.
        with pytest.raises(ValidationError, match="method must be one of"):
            db.execute(
                "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 METHOD auto"
            )


class TestImproveBudget:
    def test_budget_respected(self, db):
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 2 USING idx BUDGET 4 COST L1"
        )
        assert result.column("cost")[0] <= 4 + 1e-9

    def test_zero_budget(self, db):
        result = db.execute("IMPROVE cameras TARGET WHERE rowid = 2 USING idx BUDGET 0")
        assert result.column("cost")[0] == 0
        assert result.column("hits_after")[0] == result.column("hits_before")[0]


class TestMultiTarget:
    def test_multi_target_rows(self, db):
        result = db.execute(
            "IMPROVE cameras TARGET WHERE rowid = 0 OR rowid = 2 USING idx REACH 3"
        )
        assert result.column("rowid") == [0, 2]
        assert result.column("hits_after")[0] >= 3

    def test_multi_target_budget(self, db):
        result = db.execute(
            "IMPROVE cameras TARGET WHERE price < 300 USING idx BUDGET 6"
        )
        assert sum(result.column("cost")) <= 6 + 1e-9


class TestIndexLifecycle:
    def test_index_refreshes_after_insert(self, db):
        first = db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3")
        db.execute("INSERT INTO prefs VALUES (9.0, 0.5, -0.01, 1)")
        second = db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3")
        # One more query in the workload: hit counts may change, and the
        # statement must not fail on the stale engine.
        assert second.column("hits_after")[0] >= 0
        assert first.columns == second.columns

    def test_drop_table_forgets_index(self, db):
        db.execute("DROP TABLE prefs")
        with pytest.raises(SQLCatalogError):
            db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2")

    def test_duplicate_index_name(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute(
                "CREATE IMPROVEMENT INDEX idx ON cameras (resolution, storage, price) "
                "USING QUERIES prefs (w_res, w_sto, w_pri, k)"
            )


class TestErrors:
    def test_unknown_index(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING nope REACH 2")

    def test_wrong_table_for_index(self, db):
        db.execute("CREATE TABLE other (x FLOAT)")
        with pytest.raises(SQLExecutionError):
            db.execute("IMPROVE other TARGET WHERE rowid = 0 USING idx REACH 2")

    def test_empty_target(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("IMPROVE cameras TARGET WHERE rowid = 99 USING idx REACH 2")

    def test_bad_cost_name(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2 COST L7")

    def test_bad_adjust_column(self, db):
        with pytest.raises(SQLExecutionError):
            db.execute(
                "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2 "
                "ADJUST nonexistent FROZEN"
            )

    def test_text_attribute_rejected_at_improve(self):
        db = Database()
        db.run_script(
            """
            CREATE TABLE o (a FLOAT, label TEXT);
            INSERT INTO o VALUES (1.0, 'x'), (2.0, 'y');
            CREATE TABLE q (w FLOAT, k INT);
            INSERT INTO q VALUES (0.5, 1);
            CREATE IMPROVEMENT INDEX ix ON o (label) USING QUERIES q (w, k);
            """
        )
        with pytest.raises(SQLExecutionError):
            db.execute("IMPROVE o TARGET WHERE rowid = 0 USING ix REACH 1")

    def test_paper_figure1_example(self, db):
        """Applying s=(5,2,-50) to camera p1 overtakes p2 on q1 and q2 —
        the worked example of the paper's Figure 1, via SQL."""
        db.execute(
            "UPDATE cameras SET resolution = 15, storage = 4, price = 200 WHERE rowid = 0"
        )
        result = db.execute("IMPROVE cameras TARGET WHERE rowid = 0 USING idx BUDGET 0")
        assert result.column("hits_before")[0] >= 2  # hits q1 and q2 already


class TestExplainImprove:
    def test_one_plan_row_per_target(self, db):
        result = db.execute(
            "EXPLAIN IMPROVE cameras TARGET WHERE rowid < 2 USING idx REACH 3"
        )
        assert result.columns[0] == "rowid"
        assert result.column("rowid") == [0, 1]
        assert result.column("kind") == ["min_cost", "min_cost"]
        assert result.column("solver") == ["efficient", "efficient"]
        assert result.status == "EXPLAIN IMPROVE 2"

    def test_plan_fields_match_engine_explain(self, db):
        from repro.core.plan import PLAN_FIELDS

        result = db.execute(
            "EXPLAIN IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3 "
            "COST L1 METHOD rta ADJUST price BETWEEN -100 AND 0"
        )
        assert result.columns == ["rowid"] + list(PLAN_FIELDS)
        assert result.column("solver") == ["rta"]
        assert result.column("evaluator") == ["rta"]
        assert result.column("sense") == ["max"]
        # The index is max-sense, so EXPLAIN shows the internalized
        # (negated) adjustment interval the solver actually receives.
        assert result.column("space") == ["box(lower=[0, 0, 0], upper=[0, 0, 100])"]

    def test_explain_does_not_execute(self, db):
        before = db.execute("SELECT * FROM cameras").rows
        db.execute(
            "EXPLAIN IMPROVE cameras TARGET WHERE rowid = 0 USING idx BUDGET 10"
        )
        assert db.execute("SELECT * FROM cameras").rows == before

    def test_explain_budget_kind(self, db):
        result = db.execute(
            "EXPLAIN IMPROVE cameras TARGET WHERE rowid = 0 USING idx BUDGET 10"
        )
        assert result.column("kind") == ["max_hit"]
        # A Max-Hit budget keeps its float-ness so it cannot be read as
        # a Min-Cost tau (which *does* render as an int).
        assert result.column("goal") == ["10.0"]

    def test_explain_validates_like_improve(self, db):
        with pytest.raises(SQLCatalogError):
            db.execute("EXPLAIN IMPROVE cameras TARGET WHERE rowid = 0 USING nope REACH 2")
        with pytest.raises(SQLExecutionError):
            db.execute("EXPLAIN IMPROVE cameras TARGET WHERE rowid = 99 USING idx REACH 2")

    def test_explain_multi_target_one_joint_plan_per_target(self, db):
        result = db.execute(
            "EXPLAIN IMPROVE cameras TARGET WHERE rowid < 2 USING idx REACH 2"
        )
        assert result.column("rowid") == [0, 1]
        notes = result.column("notes")
        assert all("joint greedy loop" in note for note in notes)

    def test_explain_multi_rejects_non_efficient_method(self, db):
        with pytest.raises(SQLExecutionError, match="METHOD efficient only"):
            db.execute(
                "EXPLAIN IMPROVE cameras TARGET WHERE rowid < 2 USING idx REACH 2"
                " METHOD greedy"
            )


class TestExplainAnalyze:
    def test_columns_extend_plan_fields(self, db):
        from repro.core.plan import ANALYZE_FIELDS, PLAN_FIELDS

        result = db.execute(
            "EXPLAIN ANALYZE IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2"
        )
        assert result.columns == ["rowid"] + list(PLAN_FIELDS) + list(ANALYZE_FIELDS)
        assert result.status == "EXPLAIN ANALYZE IMPROVE 1"

    def test_observations_filled(self, db):
        result = db.execute(
            "EXPLAIN ANALYZE IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 2"
        )
        assert float(result.column("total_seconds")[0]) > 0.0
        assert float(result.column("solve_seconds")[0]) > 0.0

    def test_analyze_never_perturbs(self, db):
        improve = "IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3"
        before = db.execute(improve).rows
        db.execute("EXPLAIN ANALYZE " + improve)
        assert db.execute(improve).rows == before
        assert db.execute("SELECT * FROM cameras").rows is not None

    def test_analyze_does_not_apply(self, db):
        before = db.execute("SELECT * FROM cameras").rows
        db.execute(
            "EXPLAIN ANALYZE IMPROVE cameras TARGET WHERE rowid = 0 USING idx REACH 3"
        )
        assert db.execute("SELECT * FROM cameras").rows == before

    def test_multi_target_shares_one_runs_timings(self, db):
        result = db.execute(
            "EXPLAIN ANALYZE IMPROVE cameras TARGET WHERE rowid < 2 USING idx REACH 2"
        )
        assert result.column("rowid") == [0, 1]
        totals = result.column("total_seconds")
        assert totals[0] == totals[1]  # the joint loop is one run
        assert float(totals[0]) > 0.0
