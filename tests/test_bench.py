"""Tests for the benchmark configuration and harness utilities."""

import dataclasses
import gc
import json
import time

import numpy as np
import pytest

from repro.bench.config import SCALES, load_config
from repro.bench.harness import (
    BenchRecord,
    Stopwatch,
    TableResult,
    summarize_records,
    time_call,
    write_bench_json,
)
from repro.errors import ValidationError


class TestConfig:
    def test_default_scale_is_bench(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert load_config().name == "bench"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert load_config().name == "tiny"

    def test_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert load_config("paper").name == "paper"

    def test_unknown_scale(self):
        with pytest.raises(ValidationError):
            load_config("galactic")

    def test_paper_scale_matches_table2(self):
        paper = SCALES["paper"]
        assert paper.num_objects == 100_000
        assert paper.object_sweep == (50_000, 100_000, 150_000, 200_000)
        assert paper.num_queries == 10_000
        assert paper.query_sweep == (5_000, 10_000, 15_000)
        assert paper.tau == 250
        assert paper.budget == 50.0
        assert paper.dimensions == 3
        assert paper.dim_sweep == (1, 2, 3, 4, 5)
        assert paper.k_range == (1, 50)

    def test_all_scales_consistent(self):
        for config in SCALES.values():
            assert config.num_objects in config.object_sweep
            assert config.num_queries in config.query_sweep
            assert config.tau >= 1 and config.budget >= 0


class TestHarness:
    def test_time_call_returns_result_and_duration(self):
        result, seconds = time_call(lambda x: x * 2, 21)
        assert result == 42
        assert seconds >= 0

    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        first = watch.elapsed
        with watch:
            time.sleep(0.01)
        assert watch.elapsed > first >= 0.005

    def test_table_result_roundtrip(self):
        table = TableResult("T", ["x", "y"], notes="y doubles x")
        table.add(1, 2.0)
        table.add(2, 4.0)
        assert table.column("y") == [2.0, 4.0]
        text = table.render()
        assert "T" in text and "expected shape" in text
        assert "4" in text

    def test_table_formatting_of_extremes(self):
        table = TableResult("T", ["v"])
        table.add(0.0)
        table.add(123456.789)
        table.add(0.000001)
        text = table.render()
        assert "0" in text and "1.23e+05" in text and "1e-06" in text


class TestBenchRecord:
    def test_speedup_and_serialization(self):
        record = BenchRecord(
            figure="fig4",
            case="|D|=100",
            config={"num_objects": 100},
            literal_seconds=2.0,
            vectorized_seconds=0.5,
        )
        assert record.speedup == pytest.approx(4.0)
        payload = record.to_dict()
        assert payload["figure"] == "fig4"
        assert payload["speedup"] == pytest.approx(4.0)

    def test_zero_time_does_not_divide_by_zero(self):
        record = BenchRecord("f", "c", {}, literal_seconds=1.0, vectorized_seconds=0.0)
        assert record.speedup > 0

    def test_summary_groups_by_figure(self):
        records = [
            BenchRecord("fig4", "a", {}, 2.0, 1.0),
            BenchRecord("fig4", "b", {}, 8.0, 1.0),
            BenchRecord("fig5", "c", {}, 3.0, 1.0),
        ]
        summary = summarize_records(records)
        assert summary["fig4"]["points"] == 2
        assert summary["fig4"]["min_speedup"] == pytest.approx(2.0)
        assert summary["fig4"]["max_speedup"] == pytest.approx(8.0)
        assert summary["fig5"]["points"] == 1

    def test_write_bench_json_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        records = [BenchRecord("fig7", "target=0", {"seed": 1}, 1.0, 0.25)]
        payload = write_bench_json(records, path, scale="tiny")
        on_disk = json.loads(path.read_text())
        assert on_disk == payload
        assert on_disk["schema"] == "repro-bench-regression/1"
        assert on_disk["scale"] == "tiny"
        assert on_disk["records"][0]["speedup"] == pytest.approx(4.0)
        assert "fig7" in on_disk["summary"]


class TestRegressionHarness:
    def test_smoke_run_checks_parity_and_writes_json(self, tmp_path):
        from repro.bench.regression import run_regression

        path = tmp_path / "BENCH_SMOKE.json"
        payload = run_regression(smoke=True, out=str(path))
        assert path.exists()
        assert payload["scale"] == "tiny"
        figures = {record["figure"] for record in payload["records"]}
        assert figures == {
            "fig4", "fig5", "fig7", "evaluate", "par_batch", "serve", "persist",
            "update", "analyze_overhead",
        }
        for record in payload["records"]:
            assert record["literal_seconds"] > 0
            assert record["vectorized_seconds"] > 0
        assert payload["cpus"] >= 1
        for record in payload["records"]:
            if record["figure"] == "par_batch":
                assert record["config"]["driver"] == "persistent"
                assert record["config"]["resolved_workers"] >= 2
            if record["figure"] == "serve":
                assert record["config"]["throughput"] > 0
                assert record["config"]["batches"] >= 1
            if record["figure"] == "update":
                assert record["config"]["inserts"] == 5
            if record["figure"] == "persist":
                assert record["config"]["dir_bytes"] > 0
            if record["figure"] == "analyze_overhead":
                assert record["config"]["requests"] >= 2
        assert "kernel" not in payload and "numba" not in payload

    def test_cli_entry_point(self, capsys):
        from repro.bench.regression import main

        assert main(["--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "speedup" in out


class TestFiguresTiny:
    """Each figure runner must produce a well-formed table quickly."""

    @pytest.fixture(scope="class")
    def config(self):
        return load_config("tiny")

    def test_fig4(self, config):
        from repro.bench.figures import fig4_indexing_objects

        table = fig4_indexing_objects(config)
        assert table.column("|D|") == list(config.object_sweep)

    def test_fig13(self, config):
        from repro.bench.figures import fig13_dimensionality

        table = fig13_dimensionality(config)
        assert table.column("variables") == list(config.dim_sweep)
        assert all(t > 0 for t in table.column("time (ms)"))

    def test_x1(self, config):
        from repro.bench.figures import x1_exhaustive_gap

        table = x1_exhaustive_gap(config)
        assert all(r >= 1 - 1e-6 for r in table.column("cost ratio (heur/exact)"))

    def test_x3_operations_complete(self, config):
        from repro.bench.figures import x3_updates_ablation

        table = x3_updates_ablation(config)
        assert len(table.rows) == 4


class TestPlanMetadata:
    def test_record_plan_serialized_when_set(self):
        record = BenchRecord(
            "fig7", "target=0", {}, 1.0, 0.5, plan={"kind": "min_cost"}
        )
        assert record.to_dict()["plan"] == {"kind": "min_cost"}
        bare = BenchRecord("fig4", "|D|=10", {}, 1.0, 0.5)
        assert "plan" not in bare.to_dict()

    def test_fig7_records_carry_plans(self, tmp_path):
        from repro.bench.regression import run_regression

        payload = run_regression(smoke=True)
        for record in payload["records"]:
            if record["figure"] == "fig7":
                plan = record["plan"]
                assert plan["kind"] == "min_cost"
                assert plan["solver"] == "efficient"
                assert plan["evaluator"] == "ese"
            elif record["figure"] == "par_batch":
                # The batch bench shares one index across pool sizes;
                # the plan reports that index, the config the pool.
                assert record["plan"]["num_subdomains"] >= 1
                assert record["config"]["workers"] >= 2
            else:
                assert "plan" not in record


class TestRegressionCheck:
    def make_payload(self, median, scale="tiny"):
        return {
            "schema": "repro-bench-regression/1",
            "scale": scale,
            "summary": {"fig4": {"points": 1, "min_speedup": median,
                                 "median_speedup": median, "max_speedup": median}},
        }

    def test_no_regression(self):
        from repro.bench.regression import check_regression

        assert check_regression(self.make_payload(10.0), self.make_payload(10.0)) == []
        # Generous floor: half the baseline still passes.
        assert check_regression(self.make_payload(5.1), self.make_payload(10.0)) == []

    def test_regression_detected(self):
        from repro.bench.regression import check_regression

        problems = check_regression(self.make_payload(2.0), self.make_payload(10.0))
        assert problems and "fig4" in problems[0]

    def test_scale_mismatch_is_a_problem(self):
        from repro.bench.regression import check_regression

        problems = check_regression(
            self.make_payload(10.0, scale="bench"), self.make_payload(10.0, scale="tiny")
        )
        assert problems and "scale mismatch" in problems[0]

    def test_missing_figure_is_a_problem(self):
        from repro.bench.regression import check_regression

        run = self.make_payload(10.0)
        baseline = self.make_payload(10.0)
        baseline["summary"]["fig9"] = baseline["summary"]["fig4"]
        problems = check_regression(run, baseline)
        assert problems and "fig9" in problems[0]

    def test_unknown_schema_rejected(self):
        from repro.bench.regression import check_regression

        baseline = self.make_payload(10.0)
        baseline["schema"] = "something-else/9"
        problems = check_regression(self.make_payload(10.0), baseline)
        assert problems and "schema" in problems[0]

    def test_cli_check_exit_codes(self, tmp_path, capsys):
        from repro.bench.regression import main, run_regression

        baseline_path = tmp_path / "BASE.json"
        run_regression(smoke=True, out=str(baseline_path))

        def with_medians(value, name):
            payload = json.loads(baseline_path.read_text())
            for stats in payload["summary"].values():
                stats["median_speedup"] = value
            path = tmp_path / name
            path.write_text(json.dumps(payload))
            return str(path)

        # A baseline every run clears gives the clean exit code; the
        # smoke scale skips the absolute floors, so host load cannot
        # decide it.  The timed gate is the full-scale --check.
        assert main(["--smoke", "--check", with_medians(0.0, "ZEROED.json")]) == 0
        assert "no regression" in capsys.readouterr().out

        # An impossible baseline forces the regression exit code.
        assert main(["--smoke", "--check", with_medians(1e9, "INFLATED.json")]) == 3

    def test_cli_check_unreadable_baseline(self, tmp_path):
        from repro.bench.regression import main

        assert main(["--smoke", "--check", str(tmp_path / "missing.json")]) == 1

    def make_pooled_payload(self, median, cpus, scale="bench"):
        stats = {"points": 1, "min_speedup": median,
                 "median_speedup": median, "max_speedup": median}
        return {
            "schema": "repro-bench-regression/1",
            "scale": scale,
            "cpus": cpus,
            "summary": {"par_batch": dict(stats), "serve": dict(stats)},
        }

    def test_absolute_floor_enforced_on_multicore(self):
        from repro.bench.regression import check_regression

        # Both run and baseline slid under 1x: the relative ratio passes,
        # but the absolute pooled floor must still flag it.
        run = self.make_pooled_payload(0.6, cpus=4)
        baseline = self.make_pooled_payload(0.7, cpus=4)
        problems = check_regression(run, baseline)
        assert len(problems) == 2
        assert any("par_batch" in p and "absolute" in p for p in problems)
        assert any("serve" in p for p in problems)

    def test_absolute_floor_skipped_on_single_core(self):
        from repro.bench.regression import check_regression

        run = self.make_pooled_payload(0.6, cpus=1)
        baseline = self.make_pooled_payload(0.7, cpus=1)
        assert check_regression(run, baseline) == []

    def test_absolute_floor_skipped_at_tiny_scale(self):
        from repro.bench.regression import check_regression

        # Smoke runs fork a pool for micro-batches where IPC overhead
        # legitimately dominates, even on multi-core hosts.
        run = self.make_pooled_payload(0.6, cpus=4, scale="tiny")
        baseline = self.make_pooled_payload(0.7, cpus=4, scale="tiny")
        assert check_regression(run, baseline) == []

    def test_absolute_floor_passes_above_one(self):
        from repro.bench.regression import check_regression

        run = self.make_pooled_payload(1.8, cpus=4)
        baseline = self.make_pooled_payload(1.6, cpus=4)
        assert check_regression(run, baseline) == []


class TestUpdateFigure:
    def test_update_times_inserts_against_a_rebuild(self):
        from repro.bench.regression import FIGURES, run_figure

        (row,) = [row for row in FIGURES if row.name == "update"]
        (record,) = run_figure(row, load_config("tiny"))
        assert record.figure == "update" and record.case == "add_query"
        assert record.literal_seconds > 0 and record.vectorized_seconds > 0
        assert record.config["inserts"] == 5


class TestSingleCoreFloor:
    """The update and persist 1x floors gate any host — the win is work
    avoidance, not parallelism — with only the tiny (smoke) scale exempt."""

    def make_payload(self, median, cpus=1, scale="bench", figure="update"):
        stats = {"points": 1, "min_speedup": median,
                 "median_speedup": median, "max_speedup": median}
        return {
            "schema": "repro-bench-regression/1",
            "scale": scale,
            "cpus": cpus,
            "summary": {figure: stats},
        }

    def test_floor_enforced_even_on_one_cpu(self):
        from repro.bench.regression import check_regression

        run = self.make_payload(0.8, cpus=1)
        baseline = self.make_payload(0.9, cpus=1)
        problems = check_regression(run, baseline)
        assert len(problems) == 1
        assert "update" in problems[0] and "work avoidance" in problems[0]

    def test_persist_floor_enforced_even_on_one_cpu(self):
        # Loading a saved index must beat rebuilding it on any host.
        from repro.bench.regression import check_regression

        run = self.make_payload(0.8, figure="persist")
        baseline = self.make_payload(0.9, figure="persist")
        problems = check_regression(run, baseline)
        assert len(problems) == 1
        assert "persist" in problems[0] and "work avoidance" in problems[0]

    def test_floor_enforced_on_multicore_too(self):
        from repro.bench.regression import check_regression

        problems = check_regression(
            self.make_payload(0.8, cpus=8), self.make_payload(0.9, cpus=8)
        )
        assert len(problems) == 1

    def test_tiny_scale_exempt(self):
        from repro.bench.regression import check_regression

        run = self.make_payload(0.8, scale="tiny")
        baseline = self.make_payload(0.9, scale="tiny")
        assert check_regression(run, baseline) == []

    def test_passing_update_clears_the_floor(self):
        from repro.bench.regression import check_regression

        run = self.make_payload(1.8)
        baseline = self.make_payload(1.9)
        assert check_regression(run, baseline) == []

    def test_relative_floor_still_applies_above_one(self):
        from repro.bench.regression import check_regression

        # 1.1x clears the absolute floor but is < half the 4x baseline.
        problems = check_regression(self.make_payload(1.1), self.make_payload(4.0))
        assert len(problems) == 1
        assert "update" in problems[0]


class TestMeasure:
    """The one timing loop every bench figure goes through."""

    def fake_point(self, calls, fail=None):
        from repro.bench.regression import Point

        def side(name):
            def call():
                calls.append((name, gc.isenabled()))
                if name == fail:
                    raise RuntimeError(f"{name} failed")
                return 1

            return call

        return Point(
            "case=0",
            {"n": 1, "both": lambda baseline, candidate: baseline + candidate},
            side("baseline"),
            side("candidate"),
            lambda baseline, candidate: baseline == candidate,
        )

    def test_sides_alternate_with_gc_off(self):
        from repro.bench.regression import ROUNDS, measure

        calls = []
        record = measure("fake", self.fake_point(calls))
        # Baseline first on even rounds, candidate first on odd ones.
        expected = []
        for round_ in range(ROUNDS):
            pair = ["baseline", "candidate"]
            expected += pair if round_ % 2 == 0 else pair[::-1]
        assert [name for name, _ in calls] == expected
        assert not any(enabled for _, enabled in calls)
        assert gc.isenabled()
        assert (record.figure, record.case) == ("fake", "case=0")
        # Derived config values are read off the last results.
        assert record.config == {"n": 1, "both": 2}

    @pytest.mark.parametrize("fail", ["baseline", "candidate"])
    def test_gc_restored_when_a_side_raises(self, fail):
        from repro.bench.regression import measure

        calls = []
        with pytest.raises(RuntimeError, match=f"{fail} failed"):
            measure("fake", self.fake_point(calls, fail=fail))
        assert calls and not any(enabled for _, enabled in calls)
        assert gc.isenabled()

    def test_gc_left_off_when_the_caller_had_it_off(self):
        from repro.bench.regression import measure

        gc.disable()
        try:
            measure("fake", self.fake_point([]))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_disagreement_names_figure_and_case(self):
        from repro.bench.regression import Point, RegressionMismatch, measure

        point = Point("case=0", {}, lambda: 1, lambda: 2, lambda b, c: b == c)
        with pytest.raises(RegressionMismatch, match="^fake case=0: "):
            measure("fake", point)


def _other_workload(index):
    """An index over the same objects and one query fewer."""
    from repro.core.subdomain import SubdomainIndex

    queries = index.queries.subset(np.arange(1, index.queries.m))
    return SubdomainIndex(index.dataset, queries, mode=index.mode)


def _one_hit_more(results):
    first = dataclasses.replace(results[0], hits_after=results[0].hits_after + 1)
    return [first, *results[1:]]


#: A wrong candidate result per bench-table row: another workload's
#: index, or one value changed.
PLANTED = {
    "fig4": _other_workload,
    "fig5": _other_workload,
    "fig7": lambda batch: dataclasses.replace(
        batch, query_ids=np.append(batch.query_ids, 0)
    ),
    "evaluate": lambda counts: counts + np.eye(1, counts.size, dtype=counts.dtype)[0],
    "par_batch": _one_hit_more,
    "serve": lambda served: ("\n".join(served[0].splitlines()[::-1]), served[1]),
    "persist": _other_workload,
    "update": _other_workload,
    "analyze_overhead": lambda pairs: [
        (_one_hit_more([pairs[0][0]])[0], pairs[0][1]),
        *pairs[1:],
    ],
}


class TestAgreementChecks:
    """Every row's agreement check catches a wrong candidate result."""

    def test_every_row_has_a_planted_result(self):
        from repro.bench.regression import FIGURES

        assert [row.name for row in FIGURES] == [
            "fig4", "fig5", "fig7", "evaluate", "par_batch", "serve", "persist",
            "update", "analyze_overhead",
        ]
        assert set(PLANTED) == {row.name for row in FIGURES}

    @pytest.mark.parametrize("name", sorted(PLANTED))
    def test_planted_disagreement_raises(self, name):
        from repro.bench.regression import FIGURES, RegressionMismatch, run_figure

        (row,) = [row for row in FIGURES if row.name == name]
        corrupt = PLANTED[name]
        cases = []

        def planted_points(*args):
            for point in row.points(*args):
                cases.append(point.case)
                yield dataclasses.replace(
                    point, candidate=lambda side=point.candidate: corrupt(side())
                )

        planted = dataclasses.replace(row, points=planted_points)
        with pytest.raises(RegressionMismatch) as excinfo:
            run_figure(planted, load_config("tiny"), limit=2, workers=2)
        assert str(excinfo.value).startswith(f"{name} {cases[-1]}: ")


class TestInputErrors:
    """Bad --workers/--check input fails before anything is timed."""

    @pytest.fixture
    def untimed(self, monkeypatch):
        from repro.bench import harness

        def timed(*args, **kwargs):
            raise AssertionError("a figure was timed before the input error")

        monkeypatch.setattr(harness, "time_call", timed)

    @pytest.mark.parametrize(
        "argv",
        [["--workers", "1"], ["--workers", "0"]],
    )
    def test_counts_below_two_are_usage_errors(self, untimed, argv, capsys):
        from repro.bench.regression import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", *argv])
        assert excinfo.value.code == 2
        assert "must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "baseline",
        [
            [],
            {"schema": "repro-bench-regression/1", "scale": "tiny"},
            {"summary": {"fig4": {"points": 1}}},
            {"summary": {"fig4": {"median_speedup": "fast"}}},
            {"summary": {"fig4": 2.0}},
        ],
        ids=["list", "no-summary", "no-median", "non-numeric", "not-an-object"],
    )
    def test_malformed_baseline_exits_one(self, untimed, baseline, tmp_path, capsys):
        from repro.bench.regression import main

        path = tmp_path / "BASE.json"
        path.write_text(json.dumps(baseline))
        assert main(["--smoke", "--check", str(path)]) == 1
        assert f"error: baseline {path} is malformed: " in capsys.readouterr().err
