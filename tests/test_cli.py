"""Tests for the command-line analytic tool."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture
def market_files(tmp_path, rng):
    objects = tmp_path / "objects.csv"
    rows = ["price,mpg,seats"]
    for row in rng.random((25, 3)).round(4):
        rows.append(f"{row[0]},{row[1]},{row[2]}")
    objects.write_text("\n".join(rows) + "\n")

    queries = tmp_path / "queries.csv"
    rows = ["w_price,w_mpg,w_seats,k"]
    for row in rng.random((15, 3)).round(4):
        rows.append(f"{row[0]},{row[1]},{row[2]},2")
    queries.write_text("\n".join(rows) + "\n")
    return str(objects), str(queries)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestImprove:
    def test_min_cost_run(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["improve", objects, queries, "--target", "3", "--reach", "5"]
        )
        assert code == 0
        assert "satisfied True" in out
        assert "cost" in out

    def test_max_hit_run(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["improve", objects, queries, "--target", "3", "--budget", "0.5", "--cost", "L1"]
        )
        assert code == 0
        assert "hits" in out

    def test_adjust_and_freeze(self, market_files):
        objects, queries = market_files
        code, out = run(
            [
                "improve", objects, queries, "--target", "0", "--reach", "4",
                "--adjust", "price:-1:0", "--adjust", "mpg:-1:1", "--freeze", "seats",
            ]
        )
        assert code in (0, 2)
        assert "seats" not in [line.split()[1] for line in out.splitlines() if "adjust" in line]

    def test_multi_target(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["improve", objects, queries, "--target", "1", "--target", "4", "--reach", "6"]
        )
        assert code == 0
        assert "joint hits" in out

    def test_unsatisfiable_returns_2(self, market_files):
        objects, queries = market_files
        code, out = run(
            [
                "improve", objects, queries, "--target", "0", "--reach", "15",
                "--adjust", "price:0:0",  # everything frozen
            ]
        )
        assert code == 2
        assert "satisfied False" in out

    def test_nan_budget_exits_1_with_typed_error(self, market_files, capsys):
        objects, queries = market_files
        code, out = run(
            ["improve", objects, queries, "--target", "3", "--budget", "nan"]
        )
        assert code == 1
        assert out == ""
        assert "budget must be a number" in capsys.readouterr().err

    def test_bad_column_errors(self, market_files):
        objects, queries = market_files
        code, __ = run(
            ["improve", objects, queries, "--target", "0", "--reach", "3",
             "--adjust", "bogus:-1:1"]
        )
        assert code == 1

    def test_dimension_mismatch_errors(self, market_files, tmp_path):
        objects, __ = market_files
        bad = tmp_path / "bad_queries.csv"
        bad.write_text("w1,k\n0.5,1\n0.4,2\n")
        code, __ = run(["improve", objects, str(bad), "--target", "0", "--reach", "2"])
        assert code == 1


class TestHitsAndDemo:
    def test_hits_report(self, market_files):
        objects, queries = market_files
        code, out = run(["hits", objects, queries, "--top", "5"])
        assert code == 0
        assert "of 15 queries" in out
        assert len([l for l in out.splitlines() if l.strip() and l.split()[0].isdigit()]) == 5

    @pytest.mark.parametrize("k", ["2.5", "inf", "nan"])
    def test_hits_refuses_a_non_whole_k(self, market_files, tmp_path, capsys, k):
        objects, __ = market_files
        bad = tmp_path / "queries.csv"
        bad.write_text(f"w1,w2,w3,k\n0.5,0.2,0.1,{k}\n0.4,0.3,0.2,1\n")
        code, out = run(["hits", objects, str(bad)])
        assert code == 1 and out == ""
        assert f"k must be a finite whole number, got {float(k)}" in capsys.readouterr().err

    def test_oversized_reach_is_an_error_not_a_traceback(self, market_files, capsys):
        objects, queries = market_files
        code, out = run(["improve", objects, queries, "--target", "0",
                         "--reach", "1" + "0" * 400])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: tau is too large")
        assert "Traceback" not in err

    def test_hits_accepts_a_whole_float_k(self, market_files, tmp_path):
        objects, __ = market_files
        good = tmp_path / "queries.csv"
        good.write_text("w1,w2,w3,k\n0.5,0.2,0.1,3.0\n0.4,0.3,0.2,1\n")
        code, out = run(["hits", objects, str(good)])
        assert code == 0 and "of 2 queries" in out

    def test_demo_runs(self):
        code, out = run(["demo", "--seed", "1"])
        assert code == 0
        assert "min-cost" in out and "max-hit" in out

    def test_bench_smoke(self, capsys, tmp_path):
        path = tmp_path / "bench.json"
        code = main(["bench", "--smoke", "--out", str(path)])
        assert code == 0
        assert path.exists()
        printed = capsys.readouterr().out
        assert "fig4" in printed and "speedup" in printed

    def test_tools_listed_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        printed = capsys.readouterr().out
        assert "bench" in printed and "check" in printed and "lint" in printed

    def test_bench_help_is_the_harness_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--help"])
        assert excinfo.value.code == 0
        printed = capsys.readouterr().out
        for flag in ("--scale", "--smoke", "--out", "--check", "--workers"):
            assert flag in printed
        assert "--shards" not in printed

    def test_bench_usage_error_matches_the_harness(self, capsys):
        from repro.bench.regression import main as bench_main

        for runner, argv in ((main, ["bench", "--workers", "1"]), (bench_main, ["--workers", "1"])):
            with pytest.raises(SystemExit) as excinfo:
                runner(argv)
            assert excinfo.value.code == 2
            assert "--workers: must be at least 2" in capsys.readouterr().err


class TestServe:
    def write_requests(self, tmp_path, lines):
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_serve_jsonl_batch(self, market_files, tmp_path, capsys):
        objects, queries = market_files
        lines = [
            json.dumps({"id": i, "kind": "min_cost", "target": i, "goal": 4})
            for i in range(3)
        ]
        lines.append(json.dumps({"op": "shutdown"}))
        code, out = run(
            ["serve", objects, queries, "--input",
             self.write_requests(tmp_path, lines), "--workers", "2"]
        )
        assert code == 0
        answered = [json.loads(line) for line in out.splitlines()]
        ids = sorted(r["id"] for r in answered if "id" in r)
        assert ids == [0, 1, 2]
        assert all(r["ok"] for r in answered)
        assert "serve:" in capsys.readouterr().err  # summary goes to stderr

    def test_serve_reports_errors_inline(self, market_files, tmp_path):
        objects, queries = market_files
        lines = [
            json.dumps({"id": 0, "kind": "bogus", "target": 0, "goal": 1}),
            json.dumps({"id": 1, "kind": "max_hit", "target": 1, "goal": 0.5}),
        ]
        code, out = run(
            ["serve", objects, queries, "--input",
             self.write_requests(tmp_path, lines), "--workers", "2"]
        )
        assert code == 0
        answered = {r["id"]: r for r in [json.loads(line) for line in out.splitlines()]}
        assert answered[0]["ok"] is False
        assert answered[1]["ok"] is True

    def test_serve_rejects_bad_goals_with_typed_errors(self, market_files, tmp_path):
        objects, queries = market_files
        lines = [
            json.dumps({"id": 0, "kind": "max_hit", "target": 0, "goal": float("nan")}),
            json.dumps({"id": 1, "kind": "min_cost", "target": 0, "goal": float("inf")}),
            json.dumps({"id": 2, "kind": "min_cost", "target": 0, "goal": float("nan")}),
            json.dumps({"id": 3, "kind": "min_cost", "target": 0, "goal": 2.7}),
            json.dumps({"id": 4, "kind": "max_hit", "target": 0, "goal": float("inf")}),
        ]
        code, out = run(
            ["serve", objects, queries, "--input", self.write_requests(tmp_path, lines)]
        )
        assert code == 0
        answered = {r["id"]: r for r in [json.loads(line) for line in out.splitlines()]}
        assert answered[0]["error"].startswith("ValidationError: budget must be a number")
        for rid in (1, 2, 3):
            assert answered[rid]["ok"] is False
            assert answered[rid]["error"].startswith(
                "ValidationError: tau must be a whole number"
            )
        assert answered[4]["ok"] is True  # an infinite budget stays legal

    def test_serve_honors_batch_and_queue_flags(self, market_files, tmp_path):
        objects, queries = market_files
        lines = [
            json.dumps({"id": i, "kind": "min_cost", "target": i, "goal": 3})
            for i in range(4)
        ]
        code, out = run(
            ["serve", objects, queries, "--input",
             self.write_requests(tmp_path, lines),
             "--batch-size", "2", "--max-queue", "8"]
        )
        assert code == 0
        assert len(out.splitlines()) == 4


class TestParser:
    def test_requires_goal(self, market_files, capsys):
        objects, queries = market_files
        with pytest.raises(SystemExit):
            main(["improve", objects, queries, "--target", "0"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_kernel_option_is_gone(self, market_files):
        objects, queries = market_files
        with pytest.raises(SystemExit) as exc:
            main(["improve", objects, queries, "--target", "0", "--reach", "3",
                  "--kernel", "python"])
        assert exc.value.code == 2


class TestExplain:
    def test_explain_prints_plan_without_running(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "3", "--reach", "5",
             "--method", "rta"]
        )
        assert code == 0
        assert "kind" in out and "min_cost" in out
        assert "solver" in out and "rta" in out
        assert "epoch" in out
        assert "satisfied" not in out  # nothing executed

    def test_explain_multiple_targets(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "0", "--target", "1",
             "--budget", "0.5"]
        )
        assert code == 0
        kinds = [l for l in out.splitlines() if l.startswith("kind")]
        assert len(kinds) == 2 and all("max_hit" in l for l in kinds)
        # Multi-target EXPLAIN plans the joint combinatorial loop now.
        assert out.count("joint greedy loop") == 2

    def test_explain_shows_internalized_space(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "0", "--reach", "4",
             "--adjust", "price:-1:0"]
        )
        assert code == 0
        assert "box(" in out

    def test_explain_rejects_unknown_method(self, market_files):
        objects, queries = market_files
        with pytest.raises(SystemExit):
            run(["explain", objects, queries, "--target", "0", "--reach", "4",
                 "--method", "quantum"])
        # The solver changes the answer, so it is never picked from stats.
        with pytest.raises(SystemExit):
            run(["explain", objects, queries, "--target", "0", "--reach", "4",
                 "--method", "auto"])


class TestWorkersOption:
    """``--workers`` sizes the serving pool; no other verb takes it."""

    @pytest.mark.parametrize("verb", ["improve", "explain", "hits"])
    def test_index_verbs_reject_workers(self, market_files, capsys, verb):
        objects, queries = market_files
        goal = [] if verb == "hits" else ["--target", "0", "--reach", "4"]
        with pytest.raises(SystemExit) as excinfo:
            run([verb, objects, queries, *goal, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_shards_auto_is_a_usage_error(self, market_files):
        # There is one index layout: no verb takes a shard count or router.
        objects, queries = market_files
        for option in (["--shards", "auto"], ["--shards", "4"], ["--router", "grid"]):
            with pytest.raises(SystemExit) as excinfo:
                run(["improve", objects, queries, "--target", "0", "--reach", "4", *option])
            assert excinfo.value.code == 2


class TestExplainAnalyze:
    def test_analyze_prints_observed_stats(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "3", "--reach", "5",
             "--analyze"]
        )
        assert code == 0
        assert "total_seconds" in out
        assert "candidates_generated" in out
        timing = [l for l in out.splitlines() if l.startswith("total_seconds")]
        assert float(timing[0].split()[-1]) > 0.0

    def test_plain_explain_has_no_observations(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "3", "--reach", "5"]
        )
        assert code == 0
        assert "total_seconds" not in out

    def test_analyze_multi_target_one_plan_per_target(self, market_files):
        objects, queries = market_files
        code, out = run(
            ["explain", objects, queries, "--target", "0", "--target", "1",
             "--reach", "4", "--analyze"]
        )
        assert code == 0
        assert out.count("total_seconds") == 2
        assert out.count("joint greedy loop") == 2

    def test_analyze_keeps_no_history(self, market_files, tmp_path):
        # The run is explained by what it prints and nothing else: the
        # variable that once named a stats file is ignored.  A fresh
        # interpreter, because a variable read at first use would be
        # read once per process.
        objects, queries = market_files
        stats = tmp_path / "stats.json"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_STATS=str(stats))
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "explain", objects, queries,
             "--target", "3", "--reach", "5", "--analyze"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        lines = completed.stdout.splitlines()
        timing = [l for l in lines if l.startswith("total_seconds")]
        assert float(timing[0].split()[-1]) > 0.0
        assert not [l for l in lines if l.startswith("fingerprint")]
        assert not stats.exists()


class TestIndexPersistence:
    def test_saved_index_answers_like_a_fresh_build(self, market_files, tmp_path):
        objects, queries = market_files
        argv = ["improve", objects, queries, "--target", "3", "--reach", "5"]
        index_dir = str(tmp_path / "idx")
        code, built = run(argv + ["--save-index", index_dir])
        assert code == 0
        assert (tmp_path / "idx" / "manifest.json").exists()
        code, loaded = run(argv + ["--load-index", index_dir])
        assert code == 0
        assert loaded == built

    def test_save_index_over_the_loaded_directory(self, market_files, tmp_path):
        objects, queries = market_files
        argv = ["improve", objects, queries, "--target", "3", "--reach", "5"]
        index_dir = str(tmp_path / "idx")
        code, built = run(argv + ["--save-index", index_dir])
        assert code == 0
        code, resaved = run(argv + ["--load-index", index_dir, "--save-index", index_dir])
        assert code == 0
        code, loaded = run(argv + ["--load-index", index_dir])
        assert code == 0
        assert resaved == built
        assert loaded == built

    def test_load_index_on_a_file_exits_1_with_save_again_hint(
        self, market_files, tmp_path, capsys
    ):
        objects, queries = market_files
        stale = tmp_path / "index.npz"
        stale.write_bytes(b"PK\x03\x04")
        code, _ = run(["improve", objects, queries, "--target", "3", "--reach", "5",
                       "--load-index", str(stale)])
        assert code == 1
        err = capsys.readouterr().err
        assert "directory" in err and "save the index again" in err

    def test_load_index_on_a_sharded_directory_exits_1_with_save_again_hint(
        self, market_files, tmp_path, capsys
    ):
        objects, queries = market_files
        sharded = tmp_path / "sharded"
        sharded.mkdir()
        (sharded / "manifest.json").write_text(
            json.dumps({"schema": "repro-sharded-index/1", "shards": 2})
        )
        code, out = run(["improve", objects, queries, "--target", "3", "--reach", "5",
                         "--load-index", str(sharded)])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "sharded layout" in err and "save the index again" in err
