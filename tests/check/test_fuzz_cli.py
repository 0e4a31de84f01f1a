"""Fuzz driver, shrinker, CLI plumbing, and the harness canary."""

import io

import pytest

from repro.check import AddObject, RemoveQuery, Scenario, fuzz, run_case, shrink
from repro.check.cli import build_parser, main as check_main
from repro.check.fuzz import FuzzFailure, random_scenario
from repro.cli import main as repro_main


class TestFuzzDriver:
    def test_deterministic_seed_smoke(self):
        # The CI configuration: 25 cases, seed 0, both modes, no failures.
        assert fuzz(25, seed=0) == []

    def test_scenarios_derive_deterministically(self):
        a = random_scenario(3, 7)
        b = random_scenario(3, 7)
        assert a == b
        assert random_scenario(3, 8) != a

    def test_mode_pin_is_respected(self):
        for case in range(6):
            assert random_scenario(0, case, mode="relevant").mode == "relevant"

    def test_run_case_returns_message_not_raises(self, tie_band_blind):
        failures = [
            error
            for case in range(12)
            if (error := run_case(random_scenario(0, case))) is not None
        ]
        assert failures  # detected, and reported as strings
        assert all(isinstance(e, str) for e in failures)


class TestShrinker:
    def test_shrunk_scenario_still_fails(self, tie_band_blind):
        scenario, error = next(
            (s, e)
            for s in (random_scenario(0, case) for case in range(12))
            if (e := run_case(s)) is not None
        )
        minimal, minimal_error = shrink(scenario, error)
        assert run_case(minimal) == minimal_error
        assert len(minimal.ops) <= len(scenario.ops)
        # Minimality: dropping any single remaining op makes it pass.
        import dataclasses

        for i in range(len(minimal.ops)):
            candidate = dataclasses.replace(
                minimal, ops=minimal.ops[:i] + minimal.ops[i + 1 :]
            )
            assert run_case(candidate) is None

    def test_repr_round_trips(self):
        scenario = Scenario(
            kind="CO",
            mode="relevant",
            ops=(AddObject(attributes=(0.1, 0.9)), RemoveQuery(slot=3)),
        )
        assert eval(repr(scenario)) == scenario  # copy-pasteable counterexamples

    def test_failure_render_mentions_replay(self):
        failure = FuzzFailure(scenario=Scenario(), error="CheckFailure: boom")
        rendered = failure.render()
        assert "run_case(" in rendered and "boom" in rendered


class TestCanary:
    """Reverting the ESE-parity fix must make the harness fail loudly.

    This is the meta-test: it proves the fuzz harness actually has the
    power to find the class of bug this PR fixes, so a future regression
    cannot slip past a green ``repro check`` run.
    """

    def test_fuzz_finds_reverted_tie_band_fix(self, tie_band_blind):
        failures = fuzz(12, seed=0, stop_after=1)
        assert failures
        assert "evaluate_affected" in failures[0].error

    def test_battery_finds_reverted_tie_band_fix(self, tie_band_blind):
        out = io.StringIO()
        code = check_main(["--fuzz", "0"], out=out)
        assert code == 1
        assert "FAIL" in out.getvalue()

    def test_battery_finds_a_knapsack_that_ignores_the_box(self, knapsack_ignores_box):
        out = io.StringIO()
        code = check_main(["--fuzz", "0"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "FAIL" in text
        assert "leaves its box" in text

    def test_fuzz_finds_a_cutoff_one_float_off(self, cutoff_one_ulp_low):
        # hits_mask, evaluate_many and evaluate_affected all read the same
        # cutoffs, so only the reference Eq. 6 test can see this.
        out = io.StringIO()
        code = check_main(["--fuzz", "2", "--seed", "0", "--skip-battery"], out=out)
        assert code == 1
        assert "reference" in out.getvalue()

    def test_fuzz_finds_a_row_kept_though_the_newcomer_enters_it(
        self, newcomer_judged_one_entry_early
    ):
        # The replay ranks the table before each op and checks every
        # ranked row after it, so a row kept wrongly fails at that op.
        out = io.StringIO()
        code = check_main(["--fuzz", "25", "--seed", "0", "--skip-battery"], out=out)
        assert code == 1
        assert "cached prefix disagrees with a brute-force ranking" in out.getvalue()

    def test_fuzz_finds_a_contender_row_kept_though_the_newcomer_enters_it(
        self, contender_newcomer_judged_one_entry_early
    ):
        # The replay checks every kept contender row after each op; the
        # prefix rows are judged correctly, so only that check sees it.
        out = io.StringIO()
        code = check_main(["--fuzz", "25", "--seed", "0", "--skip-battery"], out=out)
        assert code == 1
        assert "kept contender rows" in out.getvalue()

    def test_fuzz_finds_a_bound_that_leaves_out_the_candidates_own_query(
        self, bound_without_own_query
    ):
        # Fuzz batches are far below the whole-scoring line, so only the
        # replay's bounded selection, run at any batch size, reads it.
        out = io.StringIO()
        code = check_main(["--fuzz", "25", "--seed", "0", "--skip-battery"], out=out)
        assert code == 1
        assert "above its bound" in out.getvalue()

    def test_parity_finds_a_change_only_forked_workers_make(self, forked_workers_drift):
        # Every run checks a 2-worker pool; no environment variable
        # decides whether a pool forks.
        out = io.StringIO()
        code = check_main(["--fuzz", "0", "--skip-battery"], out=out)
        text = out.getvalue()
        assert code == 1
        assert "pooled parity (fresh index, workers 2, generation 2): FAIL" in text
        assert "pooled parity (loaded index, workers 2, generation 2): FAIL" in text
        assert "pooled parity (fresh index, workers 0, generation 2): ok" in text
        assert "[fresh index, workers 2] [initial]" in text


class TestCli:
    def test_module_main_passes(self):
        out = io.StringIO()
        code = check_main(["--fuzz", "2", "--seed", "0", "--mode", "exact"], out=out)
        assert code == 0
        text = out.getvalue()
        assert "all correctness oracles passed" in text
        assert "battery IN/exact/d=2: ok" in text
        assert "relevant" not in text  # --mode exact pins the battery too

    def test_skip_battery_only_fuzzes(self):
        out = io.StringIO()
        code = check_main(["--fuzz", "1", "--skip-battery"], out=out)
        assert code == 0
        assert "battery" not in out.getvalue()

    def test_every_run_checks_both_pool_sizes_on_both_indexes(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "5")  # ignored
        out = io.StringIO()
        code = check_main(["--fuzz", "0", "--skip-battery"], out=out)
        assert code == 0
        lines = out.getvalue().splitlines()
        assert "analyze parity (engine, multi-target, SQL, CLI): ok" in lines
        for source in ("fresh", "loaded"):
            for workers in (0, 2):
                assert (
                    f"pooled parity ({source} index, workers {workers}, generation 2): ok"
                    in lines
                )

    def test_no_flag_picks_a_parity_cell(self):
        options = {
            option for action in build_parser()._actions for option in action.option_strings
        }
        assert options == {"-h", "--help", "--fuzz", "--seed", "--mode", "--skip-battery"}

    def test_negative_fuzz_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            check_main(["--fuzz", "-1"])
        assert excinfo.value.code == 2

    def test_repro_check_subcommand_dispatches(self):
        out = io.StringIO()
        code = repro_main(
            ["check", "--fuzz", "1", "--seed", "0", "--mode", "exact"], out=out
        )
        assert code == 0
        assert "all correctness oracles passed" in out.getvalue()

    def test_repro_help_lists_check(self, capsys):
        with pytest.raises(SystemExit):
            repro_main(["--help"])
        assert "check" in capsys.readouterr().out
