"""Sharding bench figures and the single-core shard_update/persist floors."""

import pytest

from repro.bench.config import load_config


@pytest.fixture(scope="module")
def config():
    return load_config("tiny")


def figure_records(name, config, shards):
    """Run one row of the bench table."""
    from repro.bench.regression import FIGURES, run_figure

    (figure,) = [row for row in FIGURES if row.name == name]
    return run_figure(figure, config, shards=shards)


class TestShardFigures:
    def test_shard_build_checks_parity_and_records_layout(self, config):
        (record,) = figure_records("shard_build", config, shards=2)
        assert record.figure == "shard_build"
        assert record.literal_seconds > 0 and record.vectorized_seconds > 0
        assert record.config["shards"] == 2
        assert sum(record.config["shard_sizes"]) == config.num_queries

    def test_shard_update_times_inserts_against_a_rebuild(self, config):
        (record,) = figure_records("shard_update", config, shards=2)
        assert record.figure == "shard_update"
        assert record.config["inserts"] == 5
        assert 1 <= record.config["touched_shards"] <= 2


class TestSingleCoreFloor:
    """shard_update's 1x floor gates any host — the win is work avoidance,
    not parallelism — with only the tiny (smoke) scale exempt."""

    def make_payload(self, median, cpus=1, scale="bench", figure="shard_update"):
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
        assert "shard_update" in problems[0] and "work avoidance" in problems[0]

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
        assert "shard_update" in problems[0]
