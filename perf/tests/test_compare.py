import pytest

from compare import Refused, compare, verdict
from iqbench.spec import END_TO_END

LATENCY = {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25}
PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.01, 0.99]


def test_worse_by_more_than_the_bound_is_a_regression():
    assert verdict(LATENCY, PARENT, [1.3 * v for v in PARENT])["verdict"] == "regression"


def test_a_win_needs_nine_in_ten_pairs_and_a_gap_beyond_the_spread():
    assert verdict(LATENCY, PARENT, [0.9 * v for v in PARENT])["verdict"] == "better"
    assert verdict(LATENCY, PARENT[:9], [0.9 * v for v in PARENT[:9]])["verdict"] == "same"
    assert verdict(LATENCY, PARENT, [0.995 * v for v in PARENT])["verdict"] == "same"


def test_spread_beyond_the_bound_is_unresolved():
    noisy = [1.0, 1.6, 0.7, 1.5, 0.8, 1.4, 0.9, 1.3, 0.6, 1.2]
    assert verdict(LATENCY, PARENT, noisy)["verdict"] == "unresolved"
    assert verdict(LATENCY, noisy, [0.5 * min(noisy)] * 10)["verdict"] == "better"


def _record(seed, cpus=2, quality=1.0, workload="query", latency=1.0):
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in END_TO_END}
    metrics["mincost_cost_mean"]["value"] = quality
    metrics["mincost_p50_s"]["value"] = latency
    return {
        "workload": workload, "seed": seed, "seconds": 20, "scale": "full", "trace": 0,
        "host": {"cpus": cpus, "numba": False, "threads": {"OMP_NUM_THREADS": "1"}},
        "metrics": metrics,
    }


def test_steady_pairs_are_held_to_the_tight_bound():
    verdicts = {}
    for workload in ("query", "maintain"):
        rows = compare(
            {workload: [_record(s, workload=workload) for s in range(10)]},
            {workload: [_record(s, workload=workload, latency=1.15) for s in range(10)]},
        )
        verdicts[workload] = {r["metric"]: r["verdict"] for r in rows}["mincost_p50_s"]
    assert verdicts == {"query": "same", "maintain": "regression"}


def test_changed_answers_are_reported():
    rows = compare({"query": [_record(1)]}, {"query": [_record(1, quality=1.0 + 1e-6)]})
    assert {r["metric"]: r["verdict"] for r in rows}["mincost_cost_mean"] == "changed"


def test_records_from_another_host_or_seed_are_refused():
    with pytest.raises(Refused, match="hosts"):
        compare({"query": [_record(1)]}, {"query": [_record(1, cpus=4)]})
    with pytest.raises(Refused, match="seed"):
        compare({"query": [_record(1)]}, {"query": [_record(2)]})
