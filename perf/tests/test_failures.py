"""A failed operation is counted; the run still prints its record and exits 1."""

import json

from repro.errors import ReproError
from repro.parallel.persistent import PersistentPool

import run
from iqbench import __main__ as workload


def test_failed_served_requests_are_counted_and_the_run_exits_1(tmp_path, monkeypatch, capsys):
    original = PersistentPool.run_outcomes

    def failing_max_hit(self, requests):
        # Every served Max-Hit IQ fails; the set-up's Min-Cost IQ still answers.
        return [
            (False, ReproError("planted failure")) if request.kind == "max_hit" else outcome
            for request, outcome in zip(requests, original(self, requests))
        ]

    monkeypatch.setattr(PersistentPool, "run_outcomes", failing_max_hit)
    assert workload.main(["serve", "--seed", "3", "--seconds", "1", "--out", str(tmp_path), "--smoke"]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    # Requests alternate Min-Cost and Max-Hit, so half of them failed.
    assert record["failed"] == record["attempted"] // 2 > 0
    # A failed request still has a latency, to its error response.
    assert len(record["series"]["max_hit"]) == len(record["series"]["min_cost"]) > 0
    assert record["open_loop"]["requests"] == record["attempted"] - len(record["series"]["op"])

    monkeypatch.setattr(run, "run_child", lambda *args: record)
    assert run.main(["--workload", "serve", "--smoke", "--out", str(tmp_path)]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == record["failed"]
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
