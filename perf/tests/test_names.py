"""The command prints exactly the names ``BENCHMARK.json`` declares."""

import json
import shutil
import subprocess
import sys

import pytest

from iqbench.spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES, benchmark_json

from conftest import ROOT


def _run(tmp_path, *args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--smoke", "--seconds", "1",
         "--out", str(tmp_path), *args],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _printed(lines):
    out = {}
    for line in lines:
        workload, name, value, unit = line.split()[:4]
        float(value)
        out.setdefault(workload, {})[name] = unit
    return out


def test_benchmark_json_matches_the_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == benchmark_json()


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    lines, result = _run(tmp_path)
    expected = {m["name"]: m["unit"] for m in END_TO_END}
    printed = _printed(lines)
    assert list(printed) == list(WORKLOAD_NAMES)
    for workload in WORKLOAD_NAMES:
        assert printed[workload] == expected
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("workload", ["serve"])
def test_traced_run_prints_every_per_layer_metric(tmp_path, workload):
    lines, result = _run(tmp_path, "--workload", workload, "--trace", "1")
    expected = {m["name"]: m["unit"] for m in PER_LAYER}
    assert _printed(lines) == {workload: expected}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    assert trace["spans"] and "unattributed" in trace["summary"]["paths"]["pool.dispatch"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perf", tmp_path / "perf", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perf" / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert done.returncode != 0 and done.stdout == ""
