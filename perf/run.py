"""Run the improvement-query benchmark and check every answer.

    python3 perf/run.py [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out DIR]

Each workload runs in its own fresh interpreter with ``REPRO_*``
variables cleared and native thread pools pinned to one thread.  The
untraced run (``--trace 0``, the default) prints every end-to-end metric
as ``workload metric value unit``; ``--trace 1`` runs the workload once
untraced and once traced and prints the per-layer metrics instead, and
writes ``trace-<workload>.json``.  End-to-end timings of work done on
the host's CPUs are stated at its nominal speed (``iqbench.speed``);
each printed line also gives the value as read.  Records and traces go to ``--out``
(default ``.perf_out`` in the checkout).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exit codes: 0 when every answer verified, 1 when an answer was wrong or
an operation failed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
sys.path.insert(0, str(PERF))

from iqbench.measure import THREAD_PINS  # noqa: E402
from iqbench.spec import DEFAULT_SEED, PER_LAYER, RUN_SECONDS, WORKLOAD_NAMES  # noqa: E402

#: Seconds one workload interpreter may take before it is killed.
CHILD_TIMEOUT = 170.0


def child_env(out: Path) -> "dict[str, str]":
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update({name: "1" for name in THREAD_PINS})
    env["PYTHONPATH"] = os.pathsep.join([str(PERF), str(ROOT / "src")])
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(out / "tmp")
    return env


def run_child(workload: str, args: argparse.Namespace, trace: int, deadline: float) -> dict:
    """One workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable, "-m", "iqbench", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(args.out), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload}: still running after its time limit; killed")
    finally:
        if child.poll() is None:  # interrupted: take the pool workers down too
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: workload interpreter exited with {child.returncode}")
    return json.loads(lines[-1])


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"))
    parser.add_argument("--out", type=Path, default=ROOT / ".perf_out")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-tests")
    args = parser.parse_args(argv)
    trace = int(args.trace)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf/run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    args.out = args.out.resolve()
    (args.out / "tmp").mkdir(parents=True, exist_ok=True)

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    records = []
    try:
        for workload in workloads:
            deadline = time.monotonic() + CHILD_TIMEOUT
            record = run_child(workload, args, 0, deadline)
            if trace:
                traced = run_child(workload, args, 1, deadline)
                untraced_rate = record["metrics"]["ops_per_s"]["value"]
                traced_rate = traced["metrics"]["ops_per_s"]["value"]
                traced["layers"]["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
                traced["attempted"] += record["attempted"]
                traced["failed"] += record["failed"]
                traced["correct"] = traced["correct"] and record["correct"]
                record = traced
            records.append(record)
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"perf/run.py: {exc}", file=sys.stderr)
        return 2

    units = {metric["name"]: metric["unit"] for metric in PER_LAYER}
    result_metrics: "dict[str, dict]" = {}
    for record in records:
        workload = record["workload"]
        if trace:
            chosen = {name: {"value": value, "unit": units[name]} for name, value in record["layers"].items()}
        else:
            chosen = {name: {"value": m["value"], "unit": m["unit"]} for name, m in record["metrics"].items()}
        for name, metric in chosen.items():
            detail = record["metrics"].get(name, {})
            notes = [f"p{detail['level']:g} of {detail['samples']}"] if "level" in detail else []
            if "raw" in detail:
                notes.append(f"as read {detail['raw']:.6g}")
            note = f"  ({', '.join(notes)})" if notes else ""
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}{note}")
            key = name if len(records) == 1 else f"{workload}/{name}"
            result_metrics[key] = metric
        if record["open_loop"] and not trace:
            loop = record["open_loop"]
            print(
                f"{workload} open loop at {loop['rate']:g} req/s, {loop['requests']} requests, not gated: "
                f"p50 {loop['p50_s']:.6g} s, p{loop['level']:g} {loop['tail_s']:.6g} s, "
                f"generator late p50 {loop['late_p50_s']:.6g} s", file=sys.stderr,
            )
        for problem in record["problems"]:
            print(f"{workload} WRONG {problem}", file=sys.stderr)

    stamp = time.strftime("%Y%m%dT%H%M%S")
    label = args.workload or "all"
    (args.out / f"run-{label}-{args.seed}-t{trace}-{stamp}-{os.getpid()}.json").write_text(
        json.dumps(records, indent=1)
    )
    correct = all(record["correct"] for record in records)
    failed = sum(record["failed"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
