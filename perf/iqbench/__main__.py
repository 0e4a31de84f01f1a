"""Run one workload in this interpreter; print its record as one JSON line.

``perf/run.py`` starts this in a fresh interpreter per workload with a
clean environment; run it directly only to debug one workload::

    PYTHONPATH=perf:src python -m iqbench query --seed 1 --seconds 5 --out .perf_out
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from iqbench.measure import host, median, tail
from iqbench.spec import END_TO_END, WORKLOAD_NAMES
from iqbench.trace import NullTracer, Tracer, install, layer_metrics
from iqbench.workloads import RUNNERS, Outcome

UNITS = {metric["name"]: metric["unit"] for metric in END_TO_END}


def _tail(samples: "list[float]") -> "tuple[float, float]":
    """:func:`tail`, or the maximum (level 100) of a series too short for
    one: failed operations can leave it so."""
    try:
        return tail(samples)
    except ValueError:
        return 100.0, max(samples, default=0.0)


def end_to_end(outcome: Outcome) -> "dict[str, dict]":
    """Every end-to-end metric of one run, with its unit and sample detail.

    Timings are restated at the host's nominal speed (:mod:`iqbench.speed`):
    each latency is divided by the host's speed factor around it, and
    ``ops_per_s`` counts its phase in nominal seconds.  ``raw`` keeps the
    value as read.
    """
    speed = outcome.speed
    start, end = outcome.window
    raw_rate = outcome.ops / outcome.elapsed

    def restated(series: str) -> "list[float]":
        return list(speed.restate(outcome.starts[series], outcome.series[series]))

    setups = outcome.series["setup"]
    metrics: "dict[str, dict]" = {
        "setup_s": {"value": median(restated("setup")), "raw": median(setups), "samples": len(setups)},
        "ops_per_s": {
            "value": raw_rate * (end - start) / speed.nominal(start, end),
            "raw": raw_rate, "samples": outcome.ops,
        },
    }
    for series, prefix in (("op", "op"), ("min_cost", "mincost"), ("max_hit", "maxhit")):
        raw, nominal = outcome.series[series], restated(series)
        metrics[f"{prefix}_p50_s"] = {
            "value": median(nominal) if raw else 0.0, "raw": median(raw) if raw else 0.0, "samples": len(raw),
        }
        (level, value), (_, raw_value) = _tail(nominal), _tail(raw)
        metrics[f"{prefix}_tail_s"] = {"value": value, "raw": raw_value, "samples": len(raw), "level": level}
    metrics["peak_rss_mb"] = {"value": outcome.peak_rss_mb}
    # Answer quality over every answer of the run: its operations are fixed
    # by the seed and length, so the value repeats unless the answers changed.
    for kind, name in (("min_cost", "mincost_cost_mean"), ("max_hit", "maxhit_hits_mean")):
        answers = outcome.quality[kind]
        metrics[name] = {"value": statistics.fmean(answers) if answers else 0.0, "samples": len(answers)}
    for name, metric in metrics.items():
        metric["unit"] = UNITS[name]
    return {metric["name"]: metrics[metric["name"]] for metric in END_TO_END}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m iqbench", description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        install(tracer)
    scale = "smoke" if args.smoke else "full"
    outcome = RUNNERS[args.workload](args.seed, args.seconds, tracer, scale, args.out)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": scale,
        "host": host(),
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems[:20],
        "metrics": end_to_end(outcome),
        "ranked_share": outcome.extra["ranked_share"],
        "open_loop": outcome.extra.get("open_loop"),
        "host_speed": outcome.speed.summary(),
        "series": outcome.series,
        "elapsed": outcome.elapsed,
    }
    if args.trace:
        tracer.restore()
        layers, summary = layer_metrics(tracer, outcome.extra)
        tracer.dump(args.out / f"trace-{args.workload}.json", summary)
        record["layers"] = layers
        record["paths"] = summary["paths"]
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
