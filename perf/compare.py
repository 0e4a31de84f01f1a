"""Compare benchmark records of a parent commit and a change.

    python3 perf/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a record list written by ``perf/run.py`` to its ``--out``
directory.  Records pair up per workload in the order given: the i-th
parent run with the i-th change run, which the caller should have run
alternately, on the same seed.  Per end-to-end metric and workload, with
the bound :func:`iqbench.spec.bound` gives the pair:

* ``unresolved`` -- either side's inter-quartile spread exceeds the
  metric's bound, unless every change run is better than every parent
  run (``better``);
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``better`` -- with at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither side) and the medians differ by more
  than the parent's inter-quartile spread;
* ``same`` -- otherwise.

The answer-quality means (``mincost_cost_mean``, ``maxhit_hits_mean``)
cover every answer of a run, whose operations are fixed by its seed and
seconds, so a pair's values agree to 1e-9 unless the answers changed;
any difference is reported ``changed``, ahead of the verdicts above.

Records from hosts with a different key (cpus, numba, thread pins) are
refused.  Exit codes: 0 no regression and no changed answers, 1
otherwise, 2 refused input.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from iqbench.measure import host_key  # noqa: E402
from iqbench.spec import END_TO_END, QUALITY, bound  # noqa: E402

#: Pairs a ``better`` claim needs.
MIN_PAIRS = 10
#: Share of pairs the change must win for a ``better`` claim.
WIN_SHARE = 0.9
#: Relative difference at which a same-seed answer-quality mean has changed.
QUALITY_TOLERANCE = 1e-9


class Refused(Exception):
    pass


def load(paths: "list[Path]") -> "dict[str, list[dict]]":
    """Untraced records per workload, in file order."""
    runs: "dict[str, list[dict]]" = {}
    for path in paths:
        payload = json.loads(path.read_text())
        for record in payload if isinstance(payload, list) else [payload]:
            if record["trace"]:
                raise Refused(f"{path}: traced records carry per-layer numbers only")
            runs.setdefault(record["workload"], []).append(record)
    return runs


def verdict(metric: dict, parent: "list[float]", change: "list[float]") -> dict:
    """Judge one metric on one workload (see the module docstring)."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    bound = metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)

    def spread(values: "list[float]", med: float) -> float:
        if len(values) < 2 or med == 0:
            return 0.0
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / abs(med)

    p_iqr = spread(parent, p_med) * abs(p_med)
    worst_spread = max(spread(parent, p_med), spread(change, c_med))
    worse_by = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    dominates = max(sign * c for c in change) < min(sign * p for p in parent)
    if worst_spread > bound:
        label = "better" if dominates else "unresolved"
    elif worse_by > bound:
        label = "regression"
    elif pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and abs(c_med - p_med) > p_iqr and worse_by < 0:
        label = "better"
    else:
        label = "same"
    return {
        "verdict": label, "parent_median": p_med, "change_median": c_med,
        "worse_by": worse_by, "spread": worst_spread, "wins": wins, "pairs": pairs,
    }


def compare(parent: "dict[str, list[dict]]", change: "dict[str, list[dict]]") -> "list[dict]":
    keys = {host_key(r["host"]) for runs in (parent, change) for rs in runs.values() for r in rs}
    if len(keys) > 1:
        raise Refused(f"records come from different hosts: {sorted(map(str, keys))}")
    if set(parent) != set(change):
        raise Refused(f"workloads differ: parent {sorted(parent)}, change {sorted(change)}")
    rows = []
    for workload in sorted(parent):
        p_runs, c_runs = parent[workload], change[workload]
        for i, (p, c) in enumerate(zip(p_runs, c_runs)):
            if p["seed"] != c["seed"] or p["seconds"] != c["seconds"] or p["scale"] != c["scale"]:
                raise Refused(f"{workload} pair {i}: runs differ in seed, seconds or scale")
        pairs = min(len(p_runs), len(c_runs))
        for metric in END_TO_END:
            name = metric["name"]
            parent_v, change_v = [[r["metrics"][name]["value"] for r in runs[:pairs]] for runs in (p_runs, c_runs)]
            judged = {**metric, "bound": bound(workload, metric)}
            row = {"workload": workload, "metric": name, **verdict(judged, parent_v, change_v)}
            if name in QUALITY and not all(
                math.isclose(p, c, rel_tol=QUALITY_TOLERANCE) for p, c in zip(parent_v, change_v)
            ):
                row["verdict"] = "changed"
            rows.append(row)
    return rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(load(args.parent), load(args.change))
    except (Refused, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"perf/compare.py: refused: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(
            f"{row['workload']:9s} {row['metric']:18s} {row['verdict']:10s} "
            f"parent {row['parent_median']:.6g} change {row['change_median']:.6g} "
            f"worse_by {row['worse_by']:+.3f} spread {row['spread']:.3f} "
            f"wins {row['wins']}/{row['pairs']}"
        )
    if any(row["pairs"] < MIN_PAIRS for row in rows):
        print(f"fewer than {MIN_PAIRS} pairs: no metric can be claimed better by the win rule")
    return 1 if any(row["verdict"] in ("regression", "changed") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
