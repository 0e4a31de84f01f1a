"""``repro check`` — run the differential correctness harness.

Two phases, both deterministic:

1. **Battery** — a fixed scenario per (IN/CO/AC) × (exact/relevant)
   combination: a canonical op sequence replayed through every oracle
   (invariants, update-vs-rebuild, ESE parity with tie-band probes, IQ
   contracts).
2. **Fuzz** — ``--fuzz N`` random scenarios derived from ``--seed``;
   failures are shrunk to minimal op sequences and printed as
   copy-pasteable :class:`~repro.check.differential.Scenario` reprs.

Exit codes: 0 all oracles pass, 1 at least one divergence, 2 bad
invocation.  Also runnable as ``python -m repro.check``.
"""

from __future__ import annotations

import argparse
import sys
from typing import IO

from repro.check.differential import (
    AddObject,
    AddQuery,
    Op,
    RemoveObject,
    RemoveQuery,
    Scenario,
)
from repro.check.fuzz import FuzzFailure, fuzz, run_case
from repro.data.synthetic import DATASET_KINDS

__all__ = ["main", "build_parser", "battery_scenarios"]

_MODES = ("exact", "relevant")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro check`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro check",
        description=(
            "Differential correctness harness: invariant oracles, "
            "update-vs-rebuild and ESE-parity differentials, and a seeded "
            "fuzz driver with counterexample shrinking."
        ),
    )
    parser.add_argument(
        "--fuzz",
        type=int,
        default=25,
        metavar="N",
        help="number of random fuzz scenarios to run (default: 25; 0 disables)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="base seed; every case derives deterministically from it (default: 0)",
    )
    parser.add_argument(
        "--mode",
        choices=["exact", "relevant", "both"],
        default="both",
        help="index mode(s) to exercise (default: both)",
    )
    parser.add_argument(
        "--skip-battery",
        action="store_true",
        help="skip the deterministic IN/CO/AC battery and only fuzz",
    )
    parser.add_argument(
        "--skip-pooled",
        action="store_true",
        help="skip the pooled-vs-serial batch parity check",
    )
    parser.add_argument(
        "--analyze",
        action="store_true",
        help=(
            "add the EXPLAIN ANALYZE differential: analyzed runs must be "
            "byte-identical to their plain counterparts across the engine "
            "API (every query kind and multi-target), the pooled batch "
            "front end, the SQL shell, and the CLI (default: off)"
        ),
    )
    return parser


def _battery_ops(d: int) -> tuple[Op, ...]:
    """A canonical op sequence touching all four maintenance paths."""
    low = tuple(0.15 + 0.1 * j for j in range(d))
    high = tuple(0.85 - 0.1 * j for j in range(d))
    mid = tuple(0.5 for _ in range(d))
    return (
        AddObject(attributes=low),
        AddQuery(weights=high, k=1),
        AddObject(attributes=mid),
        RemoveObject(slot=3),
        AddQuery(weights=low, k=2),
        RemoveQuery(slot=1),
        AddObject(attributes=high),
        RemoveObject(slot=5),
    )


def battery_scenarios(modes: tuple[str, ...]) -> list[Scenario]:
    """The fixed battery: one scenario per dataset kind and index mode."""
    out: list[Scenario] = []
    for kind in DATASET_KINDS:
        for mode in modes:
            for d in (2, 3):
                out.append(
                    Scenario(
                        kind=kind,
                        mode=mode,
                        n=9,
                        m=11,
                        d=d,
                        seed=7,
                        k_max=3,
                        ops=_battery_ops(d),
                    )
                )
    return out


def _run_battery(modes: tuple[str, ...], out: IO[str]) -> list[FuzzFailure]:
    failures: list[FuzzFailure] = []
    for scenario in battery_scenarios(modes):
        error = run_case(scenario)
        status = "ok" if error is None else "FAIL"
        print(
            f"battery {scenario.kind}/{scenario.mode}/d={scenario.d}: {status}",
            file=out,
        )
        if error is not None:
            failures.append(FuzzFailure(scenario=scenario, error=error))
    return failures


def _result_mismatch(label: str, serial: object, pooled: object) -> "str | None":
    """Field-exact comparison of two IQResults; None when identical."""
    import numpy as np

    for attr in ("target", "hits_before", "hits_after", "total_cost", "satisfied"):
        a, b = getattr(serial, attr), getattr(pooled, attr)
        if a != b:
            return f"{label}: {attr} diverged (serial {a!r} vs pooled {b!r})"
    sa = np.asarray(getattr(serial, "strategy").vector)
    sb = np.asarray(getattr(pooled, "strategy").vector)
    if not np.array_equal(sa, sb):
        return f"{label}: strategy vector diverged (serial {sa} vs pooled {sb})"
    return None


def _run_pooled_parity(out: IO[str]) -> list[str]:
    """Persistent-pool vs serial-reference differential (PC oracle).

    The pool resolves its worker count from the ambient ``REPRO_WORKERS``
    environment, so the same harness exercises the in-process serial
    pool mode (workers < 2) and the forked pool (workers >= 2) — CI runs
    both legs.  The sequence also mutates the index mid-stream so the
    epoch-refresh path is under the differential too.
    """
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.objects import Dataset
    from repro.data.synthetic import independent
    from repro.data.workloads import uniform_queries
    from repro.parallel import IQRequest, PersistentPool, run_batch

    dataset = Dataset(independent(24, 3, seed=11))
    queries = uniform_queries(18, 3, seed=12, k_range=(1, 4))
    engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
    requests = tuple(
        IQRequest("min_cost", target, 8) for target in range(0, 8, 2)
    ) + tuple(IQRequest("max_hit", target, 0.4) for target in range(1, 8, 2))

    failures: list[str] = []
    with PersistentPool(engine) as pool:
        for round_label in ("initial", "post-mutation"):
            serial = run_batch(engine, requests)
            pooled = pool.run(requests)
            for request, expect, got in zip(requests, serial, pooled):
                label = f"pooled parity [{round_label}] {request.kind}@{request.target}"
                mismatch = _result_mismatch(label, expect, got)
                if mismatch is not None:
                    failures.append(mismatch)
            if round_label == "initial":
                # Mutate through the engine: the pool must observe the
                # epoch bump and re-fork instead of serving stale hits.
                engine.add_query([0.2 + 0.1 * j for j in range(3)], 2)
        status = "ok" if not failures else "FAIL"
        print(
            f"pooled parity (workers {pool.workers}, generation {pool.generation}): "
            f"{status}",
            file=out,
        )
    return failures


def _run_analyze_parity(out: IO[str]) -> list[str]:
    """EXPLAIN ANALYZE differential (AN oracle): analysis never perturbs.

    The observe layer only reads clocks and counts, so an analyzed run
    must return results byte-identical to its plain counterpart on every
    surface:

    - **engine** — ``analyze``/``analyze_multi`` vs ``min_cost`` /
      ``max_hit`` / the combinatorial calls, field-exact per target;
    - **pooled** — a plain :class:`PersistentPool` batch vs per-request
      serial ``analyze`` runs (the pool resolves ``REPRO_WORKERS``, so
      CI's serial and forked legs both pass through here);
    - **SQL** — an ``IMPROVE`` statement re-run after an interleaved
      ``EXPLAIN ANALYZE IMPROVE`` must yield the same rows;
    - **CLI** — ``repro improve`` output re-captured after
      ``repro explain --analyze`` must be byte-identical.

    Every executed plan must also carry a positive ``total_seconds`` —
    an analyzed run that observed nothing is its own failure.
    """
    import io
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.cli import main as cli_main
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.objects import Dataset
    from repro.data.synthetic import independent
    from repro.data.workloads import uniform_queries
    from repro.dbms import Database
    from repro.parallel import IQRequest, PersistentPool

    failures: list[str] = []
    dataset = Dataset(independent(24, 3, seed=11))
    queries = uniform_queries(18, 3, seed=12, k_range=(1, 4))
    engine = ImprovementQueryEngine(dataset, queries, mode="relevant")

    def check_executed(label: str, executed) -> None:
        if executed.total_seconds <= 0.0:
            failures.append(f"{label}: executed plan observed no wall-clock")

    # Engine leg: every query kind, plain vs analyzed, field-exact.
    requests = tuple(
        IQRequest("min_cost", target, 8) for target in range(0, 8, 2)
    ) + tuple(IQRequest("max_hit", target, 0.4) for target in range(1, 8, 2))
    analyzed_results = []
    for request in requests:
        label = f"analyze parity [engine] {request.kind}@{request.target}"
        if request.kind == "min_cost":
            plain = engine.min_cost(request.target, request.goal)
            analyzed, executed = engine.analyze(request.target, tau=request.goal)
        else:
            plain = engine.max_hit(request.target, request.goal)
            analyzed, executed = engine.analyze(request.target, budget=request.goal)
        mismatch = _result_mismatch(label, plain, analyzed)
        if mismatch is not None:
            failures.append(mismatch)
        check_executed(label, executed)
        analyzed_results.append(analyzed)

    # Multi-target leg: the joint combinatorial loop under analysis.
    targets = [1, 4, 6]
    plain_multi = engine.min_cost_multi(targets, 6)
    analyzed_multi, plans = engine.analyze_multi(targets, tau=6)
    for attr in ("hits_before", "hits_after", "total_cost", "satisfied"):
        a, b = getattr(plain_multi, attr), getattr(analyzed_multi, attr)
        if a != b:
            failures.append(
                f"analyze parity [multi] {attr} diverged (plain {a!r} vs analyzed {b!r})"
            )
    for target in targets:
        sa = np.asarray(plain_multi.strategies[target].vector)
        sb = np.asarray(analyzed_multi.strategies[target].vector)
        if not np.array_equal(sa, sb):
            failures.append(
                f"analyze parity [multi] strategy@{target} diverged ({sa} vs {sb})"
            )
    for plan in plans:
        check_executed(f"analyze parity [multi] plan@{plan.target}", plan)

    # Pooled leg: plain pooled batch vs the serial analyzed results.
    with PersistentPool(engine) as pool:
        pooled = pool.run(requests)
        for request, expect, got in zip(requests, analyzed_results, pooled):
            label = f"analyze parity [pooled] {request.kind}@{request.target}"
            mismatch = _result_mismatch(label, got, expect)
            if mismatch is not None:
                failures.append(mismatch)
        workers = pool.workers

    # SQL leg: IMPROVE rows unchanged across an EXPLAIN ANALYZE run.
    sql_objects = independent(12, 3, seed=21)
    workload = uniform_queries(9, 3, seed=22, k_range=(1, 3))
    db = Database()
    db.run_script(
        "CREATE TABLE objs (a FLOAT, b FLOAT, c FLOAT);"
        + "INSERT INTO objs VALUES "
        + ", ".join(
            f"({row[0]:.6f}, {row[1]:.6f}, {row[2]:.6f})" for row in sql_objects
        )
        + "; CREATE TABLE prefs (wa FLOAT, wb FLOAT, wc FLOAT, k INT);"
        + "INSERT INTO prefs VALUES "
        + ", ".join(
            f"({w[0]:.6f}, {w[1]:.6f}, {w[2]:.6f}, {int(k)})"
            for w, k in zip(workload.weights, workload.ks)
        )
        + "; CREATE IMPROVEMENT INDEX idx ON objs (a, b, c)"
        "  USING QUERIES prefs (wa, wb, wc, k);"
    )
    improve_sql = "IMPROVE objs TARGET WHERE rowid = 0 USING idx REACH 3"
    before = db.execute(improve_sql).rows
    analyzed_rs = db.execute("EXPLAIN ANALYZE " + improve_sql)
    after = db.execute(improve_sql).rows
    if before != after:
        failures.append("analyze parity [sql]: IMPROVE rows changed across EXPLAIN ANALYZE")
    # Plan rows arrive pre-rendered as strings (plan.rows() formatting).
    total_column = [float(v) for v in analyzed_rs.column("total_seconds")]
    if not total_column or any(v <= 0.0 for v in total_column):
        failures.append("analyze parity [sql]: EXPLAIN ANALYZE observed no wall-clock")

    # CLI leg: improve output byte-identical across an --analyze run.
    with tempfile.TemporaryDirectory(prefix="repro-check-") as tmp:
        objects_csv = Path(tmp) / "objects.csv"
        queries_csv = Path(tmp) / "queries.csv"
        objects_csv.write_text(
            "a,b,c\n"
            + "".join(
                f"{row[0]:.6f},{row[1]:.6f},{row[2]:.6f}\n" for row in sql_objects
            ),
            encoding="utf-8",
        )
        queries_csv.write_text(
            "wa,wb,wc,k\n"
            + "".join(
                f"{w[0]:.6f},{w[1]:.6f},{w[2]:.6f},{int(k)}\n"
                for w, k in zip(workload.weights, workload.ks)
            ),
            encoding="utf-8",
        )
        improve_argv = [
            "improve", str(objects_csv), str(queries_csv), "--target", "0",
            "--reach", "3",
        ]
        first = io.StringIO()
        cli_main(improve_argv, out=first)
        cli_main(
            ["explain", str(objects_csv), str(queries_csv), "--target", "0",
             "--reach", "3", "--analyze"],
            out=io.StringIO(),
        )
        second = io.StringIO()
        cli_main(improve_argv, out=second)
        if first.getvalue() != second.getvalue():
            failures.append(
                "analyze parity [cli]: improve output changed across explain --analyze"
            )

    status = "ok" if not failures else "FAIL"
    print(f"analyze parity (workers {workers}): {status}", file=out)
    return failures


def main(argv: "list[str] | None" = None, out: "IO[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.fuzz < 0:
        parser.error(f"--fuzz must be non-negative, got {args.fuzz}")

    modes: tuple[str, ...] = _MODES if args.mode == "both" else (args.mode,)
    failures: list[FuzzFailure] = []
    parity_failures: list[str] = []

    if not args.skip_battery:
        failures.extend(_run_battery(modes, out))

    if not args.skip_pooled:
        parity_failures = _run_pooled_parity(out)

    if args.analyze:
        parity_failures = parity_failures + _run_analyze_parity(out)

    if args.fuzz > 0:
        fuzz_mode = None if args.mode == "both" else args.mode
        fuzz_failures = fuzz(args.fuzz, seed=args.seed, mode=fuzz_mode)
        print(
            f"fuzz: {args.fuzz} cases, seed {args.seed}, mode {args.mode}: "
            f"{len(fuzz_failures)} failure(s)",
            file=out,
        )
        failures.extend(fuzz_failures)

    if failures or parity_failures:
        print(file=out)
        for parity_failure in parity_failures:
            print(parity_failure, file=out)
        for failure in failures:
            print(failure.render(), file=out)
        total = len(failures) + len(parity_failures)
        print(
            f"\n{total} oracle failure(s); replay any scenario with\n"
            "  PYTHONPATH=src python -c \"from repro.check import run_case; "
            "from repro.check.differential import *; print(run_case(<repr>))\"",
            file=out,
        )
        return 1
    print("all correctness oracles passed", file=out)
    return 0
