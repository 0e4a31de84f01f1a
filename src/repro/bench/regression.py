"""Benchmark-regression harness: one table of figures, one timing loop.

Each row of :data:`FIGURES` names a figure, a generator of its points,
and the figure's absolute floor.  A :class:`Point` pairs a *baseline*
callable (the reference path) with a *candidate* (the path the figure
defends) on the same inputs, plus the check that their results agree.
:func:`measure` times every point through the one loop
(:func:`~repro.bench.harness.alternating_medians`), and records keep the
schema's ``literal_seconds`` / ``vectorized_seconds`` names for the
baseline and candidate sides.  The rows, in table order:

* **fig4 / fig5** — the Figure 4 and 5 configurations (§6.3):
  Algorithm 1's BSP loop (:func:`~repro.core.subdomain.find_subdomains`)
  over a built index's hyperplanes vs the index build, sweeping |D|
  and |Q|.
* **fig7** — the Figure 7 configuration: candidate generation,
  ``method="loop"`` vs the batched closed form, per sampled target.
* **evaluate** — ESE's inner loop on fig7's first-iteration candidate
  blocks: the reference Eq. 6 test (``_beats_batch``) vs a warm
  ``evaluate_many``, which compares each score with a cached cutoff.
* **par_batch** — the fig7-shaped IQ batch, serial loop vs a
  :class:`~repro.parallel.persistent.PersistentPool`.
* **serve** — the same batch as a JSONL stream through
  :func:`~repro.parallel.server.serve_stream`, serial vs pooled.
* **persist** — a fresh ``mode="exact"`` build vs loading it from disk.
* **update** — a full rebuild vs one incremental ``add_query`` (§4.3).
* **analyze_overhead** — plain engine calls vs ``engine.analyze``.

``run_regression`` runs the table and optionally writes a
``BENCH_*.json`` file (schema documented in EXPERIMENTS.md), and
``check_regression`` gates a run against a baseline with the floors
the table declares.  ``--smoke`` truncates every sweep and forces the
tiny scale so CI can execute the whole harness in seconds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.constants import ATOL_PARITY
from repro.bench.config import BenchConfig, load_config
from repro.bench.harness import (
    BENCH_SCHEMA,
    ROUNDS,
    BenchRecord,
    alternating_medians,
    summarize_records,
    write_bench_json,
)
from repro.core._search import SearchState, generate_candidates
from repro.core.cost import euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.plan import build_plan
from repro.core.queries import QuerySet
from repro.core.solvers import get_solver
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex, _beats_batch, find_subdomains
from repro.core.updates import add_query
from repro.data.synthetic import generate
from repro.data.workloads import generate_queries
from repro.errors import ReproError
from repro.parallel import IQRequest, PersistentPool, resolve_workers, run_batch, serve_stream

__all__ = [
    "FIGURES",
    "Figure",
    "Point",
    "ROUNDS",
    "RegressionMismatch",
    "check_regression",
    "measure",
    "run_figure",
    "run_regression",
    "main",
]

#: Default pool size for the parallel bench figures.
DEFAULT_BENCH_WORKERS = 4

#: A figure "regresses" when its median speedup falls below this
#: fraction of the baseline's — generous, because the harness times
#: sub-second stages on shared CI machines.
CHECK_MIN_RATIO = 0.5

#: Scales too small for the absolute floors to be meaningful: at tiny
#: scale both sides are sub-millisecond and fork/IPC overhead dominates
#: the pooled micro-batches, whatever the code does.
CHECK_FLOOR_EXEMPT_SCALES = frozenset({"tiny"})


class RegressionMismatch(AssertionError):
    """Baseline and candidate paths disagreed — the harness is void."""


@dataclass(frozen=True)
class Point:
    """One measured point of a figure: two sides and their agreement check.

    ``agree(baseline_result, candidate_result)`` sees each side's last
    result.  A ``config`` value may be a function of those two results;
    it is read after the timing (the pooled server's throughput, the
    number of candidates generated).
    """

    case: str
    config: dict
    baseline: Callable[[], Any]
    candidate: Callable[[], Any]
    agree: Callable[[Any, Any], bool]
    plan: dict | None = None


#: ``points(config, limit, workers)``: ``limit`` truncates each sweep
#: (smoke runs), ``workers`` sizes the parallel figures.  A generator
#: resumes only after its point is measured, so setup held around a
#: ``yield`` outlives the timing.
PointSource = Callable[[BenchConfig, "int | None", int], Iterator[Point]]


@dataclass(frozen=True)
class Figure:
    """One row of the bench table.

    ``floor`` is the absolute median speedup ``--check`` requires at
    non-tiny scales, on hosts with at least ``cores`` CPUs; ``reason``
    says why, in the failure message.
    """

    name: str
    points: PointSource
    floor: float | None = None
    cores: int = 1
    reason: str = ""


def measure(figure: str, point: Point) -> BenchRecord:
    """Time one point through :func:`~repro.bench.harness.alternating_medians`.

    ``ROUNDS`` rounds with GC off: the baseline runs first on even
    rounds and the candidate first on odd ones, and each side keeps its
    median.  The agreement check runs once, after the loop.
    """
    results, (baseline_seconds, candidate_seconds) = alternating_medians(
        (point.baseline, point.candidate)
    )
    if not point.agree(*results):
        raise RegressionMismatch(
            f"{figure} {point.case}: baseline and candidate results differ"
        )
    config = {
        key: value(*results) if callable(value) else value
        for key, value in point.config.items()
    }
    return BenchRecord(
        figure=figure,
        case=point.case,
        config=config,
        literal_seconds=baseline_seconds,
        vectorized_seconds=candidate_seconds,
        plan=point.plan,
    )


def _make_inputs(n: int, m: int, config: BenchConfig) -> tuple[Dataset, QuerySet]:
    dataset = Dataset(generate("IN", n, config.dimensions, seed=config.seed))
    queries = generate_queries(
        "UN", m, config.dimensions, seed=config.seed + 1, k_range=config.k_range
    )
    return dataset, queries


def _record_config(
    config: BenchConfig,
    n: int | None = None,
    m: int | None = None,
    mode: str | None = None,
    **extra: Any,
) -> dict:
    """A record's config: sizes and index mode, then ``extra``, then the seed."""
    return {
        "num_objects": config.num_objects if n is None else n,
        "num_queries": config.num_queries if m is None else m,
        "dimensions": config.dimensions,
        "index_mode": mode or config.index_mode,
        **extra,
        "seed": config.seed,
    }


def _cells(index: SubdomainIndex) -> dict[bytes, list[int]]:
    """The index's cells as :func:`find_subdomains` maps them: signature bytes to members."""
    return {
        signature.tobytes(): members.tolist()
        for signature, members in zip(index.signatures, index.cell_members())
    }


def _same_thresholds(left: Any, right: Any) -> bool:
    """Every probe target's Eq. 6 thresholds and hit mask agree float-exactly.

    Per-query quantities depend only on that query's weights and the
    full object set, so maintenance may not move them.
    """
    return all(
        np.array_equal(left.kth_other(target)[1], right.kth_other(target)[1])
        and np.array_equal(left.hits_mask(target), right.hits_mask(target))
        for target in range(min(left.dataset.n, 16))
    )


def _build_point(config: BenchConfig, case: str, n: int, m: int) -> Point:
    """Algorithm 1's BSP loop vs an index build, on the same hyperplanes.

    The baseline runs :func:`find_subdomains` over the normals of an
    index built before the timing; the candidate builds the index,
    normals included.  Both must make the same cells.
    """
    dataset, queries = _make_inputs(n, m, config)
    normals = SubdomainIndex(dataset, queries, mode=config.index_mode).normals
    return Point(
        case,
        _record_config(config, n, m),
        lambda: find_subdomains(normals, queries.weights),
        lambda: SubdomainIndex(dataset, queries, mode=config.index_mode),
        lambda cells, index: cells == _cells(index),
    )


def _fig4_points(config: BenchConfig, limit: int | None, workers: int):
    """Figure 4: index build sweeping |D|; the partitions must be identical."""
    for n in config.object_sweep[:limit]:
        yield _build_point(config, f"|D|={n}", n, config.num_queries)


def _fig5_points(config: BenchConfig, limit: int | None, workers: int):
    """Figure 5: index build sweeping |Q|; the partitions must be identical."""
    for m in config.query_sweep[:limit]:
        yield _build_point(config, f"|Q|={m}", config.num_objects, m)


def _same_candidates(loop: Any, batch: Any) -> bool:
    return (
        np.array_equal(loop.query_ids, batch.query_ids)
        and np.allclose(loop.vectors, batch.vectors, atol=ATOL_PARITY)
        and np.allclose(loop.costs, batch.costs, atol=ATOL_PARITY)
    )


def _fig7_states(
    config: BenchConfig, limit: int | None
) -> "tuple[StrategyEvaluator, list[SearchState]]":
    """Figure 7's evaluator and the first-iteration search state of each target."""
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries, mode=config.index_mode))
    rng = np.random.default_rng(config.seed + 7)
    count = limit if limit else config.iq_repeats
    picks = rng.choice(dataset.n, size=min(dataset.n, count), replace=False)
    states = [
        SearchState(
            target=target,
            base=dataset.matrix[target].copy(),
            applied=np.zeros(config.dimensions),
            spent=0.0,
            mask=evaluator.hits_mask(target),
        )
        for target in sorted(int(t) for t in picks)
    ]
    return evaluator, states


def _fig7_points(config: BenchConfig, limit: int | None, workers: int):
    """Figure 7: candidate generation for a planned Min-Cost IQ, loop vs batch.

    Candidate ids, vectors and costs must agree; the plan of the IQ the
    stage belongs to is recorded with the timing.
    """
    evaluator, states = _fig7_states(config, limit)
    index = evaluator.index
    cost = euclidean_cost(config.dimensions)
    space = StrategySpace.unconstrained(config.dimensions)
    tau = min(config.tau, index.queries.m)
    solver = get_solver("efficient")

    def generate(state: SearchState, method: str) -> Callable[[], Any]:
        return lambda: generate_candidates(evaluator, state, cost, space, method=method)

    for state in states:
        yield Point(
            f"target={state.target}",
            _record_config(config, candidates=lambda loop, _: loop.size),
            generate(state, "loop"),
            generate(state, "auto"),
            _same_candidates,
            plan=build_plan(
                index, solver, "min_cost", state.target, tau, cost, space
            ).to_dict(),
        )


#: Scores each side of an ``evaluate`` point covers, repeating its block:
#: a tiny-scale block is 60 x 60 or smaller, some 20-40 us a pass.
_EVALUATE_SCORES = 400_000


def _evaluate_points(config: BenchConfig, limit: int | None, workers: int):
    """ESE's inner loop: the reference Eq. 6 test vs the evaluator's cutoffs.

    Each fig7 target's first-iteration candidate block is scored and
    counted, the baseline by the product and ``_beats_batch``, the
    candidate by a warm ``evaluate_many`` (cutoffs already built).
    Both repeat the block until they cover ``_EVALUATE_SCORES`` scores,
    and their counts must be equal.
    """
    evaluator, states = _fig7_states(config, limit)
    weights = evaluator.index.queries.weights
    cost = euclidean_cost(config.dimensions)
    space = StrategySpace.unconstrained(config.dimensions)

    def sides(target: int, positions: np.ndarray, repeats: int):
        kth_ids, theta = evaluator.thresholds(target)

        def reference() -> np.ndarray:
            for __ in range(repeats):
                counts = _beats_batch(weights @ positions.T, theta, target, kth_ids).sum(axis=0)
            return counts

        def cutoffs() -> np.ndarray:
            for __ in range(repeats):
                counts = evaluator.evaluate_many(target, positions)
            return counts

        return reference, cutoffs

    for state in states:
        block = generate_candidates(evaluator, state, cost, space)
        positions = state.position + block.vectors
        repeats = max(1, -(-_EVALUATE_SCORES // max(1, weights.shape[0] * positions.shape[0])))
        yield Point(
            f"target={state.target}",
            _record_config(config, candidates=positions.shape[0], repeats=repeats),
            *sides(state.target, positions, repeats),
            np.array_equal,
        )


def _bench_workload(
    config: BenchConfig, requests: int | None
) -> "tuple[object, list[IQRequest], int]":
    """The shared serving workload: engine + fig7-shaped IQ batch."""
    from repro.core.engine import ImprovementQueryEngine

    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    engine = ImprovementQueryEngine(dataset, queries, mode=config.index_mode)
    rng = np.random.default_rng(config.seed + 7)
    count = requests if requests else 4 * config.iq_repeats
    pool = rng.choice(dataset.n, size=min(dataset.n, 8 * count), replace=False)
    pool = sorted(pool, key=lambda t: engine.hits(int(t)))
    targets = [int(t) for t in pool[:count]]
    tau = min(config.tau, queries.m)
    batch = [IQRequest("min_cost", t, float(tau)) for t in targets] + [
        IQRequest("max_hit", t, config.budget) for t in targets
    ]
    return engine, batch, tau


def _same_results(serial: Any, pooled: Any) -> bool:
    return len(serial) == len(pooled) and all(
        s.hits_after == p.hits_after
        and np.isclose(s.total_cost, p.total_cost, atol=ATOL_PARITY)
        for s, p in zip(serial, pooled)
    )


def _pool_sizes(workers: int) -> list[int]:
    """The distinct pool sizes the pooled figures time: 2 and ``workers``.

    Resolved as the pool resolves them, so a host that clamps
    ``workers`` to 2 times its one 2-worker pool once, and a floor never
    gates the better of two samples of the same pool.
    """
    return sorted({resolve_workers(2), resolve_workers(workers)})


def _par_batch_points(config: BenchConfig, limit: int | None, workers: int):
    """Batch IQ driver: the serial loop vs a persistent worker pool.

    Min-Cost and Max-Hit calls over the least-hit targets, one point
    per distinct pool size (:func:`_pool_sizes`).  Pool startup is not
    the figure: it amortizes across the many batches a serving process
    runs.  The workers fork inside the first pooled call (inheriting the
    collector's off state), a cold call the median drops.
    """
    engine, batch, tau = _bench_workload(config, limit)
    plan = build_plan(
        engine.index,
        get_solver("efficient"),
        "min_cost",
        batch[0].target,
        tau,
        euclidean_cost(config.dimensions),
        StrategySpace.unconstrained(config.dimensions),
    ).to_dict()
    for size in _pool_sizes(workers):
        with PersistentPool(engine, workers=size) as pool:
            yield Point(
                f"workers={size}",
                _record_config(
                    config,
                    requests=len(batch),
                    workers=size,
                    resolved_workers=pool.workers,
                    driver="persistent",
                ),
                lambda: run_batch(engine, batch),
                lambda: pool.run(batch),
                _same_results,
                plan=plan,
            )


def _served(engine: Any, lines: list[str], pool: PersistentPool) -> tuple[str, Any]:
    out = io.StringIO()
    stats = serve_stream(engine, lines, out, pool=pool)
    return out.getvalue(), stats


def _serve_points(config: BenchConfig, limit: int | None, workers: int):
    """Serving front end: one JSONL stream, serial-mode vs pooled server.

    The par_batch workload as protocol lines, so the figure includes
    parsing, coalescing and response serialization; one point per
    distinct pool size (:func:`_pool_sizes`).  Both servers must
    emit byte-identical responses; ``throughput`` and ``batches`` are
    the pooled server's last run.
    """
    engine, batch, _ = _bench_workload(config, limit)
    lines = [
        json.dumps(
            {"id": i, "kind": request.kind, "target": request.target, "goal": request.goal}
        )
        for i, request in enumerate(batch)
    ]
    with PersistentPool(engine, workers=0) as serial_pool:
        for size in _pool_sizes(workers):
            with PersistentPool(engine, workers=size) as pool:
                yield Point(
                    f"workers={size}",
                    _record_config(
                        config,
                        requests=len(lines),
                        workers=size,
                        resolved_workers=pool.workers,
                        throughput=lambda _, pooled: pooled[1].throughput,
                        batches=lambda _, pooled: pooled[1].batches,
                    ),
                    lambda: _served(engine, lines, serial_pool),
                    lambda: _served(engine, lines, pool),
                    lambda serial, pooled: serial[0] == pooled[0],
                )


def _persist_points(config: BenchConfig, limit: int | None, workers: int):
    """Index persistence: a fresh ``mode="exact"`` build vs a directory load.

    The loaded index must restore the same partition and answer a probe
    the same way; the record carries the directory's size in bytes.
    """
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-index"
        SubdomainIndex(dataset, queries, mode="exact").save(path)
        size_bytes = sum(f.stat().st_size for f in path.iterdir())
        yield Point(
            "build-vs-load",
            _record_config(config, mode="exact", dir_bytes=size_bytes),
            lambda: SubdomainIndex(dataset, queries, mode="exact"),
            lambda: SubdomainIndex.load(path, dataset, queries),
            lambda built, loaded: _cells(built) == _cells(loaded)
            and built.hits(0) == loaded.hits(0),
        )


def _update_points(config: BenchConfig, limit: int | None, workers: int):
    """§4.3 maintenance: a full rebuild vs one incremental ``add_query``.

    Each round's candidate inserts one query into the maintained index;
    the baseline rebuilds the index on the maintained workload.  The
    insert ranks one contender row and locates one cell, so it must beat
    the rebuild even on a single core.  Because the sides alternate, the
    last timed rebuild may precede the last insert, so the maintained
    index is checked against a rebuild of its final workload.
    """
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    maintained = SubdomainIndex(dataset, queries, mode=config.index_mode)
    rng = np.random.default_rng(config.seed + 13)

    def rebuild() -> SubdomainIndex:
        return SubdomainIndex(dataset, maintained.queries, mode=config.index_mode)

    def insert() -> SubdomainIndex:
        add_query(maintained, rng.random(config.dimensions), 2)
        return maintained

    yield Point(
        "add_query",
        _record_config(config, inserts=ROUNDS),
        rebuild,
        insert,
        lambda _, updated: _same_thresholds(updated, rebuild()),
    )


def _same_analyzed(plain: Any, analyzed: Any) -> bool:
    """Byte-identical answers, and every analyzed run observed its wall-clock."""
    return len(plain) == len(analyzed) and all(
        result.hits_after == twin.hits_after
        and result.total_cost == twin.total_cost
        and np.array_equal(result.strategy.vector, twin.strategy.vector)
        and executed.total_seconds > 0.0
        for result, (twin, executed) in zip(plain, analyzed)
    )


def _analyze_points(config: BenchConfig, limit: int | None, workers: int):
    """EXPLAIN ANALYZE overhead: plain ``min_cost``/``max_hit`` vs ``engine.analyze``.

    The par_batch workload, run as plain engine calls and as analyzed
    ones (stage recorder active).  The speedup is plain/analyzed, so
    values near 1x mean the observation layer is near-free.  Answers
    must be byte-identical — the differential that every
    ``repro check`` run also enforces.
    """
    engine, batch, _ = _bench_workload(config, limit)
    yield Point(
        f"requests={len(batch)}",
        _record_config(config, requests=len(batch)),
        lambda: [
            engine.min_cost(r.target, int(r.goal))
            if r.kind == "min_cost"
            else engine.max_hit(r.target, r.goal)
            for r in batch
        ],
        lambda: [
            engine.analyze(r.target, tau=int(r.goal))
            if r.kind == "min_cost"
            else engine.analyze(r.target, budget=r.goal)
            for r in batch
        ],
        _same_analyzed,
    )


_POOLED = "the pooled path must beat serial on a multi-core host"
#: At bench scale the row's median read 1.97-2.10x in ten ``--check``
#: runs on a 2-CPU host with no numba; 1.5x leaves room for a slower
#: host.
_EVALUATE = (
    "one compare per score against a cached cutoff must beat the reference "
    "Eq. 6 test it restates, on any host"
)
_WORK_AVOIDANCE = (
    "this figure's win is work avoidance, not parallelism, so it must hold on any host"
)

#: The bench table, in report order.
FIGURES: tuple[Figure, ...] = (
    Figure("fig4", _fig4_points),
    Figure("fig5", _fig5_points),
    Figure("fig7", _fig7_points),
    Figure("evaluate", _evaluate_points, floor=1.5, reason=_EVALUATE),
    Figure("par_batch", _par_batch_points, floor=1.0, cores=2, reason=_POOLED),
    Figure("serve", _serve_points, floor=1.0, cores=2, reason=_POOLED),
    Figure("persist", _persist_points, floor=1.0, reason=_WORK_AVOIDANCE),
    Figure("update", _update_points, floor=1.0, reason=_WORK_AVOIDANCE),
    Figure(
        "analyze_overhead",
        _analyze_points,
        floor=0.5,
        reason="EXPLAIN ANALYZE must not cost more than double the plain run",
    ),
)


def run_figure(
    figure: Figure,
    config: BenchConfig,
    limit: int | None = None,
    workers: int = DEFAULT_BENCH_WORKERS,
) -> list[BenchRecord]:
    """Measure every point of one table row."""
    return [measure(figure.name, point) for point in figure.points(config, limit, workers)]


def check_regression(
    payload: dict, baseline: dict, min_ratio: float = CHECK_MIN_RATIO
) -> list[str]:
    """Compare a fresh run against a baseline BENCH_*.json payload.

    Returns a list of human-readable problems (empty = no regression):
    schema/scale mismatches make the comparison meaningless and are
    reported as problems; a figure regresses when its median speedup
    drops below ``min_ratio`` times the baseline's.  Outside the tiny
    scale, each :data:`FIGURES` row with a floor must also clear it
    outright on a host with at least the row's ``cores`` (the payload
    records ``cpus``) — floors do not scale with a degraded baseline.
    """
    problems: list[str] = []
    if baseline.get("schema") != BENCH_SCHEMA:
        return [f"baseline schema {baseline.get('schema')!r} != {BENCH_SCHEMA!r}"]
    if baseline.get("scale") != payload.get("scale"):
        return [
            f"scale mismatch: baseline ran at {baseline.get('scale')!r}, "
            f"this run at {payload.get('scale')!r} — not comparable"
        ]
    summary = payload.get("summary", {})
    for figure, base_stats in sorted(baseline.get("summary", {}).items()):
        stats = summary.get(figure)
        if stats is None:
            problems.append(f"{figure}: present in baseline but missing from this run")
            continue
        floor = min_ratio * float(base_stats["median_speedup"])
        median = float(stats["median_speedup"])
        if median < floor:
            problems.append(
                f"{figure}: median speedup {median:.2f}x fell below "
                f"{floor:.2f}x ({min_ratio:g} * baseline "
                f"{float(base_stats['median_speedup']):.2f}x)"
            )
    if payload.get("scale") in CHECK_FLOOR_EXEMPT_SCALES:
        return problems
    cpus = int(payload.get("cpus", 1))
    for row in FIGURES:
        stats = summary.get(row.name)
        if row.floor is None or stats is None or cpus < row.cores:
            continue
        median = float(stats["median_speedup"])
        if median < row.floor:
            problems.append(
                f"{row.name}: median speedup {median:.2f}x is below the "
                f"absolute {row.floor:g}x floor — {row.reason}"
            )
    return problems


def run_regression(
    scale: str | None = None,
    smoke: bool = False,
    out: str | None = None,
    workers: int | None = None,
) -> dict:
    """Run every row of the bench table; returns the payload.

    ``smoke`` forces the tiny scale and truncates each sweep to its
    first two points / two targets (fast enough for CI); ``out`` writes
    the JSON payload to the given path; ``workers`` sets the pool size
    benched by the parallel figures (default
    :data:`DEFAULT_BENCH_WORKERS`).
    """
    config = load_config("tiny" if smoke else scale)
    limit = 2 if smoke else None
    workers = DEFAULT_BENCH_WORKERS if workers is None else workers
    records = [
        record for figure in FIGURES for record in run_figure(figure, config, limit, workers)
    ]
    # The host's core count travels with the payload: --check enforces
    # a row's floor only when the run had the cores the row needs.
    extra = {"cpus": os.cpu_count() or 1}
    if out:
        return write_bench_json(records, out, scale=config.name, extra=extra)
    return {
        "schema": BENCH_SCHEMA,
        "scale": config.name,
        "summary": summarize_records(records),
        "records": [record.to_dict() for record in records],
        **extra,
    }


def _count_of_two(text: str) -> int:
    """``--workers``: one worker times the serial loop against itself."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if count < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {count}")
    return count


def _baseline_shape_problem(baseline: Any) -> str | None:
    """What ``check_regression`` could not read in a baseline, if anything."""
    if not isinstance(baseline, dict):
        return f"expected a JSON object, got {type(baseline).__name__}"
    summary = baseline.get("summary")
    if not isinstance(summary, dict):
        return "'summary' is not an object"
    for figure, stats in summary.items():
        median = stats.get("median_speedup") if isinstance(stats, dict) else None
        if isinstance(median, bool) or not isinstance(median, (int, float)):
            return f"summary[{figure!r}] has no numeric 'median_speedup'"
    return None


def main(argv=None) -> int:
    """``python -m repro.bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark-regression harness: baseline vs candidate path per figure.",
    )
    parser.add_argument(
        "--scale",
        default=None,
        help="bench scale (tiny/bench/paper; default: $REPRO_BENCH_SCALE or bench)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny scale, truncated sweeps, parity checks only",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="write the JSON payload to this path (e.g. BENCH_PR1.json)",
    )
    parser.add_argument(
        "--workers",
        type=_count_of_two,
        default=None,
        metavar="N",
        help=(
            "pool size benched by the parallel figures, at least 2 "
            f"(default {DEFAULT_BENCH_WORKERS})"
        ),
    )
    parser.add_argument(
        "--check",
        default=None,
        metavar="BASELINE",
        help=(
            "compare this run against a baseline BENCH_*.json; the run "
            "adopts the baseline's scale unless --scale is given; exit "
            "code 3 on regression"
        ),
    )
    args = parser.parse_args(argv)
    baseline = None
    scale = args.scale
    if args.check:
        try:
            with open(args.check, encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read baseline {args.check}: {exc}", file=sys.stderr)
            return 1
        problem = _baseline_shape_problem(baseline)
        if problem is not None:
            print(f"error: baseline {args.check} is malformed: {problem}", file=sys.stderr)
            return 1
        if scale is None and not args.smoke:
            scale = baseline.get("scale")
    try:
        payload = run_regression(
            scale=scale,
            smoke=args.smoke,
            out=args.out,
            workers=args.workers,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for figure, stats in payload["summary"].items():
        print(
            f"{figure}: {stats['points']} points, speedup "
            f"min {stats['min_speedup']:.2f}x / median {stats['median_speedup']:.2f}x / "
            f"max {stats['max_speedup']:.2f}x"
        )
    if args.out:
        print(f"wrote {args.out} [{payload['scale']} scale]")
    if baseline is not None:
        if int(payload.get("cpus", 1)) <= 1:
            pooled = sorted(row.name for row in FIGURES if row.cores > 1)
            print(
                "note: single-core host — absolute pooled-figure floors "
                f"({', '.join(pooled)}) not enforced"
            )
        problems = check_regression(payload, baseline)
        if problems:
            for problem in problems:
                print(f"regression vs {args.check}: {problem}", file=sys.stderr)
            return 3
        print(f"no regression vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
