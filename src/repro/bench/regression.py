"""Benchmark-regression harness: literal vs vectorized code paths.

Re-runs the Figure 4, 5, and 7 configurations with both implementations
of each optimized stage and records wall-clock plus speedup:

* **fig4 / fig5** — full :class:`~repro.core.subdomain.SubdomainIndex`
  builds with ``partition_method="literal"`` (the BSP loop of
  Algorithm 1) vs ``"vectorized"`` (one sign-matrix partition), sweeping
  |D| (fig4) and |Q| (fig5).  Both builds must produce byte-identical
  signature -> member partitions or the run aborts.
* **fig7** — candidate generation on the Figure 7 IQ-processing
  configuration: :func:`~repro.core._search.generate_candidates` with
  ``method="loop"`` (per-query :func:`min_cost_to_hit`) vs
  ``method="auto"`` (batched closed form), per sampled target.  The two
  paths must agree on candidate ids, vectors, and costs.

Three more figures cover the parallel execution layer and persistence,
reusing the same record shape with *serial* (or the rebuild) in the
``literal_seconds`` slot and the optimized path in
``vectorized_seconds``:

* **par_batch** — the fig7 IQ sweep evaluated serially vs through a
  pre-warmed :class:`repro.parallel.persistent.PersistentPool` (fork
  once, shm-resident matrices, chunked dispatch); pool startup is
  untimed because it amortizes across a serving process's lifetime, and
  per-request results must agree with the serial reference.
* **serve** — the same sweep as a JSONL stream through
  :func:`repro.parallel.server.serve_stream`: serial-mode server vs
  pooled server, response lines byte-identical, with the pooled run's
  requests/second recorded as the serving-throughput figure.
* **persist** — a fresh ``mode="exact"`` build vs
  :meth:`SubdomainIndex.load` of the saved index directory (mmap
  layout); the restored index must serve identical answers, and the
  record carries the directory's size in bytes.  Loading must beat
  rebuilding on any host, so this figure has a
  :data:`CHECK_SINGLE_CORE_FLOORS` entry.

Two figures cover the sharded index layer (PR8), same record shape:

* **shard_build** — one monolithic build (``literal_seconds``) vs a
  K-shard :class:`~repro.core.sharding.ShardedSubdomainIndex` build
  (``vectorized_seconds``) on the same inputs; every probe target's
  Eq. 6 thresholds and hit mask must match the monolith float-exactly.
* **shard_update** — incremental maintenance: rebuild the whole
  K-shard index on the post-insert workload (``literal_seconds``) vs
  routing one ``add_query`` into its owning shard
  (``vectorized_seconds``).  The update touches exactly one shard, so
  it must beat the rebuild outright *even on a single core* — the win
  is work avoidance, not parallelism — which is why this figure gets
  its own :data:`CHECK_SINGLE_CORE_FLOORS` entry.

One figure covers the observability layer (PR10):

* **analyze_overhead** — the fig7-shaped IQ sweep run through the plain
  engine calls (``literal_seconds``) vs through ``engine.analyze``
  (``vectorized_seconds``, the ``EXPLAIN ANALYZE`` path with the stage
  recorder active and the stats store recording).  Results must be
  byte-identical; the figure's "speedup" is plain/analyzed, so values
  near 1x mean the observation layer is near-free, and the
  :data:`CHECK_ANALYZE_FLOORS` gate fails ``--check`` if analyzed runs
  ever cost more than double the plain ones.

``run_regression`` drives all of them and optionally writes a
``BENCH_*.json`` file (schema documented in EXPERIMENTS.md).  The
``--smoke`` mode truncates every sweep and forces the tiny scale so CI
can execute the whole harness in seconds.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.constants import ATOL_PARITY
from repro.bench.config import BenchConfig, load_config
from repro.bench.harness import (
    BENCH_SCHEMA,
    BenchRecord,
    summarize_records,
    time_call,
    write_bench_json,
)
from repro.core._search import SearchState, generate_candidates
from repro.core.cost import euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.plan import build_plan
from repro.core.queries import QuerySet
from repro.core.solvers import get_solver
from repro.core.sharding import build_index
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.data.synthetic import generate
from repro.data.workloads import generate_queries
from repro.errors import ReproError
from repro.parallel import IQRequest, PersistentPool, run_batch, serve_stream

__all__ = [
    "bench_fig4_partition",
    "bench_fig5_partition",
    "bench_fig7_candidates",
    "bench_par_batch",
    "bench_serve",
    "bench_persist",
    "bench_shard_build",
    "bench_shard_update",
    "bench_analyze",
    "check_regression",
    "run_regression",
    "main",
]

#: Default pool size for the parallel bench figures.
DEFAULT_BENCH_WORKERS = 4

#: Default shard count for the sharded-index figures.
DEFAULT_BENCH_SHARDS = 4

#: A figure "regresses" when its median speedup falls below this
#: fraction of the baseline's — generous, because the harness times
#: sub-second stages on shared CI machines.
CHECK_MIN_RATIO = 0.5

#: Absolute median-speedup floors enforced by ``--check`` on top of the
#: relative ratio: the persistent-pool figures must beat serial outright
#: (the whole point of the redeemed driver), so a future slide back
#: under 1x fails CI even if the baseline also slid.  Only enforced on
#: multi-core hosts (the payload records ``cpus``) and at non-smoke
#: scales: with one core a process pool cannot beat the serial loop,
#: and at tiny scale fork/IPC overhead legitimately dominates the
#: micro-batches, whatever the driver does.
CHECK_ABSOLUTE_FLOORS = {"par_batch": 1.0, "serve": 1.0}

#: Scales too small for the absolute pooled floors to be meaningful.
CHECK_FLOOR_EXEMPT_SCALES = frozenset({"tiny"})

#: Absolute floors enforced on *any* host, single-core included: these
#: figures' advantage is work avoidance (maintain one touched shard
#: instead of rebuilding all K; load a saved index instead of building
#: it), not parallelism, so a slide under 1x is a real regression
#: everywhere.  Tiny scale stays exempt — there both sides are
#: sub-millisecond timer noise.
CHECK_SINGLE_CORE_FLOORS = {"shard_update": 1.0, "persist": 1.0}

#: Absolute floor for the ``analyze_overhead`` figure, enforced on any
#: host at non-smoke scales: the figure's speedup is plain/analyzed
#: seconds, so 0.5 means an ``EXPLAIN ANALYZE`` run may cost at most
#: twice its plain twin.  The observation layer is a no-op-guarded
#: global read on the hot path; doubling a query's cost would mean the
#: instrumentation escaped that design.
CHECK_ANALYZE_FLOORS = {"analyze_overhead": 0.5}


class RegressionMismatch(AssertionError):
    """Literal and vectorized paths disagreed — the harness is void."""


def _make_inputs(n: int, m: int, config: BenchConfig) -> tuple[Dataset, QuerySet]:
    dataset = Dataset(generate("IN", n, config.dimensions, seed=config.seed))
    queries = generate_queries(
        "UN", m, config.dimensions, seed=config.seed + 1, k_range=config.k_range
    )
    return dataset, queries


def _partition_fingerprint(index: SubdomainIndex) -> list[tuple[bytes, tuple[int, ...]]]:
    return sorted(
        (sub.signature, tuple(int(q) for q in np.sort(sub.query_ids)))
        for sub in index.subdomains
    )


def _timed_builds(
    dataset: Dataset, queries: QuerySet, config: BenchConfig
) -> tuple[float, float]:
    """(literal_seconds, vectorized_seconds) for identical index builds."""
    literal, literal_seconds = time_call(
        SubdomainIndex,
        dataset,
        queries,
        mode=config.index_mode,
        partition_method="literal",
    )
    vectorized, vectorized_seconds = time_call(
        SubdomainIndex,
        dataset,
        queries,
        mode=config.index_mode,
        partition_method="vectorized",
    )
    if _partition_fingerprint(literal) != _partition_fingerprint(vectorized):
        raise RegressionMismatch(
            f"literal and vectorized partitions differ (n={dataset.n}, m={queries.m})"
        )
    return literal_seconds, vectorized_seconds


def bench_fig4_partition(config: BenchConfig, points: int | None = None) -> list[BenchRecord]:
    """Figure 4 configuration: index build sweeping |D|."""
    records = []
    sweep = config.object_sweep[:points] if points else config.object_sweep
    for n in sweep:
        dataset, queries = _make_inputs(n, config.num_queries, config)
        literal_seconds, vectorized_seconds = _timed_builds(dataset, queries, config)
        records.append(
            BenchRecord(
                figure="fig4",
                case=f"|D|={n}",
                config={
                    "num_objects": n,
                    "num_queries": config.num_queries,
                    "dimensions": config.dimensions,
                    "index_mode": config.index_mode,
                    "seed": config.seed,
                },
                literal_seconds=literal_seconds,
                vectorized_seconds=vectorized_seconds,
            )
        )
    return records


def bench_fig5_partition(config: BenchConfig, points: int | None = None) -> list[BenchRecord]:
    """Figure 5 configuration: index build sweeping |Q|."""
    records = []
    sweep = config.query_sweep[:points] if points else config.query_sweep
    for m in sweep:
        dataset, queries = _make_inputs(config.num_objects, m, config)
        literal_seconds, vectorized_seconds = _timed_builds(dataset, queries, config)
        records.append(
            BenchRecord(
                figure="fig5",
                case=f"|Q|={m}",
                config={
                    "num_objects": config.num_objects,
                    "num_queries": m,
                    "dimensions": config.dimensions,
                    "index_mode": config.index_mode,
                    "seed": config.seed,
                },
                literal_seconds=literal_seconds,
                vectorized_seconds=vectorized_seconds,
            )
        )
    return records


def bench_fig7_candidates(config: BenchConfig, targets: int | None = None) -> list[BenchRecord]:
    """Figure 7 configuration: candidate generation, loop vs batch."""
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    index = SubdomainIndex(dataset, queries, mode=config.index_mode)  # repro: noqa[RPR012] (bench times raw construction)
    evaluator = StrategyEvaluator(index)
    cost = euclidean_cost(config.dimensions)
    space = StrategySpace.unconstrained(config.dimensions)
    rng = np.random.default_rng(config.seed + 7)
    count = targets if targets else config.iq_repeats
    picks = rng.choice(dataset.n, size=min(dataset.n, count), replace=False)

    tau = min(config.tau, queries.m)
    solver = get_solver("efficient")
    records = []
    for target in sorted(int(t) for t in picks):
        # The measured stage is candidate generation inside this planned
        # Min-Cost IQ call; the plan is recorded alongside the timing.
        plan = build_plan(index, solver, "min_cost", target, tau, cost, space)
        state = SearchState(
            target=target,
            base=index.dataset.matrix[target].copy(),
            applied=np.zeros(config.dimensions),
            spent=0.0,
            mask=evaluator.hits_mask(target),
        )
        loop_batch, loop_seconds = time_call(
            generate_candidates, evaluator, state, cost, space, method="loop"
        )
        auto_batch, auto_seconds = time_call(
            generate_candidates, evaluator, state, cost, space, method="auto"
        )
        if not (
            np.array_equal(loop_batch.query_ids, auto_batch.query_ids)
            and np.allclose(loop_batch.vectors, auto_batch.vectors, atol=ATOL_PARITY)
            and np.allclose(loop_batch.costs, auto_batch.costs, atol=ATOL_PARITY)
        ):
            raise RegressionMismatch(
                f"loop and batch candidate generation differ (target={target})"
            )
        records.append(
            BenchRecord(
                figure="fig7",
                case=f"target={target}",
                config={
                    "num_objects": config.num_objects,
                    "num_queries": config.num_queries,
                    "dimensions": config.dimensions,
                    "index_mode": config.index_mode,
                    "candidates": int(loop_batch.size),
                    "seed": config.seed,
                },
                literal_seconds=loop_seconds,
                vectorized_seconds=auto_seconds,
                plan=plan.to_dict(),
            )
        )
    return records


def bench_shard_build(
    config: BenchConfig, shards: int = DEFAULT_BENCH_SHARDS
) -> list[BenchRecord]:
    """Sharded build: monolithic vs K-shard partitioned construction.

    Same inputs, both serial; every probe target's Eq. 6 thresholds and
    hit mask must agree float-exactly (per-query quantities depend only
    on that query's weights and the full object set, so sharding the
    workload cannot change them).
    """
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    mono, mono_seconds = time_call(
        SubdomainIndex, dataset, queries, mode=config.index_mode
    )
    sharded, sharded_seconds = time_call(
        build_index, dataset, queries, mode=config.index_mode, shards=shards
    )
    for target in range(min(dataset.n, 16)):
        _, mono_theta = mono.kth_other(target)
        _, sharded_theta = sharded.kth_other(target)
        if not (
            np.array_equal(mono_theta, sharded_theta)
            and np.array_equal(mono.hits_mask(target), sharded.hits_mask(target))
        ):
            raise RegressionMismatch(
                f"monolithic and {shards}-shard builds disagree on target {target}"
            )
    return [
        BenchRecord(
            figure="shard_build",
            case=f"shards={shards}",
            config={
                "num_objects": config.num_objects,
                "num_queries": config.num_queries,
                "dimensions": config.dimensions,
                "index_mode": config.index_mode,
                "shards": shards,
                "routing": sharded.routing,
                "shard_sizes": list(sharded.shard_sizes),
                "seed": config.seed,
            },
            literal_seconds=mono_seconds,
            vectorized_seconds=sharded_seconds,
        )
    ]


def bench_shard_update(
    config: BenchConfig, shards: int = DEFAULT_BENCH_SHARDS
) -> list[BenchRecord]:
    """Incremental maintenance: touched-shard update vs full rebuild.

    Builds a K-shard index and, over five rounds, routes one
    ``add_query`` insert into its owning shard, then times a
    from-scratch sharded rebuild on the post-insert workload.
    ``vectorized_seconds`` is the median insert and ``literal_seconds``
    the median rebuild.  The two alternate with the garbage collector
    off, as in :func:`bench_persist`: an insert takes about a
    millisecond, so one collection or one slow stretch of the host
    landing on one side would swing the ratio.  Each update leaves K-1
    shards untouched, so it must beat the rebuild outright even on a
    single core; the maintained and the last rebuilt index must agree
    on every probe target's thresholds and hit mask.  Five rounds: in a
    median of three, two inserts slowed from about 1 ms to 3.7 ms on a
    2-CPU host were enough to halve the ratio.
    """
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    maintained = build_index(dataset, queries, mode=config.index_mode, shards=shards)
    rng = np.random.default_rng(config.seed + 13)
    epochs_before = maintained.shard_epochs
    insert_seconds: list[float] = []
    rebuild_seconds: list[float] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            weights = rng.random(config.dimensions)
            _, seconds = time_call(maintained.add_query, weights, 2)
            insert_seconds.append(seconds)
            rebuilt, seconds = time_call(
                build_index,
                dataset,
                maintained.queries,
                mode=config.index_mode,
                shards=shards,
            )
            rebuild_seconds.append(seconds)
    finally:
        if collecting:
            gc.enable()
    touched = sum(
        1 for before, after in zip(epochs_before, maintained.shard_epochs)
        if after != before
    )
    for target in range(min(dataset.n, 16)):
        _, maintained_theta = maintained.kth_other(target)
        _, rebuilt_theta = rebuilt.kth_other(target)
        if not (
            np.array_equal(maintained_theta, rebuilt_theta)
            and np.array_equal(
                maintained.hits_mask(target), rebuilt.hits_mask(target)
            )
        ):
            raise RegressionMismatch(
                f"updated and rebuilt sharded indexes disagree on target {target}"
            )
    return [
        BenchRecord(
            figure="shard_update",
            case=f"shards={shards}",
            config={
                "num_objects": config.num_objects,
                "num_queries": config.num_queries,
                "dimensions": config.dimensions,
                "index_mode": config.index_mode,
                "shards": shards,
                "routing": maintained.routing,
                "inserts": len(insert_seconds),
                "touched_shards": touched,
                "seed": config.seed,
            },
            literal_seconds=float(np.median(rebuild_seconds)),
            vectorized_seconds=float(np.median(insert_seconds)),
        )
    ]


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


def bench_par_batch(
    config: BenchConfig,
    workers: int = DEFAULT_BENCH_WORKERS,
    requests: int | None = None,
) -> list[BenchRecord]:
    """Batch IQ driver: serial loop vs persistent worker pool.

    The fig7 IQ sweep shape: Min-Cost and Max-Hit calls over the
    least-hit targets, one batch per worker count.  Pool construction
    (fork + shm export) and one warm-up batch are *untimed* — that is
    the persistent pool's contract: startup amortizes across the many
    batches a serving process runs, so the figure measures the
    steady-state cost of one more batch.  Per-request results must
    agree with the serial reference on hits and cost.
    """
    engine, batch, tau = _bench_workload(config, requests)
    run_batch(engine, batch, workers=0)  # warm-up: prefixes + caches
    serial_results, serial_seconds = time_call(run_batch, engine, batch, workers=0)
    solver = get_solver("efficient")
    cost = euclidean_cost(config.dimensions)
    space = StrategySpace.unconstrained(config.dimensions)
    records = []
    for pool_size in sorted({2, workers}):
        with PersistentPool(engine, workers=pool_size) as worker_pool:
            worker_pool.run(batch)  # warm-up: per-worker evaluator state
            parallel_results, parallel_seconds = time_call(worker_pool.run, batch)
            resolved = worker_pool.workers
        for serial_result, parallel_result in zip(serial_results, parallel_results):
            if not (
                serial_result.hits_after == parallel_result.hits_after
                and np.isclose(
                    serial_result.total_cost,
                    parallel_result.total_cost,
                    atol=ATOL_PARITY,
                )
            ):
                raise RegressionMismatch(
                    f"serial and pooled batch results differ (workers={pool_size})"
                )
        plan = build_plan(
            engine.index, solver, "min_cost", batch[0].target, tau, cost, space
        )
        records.append(
            BenchRecord(
                figure="par_batch",
                case=f"workers={pool_size}",
                config={
                    "num_objects": config.num_objects,
                    "num_queries": config.num_queries,
                    "dimensions": config.dimensions,
                    "index_mode": config.index_mode,
                    "requests": len(batch),
                    "workers": pool_size,
                    "resolved_workers": resolved,
                    "driver": "persistent",
                    "seed": config.seed,
                },
                literal_seconds=serial_seconds,
                vectorized_seconds=parallel_seconds,
                plan=plan.to_dict(),
            )
        )
    return records


def bench_serve(
    config: BenchConfig,
    workers: int = DEFAULT_BENCH_WORKERS,
    requests: int | None = None,
) -> list[BenchRecord]:
    """Serving front end: one JSONL stream, serial vs pooled server.

    The same fig7-shaped workload as :func:`bench_par_batch`, expressed
    as protocol lines and pushed through :func:`serve_stream` — so the
    figure includes parsing, coalescing, and response serialization, not
    just solve time.  ``literal_seconds`` serves through a serial-mode
    pool (the reference), ``vectorized_seconds`` through a pre-warmed
    worker pool; both runs must emit byte-identical response lines.
    The record's config carries the pooled run's requests/second as
    ``throughput`` (the serving figure EXPERIMENTS.md quotes).
    """
    engine, batch, _ = _bench_workload(config, requests)
    lines = [
        json.dumps(
            {
                "id": i,
                "kind": request.kind,
                "target": request.target,
                "goal": request.goal,
            }
        )
        for i, request in enumerate(batch)
    ]
    records = []
    with PersistentPool(engine, workers=0) as serial_pool:
        serve_stream(engine, lines, io.StringIO(), pool=serial_pool)  # warm-up
        serial_out = io.StringIO()
        _, serial_seconds = time_call(
            serve_stream, engine, lines, serial_out, pool=serial_pool
        )
    for pool_size in sorted({2, workers}):
        with PersistentPool(engine, workers=pool_size) as worker_pool:
            serve_stream(engine, lines, io.StringIO(), pool=worker_pool)  # warm-up
            pooled_out = io.StringIO()
            stats, pooled_seconds = time_call(
                serve_stream, engine, lines, pooled_out, pool=worker_pool
            )
            resolved = worker_pool.workers
        if serial_out.getvalue() != pooled_out.getvalue():
            raise RegressionMismatch(
                f"serial and pooled serve responses differ (workers={pool_size})"
            )
        records.append(
            BenchRecord(
                figure="serve",
                case=f"workers={pool_size}",
                config={
                    "num_objects": config.num_objects,
                    "num_queries": config.num_queries,
                    "dimensions": config.dimensions,
                    "index_mode": config.index_mode,
                    "requests": len(lines),
                    "workers": pool_size,
                    "resolved_workers": resolved,
                    "throughput": stats.throughput,
                    "batches": stats.batches,
                    "seed": config.seed,
                },
                literal_seconds=serial_seconds,
                vectorized_seconds=pooled_seconds,
            )
        )
    return records


def bench_persist(config: BenchConfig) -> list[BenchRecord]:
    """Index persistence: fresh ``mode="exact"`` build vs directory load.

    Saves the built index, reloads it against the same inputs, verifies
    the partitions and a probe object's hit count agree, and records
    build time vs load time (the amortization repeated runs get) plus
    the saved directory's size in bytes.  Builds and loads alternate
    over three rounds and each side records its median, with the
    garbage collector off as in :mod:`timeit`: both sides then sample
    the same stretch of host speed, and a full collection over a large
    caller heap cannot land in one of them.
    """
    dataset, queries = _make_inputs(config.num_objects, config.num_queries, config)
    build_seconds: list[float] = []
    load_seconds: list[float] = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench-index"
        collecting = gc.isenabled()
        gc.disable()
        try:
            for _ in range(3):
                built, seconds = time_call(SubdomainIndex, dataset, queries, mode="exact")
                build_seconds.append(seconds)
                if not path.exists():
                    built.save(path)
                loaded, seconds = time_call(SubdomainIndex.load, path, dataset, queries)
                load_seconds.append(seconds)
        finally:
            if collecting:
                gc.enable()
        size_bytes = sum(f.stat().st_size for f in path.iterdir())
        if _partition_fingerprint(built) != _partition_fingerprint(loaded):
            raise RegressionMismatch("persisted index restored a different partition")
        if built.hits(0) != loaded.hits(0):
            raise RegressionMismatch("persisted index answers differ from the built index")
        del loaded  # the maps die before the files do
    return [
        BenchRecord(
            figure="persist",
            case="build-vs-load",
            config={
                "num_objects": config.num_objects,
                "num_queries": config.num_queries,
                "dimensions": config.dimensions,
                "index_mode": "exact",
                "dir_bytes": int(size_bytes),
                "seed": config.seed,
            },
            literal_seconds=float(np.median(build_seconds)),
            vectorized_seconds=float(np.median(load_seconds)),
        )
    ]


def bench_analyze(config: BenchConfig, requests: int | None = None) -> list[BenchRecord]:
    """EXPLAIN ANALYZE overhead: plain engine calls vs analyzed calls.

    The fig7-shaped IQ sweep (Min-Cost and Max-Hit over the least-hit
    targets) executed twice: through the plain ``min_cost``/``max_hit``
    API (``literal_seconds``) and through ``engine.analyze``
    (``vectorized_seconds``) with the stage recorder active and the
    stats store recording every run.  Each request pair must return
    byte-identical strategies, hits, and costs — the differential that
    ``repro check --analyze`` also enforces — and every executed plan
    must actually carry observations (non-zero total wall-clock).
    """
    engine, batch, _ = _bench_workload(config, requests)

    def plain():
        return [
            engine.min_cost(r.target, int(r.goal))
            if r.kind == "min_cost"
            else engine.max_hit(r.target, r.goal)
            for r in batch
        ]

    def analyzed():
        return [
            engine.analyze(r.target, tau=int(r.goal))
            if r.kind == "min_cost"
            else engine.analyze(r.target, budget=r.goal)
            for r in batch
        ]

    plain()  # warm-up: evaluator prefixes + caches
    plain_results, plain_seconds = time_call(plain)
    analyzed_results, analyzed_seconds = time_call(analyzed)
    for request, plain_result, (analyzed_result, executed) in zip(
        batch, plain_results, analyzed_results
    ):
        if not (
            plain_result.hits_after == analyzed_result.hits_after
            and plain_result.total_cost == analyzed_result.total_cost
            and np.array_equal(
                plain_result.strategy.vector, analyzed_result.strategy.vector
            )
        ):
            raise RegressionMismatch(
                f"plain and analyzed results differ "
                f"({request.kind}, target={request.target})"
            )
        if executed.total_seconds <= 0.0:
            raise RegressionMismatch(
                f"analyzed run recorded no wall-clock "
                f"({request.kind}, target={request.target})"
            )
    return [
        BenchRecord(
            figure="analyze_overhead",
            case=f"requests={len(batch)}",
            config={
                "num_objects": config.num_objects,
                "num_queries": config.num_queries,
                "dimensions": config.dimensions,
                "index_mode": config.index_mode,
                "requests": len(batch),
                "seed": config.seed,
            },
            literal_seconds=plain_seconds,
            vectorized_seconds=analyzed_seconds,
        )
    ]


def check_regression(
    payload: dict, baseline: dict, min_ratio: float = CHECK_MIN_RATIO
) -> list[str]:
    """Compare a fresh run against a baseline BENCH_*.json payload.

    Returns a list of human-readable problems (empty = no regression):
    schema/scale mismatches make the comparison meaningless and are
    reported as problems; a figure regresses when its median speedup
    drops below ``min_ratio`` times the baseline's.  On multi-core
    hosts (``payload["cpus"] > 1``) at non-smoke scales the
    persistent-pool figures must additionally clear their
    :data:`CHECK_ABSOLUTE_FLOORS` outright — these floors do not scale
    with a degraded baseline.
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
    enforce_floors = (
        int(payload.get("cpus", 1)) > 1
        and payload.get("scale") not in CHECK_FLOOR_EXEMPT_SCALES
    )
    if enforce_floors:
        for figure, absolute_floor in sorted(CHECK_ABSOLUTE_FLOORS.items()):
            stats = summary.get(figure)
            if stats is None:
                continue
            median = float(stats["median_speedup"])
            if median < absolute_floor:
                problems.append(
                    f"{figure}: median speedup {median:.2f}x is below the "
                    f"absolute {absolute_floor:g}x floor — the pooled path "
                    "must beat serial on a multi-core host"
                )
    if payload.get("scale") not in CHECK_FLOOR_EXEMPT_SCALES:
        for figure, absolute_floor in sorted(CHECK_SINGLE_CORE_FLOORS.items()):
            stats = summary.get(figure)
            if stats is None:
                continue
            median = float(stats["median_speedup"])
            if median < absolute_floor:
                problems.append(
                    f"{figure}: median speedup {median:.2f}x is below the "
                    f"absolute {absolute_floor:g}x floor — this figure's win "
                    "is work avoidance, not parallelism, so it must hold "
                    "on any host"
                )
    if payload.get("scale") not in CHECK_FLOOR_EXEMPT_SCALES:
        for figure, absolute_floor in sorted(CHECK_ANALYZE_FLOORS.items()):
            stats = summary.get(figure)
            if stats is None:
                continue
            median = float(stats["median_speedup"])
            if median < absolute_floor:
                problems.append(
                    f"{figure}: median speedup {median:.2f}x is below the "
                    f"absolute {absolute_floor:g}x floor — EXPLAIN ANALYZE "
                    "must not cost more than double the plain run"
                )
    return problems


def run_regression(
    scale: str | None = None,
    smoke: bool = False,
    out: str | None = None,
    workers: int | None = None,
    shards: int | None = None,
) -> dict:
    """Run the full serial-vs-optimized harness; returns the payload.

    ``smoke`` forces the tiny scale and truncates each sweep to its
    first two points / two targets (fast enough for CI); ``out`` writes
    the JSON payload to the given path; ``workers`` sets the pool size
    benched by the parallel figures (default
    :data:`DEFAULT_BENCH_WORKERS`); ``shards`` the shard count benched
    by the sharded figures (default :data:`DEFAULT_BENCH_SHARDS`).
    """
    config = load_config("tiny" if smoke else scale)
    points = 2 if smoke else None
    pool_size = workers if workers else DEFAULT_BENCH_WORKERS
    shard_count = shards if shards else DEFAULT_BENCH_SHARDS
    records = []
    records += bench_fig4_partition(config, points=points)
    records += bench_fig5_partition(config, points=points)
    records += bench_fig7_candidates(config, targets=points)
    records += bench_par_batch(
        config, workers=pool_size, requests=2 if smoke else None
    )
    records += bench_serve(
        config, workers=pool_size, requests=2 if smoke else None
    )
    records += bench_persist(config)
    records += bench_shard_build(config, shards=shard_count)
    records += bench_shard_update(config, shards=shard_count)
    records += bench_analyze(config, requests=2 if smoke else None)
    # The host's core count travels with the payload: --check only
    # enforces the absolute pooled floors when the run had real cores.
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


def main(argv=None) -> int:
    """``python -m repro.bench`` entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Literal-vs-vectorized benchmark-regression harness.",
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
        type=int,
        default=None,
        metavar="N",
        help=(
            "pool size benched by the parallel figures "
            f"(default {DEFAULT_BENCH_WORKERS})"
        ),
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help=(
            "shard count benched by the sharded-index figures "
            f"(default {DEFAULT_BENCH_SHARDS})"
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
        if scale is None and not args.smoke:
            scale = baseline.get("scale")
    try:
        payload = run_regression(
            scale=scale,
            smoke=args.smoke,
            out=args.out,
            workers=args.workers,
            shards=args.shards,
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
            print(
                "note: single-core host — absolute pooled-figure floors "
                f"({', '.join(sorted(CHECK_ABSOLUTE_FLOORS))}) not enforced"
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
