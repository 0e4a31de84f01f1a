"""The parallel batch IQ driver.

The paper's experiment grids (fig. 7-9) evaluate *many* improvement
queries against *one* index — many targets, or one target under a sweep
of budgets/thresholds.  Each IQ only reads the index, so a batch
parallelizes trivially once the index is shared.

Sharing works by fork: the parent parks the engine and the request list
in a module global and fork-starts the pool, so workers inherit the
fully-built index through copy-on-write — no pickling of the index, the
matrices, or the requests.  Workers receive *contiguous request chunks*
(one chunk per worker, ``chunksize = ceil(len(batch) / workers)``)
instead of one IPC round-trip per request, so per-task pickle and
dispatch overhead amortizes over the chunk.  On platforms without fork
(or for fewer than two workers/requests) the driver degrades to the
serial loop, which is also the reference the parity tests compare
against.

This fork-per-call path pays pool startup on every ``run_batch`` call;
callers issuing *repeated* batches against one index (the serving
workload) should hold a
:class:`~repro.parallel.persistent.PersistentPool` and either call its
:meth:`~repro.parallel.persistent.PersistentPool.run` directly or pass
it to :func:`run_batch` via ``pool=``, which amortizes worker startup
and keeps per-worker evaluator state warm across batches.

Engine-side imports happen lazily at call time, so importing
:mod:`repro.parallel` never loads :mod:`repro.core`.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError, ValidationError
from repro.parallel.pool import pool_start_method, resolve_workers
from repro.parallel.shm import chunk_bounds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cost import CostFunction
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.results import IQResult
    from repro.core.strategy import StrategySpace
    from repro.parallel.persistent import PersistentPool

__all__ = ["IQRequest", "run_batch"]


@dataclass(frozen=True)
class IQRequest:
    """One improvement query of a batch.

    ``goal`` is the kind-specific objective: the hit threshold ``tau``
    for ``kind="min_cost"``, the cost budget for ``kind="max_hit"``.
    ``options`` carries extra solver keyword arguments as key/value
    pairs (a tuple so requests stay hashable).
    """

    kind: str  #: "min_cost" | "max_hit"
    target: int  #: object to improve
    goal: float  #: tau (min_cost) or budget (max_hit)
    method: str = "efficient"  #: solver registry name
    cost: "CostFunction | None" = None
    space: "StrategySpace | None" = None
    options: tuple[tuple[str, object], ...] = ()


#: Fork-shared state: ``(engine, requests)`` parked here just before the
#: pool starts so children inherit the read-only index copy-on-write.
_SHARED: "tuple[ImprovementQueryEngine, tuple[IQRequest, ...]] | None" = None


def _run_one(engine: "ImprovementQueryEngine", request: IQRequest) -> "IQResult":
    """Execute one request against the engine (serial and worker path)."""
    kwargs = dict(request.options)
    if request.kind == "min_cost":
        # Passed on unconverted: the solver boundary rejects a tau that
        # is not a whole number with a typed error.
        return engine.min_cost(
            request.target,
            request.goal,  # type: ignore[arg-type]
            cost=request.cost,
            space=request.space,
            method=request.method,
            **kwargs,
        )
    return engine.max_hit(
        request.target,
        float(request.goal),
        cost=request.cost,
        space=request.space,
        method=request.method,
        **kwargs,
    )


def _batch_chunk(bounds: tuple[int, int]) -> "list[IQResult]":
    """Worker task: run one contiguous slice of the fork-shared batch.

    Chunked dispatch is what keeps IPC off the per-request path: one
    pickle round-trip moves ``stop - start`` results, not one.
    """
    if _SHARED is None:  # repro: noqa[RPR008] (fork channel: parked pre-fork, read-only here)
        raise ReproError("batch worker started without fork-shared state")
    engine, requests = _SHARED
    start, stop = bounds
    return [_run_one(engine, requests[index]) for index in range(start, stop)]


def _validate_requests(requests: tuple[IQRequest, ...]) -> None:
    from repro.core.solvers import QUERY_KINDS, get_solver

    for request in requests:
        if request.kind not in QUERY_KINDS:
            raise ValidationError(
                f"request kind must be one of {QUERY_KINDS}, got {request.kind!r}"
            )
        get_solver(request.method)  # unknown methods fail before the pool starts


def run_batch(
    engine: "ImprovementQueryEngine",
    requests: "Sequence[IQRequest]",
    workers: "int | None" = None,
    pool: "PersistentPool | None" = None,
) -> "list[IQResult]":
    """Evaluate a batch of improvement queries, results in request order.

    ``workers`` resolves through
    :func:`~repro.parallel.pool.resolve_workers` (argument >
    ``REPRO_WORKERS`` > serial).  With fewer than two workers or
    requests, or without the fork start method, the batch runs as the
    serial reference loop; otherwise the engine is shared with a
    fork-based pool copy-on-write and contiguous request chunks are
    evaluated concurrently.  The index must not be mutated while a
    batch runs.

    Passing ``pool=`` dispatches through an existing
    :class:`~repro.parallel.persistent.PersistentPool` instead (its
    workers already hold the index; ``workers`` is ignored).  The pool
    must have been created for the same engine.
    """
    global _SHARED
    batch = tuple(requests)
    if pool is not None:
        if pool.engine is not engine:
            raise ValidationError("pool was created for a different engine")
        return pool.run(batch)
    _validate_requests(batch)
    count = resolve_workers(workers)
    if count < 2 or len(batch) < 2 or pool_start_method() != "fork":
        return [_run_one(engine, request) for request in batch]
    if _SHARED is not None:
        raise ReproError("run_batch is not reentrant: a batch is already running")
    # Build lazily-constructed engine state the workers would otherwise
    # each rebuild: representative prefixes are filled on first use, so
    # touching nothing here is fine — CoW shares whatever exists now.
    _SHARED = (engine, batch)
    try:
        context = get_context("fork")
        count = min(count, len(batch))
        with ProcessPoolExecutor(max_workers=count, mp_context=context) as executor:
            chunks = executor.map(_batch_chunk, chunk_bounds(len(batch), count))
            return [result for chunk in chunks for result in chunk]
    finally:
        _SHARED = None
