"""The persistent worker pool: fork once, serve batches forever.

Forking a pool per batch pays pool startup, per-request IPC, and cold
per-worker state on *every* batch, which made it slower than the serial
loop.  :class:`PersistentPool` amortizes all three across the lifetime
of an index:

* **fork once** — workers are forked holding the fully-built engine
  (index, warm representative prefixes, evaluator caches) and stay
  alive across :meth:`run` calls.  The index is read-only between
  §4.3 updates, so every worker shares the parent's pages
  copy-on-write; an index loaded from the mmap layout shares its
  matrices through the OS page cache as well.  Nothing is copied
  into separate shared memory;
* **one task per request** — each request of a batch is its own pool
  task, so a worker that finishes early takes the next request instead
  of idling while another works through a slice of heavy ones.

Consistency is epoch-based, like every other index consumer: the pool
records :attr:`~repro.core.subdomain.SubdomainIndex.epoch` at fork time
and compares lazily on every :meth:`run` — a mutated index can never be
served from stale workers; the pool re-forks (a *refresh*) before
dispatching.  A worker crash (:class:`BrokenProcessPool`) likewise
triggers one full refresh-and-retry before surfacing an error.

The serial loop stays the executable reference: a pool resolved to
fewer than two workers (or a platform without fork) runs each request
in-process through the same runner a worker task calls.
"""

from __future__ import annotations

import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from typing import TYPE_CHECKING, Sequence

from repro.errors import ReproError
from repro.parallel.batch import IQRequest, _run_one, _validate_requests
from repro.parallel.pool import pool_start_method, resolve_workers

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.results import IQResult

__all__ = ["PersistentPool"]

#: Fork-shared registry: token -> engine, set for the whole pool
#: lifetime so lazily-forked workers inherit it whenever they start.
_POOL_ENGINES: "dict[str, ImprovementQueryEngine]" = {}


def _sanitize_error(exc: Exception) -> Exception:
    """An exception safe to pickle back over the pool's result pipe."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure degrades to repr
        return ReproError(f"{type(exc).__name__}: {exc}")


def _run_request(
    engine: "ImprovementQueryEngine", request: IQRequest
) -> "tuple[bool, IQResult | Exception]":
    """One request's outcome: ``(True, IQResult)`` or ``(False, exception)``.

    Errors are *returned*, not raised, so one bad request cannot poison
    its batch or the worker process that ran it.
    """
    try:
        return (True, _run_one(engine, request))
    except Exception as exc:  # noqa: BLE001 - one request must not fail the batch
        return (False, exc)


def _request_task(token: str, request: IQRequest) -> "tuple[bool, IQResult | Exception]":
    """Worker task: one request's outcome, its error made safe to pickle."""
    engine = _POOL_ENGINES.get(token)  # repro: noqa[RPR008] (fork channel: set pre-fork, read-only here)
    if engine is None:
        raise ReproError(
            f"persistent-pool worker has no engine for token {token!r} "
            "(was the pool closed while a batch ran?)"
        )
    ok, value = _run_request(engine, request)
    if not ok:
        value = _sanitize_error(value)
    return ok, value


class PersistentPool:
    """A long-lived worker pool bound to one engine's index.

    Parameters
    ----------
    engine:
        The :class:`~repro.core.engine.ImprovementQueryEngine` whose
        index the workers hold.  The pool observes the index's mutation
        epoch: mutating the index (directly or through the engine
        wrappers) invalidates the current fork generation, and the next
        :meth:`run` transparently re-forks before serving.
    workers:
        Pool size, resolved through
        :func:`~repro.parallel.pool.resolve_workers` (``None`` = 0);
        below 2 (or on a platform without fork) the pool runs every
        request in-process, through the runner a worker task calls.

    Every fork generation starts from a warm index: the prefix table
    that :meth:`~repro.core.subdomain.SubdomainIndex.kth_other` reads is
    built once before forking, so workers inherit it instead of each
    ranking the shared prefixes on first use.

    The pool is a context manager; :meth:`close` (or leaving the
    ``with`` block) shuts the workers down.  :meth:`run` is not
    reentrant — one batch at a time.
    """

    def __init__(
        self,
        engine: "ImprovementQueryEngine",
        workers: "int | str | None" = None,
    ) -> None:
        self._engine = engine
        self._workers = resolve_workers(workers)
        self._forked = self._workers >= 2 and pool_start_method() == "fork"
        self._token = f"repro-pool-{os.getpid()}-{id(self):x}"
        self._executor: "ProcessPoolExecutor | None" = None
        self._epoch = -1
        self._lock = threading.Lock()
        self._closed = False
        self.generation = 0  #: fork generations started (bumps on refresh)
        self.restarts = 0  #: refreshes forced by worker crashes
        self._start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def engine(self) -> "ImprovementQueryEngine":
        """The engine this pool was created for."""
        return self._engine

    @property
    def workers(self) -> int:
        """Resolved worker count (0/1 = in-process serial reference)."""
        return self._workers

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def stale(self) -> bool:
        """True when the index mutated after the current fork generation.

        The next :meth:`run` refreshes a stale pool automatically; the
        flag exists so callers (and the serving layer's stats) can
        observe that an invalidation happened.
        """
        return self._epoch != self._engine.index.epoch

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Begin a fork generation: warm the index, park the engine, fork.

        A failure while creating the executor unregisters the engine
        before re-raising, so a half-started pool leaves nothing behind.
        """
        index = self._engine.index
        self._epoch = index.epoch
        self.generation += 1
        index._prefix_rows()  # the prefix table kth_other reads, ranked in one pass
        if not self._forked:
            return
        _POOL_ENGINES[self._token] = self._engine
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers, mp_context=get_context("fork")
            )
        except BaseException:
            self._teardown()
            raise

    def _teardown(self) -> None:
        """End the current fork generation."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        _POOL_ENGINES.pop(self._token, None)

    def refresh(self) -> None:
        """Tear down and re-fork against the engine's *current* index."""
        if self._closed:
            raise ReproError("cannot refresh a closed PersistentPool")
        self._teardown()
        self._start()

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._teardown()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter teardown
            pass

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, requests: "Sequence[IQRequest]") -> "list[IQResult]":
        """Evaluate a batch, results in request order (the run_batch contract).

        The first failed request's error re-raises — matching the
        serial loop, which stops at the first failure — but the pool
        itself survives and stays warm for the next batch.
        """
        outcomes = self.run_outcomes(requests)
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for __, value in outcomes]

    def run_outcomes(
        self, requests: "Sequence[IQRequest]"
    ) -> "list[tuple[bool, IQResult | Exception]]":
        """Evaluate a batch, capturing each request's outcome individually.

        Returns one ``(ok, value)`` pair per request, in request order:
        ``(True, IQResult)`` on success, ``(False, exception)`` on a
        per-request failure.  This is the serving layer's entry point —
        one poisoned request must produce one error *response*, not a
        failed batch.
        """
        batch = tuple(requests)
        _validate_requests(batch)
        if self._closed:
            raise ReproError("PersistentPool is closed")
        if not self._lock.acquire(blocking=False):
            raise ReproError("PersistentPool.run is not reentrant: a batch is running")
        try:
            if self.stale:
                # Epoch moved: the forked workers hold a pre-mutation
                # index.  Re-fork rather than serve stale answers.
                self.refresh()
            if not batch:
                return []
            if not self._forked:
                return [_run_request(self._engine, request) for request in batch]
            try:
                return self._dispatch(batch)
            except BrokenProcessPool:
                # A worker died mid-batch (OOM kill, signal, hard
                # crash).  Re-fork once and retry the whole batch —
                # requests are read-only so replaying is safe.
                self.restarts += 1
                self.refresh()
                try:
                    return self._dispatch(batch)
                except BrokenProcessPool as exc:
                    raise ReproError(
                        "persistent pool workers died twice running one batch; "
                        "giving up (is the host out of memory?)"
                    ) from exc
        finally:
            self._lock.release()

    def _dispatch(
        self, batch: "tuple[IQRequest, ...]"
    ) -> "list[tuple[bool, IQResult | Exception]]":
        if self._executor is None:  # pragma: no cover - guarded by _forked
            raise ReproError("persistent pool has no executor")
        futures = [
            self._executor.submit(_request_task, self._token, request) for request in batch
        ]
        return [future.result() for future in futures]
