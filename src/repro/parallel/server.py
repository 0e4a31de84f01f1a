"""The batched IQ serving front end (``repro serve``).

This is what the persistent pool was built for: a long-lived process
that holds one built index and answers a *stream* of improvement
queries.  The protocol is JSONL — one JSON object per line in, one per
line out — so any client that can write lines to a pipe (or a socket
wired to stdio) can drive it:

Request lines::

    {"id": 7, "kind": "min_cost", "target": 3, "goal": 25}
    {"id": 8, "kind": "max_hit", "target": 3, "goal": 1.5,
     "method": "random", "options": {"seed": 0}}

``options`` may hold only the keyword options the named solver declares
(:func:`~repro.core.solvers.check_options`), each of the right type and
range; anything else is answered with a ``ValidationError``.

Control lines::

    {"op": "stats"}      -> one stats snapshot line
    {"op": "shutdown"}   -> drain queued requests, then exit

Response lines (one per request, batch order)::

    {"id": 7, "ok": true, "result": {"target": 3, "hits_before": 1, ...}}
    {"id": 8, "ok": false, "error": "ValidationError: ..."}

Mechanics:

* **batching/coalescing** — a reader thread parses and enqueues
  requests while the main loop drains up to ``batch_size`` of them per
  dispatch; the pool runs each request of that batch as its own task,
  and the batch's responses are written in request order;
* **bounded admission** — the queue holds at most ``max_queue``
  requests; arrivals beyond that are *rejected immediately* with an
  error response rather than buffered without bound;
* **graceful shutdown** — EOF or ``{"op": "shutdown"}`` stops
  admission, drains the queue, and returns final
  :class:`ServerStats`; worker crashes are absorbed by the pool's
  refresh-and-retry and surface in ``stats.restarts``;
* **epoch checks** — dispatch goes through
  :meth:`~repro.parallel.persistent.PersistentPool.run_outcomes`,
  which re-forks on index mutation, so the server can never answer
  from a stale index; refreshes surface in ``stats.refreshes``.

Costs and strategy spaces are not expressible in the wire format yet;
requests use the engine's defaults (L2 cost, unconstrained space).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Protocol

from repro.errors import ReproError, ValidationError
from repro.observe import now
from repro.parallel.batch import IQRequest, _validate_requests
from repro.parallel.persistent import PersistentPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.results import IQResult

__all__ = ["DEFAULT_BATCH_SIZE", "DEFAULT_MAX_QUEUE", "IQServer", "ServerStats", "serve_stream"]

#: Requests coalesced into one pool dispatch (upper bound per batch).
DEFAULT_BATCH_SIZE = 32

#: Admission bound: parsed requests waiting for dispatch beyond this
#: are rejected with an error response instead of queued.
DEFAULT_MAX_QUEUE = 256


class _Writer(Protocol):
    """Anything response lines can be written to (stdout, StringIO, socket file)."""

    def write(self, text: str) -> int: ...

    def flush(self) -> None: ...


@dataclass
class ServerStats:
    """One serve session's counters (returned by :meth:`IQServer.serve`)."""

    served: int = 0  #: successful responses emitted
    failed: int = 0  #: error responses (parse, validation, or execution)
    rejected: int = 0  #: admission rejections (queue full)
    batches: int = 0  #: pool dispatches
    refreshes: int = 0  #: pool re-forks observed (epoch invalidations)
    restarts: int = 0  #: pool re-forks forced by worker crashes
    seconds: float = 0.0  #: wall-clock time of the serve session (so far)
    dispatch_seconds: float = 0.0  #: wall-clock spent inside pool dispatches
    workers: int = 0  #: resolved pool size (0/1 = serial reference)

    @property
    def throughput(self) -> float:
        """Successful responses per second of serve wall-clock."""
        if self.seconds <= 0.0:
            return 0.0
        return self.served / self.seconds

    @property
    def avg_request_seconds(self) -> float:
        """Mean pool-dispatch wall-clock per successful response."""
        if self.served <= 0:
            return 0.0
        return self.dispatch_seconds / self.served

    def as_dict(self) -> "dict[str, object]":
        """JSON-ready snapshot (what the ``stats`` control op reports)."""
        payload: "dict[str, object]" = dict(asdict(self))
        payload["throughput"] = self.throughput
        payload["avg_request_seconds"] = self.avg_request_seconds
        return payload


@dataclass(frozen=True)
class _Pending:
    """One admitted request waiting for dispatch."""

    request_id: object
    request: IQRequest


def _parse_request(payload: "dict[str, object]") -> IQRequest:
    """Build and validate the IQRequest one protocol line describes."""
    kind = payload.get("kind")
    if not isinstance(kind, str):
        raise ValidationError("request needs a string 'kind' (min_cost | max_hit)")
    target = payload.get("target")
    if isinstance(target, bool) or not isinstance(target, int):
        raise ValidationError("request needs an integer 'target'")
    goal = payload.get("goal")
    if isinstance(goal, bool) or not isinstance(goal, (int, float)):
        raise ValidationError("request needs a numeric 'goal' (tau or budget)")
    method = payload.get("method", "efficient")
    if not isinstance(method, str):
        raise ValidationError("request 'method' must be a solver name string")
    raw_options = payload.get("options", None)
    options: "tuple[tuple[str, object], ...]" = ()
    if raw_options is not None:
        if not isinstance(raw_options, dict):
            raise ValidationError("request 'options' must be a JSON object")
        options = tuple(sorted(raw_options.items()))
    request = IQRequest(kind=kind, target=target, goal=goal, method=method, options=options)
    # Per-request validation at admission time: a bad kind, an unknown
    # method or a goal out of float range must produce one error
    # *response*, not poison a batch or end the stream.
    _validate_requests((request,))
    return request


def _result_payload(result: "IQResult") -> "dict[str, object]":
    return {
        "target": result.target,
        "strategy": [float(delta) for delta in result.strategy.vector],
        "hits_before": result.hits_before,
        "hits_after": result.hits_after,
        "total_cost": float(result.total_cost),
        "satisfied": result.satisfied,
        "evaluations": result.evaluations,
    }


class IQServer:
    """A JSONL improvement-query server over one persistent pool.

    The server borrows the pool — it never closes it — so one pool can
    outlive many serve sessions (and the CLI owns its pool's lifetime
    with an ordinary ``with`` block).  :meth:`serve` blocks until the
    request stream ends and is not reentrant.
    """

    #: Seconds :meth:`serve` waits for the reader thread after the
    #: dispatch loop ends; a reader wedged in blocking input past this
    #: is abandoned (daemon) rather than wedging the pool shutdown.
    READER_JOIN_GRACE = 5.0

    def __init__(
        self,
        pool: PersistentPool,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ) -> None:
        if batch_size < 1:
            raise ValidationError(f"batch_size must be positive, got {batch_size}")
        if max_queue < 1:
            raise ValidationError(f"max_queue must be positive, got {max_queue}")
        self._pool = pool
        self._batch_size = batch_size
        self._max_queue = max_queue
        self._queue: "deque[_Pending]" = deque()
        self._cond = threading.Condition()
        self._write_lock = threading.Lock()
        self._writer: "_Writer | None" = None
        self._done = False
        self._serving = False
        self._stats = ServerStats()
        self._started: "float | None" = None
        self._reader_error: "Exception | None" = None

    @property
    def pool(self) -> PersistentPool:
        return self._pool

    # ------------------------------------------------------------------
    # Response emission (reader thread and main loop both emit)
    # ------------------------------------------------------------------
    def _emit(self, payload: "dict[str, object]") -> None:
        writer = self._writer
        if writer is None:  # pragma: no cover - serve() always binds first
            raise ReproError("IQServer has no response writer bound")
        with self._write_lock:
            # The write lock exists to serialize exactly this I/O: the
            # reader thread and the dispatch loop interleave responses.
            writer.write(json.dumps(payload) + "\n")  # repro: noqa[RPR011]
            writer.flush()  # repro: noqa[RPR011]

    def _emit_error(self, request_id: object, error: Exception) -> None:
        self._emit(
            {"id": request_id, "ok": False, "error": f"{type(error).__name__}: {error}"}
        )

    # ------------------------------------------------------------------
    # Reader thread: parse, admit or reject, answer control ops
    # ------------------------------------------------------------------
    def _read_loop(self, reader: "Iterable[str]") -> None:
        """Reader-thread body: parse lines until EOF, shutdown, or failure.

        A reader that *dies* (broken pipe, a writer whose far end
        vanished mid-response, a poisoned iterable) must not take the
        responses it already owed silently with it: the exception is
        captured for :meth:`serve` to surface after the queue drains,
        and ``_done`` is always signalled so the dispatch loop can
        finish instead of waiting forever.
        """
        try:
            for line in reader:
                if self._done:
                    break  # dispatch loop failed: stop consuming input
                text = line.strip()
                if not text:
                    continue
                if self._handle_line(text):
                    break
        except Exception as exc:  # noqa: BLE001 - surfaced by serve() after drain
            self._reader_error = exc
        finally:
            with self._cond:
                self._done = True
                self._cond.notify_all()

    def _handle_line(self, text: str) -> bool:
        """Process one protocol line; True means stop reading (shutdown)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            self._stats.failed += 1
            self._emit_error(None, ValidationError(f"invalid JSON request: {exc}"))
            return False
        if not isinstance(payload, dict):
            self._stats.failed += 1
            self._emit_error(None, ValidationError("request must be a JSON object"))
            return False
        op = payload.get("op")
        if op == "shutdown":
            self._emit({"ok": True, "op": "shutdown", "draining": len(self._queue)})
            return True
        if op == "stats":
            snapshot = self._snapshot_stats().as_dict()
            snapshot["queued"] = len(self._queue)
            self._emit({"ok": True, "op": "stats", "stats": snapshot})
            return False
        if op is not None:
            self._stats.failed += 1
            self._emit_error(payload.get("id"), ValidationError(f"unknown op {op!r}"))
            return False
        request_id = payload.get("id")
        try:
            request = _parse_request(payload)
        except ReproError as exc:
            self._stats.failed += 1
            self._emit_error(request_id, exc)
            return False
        # Decide admission under the lock; emit the rejection after
        # releasing it.  The rejection response is pipe I/O, and writing
        # it while holding the admission lock would stall the dispatch
        # loop (and every other producer) on one slow client (RPR011).
        rejected = False
        with self._cond:
            if len(self._queue) >= self._max_queue:
                self._stats.rejected += 1
                rejected = True
            else:
                self._queue.append(_Pending(request_id, request))
                self._cond.notify_all()
        if rejected:
            self._emit_error(
                request_id,
                ReproError(
                    f"server queue full ({self._max_queue} requests pending); "
                    "retry after responses drain"
                ),
            )
        return False

    # ------------------------------------------------------------------
    # Main loop: coalesce and dispatch
    # ------------------------------------------------------------------
    def _next_batch(self) -> "list[_Pending]":
        with self._cond:
            while not self._queue and not self._done:
                self._cond.wait()
            batch: "list[_Pending]" = []
            while self._queue and len(batch) < self._batch_size:
                batch.append(self._queue.popleft())
            return batch

    def _snapshot_stats(self) -> ServerStats:
        """A stats copy with ``seconds`` computed *now*, not at stream end.

        The reader thread answers mid-stream ``stats`` ops from this
        snapshot; mutating ``self._stats.seconds`` here instead would
        race the dispatch loop's counters, and the stale field was
        exactly the bug — zero elapsed time (and a zeroed throughput)
        until the stream ended.
        """
        stats = replace(self._stats)
        if self._serving and self._started is not None:
            stats.seconds = now() - self._started
        return stats

    def _serve_batch(self, batch: "list[_Pending]") -> None:
        self._stats.batches += 1
        generation = self._pool.generation
        restarts = self._pool.restarts
        dispatched = now()
        try:
            outcomes = self._pool.run_outcomes([item.request for item in batch])
        except ReproError as exc:
            # The whole dispatch failed (e.g. workers died twice): every
            # request of the batch gets an error response, the stream
            # keeps serving.
            self._stats.failed += len(batch)
            for item in batch:
                self._emit_error(item.request_id, exc)
            return
        finally:
            self._stats.dispatch_seconds += now() - dispatched
            self._stats.restarts += self._pool.restarts - restarts
            self._stats.refreshes += self._pool.generation - generation
        for item, (ok, value) in zip(batch, outcomes):
            if ok:
                self._stats.served += 1
                self._emit(
                    {
                        "id": item.request_id,
                        "ok": True,
                        "result": _result_payload(value),  # type: ignore[arg-type]
                    }
                )
            else:
                self._stats.failed += 1
                if isinstance(value, Exception):
                    self._emit_error(item.request_id, value)
                else:  # pragma: no cover - outcomes carry exceptions on failure
                    self._emit_error(item.request_id, ReproError(repr(value)))

    def serve(self, reader: "Iterable[str]", writer: _Writer) -> ServerStats:
        """Serve a JSONL request stream until EOF or shutdown; blocking.

        Returns the session's :class:`ServerStats` (also the value a
        trailing ``{"op": "stats"}`` request would have reported, plus
        final wall-clock and throughput).
        """
        if self._serving:
            raise ReproError("IQServer.serve is not reentrant: a stream is being served")
        self._serving = True
        self._stats = ServerStats(workers=self._pool.workers)
        self._writer = writer
        self._done = False
        self._reader_error = None
        self._queue.clear()
        self._started = started = now()
        thread = threading.Thread(target=self._read_loop, args=(reader,), daemon=True)
        thread.start()
        try:
            while True:
                batch = self._next_batch()
                if not batch:
                    break  # queue empty and reader done: drained
                self._serve_batch(batch)
        finally:
            # Signal the reader first: if the dispatch loop is exiting
            # on an exception, the reader must stop admitting work.  A
            # reader blocked inside ``next(reader)`` (a pipe with no
            # more input ever coming) cannot be interrupted, so the
            # join is bounded — the daemon thread dies with the
            # process instead of wedging the caller's finally blocks
            # (and the pool shutdown behind them) forever.
            with self._cond:
                self._done = True
                self._cond.notify_all()
            thread.join(timeout=self.READER_JOIN_GRACE)
            self._stats.seconds = now() - started
            self._serving = False
        if self._reader_error is not None:
            raise ReproError(
                f"server request reader failed mid-stream: "
                f"{type(self._reader_error).__name__}: {self._reader_error}"
            ) from self._reader_error
        return self._stats


def serve_stream(
    engine: "ImprovementQueryEngine",
    reader: "Iterable[str]",
    writer: _Writer,
    workers: "int | str | None" = None,
    pool: "PersistentPool | None" = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
    max_queue: int = DEFAULT_MAX_QUEUE,
) -> ServerStats:
    """Serve one JSONL stream for ``engine``; the CLI/bench entry point.

    With ``pool=`` the caller's pool is borrowed (and left open);
    otherwise a :class:`PersistentPool` is created for the session and
    closed when the stream ends.
    """
    if pool is not None:
        if pool.engine is not engine:
            raise ValidationError("pool was created for a different engine")
        return IQServer(pool, batch_size=batch_size, max_queue=max_queue).serve(
            reader, writer
        )
    with PersistentPool(engine, workers=workers) as owned:
        return IQServer(owned, batch_size=batch_size, max_queue=max_queue).serve(
            reader, writer
        )
