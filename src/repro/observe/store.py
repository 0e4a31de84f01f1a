"""The persisted runtime-stats store of ``EXPLAIN ANALYZE`` runs.

Every ``EXPLAIN ANALYZE`` run records one entry — solver method, total
seconds, evaluation count — under a *workload
fingerprint*: the query kind plus the index's mode, sense,
dimensionality, and size buckets.  Sizes are bucketed to powers of two
so a 24-object workload and a 30-object workload share stats, while a
10x larger one does not.

The store is JSON on disk when constructed with a path (CLI ``--stats``
or the ``REPRO_STATS`` environment variable) and memory-only otherwise.
A path holding anything but a stats file this module wrote is refused
with :class:`~repro.errors.ValidationError` and left untouched.  Samples
per (fingerprint, method) are capped at :data:`MAX_SAMPLES`, keeping
the newest, so the file tracks the current machine rather than its
whole history.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Protocol

from repro.errors import ValidationError
from repro.index.mmapio import replace_file

__all__ = [
    "MAX_SAMPLES",
    "STATS_SCHEMA",
    "StatsStore",
    "configure_store",
    "default_store",
    "workload_fingerprint",
]

#: Schema tag written into every persisted stats file.
STATS_SCHEMA = "repro-stats/1"

#: Newest samples kept per (fingerprint, method).
MAX_SAMPLES = 32

#: Environment variable naming the default store's JSON path.
STATS_ENV = "REPRO_STATS"


class _DatasetLike(Protocol):  # pragma: no cover - typing only
    n: int
    dim: int
    sense: str


class _IndexLike(Protocol):  # pragma: no cover - typing only
    @property
    def dataset(self) -> _DatasetLike: ...

    @property
    def mode(self) -> str: ...


def _bucket(count: int) -> int:
    """Smallest power of two >= count (0 and 1 map to themselves)."""
    if count <= 1:
        return max(count, 0)
    return 1 << (count - 1).bit_length()


def workload_fingerprint(index: _IndexLike, kind: str) -> str:
    """The stats-store key for one query kind against one index shape.

    Deliberately excludes the solver method — the dimension being
    compared under the key — and the index epoch: mutations move
    answers, not the relative cost of the processing schemes.
    """
    dataset = index.dataset
    queries = index.queries  # type: ignore[attr-defined]
    return (
        f"kind={kind}|mode={index.mode}|sense={dataset.sense}"
        f"|d={dataset.dim}|n={_bucket(dataset.n)}|m={_bucket(queries.m)}"
    )


class StatsStore:
    """Recorded analyzed-run samples, keyed by workload fingerprint.

    Thread-safe for the serving layer (a reader thread and a dispatch
    loop may both touch the process-default store); persistence is
    explicit via :meth:`save` and automatic after every :meth:`record`
    when the store has a path.
    """

    def __init__(self, path: "str | os.PathLike[str] | None" = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._lock = threading.Lock()
        self._workloads: dict[str, dict[str, list[dict[str, Any]]]] = {}
        if self.path is not None and os.path.exists(self.path):
            self._load(self.path)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _load(self, path: str) -> None:
        """Read a stats file, refusing anything this module did not write.

        A foreign or damaged file raises before the store holds a path
        it could save over, so the file stays byte-identical.
        """
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"cannot read stats file {path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("schema") != STATS_SCHEMA:
            raise ValidationError(
                f"{path} is not a {STATS_SCHEMA} stats file; "
                f"refusing to read or overwrite it"
            )
        workloads = payload.get("workloads", {})
        well_formed = isinstance(workloads, dict) and all(
            isinstance(methods, dict)
            and all(
                isinstance(samples, list) and all(isinstance(x, dict) for x in samples)
                for samples in methods.values()
            )
            for methods in workloads.values()
        )
        if not well_formed:
            raise ValidationError(
                f"stats file {path} is malformed: 'workloads' must map "
                f"fingerprint -> method -> list of sample objects"
            )
        self._workloads = {
            fingerprint: {
                method: [dict(sample) for sample in samples][-MAX_SAMPLES:]
                for method, samples in methods.items()
            }
            for fingerprint, methods in workloads.items()
        }

    def save(self) -> None:
        """Write the store to its path (no-op for memory-only stores).

        Writes a temporary file and renames it into place, so an
        interrupted save never leaves a truncated stats file.
        """
        if self.path is None:
            return
        # Snapshot under the lock, write after release (RPR011): file
        # I/O must not stall a serving thread recording a run.
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"
        replace_file(Path(self.path), lambda handle: handle.write(text.encode("utf-8")))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot (what :meth:`save` persists)."""
        with self._lock:
            return {
                "schema": STATS_SCHEMA,
                "workloads": {
                    fingerprint: {m: list(s) for m, s in methods.items()}
                    for fingerprint, methods in self._workloads.items()
                },
            }

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, plan: Any) -> None:
        """Record one analyzed run (an ``ExecutedPlan``) and persist.

        Accepts any object with the executed-plan surface (duck-typed so
        this layer never imports :mod:`repro.core`): ``fingerprint``,
        ``solver_name``, ``total_seconds``, ``evaluations``.  Samples
        read from a file written by an older version may carry other
        keys; they are kept as read.
        """
        fingerprint = str(plan.fingerprint)
        if not fingerprint:
            return
        sample = {
            "seconds": float(plan.total_seconds),
            "evaluations": int(plan.evaluations),
        }
        with self._lock:
            methods = self._workloads.setdefault(fingerprint, {})
            samples = methods.setdefault(str(plan.solver_name), [])
            samples.append(sample)
            del samples[:-MAX_SAMPLES]
        self.save()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def fingerprints(self) -> list[str]:
        """Sorted workload fingerprints with at least one recorded run."""
        with self._lock:
            return sorted(self._workloads)

    def samples(self, fingerprint: str) -> dict[str, list[dict[str, Any]]]:
        """Per-method sample lists recorded under ``fingerprint``."""
        with self._lock:
            methods = self._workloads.get(fingerprint, {})
            return {method: list(samples) for method, samples in methods.items()}


#: Process-default store, created lazily from ``REPRO_STATS``.
_DEFAULT: StatsStore | None = None


def default_store() -> StatsStore:
    """The process-default stats store (memory-only without ``REPRO_STATS``)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = StatsStore(os.environ.get(STATS_ENV) or None)
    return _DEFAULT


def configure_store(path: "str | os.PathLike[str] | None") -> StatsStore:
    """Rebind the process-default store (CLI ``--stats``); returns it."""
    global _DEFAULT
    _DEFAULT = StatsStore(path)
    return _DEFAULT
