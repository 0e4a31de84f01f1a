"""Worker-count resolution and pool/start-method helpers.

Every parallel entry point resolves its worker count through
:func:`resolve_workers` so the precedence is uniform project-wide: an
explicit ``workers=`` argument wins, the ``REPRO_WORKERS`` environment
variable is the ambient default, and anything below 2 selects the
serial reference path.
"""

from __future__ import annotations

import multiprocessing
import os

from repro.errors import ValidationError

__all__ = ["WORKERS_ENV", "pool_start_method", "resolve_workers"]

#: Environment variable consulted when no explicit ``workers=`` is given.
WORKERS_ENV = "REPRO_WORKERS"


def _cpu_ceiling() -> int:
    """The largest worker count that makes sense on this host.

    ``os.cpu_count()`` capped from below at 2: an *explicit* request for
    parallelism on a small host still exercises the pool (and all its
    parity guarantees) instead of silently degrading to the serial path.
    """
    return max(2, os.cpu_count() or 1)


def resolve_workers(workers: "int | str | None" = None) -> int:
    """Resolve the effective worker count.

    Precedence: explicit argument > ``REPRO_WORKERS`` env var > 0
    (serial).  Counts of 0 and 1 mean "run the serial reference path"
    and pass through unchanged; counts of 2 or more are clamped to
    ``os.cpu_count()`` (but never below 2, see :func:`_cpu_ceiling`) so
    an oversized request cannot oversubscribe the host.  The string
    ``"auto"`` (argument or env var) means "all cores"; negative counts
    and any other non-integer raise
    :class:`~repro.errors.ValidationError`.
    """
    source = "workers"
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 0
        workers = raw
        source = WORKERS_ENV
    if isinstance(workers, str):
        text = workers.strip().lower()
        if text == "auto":
            count = os.cpu_count() or 1
            return count if count >= 2 else 0
        try:
            workers = int(text)
        except ValueError as exc:
            raise ValidationError(
                f"{source} must be an integer or 'auto', got {workers!r}"
            ) from exc
    else:
        try:
            workers = int(workers)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"workers must be an integer, got {workers!r}") from exc
    if workers < 0:
        raise ValidationError(f"workers must be non-negative, got {workers}")
    if workers < 2:
        return workers
    return min(workers, _cpu_ceiling())


def pool_start_method() -> str:
    """The start method pools use: ``fork`` when available, else default.

    Fork keeps worker startup cheap and lets the workers share the
    engine by copy-on-write.  On platforms without it (Windows, some
    macOS configs) this returns the platform default, and
    :class:`~repro.parallel.persistent.PersistentPool` runs the serial
    loop instead of a pool.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)
