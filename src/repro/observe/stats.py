"""The ambient stage recorder behind ``EXPLAIN ANALYZE``.

Instrumentation sites in the solver hot paths (the engine's plan step,
candidate generation, hit evaluation, the greedy loops) call
:func:`stage` and :func:`tally` unconditionally.  Both consult the
module-global *active recorder*:

* **inactive** (the default, every plain query) — :func:`stage` returns
  a shared no-op context manager and :func:`tally` returns immediately,
  so instrumentation costs one global read on the hot path and records
  nothing;
* **active** (inside ``engine.analyze`` / ``EXPLAIN ANALYZE``) — stage
  wall-clock and counters accumulate into the
  :class:`StageRecorder` installed by :func:`observing`.

The recorder only ever *reads the clock and counts* — it has no access
to solver state — which is the structural argument (enforced end to end
by every ``repro check`` run) that analyzed runs are byte-identical to
plain runs.

Stages nest: candidate generation scores its batch with the evaluator,
so ``evaluate`` seconds accumulated inside that call are *also* part of
``candidates`` seconds.  Per-stage numbers are honest wall-clock per
instrumented region, not an exclusive-time partition of the run.

The active recorder is process-global and not re-entrant across
threads: ``analyze`` is the engine's serial API (pool workers are
separate processes and never observe the parent's recorder).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.observe.clock import now

__all__ = ["COUNTERS", "STAGES", "StageRecorder", "observing", "stage", "tally"]

#: The instrumented phases, in execution order.  ``plan`` is the plan
#: step (solver resolution, boundary internalization, index snapshot);
#: ``candidates`` is Eq. 13-14 candidate generation; ``evaluate`` is
#: ESE/RTA hit evaluation; ``solve`` is the whole solver run.
STAGES = ("plan", "candidates", "evaluate", "solve")

#: The tallied work counters: candidate strategies generated, full hit
#: evaluations performed, candidates whose hit bound spared them their
#: evaluation, greedy iterations applied.
COUNTERS = ("candidates", "evaluations", "pruned", "iterations")


@dataclass
class StageRecorder:
    """Accumulated per-stage wall-clock and work counters for one run."""

    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add_seconds(self, name: str, elapsed: float) -> None:
        """Accumulate ``elapsed`` wall-clock seconds onto stage ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed

    def add_count(self, name: str, n: int) -> None:
        """Add ``n`` to the work counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

    def stage_seconds(self, name: str) -> float:
        """Total seconds recorded for stage ``name`` (0.0 if never entered)."""
        return self.seconds.get(name, 0.0)

    def count(self, name: str) -> int:
        """Value of counter ``name`` (0 if never bumped)."""
        return self.counts.get(name, 0)


#: The active recorder; ``None`` keeps every instrumentation site a no-op.
_ACTIVE: StageRecorder | None = None


class _NullStage:
    """Shared do-nothing context manager for the inactive path."""

    __slots__ = ()

    def __enter__(self) -> "_NullStage":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


class _Stage:
    """One timed region attributed to a named stage of a recorder."""

    __slots__ = ("_recorder", "_name", "_started")

    def __init__(self, recorder: StageRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_Stage":
        self._started = now()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._recorder.add_seconds(self._name, now() - self._started)
        return False


_NULL = _NullStage()


def stage(name: str) -> "_Stage | _NullStage":
    """Context manager timing a region under ``name`` (no-op when inactive)."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL
    return _Stage(recorder, name)


def tally(name: str, n: int = 1) -> None:
    """Bump the active recorder's ``name`` counter (no-op when inactive)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.add_count(name, n)


@contextmanager
def observing(recorder: StageRecorder) -> Iterator[StageRecorder]:
    """Install ``recorder`` as the active recorder for the block.

    Nesting restores the previous recorder on exit, so an analyzed call
    inside an already-observed region attributes its stages to the inner
    recorder only.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    try:
        yield recorder
    finally:
        _ACTIVE = previous
