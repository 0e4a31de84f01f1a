"""Runtime observability: stage timing and work counters.

This package is the *only* place in the library allowed to read the
process's monotonic wall clock (lint rule **RPR014**): every other
module that wants a
timestamp — the bench harness, the serving front end, the engine's
``EXPLAIN ANALYZE`` path — imports :mod:`repro.observe.clock` instead
of calling :func:`time.perf_counter` directly.  Confined timing is what
makes the "analyzed runs are byte-identical to plain runs" contract
checkable: the instrumentation can only ever *read the clock and count*,
never touch solver state.

Layers, bottom to top:

* :mod:`repro.observe.clock` — the clock itself (``now``, ``Stopwatch``,
  ``time_call``).
* :mod:`repro.observe.stats` — the ambient :class:`StageRecorder`:
  solver hot paths mark stages (``plan``/``candidates``/``evaluate``/
  ``solve``) and bump counters through module functions that are no-ops
  unless a recorder was activated with :func:`observing`.
"""

from repro.observe.clock import Stopwatch, now, time_call
from repro.observe.stats import (
    COUNTERS,
    STAGES,
    StageRecorder,
    observing,
    stage,
    tally,
)

__all__ = [
    "COUNTERS",
    "STAGES",
    "StageRecorder",
    "Stopwatch",
    "now",
    "observing",
    "stage",
    "tally",
    "time_call",
]
