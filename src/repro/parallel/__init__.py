"""The parallel execution layer: forked worker pools over one index.

Every use of :mod:`multiprocessing` / :mod:`concurrent.futures` in the
project lives inside this package (lint rule RPR007 enforces it), so
pool lifecycle and platform quirks are handled in exactly one place.
Index construction is not among them: the vectorized serial build in
:mod:`repro.core.subdomain` beat a 2-worker construction pool at every
measured size on a 2-CPU host.  The integrated pieces:

* :mod:`repro.parallel.batch` — the batch request type and the serial
  reference loop over many Min-Cost / Max-Hit calls (many targets, or
  one target under many goals, as in the paper's experiment grids).
* :mod:`repro.parallel.persistent` — the persistent worker pool:
  workers forked *once* holding the built index (its pages shared
  copy-on-write with the parent), alive across batches, each request
  its own task, with epoch-based invalidation and crash recovery.
  It runs repeated batches against one index.
* :mod:`repro.parallel.server` — the batched IQ serving front end over
  a persistent pool: JSONL request streams with coalescing, bounded
  admission, and graceful shutdown (``repro serve``).
* :mod:`repro.parallel.pool` — worker-count resolution and the start
  method.

Worker-count resolution is uniform everywhere (:func:`resolve_workers`):
only an explicit ``workers=`` argument sizes a pool (``auto`` = all
cores), and ``None`` or values below 2 select the serial reference
path.  The serial implementations remain the default and the
executable specification; the parallel paths must produce bit-for-bit
identical results (the parity tests and ``repro check`` assert it).
"""

from __future__ import annotations

from repro.parallel.batch import IQRequest, run_batch
from repro.parallel.persistent import PersistentPool
from repro.parallel.pool import pool_start_method, resolve_workers
from repro.parallel.server import IQServer, ServerStats, serve_stream

__all__ = [
    "IQRequest",
    "IQServer",
    "PersistentPool",
    "ServerStats",
    "pool_start_method",
    "resolve_workers",
    "run_batch",
    "serve_stream",
]
