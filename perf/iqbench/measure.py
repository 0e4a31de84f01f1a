"""Percentiles, host description and peak memory."""

from __future__ import annotations

import importlib.util
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import Sequence

import numpy as np

#: The clock every timing in the benchmark reads (CLOCK_MONOTONIC on
#: Linux, so readings from forked pool workers are comparable).
clock = time.perf_counter

#: Tail levels in per-mille, highest first.
TAIL_LEVELS = (999, 990, 950, 900, 750, 500)

#: A tail is reported only when at least this many samples lie beyond it.
BEYOND = 10

#: Guaranteed samples per block of a tail estimate (see :func:`tail`).
#: Blocks of 40-99 put the tail at p75.  Over ten seeds, restated p75
#: tails of the library workloads spread 2-11%, p90 tails (blocks of
#: 100) 4-26%: a p90 tail holds fewer samples, and more of those whose
#: speed factor was misjudged.
BLOCK = 40

#: Environment variables pinning native thread pools to one thread.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def tail_level(count: int) -> float:
    """The highest tail level (percent) with ``BEYOND`` samples past it.

    Raises :class:`ValueError` when ``count`` supports no level at all.
    """
    for per_mille in TAIL_LEVELS:
        if count * (1000 - per_mille) >= BEYOND * 1000:
            return per_mille / 10
    raise ValueError(f"{count} samples support no tail level ({BEYOND} must lie beyond)")


def percentile(samples: "Sequence[float]", level: float) -> float:
    """The ``level`` percentile (linear interpolation)."""
    if len(samples) == 0:
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), level))


def tail(samples: "list[float]") -> "tuple[float, float]":
    """``(level, value)`` of a latency tail, robust to bursts of host load.

    The series is cut into ``len(samples) // BLOCK`` chronological blocks
    (at least one).  Each block's tail is taken at the highest level its
    share of samples supports (p75 for 40-99), and the value is the median
    over blocks, so a burst of co-tenant load that slows one stretch of
    the run does not move it.  A run's operation count is fixed by its
    length in seconds, not by how fast the program was, so a faster
    program is not judged at a higher percentile.
    """
    blocks = max(1, len(samples) // BLOCK)
    level = tail_level(len(samples) // blocks)
    chunks = np.array_split(np.asarray(samples, dtype=float), blocks)
    return level, median([percentile(chunk, level) for chunk in chunks])


def median(samples: "list[float]") -> float:
    return float(statistics.median(samples))



def host() -> dict:
    """What the numbers depend on: cpus, numba, versions, thread pins."""
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {name: os.environ.get(name, "") for name in THREAD_PINS},
    }


def host_key(info: dict) -> tuple:
    """The part of :func:`host` that records must share to be compared."""
    return (info["cpus"], info["numba"], tuple(sorted(info["threads"].items())))


def _vm_hwm_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _child_pids() -> "list[int]":
    pids: "list[int]" = []
    for task in Path("/proc/self/task").iterdir():
        text = (task / "children").read_text().split()
        pids.extend(int(pid) for pid in text)
    return pids


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children, in MB.

    Children are read from ``/proc`` while they run, so call this before
    closing a worker pool.  Pages a forked child shares with its parent
    count once per process.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        for pid in _child_pids():
            try:
                total_kb += _vm_hwm_kb(pid)
            except OSError:
                continue  # the child exited between listing and reading
    except OSError:
        pass  # no /proc: children are not counted
    return total_kb / 1024.0
