"""The host's speed, sampled beside the workload, and timings restated at nominal speed.

The benchmark was built on a shared 2-CPU host where each CPU runs, from
one second to the next, either at its usual speed or up to about 2 times
slower, with nothing of ours running.  A co-tenant slows the processor
itself, so thread CPU time stretches as much as wall time does.  Which
state a CPU is in changes every second or so, independently per CPU,
and the share of time spent slow changes from minute to minute: twenty
1-second runs of identical library IQs spread 32-42% in median latency.

:class:`HostSpeed` times :func:`reference`, a fixed kernel that touches
nothing of the program, again and again beside the workload, and keeps
each sample's *factor*: its thread CPU time over ``NOMINAL_REFERENCE_S``.
Thread CPU time leaves out any wait for a processor or for the GIL, so
the program's own threads and processes do not move it.  A timing is
restated at nominal speed by dividing it by the factor around it
(:meth:`HostSpeed.restate`); a throughput by scaling its phase to
nominal seconds (:meth:`HostSpeed.nominal`).  The workloads record the
value as read beside the restated one.
"""

from __future__ import annotations

import math
import os
import time
from typing import Sequence

import numpy as np

from iqbench.measure import clock

#: Seconds of thread CPU time :func:`reference` takes on a CPU of the
#: 2-CPU host the benchmark was built on, running at its usual speed.
NOMINAL_REFERENCE_S = 1.15e-3

#: Wall seconds between two samples inside a timed phase.
SAMPLE_EVERY = 0.05

#: Samples per CPU whose median gives the factor around a moment: with a
#: sample every ``SAMPLE_EVERY`` seconds, about a quarter second each way.
NEAREST = 9

_REFERENCE = np.random.default_rng(0)
_POINTS = _REFERENCE.random((1000, 3))
_WEIGHTS = _REFERENCE.random((8, 3))


def reference() -> float:
    """A fixed mix of interpreted Python and small numpy operations.

    The mix resembles the program's: dictionary and arithmetic byte-codes,
    then small matrix products, partitions and masks.  Its work never
    changes, so its time measures the host alone.
    """
    counts: "dict[int, int]" = {}
    total = 0.0
    for i in range(2000):
        counts[i & 255] = counts.get(i & 255, 0) + i
        total += len(str(i)) * (i % 7)
    for _ in range(40):
        scores = _WEIGHTS @ _POINTS.T
        best = np.argpartition(scores[0], 10)[:10]
        total += float(scores[:, best].sum()) + int((_POINTS[:, 0] > 0.5).sum())
    return total


class HostSpeed:
    """Factors of :func:`reference` samples, per CPU, with their times.

    ``cpus=None`` samples on whichever CPU the calling thread runs, which
    is where a single-threaded workload's operations ran.  Given CPUs,
    each sample pins the calling thread to each of them in turn, for work
    that runs in other processes on any CPU; the factor around a moment is
    then the mean over the CPUs.
    """

    def __init__(self, cpus: "Sequence[int] | None" = None) -> None:
        self.cpus = tuple(cpus) if cpus is not None else None
        self.spent = 0.0  #: wall seconds the samples took
        self._samples: "dict[int | None, tuple[list[float], list[float]]]" = {}
        self._last = -math.inf

    def sample(self) -> None:
        started = clock()
        home = os.sched_getaffinity(0) if self.cpus else None
        try:
            for cpu in self.cpus or (None,):
                if cpu is not None:
                    os.sched_setaffinity(0, {cpu})
                cpu_started = time.thread_time()
                reference()
                self.record(cpu, clock(), (time.thread_time() - cpu_started) / NOMINAL_REFERENCE_S)
        finally:
            if home is not None:
                os.sched_setaffinity(0, home)
        self._last = clock()
        self.spent += self._last - started

    def record(self, cpu: "int | None", when: float, factor: float) -> None:
        times, factors = self._samples.setdefault(cpu, ([], []))
        times.append(when)
        factors.append(factor)

    def tick(self) -> None:
        """Sample when ``SAMPLE_EVERY`` seconds have passed since the last sample."""
        if clock() - self._last >= SAMPLE_EVERY:
            self.sample()

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def factor_at(self, moments: "Sequence[float] | np.ndarray") -> np.ndarray:
        """The factor around each moment: per CPU, the median of the
        ``NEAREST`` samples closest in time; then the mean over CPUs."""
        if not self._samples:
            raise ValueError("no host speed samples")
        moments = np.atleast_1d(np.asarray(moments, dtype=float))
        per_cpu = []
        for times, factors in self._samples.values():
            t, f = np.asarray(times), np.asarray(factors)
            k = min(NEAREST, len(t))
            width = min(2 * k, len(t))
            # The k nearest samples lie in the 2k around the insertion point.
            first = np.clip(np.searchsorted(t, moments) - k, 0, len(t) - width)
            window = first[:, None] + np.arange(width)[None, :]
            nearest = np.argpartition(np.abs(t[window] - moments[:, None]), k - 1, axis=1)[:, :k]
            per_cpu.append(np.median(f[np.take_along_axis(window, nearest, axis=1)], axis=1))
        return np.mean(per_cpu, axis=0)

    def restate(self, starts: "Sequence[float]", latencies: "Sequence[float]") -> np.ndarray:
        """Latencies at nominal speed, each divided by the factor at its midpoint."""
        latencies = np.asarray(latencies, dtype=float)
        if latencies.size == 0:
            return latencies
        return latencies / self.factor_at(np.asarray(starts, dtype=float) + latencies / 2)

    def nominal(self, start: float, end: float) -> float:
        """The seconds ``[start, end]`` would have lasted at nominal speed."""
        edges = np.linspace(start, end, max(1, math.ceil((end - start) / SAMPLE_EVERY)) + 1)
        return float(np.sum(np.diff(edges) / self.factor_at((edges[:-1] + edges[1:]) / 2)))

    def summary(self) -> dict:
        factors = [f for _, fs in self._samples.values() for f in fs]
        return {
            "samples": len(factors),
            "median": float(np.median(factors)) if factors else None,
            "mean": float(np.mean(factors)) if factors else None,
        }
