"""End-to-end benchmark of the improvement-query engine.

``perf/run.py`` is the entry point; this package holds what it runs:

* :mod:`iqbench.spec` — workload and metric names, units, directions and
  regression bounds (the single source ``BENCHMARK.json`` must match);
* :mod:`iqbench.measure` — percentiles, host description, peak memory;
* :mod:`iqbench.speed` — the host's speed, and timings restated at nominal speed;
* :mod:`iqbench.verify` — brute-force re-verification of every answer;
* :mod:`iqbench.trace` — spans recorded around public callables;
* :mod:`iqbench.workloads` — the four workloads and their input streams;
* :mod:`iqbench.__main__` — one workload in one fresh interpreter.
"""
