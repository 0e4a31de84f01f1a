"""Names, units, directions and bounds of everything the benchmark reports.

``BENCHMARK.json`` at the repository root restates these tables for the
tools that read it; ``perf/tests/test_names.py`` fails when the two
drift apart.
"""

from __future__ import annotations

#: Default input seed (the paper's conference date).
DEFAULT_SEED = 20170321

#: Seconds one timed phase measures unless ``--seconds`` says otherwise.
RUN_SECONDS = 15

#: ``(name, why)``: why each workload exists, in run order.
WORKLOADS = (
    (
        "query",
        "read-only library IQs: ESE evaluation, candidate generation and the "
        "greedy solve do the work; no pool, SQL or update code runs",
    ),
    (
        "maintain",
        "each paper Section 4.3 update is followed by an IQ: update cost, and "
        "update work deferred into the next read, dominate",
    ),
    (
        "sql",
        "IMPROVE text through the DBMS: lexer, parser and binder on every "
        "statement; each INSERT forces an index rebuild",
    ),
    (
        "serve",
        "JSONL through IQServer over a 2-worker pool on an mmap-loaded index: "
        "dispatch, IPC and coalescing do the work",
    ),
)

WORKLOAD_NAMES = tuple(name for name, _ in WORKLOADS)

#: End-to-end metrics, reported on every workload by the untraced run.
#: ``bound`` is the share of the parent's median by which the metric may
#: worsen before a change counts as a regression.  Each bound is sized
#: from the largest inter-quartile spread, as a share of the median, that
#: sets of ten seeds showed on any workload on the shared 2-CPU host the
#: benchmark was built on: three times that spread where 0.25, the widest
#: bound allowed, leaves room.  Timings get 0.25: restated at the host's
#: nominal speed, their largest spreads were 9.5-20% (``setup_s`` 26%).
#: Peak memory does not follow host load (spreads under 3%) and gets 0.1.
#: The answer-quality means do not depend on the host at all: one seed
#: gives the same value on every run unless the answers changed, which
#: ``perf/compare.py`` reports exactly.  Across seeds the mean Min-Cost
#: spend spread up to 6% and gets 0.2; the mean Max-Hit hits spread up to
#: 18% (``maintain``'s 110 Max-Hit reads) and gets 0.25.
END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mincost_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "mincost_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "maxhit_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "maxhit_tail_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "mincost_cost_mean", "unit": "cost", "better": "lower", "bound": 0.2},
    {"name": "maxhit_hits_mean", "unit": "hits", "better": "higher", "bound": 0.25},
)

#: End-to-end metrics that depend on the answers only, never on the host.
QUALITY = ("mincost_cost_mean", "maxhit_hits_mean")

#: The bound ``perf/compare.py`` holds the pairs in ``TIGHT`` to.
TIGHT_BOUND = 0.10

#: Per workload, the metrics judged by ``TIGHT_BOUND`` rather than by
#: their bound above, which has to cover the noisiest workload: those
#: whose spread stayed under half of ``TIGHT_BOUND`` in every set of ten
#: seeds measured (``perf/README.md``).
TIGHT = {
    "query": (),
    "maintain": ("mincost_p50_s",),
    "sql": ("maxhit_p50_s",),
    "serve": (),
}


def bound(workload: str, metric: dict) -> float:
    """The share by which ``metric`` may worsen on ``workload``."""
    return TIGHT_BOUND if metric["name"] in TIGHT[workload] else metric["bound"]

#: Per-layer metrics, reported on every workload by the traced run; a
#: layer the workload bypasses reads 0.
PER_LAYER = (
    {"name": "plan.self_s", "unit": "s", "better": "lower"},
    {"name": "engine.unattributed_s", "unit": "s", "better": "lower"},
    {"name": "candidates.s", "unit": "s", "better": "lower"},
    {"name": "candidates.count", "unit": "count", "better": "lower"},
    {"name": "solve.candidates_per_iteration", "unit": "count", "better": "lower"},
    {"name": "evaluate.s", "unit": "s", "better": "lower"},
    {"name": "evaluate.count", "unit": "count", "better": "lower"},
    {"name": "solve.self_s", "unit": "s", "better": "lower"},
    {"name": "solve.iterations", "unit": "count", "better": "lower"},
    {"name": "subdomain.build_s", "unit": "s", "better": "lower"},
    {"name": "subdomain.first_iq_s", "unit": "s", "better": "lower"},
    {"name": "subdomain.hyperplanes", "unit": "count", "better": "lower"},
    {"name": "subdomain.subdomains", "unit": "count", "better": "lower"},
    {"name": "subdomain.memory_bytes", "unit": "bytes", "better": "lower"},
    {"name": "updates.add_query_p50_s", "unit": "s", "better": "lower"},
    {"name": "updates.remove_query_p50_s", "unit": "s", "better": "lower"},
    {"name": "updates.add_object_p50_s", "unit": "s", "better": "lower"},
    {"name": "updates.remove_object_p50_s", "unit": "s", "better": "lower"},
    {"name": "updates.ensure_boundaries_s", "unit": "s", "better": "lower"},
    {"name": "updates.ensure_boundaries_calls", "unit": "count", "better": "lower"},
    {"name": "updates.hyperplanes_delta", "unit": "count", "better": "lower"},
    {"name": "updates.subdomains_delta", "unit": "count", "better": "lower"},
    {"name": "maintain.read_after_write_s", "unit": "s", "better": "lower"},
    {"name": "persist.load_s", "unit": "s", "better": "lower"},
    {"name": "pool.start_s", "unit": "s", "better": "lower"},
    {"name": "pool.dispatch_p50_s", "unit": "s", "better": "lower"},
    {"name": "pool.batch_size_mean", "unit": "count", "better": "higher"},
    {"name": "pool.batches", "unit": "count", "better": "lower"},
    {"name": "pool.restarts", "unit": "count", "better": "lower"},
    {"name": "pool.refreshes", "unit": "count", "better": "lower"},
    {"name": "server.queue_wait_tail_s", "unit": "s", "better": "lower"},
    {"name": "server.emit_tail_s", "unit": "s", "better": "lower"},
    {"name": "server.rejected", "unit": "count", "better": "lower"},
    {"name": "server.failed", "unit": "count", "better": "lower"},
    {"name": "loadgen.late_tail_s", "unit": "s", "better": "lower"},
    {"name": "dbms.tokenize_s", "unit": "s", "better": "lower"},
    {"name": "dbms.parse_s", "unit": "s", "better": "lower"},
    {"name": "dbms.bind_s", "unit": "s", "better": "lower"},
    {"name": "dbms.rebuilds", "unit": "count", "better": "lower"},
    {"name": "dbms.rebuild_s", "unit": "s", "better": "lower"},
    {"name": "op.unattributed_frac", "unit": "ratio", "better": "lower"},
    {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
)


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [dict(metric) for metric in END_TO_END],
        "per_layer": [dict(metric) for metric in PER_LAYER],
    }
