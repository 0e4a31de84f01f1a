"""Regeneration of every figure in the paper's evaluation (§6.3).

One function per paper artefact, each returning a
:class:`~repro.bench.harness.TableResult` whose rows are the series the
figure plots.  Absolute numbers differ from the paper (pure Python vs
their C++/C# server); the *shape* — who wins, by what rough factor,
which direction the trend goes — is what EXPERIMENTS.md records.

Schemes (§6.1): Efficient-IQ (ours), RTA-IQ, Greedy, Random.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_TIME
from repro.baselines.rta import RTAEvaluator
from repro.bench.config import BenchConfig, load_config
from repro.bench.harness import TableResult, alternating_medians, time_call
from repro.core.cost import euclidean_cost
from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.solvers import get_solver
from repro.core.subdomain import SubdomainIndex
from repro.core.updates import add_object, add_query, remove_object, remove_query
from repro.data.realworld import simulate_house, simulate_vehicle
from repro.errors import ReproError
from repro.data.synthetic import generate
from repro.data.workloads import generate_queries
from repro.index.dominant_graph import DominantGraph
from repro.index.rtree import RTree

__all__ = [
    "fig4_indexing_objects",
    "fig5_indexing_queries",
    "fig6_indexing_real",
    "fig7_to_9_query_processing_objects",
    "fig10_to_11_query_processing_queries",
    "fig12_query_processing_real",
    "fig13_dimensionality",
    "x1_exhaustive_gap",
    "x2_ese_ablation",
    "x3_updates_ablation",
    "x4_index_mode_ablation",
    "SCHEMES",
]

SCHEMES = ("Efficient-IQ", "RTA-IQ", "Greedy", "Random")


def _dataset(kind: str, n: int, d: int, config: BenchConfig) -> Dataset:
    return Dataset(generate(kind, n, d, seed=config.seed))


def _queries(kind: str, m: int, d: int, config: BenchConfig) -> QuerySet:
    return generate_queries(kind, m, d, seed=config.seed + 1, k_range=config.k_range)


def _data_bytes(dataset: Dataset) -> int:
    return dataset.n * dataset.dim * 8


# ----------------------------------------------------------------------
# Figure 4: indexing cost vs |D| (Efficient-IQ vs DominantGraph)
# ----------------------------------------------------------------------
def fig4_indexing_objects(config: BenchConfig | None = None) -> TableResult:
    """Figure 4: index build time/size vs |D|, Efficient-IQ vs DominantGraph."""
    config = config or load_config()
    table = TableResult(
        title=f"Figure 4 — indexing cost vs number of objects [{config.name} scale]",
        columns=[
            "|D|",
            "EfficientIQ time (s)",
            "DominantGraph time (s)",
            "EfficientIQ size (%)",
            "DominantGraph size (%)",
        ],
        notes=(
            "index time comparable between the two; Efficient-IQ size "
            "slightly higher; both grow with |D| (paper Fig. 4)"
        ),
    )
    for n in config.object_sweep:
        dataset = _dataset("IN", n, config.dimensions, config)
        queries = _queries("UN", config.num_queries, config.dimensions, config)
        index, ours_time = time_call(
            SubdomainIndex, dataset, queries, mode=config.index_mode
        )
        graph, dg_time = time_call(DominantGraph, dataset.matrix)
        base = _data_bytes(dataset)
        table.add(
            n,
            ours_time,
            dg_time,
            100.0 * index.memory_estimate() / base,
            100.0 * graph.memory_estimate() / base,
        )
    return table


# ----------------------------------------------------------------------
# Figure 5: indexing cost vs |Q| (Efficient-IQ vs plain R-tree)
# ----------------------------------------------------------------------
def fig5_indexing_queries(config: BenchConfig | None = None) -> TableResult:
    """Figure 5: index build time/size vs |Q|, Efficient-IQ vs plain R-tree."""
    config = config or load_config()
    table = TableResult(
        title=f"Figure 5 — indexing cost vs number of queries [{config.name} scale]",
        columns=[
            "|Q|",
            "EfficientIQ time (s)",
            "R-tree time (s)",
            "time overhead (%)",
            "EfficientIQ size (B)",
            "R-tree size (B)",
            "size overhead (%)",
        ],
        notes=(
            "Efficient-IQ needs ~20-25% more build time and ~10% more "
            "space than the bare query R-tree (paper Fig. 5); each time is "
            "the median of 5 builds, the sides alternating"
        ),
    )
    for m in config.query_sweep:
        dataset = _dataset("IN", config.num_objects, config.dimensions, config)
        queries = _queries("UN", m, config.dimensions, config)
        items = [(w, int(j)) for j, w in enumerate(queries.weights)]
        (index, rtree), (ours_time, rtree_time) = alternating_medians((
            lambda: SubdomainIndex(dataset, queries, mode=config.index_mode),
            lambda: RTree.bulk_load(queries.dim, items, max_entries=16),
        ))
        ours_size = index.memory_estimate()
        rtree_size = rtree.memory_estimate()
        table.add(
            m,
            ours_time,
            rtree_time,
            100.0 * (ours_time - rtree_time) / max(rtree_time, EPS_TIME),
            ours_size,
            rtree_size,
            100.0 * (ours_size - rtree_size) / max(rtree_size, 1),
        )
    return table


# ----------------------------------------------------------------------
# Figure 6: indexing cost on the (simulated) real datasets
# ----------------------------------------------------------------------
def fig6_indexing_real(config: BenchConfig | None = None) -> TableResult:
    """Figure 6: indexing cost on the simulated VEHICLE/HOUSE datasets."""
    config = config or load_config()
    table = TableResult(
        title=f"Figure 6 — indexing cost on real-world datasets [{config.name} scale]",
        columns=[
            "dataset",
            "EfficientIQ time (s)",
            "R-tree time (s)",
            "DominantGraph time (s)",
            "EfficientIQ size (%)",
            "R-tree size (%)",
            "DominantGraph size (%)",
        ],
        notes="consistent with the synthetic results (paper Fig. 6); times as in Fig. 5",
    )
    generators = {
        "VEHICLE": lambda n: simulate_vehicle(n, seed=config.seed),
        "HOUSE": lambda n: simulate_house(n, seed=config.seed),
    }
    for name, make in generators.items():
        dataset = make(config.real_sizes[name])
        m = max(10, int(dataset.n * config.real_query_fraction))
        queries = _queries("UN", m, dataset.dim, config)
        items = [(w, int(j)) for j, w in enumerate(queries.weights)]
        (index, rtree, graph), (ours_time, rtree_time, dg_time) = alternating_medians((
            lambda: SubdomainIndex(dataset, queries, mode=config.index_mode),
            lambda: RTree.bulk_load(queries.dim, items, max_entries=16),
            lambda: DominantGraph(dataset.matrix),
        ))
        base = _data_bytes(dataset)
        table.add(
            name,
            ours_time,
            rtree_time,
            dg_time,
            100.0 * index.memory_estimate() / base,
            100.0 * rtree.memory_estimate() / base,
            100.0 * graph.memory_estimate() / base,
        )
    return table


# ----------------------------------------------------------------------
# Figures 7-12: IQ processing time and strategy quality
# ----------------------------------------------------------------------
def _run_schemes(dataset: Dataset, queries: QuerySet, config: BenchConfig):
    """Average per-IQ time (ms) and cost-per-hit for each scheme."""
    index = SubdomainIndex(dataset, queries, mode=config.index_mode)
    ese = StrategyEvaluator(index)
    rta = RTAEvaluator(index)
    rng = np.random.default_rng(config.seed + 7)
    # Improvement queries target objects that need improving: sample a
    # candidate pool and keep the least-hit members (the paper's
    # motivating scenario — weak products, trailing candidates).
    pool = rng.choice(dataset.n, size=min(dataset.n, 8 * config.iq_repeats), replace=False)
    pool = sorted(pool, key=lambda t: ese.hits(int(t)))
    targets = pool[: config.iq_repeats]
    cost = euclidean_cost(dataset.dim)
    tau = min(config.tau, queries.m)

    # Every scheme dispatches through the solver table (RTA-IQ runs
    # the "efficient" search over the RTA evaluation engine — only the
    # per-candidate evaluator differs, matching the paper's comparison).
    efficient = get_solver("efficient")
    greedy = get_solver("greedy")
    random_solver = get_solver("random")
    runners = {
        "Efficient-IQ": (
            lambda t: efficient.min_cost(ese, int(t), tau, cost),
            lambda t: efficient.max_hit(ese, int(t), config.budget, cost),
        ),
        "RTA-IQ": (
            lambda t: efficient.min_cost(rta, int(t), tau, cost),
            lambda t: efficient.max_hit(rta, int(t), config.budget, cost),
        ),
        "Greedy": (
            lambda t: greedy.min_cost(ese, int(t), tau, cost),
            lambda t: greedy.max_hit(ese, int(t), config.budget, cost),
        ),
        "Random": (
            lambda t: random_solver.min_cost(ese, int(t), tau, cost, seed=config.seed),
            lambda t: random_solver.max_hit(ese, int(t), config.budget, cost, seed=config.seed),
        ),
    }
    times = {}
    qualities = {}
    for scheme, (run_min_cost, run_max_hit) in runners.items():
        elapsed = 0.0
        ratios = []
        for target in targets:
            result, seconds = time_call(run_min_cost, target)
            elapsed += seconds
            ratios.append(result.cost_per_hit)
            result, seconds = time_call(run_max_hit, target)
            elapsed += seconds
            ratios.append(result.cost_per_hit)
        times[scheme] = 1000.0 * elapsed / (2 * len(targets))
        finite = [r for r in ratios if np.isfinite(r)]
        qualities[scheme] = float(np.mean(finite)) if finite else float("inf")
    return times, qualities


def _query_processing_table(title, axis_name, points, make_data, config, note):
    table = TableResult(
        title=title,
        columns=[axis_name]
        + [f"{s} time (ms)" for s in SCHEMES]
        + [f"{s} cost/hit" for s in SCHEMES],
        notes=note,
    )
    for value in points:
        dataset, queries = make_data(value)
        times, qualities = _run_schemes(dataset, queries, config)
        table.add(
            value,
            *[times[s] for s in SCHEMES],
            *[qualities[s] for s in SCHEMES],
        )
    return table


_PROCESSING_NOTE = (
    "time: Random fastest, Efficient-IQ well below RTA-IQ; quality "
    "(cost/hit): Efficient-IQ = RTA-IQ best, then Greedy, Random worst "
    "(paper Figs. 7-12)"
)


def fig7_to_9_query_processing_objects(
    kind: str, config: BenchConfig | None = None
) -> TableResult:
    """Figures 7 (IN), 8 (CO), 9 (AC): sweep |D|."""
    config = config or load_config()
    figure = {"IN": 7, "CO": 8, "AC": 9}[kind.upper()]

    def make_data(n):
        return (
            _dataset(kind, n, config.dimensions, config),
            _queries("UN", config.num_queries, config.dimensions, config),
        )

    return _query_processing_table(
        f"Figure {figure} — IQ processing on the {kind.upper()} object dataset "
        f"[{config.name} scale]",
        "|D|",
        config.object_sweep,
        make_data,
        config,
        _PROCESSING_NOTE,
    )


def fig10_to_11_query_processing_queries(
    kind: str, config: BenchConfig | None = None
) -> TableResult:
    """Figures 10 (UN), 11 (CL): sweep |Q|."""
    config = config or load_config()
    figure = {"UN": 10, "CL": 11}[kind.upper()]

    def make_data(m):
        return (
            _dataset("IN", config.num_objects, config.dimensions, config),
            _queries(kind, m, config.dimensions, config),
        )

    return _query_processing_table(
        f"Figure {figure} — IQ processing on the {kind.upper()} query workload "
        f"[{config.name} scale]",
        "|Q|",
        config.query_sweep,
        make_data,
        config,
        _PROCESSING_NOTE,
    )


def fig12_query_processing_real(config: BenchConfig | None = None) -> TableResult:
    """Figure 12: IQ processing time/quality on the simulated real datasets."""
    config = config or load_config()
    table = TableResult(
        title=f"Figure 12 — IQ processing on real-world datasets [{config.name} scale]",
        columns=["dataset"]
        + [f"{s} time (ms)" for s in SCHEMES]
        + [f"{s} cost/hit" for s in SCHEMES],
        notes=_PROCESSING_NOTE,
    )
    generators = {
        "VEHICLE": lambda n: simulate_vehicle(n, seed=config.seed),
        "HOUSE": lambda n: simulate_house(n, seed=config.seed),
    }
    for name, make in generators.items():
        dataset = make(config.real_sizes[name])
        m = max(10, int(dataset.n * config.real_query_fraction))
        queries = _queries("UN", m, dataset.dim, config)
        times, qualities = _run_schemes(dataset, queries, config)
        table.add(
            name,
            *[times[s] for s in SCHEMES],
            *[qualities[s] for s in SCHEMES],
        )
    return table


# ----------------------------------------------------------------------
# Figure 13: scalability with the number of function variables
# ----------------------------------------------------------------------
def fig13_dimensionality(config: BenchConfig | None = None) -> TableResult:
    """Figure 13: Efficient-IQ processing cost vs number of variables (1-5)."""
    config = config or load_config()
    table = TableResult(
        title=f"Figure 13 — Efficient-IQ vs number of variables [{config.name} scale]",
        columns=["variables", "time (ms)", "cost/hit"],
        notes="processing time grows sub-linearly with dimensionality (paper Fig. 13)",
    )
    rng = np.random.default_rng(config.seed + 13)
    for d in config.dim_sweep:
        dataset = _dataset("IN", config.num_objects, d, config)
        queries = _queries("UN", config.num_queries, d, config)
        index = SubdomainIndex(dataset, queries, mode=config.index_mode)
        ese = StrategyEvaluator(index)
        cost = euclidean_cost(d)
        tau = min(config.tau, queries.m)
        elapsed = 0.0
        ratios = []
        solver = get_solver("efficient")
        for target in rng.integers(0, dataset.n, size=config.iq_repeats):
            result, seconds = time_call(solver.min_cost, ese, int(target), tau, cost)
            elapsed += seconds
            ratios.append(result.cost_per_hit)
            result, seconds = time_call(solver.max_hit, ese, int(target), config.budget, cost)
            elapsed += seconds
            ratios.append(result.cost_per_hit)
        finite = [r for r in ratios if np.isfinite(r)]
        table.add(
            d,
            1000.0 * elapsed / (2 * config.iq_repeats),
            float(np.mean(finite)) if finite else float("inf"),
        )
    return table


# ----------------------------------------------------------------------
# Ablations (claims made in the text rather than plotted)
# ----------------------------------------------------------------------
def x1_exhaustive_gap(config: BenchConfig | None = None) -> TableResult:
    """§6.3.2: exhaustive search is orders of magnitude slower; the
    heuristic's cost stays close to optimal on instances small enough to
    solve exactly."""
    config = config or load_config()
    table = TableResult(
        title="X1 — exact vs heuristic Min-Cost IQ (small instances)",
        columns=["m", "exact time (ms)", "heuristic time (ms)", "cost ratio (heur/exact)"],
        notes=(
            "exact blows up exponentially with m while the heuristic stays "
            "flat; cost ratio stays close to 1 (paper §6.3.2: exhaustive "
            "'takes more than 4 hours' at experiment scale)"
        ),
    )
    rng = np.random.default_rng(config.seed + 17)
    for m in (6, 9, 12, 15):
        dataset = Dataset(rng.random((30, config.dimensions)))
        queries = QuerySet(rng.random((m, config.dimensions)), ks=2)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        cost = euclidean_cost(config.dimensions)
        tau = max(2, m // 3)
        exact, exact_time = time_call(get_solver("exhaustive").min_cost, evaluator, 0, tau, cost)
        heuristic, heuristic_time = time_call(get_solver("efficient").min_cost, evaluator, 0, tau, cost)
        ratio = (
            heuristic.total_cost / exact.total_cost
            if exact.satisfied and exact.total_cost > 0
            else 1.0
        )
        table.add(m, 1000 * exact_time, 1000 * heuristic_time, ratio)
    return table


def x2_ese_ablation(config: BenchConfig | None = None) -> TableResult:
    """§4.1: ESE's shared thresholds vs naive full re-evaluation."""
    config = config or load_config()
    table = TableResult(
        title="X2 — ESE vs naive per-query re-evaluation",
        columns=["|Q|", "ESE eval (ms)", "naive eval (ms)", "speedup (x)"],
        notes="ESE amortizes one evaluation per subdomain; naive pays m full top-k sorts",
    )
    rng = np.random.default_rng(config.seed + 19)
    from repro.topk.evaluate import top_k

    for m in config.query_sweep:
        dataset = _dataset("IN", config.num_objects, config.dimensions, config)
        queries = _queries("UN", m, config.dimensions, config)
        index = SubdomainIndex(dataset, queries, mode=config.index_mode)
        ese = StrategyEvaluator(index)
        target = 0
        strategy = rng.normal(scale=0.1, size=config.dimensions)
        ese.thresholds(target)  # build the shared cache first (indexing step)
        __, ese_time = time_call(ese.evaluate, target, strategy)

        def naive():
            moved = dataset.matrix.copy()
            moved[target] = moved[target] + strategy
            hits = 0
            for j in range(queries.m):
                weights, k = queries.query(j)
                if target in top_k(moved, weights, k):
                    hits += 1
            return hits

        naive_hits, naive_time = time_call(naive)
        ese_hits = ese.evaluate(target, strategy)
        if naive_hits != ese_hits:
            raise ReproError(
                f"X3 cross-check failed: naive evaluation counts {naive_hits} hits "
                f"but the ESE index counts {ese_hits} (m={m})"
            )
        table.add(m, 1000 * ese_time, 1000 * naive_time, naive_time / max(ese_time, EPS_TIME))
    return table


def x4_index_mode_ablation(config: BenchConfig | None = None) -> TableResult:
    """DESIGN.md §3 design choice: exact vs 'relevant' hyperplane budget.

    The exact mode uses all C(n,2) intersections (the paper's
    formulation); relevant mode keeps only intersections among objects
    reachable by the indexed top-k results.  Answers must be identical;
    the indexing cost difference is the point.
    """
    config = config or load_config()
    table = TableResult(
        title="X4 — subdomain index: exact vs relevant hyperplane budget",
        columns=[
            "|D|",
            "exact hyperplanes",
            "relevant hyperplanes",
            "exact build (s)",
            "relevant build (s)",
            "answers agree",
        ],
        notes=(
            "relevant mode indexes orders of magnitude fewer hyperplanes at "
            "identical answers; exact mode is quadratic in |D|"
        ),
    )
    rng = np.random.default_rng(config.seed + 29)
    for n in [max(30, s // 2) for s in config.object_sweep[:3]]:
        dataset = _dataset("IN", n, config.dimensions, config)
        queries = _queries("UN", min(config.num_queries, 100), config.dimensions, config)
        exact, exact_time = time_call(SubdomainIndex, dataset, queries, mode="exact")
        relevant, relevant_time = time_call(
            SubdomainIndex, dataset, queries, mode="relevant"
        )
        probes = rng.integers(0, n, size=5)
        agree = all(
            StrategyEvaluator(exact).hits(int(t)) == StrategyEvaluator(relevant).hits(int(t))
            for t in probes
        )
        table.add(
            n,
            exact.num_hyperplanes,
            relevant.num_hyperplanes,
            exact_time,
            relevant_time,
            "yes" if agree else "NO",
        )
    return table


#: Consecutive calls per X3 operation; the table reports their median.
_X3_CALLS = 5


def x3_updates_ablation(config: BenchConfig | None = None) -> TableResult:
    """§4.3: incremental maintenance vs full index rebuild."""
    config = config or load_config()
    table = TableResult(
        title="X3 — incremental maintenance vs rebuild (steady state)",
        columns=["operation", "incremental (ms)", "rebuild (ms)", "speedup (x)"],
        notes=(
            "query add/remove far below a rebuild; object updates cheaper or "
            "comparable (each operation: median of 5 consecutive calls on one "
            "working index, nothing warmed first; rebuild: median of 5 builds)"
        ),
    )
    rng = np.random.default_rng(config.seed + 23)
    dataset = _dataset("IN", max(50, config.num_objects // 4), config.dimensions, config)
    queries = _queries("UN", config.num_queries, config.dimensions, config)

    def fresh():
        return SubdomainIndex(dataset, queries, mode=config.index_mode)

    # Both sides are medians of _X3_CALLS calls, so neither is a lone
    # cold measurement.
    rebuild_time = float(np.median([time_call(fresh)[1] for __ in range(_X3_CALLS)]))

    operations = {
        "add query": lambda idx: add_query(idx, rng.random(config.dimensions), 2),
        "remove query": lambda idx: remove_query(idx, 0),
        "add object": lambda idx: add_object(idx, rng.random(config.dimensions)),
        "remove object": lambda idx: remove_object(idx, 0),
    }
    for name, op in operations.items():
        working = fresh()
        incremental_time = float(
            np.median([time_call(op, working)[1] for __ in range(_X3_CALLS)])
        )
        table.add(
            name,
            1000 * incremental_time,
            1000 * rebuild_time,
            rebuild_time / max(incremental_time, EPS_TIME),
        )
    return table
