"""Assemble EXPERIMENTS.md from the benchmark result tables.

Usage:  python benchmarks/make_experiments_md.py
(after ``pytest benchmarks/ --benchmark-only`` has populated
``benchmarks/results/``).

The script writes the paper-artefact sections and keeps, byte for byte,
everything from the first ``## `` heading it does not write: the
hand-written sections that follow them.
"""

from __future__ import annotations

import sys
from pathlib import Path

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parents[1] / "EXPERIMENTS.md"

#: Per-artefact commentary: (result file stem, paper's reported shape,
#: what we observe / deviations worth recording).
SECTIONS = [
    (
        "fig04_indexing_objects",
        "Figure 4 — indexing cost vs |D|",
        "Paper: Efficient-IQ's indexing *time* is similar to DominantGraph's "
        "across 50k-200k objects; Efficient-IQ's index is slightly larger "
        "(both a modest percentage of the data size at their scale).",
        "Measured: both build times grow with |D| and stay within the same "
        "order of magnitude; our Efficient-IQ build is faster than "
        "DominantGraph at these sizes because the signature pass is fully "
        "vectorized while layer-peeling dominates DG. Size percentages are "
        "far larger than the paper's <30% because (a) the datasets are "
        "thousands of times smaller so fixed per-structure overheads "
        "dominate, and (b) we retain one full side-vector per populated "
        "cell to support §4.3 maintenance (the paper keeps only boundary "
        "lists). The ordering — Efficient-IQ's index larger than "
        "DominantGraph's at equal |D| — matches the paper.",
    ),
    (
        "fig05_indexing_queries",
        "Figure 5 — indexing cost vs |Q|",
        "Paper: Efficient-IQ needs ~20-25% more indexing time than building "
        "only the query R-tree, and ends up ~10% larger — the extra cost of "
        "grouping query points by subdomain.",
        "Measured: Efficient-IQ is larger than the bare R-tree at every "
        "|Q|, but not always slower to build. The index no longer contains a "
        "query R-tree (DESIGN.md §3 note 1), so both overheads compare the "
        "whole index with a tree it does not hold, where the paper's index "
        "added its grouping to such a tree. Each time is the median of five "
        "builds through the bench's one timing loop (sides alternating, GC "
        "off). Over thirty fresh-process runs of the figure test the time "
        "overhead read 35-119% at |Q| = 100 and 2-87% at |Q| = 300, but "
        "-7% to +81% at |Q| = 200 (median 15%), negative in five runs, "
        "where the test's 'time overhead > 0' assertion failed. The "
        "collector is not the cause: with it left on in the same loop, "
        "thirty runs alternated with these read a median of 4% at "
        "|Q| = 200 and failed ten times. Before the medians each side was "
        "one call, the index first: the first build at a new |Q| takes "
        "about 1.8x its steady time (4.2 against 2.3 ms at |Q| = 200), so "
        "that single sample read a median of 69% at |Q| = 200 and failed "
        "none of thirty runs alternated with these. The run below is the "
        "last of the thirty. Sizes do not vary between runs; they exceed the "
        "paper's 10% because the index keeps one full side vector per "
        "populated cell for §4.3 maintenance. The size overhead grows with "
        "|Q|, as in the paper.",
    ),
    (
        "fig06_indexing_real",
        "Figure 6 — indexing cost on real-world data (VEHICLE, HOUSE)",
        "Paper: results on the two real datasets are consistent with the "
        "synthetic ones.",
        "Measured: same conclusion on the distribution-matched simulated "
        "VEHICLE/HOUSE substitutes (see DESIGN.md §5 for the substitution). "
        "Times are medians of five builds, the three sides alternating.",
    ),
    (
        "fig07_query_in",
        "Figure 7 — IQ processing on IN objects (sweep |D|)",
        "Paper: Random fastest but worst quality; Efficient-IQ several times "
        "faster than RTA-IQ with identical strategy quality; Greedy between.",
        "Measured: identical ordering. Efficient-IQ runs 2-3 orders of "
        "magnitude faster than RTA-IQ here (the gap is wider than the "
        "paper's because RTA's per-query loop pays Python overheads that "
        "ESE's vectorized evaluation avoids); Efficient-IQ and RTA-IQ "
        "report byte-identical cost/hit, exactly as the paper notes "
        "(same searcher, different evaluator).",
    ),
    (
        "fig08_query_co",
        "Figure 8 — IQ processing on CO objects (sweep |D|)",
        "Paper: same ordering as Figure 7 on correlated data.",
        "Measured: same ordering; correlated data is the easiest for every "
        "scheme (few contenders dominate all queries).",
    ),
    (
        "fig09_query_ac",
        "Figure 9 — IQ processing on AC objects (sweep |D|)",
        "Paper: same ordering as Figure 7 on anti-correlated data.",
        "Measured: same ordering; anti-correlated data is the most expensive "
        "for every scheme (large skylines -> many distinct contenders), "
        "which matches the paper's slightly higher AC timings.",
    ),
    (
        "fig10_query_un",
        "Figure 10 — IQ processing, UN query workload (sweep |Q|)",
        "Paper: processing time grows with |Q|; ordering unchanged.",
        "Measured: same ordering at every workload size.",
    ),
    (
        "fig11_query_cl",
        "Figure 11 — IQ processing, CL query workload (sweep |Q|)",
        "Paper: clustered workloads behave like uniform ones.",
        "Measured: same; clustering concentrates query points into fewer "
        "subdomains, which slightly *helps* ESE (more sharing per cell).",
    ),
    (
        "fig12_query_real",
        "Figure 12 — IQ processing on real-world data",
        "Paper: consistent with the synthetic results on VEHICLE and HOUSE.",
        "Measured: consistent, on the simulated substitutes.",
    ),
    (
        "fig13_dimensionality",
        "Figure 13 — Efficient-IQ vs number of variables (1-5)",
        "Paper: processing time increases with dimensionality but "
        "sub-linearly — it becomes less sensitive as d grows.",
        "Measured: time rises from d=2 onward far more slowly than d does "
        "(the d=1 point is degenerate — the 1-D arrangement is trivial). "
        "Per-point noise is visible because each point averages only a few "
        "IQs at bench scale.",
    ),
    (
        "x1_exhaustive_gap",
        "X1 (ablation) — exact vs heuristic Min-Cost (§6.3.2 claim)",
        "Paper: 'even for the smallest dataset, exhaustive search takes more "
        "than 4 hours to process a query in average'; the heuristic is used "
        "everywhere else.",
        "Measured: the exact branch-and-bound's time explodes with the "
        "workload size while the heuristic stays flat; on instances small "
        "enough to solve exactly, the heuristic's cost is within a few tens "
        "of percent of optimal (ratio >= 1 always, typically < 1.4).",
    ),
    (
        "x2_ese_ablation",
        "X2 (ablation) — ESE vs naive re-evaluation (§4.1 claim)",
        "Paper: ESE evaluates at most one query per subdomain and re-uses "
        "results, which is what makes the greedy search interactive.",
        "Measured: ESE evaluates a candidate strategy orders of magnitude "
        "faster than re-running every top-k query.",
    ),
    (
        "x4_index_mode",
        "X4 (ablation) — exact vs 'relevant' hyperplane budget (DESIGN.md §3)",
        "Paper: the index uses the pairwise function intersections; the "
        "formulation is quadratic in |D|.",
        "Measured: restricting the arrangement to intersections among "
        "objects reachable by the indexed top-k results cuts the hyperplane "
        "count by orders of magnitude with byte-identical answers — the "
        "engineering choice that lets the reproduction run the paper's "
        "workload shapes in pure Python.",
    ),
    (
        "x3_updates_ablation",
        "X3 (ablation) — incremental maintenance vs rebuild (§4.3)",
        "Paper: queries/objects can be added and removed without rebuilding "
        "(kNN candidate subdomains; bloom-filter boundary checks and cell "
        "merging).",
        "Measured (each side a median of 5 calls: each operation 5 "
        "consecutive calls on one working index, nothing warmed first; the "
        "rebuild 5 builds): every maintenance operation beats a rebuild — "
        "query removal by 16x, query insertion by 4.8x, object insertion by "
        "4.3x and object removal by 3.6x. Neither side packs a query "
        "R-tree any more; while both did, the ratios read 18x, 5.8x, 9.7x "
        "and 9.3x. In relevant mode an update edits "
        "only the contender rows it touches and closes the arrangement over "
        "the pairs of new contenders (DESIGN.md §3 note 2); a removed "
        "query edits only the partition's arrays. The update path consults "
        "no bloom filter and no tree: a new query is located by one compare "
        "of its full signature with every cell's, and a removed object's "
        "cells merge by the exact collision test of their reduced "
        "signatures. Until the rebuild side was also a median it was "
        "timed once, after one warm-up build. At the `perf/` workload sizes "
        "(\"§4.3 updates that cost what they change\" below) a query "
        "insertion costs 1.2 ms against a 7.0 ms rebuild at 600 objects × "
        "200 queries and 5.1 ms against 36 ms at 2000 × 600.",
    ),
]

HEADER = """# EXPERIMENTS — paper vs. measured

Every table/figure of the paper's evaluation (§6.3) regenerated by
`pytest benchmarks/ --benchmark-only` (tables land in
`benchmarks/results/`). Scale: `REPRO_BENCH_SCALE={scale}` — see
`repro/bench/config.py` for the exact Table 2 mapping. Absolute numbers
are not comparable to the paper's (pure Python vs their C++/C# engine on
a 2.93 GHz Xeon server, and scaled-down workloads); what is compared is
the *shape*: who wins, by roughly what factor, and which way the trends
point. The experiment-id-to-module map lives in DESIGN.md §4.

Summary of reproduction status:

| Artefact | Shape reproduced? | Note |
|---|---|---|
| Fig. 4 | yes (with caveat) | build-time ordering flipped in our favour; size ordering matches |
| Fig. 5 | yes (with caveat) | overhead direction matches; magnitudes exceed 20-25%/10%; the index holds no tree |
| Fig. 6 | yes | on simulated VEHICLE/HOUSE substitutes |
| Fig. 7-12 | yes | full scheme ordering in both time and quality |
| Fig. 13 | yes | sub-linear growth from d>=2; d=1 degenerate |
| §6.3.2 exhaustive claim (X1) | yes | exponential blow-up reproduced |
| §4.1 ESE claim (X2) | yes | order-of-magnitude evaluation speedup |
| §4.3 updates claim (X3) | yes | incremental ops vs rebuild |
| index-mode design choice (X4) | yes | relevant mode: ~100-200x fewer hyperplanes, identical answers |

"""


def hand_written(text: str) -> str:
    """``text`` from its first ``## `` heading that no entry of SECTIONS writes."""
    ours = {f"## {title}" for __, title, __, __ in SECTIONS}
    offset = 0
    for line in text.splitlines(keepends=True):
        if line.startswith("## ") and line.rstrip("\n") not in ours:
            return text[offset:]
        offset += len(line)
    return ""


def main() -> int:
    if not RESULTS.exists():
        print("run `pytest benchmarks/ --benchmark-only` first", file=sys.stderr)
        return 1
    scale = "bench"
    parts = []
    for stem, title, paper, measured in SECTIONS:
        path = RESULTS / f"{stem}.txt"
        body = path.read_text().rstrip() if path.exists() else "(missing - rerun benchmarks)"
        if "[paper scale]" in body:
            scale = "paper"
        elif "[tiny scale]" in body:
            scale = "tiny"
        parts.append(
            f"## {title}\n\n"
            f"**Paper reports.** {paper}\n\n"
            f"**We measure.** {measured}\n\n"
            f"```\n{body}\n```\n"
        )
    kept = hand_written(OUTPUT.read_text()) if OUTPUT.exists() else ""
    if kept:
        parts.append(kept)
    OUTPUT.write_text(HEADER.format(scale=scale) + "\n".join(parts))
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
