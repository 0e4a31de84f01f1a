"""Competitive analysis: reverse top-k, then the improvement query.

The paper (§2) positions Improvement Queries against the existing
rank-aware queries: reverse top-k tells you *who* prefers your product
today.  The IQ then answers the question it cannot: what to *change*.
This example runs both over one market.

Run:  python examples/competitive_analysis.py
"""

import numpy as np

from repro import Dataset, ImprovementQueryEngine, QuerySet, euclidean_cost
from repro.core.reduction import min_cost_via_max_hit

rng = np.random.default_rng(2017)

# A market of 40 products over (price, delivery_days, defect_rate):
# lower is better on every axis, so the min-convention applies directly.
ATTRIBUTES = ["price", "delivery_days", "defect_rate"]
market = Dataset(rng.random((40, 3)), names=ATTRIBUTES)
# 60 buyers, each weighting the three pain points differently, top-3.
buyers = QuerySet(rng.random((60, 3)), ks=3)

engine = ImprovementQueryEngine(market, buyers, mode="relevant")
OURS = 17  # the product under analysis

print(f"== analysing product {OURS} against 39 competitors, 60 buyers ==\n")

# 1. Reverse top-k: who shortlists us today?
fans = engine.reverse_top_k(OURS)
print(f"reverse top-k: {len(fans)} buyers shortlist us today "
      f"({fans.tolist()[:8]}{'...' if len(fans) > 8 else ''})")

# 2. The improvement query: what should we actually change?
print("\n== improvement strategies ==")
result = engine.min_cost(OURS, tau=20)
print(f"to be shortlisted by 20 buyers (Min-Cost IQ):")
for name, delta in zip(ATTRIBUTES, result.strategy.vector):
    if abs(delta) > 1e-9:
        print(f"  change {name:<14} by {delta:+.4f}")
print(f"  cost {result.total_cost:.4f} -> {result.hits_after} buyers")

# 3. Cross-check via the paper's §4.2.2 reduction: binary-searching the
#    Max-Hit budget brackets the same answer.
reduced = min_cost_via_max_hit(engine.evaluator, OURS, 20, euclidean_cost(market.dim))
print(f"\nreduction cross-check (binary search over Max-Hit budgets): "
      f"cost {reduced.total_cost:.4f}, {reduced.hits_after} buyers")
