"""Top-k evaluation substrates: direct scoring and heap selection."""

from repro.topk.evaluate import (
    kth_score,
    rank_of,
    ranking_prefix,
    scores,
    top_k,
    top_k_heap,
)

__all__ = [
    "scores",
    "top_k",
    "top_k_heap",
    "ranking_prefix",
    "rank_of",
    "kth_score",
]
