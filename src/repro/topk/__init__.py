"""Top-k evaluation substrate: direct scoring."""

from repro.topk.evaluate import kth_score, rank_of, scores, top_k

__all__ = [
    "scores",
    "top_k",
    "rank_of",
    "kth_score",
]
