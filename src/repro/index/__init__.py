"""Index substrates: bloom filters, skyline, dominant graph, R-tree (Figs. 5-6 baseline)."""

from repro.index.bloom import BloomFilter, CountingBloomFilter, optimal_parameters
from repro.index.dominant_graph import DominantGraph
from repro.index.rtree import Rect, RTree
from repro.index.skyline import (
    block_nested_loop_skyline,
    dominates,
    skyline,
    skyline_layers,
)

__all__ = [
    "RTree",
    "Rect",
    "BloomFilter",
    "CountingBloomFilter",
    "optimal_parameters",
    "DominantGraph",
    "dominates",
    "skyline",
    "skyline_layers",
    "block_nested_loop_skyline",
]
