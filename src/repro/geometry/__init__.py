"""Computational-geometry substrates used by the improvement-query index."""

from repro.geometry.arrangement import max_cells_bound, signature_matrix, unique_signatures

__all__ = [
    "signature_matrix",
    "unique_signatures",
    "max_cells_bound",
]
