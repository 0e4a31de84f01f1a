"""Invariant oracles over a :class:`~repro.core.subdomain.SubdomainIndex`.

Each oracle re-derives one structural invariant from first principles
(never through the code path that maintains it) and raises
:class:`~repro.errors.IndexCorruptionError` on the first violation:

* ``subdomain_of`` puts every query id in exactly one populated cell,
  and each cell's representative is one of its members;
* every cell signature (a row of ``signatures``) matches
  ``signature_matrix`` recomputed from ``normals`` for *all* of the
  cell's members;
* every ranked row of the prefix table matches a brute-force ranking of
  the cell's representative (stable score-then-id order, recomputed
  directly) and is ``-1`` past its length;
* ``pairs`` / ``normals`` stay mutually consistent (aligned lengths,
  ordered in-range pairs, no pair in two columns, and each normal equal
  to ``matrix[a] - matrix[b]``);
* in relevant mode, the arrangement holds the hyperplane of every pair
  :func:`~repro.core.subdomain.relevant_pairs` finds on the current
  data, and each contender row the updates keep names exactly the
  objects, with the same ``tied`` flag, that a recomputation's row does.

:func:`check_index_invariants` runs the whole battery plus the index's
own :meth:`~repro.core.subdomain.SubdomainIndex.validate` (array
shapes and ranges, R-tree size).
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS
from repro.core.subdomain import (
    SubdomainIndex,
    _padded,
    contender_rows,
    hyperplanes,
    relevant_pairs,
)
from repro.errors import IndexCorruptionError
from repro.geometry.arrangement import signature_matrix, unique_signatures

__all__ = [
    "check_index_invariants",
    "check_pair_consistency",
    "check_partition_cover",
    "check_prefixes",
    "check_relevant_closure",
    "check_signatures",
]


def check_partition_cover(index: SubdomainIndex) -> None:
    """Every query lies in exactly one populated cell; each representative in its own."""
    m, cells = index.queries.m, index.num_subdomains
    owner = np.asarray(index.subdomain_of, dtype=np.intp)
    if owner.shape != (m,):
        raise IndexCorruptionError(f"subdomain_of has {owner.shape} entries for {m} queries")
    if np.any(owner < 0) or np.any(owner >= cells):
        raise IndexCorruptionError(f"subdomain_of names a cell outside [0, {cells})")
    sizes = np.bincount(owner, minlength=cells)
    for sid in range(cells):
        if sizes[sid] == 0:
            raise IndexCorruptionError(f"subdomain {sid} is empty")
        representative = int(index.representatives[sid])
        if not (0 <= representative < m and owner[representative] == sid):
            raise IndexCorruptionError(
                f"subdomain {sid} representative {representative} is not one of its members"
            )


def check_signatures(index: SubdomainIndex) -> None:
    """Every cell signature matches a recomputation from ``normals``, and no two are equal.

    Algorithm 1 makes one cell per side vector; ``add_query`` finds a new
    query's cell by one signature compare, which relies on that rule.
    """
    h = index.num_hyperplanes
    stored = index.signatures
    if stored.shape[1] != h:
        raise IndexCorruptionError(
            f"cell signatures have {stored.shape[1]} columns, index has {h} hyperplanes"
        )
    repeated = stored.shape[0] - unique_signatures(stored)[0].shape[0]
    if repeated:
        raise IndexCorruptionError(f"{repeated} cell(s) repeat another cell's signature")
    if index.queries.m == 0:
        return
    recomputed = signature_matrix(index.queries.weights, index.normals)
    for sid, members in enumerate(index.cell_members()):
        if not np.all(recomputed[members] == stored[sid][None, :]):
            raise IndexCorruptionError(
                f"cell {sid} signature disagrees with a recomputation "
                "from normals for at least one member"
            )


def check_prefixes(index: SubdomainIndex) -> None:
    """Every ranked prefix matches a brute-force representative ranking."""
    matrix = _padded(index.dataset.matrix)  # scored as the index ranks
    n = index.dataset.n
    for sid in np.flatnonzero(index.prefix_lengths >= 0).tolist():
        depth = int(index.prefix_lengths[sid])
        representative = int(index.representatives[sid])
        if depth > n:
            raise IndexCorruptionError(
                f"cell {sid} prefix is deeper ({depth}) than the dataset ({n})"
            )
        weights, __ = index.queries.query(representative)
        scores = (matrix @ weights).reshape(-1)[:n]
        # Independent tie-break derivation: lexicographic (score, id).
        order = np.lexsort((np.arange(n), scores))
        row = index.prefixes[sid]
        if not np.array_equal(row[:depth], order[:depth]):
            raise IndexCorruptionError(
                f"cell {sid} cached prefix disagrees with a brute-force "
                f"ranking of representative {representative}"
            )
        if np.any(row[depth:] != -1):
            raise IndexCorruptionError(f"cell {sid} prefix row is not -1 past its length")


def check_pair_consistency(index: SubdomainIndex) -> None:
    """``pairs`` / ``normals`` are mutually consistent."""
    n = index.dataset.n
    h = index.num_hyperplanes
    if len(index.pairs) != h:
        raise IndexCorruptionError(
            f"{len(index.pairs)} pairs for {h} hyperplane normals"
        )
    matrix = index.dataset.matrix
    columns: dict[tuple[int, int], int] = {}
    for col, (a, b) in enumerate(index.pairs.tolist()):
        if not (0 <= a < b < n):
            raise IndexCorruptionError(
                f"pair column {col} holds invalid pair ({a}, {b}) for n={n}"
            )
        first = columns.setdefault((a, b), col)
        if first != col:
            raise IndexCorruptionError(
                f"pair ({a}, {b}) occupies columns {first} and {col}"
            )
        normal = matrix[a] - matrix[b]
        if not np.array_equal(index.normals[col], normal):
            raise IndexCorruptionError(
                f"normal of column {col} disagrees with matrix[{a}] - matrix[{b}]"
            )
        if np.abs(normal).max(initial=0.0) <= EPS:
            raise IndexCorruptionError(
                f"column {col} stores a degenerate (near-zero) normal"
            )


def check_relevant_closure(index: SubdomainIndex) -> None:
    """Relevant mode: kept rows are a recomputation's; every contender hyperplane is held.

    Each kept contender row must name the objects, and carry the
    ``tied`` flag, of a recomputation's row: the updates edit the rows
    one at a time, so a row kept wrongly stays wrong until it is ranked
    again.  Hyperplanes are compared by normal, up to sign: a query
    update can trade a contender for its exact duplicate (a tie at a
    cut), whose pairs are the same hyperplanes under other ids.
    """
    if index.mode != "relevant":
        return
    dataset, queries = index.dataset, index.queries
    if index._contenders is not None:  # else not derived yet: the next update ranks them
        rows, tied, __ = index._contenders
        fresh, fresh_tied = contender_rows(
            dataset.matrix, queries.weights, queries.ks, index.margin
        )
        if rows.shape[0] != queries.m:
            raise IndexCorruptionError(
                f"kept contender rows: {rows.shape[0]} rows for {queries.m} queries"
            )
        kept, wanted = _members(rows, dataset.n), _members(fresh, dataset.n)
        wrong = np.flatnonzero((kept != wanted).any(axis=1) | (tied != fresh_tied))
        if wrong.size:
            j = int(wrong[0])
            raise IndexCorruptionError(
                f"kept contender rows: query {j}'s row names objects "
                f"{np.flatnonzero(kept[j]).tolist()} (tied {bool(tied[j])}), a recomputation "
                f"names {np.flatnonzero(wanted[j]).tolist()} (tied {bool(fresh_tied[j])})"
            )
    # Pairs of identical objects never become hyperplanes.
    pairs, normals = hyperplanes(dataset.matrix, relevant_pairs(dataset, queries, index.margin))
    held = {(sign * row + 0.0).tobytes() for row in index.normals for sign in (1.0, -1.0)}
    missing = [
        tuple(pair) for pair, row in zip(pairs.tolist(), normals) if row.tobytes() not in held
    ]
    if missing:
        raise IndexCorruptionError(
            f"relevant-mode arrangement misses {len(missing)} contender "
            f"hyperplane(s), first of pair {missing[0]}"
        )


def _members(rows: np.ndarray, n: int) -> np.ndarray:
    """``(len(rows), n)``: whether each ``-1``-padded row names each object."""
    members = np.zeros((rows.shape[0], n), dtype=bool)
    named = np.nonzero(rows >= 0)
    members[named[0], rows[named]] = True
    return members


def check_index_invariants(index: SubdomainIndex) -> None:
    """Run every invariant oracle plus the index's own ``validate``."""
    index.validate()
    check_partition_cover(index)
    check_signatures(index)
    check_prefixes(index)
    check_pair_consistency(index)
    check_relevant_closure(index)
