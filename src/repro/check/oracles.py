"""Invariant oracles over a :class:`~repro.core.subdomain.SubdomainIndex`.

Each oracle re-derives one structural invariant from first principles
(never through the code path that maintains it) and raises
:class:`~repro.errors.IndexCorruptionError` on the first violation:

* the subdomains disjointly cover every query id exactly once, with
  ascending member lists and a representative drawn from the cell;
* ``subdomain_of`` is the exact inverse of the per-cell ``query_ids``;
* every cell signature matches ``signature_matrix`` recomputed from
  ``normals`` for *all* of the cell's members;
* every cached ``prefix`` matches a brute-force ranking of the cell's
  representative (stable score-then-id order, recomputed directly);
* ``pairs`` / ``normals`` stay mutually consistent (aligned lengths,
  ordered in-range pairs, no pair in two columns, and each normal equal
  to ``matrix[a] - matrix[b]``);
* in relevant mode, the arrangement holds the hyperplane of every pair
  :func:`~repro.core.subdomain.relevant_pairs` finds on the current
  data, and the contender rows the updates keep name exactly the objects
  a recomputation names.

:func:`check_index_invariants` runs the whole battery plus the index's
own :meth:`~repro.core.subdomain.SubdomainIndex.validate` (R-tree size
and membership agreement).
"""

from __future__ import annotations

import numpy as np

from repro.core.subdomain import (
    SubdomainIndex,
    contender_mask,
    contender_rows,
    hyperplanes,
    relevant_pairs,
)
from repro.errors import IndexCorruptionError
from repro.geometry.arrangement import signature_matrix
from repro.geometry.hyperplane import EPS

__all__ = [
    "check_index_invariants",
    "check_pair_consistency",
    "check_partition_cover",
    "check_prefixes",
    "check_relevant_closure",
    "check_signatures",
]


def check_partition_cover(index: SubdomainIndex) -> None:
    """Cells disjointly cover all query ids; ``subdomain_of`` is the inverse."""
    m = index.queries.m
    seen = np.zeros(m, dtype=np.intp)
    for sub in index.subdomains:
        ids = np.asarray(sub.query_ids, dtype=np.intp)
        if ids.size == 0:
            raise IndexCorruptionError(f"subdomain {sub.sid} is empty")
        if np.any(ids < 0) or np.any(ids >= m):
            raise IndexCorruptionError(
                f"subdomain {sub.sid} holds out-of-range query ids"
            )
        if ids.size > 1 and np.any(np.diff(ids) <= 0):
            raise IndexCorruptionError(
                f"subdomain {sub.sid} member list is not strictly ascending"
            )
        if sub.representative not in ids:
            raise IndexCorruptionError(
                f"subdomain {sub.sid} representative {sub.representative} "
                "is not one of its members"
            )
        if not np.all(index.subdomain_of[ids] == sub.sid):
            raise IndexCorruptionError(
                f"subdomain_of disagrees with the member list of cell {sub.sid}"
            )
        seen[ids] += 1
    if index.subdomain_of.shape[0] != m:
        raise IndexCorruptionError(
            f"subdomain_of has {index.subdomain_of.shape[0]} entries for {m} queries"
        )
    if not np.all(seen == 1):
        missing = np.flatnonzero(seen != 1)
        raise IndexCorruptionError(
            f"queries {missing.tolist()} are not covered exactly once"
        )


def check_signatures(index: SubdomainIndex) -> None:
    """Every cell signature matches a recomputation from ``normals``."""
    h = index.num_hyperplanes
    if index.queries.m == 0:
        return
    recomputed = signature_matrix(index.queries.weights, index.normals)
    for sub in index.subdomains:
        stored = np.frombuffer(sub.signature, dtype=np.int8)
        if stored.shape[0] != h:
            raise IndexCorruptionError(
                f"cell {sub.sid} signature has {stored.shape[0]} columns, "
                f"index has {h} hyperplanes"
            )
        rows = recomputed[np.asarray(sub.query_ids, dtype=np.intp)]
        if not np.all(rows == stored[None, :]):
            raise IndexCorruptionError(
                f"cell {sub.sid} signature disagrees with a recomputation "
                "from normals for at least one member"
            )


def check_prefixes(index: SubdomainIndex) -> None:
    """Every cached prefix matches a brute-force representative ranking."""
    matrix = index.dataset.matrix
    n = index.dataset.n
    for sub in index.subdomains:
        if sub.prefix is None:
            continue
        weights, __ = index.queries.query(sub.representative)
        scores = matrix @ weights
        # Independent tie-break derivation: lexicographic (score, id).
        order = np.lexsort((np.arange(n), scores))
        depth = int(sub.prefix.shape[0])
        if depth > n:
            raise IndexCorruptionError(
                f"cell {sub.sid} prefix is deeper ({depth}) than the dataset ({n})"
            )
        if not np.array_equal(np.asarray(sub.prefix, dtype=np.intp), order[:depth]):
            raise IndexCorruptionError(
                f"cell {sub.sid} cached prefix disagrees with a brute-force "
                f"ranking of representative {sub.representative}"
            )


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
    """Relevant mode: every contender hyperplane is held; kept rows name the contenders.

    Hyperplanes are compared by normal, up to sign: a query update can
    trade a contender for its exact duplicate (a tie at a cut), whose
    pairs are the same hyperplanes under other ids.
    """
    if index.mode != "relevant":
        return
    dataset, queries = index.dataset, index.queries
    # Pairs of identical objects never become hyperplanes.
    wanted, normals = hyperplanes(dataset.matrix, relevant_pairs(dataset, queries, index.margin))
    held = {(sign * row + 0.0).tobytes() for row in index.normals for sign in (1.0, -1.0)}
    missing = [
        tuple(pair) for pair, row in zip(wanted.tolist(), normals) if row.tobytes() not in held
    ]
    if missing:
        raise IndexCorruptionError(
            f"relevant-mode arrangement misses {len(missing)} contender "
            f"hyperplane(s), first of pair {missing[0]}"
        )
    if index._contenders is None:
        return  # not derived yet: the next update ranks them afresh
    rows = index._contenders.rows
    fresh, __ = contender_rows(dataset.matrix, queries.weights, queries.ks, index.margin)
    kept = np.flatnonzero(contender_mask(rows, dataset.n))
    expected = np.flatnonzero(contender_mask(fresh, dataset.n))
    if rows.shape[0] != queries.m or not np.array_equal(kept, expected):
        raise IndexCorruptionError(
            f"kept contender rows ({rows.shape[0]} for {queries.m} queries) name "
            f"objects {kept.tolist()}, a recomputation names {expected.tolist()}"
        )


def check_index_invariants(index: SubdomainIndex) -> None:
    """Run every invariant oracle plus the index's own ``validate``."""
    index.validate()
    check_partition_cover(index)
    check_signatures(index)
    check_prefixes(index)
    check_pair_consistency(index)
    check_relevant_closure(index)
