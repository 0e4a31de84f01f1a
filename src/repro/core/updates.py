"""Incremental maintenance of the subdomain index (paper §4.3).

Four operations, mirroring the paper:

* **add_query** — locate the point's subdomain by one compare of its
  signature with every cell's; when none matches, the point opens a new
  last cell.  The paper first tries the cells of the point's nearest
  neighbours in a query R-tree, but the compare that confirms such a
  candidate decides on its own: no two cells share a signature, so it
  finds the cell a neighbour would have offered.
* **remove_query** — delete the point from its subdomain; an emptied
  subdomain is discarded, and the cells after it shift down.
* **add_object** — create the intersections of the new function with
  every existing one and split the subdomains that the new hyperplanes
  cut through.  New hyperplanes can only *split* cells, so each query
  is classified on the new columns only, and the parts of each cell
  are its members grouped by that pattern.
* **remove_object** — drop every intersection involving the object.
  Dropped hyperplanes can only *merge* cells: cells whose reduced
  signatures collide merge — exactly the above/below merge the paper
  describes — and when none collide the partition is untouched.  The
  exact collision test decides this alone.  The paper's bloom filter of
  boundary registrations (:meth:`SubdomainIndex.ensure_boundaries`)
  could only pre-empt the same decision, and registering every boundary
  again after each mutation costs far more than the test.

The index stores one signature per populated cell (not per query), as
rows of one matrix next to each query's cell id and each cell's
representative and prefix row (see
:class:`~repro.core.subdomain.SubdomainIndex`).  Every update edits
those arrays directly: a new cell is one appended row, a discarded cell
one deleted row, and a split or a merge regroups the cells in one
grouping pass.  Per-query side vectors are recomputed from the workload
weights only where needed.  A query update that adds or removes a cell
copies the signature matrix once.

In relevant mode the index keeps every query's top-``(k + margin)`` row
(:class:`~repro.core.subdomain.Contenders`), and each update ranks only
the rows it can change: ``add_query`` ranks one new row, ``remove_query``
drops one, ``add_object`` scores the newcomer at every query in one
product and re-ranks the rows whose last entry it does not outscore by
more than the tie band (the same test as the prefix rows', below) and
the rows that held every object, and ``remove_object`` re-ranks the rows
that held the object.  A row ranked alone gets the rows a recomputation
writes, since :func:`~repro.core.subdomain.contender_rows` scores each
row in the same bits whatever rows share its product.  The arrangement
is then closed over the pairs of the *new* contenders only, which yields
the same columns, in the same order, as recomputing
:func:`~repro.core.subdomain.relevant_pairs` after every update.  Rows
whose cut falls between equal scores are ranked afresh with all rows, so
they follow exactly what a recomputation would pick; after a
``remove_query`` that does so, the arrangement is closed too.

The prefix table (each cell's ranking prefix, see
:class:`~repro.core.subdomain.SubdomainIndex`) is kept across updates,
not dropped, and stays, entry for entry, what ranking every cell afresh
would write.  A row holds the first objects of its representative's
``(score, id)`` order, so an update unranks only the rows it can
change: ``add_object`` scores the newcomer at every cell's
representative in one product and unranks the rows it does not rank
past by more than a tie band (``EPS_TIE`` times the size of the terms),
``remove_object`` unranks the rows that held the object and shifts the
ids above it down in the rest, a split or a merge passes a row on to the
one cell that keeps its representative, and ``remove_query`` unranks the
cell whose representative it removed.  Object updates cut every kept
row to its cell's depth, and the next read ranks only the unranked
cells.  Kept entries keep their order only while the ranking product
gives each object the same bits whatever its row and the matrix height;
:func:`~repro.core.subdomain._padded` says where that was measured to
hold, and a tier-1 test pins it.

Object ids and query ids are *dense*: removing id ``x`` shifts every id
above ``x`` down by one, in the dataset/queryset and in the index
alike.
"""

from __future__ import annotations

import numpy as np

from repro.constants import EPS_TIE
from repro.core.subdomain import (
    Contenders,
    SubdomainIndex,
    contender_mask,
    contender_rows,
    hyperplanes,
)
from repro.geometry.arrangement import signature_matrix, unique_signatures

__all__ = ["add_query", "remove_query", "add_object", "remove_object"]


def add_query(index: SubdomainIndex, weights: np.ndarray, k: int) -> int:
    """Insert a top-k query; returns its id (= new m - 1)."""
    weights = np.asarray(weights, dtype=float)
    new_queries, query_id = index.queries.with_query(weights, k)
    relevant = _derive_contenders(index)
    index.queries = new_queries
    signature_row = signature_matrix(weights[None, :], index.normals)[0]
    sid = _classify_full(index, signature_row, query_id)
    index.subdomain_of = np.append(index.subdomain_of, sid)
    # A new query can pull objects into the contender set that the
    # relevant-mode arrangement has never seen; close over them so the
    # partition stays trustworthy at the new query's depth.
    if relevant:
        _append_contender_row(index, query_id)
        _close_over_new_contenders(index)
    index.mark_boundaries_dirty()
    index.notify_mutation()
    return query_id


def _classify_full(index: SubdomainIndex, signature_row: np.ndarray, query_id: int) -> int:
    """The cell whose signature is ``signature_row``, by one compare over every cell.

    When no cell matches, the query opens a new last cell and represents it.
    """
    cells, h = index.signatures.shape
    if h == 0:
        found = np.arange(min(cells, 1))  # every cell has the empty signature
    else:
        void = np.dtype((np.void, h))
        rows = np.ascontiguousarray(index.signatures).view(void).reshape(cells)
        found = np.flatnonzero(rows == signature_row.view(void)[0])
    if found.size:
        return int(found[0])
    index.signatures = np.vstack((index.signatures, signature_row))
    index.representatives = np.append(index.representatives, query_id)
    index.prefixes = np.vstack(
        (index.prefixes, np.full((1, index.prefixes.shape[1]), -1, dtype=np.intp))
    )
    index.prefix_lengths = np.append(index.prefix_lengths, -1)  # never ranked
    return cells


def remove_query(index: SubdomainIndex, query_id: int) -> None:
    """Delete a query; ids above it shift down by one."""
    index.queries = index.queries.without_query(query_id)
    sid = int(index.subdomain_of[query_id])
    subdomain_of = np.delete(index.subdomain_of, query_id)
    representatives = index.representatives
    if not (subdomain_of == sid).any():
        # Algorithm 1 keeps only populated subdomains.
        subdomain_of -= subdomain_of > sid
        index.signatures = np.delete(index.signatures, sid, axis=0)
        index.prefixes = np.delete(index.prefixes, sid, axis=0)
        index.prefix_lengths = np.delete(index.prefix_lengths, sid)
        representatives = np.delete(representatives, sid)
    elif representatives[sid] == query_id:
        # Another member represents the cell now.  Its ranking can differ
        # from the removed query's in the last bits of a near tie, or in
        # relevant mode past the contenders, so the cell is ranked afresh.
        moved = np.arange(representatives.shape[0]) == sid
        index.prefixes = np.where(moved[:, None], -1, index.prefixes)
        index.prefix_lengths = np.where(moved, -1, index.prefix_lengths)
    index.subdomain_of = subdomain_of
    # A representative above the removed id is the same query, renumbered,
    # and stays its cell's lowest member.
    index.representatives = np.where(
        representatives >= query_id, _lowest_members(index), representatives
    )
    if index._contenders is not None:
        rows, tied, closed = index._contenders
        kept = Contenders(np.delete(rows, query_id, axis=0), np.delete(tied, query_id), closed)
        if _keep_contenders(index, kept):
            # Ranked afresh at a narrower width, a tied cut can take an
            # object the arrangement never closed over.
            _close_over_new_contenders(index)
    index.mark_boundaries_dirty()
    index.notify_mutation()


def _lowest_members(index: SubdomainIndex) -> np.ndarray:
    """Each cell's lowest query id."""
    m = index.subdomain_of.shape[0]
    lowest = np.full(index.num_subdomains, m, dtype=np.intp)
    np.minimum.at(lowest, index.subdomain_of, np.arange(m))
    return lowest


def add_object(index: SubdomainIndex, attributes: np.ndarray) -> int:
    """Insert an object; its function's intersections split subdomains."""
    attributes = np.asarray(attributes, dtype=float)
    new_dataset, object_id = index.dataset.with_object(attributes)
    relevant = _derive_contenders(index)
    index.dataset = new_dataset
    matrix = new_dataset.matrix
    _unrank_rows_entered(index, object_id)

    if not relevant:
        pairs = np.column_stack((np.arange(object_id), np.full(object_id, object_id)))
        new_pairs, new_normals = hyperplanes(matrix, pairs)  # pairs (b, new), b < new
        if new_pairs.shape[0]:
            _append_columns(index, new_pairs, new_normals)
    else:
        # Relevant mode: the newcomer is the only object that can join a
        # query's top-(k + margin); close over its pairs with every
        # contender.  Deriving counterparts from the *existing* pair list
        # (the pre-fix behaviour) silently left the newcomer without
        # hyperplanes whenever the pair list was empty, and the
        # partition went stale.
        _insert_into_contender_rows(index, object_id)
        _close_over_new_contenders(index)
    _cut_prefixes(index)
    index.mark_boundaries_dirty()
    index.notify_mutation()
    return object_id


def _unrank_rows_entered(index: SubdomainIndex, object_id: int) -> None:
    """``add_object``: unrank every ranked prefix row the newcomer may now rank inside."""
    entered = _entered(
        index.queries.weights[index.representatives],
        index.dataset.matrix,
        index.prefixes,
        index.prefix_lengths,
        object_id,
    )
    index.prefixes = np.where(entered[:, None], -1, index.prefixes)
    index.prefix_lengths = np.where(entered, -1, index.prefix_lengths)


def _entered(
    weights: np.ndarray, matrix: np.ndarray, rows: np.ndarray, lengths: np.ndarray, object_id: int
) -> np.ndarray:
    """Which rows, each ``lengths`` entries long, object ``object_id`` may rank inside.

    Row ``i`` ranks ``matrix``'s objects at ``weights[i]``; a row of
    length 0 or less counts as not entered.  The newcomer is scored at
    every row in one product.  A row counts as entered unless the
    newcomer outscores its last entry by more than ``EPS_TIE`` times the
    size of the two scores' terms (``Σ|w_i|(|x_i| + |y_i|)``), so the
    call never rests on the last bits in which this product and the
    ranking one differ: past that band the newcomer ranks after every
    entry, and the row is still the start of its order.
    """
    ranked = np.flatnonzero(lengths > 0)
    weights = weights[ranked]
    last = matrix[rows[ranked, lengths[ranked] - 1]]
    newcomer = matrix[object_id]
    gap = weights @ newcomer - np.einsum("ij,ij->i", last, weights)
    terms = np.einsum("ij,ij->i", np.abs(weights), np.abs(last) + np.abs(newcomer))
    entered = np.zeros(lengths.shape[0], dtype=bool)
    entered[ranked] = gap <= EPS_TIE * np.maximum(1.0, terms)
    return entered


def _append_columns(
    index: SubdomainIndex, new_pairs: np.ndarray, new_normals: np.ndarray
) -> None:
    """Append hyperplane columns and split the cells they cut through."""
    index.normals = (
        np.vstack([index.normals, new_normals]) if index.normals.size else new_normals
    )
    index.pairs = np.concatenate([index.pairs, new_pairs])
    _split_cells_on_new_columns(index, new_normals)


def _derive_contenders(index: SubdomainIndex) -> bool:
    """Relevant mode: make sure the contenders of the data *before* the update exist."""
    if index.mode != "relevant":
        return False
    index.contenders()
    return True


def _rank_contenders(
    index: SubdomainIndex, query_ids: "np.ndarray | None" = None
) -> "tuple[np.ndarray, np.ndarray]":
    """:func:`~repro.core.subdomain.contender_rows` of some (default: all) queries."""
    weights, ks = index.queries.weights, index.queries.ks
    if query_ids is not None:
        weights, ks = weights[query_ids], ks[query_ids]
    return contender_rows(index.dataset.matrix, weights, ks, index.margin)


def _keep_contenders(index: SubdomainIndex, contenders: Contenders) -> bool:
    """Store edited rows, ranking every row afresh where an edit cannot be exact.

    A tied row holds ``argpartition``'s pick among equal scores at the
    width it was ranked with (see
    :func:`~repro.core.subdomain.contender_rows`).  While any row is
    tied, all rows are ranked together whenever the width a rebuild
    would use, the deepest query's depth, differs from the rows' width.
    Returns whether they were.
    """
    rows, tied, closed = contenders
    ranked = bool(tied.any()) and rows.shape[1] != int(_contender_depths(index).max(initial=0))
    if ranked:
        rows, tied = _rank_contenders(index)
    index._contenders = Contenders(rows, tied, closed)
    return ranked


def _contender_depths(index: SubdomainIndex) -> np.ndarray:
    """Each query's contender row length, ``min(n, k + margin)``."""
    return np.minimum(index.dataset.n, index.queries.ks.astype(np.intp) + index.margin)


def _append_contender_row(index: SubdomainIndex, query_id: int) -> None:
    """``add_query``: rank the new query alone and append its row."""
    rows, tied, closed = index.contenders()
    row, row_tied = _rank_contenders(index, np.array([query_id]))
    if row_tied[0] or (tied.any() and row.shape[1] > rows.shape[1]):
        # A tied row depends on the block's width; rank every query
        # together, as a rebuild would.
        rows, tied = _rank_contenders(index)
    else:
        width = max(rows.shape[1], row.shape[1])
        rows = np.vstack((_pad(rows, width), _pad(row, width)))
        tied = np.append(tied, False)
    _keep_contenders(index, Contenders(rows, tied, closed))


def _insert_into_contender_rows(index: SubdomainIndex, object_id: int) -> None:
    """``add_object``: re-rank only the rows the newcomer may enter.

    An untied row's objects all score below every object outside it, so
    the newcomer is the only object that can enter, and only a row that
    held every object (now one short of its depth) or a row whose last
    entry it does not outscore by more than the tie band of
    :func:`_entered` can change.
    """
    rows, tied, closed = index.contenders()
    depths = _contender_depths(index)
    lengths = np.minimum(index.dataset.n - 1, depths)  # before the newcomer
    entered = (lengths < depths) | _entered(
        index.queries.weights, index.dataset.matrix, rows, lengths, object_id
    )
    rows, tied = _rerank_rows(index, rows, tied, np.flatnonzero(entered))
    _keep_contenders(index, Contenders(rows, tied, np.append(closed, False)))


def _drop_from_contender_rows(index: SubdomainIndex, object_id: int) -> None:
    """``remove_object``: shift ids above it and re-rank only the rows that held it."""
    rows, tied, closed = index.contenders()
    held = np.flatnonzero((rows == object_id).any(axis=1))
    rows, tied = _rerank_rows(index, np.where(rows > object_id, rows - 1, rows), tied, held)
    _keep_contenders(index, Contenders(rows, tied, np.delete(closed, object_id)))


def _rerank_rows(
    index: SubdomainIndex, rows: np.ndarray, tied: np.ndarray, picked: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``rows`` with rows ``picked`` ranked afresh, and the ``tied`` flags.

    The picked rows are ranked alone, which
    :func:`~repro.core.subdomain.contender_rows` scores in the bits it
    scores them in beside every row.  When a row was tied, or a picked
    one is, every row is ranked afresh instead.
    """
    if tied.any():
        return _rank_contenders(index)
    if picked.size:
        fresh, fresh_tied = _rank_contenders(index, picked)
        if fresh_tied.any():
            return _rank_contenders(index)
        rows = _pad(rows, max(rows.shape[1], fresh.shape[1]))
        rows[picked] = _pad(fresh, rows.shape[1])
    return rows, tied


def _pad(rows: np.ndarray, width: int) -> np.ndarray:
    """``rows`` in a new array, widened to ``width`` columns with ``-1``."""
    padded = np.full((rows.shape[0], width), -1, dtype=np.intp)
    padded[:, : rows.shape[1]] = rows
    return padded


def _close_over_new_contenders(index: SubdomainIndex) -> None:
    """Append the pairs between new contenders and every contender.

    The arrangement holds every pair among the closed objects, so the
    pairs it misses are the new contenders against all current ones.
    They are appended in ``(a, b)`` order, as a recomputation of
    :func:`~repro.core.subdomain.relevant_pairs` would list them.  New
    hyperplanes only refine the partition, so stale pairs of objects
    that dropped out stay harmlessly.
    """
    rows, tied, closed = index.contenders()
    n = index.dataset.n
    now = contender_mask(rows, n)
    index._contenders = Contenders(rows, tied, now)
    fresh = now & ~closed
    new = np.flatnonzero(fresh)
    if not new.size:
        return
    current = np.flatnonzero(now)
    # Each pair once: a new contender with an old one, or two new ones in order.
    keep = (new[:, None] < current) | ~fresh[current]
    low = np.minimum.outer(new, current)[keep]
    high = np.maximum.outer(new, current)[keep]
    # Pair (a, b) is key a * n + b; a sorted probe finds the held ones.
    keys = np.sort(low * n + high)
    held = np.sort(index.pairs[:, 0] * n + index.pairs[:, 1])
    slot = np.searchsorted(held, keys)
    found = slot < held.shape[0]
    found[found] = held[slot[found]] == keys[found]
    missing = keys[~found]
    new_pairs, new_normals = hyperplanes(
        index.dataset.matrix, np.column_stack((missing // n, missing % n))
    )
    if new_pairs.shape[0]:
        _append_columns(index, new_pairs, new_normals)


def _split_cells_on_new_columns(index: SubdomainIndex, new_normals: np.ndarray) -> None:
    """New hyperplanes only split cells: regroup the queries by cell and new pattern.

    One grouping pass orders the parts by parent cell, then by the bytes
    of their pattern on the new columns; each part's lowest query
    represents it.
    """
    patterns = signature_matrix(index.queries.weights, new_normals)
    __, __, pattern_of = unique_signatures(patterns)
    parent_of, representatives = index.subdomain_of, index.representatives
    keys = parent_of * (int(pattern_of.max(initial=0)) + 1) + pattern_of
    __, first, cell_of = np.unique(keys, return_index=True, return_inverse=True)
    kept = index.signatures
    if first.shape[0] > index.num_subdomains:  # some cell split: repeat its row
        kept = kept[parent_of[first]]
    index.signatures = np.hstack((kept, patterns[first]))
    index.subdomain_of = cell_of
    index.representatives = first
    _carry_prefixes(index, parent_of, representatives)


def _carry_prefixes(
    index: SubdomainIndex, parent_of: np.ndarray, representatives: np.ndarray
) -> None:
    """After a split or a merge, pass each row on to the cell that keeps its representative.

    ``parent_of`` and ``representatives`` are each query's cell and each
    cell's representative before the regrouping.  A row ranks its
    representative, so it still holds for the one new cell that
    representative represents; every other cell is left unranked.
    """
    parent = parent_of[index.representatives]
    kept = representatives[parent] == index.representatives
    index.prefixes = np.where(kept[:, None], index.prefixes[parent], -1)
    index.prefix_lengths = np.where(kept, index.prefix_lengths[parent], -1)


def _cut_prefixes(index: SubdomainIndex) -> None:
    """Cut every ranked row to its cell's depth, and the table to its longest row.

    A fresh rank writes each cell at its depth; a kept row is deeper
    when its cell lost its deepest query, to ``remove_query`` or to a
    split.  A row shorter than its depth stays, and the next read ranks
    it.
    """
    lengths = np.minimum(index.prefix_lengths, index._cell_depths())
    width = int(lengths.max(initial=0))
    index.prefixes = np.where(
        np.arange(width) < lengths[:, None], index.prefixes[:, :width], -1
    )
    index.prefix_lengths = lengths


def remove_object(index: SubdomainIndex, object_id: int) -> None:
    """Remove an object; subdomains split only by its intersections merge."""
    index.dataset._check_id(object_id)
    relevant = _derive_contenders(index)
    index.dataset = index.dataset.without_object(object_id)
    _drop_from_prefixes(index, object_id)
    # Drop every column involving the object; ids above it shift down.
    involved = (index.pairs == object_id).any(axis=1)
    pairs = index.pairs - (index.pairs > object_id)
    if involved.any():
        keep = np.flatnonzero(~involved)
        index.pairs = pairs[keep]
        index.normals = index.normals[keep]
        # The exact collision test decides the merge on its own.  A
        # dropped column that bounds a cell separates it from a cell
        # differing only there, so the two collide; cells differing only
        # in several dropped columns collide too, and cells differing
        # elsewhere never do.  np.take keeps the rows contiguous, where
        # signatures[:, keep] would not.
        _merge_cells(index, np.take(index.signatures, keep, axis=1))
    else:
        index.pairs = pairs  # no column dropped: the signatures stay distinct
    # Removing a top-ranked object promotes objects from below the
    # margin depth into the contender set; close over their pairs so
    # relevant-mode cells keep constant rankings at trusted depths.
    if relevant:
        _drop_from_contender_rows(index, object_id)
        _close_over_new_contenders(index)
    _cut_prefixes(index)
    index.mark_boundaries_dirty()
    index.notify_mutation()


def _drop_from_prefixes(index: SubdomainIndex, object_id: int) -> None:
    """``remove_object``: unrank the rows that held the object; shift ids above it down.

    A row without the object still holds the first objects of its
    order: the object ranked past them.
    """
    rows = index.prefixes
    held = (rows == object_id).any(axis=1)
    index.prefixes = np.where(held[:, None], -1, rows - (rows > object_id))
    index.prefix_lengths = np.where(held, -1, index.prefix_lengths)


def _merge_cells(index: SubdomainIndex, reduced: np.ndarray) -> None:
    """Merge the cells whose signatures collide after dropping columns.

    Merged cells are ordered by signature bytes, and each one's lowest
    query represents it (the above/below merge of §4.3); when no two
    signatures collide, the cells keep their order.
    """
    merged, __, cell_of = unique_signatures(reduced)
    if merged.shape[0] == index.num_subdomains:
        index.signatures = reduced
        return
    parent_of, representatives = index.subdomain_of, index.representatives
    index.signatures = merged
    index.subdomain_of = cell_of[parent_of]
    index.representatives = _lowest_members(index)
    _carry_prefixes(index, parent_of, representatives)
