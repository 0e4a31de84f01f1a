"""Incremental maintenance of the subdomain index (paper §4.3).

Four operations, mirroring the paper:

* **add_query** — insert the point into the R-tree, then locate its
  subdomain.  Following the paper's observation, the subdomains of the
  new point's nearest neighbours are tried first, each by one signature
  comparison; the scan over every cell runs only when no candidate
  matches.
* **remove_query** — delete from the R-tree and from its subdomain;
  empty subdomains are discarded.
* **add_object** — create the intersections of the new function with
  every existing one and split the subdomains that the new hyperplanes
  cut through.  New hyperplanes can only *split* cells, so the work is
  per-cell: classify each cell's members on the new columns only.
  Representative rankings are invalidated (the new object may appear
  anywhere in them).
* **remove_object** — drop every intersection involving the object.
  Dropped hyperplanes can only *merge* cells: cells whose reduced
  signatures collide merge — exactly the above/below merge the paper
  describes — and when none collide the partition is untouched.  The
  exact collision test decides this alone.  The paper's bloom filter of
  boundary registrations (:meth:`SubdomainIndex.ensure_boundaries`)
  could only pre-empt the same decision, and registering every boundary
  again after each mutation costs far more than the test.

The index stores one signature per populated cell (not per query), so
all maintenance works on cell signatures; per-query side vectors are
recomputed from the workload weights only where needed.

Object ids and query ids are *dense*: removing id ``x`` shifts every id
above ``x`` down by one, in the dataset/queryset and in the index
alike.

The four public functions accept either index implementation: a
:class:`~repro.core.sharding.ShardedSubdomainIndex` routes query
mutations to the owning shard and fans object mutations out to every
shard (each shard re-entering these functions as a monolith); a
:class:`~repro.core.subdomain.SubdomainIndex` is maintained in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.subdomain import Subdomain, SubdomainIndex, hyperplanes, relevant_pairs
from repro.errors import ValidationError
from repro.geometry.arrangement import signature_matrix
from repro.index.rtree import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sharding import ShardedSubdomainIndex

__all__ = ["add_query", "remove_query", "add_object", "remove_object"]

#: How many nearest neighbours donate candidate subdomains on insert.
_KNN_CANDIDATES = 3


def _as_sharded(
    index: "SubdomainIndex | ShardedSubdomainIndex",
) -> "ShardedSubdomainIndex | None":
    """The sharded view of ``index``, or ``None`` for a monolith.

    The four public maintenance operations dispatch here: a sharded
    index routes/fans the mutation across its shards (whose *monolithic*
    members come straight back through these same functions), a
    monolithic index falls through to the in-place maintenance below.
    The import is deferred because :mod:`repro.core.sharding` imports
    this module for its shard-level delegation.
    """
    from repro.core.sharding import ShardedSubdomainIndex

    return index if isinstance(index, ShardedSubdomainIndex) else None


def _as_monolithic(
    index: "SubdomainIndex | ShardedSubdomainIndex",
) -> SubdomainIndex:
    """Narrow to the monolithic implementation after sharded dispatch.

    Only reachable with a :class:`SubdomainIndex` (the ``_as_sharded``
    branch returned already); the runtime check keeps that assumption a
    typed error instead of an ``assert`` under ``python -O``.
    """
    if not isinstance(index, SubdomainIndex):
        raise ValidationError(
            f"maintenance expects a SubdomainIndex here, got {type(index).__name__}"
        )
    return index


def add_query(
    index: "SubdomainIndex | ShardedSubdomainIndex", weights: np.ndarray, k: int
) -> int:
    """Insert a top-k query; returns its id (= new m - 1)."""
    weights = np.asarray(weights, dtype=float)
    sharded = _as_sharded(index)
    if sharded is not None:
        return sharded.add_query(weights, k)
    index = _as_monolithic(index)
    new_queries, query_id = index.queries.with_query(weights, k)
    index.queries = new_queries
    index.rtree.insert_point(weights, query_id)

    signature_row = signature_matrix(weights[None, :], index.normals)[0]
    sid = _locate_with_knn_candidates(index, weights, signature_row)
    if sid is None:
        sid = _classify_full(index, signature_row)
    sub = index.subdomains[sid]
    sub.query_ids = np.append(sub.query_ids, query_id)
    if sub.representative < 0:
        sub.representative = query_id  # freshly created cell
    if sub.prefix is not None and k + 1 > sub.prefix.shape[0] and sub.prefix.shape[0] < index.dataset.n:
        sub.prefix = None  # deeper ranking now needed; re-evaluate lazily
    index.subdomain_of = np.append(index.subdomain_of, sid)
    # A new query can pull objects into the contender set that the
    # relevant-mode arrangement has never seen; close over them so the
    # partition stays trustworthy at the new query's depth.
    _extend_relevant_closure(index)
    index.mark_boundaries_dirty()
    index.notify_mutation()
    return query_id


def _locate_with_knn_candidates(
    index: SubdomainIndex, weights: np.ndarray, signature_row: np.ndarray
) -> int | None:
    """§4.3: try the subdomains of the point's nearest neighbours first.

    A candidate cell is accepted when its signature equals the point's
    full signature.  No boundary pre-check runs: a mismatch on a
    boundary column implies a full-signature mismatch, so it could only
    reject what the equality test rejects anyway.
    """
    if index.queries.m <= 1 or index.num_subdomains == 0:
        return None
    key = signature_row.tobytes()
    for neighbour in index.rtree.nearest(weights, k=_KNN_CANDIDATES + 1):
        if neighbour >= index.subdomain_of.shape[0]:
            continue  # the freshly inserted point itself
        sid = int(index.subdomain_of[neighbour])
        if index.subdomains[sid].signature == key:
            return sid
    return None


def _classify_full(index: SubdomainIndex, signature_row: np.ndarray) -> int:
    key = signature_row.tobytes()
    for sub in index.subdomains:
        if sub.signature == key:
            return sub.sid
    sid = len(index.subdomains)
    index.subdomains.append(
        Subdomain(
            sid=sid,
            signature=key,
            query_ids=np.empty(0, dtype=np.intp),
            representative=-1,  # patched by the caller appending the query
        )
    )
    return sid


def remove_query(
    index: "SubdomainIndex | ShardedSubdomainIndex", query_id: int
) -> None:
    """Delete a query; ids above it shift down by one."""
    sharded = _as_sharded(index)
    if sharded is not None:
        sharded.remove_query(query_id)
        return
    index = _as_monolithic(index)
    weights, __ = index.queries.query(query_id)
    if not index.rtree.delete(weights, query_id):
        raise ValidationError(f"query {query_id} missing from the R-tree (corrupt index?)")
    index.queries = index.queries.without_query(query_id)

    mask = np.ones(index.subdomain_of.shape[0], dtype=bool)
    mask[query_id] = False
    index.subdomain_of = index.subdomain_of[mask]

    survivors: list[Subdomain] = []
    for sub in index.subdomains:
        ids = sub.query_ids[sub.query_ids != query_id]
        ids = np.where(ids > query_id, ids - 1, ids)
        if ids.size == 0:
            continue  # Algorithm 1 keeps only populated subdomains
        sub.query_ids = ids
        if sub.representative == query_id or sub.representative > query_id:
            sub.representative = int(ids[0])
            # The cached prefix is still valid: any member is an equally
            # good representative within the same subdomain.
        survivors.append(sub)
    _renumber(index, survivors)
    # R-tree payloads above the removed id must shift as well.
    _shift_rtree_payloads(index, query_id)
    index.mark_boundaries_dirty()
    index.notify_mutation()


def _shift_rtree_payloads(index: SubdomainIndex, removed_id: int) -> None:
    """Rebuild the R-tree with payloads > removed_id decremented."""
    items: list[tuple[Rect, int]] = []
    for rect, payload in index.rtree.items():
        items.append((rect, payload - 1 if payload > removed_id else payload))
    index.rtree = type(index.rtree).bulk_load(
        index.queries.dim, items, max_entries=index.rtree.max_entries
    )


def add_object(
    index: "SubdomainIndex | ShardedSubdomainIndex", attributes: np.ndarray
) -> int:
    """Insert an object; its function's intersections split subdomains."""
    sharded = _as_sharded(index)
    if sharded is not None:
        return sharded.add_object(np.asarray(attributes, dtype=float))
    index = _as_monolithic(index)
    new_dataset, object_id = index.dataset.with_object(attributes)
    index.dataset = new_dataset
    matrix = new_dataset.matrix

    if index.mode == "exact":
        pairs = np.column_stack((np.arange(object_id), np.full(object_id, object_id)))
        new_pairs, new_normals = hyperplanes(matrix, pairs)  # pairs (b, new), b < new
        if new_pairs.shape[0]:
            _append_columns(index, new_pairs, new_normals)
    else:
        # Relevant mode: recompute the contender set on the post-insert
        # data and close over every missing pair.  Deriving counterparts
        # from the *existing* pair list (the pre-fix behaviour) silently
        # left the newcomer without hyperplanes whenever the pair list
        # was empty — or missed the contenders the newcomer displaces —
        # and the partition went stale.
        _extend_relevant_closure(index)
    _invalidate_prefixes(index)  # the new object changes every ranking
    index.mark_boundaries_dirty()
    index.notify_mutation()
    return object_id


def _append_columns(
    index: SubdomainIndex, new_pairs: np.ndarray, new_normals: np.ndarray
) -> None:
    """Append hyperplane columns and split the cells they cut through."""
    index.normals = (
        np.vstack([index.normals, new_normals]) if index.normals.size else new_normals
    )
    index.pairs = np.concatenate([index.pairs, new_pairs])
    _split_cells_on_new_columns(index, new_normals)


def _extend_relevant_closure(index: SubdomainIndex) -> None:
    """Grow a relevant-mode arrangement to the current contender closure.

    Recomputes :func:`~repro.core.subdomain.relevant_pairs` on the
    index's *current* data and appends every pair the arrangement is
    missing.  New hyperplanes only refine the partition, so stale extra
    pairs from earlier states are harmless and are kept; missing pairs
    are exactly what lets two queries with different contender rankings
    share a cell (and therefore a wrong k-th-other threshold).  No-op in
    exact mode and when the arrangement is already closed.
    """
    if index.mode != "relevant":
        return
    n = index.dataset.n
    wanted = relevant_pairs(index.dataset, index.queries, index.margin)
    # Pair (a, b) is key a * n + b; a sorted probe finds the held ones.
    held = np.sort(index.pairs[:, 0] * n + index.pairs[:, 1])
    keys = wanted[:, 0] * n + wanted[:, 1]
    slot = np.searchsorted(held, keys)
    found = slot < held.shape[0]
    found[found] = held[slot[found]] == keys[found]
    new_pairs, new_normals = hyperplanes(index.dataset.matrix, wanted[~found])
    if new_pairs.shape[0]:
        _append_columns(index, new_pairs, new_normals)


def _split_cells_on_new_columns(index: SubdomainIndex, new_normals: np.ndarray) -> None:
    """New hyperplanes only split cells: reclassify members per cell."""
    weights = index.queries.weights
    survivors: list[Subdomain] = []
    for sub in index.subdomains:
        member_rows = signature_matrix(weights[sub.query_ids], new_normals)
        patterns: dict[bytes, list[int]] = {}
        for local, row in enumerate(member_rows):
            patterns.setdefault(row.tobytes(), []).append(local)
        for pattern_key in sorted(patterns):
            locals_ = patterns[pattern_key]
            members = sub.query_ids[np.asarray(locals_, dtype=np.intp)]
            survivors.append(
                Subdomain(
                    sid=-1,  # renumbered below
                    signature=sub.signature + pattern_key,
                    query_ids=members,
                    representative=int(members[0]),
                )
            )
    _renumber(index, survivors)


def remove_object(
    index: "SubdomainIndex | ShardedSubdomainIndex", object_id: int
) -> None:
    """Remove an object; subdomains split only by its intersections merge."""
    sharded = _as_sharded(index)
    if sharded is not None:
        sharded.remove_object(object_id)
        return
    index = _as_monolithic(index)
    index.dataset._check_id(object_id)
    index.dataset = index.dataset.without_object(object_id)
    # Drop every column involving the object; ids above it shift down.
    keep = np.flatnonzero((index.pairs != object_id).all(axis=1))
    kept = index.pairs[keep]
    index.pairs = kept - (kept > object_id)
    index.normals = index.normals[keep]

    reduced: dict[int, bytes] = {}
    for sub in index.subdomains:
        cell_signature = np.frombuffer(sub.signature, dtype=np.int8)
        reduced[sub.sid] = cell_signature[keep].tobytes()

    # The exact collision test decides the merge on its own.  A dropped
    # column that bounds a cell separates it from a cell differing only
    # there, so the two collide; cells differing only in several dropped
    # columns collide too, and cells differing elsewhere never do.
    if len(set(reduced.values())) != len(index.subdomains):
        _merge_cells(index, reduced)  # above/below merge of §4.3
    else:
        for sub in index.subdomains:
            sub.signature = reduced[sub.sid]
    # Removing a top-ranked object promotes objects from below the
    # margin depth into the contender set; close over their pairs so
    # relevant-mode cells keep constant rankings at trusted depths.
    _extend_relevant_closure(index)
    index.mark_boundaries_dirty()
    _invalidate_prefixes(index)
    index.notify_mutation()


def _merge_cells(index: SubdomainIndex, reduced: dict[int, bytes]) -> None:
    """Merge cells whose signatures collide after dropping columns."""
    groups: dict[bytes, list[Subdomain]] = {}
    for sub in index.subdomains:
        groups.setdefault(reduced[sub.sid], []).append(sub)
    survivors: list[Subdomain] = []
    for signature_key in sorted(groups):
        cells = groups[signature_key]
        members = np.sort(np.concatenate([c.query_ids for c in cells]))
        survivors.append(
            Subdomain(
                sid=-1,  # renumbered below
                signature=signature_key,
                query_ids=members,
                representative=int(members[0]),
            )
        )
    _renumber(index, survivors)


def _renumber(index: SubdomainIndex, survivors: list[Subdomain]) -> None:
    index.subdomains = []
    for sid, sub in enumerate(survivors):
        sub.sid = sid
        index.subdomains.append(sub)
        index.subdomain_of[sub.query_ids] = sid


def _invalidate_prefixes(index: SubdomainIndex) -> None:
    for sub in index.subdomains:
        sub.prefix = None
