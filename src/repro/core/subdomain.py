"""The subdomain index (paper §4.1, Algorithm 1).

Pairwise object-function intersections are hyperplanes that partition
the query domain into *subdomains*; within one subdomain the complete
ranking of the objects is the same for every query point (paper §3.2).
The index

* groups the workload's query points by subdomain, as one array per
  fact: each query's cell id, each cell's side vector (one ``int8``
  matrix) and each cell's representative query;
* stores one lazily-evaluated *representative ranking prefix* per
  subdomain, as rows of one ``-1``-padded table (the "at most one query
  evaluated per subdomain" sharing that Efficient Strategy Evaluation
  relies on), and
* on request (:meth:`SubdomainIndex.ensure_boundaries`), registers
  subdomain boundaries in a counting bloom filter, the paper's §4.3
  merge pre-check.  The update path itself decides merges by an exact
  signature-collision test and never registers boundaries.

The paper also keeps the query points in an R-tree, for the range
retrieval of a strategy's affected subspace (§4.1) and the kNN
candidate cells of an inserted query (§4.3).  Neither lookup can prune
here: the affected subspace is bounded by the workload's own domain, so
the range scan returns every query, and the signature compare that
confirms a kNN candidate decides an insert on its own.  So the index
keeps no tree; :mod:`repro.index` keeps a bare one as the baseline of
Figures 5 and 6.

The index builds its partition one way: it groups the query points by
their sign vector over the hyperplane set
(``unique_signatures(signature_matrix(weights, normals))``).
:func:`find_subdomains` is the literal Algorithm 1 binary space
partitioning loop, the reference the tests and the Figure 4-5 bench rows
hold that grouping to.

Hyperplane budget (``mode``)
----------------------------
``"exact"`` uses all ``C(n, 2)`` intersections, which is what the
paper describes and what guarantees that rankings are constant within a
cell.  ``"relevant"`` restricts to intersections among the
*contenders*, the objects in some query's top-``(k + MARGIN)`` row
(:func:`contender_rows`, which the §4.3 updates keep): only those
objects can influence top-k membership at the indexed query points, so
the hyperplane count drops from ``O(n^2)`` to roughly ``O(t^2)`` for
the much smaller set of top-ranked objects ``t``.  Every read works as
in exact mode, from the cells' shared prefixes, which relevant mode
ranks ``MARGIN`` objects deeper.

Ties: queries lying exactly on a hyperplane count as *above* it (paper
§4.1); exact score ties between distinct objects are broken by object
id.  Every ranked row, a contender row or a prefix, is the first
objects of its weights' ``(score, id)`` order (:func:`_ranked_rows`).
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.constants import EPS, EPS_TIE
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import IndexCorruptionError, ValidationError
from repro.geometry.arrangement import signature_matrix, unique_signatures
from repro.index.bloom import CountingBloomFilter
from repro.index.mmapio import check_index_format, read_mmap_index, write_mmap_index

__all__ = [
    "MARGIN",
    "Contenders",
    "SubdomainIndex",
    "contender_mask",
    "contender_rows",
    "dataset_fingerprint",
    "find_subdomains",
    "hyperplanes",
    "queryset_fingerprint",
    "relevant_pairs",
]

_MODES = ("exact", "relevant")

#: Relevant mode's extra ranking depth: a query's contender row holds
#: its top ``k + MARGIN`` objects.  Saved indexes record it.
MARGIN = 2

#: Budget (in floats) for intermediate score blocks; large workloads are
#: processed in query chunks so the full ``m x n`` matrix never needs to
#: exist at once.
_SCORE_CHUNK = 4_000_000

#: Budget (in floats) for one block of representative scores when the
#: prefix table is ranked.  Kept small: the first read after a build
#: runs on a fuller heap than the build did, and a build-sized block
#: there would raise the process's peak memory.
_RANK_CHUNK = 250_000

#: A ranked matrix is scored in blocks of a multiple of ``_RANK_ROWS``
#: rows and at most ``_RANK_ENTRIES`` entries (see :func:`_padded`).
_RANK_ROWS = 16
_RANK_ENTRIES = 1 << 16


class Contenders(NamedTuple):
    """Relevant mode's contender state, derived and kept by the §4.3 updates."""

    rows: np.ndarray  #: :func:`contender_rows` of the current data
    #: Objects whose pairs with each other the arrangement holds: the
    #: contenders as of the last closure.
    closed: np.ndarray


def dataset_fingerprint(dataset: Dataset) -> str:
    """Content hash identifying a dataset (sense, shape, attributes)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(dataset.sense.encode("utf-8"))
    digest.update(repr(dataset.points.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(dataset.points, dtype=float).tobytes())
    return digest.hexdigest()


def queryset_fingerprint(queries: QuerySet) -> str:
    """Content hash identifying a workload (shape, weights, ks)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr(queries.weights.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(queries.weights, dtype=float).tobytes())
    digest.update(np.ascontiguousarray(queries.ks, dtype=np.int64).tobytes())
    return digest.hexdigest()


def relevant_pairs(dataset: Dataset, queries: QuerySet) -> np.ndarray:
    """Object pairs whose intersections can affect indexed top-k results.

    Returns the ``(p, 2)`` array of ``(a, b)`` rows (``a < b``, sorted)
    over the union of every query's top-``(k + MARGIN)`` objects (the
    rows of :func:`contender_rows`).
    """
    rows = contender_rows(dataset.matrix, queries.weights, queries.ks)
    return _pairs_among(contender_mask(rows, dataset.n))


def contender_mask(rows: np.ndarray, n: int) -> np.ndarray:
    """Which of the ``n`` objects some row of ``-1``-padded ``rows`` names."""
    rows = np.asarray(rows, dtype=np.intp)
    # A mask, not np.unique: a plain 1-D np.unique imports numpy.ma.
    mask = np.zeros(n, dtype=bool)
    mask[rows[rows >= 0]] = True
    return mask


def _pairs_among(contender: np.ndarray) -> np.ndarray:
    """Every ``(a, b)`` pair (``a < b``, sorted) of the objects ``contender`` marks."""
    ordered = np.flatnonzero(contender)
    first, second = np.triu_indices(ordered.shape[0], 1)
    return np.column_stack((ordered[first], ordered[second]))


def contender_rows(matrix: np.ndarray, weights: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """Each query's top-``(k + MARGIN)`` object ids, in ``(score, id)`` order.

    Row ``j`` holds query ``j``'s ``min(n, k_j + MARGIN)`` best objects
    and ``-1`` past them, in as many columns as the deepest row needs.
    The objects named by any row are the *contenders*.  A row depends on
    its own query's scores alone (:func:`_ranked_rows`), so the §4.3
    updates rank one row alone and get what ranking every row writes.
    """
    n = matrix.shape[0]
    depths = np.minimum(n, np.asarray(ks).astype(np.intp) + MARGIN)
    return _ranked_rows(_padded(matrix), weights, n, depths, _SCORE_CHUNK)


def _ranked_rows(
    padded: np.ndarray, weights: np.ndarray, n: int, depths: np.ndarray, budget: int
) -> np.ndarray:
    """Row ``i``: the first ``depths[i]`` objects of ``weights[i]``'s ``(score, id)`` order.

    The one ranking routine of the contender rows and the prefix table.
    ``padded`` is :func:`_padded` of the ``n`` objects, which
    :func:`_scores` scores in blocks of about ``budget`` floats;
    :func:`_rank_block` ranks each block at the deepest row's depth, and
    a row whose cut there falls inside a run of equal scores is ranked
    by a stable argsort, so ties go to the lower id at every depth.  The
    rows are ``-1`` past their depths, in ``max(depths)`` columns.
    """
    m = weights.shape[0]
    width = int(depths.max(initial=0))
    rows = np.full((m, width), -1, dtype=np.intp)
    if not width:
        return rows
    columns = np.arange(width)
    chunk = max(1, budget // n)
    for start in range(0, m, chunk):
        block = _scores(padded, weights[start : start + chunk], n)
        ranked, tied = _rank_block(block, width)
        for i in np.flatnonzero(tied):
            ranked[i] = np.argsort(block[i], kind="stable")[:width]
        stop = start + block.shape[0]
        rows[start:stop] = np.where(columns < depths[start:stop, None], ranked, -1)
    return rows


def _rank_block(block: np.ndarray, width: int) -> "tuple[np.ndarray, np.ndarray]":
    """Each row's ``width`` smallest scores, in ``(score, id)`` order.

    Returns ``(ranked, tied)``: the column ids, from one ``argpartition``
    then a ``(score, id)`` lexsort, and whether row ``i``'s cut at
    ``width`` falls inside a run of equal scores, where which of the
    tied columns are kept is ``argpartition``'s choice.  ``block`` is
    left as it was passed.
    """
    n = block.shape[1]
    if width < n:
        part = np.argpartition(block, width - 1, axis=1)[:, :width]
    else:
        part = np.broadcast_to(np.arange(n), block.shape).copy()
    part_scores = np.take_along_axis(block, part, axis=1)
    order = np.lexsort((part, part_scores), axis=1)
    # The least score past the ranked columns (+inf when there are
    # none), found in place so no second (rows, n) array is allocated.
    np.put_along_axis(block, part, np.inf, axis=1)
    past = block.min(axis=1)
    np.put_along_axis(block, part, part_scores, axis=1)
    return np.take_along_axis(part, order, axis=1), past == part_scores.max(axis=1)


def hyperplanes(matrix: np.ndarray, pairs: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """The intersection hyperplanes of ``pairs``: ``(kept_pairs, normals)``.

    Row ``i`` of ``normals`` is ``matrix[a] - matrix[b]`` for
    ``(a, b) = kept_pairs[i]``.  Pairs of identical objects
    (``|normal|_inf <= EPS``) never switch rank and are dropped; the
    kept rows stay in ``pairs`` order.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    normals = matrix[pairs[:, 0]] - matrix[pairs[:, 1]]
    keep = np.abs(normals).max(axis=1, initial=0.0) > EPS
    return pairs[keep], normals[keep]


def find_subdomains(normals: np.ndarray, points: np.ndarray) -> dict[bytes, list[int]]:
    """Algorithm 1: partition query points by intersection hyperplanes.

    The paper's binary-space-partitioning loop, one hyperplane at a
    time.  It is the reference :class:`SubdomainIndex`'s grouping is
    held to (the tests and the Figure 4-5 bench rows compare them cell
    for cell); no program path builds an index with it.

    Parameters
    ----------
    normals:
        ``(h, d)`` hyperplane normals (the intersection set ``I``).
    points:
        ``(m, d)`` query points.

    Returns
    -------
    Mapping from the cell's side-signature bytes to the list of query
    indices it contains (ascending).  Only non-empty cells are kept,
    exactly as Algorithm 1 discards subdomains that contain no query
    point.
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        return {}
    # Start with a single subdomain holding every query (lines 1-5).
    groups: list[tuple[list[int], list[int]]] = [(list(range(points.shape[0])), [])]
    # Each group carries (query indices, side history) where the side
    # history is the signature accumulated over processed hyperplanes.
    for normal in normals:  # line 6: for all I_i in I
        next_groups: list[tuple[list[int], list[int]]] = []
        for members, history in groups:  # line 7: subdomains overlapping I_i
            above: list[int] = []
            below: list[int] = []
            for q in members:  # lines 12-18
                if float(points[q] @ normal) <= EPS:
                    above.append(q)
                else:
                    below.append(q)
            if above:  # line 19-21: keep only populated children
                next_groups.append((above, history + [1]))
            if below:  # line 22-24
                next_groups.append((below, history + [-1]))
        groups = next_groups
    return {
        np.asarray(history, dtype=np.int8).tobytes(): members for members, history in groups
    }


class SubdomainIndex:
    """Query-point index grouped by subdomain (the Efficient-IQ index).

    Parameters
    ----------
    dataset, queries:
        The object set and the top-k workload.
    mode:
        ``"exact"`` (all pairwise intersections) or ``"relevant"``
        (top-ranked contenders only; see module docstring).

    The hyperplane set is two aligned arrays: ``pairs``, the ``(h, 2)``
    object ids ``(a, b)`` with ``a < b``, and ``normals``, the ``(h, d)``
    rows ``p_a - p_b``.  Column ``c`` of every cell signature is the
    side of hyperplane ``c``.

    The partition is one array per fact:

    * ``subdomain_of``, ``(m,)``: each query's cell, the one membership
      record (:meth:`cell_members` derives member lists from it);
    * ``signatures``, ``(cells, h)`` ``int8``: each cell's side vector;
    * ``representatives``, ``(cells,)``: the query whose ranking the
      cell shares;
    * ``prefixes``, ``(cells, width)``, and ``prefix_lengths``,
      ``(cells,)``: each cell's ranking prefix as one row of a
      ``-1``-padded table, and its length, ``-1`` for a cell not
      ranked (never, or unranked by an update; :mod:`repro.core.updates`
      keeps the rows it cannot change).

    Cells are numbered as they were made: a build or a merge orders them
    by signature bytes, a split by parent cell and then by the pattern
    on the new columns, a cell an inserted query opens comes last, and
    removing a cell shifts the cells after it down.  A cell's
    representative is its lowest query id when the cell is made, and is
    moved only when a query at or below it is removed.
    """

    def __init__(self, dataset: Dataset, queries: QuerySet, mode: str = "exact") -> None:
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        if dataset.dim != queries.dim:
            raise ValidationError(
                f"dataset dim {dataset.dim} != query dim {queries.dim}"
            )
        self.dataset = dataset
        self.queries = queries
        self.mode = mode
        self.representative_evaluations = 0  #: full rankings computed so far
        self._epoch = 0  #: bumped by every mutation (see :attr:`epoch`)

        #: Relevant mode's :class:`Contenders`: derived state, never
        #: persisted (a loaded index rebuilds it, see :meth:`contenders`).
        self._contenders: "Contenders | None" = None
        if mode == "exact":
            pairs = np.column_stack(np.triu_indices(dataset.n, 1))
        else:
            rows = contender_rows(dataset.matrix, queries.weights, queries.ks)
            closed = contender_mask(rows, dataset.n)
            self._contenders = Contenders(rows, closed)
            pairs = _pairs_among(closed)
        self.pairs, self.normals = hyperplanes(dataset.matrix, pairs)

        self._build_partition()
        self._boundaries_ready = False
        self.bloom: CountingBloomFilter | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_partition(self) -> None:
        # The full per-query signature matrix exists only while
        # grouping; the index at rest stores one signature per *cell*
        # plus a subdomain id per query — the paper's observation that
        # per-query storage is unnecessary ("mark this on the root-node
        # of the sub-tree instead of storing the same information for
        # each query point").
        sides = signature_matrix(self.queries.weights, self.normals)
        self.signatures, self.representatives, self.subdomain_of = unique_signatures(sides)
        self._clear_prefixes()

    def _clear_prefixes(self) -> None:
        """Forget every cell's ranking prefix (the cells or the objects changed)."""
        self.prefixes = np.empty((self.num_subdomains, 0), dtype=np.intp)
        self.prefix_lengths = np.full(self.num_subdomains, -1, dtype=np.intp)

    def ensure_boundaries(self) -> None:
        """Register which hyperplane columns bound which subdomains (lazy).

        A column is a *boundary* of a cell when masking it merges the
        cell with another populated cell — i.e. the hyperplane actually
        separates two populated subdomains, which is the only case the
        merge-on-removal maintenance cares about.  Registrations go to
        a counting bloom filter keyed ``(sid, column)`` (§4.3); the
        exact answer is read off the signature matrix
        (:meth:`_boundary_columns`) and not stored.  This is explicit
        API: :mod:`repro.core.updates` never calls it, since its exact
        collision test makes the same merge decision and every mutation
        would force a full re-registration.
        """
        if self._boundaries_ready:
            return
        self._boundaries_ready = True
        self.bloom = CountingBloomFilter(
            expected_items=max(64, self.num_subdomains * max(1, self.num_hyperplanes) // 4),
            false_positive_rate=0.01,
        )
        for sid in range(self.num_subdomains):
            for col in self._boundary_columns(sid).tolist():
                self.bloom.add((sid, col))

    def _boundary_columns(self, sid: int) -> np.ndarray:
        """The columns in which cell ``sid`` differs from some cell and nowhere else.

        Masking such a column makes the two signatures collide; masking
        any other column leaves every signature distinct.
        """
        differ = self.signatures != self.signatures[sid]
        return np.flatnonzero(differ[differ.sum(axis=1) == 1].any(axis=0))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_hyperplanes(self) -> int:
        return self.normals.shape[0]

    @property
    def num_subdomains(self) -> int:
        return self.signatures.shape[0]

    def cell_members(self) -> "list[np.ndarray]":
        """Each cell's query ids, ascending: one stable argsort of ``subdomain_of``."""
        if not self.num_subdomains:
            return []
        order = np.argsort(self.subdomain_of, kind="stable")
        bounds = np.cumsum(np.bincount(self.subdomain_of, minlength=self.num_subdomains))
        return np.split(order, bounds[:-1])

    def is_boundary(self, sid: int, column: int) -> bool:
        """Bloom-filter pre-check, then exact confirmation."""
        self.ensure_boundaries()
        if (sid, column) not in self.bloom:
            return False  # bloom has no false negatives
        return column in self._boundary_columns(sid)

    def mark_boundaries_dirty(self) -> None:
        """Invalidate the boundary registration after a mutation."""
        self._boundaries_ready = False

    # ------------------------------------------------------------------
    # Mutation notification: the epoch bus
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonically increasing mutation counter.

        Every maintenance operation (:mod:`repro.core.updates`) bumps it
        via :meth:`notify_mutation`.  Consumers caching state derived
        from the index (the ESE threshold cache, the RTA snapshot)
        record the epoch they were built at and lazily rebuild when it
        moved — so mutating the index directly, without going through
        any engine wrapper, can never serve stale results.
        """
        return self._epoch

    def notify_mutation(self) -> None:
        """Bump the epoch (``updates`` calls this after every mutation)."""
        self._epoch += 1

    def memory_estimate(self) -> int:
        """Approximate index size in bytes (Figures 4-6 metric).

        One signature per populated cell, one subdomain id per query,
        the lazily-evaluated ranking prefixes, and the boundary
        counting-bloom filter (zero until boundaries are first
        registered — the filter is lazy).
        """
        signature_bytes = self.num_subdomains * self.num_hyperplanes
        prefix_bytes = 8 * int(np.maximum(self.prefix_lengths, 0).sum())
        structure = self.num_subdomains * 96 + self.queries.m * 8
        bloom_bytes = self.bloom.memory_estimate() if self.bloom is not None else 0
        return signature_bytes + prefix_bytes + structure + bloom_bytes

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _persist_payload(self) -> "tuple[dict[str, object], dict[str, np.ndarray]]":
        """``(metadata, arrays)`` written by :meth:`save`.

        On disk a cell never ranked has prefix length 0, and the ranked
        rows of the prefix table are stored end to end.
        """
        lengths = np.maximum(self.prefix_lengths, 0)
        ranked = np.arange(self.prefixes.shape[1]) < lengths[:, None]
        metadata: dict[str, object] = {
            "mode": self.mode,
            "margin": MARGIN,
            "epoch": int(self._epoch),
            "dataset_fingerprint": dataset_fingerprint(self.dataset),
            "queries_fingerprint": queryset_fingerprint(self.queries),
        }
        arrays: dict[str, np.ndarray] = {
            "pairs": np.asarray(self.pairs, dtype=np.int64),
            "normals": np.asarray(self.normals, dtype=float),
            "signatures": np.asarray(self.signatures, dtype=np.int8),
            "subdomain_of": np.asarray(self.subdomain_of, dtype=np.int64),
            "representatives": np.asarray(self.representatives, dtype=np.int64),
            "prefix_lengths": lengths.astype(np.int64),
            "prefix_concat": self.prefixes[ranked].astype(np.int64),
        }
        return metadata, arrays

    def save(self, path: "str | Path", format: str = "mmap") -> None:
        """Persist the index as a memory-mappable directory.

        The directory (:mod:`repro.index.mmapio`: one raw ``.npy`` per
        matrix under a ``manifest.json``) stores the partition
        (hyperplane pairs, normals, one signature per cell, per-query
        subdomain ids, representatives), every ranking prefix evaluated
        so far, the mutation epoch, and content fingerprints of the
        dataset and the workload — :meth:`load` validates the
        fingerprints, so a saved index can never silently serve answers
        for different data.  ``"mmap"`` is the only ``format``; any
        other value raises :class:`~repro.errors.ValidationError`.
        """
        check_index_format(format)
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise ValidationError(f"index path {path} exists and is not a directory")
        metadata, arrays = self._persist_payload()
        write_mmap_index(path, metadata, arrays)

    @classmethod
    def _check_metadata(
        cls,
        metadata: "dict[str, object]",
        origin: Path,
        dataset: Dataset,
        queries: QuerySet,
    ) -> None:
        """Validate loaded header metadata before any payload is touched.

        Missing fields, and a ``margin`` or ``epoch`` that is not a JSON
        integer >= 0, are corruption (the manifest is damaged or written
        under a different key layout); an intact header naming
        different data, unknown enum values or a ``margin`` other than
        :data:`MARGIN` is a validation failure.
        """
        required = (
            "mode",
            "margin",
            "epoch",
            "dataset_fingerprint",
            "queries_fingerprint",
        )
        for key in required:
            if key not in metadata:
                raise IndexCorruptionError(
                    f"saved index {origin} is missing required field {key!r}"
                )
        for key in ("margin", "epoch"):
            value = metadata[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise IndexCorruptionError(
                    f"saved index {origin} field {key!r} must be an integer >= 0, "
                    f"got {value!r}"
                )
        if metadata["margin"] != MARGIN:
            raise ValidationError(
                f"saved index {origin} was built with margin {metadata['margin']}, but "
                f"indexes rank contenders to depth k + {MARGIN}; save the index again"
            )
        if str(metadata["dataset_fingerprint"]) != dataset_fingerprint(dataset):
            raise ValidationError(
                "saved index was built for a different dataset (fingerprint mismatch)"
            )
        if str(metadata["queries_fingerprint"]) != queryset_fingerprint(queries):
            raise ValidationError(
                "saved index was built for a different workload (fingerprint mismatch)"
            )
        if str(metadata["mode"]) not in _MODES:
            raise ValidationError("saved index carries unknown mode")

    @classmethod
    def load(
        cls, path: "str | Path", dataset: Dataset, queries: QuerySet
    ) -> "SubdomainIndex":
        """Restore a saved index directory against the *same* data.

        The stored fingerprints must match the provided ``dataset`` and
        ``queries`` (a mismatch raises
        :class:`~repro.errors.ValidationError`), and the manifest is
        validated *before* any array file is opened — a stale or
        mismatched index fails in O(metadata), not O(index).  A path
        that is a regular file (such as a single-file ``.npz`` index,
        a layout this version no longer reads) also raises
        :class:`~repro.errors.ValidationError`, as does a directory in
        the sharded layout, before any shard file is opened.  The restored index
        serves identical answers to the one that was saved, including
        the already-evaluated ranking prefixes and the mutation epoch.
        Boundary registration stays lazy exactly as after a fresh
        construction.  Manifest keys this version does not read, such
        as an earlier version's R-tree capacity or build choice, are
        ignored, and a re-save omits them.

        Every array stays a read-only memory map (O(1) open, page-cache
        shared across forked workers), the signature matrix included;
        only the ranking prefixes are unpacked into their padded table.
        The update paths rebind the arrays they change, so the files on
        disk can never be modified through a loaded index.  Arrays that
        disagree with each other (see :meth:`validate`) raise
        :class:`~repro.errors.IndexCorruptionError`.
        """
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"no saved index at {path}")
        if not path.is_dir():
            raise ValidationError(
                f"saved index {path} is a file, but an index must be a directory "
                "written by save(); save the index again"
            )
        metadata, arrays = read_mmap_index(
            path, validate=lambda meta: cls._check_metadata(meta, path, dataset, queries)
        )
        for key in (
            "pairs",
            "normals",
            "signatures",
            "subdomain_of",
            "representatives",
            "prefix_lengths",
            "prefix_concat",
        ):
            if key not in arrays:
                raise IndexCorruptionError(
                    f"saved index {path} is missing required field {key!r}"
                )
        return cls._restore(dataset, queries, metadata, arrays)

    @classmethod
    def _restore(
        cls,
        dataset: Dataset,
        queries: QuerySet,
        metadata: "dict[str, object]",
        arrays: "dict[str, np.ndarray]",
    ) -> "SubdomainIndex":
        """Rebuild an index object from validated persisted state."""
        mode = str(metadata["mode"])
        epoch = int(metadata["epoch"])  # type: ignore[call-overload]

        index = cls.__new__(cls)
        index.dataset = dataset
        index.queries = queries
        index.mode = mode
        index.representative_evaluations = 0
        index._epoch = epoch
        # The maps read_mmap_index opened; only the prefixes are unpacked.
        index.pairs = np.asarray(arrays["pairs"], dtype=np.intp)
        index.normals = np.asarray(arrays["normals"], dtype=float)
        index.signatures = np.asarray(arrays["signatures"], dtype=np.int8)
        index.subdomain_of = np.asarray(arrays["subdomain_of"], dtype=np.intp)
        index.representatives = np.asarray(arrays["representatives"], dtype=np.intp)
        index.prefixes, index.prefix_lengths = _unpack_prefixes(
            np.asarray(arrays["prefix_lengths"], dtype=np.intp),
            np.asarray(arrays["prefix_concat"], dtype=np.intp),
        )
        index._boundaries_ready = False
        index.bloom = None
        index._contenders = None
        index.validate()
        return index

    # ------------------------------------------------------------------
    # Representative rankings
    # ------------------------------------------------------------------
    def contenders(self) -> Contenders:
        """The :class:`Contenders` of the current data (relevant mode).

        The build keeps them and :mod:`repro.core.updates` edits them
        with each update.  A loaded index ranks them on first use and
        marks no object closed, so its first closure checks every
        contender pair, as a rebuild would.
        """
        if self._contenders is None:
            rows = contender_rows(self.dataset.matrix, self.queries.weights, self.queries.ks)
            self._contenders = Contenders(rows, np.zeros(self.dataset.n, dtype=bool))
        return self._contenders

    def _trusted_depth(self, max_k: "int | np.ndarray") -> "int | np.ndarray":
        """Prefix depth a cell needs when its deepest query asks for ``max_k``."""
        extra = 1 + (MARGIN if self.mode == "relevant" else 0)
        return np.minimum(self.dataset.n, max_k + extra)

    def prefix(self, sid: int) -> np.ndarray:
        """Ranking prefix (object ids, best first) shared by the cell.

        Evaluated lazily from the cell's representative query — the "at
        most one query evaluated per subdomain" rule of ESE.
        """
        max_k = int(self.queries.ks[self.subdomain_of == sid].max())
        depth = int(self._trusted_depth(max_k))
        if self.prefix_lengths[sid] < depth:
            self._rank_cells(np.array([sid]), np.array([depth]))
        return self.prefixes[sid, : self.prefix_lengths[sid]]

    def _rank_cells(self, sids: np.ndarray, depths: np.ndarray) -> None:
        """Rank the representatives of cells ``sids`` into their prefix rows.

        The one scoring routine behind :meth:`prefix` and
        :meth:`_prefix_rows`; it writes the rows of the prefix table in
        place, widening the table when a depth exceeds it.  A row is the
        first objects of its representative's ``(score, id)`` order
        (:func:`_ranked_rows`), so a prefix never depends on which cells
        were ranked with it, nor on how many objects follow one.
        """
        width = int(depths.max(initial=0))
        if width > self.prefixes.shape[1]:
            extra = width - self.prefixes.shape[1]
            self.prefixes = np.pad(self.prefixes, ((0, 0), (0, extra)), constant_values=-1)
        matrix = _padded(self.dataset.matrix)
        weights = self.queries.weights[self.representatives[sids]]
        rows = _ranked_rows(matrix, weights, self.dataset.n, depths, _RANK_CHUNK)
        self.prefixes[sids] = -1
        self.prefixes[sids, :width] = rows
        self.prefix_lengths[sids] = depths
        self.representative_evaluations += int(sids.shape[0])

    def kth_other(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-query threshold object against a target (Eq. 6).

        Returns ``(kth_ids, theta)`` where ``kth_ids[j]`` is the id of
        the k-th ranked object of query ``j`` among ``D \\ {target}``
        and ``theta[j]`` its score at ``j`` (``+inf`` when fewer than
        ``k`` other objects exist).  The improved target hits query
        ``j`` iff its score is below ``theta[j]`` (ties by id).

        Every query reads its threshold out of its cell's shared prefix
        in one gather over the prefix table.  A prefix holds at least
        ``min(n, k + 1)`` objects for every member query, so a query
        whose threshold lies past its cell's prefix has fewer than ``k``
        other objects to rank, and keeps ``+inf``.
        """
        self.dataset._check_id(target)
        m = self.queries.m
        kth_ids = np.full(m, -1, dtype=np.intp)
        theta = np.full(m, np.inf)
        if m == 0:
            return kth_ids, theta
        weights = self.queries.weights
        ks = self.queries.ks.astype(np.intp)
        matrix = self.dataset.matrix
        table, lengths = self._prefix_rows()
        found = table == target
        # The target's position in each cell's prefix (past every k when
        # absent); a query's k-th *other* object shifts one entry deeper
        # when the target ranks inside its first k.
        position = np.where(found.any(axis=1), found.argmax(axis=1), np.iinfo(np.intp).max)
        cells = self.subdomain_of
        column = ks - 1 + (position[cells] < ks)
        deep = column < lengths[cells]
        covered = np.flatnonzero(deep)
        kth = table[cells[covered], column[covered]]
        kth_ids[covered] = kth
        theta[covered] = np.einsum("ij,ij->i", weights[covered], matrix[kth])
        return kth_ids, theta

    def _prefix_rows(self) -> "tuple[np.ndarray, np.ndarray]":
        """The prefix table and its lengths, every cell ranked deep enough.

        What :meth:`kth_other` reads.  Only the cells whose prefix is
        missing or shorter than their depth are ranked, in one batch.
        """
        depths = self._cell_depths()
        stale = np.flatnonzero(self.prefix_lengths < depths)  # -1: not ranked
        if stale.size:
            self._rank_cells(stale, depths[stale])
        return self.prefixes, self.prefix_lengths

    def _cell_depths(self) -> np.ndarray:
        """Each cell's prefix depth, from one ``np.maximum.at`` over the queries' ``k``."""
        depths = np.zeros(self.num_subdomains, dtype=np.intp)
        np.maximum.at(depths, self.subdomain_of, self.queries.ks)
        return np.asarray(self._trusted_depth(depths), dtype=np.intp)

    def hits_mask(self, target: int) -> np.ndarray:
        """Boolean mask over queries currently hit by ``target``."""
        kth_ids, theta = self.kth_other(target)
        scores = self.queries.weights @ self.dataset.matrix[target]
        return _beats_batch(scores[:, None], theta, target, kth_ids)[:, 0]

    def hits(self, target: int) -> int:
        """``H(target)`` — the number of queries the object hits."""
        return int(self.hits_mask(target).sum())

    def validate(self) -> None:
        """Check that the partition's arrays agree.

        The arrays must have matching shapes; every query must name a
        cell in ``[0, cells)`` and no cell may be empty; each
        representative must lie in its own cell; pair ids must lie in
        ``[0, n)`` with ``a < b``; and ranked prefixes must name objects
        in ``[0, n)``.  This is O(m + cells + h + prefix) and reads no
        signature value (the :mod:`repro.check` oracles recompute
        those).  A disagreement raises
        :class:`~repro.errors.IndexCorruptionError`.
        """
        m, n = self.queries.m, self.dataset.n
        h = self.normals.shape[0] if self.normals.ndim == 2 else -1
        cells = self.signatures.shape[0] if self.signatures.ndim == 2 else -1
        for name, shape in (
            ("signatures", (cells, h)),
            ("pairs", (h, 2)),
            ("normals", (h, self.dataset.dim)),
            ("subdomain_of", (m,)),
            ("representatives", (cells,)),
            ("prefix_lengths", (cells,)),
        ):
            if getattr(self, name).shape != shape:
                raise IndexCorruptionError(
                    f"{name} has shape {getattr(self, name).shape}, expected {shape}"
                )
        of = self.subdomain_of
        if m and not (0 <= of.min() and of.max() < cells):
            raise IndexCorruptionError(f"subdomain_of names a cell outside [0, {cells})")
        empty = np.flatnonzero(np.bincount(of, minlength=cells) == 0)
        if empty.size:
            raise IndexCorruptionError(f"cell {empty[0]} has no member query")
        reps = self.representatives
        if cells and not (0 <= reps.min() and reps.max() < m):
            raise IndexCorruptionError(f"a representative lies outside [0, {m})")
        strays = np.flatnonzero(of[reps] != np.arange(cells))
        if strays.size:
            raise IndexCorruptionError(
                f"representative {reps[strays[0]]} of cell {strays[0]} lies in another cell"
            )
        pairs = self.pairs
        if h and not ((0 <= pairs[:, 0]) & (pairs[:, 0] < pairs[:, 1]) & (pairs[:, 1] < n)).all():
            raise IndexCorruptionError(f"a hyperplane pair is not (a, b) with 0 <= a < b < {n}")
        ranked = self.prefixes[np.arange(self.prefixes.shape[1]) < self.prefix_lengths[:, None]]
        if ranked.size and not (0 <= ranked.min() and ranked.max() < n):
            raise IndexCorruptionError(f"a ranking prefix names an object outside [0, {n})")


def _padded(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as row blocks ``(blocks, rows, d)``, padded with zero rows.

    A BLAS gemv may score a matrix's last few rows on another code path
    (OpenBLAS's Haswell kernel does from 8 columns up), which ties an
    object's score bits to the number of rows after it.  A threaded gemv
    does the same at the last rows of each thread's share when it cuts
    the rows at widths that are not multiples of 4 (OpenBLAS 0.3.31 does
    at 3, 5 to 8, 12 and 16 threads, from about 460,000 entries).  So
    ``rows`` is a multiple of ``_RANK_ROWS`` and holds at most
    ``_RANK_ENTRIES`` entries (or ``_RANK_ROWS`` rows), and
    :func:`_scores` runs one gemv per block, each on one thread: no
    object takes that path, and each scores the same bits whatever its
    row, the matrix height and the BLAS thread count.  The object
    updates of :mod:`repro.core.updates` keep ranked rows on that
    ground.  This was measured with OpenBLAS 0.3.31 on a 2-CPU x86-64
    host at 1 to 8, 12 and 16 threads; a tier-1 test pins it at the
    BLAS's thread count, or at each count up to the CPU count where
    threadpoolctl is installed.
    At the benchmarks' sizes there is one block.
    """
    n, d = matrix.shape
    most = _RANK_ROWS * max(1, _RANK_ENTRIES // (_RANK_ROWS * max(1, d)))
    rows = min(most, max(1, -(-n // _RANK_ROWS)) * _RANK_ROWS)
    blocks = max(1, -(-n // rows))
    padded = np.zeros((blocks * rows, d))
    padded[:n] = matrix
    return padded.reshape(blocks, rows, d)


def _scores(padded: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """The ``(len(weights), n)`` scores of the first ``n`` :func:`_padded` objects.

    One gemv per weights row and block, so a row's bits also do not
    depend on how many rows share the call: a ``weights @ matrix.T``
    gemm scores one row alone and beside other rows in different bits.
    The contender rows and the prefix table both rank through it.
    """
    scores = np.matmul(padded, weights[:, None, :, None])
    return scores.reshape(weights.shape[0], -1)[:, :n]


def _unpack_prefixes(
    lengths: np.ndarray, concat: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Saved ``(prefix_lengths, prefix_concat)`` as the ``-1``-padded table and its lengths.

    On disk a cell never ranked has length 0, and the ranked prefixes
    lie end to end; in memory such a cell's length is ``-1``.
    """
    if (
        lengths.ndim != 1
        or concat.ndim != 1
        or (lengths < 0).any()
        or int(lengths.sum()) != concat.shape[0]
    ):
        raise IndexCorruptionError(
            "saved prefix_lengths are negative or do not sum to prefix_concat's length"
        )
    lengths = np.where(lengths > 0, lengths, -1)
    table = np.full((lengths.shape[0], int(lengths.max(initial=0))), -1, dtype=np.intp)
    table[np.arange(table.shape[1]) < lengths[:, None]] = concat
    return table, lengths


#: The largest finite float.  A tie interval's top is held there, so
#: that no finite threshold ties a ``+inf`` score, which no cutoff passes.
_BIG = np.finfo(float).max


def _beats_batch(
    scores: np.ndarray, theta: np.ndarray, target: int, kth_ids: np.ndarray
) -> np.ndarray:
    """Batched Eq. 6 with id tie-break: does the target make top-k?

    The one and only statement of the membership rule: ``scores`` is an
    ``(m, b)`` matrix of target scores (one column per candidate
    position) and the result is the ``(m, b)`` boolean membership
    matrix.  An infinite threshold means fewer than k other objects
    exist, so the target is always in the top-k.  Production reads go
    through :func:`_eq6_cutoffs`, which restates this rule as one
    compare per query and must agree with it bit for bit; this form is
    the reference the tests, ``repro check`` and the bench table's
    ``evaluate`` row hold it to.

    With ``b = EPS_TIE * max(1, |theta|)``, a score ties on the float
    interval ``[lo, hi]``: ``lo = fl(theta - b)`` and ``hi = fl(theta +
    b)``, held at the largest finite float.  Position ``j`` beats query
    ``i``'s threshold strictly (``s < lo``), ties and wins the id
    tie-break (``s <= hi`` and ``target < kth_ids[i]``), or meets an
    infinite threshold.
    """
    with np.errstate(over="ignore"):
        always = np.isinf(theta)
        finite_theta = np.where(always, 0.0, theta)
        band = EPS_TIE * np.maximum(1.0, np.abs(finite_theta))
        lo = finite_theta - band
        hi = np.minimum(finite_theta + band, _BIG)
    strict = scores < lo[:, None]
    tie = (scores <= hi[:, None]) & (target < kth_ids)[:, None]
    return always[:, None] | strict | tie


class Eq6Cutoffs(NamedTuple):
    """:func:`_beats_batch` for one target as one compare per query.

    Score ``s`` hits query ``i`` iff ``s < cut[i]``, except on the
    ``always`` rows (an infinite threshold, cut at ``+inf``), listed
    sparsely, where NaN and ``+inf`` scores hit too.
    """

    cut: np.ndarray  #: (m,) per-query cutoff
    always: np.ndarray  #: rows every score hits

    def take(self, rows: np.ndarray) -> "Eq6Cutoffs":
        """The cutoffs of ``rows`` (distinct query ids), renumbered from 0."""
        rows = np.asarray(rows, dtype=np.intp)
        return Eq6Cutoffs(self.cut[rows], np.flatnonzero(np.isin(rows, self.always)))


def _eq6_cutoffs(theta: np.ndarray, target: int, kth_ids: np.ndarray) -> Eq6Cutoffs:
    """:func:`_beats_batch` for ``target`` as :class:`Eq6Cutoffs`, bit for bit.

    Where the target loses the id tie-break a score hits below ``lo``;
    where it wins, at or below ``hi`` (which covers every score below
    ``lo``), and no float lies between ``hi`` and the next one up.  So
    the cutoff is ``lo`` or ``nextafter(hi, +inf)``.  A NaN threshold
    keeps a NaN cutoff, which no score passes, as in the reference.
    """
    with np.errstate(over="ignore"):
        always = np.isinf(theta)
        finite_theta = np.where(always, 0.0, theta)
        band = EPS_TIE * np.maximum(1.0, np.abs(finite_theta))
        lo = finite_theta - band
        hi = np.minimum(finite_theta + band, _BIG)
        cut = np.where(target < kth_ids, np.nextafter(hi, np.inf), lo)
    cut[always] = np.inf
    return Eq6Cutoffs(cut, np.flatnonzero(always))
