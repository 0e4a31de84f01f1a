"""The subdomain index (paper §4.1, Algorithm 1).

Pairwise object-function intersections are hyperplanes that partition
the query domain into *subdomains*; within one subdomain the complete
ranking of the objects is the same for every query point (paper §3.2).
The index

* groups the workload's query points by subdomain,
* stores one lazily-evaluated *representative ranking prefix* per
  subdomain (the "at most one query evaluated per subdomain" sharing
  that Efficient Strategy Evaluation relies on),
* keeps the query points in an R-tree for affected-subspace retrieval
  and kNN-based insertion (§4.3), and
* on request (:meth:`SubdomainIndex.ensure_boundaries`), registers
  subdomain boundaries in a counting bloom filter, the paper's §4.3
  merge pre-check.  The update path itself decides merges by an exact
  signature-collision test and never registers boundaries.

Two construction paths produce the identical partition:

* :func:`find_subdomains` — the literal Algorithm 1 binary space
  partitioning loop (kept as the executable specification and used by
  the tests as a cross-check);
* the vectorized signature fast path used by
  :class:`SubdomainIndex` — group query points by the sign vector of
  ``Q . (p_a - p_b)`` over the hyperplane set.

Hyperplane budget (``mode``)
----------------------------
``"exact"`` uses all ``C(n, 2)`` intersections, which is what the
paper describes and what guarantees that rankings are constant within a
cell.  ``"relevant"`` restricts to intersections among objects that
appear in some query's top-``(k + margin)`` prefix: only those objects
can influence top-k membership at the indexed query points, so the
partition (and the shared prefixes, up to the margin depth) remains
correct for top-k purposes while the hyperplane count drops from
``O(n^2)`` to roughly ``O(t^2)`` for the much smaller set of
top-ranked objects ``t``.  Rankings *below* the margin depth are not
trusted in this mode; consumers that need deeper prefixes fall back to
direct evaluation.

Ties: queries lying exactly on a hyperplane count as *above* it (paper
§4.1); exact score ties between distinct objects are broken by object
id.  Both are measure-zero events for continuous data.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.constants import EPS_TIE
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.errors import IndexCorruptionError, ValidationError
from repro.geometry.arrangement import group_by_signature, signature_matrix
from repro.geometry.hyperplane import EPS
from repro.index.bloom import CountingBloomFilter
from repro.index.mmapio import check_index_format, read_mmap_index, write_mmap_index
from repro.index.rtree import RTree

__all__ = [
    "Contenders",
    "Subdomain",
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
_PARTITION_METHODS = ("vectorized", "literal")

#: Budget (in floats) for intermediate score blocks; large workloads are
#: processed in query chunks so the full ``m x n`` matrix never needs to
#: exist at once.
_SCORE_CHUNK = 4_000_000

#: Budget (in floats) for one block of representative scores when the
#: prefix table is ranked.  Kept small: the first read after a build
#: runs on a fuller heap than the build did, and a build-sized block
#: there would raise the process's peak memory.
_RANK_CHUNK = 250_000


@dataclass
class Subdomain:
    """One populated cell of the intersection arrangement."""

    sid: int  #: dense subdomain id
    signature: bytes  #: side vector over the index's hyperplane columns
    query_ids: np.ndarray  #: workload queries falling in this cell
    representative: int  #: query id whose evaluation is shared
    prefix: np.ndarray | None = None  #: ranking prefix (lazy)
    boundaries: frozenset = field(default_factory=frozenset)  #: boundary column indices

    @property
    def size(self) -> int:
        return int(self.query_ids.shape[0])


class Contenders(NamedTuple):
    """Relevant mode's contender state, derived and kept by the §4.3 updates."""

    rows: np.ndarray  #: :func:`contender_rows` of the current data
    tied: np.ndarray  #: per row, whether its cut is tied (see :func:`contender_rows`)
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


def relevant_pairs(dataset: Dataset, queries: QuerySet, margin: int = 2) -> np.ndarray:
    """Object pairs whose intersections can affect indexed top-k results.

    Returns the ``(p, 2)`` array of ``(a, b)`` rows (``a < b``, sorted)
    over the union of every query's top-``(k + margin)`` objects (the
    rows of :func:`contender_rows`).
    """
    rows, __ = contender_rows(dataset.matrix, queries.weights, queries.ks, margin)
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


def contender_rows(
    matrix: np.ndarray, weights: np.ndarray, ks: np.ndarray, margin: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Each query's top-``(k + margin)`` object ids, in ``(score, id)`` order.

    Returns ``(rows, tied)``.  ``rows`` is ``(m, width)``, row ``j``
    holding query ``j``'s ``min(n, k_j + margin)`` best objects and
    ``-1`` past them.  ``tied[j]`` is set when that cut falls inside a
    run of equal scores: which of the tied objects made the row then
    depends on ``argpartition`` and on the block's width (the deepest
    query's depth), so the row cannot be edited incrementally.  The
    objects named by any row are the *contenders*.
    """
    if margin < 0:
        raise ValidationError(f"margin must be non-negative, got {margin}")
    n, m = matrix.shape[0], weights.shape[0]
    depths = np.minimum(n, np.asarray(ks).astype(np.intp) + margin)
    width = int(depths.max(initial=0))
    rows = np.full((m, width), -1, dtype=np.intp)
    tied = np.zeros(m, dtype=bool)
    if n == 0:
        return rows, tied
    # Batched prefix selection: one argpartition per query *chunk*
    # instead of a Python loop over queries.
    chunk = max(1, _SCORE_CHUNK // n)
    cols = np.arange(width)
    for start in range(0, m, chunk):
        block = weights[start : start + chunk] @ matrix.T  # (b, n)
        stop = start + block.shape[0]
        depth = depths[start:stop]
        ranked, tied[start:stop] = _rank_block(block, width, depth)
        rows[start:stop] = np.where(cols < depth[:, None], ranked, -1)
    return rows, tied


def _rank_block(
    block: np.ndarray, width: int, depths: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Each row's ``width`` smallest scores, in ``(score, id)`` order.

    Returns ``(ranked, tied)``: the column ids, from one ``argpartition``
    then a ``(score, id)`` lexsort, and whether row ``i``'s cut at
    ``depths[i] <= width`` falls inside a run of equal scores.  Where a
    cut is tied at ``width``, which of the tied columns are kept is
    ``argpartition``'s choice.  ``block`` is left as it was passed.
    """
    n = block.shape[1]
    if width < n:
        part = np.argpartition(block, width - 1, axis=1)[:, :width]
    else:
        part = np.broadcast_to(np.arange(n), block.shape).copy()
    part_scores = np.take_along_axis(block, part, axis=1)
    order = np.lexsort((part, part_scores), axis=1)
    scores = np.take_along_axis(part_scores, order, axis=1)
    # The least score past the ranked columns, found in place so no
    # second (rows, n) array is allocated.
    past = np.full((block.shape[0], 1), np.inf)
    if width < n:
        np.put_along_axis(block, part, np.inf, axis=1)
        past[:, 0] = block.min(axis=1)
        np.put_along_axis(block, part, part_scores, axis=1)
    local = np.arange(block.shape[0])
    after = np.concatenate((scores, past), axis=1)[local, depths]
    return np.take_along_axis(part, order, axis=1), after == scores[local, depths - 1]


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


def find_subdomains(
    normals: np.ndarray, points: np.ndarray, method: str = "vectorized"
) -> dict[bytes, list[int]]:
    """Algorithm 1: partition query points by intersection hyperplanes.

    Parameters
    ----------
    normals:
        ``(h, d)`` hyperplane normals (the intersection set ``I``).
    points:
        ``(m, d)`` query points.
    method:
        ``"vectorized"`` (default) computes the whole sign matrix with
        one ``points @ normals.T`` matmul and groups identical rows;
        ``"literal"`` runs the paper's binary-space-partitioning loop
        one hyperplane at a time.  Both produce the identical mapping
        (the property tests assert byte-identical output).

    Returns
    -------
    Mapping from the cell's side-signature bytes to the list of query
    indices it contains (ascending).  Only non-empty cells are kept,
    exactly as Algorithm 1 discards subdomains that contain no query
    point.
    """
    if method not in _PARTITION_METHODS:
        raise ValidationError(
            f"method must be one of {_PARTITION_METHODS}, got {method!r}"
        )
    normals = np.atleast_2d(np.asarray(normals, dtype=float))
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[0] == 0:
        return {}
    if method == "vectorized":
        groups = group_by_signature(signature_matrix(points, normals, tol=EPS))
        return {key: members.tolist() for key, members in groups.items()}
    h = normals.shape[0]
    # Start with a single subdomain holding every query (lines 1-5).
    groups_lit: list[tuple[list[int], list[int]]] = [(list(range(points.shape[0])), [])]
    # Each group carries (query indices, side history) where the side
    # history is the signature accumulated over processed hyperplanes.
    for col in range(h):  # line 6: for all I_i in I
        normal = normals[col]
        next_groups: list[tuple[list[int], list[int]]] = []
        for members, history in groups_lit:  # line 7: subdomains overlapping I_i
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
        groups_lit = next_groups
    return {
        np.asarray(history, dtype=np.int8).tobytes(): members
        for members, history in groups_lit
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
    margin:
        Extra ranking depth kept trustworthy in ``"relevant"`` mode.
    rtree_max_entries:
        Node capacity of the query-point R-tree.
    partition_method:
        ``"vectorized"`` (default) or ``"literal"`` — which
        :func:`find_subdomains` path builds the partition.  Both yield
        identical subdomains; the literal path exists as the executable
        specification and for benchmark baselines.

    The hyperplane set is two aligned arrays: ``pairs``, the ``(h, 2)``
    object ids ``(a, b)`` with ``a < b``, and ``normals``, the ``(h, d)``
    rows ``p_a - p_b``.  Column ``c`` of every cell signature is the
    side of hyperplane ``c``.
    """

    def __init__(
        self,
        dataset: Dataset,
        queries: QuerySet,
        mode: str = "exact",
        margin: int = 2,
        rtree_max_entries: int = 16,
        partition_method: str = "vectorized",
    ) -> None:
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        if partition_method not in _PARTITION_METHODS:
            raise ValidationError(
                f"partition_method must be one of {_PARTITION_METHODS}, "
                f"got {partition_method!r}"
            )
        if dataset.dim != queries.dim:
            raise ValidationError(
                f"dataset dim {dataset.dim} != query dim {queries.dim}"
            )
        self.dataset = dataset
        self.queries = queries
        self.mode = mode
        self.margin = margin
        self.partition_method = partition_method
        self.representative_evaluations = 0  #: full rankings computed so far
        self._mutation_hooks: list = []  #: weak refs to invalidation callbacks
        self._epoch = 0  #: bumped by every mutation (see :attr:`epoch`)

        #: Relevant mode's :class:`Contenders`: derived state, never
        #: persisted (a loaded index rebuilds it, see :meth:`contenders`).
        self._contenders: "Contenders | None" = None
        if mode == "exact":
            pairs = np.column_stack(np.triu_indices(dataset.n, 1))
        else:
            rows, tied = contender_rows(dataset.matrix, queries.weights, queries.ks, margin)
            closed = contender_mask(rows, dataset.n)
            self._contenders = Contenders(rows, tied, closed)
            pairs = _pairs_among(closed)
        self.pairs, self.normals = hyperplanes(dataset.matrix, pairs)

        self._rtree_max_entries = rtree_max_entries
        self._build_partition()
        self._build_rtree(rtree_max_entries)
        self._boundaries_ready = False
        self.bloom: CountingBloomFilter | None = None
        self._prefix_table: "tuple[int, np.ndarray, np.ndarray] | None" = None

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
        if self.partition_method == "literal":
            cells = find_subdomains(self.normals, self.queries.weights, method="literal")
            groups = {
                key: np.asarray(members, dtype=np.intp) for key, members in cells.items()
            }
        else:
            groups = group_by_signature(signature_matrix(self.queries.weights, self.normals))
        self.subdomains: list[Subdomain] = []
        self.subdomain_of = np.empty(self.queries.m, dtype=np.intp)
        for signature_key in sorted(groups):  # deterministic order
            members = groups[signature_key]
            sid = len(self.subdomains)
            self.subdomains.append(
                Subdomain(
                    sid=sid,
                    signature=signature_key,
                    query_ids=members,
                    representative=int(members[0]),
                )
            )
            self.subdomain_of[members] = sid

    def _build_rtree(self, max_entries: int) -> None:
        # STR bulk load packs the whole workload in one pass; the point
        # variant sorts coordinate arrays with numpy instead of Python
        # tuple comparisons.
        self.rtree = RTree.bulk_load_points(
            self.queries.dim, self.queries.weights, max_entries=max_entries
        )

    def ensure_boundaries(self) -> None:
        """Mark which hyperplane columns bound which subdomains (lazy).

        A column is a *boundary* of a cell when masking it merges the
        cell with another populated cell — i.e. the hyperplane actually
        separates two populated subdomains, which is the only case the
        merge-on-removal maintenance cares about.  Registrations go to
        a counting bloom filter keyed ``(sid, column)`` (§4.3).  This is
        explicit API: :mod:`repro.core.updates` never calls it, since
        its exact collision test makes the same merge decision and every
        mutation would force a full re-registration.
        """
        if self._boundaries_ready:
            return
        self._boundaries_ready = True
        for sub in self.subdomains:
            sub.boundaries = frozenset()
        self.bloom = CountingBloomFilter(
            expected_items=max(64, len(self.subdomains) * max(1, self.num_hyperplanes) // 4),
            false_positive_rate=0.01,
        )
        if not self.subdomains:
            return
        signatures = np.frombuffer(
            b"".join(sub.signature for sub in self.subdomains), dtype=np.int8
        ).reshape(len(self.subdomains), self.num_hyperplanes)
        for col in range(self.num_hyperplanes):
            masked = signatures.copy()
            masked[:, col] = 0
            seen: dict[bytes, list[int]] = {}
            for sid, row in enumerate(masked):
                seen.setdefault(row.tobytes(), []).append(sid)
            for sids in seen.values():
                if len(sids) > 1:
                    for sid in sids:
                        self.bloom.add((sid, col))
                        sub = self.subdomains[sid]
                        sub.boundaries = sub.boundaries | {col}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_hyperplanes(self) -> int:
        return self.normals.shape[0]

    @property
    def num_subdomains(self) -> int:
        return len(self.subdomains)

    def is_boundary(self, sid: int, column: int) -> bool:
        """Bloom-filter pre-check, then exact confirmation."""
        self.ensure_boundaries()
        if (sid, column) not in self.bloom:
            return False  # bloom has no false negatives
        return column in self.subdomains[sid].boundaries

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

    def subscribe_mutations(self, callback: "Callable[[], None]") -> None:
        """Register a callback fired after every index mutation.

        The epoch bus makes polling consumers (epoch comparison) the
        default; push-style consumers that must react *eagerly* to a
        mutation subscribe here.  Callbacks are held weakly: a
        garbage-collected subscriber is dropped silently.
        """
        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:
            ref = weakref.ref(callback)
        self._mutation_hooks.append(ref)

    def notify_mutation(self) -> None:
        """Bump the epoch, then fire every live callback (``updates`` calls this)."""
        self._epoch += 1
        live = []
        for ref in self._mutation_hooks:
            callback = ref()
            if callback is not None:
                callback()
                live.append(ref)
        self._mutation_hooks = live

    def memory_estimate(self) -> int:
        """Approximate index size in bytes (Figures 4-6 metric).

        One signature per populated cell, one subdomain id per query,
        the lazily-evaluated ranking prefixes, the query R-tree, and the
        boundary counting-bloom filter (zero until boundaries are first
        registered — the filter is lazy).
        """
        signature_bytes = self.num_subdomains * self.num_hyperplanes
        prefix_bytes = sum(
            sub.prefix.size * 8 for sub in self.subdomains if sub.prefix is not None
        )
        structure = len(self.subdomains) * 96 + self.queries.m * 8
        bloom_bytes = self.bloom.memory_estimate() if self.bloom is not None else 0
        return (
            self.rtree.memory_estimate()
            + signature_bytes
            + prefix_bytes
            + structure
            + bloom_bytes
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def _persist_payload(self) -> "tuple[dict[str, object], dict[str, np.ndarray]]":
        """``(metadata, arrays)`` written by :meth:`save`."""
        h = self.num_hyperplanes
        if self.subdomains:
            signatures = np.frombuffer(
                b"".join(sub.signature for sub in self.subdomains), dtype=np.int8
            ).reshape(self.num_subdomains, h)
        else:
            signatures = np.empty((0, h), dtype=np.int8)
        prefixes = [sub.prefix for sub in self.subdomains]
        prefix_lengths = np.asarray(
            [0 if p is None else p.shape[0] for p in prefixes], dtype=np.int64
        )
        evaluated = [p for p in prefixes if p is not None]
        prefix_concat = (
            np.concatenate(evaluated).astype(np.int64)
            if evaluated
            else np.empty(0, dtype=np.int64)
        )
        metadata: dict[str, object] = {
            "mode": self.mode,
            "margin": int(self.margin),
            "partition_method": self.partition_method,
            "rtree_max_entries": int(self._rtree_max_entries),
            "epoch": int(self._epoch),
            "dataset_fingerprint": dataset_fingerprint(self.dataset),
            "queries_fingerprint": queryset_fingerprint(self.queries),
        }
        arrays: dict[str, np.ndarray] = {
            "pairs": np.asarray(self.pairs, dtype=np.int64),
            "normals": np.asarray(self.normals, dtype=float),
            "signatures": signatures,
            "subdomain_of": self.subdomain_of.astype(np.int64),
            "representatives": np.asarray(
                [sub.representative for sub in self.subdomains], dtype=np.int64
            ),
            "prefix_lengths": prefix_lengths,
            "prefix_concat": prefix_concat,
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

        Missing fields are corruption (the manifest is damaged or
        written under a different key layout); an intact header naming
        different data or unknown enum values is a validation failure.
        """
        required = (
            "mode",
            "margin",
            "partition_method",
            "rtree_max_entries",
            "epoch",
            "dataset_fingerprint",
            "queries_fingerprint",
        )
        for key in required:
            if key not in metadata:
                raise IndexCorruptionError(
                    f"saved index {origin} is missing required field {key!r}"
                )
        if str(metadata["dataset_fingerprint"]) != dataset_fingerprint(dataset):
            raise ValidationError(
                "saved index was built for a different dataset (fingerprint mismatch)"
            )
        if str(metadata["queries_fingerprint"]) != queryset_fingerprint(queries):
            raise ValidationError(
                "saved index was built for a different workload (fingerprint mismatch)"
            )
        if (
            str(metadata["mode"]) not in _MODES
            or str(metadata["partition_method"]) not in _PARTITION_METHODS
        ):
            raise ValidationError("saved index carries unknown mode/partition_method")

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
        The R-tree is rebuilt by bulk load; boundary registration stays
        lazy exactly as after a fresh construction.

        The heavy matrices stay read-only memory maps (O(1) open,
        page-cache shared across forked workers); only
        ``subdomain_of``, which the update paths write in place, is
        copied.  Every other mutation rebinds, so the files on disk can
        never be modified through a loaded index.
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
        return cls._restore(
            dataset,
            queries,
            metadata,
            normals=np.asarray(arrays["normals"], dtype=float),
            signatures=np.asarray(arrays["signatures"], dtype=np.int8),
            pairs=np.asarray(arrays["pairs"], dtype=np.intp),
            # The one array the update paths write in place (cell-merge
            # renumbering) — everything else stays a read-only map.
            subdomain_of=np.array(arrays["subdomain_of"], dtype=np.intp),
            representatives=np.asarray(arrays["representatives"], dtype=np.intp),
            prefix_lengths=np.asarray(arrays["prefix_lengths"], dtype=np.intp),
            prefix_concat=np.asarray(arrays["prefix_concat"], dtype=np.intp),
        )

    @classmethod
    def _restore(
        cls,
        dataset: Dataset,
        queries: QuerySet,
        metadata: "dict[str, object]",
        *,
        normals: np.ndarray,
        signatures: np.ndarray,
        pairs: np.ndarray,
        subdomain_of: np.ndarray,
        representatives: np.ndarray,
        prefix_lengths: np.ndarray,
        prefix_concat: np.ndarray,
    ) -> "SubdomainIndex":
        """Rebuild an index object from validated persisted state."""
        mode = str(metadata["mode"])
        partition_method = str(metadata["partition_method"])
        margin = int(metadata["margin"])  # type: ignore[call-overload]
        max_entries = int(metadata["rtree_max_entries"])  # type: ignore[call-overload]
        epoch = int(metadata["epoch"])  # type: ignore[call-overload]

        index = cls.__new__(cls)
        index.dataset = dataset
        index.queries = queries
        index.mode = mode
        index.margin = margin
        index.partition_method = partition_method
        index.representative_evaluations = 0
        index._mutation_hooks = []
        index._epoch = epoch
        index.pairs = pairs
        index.normals = normals
        index.subdomain_of = subdomain_of
        num_subdomains = signatures.shape[0]
        # Stable argsort of the per-query subdomain ids reconstructs
        # each cell's ascending member list without re-partitioning.
        order = np.argsort(subdomain_of, kind="stable").astype(np.intp)
        counts = np.bincount(subdomain_of, minlength=num_subdomains)
        bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        prefix_starts = np.concatenate([[0], np.cumsum(prefix_lengths)]).astype(np.intp)
        index.subdomains = []
        for sid in range(num_subdomains):
            length = int(prefix_lengths[sid]) if sid < prefix_lengths.shape[0] else 0
            prefix = (
                prefix_concat[prefix_starts[sid] : prefix_starts[sid] + length]
                if length
                else None
            )
            index.subdomains.append(
                Subdomain(
                    sid=sid,
                    signature=signatures[sid].tobytes(),
                    query_ids=order[bounds[sid] : bounds[sid + 1]],
                    representative=int(representatives[sid]),
                    prefix=prefix,
                )
            )
        index._rtree_max_entries = max_entries
        index._build_rtree(max_entries)
        index._boundaries_ready = False
        index.bloom = None
        index._prefix_table = None
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
            rows, tied = contender_rows(
                self.dataset.matrix, self.queries.weights, self.queries.ks, self.margin
            )
            self._contenders = Contenders(rows, tied, np.zeros(self.dataset.n, dtype=bool))
        return self._contenders

    def _trusted_depth(self, max_k: "int | np.ndarray") -> "int | np.ndarray":
        """Prefix depth a cell needs when its deepest query asks for ``max_k``."""
        extra = 1 + (self.margin if self.mode == "relevant" else 0)
        return np.minimum(self.dataset.n, max_k + extra)

    def prefix(self, sid: int) -> np.ndarray:
        """Ranking prefix (object ids, best first) shared by the cell.

        Evaluated lazily from the cell's representative query — the "at
        most one query evaluated per subdomain" rule of ESE.
        """
        sub = self.subdomains[sid]
        depth = int(self._trusted_depth(int(self.queries.ks[sub.query_ids].max())))
        if sub.prefix is None or sub.prefix.shape[0] < depth:
            self._rank_cells(np.array([sid]), np.array([depth]))
        return sub.prefix

    def _rank_cells(self, sids: np.ndarray, depths: np.ndarray) -> None:
        """Rank the representatives of cells ``sids`` and cache their prefixes.

        The one scoring routine behind :meth:`prefix` and the prefix
        table.  Each representative is scored by its own gemv
        (``matmul(matrix, weights[rep])``), so a prefix never depends on
        which cells were ranked with it.  A row whose cut falls inside a
        run of equal scores is re-ranked by a stable argsort, so ties go
        to the lower id at every depth.
        """
        matrix = self.dataset.matrix
        weights = self.queries.weights
        n = matrix.shape[0]
        width = int(depths.max(initial=0))
        chunk = max(1, _RANK_CHUNK // max(1, n))
        for start in range(0, sids.shape[0], chunk):
            cells = sids[start : start + chunk]
            block = np.empty((cells.shape[0], n))
            for row, sid in zip(block, cells):
                np.matmul(matrix, weights[self.subdomains[sid].representative], out=row)
            if not width:
                ranked = block[:, :0].astype(np.intp)
            else:
                ranked, tied = _rank_block(block, width, np.full(cells.shape[0], width))
                for i in np.flatnonzero(tied):
                    ranked[i] = np.argsort(block[i], kind="stable")[:width]
            for sid, row, depth in zip(cells, ranked, depths[start : start + chunk]):
                self.subdomains[sid].prefix = row[:depth].copy()
        self.representative_evaluations += int(sids.shape[0])

    def kth_other(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-query threshold object against a target (Eq. 6).

        Returns ``(kth_ids, theta)`` where ``kth_ids[j]`` is the id of
        the k-th ranked object of query ``j`` among ``D \\ {target}``
        and ``theta[j]`` its score at ``j`` (``+inf`` when fewer than
        ``k`` other objects exist).  The improved target hits query
        ``j`` iff its score is below ``theta[j]`` (ties by id).

        Every query reads its threshold out of its cell's shared prefix
        in one gather over a table of all prefixes, which is rebuilt only
        after a mutation.  A prefix holds at least ``min(n, k + 1)``
        objects for every member query, so a query whose threshold lies
        past its cell's prefix has fewer than ``k`` other objects to
        rank, and keeps ``+inf``.
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
        """Every cell's :meth:`prefix` as one ``-1``-padded table, plus lengths.

        Derived state for :meth:`kth_other`: built once per mutation
        epoch and never persisted.  Only the cells whose cached prefix
        is missing or shorter than their depth are ranked, in one batch.
        """
        cached = self._prefix_table
        if cached is not None and cached[0] == self._epoch:
            return cached[1], cached[2]
        subdomains = self.subdomains
        depths = np.zeros(len(subdomains), dtype=np.intp)
        np.maximum.at(depths, self.subdomain_of, self.queries.ks)
        depths = self._trusted_depth(depths)
        have = np.fromiter(  # -1: never ranked, so stale even at depth 0
            (-1 if sub.prefix is None else sub.prefix.shape[0] for sub in subdomains),
            dtype=np.intp,
            count=len(subdomains),
        )
        stale = np.flatnonzero(have < depths)
        if stale.size:
            self._rank_cells(stale, depths[stale])
        lengths = np.maximum(have, depths)
        table = np.full((len(subdomains), int(lengths.max(initial=0))), -1, dtype=np.intp)
        if subdomains:
            filled = np.arange(table.shape[1]) < lengths[:, None]
            table[filled] = np.concatenate([sub.prefix for sub in subdomains])
        self._prefix_table = (self._epoch, table, lengths)
        return table, lengths

    def hits_mask(self, target: int) -> np.ndarray:
        """Boolean mask over queries currently hit by ``target``."""
        kth_ids, theta = self.kth_other(target)
        scores = self.queries.weights @ self.dataset.matrix[target]
        return _beats(scores, theta, target, kth_ids)

    def hits(self, target: int) -> int:
        """``H(target)`` — the number of queries the object hits."""
        return int(self.hits_mask(target).sum())

    def validate(self) -> None:
        """Check partition invariants (used by tests and after updates)."""
        seen = np.zeros(self.queries.m, dtype=int)
        for sub in self.subdomains:
            seen[sub.query_ids] += 1
            if not np.all(self.subdomain_of[sub.query_ids] == sub.sid):
                raise ValidationError("subdomain_of disagrees with membership lists")
        if not np.all(seen == 1):
            raise ValidationError("subdomains do not partition the workload")
        self.rtree.validate()
        if len(self.rtree) != self.queries.m:
            raise ValidationError("R-tree size disagrees with workload size")


#: Scores within this relative band count as tied (resolved by object
#: id).  Needed because the evaluator's batched matrix products and the
#: threshold dot products may round the *same* exact value differently.
_TIE_TOL = EPS_TIE


def _beats_batch(
    scores: np.ndarray, theta: np.ndarray, target: int, kth_ids: np.ndarray
) -> np.ndarray:
    """Batched Eq. 6 with id tie-break: does the target make top-k?

    The one and only statement of the membership rule: ``scores`` is an
    ``(m, b)`` matrix of target scores (one column per candidate
    position) and the result is the ``(m, b)`` boolean membership
    matrix.  An infinite threshold means fewer than k other objects
    exist, so the target is always in the top-k.  Single-position
    callers go through :func:`_beats`, which delegates here — keeping
    the rule in exactly one place so the vectorized candidate batches of
    :meth:`~repro.core.ese.StrategyEvaluator.evaluate_many` can never
    drift from the per-position path.

    Position ``j`` beats query ``i``'s threshold strictly, ties within
    the relative band and wins the id tie-break (``target <
    kth_ids[i]``), or meets an infinite threshold.
    """
    always = np.isinf(theta)
    finite_theta = np.where(always, 0.0, theta)
    band = _TIE_TOL * np.maximum(1.0, np.abs(finite_theta))
    tie_ok = target < kth_ids
    strict = scores < (finite_theta - band)[:, None]
    tie = (np.abs(scores - finite_theta[:, None]) <= band[:, None]) & tie_ok[:, None]
    return always[:, None] | strict | tie


def _beats(scores: np.ndarray, theta: np.ndarray, target: int, kth_ids: np.ndarray) -> np.ndarray:
    """Vectorized Eq. 6 for one candidate position (see :func:`_beats_batch`)."""
    return _beats_batch(scores[:, None], theta, target, kth_ids)[:, 0]
