"""Sharded subdomain index: partitioned build/persist/update, thin merge.

The monolithic :class:`~repro.core.subdomain.SubdomainIndex` owns all
``m`` query points, so persistence and update cost hit a one-object
wall.  This module splits the workload *by weight-space region* into
``K`` independently built monolithic shards behind the same read
surface:

* :class:`IndexProtocol` — the explicit read-side contract every index
  consumer (planner, ESE, persistent pool, serving, EXPLAIN) programs
  against; :class:`SubdomainIndex` and :class:`ShardedSubdomainIndex`
  are its two implementations.
* :class:`ShardedSubdomainIndex` — routes each query to a shard with a
  pluggable, *pure per-point* router (:mod:`repro.index.router`), builds
  one ``SubdomainIndex`` per shard over ``queries.subset(members)``
  (same dataset object), and merges at query time by scattering
  per-shard results through the member maps.

Why this is correct with zero cross-shard coupling: every per-query
quantity the index serves — the k-th-other threshold of Eq. 6, the
hit test, the affected-subspace membership — depends only on that
query's weight vector and the *full* object set, never on other
queries.  Sharding the workload therefore changes which cells share a
representative ranking (cells never span shards) but not any served
value; the ``--shards`` axis of ``repro check`` holds the sharded index
to exact partition equality per shard and brute-force hits parity.

Mutations (paper §4.3) route naturally: ``add/remove_query`` touch only
the owning shard, ``add/remove_object`` fan out to all shards.  Each
shard keeps its own epoch, so the persistent pool re-shares only the
shard groups whose epoch moved.

Persistence is a directory: one monolithic mmap subdirectory per shard
plus a fingerprint-validated ``manifest.json``; shards load lazily and
individually.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.core.objects import Dataset, check_id
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex, dataset_fingerprint, queryset_fingerprint
from repro.errors import IndexCorruptionError, ValidationError
from repro.index.mmapio import check_index_format, replace_file
from repro.index.router import ShardRouter, get_router
from repro.index.rtree import Rect

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.subdomain import Subdomain

__all__ = [
    "IndexProtocol",
    "ShardedSubdomainIndex",
    "build_index",
    "resolve_shards",
]

#: Schema tag of the sharded directory manifest; bumped on layout change.
SHARDED_SCHEMA = "repro-sharded-index/1"


@runtime_checkable
class IndexProtocol(Protocol):
    """Read-side surface of a subdomain index (mono or sharded).

    Everything downstream of construction — the planner, the strategy
    evaluators, the persistent pool, the serving layer — consumes *this*
    contract, never a concrete class, so the sharded and monolithic
    implementations are interchangeable everywhere answers are read.
    Write-side maintenance goes through :mod:`repro.core.updates`, which
    dispatches on the concrete type.
    """

    @property
    def dataset(self) -> Dataset: ...

    @property
    def queries(self) -> QuerySet: ...

    @property
    def mode(self) -> str: ...

    @property
    def margin(self) -> int: ...

    @property
    def partition_method(self) -> str: ...

    @property
    def epoch(self) -> int: ...

    @property
    def shards(self) -> int: ...

    @property
    def routing(self) -> str: ...

    @property
    def shard_sizes(self) -> tuple[int, ...]: ...

    @property
    def shard_epochs(self) -> tuple[int, ...]: ...

    @property
    def num_subdomains(self) -> int: ...

    @property
    def num_hyperplanes(self) -> int: ...

    def kth_other(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-query Eq. 6 thresholds: ``(kth_ids, theta)`` arrays."""
        ...

    def hits_mask(self, target: int) -> np.ndarray:
        """Boolean mask over queries currently hit by ``target``."""
        ...

    def hits(self, target: int) -> int:
        """``H(target)`` over the whole workload."""
        ...

    def affected_candidates(
        self, domain: Rect, predicate: "Callable[[Rect, int], bool]"
    ) -> list[int]:
        """Query ids in ``domain`` whose weights satisfy ``predicate``."""
        ...

    def signature_of(self, query_id: int) -> bytes:
        """Side-signature of the cell containing ``query_id``."""
        ...

    def cell_members(self, query_id: int) -> np.ndarray:
        """Query ids sharing ``query_id``'s cell (ascending)."""
        ...

    def shard(self, s: int) -> SubdomainIndex:
        """The ``s``-th monolithic shard (the index itself when K=1)."""
        ...

    def memory_estimate(self) -> int:
        """Approximate resident size of the index in bytes."""
        ...

    def validate(self) -> None:
        """Check structural invariants; raise on corruption."""
        ...

    def mark_boundaries_dirty(self) -> None:
        """Invalidate cached boundary registrations after a mutation."""
        ...

    def notify_mutation(self) -> None:
        """Bump the mutation epoch and fire subscribed callbacks."""
        ...

    def subscribe_mutations(self, callback: "Callable[[], None]") -> None:
        """Register a weakly-held post-mutation callback."""
        ...

    def hot_arrays(self) -> "list[tuple[str, str, object, str]]":
        """Shared-memory residency plan: ``(key, group, owner, attr)``."""
        ...

    def save(self, path: "str | Path", format: str = "mmap") -> None:
        """Persist the index as a directory (monolithic or sharded)."""
        ...


def resolve_shards(shards: "int | str | None") -> int:
    """Resolve a shard-count request into a concrete ``K >= 1``.

    ``None`` means monolithic (``1``); an integer (or its decimal text)
    is validated and used as given.
    """
    if shards is None:
        return 1
    try:
        count = int(shards)
    except ValueError:
        raise ValidationError(f"shards must be a positive integer, got {shards!r}") from None
    if count < 1:
        raise ValidationError(f"shards must be positive, got {count}")
    return count


def build_index(
    dataset: Dataset,
    queries: QuerySet,
    mode: str = "exact",
    margin: int = 2,
    shards: "int | str | None" = None,
    router: "str | ShardRouter | None" = None,
    rtree_max_entries: int = 16,
    partition_method: str = "vectorized",
) -> "SubdomainIndex | ShardedSubdomainIndex":
    """The index factory: monolithic or sharded by :func:`resolve_shards`.

    This is the sanctioned construction entry point outside ``core/``,
    ``check/``, and the tests (lint rule RPR012): routing stays a single
    decision instead of ad-hoc ``SubdomainIndex(...)`` calls scattered
    across layers.
    """
    count = resolve_shards(shards)
    if count <= 1:
        return SubdomainIndex(
            dataset,
            queries,
            mode=mode,
            margin=margin,
            rtree_max_entries=rtree_max_entries,
            partition_method=partition_method,
        )
    return ShardedSubdomainIndex(
        dataset,
        queries,
        shards=count,
        router=router,
        mode=mode,
        margin=margin,
        rtree_max_entries=rtree_max_entries,
        partition_method=partition_method,
    )


class ShardedSubdomainIndex:
    """``K`` monolithic shards behind the :class:`IndexProtocol` surface.

    Parameters mirror :class:`~repro.core.subdomain.SubdomainIndex`,
    plus:

    shards:
        Number of shards, at least 1 (``1`` is the monolithic-parity
        degenerate case the check harness exercises).
    router:
        A :class:`~repro.index.router.ShardRouter`, a registered policy
        name, or ``None`` for the default grid policy.  Routers are pure
        per-point functions of the weight vector, which is what makes
        the assignment recomputable at :meth:`load` time and stable
        under updates.

    Shards build in routing order, each exactly
    ``SubdomainIndex(dataset, queries.subset(members))``.
    """

    def __init__(
        self,
        dataset: Dataset,
        queries: QuerySet,
        shards: int,
        router: "str | ShardRouter | None" = None,
        mode: str = "exact",
        margin: int = 2,
        rtree_max_entries: int = 16,
        partition_method: str = "vectorized",
    ) -> None:
        if shards < 1:
            raise ValidationError(f"shards must be positive, got {shards}")
        if dataset.dim != queries.dim:
            raise ValidationError(
                f"dataset dim {dataset.dim} != query dim {queries.dim}"
            )
        self.dataset = dataset
        self.queries = queries
        self.mode = mode
        self.margin = margin
        self.partition_method = partition_method
        self.shards = int(shards)
        self.router = get_router(router)
        self.routing = self.router.policy
        self._rtree_max_entries = rtree_max_entries
        self._mutation_hooks: list = []
        self._epoch = 0
        self._assign_members()
        self._slots: "list[SubdomainIndex | None]" = [None] * self.shards
        self._slot_paths: "list[Path | None]" = [None] * self.shards
        self._slot_hints: "list[dict[str, int]]" = [{} for __ in range(self.shards)]
        for s in range(self.shards):
            self._slots[s] = SubdomainIndex(
                dataset,
                queries.subset(self._members[s]),
                mode=mode,
                margin=margin,
                rtree_max_entries=rtree_max_entries,
                partition_method=partition_method,
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _assign_members(self) -> None:
        """Route every query and derive the per-shard member maps.

        ``_members[s]`` is the strictly ascending array of global query
        ids owned by shard ``s`` — shard-local id ``i`` is global id
        ``_members[s][i]``, the single translation every merge and
        mutation goes through.  Ascending order is an invariant:
        inserts append the new maximum id, removals shift down.
        """
        if self.queries.m:
            self._shard_of = self.router.assign(self.queries.weights, self.shards)
        else:
            self._shard_of = np.empty(0, dtype=np.intp)
        self._members = [
            np.flatnonzero(self._shard_of == s) for s in range(self.shards)
        ]

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def shard(self, s: int) -> SubdomainIndex:
        """The ``s``-th shard, loading it from disk on first access."""
        if not 0 <= s < self.shards:
            raise ValidationError(f"shard id {s} out of range [0, {self.shards})")
        slot = self._slots[s]
        if slot is None:
            path = self._slot_paths[s]
            if path is None:
                raise IndexCorruptionError(
                    f"shard {s} is neither built nor backed by a file"
                )
            slot = SubdomainIndex.load(
                path, self.dataset, self.queries.subset(self._members[s])
            )
            self._slots[s] = slot
        return slot

    def shard_loaded(self, s: int) -> bool:
        """Whether shard ``s`` is resident (lazy loads stay on disk)."""
        return self._slots[s] is not None

    def shard_members(self, s: int) -> np.ndarray:
        """Global query ids owned by shard ``s`` (ascending)."""
        return self._members[s]

    def _local_id(self, query_id: int) -> tuple[int, int]:
        """``(shard, shard-local id)`` of a global query id."""
        check_id(query_id, self.queries.m, "query")
        s = int(self._shard_of[query_id])
        local = int(np.searchsorted(self._members[s], query_id))
        return s, local

    def _hint(self, s: int, key: str) -> int:
        """Manifest statistic for an unloaded shard (0 when absent)."""
        return int(self._slot_hints[s].get(key, 0))

    # ------------------------------------------------------------------
    # IndexProtocol read surface
    # ------------------------------------------------------------------
    @property
    def shard_sizes(self) -> tuple[int, ...]:
        return tuple(int(members.shape[0]) for members in self._members)

    @property
    def shard_epochs(self) -> tuple[int, ...]:
        """Per-shard mutation counters; unloaded shards are unmutated,
        so their persisted epoch is exact."""
        return tuple(
            slot.epoch if slot is not None else self._hint(s, "epoch")
            for s, slot in enumerate(self._slots)
        )

    @property
    def num_subdomains(self) -> int:
        return sum(
            slot.num_subdomains if slot is not None else self._hint(s, "subdomains")
            for s, slot in enumerate(self._slots)
        )

    @property
    def num_hyperplanes(self) -> int:
        return sum(
            slot.num_hyperplanes if slot is not None else self._hint(s, "hyperplanes")
            for s, slot in enumerate(self._slots)
        )

    @property
    def representative_evaluations(self) -> int:
        """Full rankings computed so far, summed over resident shards."""
        return sum(slot.representative_evaluations for slot in self._slots if slot is not None)

    def memory_estimate(self) -> int:
        """Approximate size in bytes without forcing lazy shards resident."""
        per_shard = sum(
            slot.memory_estimate() if slot is not None else self._hint(s, "memory")
            for s, slot in enumerate(self._slots)
        )
        return per_shard + self.queries.m * 8 + self.shards * 64

    @property
    def epoch(self) -> int:
        """Global mutation counter (see :class:`SubdomainIndex`); every
        routed or fanned-out mutation bumps it exactly once."""
        return self._epoch

    def subscribe_mutations(self, callback: "Callable[[], None]") -> None:
        """Register a post-mutation callback (weakly held; see
        :meth:`SubdomainIndex.subscribe_mutations`)."""
        import weakref

        try:
            ref = weakref.WeakMethod(callback)
        except TypeError:
            ref = weakref.ref(callback)
        self._mutation_hooks.append(ref)

    def notify_mutation(self) -> None:
        """Bump the global epoch and fire live callbacks."""
        self._epoch += 1
        live = []
        for ref in self._mutation_hooks:
            callback = ref()
            if callback is not None:
                callback()
                live.append(ref)
        self._mutation_hooks = live

    def mark_boundaries_dirty(self) -> None:
        """Invalidate boundary registrations on every resident shard."""
        for slot in self._slots:
            if slot is not None:
                slot.mark_boundaries_dirty()

    def kth_other(self, target: int) -> tuple[np.ndarray, np.ndarray]:
        """Eq. 6 thresholds, merged by scattering per-shard results.

        Thresholds are per-query quantities over the shared object set,
        so each shard computes exactly the rows it owns and the merge is
        a pure scatter through the member maps — no cross-shard work.
        """
        self.dataset._check_id(target)
        m = self.queries.m
        kth_ids = np.full(m, -1, dtype=np.intp)
        theta = np.full(m, np.inf)
        for s in range(self.shards):
            members = self._members[s]
            if members.size == 0:
                continue
            ids_s, theta_s = self.shard(s).kth_other(target)
            kth_ids[members] = ids_s
            theta[members] = theta_s
        return kth_ids, theta

    def hits_mask(self, target: int) -> np.ndarray:
        """Boolean mask over (global) queries currently hit by ``target``."""
        from repro.core.subdomain import _beats

        kth_ids, theta = self.kth_other(target)
        scores = self.queries.weights @ self.dataset.matrix[target]
        return _beats(scores, theta, target, kth_ids)

    def hits(self, target: int) -> int:
        """``H(target)`` over the whole workload."""
        return int(self.hits_mask(target).sum())

    def affected_candidates(
        self, domain: Rect, predicate: "Callable[[Rect, int], bool]"
    ) -> list[int]:
        """Union of the per-shard R-tree scans, mapped to global ids.

        ``predicate`` must be a pure function of the weight vector (its
        ``query_id`` argument receives *shard-local* ids here), which
        the ESE slab test is; each shard scans only its own points, so
        the fan-out does exactly the monolithic scan's leaf work.
        """
        out: list[int] = []
        for s in range(self.shards):
            members = self._members[s]
            if members.size == 0:
                continue
            local_hits = self.shard(s).affected_candidates(domain, predicate)
            if local_hits:
                out.extend(int(g) for g in members[np.asarray(local_hits, dtype=np.intp)])
        out.sort()
        return out

    def signature_of(self, query_id: int) -> bytes:
        """Side-signature of the owning shard's cell for ``query_id``."""
        s, local = self._local_id(query_id)
        return self.shard(s).signature_of(local)

    def cell_members(self, query_id: int) -> np.ndarray:
        """Global ids sharing ``query_id``'s cell (cells never span shards)."""
        s, local = self._local_id(query_id)
        return self._members[s][self.shard(s).cell_members(local)]

    def hot_arrays(self) -> "list[tuple[str, str, object, str]]":
        """Shared-memory residency plan, one group per shard.

        The ``global`` group (object matrix + global weights) is touched
        by every mutation kind; a ``shard:<s>`` group (that shard's
        weight subset and normals) changes only when shard ``s``'s epoch
        moves, which is what lets the persistent pool re-share shard
        groups selectively.  Forces lazy shards resident — a pool worker
        must hold the whole index.
        """
        out: "list[tuple[str, str, object, str]]" = [
            ("external", "global", self.dataset, "_external"),
            ("weights", "global", self.queries, "_weights"),
        ]
        for s in range(self.shards):
            shard = self.shard(s)
            out.append((f"weights:{s}", f"shard:{s}", shard.queries, "_weights"))
            out.append((f"normals:{s}", f"shard:{s}", shard, "normals"))
        return out

    def validate(self) -> None:
        """Per-shard invariants plus the global routing invariants."""
        concat = (
            np.sort(np.concatenate(self._members))
            if self.queries.m
            else np.empty(0, dtype=np.intp)
        )
        if not np.array_equal(concat, np.arange(self.queries.m)):
            raise IndexCorruptionError("shard member maps do not partition the workload")
        if self.queries.m:
            expected = self.router.assign(self.queries.weights, self.shards)
            if not np.array_equal(expected, self._shard_of):
                raise IndexCorruptionError(
                    "shard assignment disagrees with the routing policy"
                )
        for s in range(self.shards):
            members = self._members[s]
            if members.size > 1 and not np.all(np.diff(members) > 0):
                raise IndexCorruptionError(f"shard {s} member map is not ascending")
            if not self.shard_loaded(s):
                continue  # lazy shards are validated by load on first access
            shard = self.shard(s)
            if shard.queries.m != members.shape[0]:
                raise IndexCorruptionError(
                    f"shard {s} holds {shard.queries.m} queries, expected {members.shape[0]}"
                )
            if not np.array_equal(shard.queries.weights, self.queries.weights[members]):
                raise IndexCorruptionError(
                    f"shard {s} weights diverged from the global workload"
                )
            if shard.dataset is not self.dataset:
                raise IndexCorruptionError(
                    f"shard {s} holds a different dataset object than the router"
                )
            shard.validate()

    # ------------------------------------------------------------------
    # Maintenance (§4.3): routed / fanned-out mutations
    # ------------------------------------------------------------------
    # These are the write-side counterparts the repro.core.updates
    # dispatcher calls; each delegates the real partition maintenance to
    # the owning monolithic shard(s) and keeps the global bookkeeping
    # (QuerySet, member maps, routing vector) in lock-step.
    def add_query(self, weights: np.ndarray, k: int) -> int:
        """Insert a query into its routed shard; returns its global id."""
        from repro.core import updates

        weights = np.asarray(weights, dtype=float)
        s = self.router.assign_one(weights, self.shards)
        shard = self.shard(s)
        updates.add_query(shard, weights, k)
        self.queries, query_id = self.queries.with_query(weights, k)
        self._members[s] = np.append(self._members[s], query_id)
        self._shard_of = np.append(self._shard_of, s)
        self.notify_mutation()
        return query_id

    def remove_query(self, query_id: int) -> None:
        """Delete a query from its owning shard; global ids shift down."""
        from repro.core import updates

        s, local = self._local_id(query_id)
        updates.remove_query(self.shard(s), local)
        self.queries = self.queries.without_query(query_id)
        keep = np.ones(self._shard_of.shape[0], dtype=bool)
        keep[query_id] = False
        self._shard_of = self._shard_of[keep]
        for t in range(self.shards):
            members = self._members[t]
            members = members[members != query_id]
            self._members[t] = np.where(members > query_id, members - 1, members)
        self.notify_mutation()

    def add_object(self, attributes: np.ndarray) -> int:
        """Fan the insert out to every shard; returns the object's id.

        Each shard's maintenance replaces its dataset with a
        content-equal copy; identity is re-unified afterwards so all
        shards (and the router) keep sharing one object, which
        :meth:`validate` and the pool's ``global`` group rely on.
        """
        from repro.core import updates

        object_id = -1
        for s in range(self.shards):
            object_id = updates.add_object(self.shard(s), attributes)
        self._unify_dataset()
        self.notify_mutation()
        return object_id

    def remove_object(self, object_id: int) -> None:
        """Fan the removal out to every shard; object ids shift down."""
        from repro.core import updates

        for s in range(self.shards):
            updates.remove_object(self.shard(s), object_id)
        self._unify_dataset()
        self.notify_mutation()

    def _unify_dataset(self) -> None:
        """Point every shard (and self) at one dataset object again.

        The fan-out applied the *same* deterministic operation per
        shard, so the per-shard datasets are content-equal; any one of
        them is the canonical post-mutation dataset.
        """
        unified = self.shard(0).dataset
        self.dataset = unified
        for s in range(1, self.shards):
            self.shard(s).dataset = unified

    # ------------------------------------------------------------------
    # Persistence: per-shard directory with a versioned manifest
    # ------------------------------------------------------------------
    def save(self, path: "str | Path", format: str = "mmap") -> None:
        """Persist to a directory: ``manifest.json`` + one entry per shard.

        Each shard is a monolithic mmap subdirectory
        (:meth:`SubdomainIndex.save`), so a single shard stays
        independently loadable with :meth:`SubdomainIndex.load`.  The
        manifest carries the router parameters (the assignment is
        *recomputed* at load, never stored per query), the shard layout,
        and per-shard statistics so a lazily loaded index can answer
        EXPLAIN without touching shard files.  ``"mmap"`` is the only
        ``format``.
        """
        check_index_format(format)
        path = Path(path)
        if path.exists() and not path.is_dir():
            raise ValidationError(f"sharded index path {path} exists and is not a directory")
        path.mkdir(parents=True, exist_ok=True)
        entries = []
        for s in range(self.shards):
            shard = self.shard(s)
            filename = f"shard-{s:04d}"
            shard.save(path / filename)
            entries.append(
                {
                    "file": filename,
                    "queries": int(self._members[s].shape[0]),
                    "epoch": int(shard.epoch),
                    "subdomains": int(shard.num_subdomains),
                    "hyperplanes": int(shard.num_hyperplanes),
                    "memory": int(shard.memory_estimate()),
                }
            )
        manifest = {
            "schema": SHARDED_SCHEMA,
            "shards": self.shards,
            "mode": self.mode,
            "margin": self.margin,
            "partition_method": self.partition_method,
            "rtree_max_entries": self._rtree_max_entries,
            "router": self.router.describe(),
            "epoch": self._epoch,
            "dataset_fingerprint": dataset_fingerprint(self.dataset),
            "queries_fingerprint": queryset_fingerprint(self.queries),
            "shard_files": entries,
        }
        text = json.dumps(manifest, indent=2)
        replace_file(path / "manifest.json", lambda handle: handle.write(text.encode()))

    @classmethod
    def load(
        cls,
        path: "str | Path",
        dataset: Dataset,
        queries: QuerySet,
        lazy: bool = False,
    ) -> "ShardedSubdomainIndex":
        """Restore a sharded index against the same dataset and workload.

        The manifest's fingerprints must match (else
        :class:`~repro.errors.ValidationError`); a damaged manifest or
        a shard layout that disagrees with the recomputed routing raises
        :class:`~repro.errors.IndexCorruptionError`; a manifest listing
        ``.npz`` shard files, a layout this version no longer reads,
        raises :class:`~repro.errors.ValidationError` before any shard
        is opened.  With ``lazy=True`` shard files stay on disk until
        first touched by a query or mutation; EXPLAIN statistics come
        from the manifest.
        """
        path = Path(path)
        manifest_path = path / "manifest.json"
        if not manifest_path.exists():
            raise ValidationError(f"no sharded index manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            raise IndexCorruptionError(
                f"sharded index manifest {manifest_path} is corrupt: {exc}"
            ) from exc
        try:
            schema = manifest["schema"]
            if schema != SHARDED_SCHEMA:
                raise ValidationError(
                    f"unsupported sharded schema {schema!r} (expected {SHARDED_SCHEMA!r})"
                )
            if manifest["dataset_fingerprint"] != dataset_fingerprint(dataset):
                raise ValidationError(
                    "saved sharded index was built for a different dataset "
                    "(fingerprint mismatch)"
                )
            if manifest["queries_fingerprint"] != queryset_fingerprint(queries):
                raise ValidationError(
                    "saved sharded index was built for a different workload "
                    "(fingerprint mismatch)"
                )
            shards = int(manifest["shards"])
            mode = str(manifest["mode"])
            margin = int(manifest["margin"])
            partition_method = str(manifest["partition_method"])
            max_entries = int(manifest["rtree_max_entries"])
            router_params = dict(manifest["router"])
            epoch = int(manifest["epoch"])
            entries = list(manifest["shard_files"])
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ValidationError):
                raise
            raise IndexCorruptionError(
                f"sharded index manifest {manifest_path} is missing or mistypes "
                f"required fields: {exc!r}"
            ) from exc
        if shards < 1 or len(entries) != shards:
            raise IndexCorruptionError(
                f"manifest lists {len(entries)} shard files for shards={shards}"
            )

        index = cls.__new__(cls)
        index.dataset = dataset
        index.queries = queries
        index.mode = mode
        index.margin = margin
        index.partition_method = partition_method
        index.shards = shards
        index.router = get_router(**router_params)
        index.routing = index.router.policy
        index._rtree_max_entries = max_entries
        index._mutation_hooks = []
        index._epoch = epoch
        index._assign_members()
        index._slots = [None] * shards
        index._slot_paths = [None] * shards
        index._slot_hints = [{} for __ in range(shards)]
        for s, entry in enumerate(entries):
            expected = int(index._members[s].shape[0])
            recorded = int(entry["queries"])
            if recorded != expected:
                raise IndexCorruptionError(
                    f"manifest says shard {s} holds {recorded} queries but the "
                    f"routing policy assigns it {expected}"
                )
            filename = str(entry["file"])
            if filename.endswith(".npz"):
                raise ValidationError(
                    f"sharded index {path} stores shard {s} as the .npz file "
                    f"{filename}, a layout this version no longer reads; save "
                    "the index again"
                )
            index._slot_paths[s] = path / filename
            index._slot_hints[s] = {
                key: int(entry[key])
                for key in ("epoch", "subdomains", "hyperplanes", "memory")
                if key in entry
            }
        if not lazy:
            for s in range(shards):
                index.shard(s)
        return index

    @classmethod
    def load_shard(
        cls, path: "str | Path", dataset: Dataset, queries: QuerySet, s: int
    ) -> SubdomainIndex:
        """Load shard ``s`` alone as a standalone monolithic index.

        The returned index covers only the shard's query subset
        (recomputed from the manifest's router), useful for
        inspecting or serving one weight-space region without paying
        for the rest.
        """
        index = cls.load(path, dataset, queries, lazy=True)
        return index.shard(s)
