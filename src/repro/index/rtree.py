"""A dynamic R-tree (Guttman, 1984) built from scratch.

The paper indexes the top-k query points with an R-tree and uses it for

* range retrieval of the *affected subspace* of a strategy (§4.1),
* k-nearest-neighbour lookup when a new query point arrives and we want
  candidate subdomains from its neighbours (§4.3).

This implementation supports point and rectangle payloads, Guttman's
quadratic split, deletion with condense-tree reinsertion, range and
half-space filtered searches, best-first kNN, and STR bulk loading.  It
also exposes :meth:`RTree.validate` which checks every structural
invariant — the tests lean on it heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.errors import IndexCorruptionError, ValidationError

__all__ = ["Rect", "RTree"]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned d-dimensional rectangle ``[mins, maxs]``."""

    mins: tuple
    maxs: tuple

    @classmethod
    def from_arrays(cls, mins: "np.typing.ArrayLike", maxs: "np.typing.ArrayLike") -> "Rect":
        mins = tuple(float(v) for v in np.atleast_1d(mins))
        maxs = tuple(float(v) for v in np.atleast_1d(maxs))
        if len(mins) != len(maxs):
            raise ValidationError("mins and maxs must have the same length")
        if any(lo > hi for lo, hi in zip(mins, maxs)):
            raise ValidationError(f"empty rectangle: {mins} > {maxs}")
        return cls(mins, maxs)

    @classmethod
    def point(cls, coords: "np.typing.ArrayLike") -> "Rect":
        coords = tuple(float(v) for v in np.atleast_1d(coords))
        return cls(coords, coords)

    @property
    def dim(self) -> int:
        return len(self.mins)

    def area(self) -> float:
        """Hyper-volume of the rectangle."""
        out = 1.0
        for lo, hi in zip(self.mins, self.maxs):
            out *= hi - lo
        return out

    def margin(self) -> float:
        """Sum of edge lengths (the R*-style perimeter metric)."""
        return sum(hi - lo for lo, hi in zip(self.mins, self.maxs))

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.mins, other.mins)),
            tuple(max(a, b) for a, b in zip(self.maxs, other.maxs)),
        )

    def intersects(self, other: "Rect") -> bool:
        """Do the (closed) rectangles overlap?"""
        return all(
            lo <= other_hi and other_lo <= hi
            for lo, hi, other_lo, other_hi in zip(self.mins, self.maxs, other.mins, other.maxs)
        )

    def contains(self, other: "Rect") -> bool:
        """Does this rectangle fully cover ``other``?"""
        return all(
            lo <= other_lo and other_hi <= hi
            for lo, hi, other_lo, other_hi in zip(self.mins, self.maxs, other.mins, other.maxs)
        )

    def enlargement(self, other: "Rect") -> float:
        """Extra area needed to cover ``other`` (Guttman's insert metric)."""
        return self.union(other).area() - self.area()

    # Hot path inside nearest(): callers pass pre-validated query points.
    def min_dist_sq(self, point: "tuple[float, ...] | np.ndarray") -> float:  # repro: noqa[RPR003]
        """Squared distance from ``point`` to the nearest point of the rect."""
        total = 0.0
        for value, lo, hi in zip(point, self.mins, self.maxs):
            if value < lo:
                total += (lo - value) ** 2
            elif value > hi:
                total += (value - hi) ** 2
        return total

    def center(self) -> tuple:
        """The rectangle's midpoint."""
        return tuple((lo + hi) / 2.0 for lo, hi in zip(self.mins, self.maxs))


class _Node:
    __slots__ = ("leaf", "entries", "parent")

    def __init__(self, leaf: bool) -> None:
        self.leaf = leaf
        # Leaf entries: (Rect, payload).  Internal entries: (Rect, _Node).
        self.entries: list = []
        self.parent: _Node | None = None

    def rect(self) -> Rect:
        box = self.entries[0][0]
        for rect, _ in self.entries[1:]:
            box = box.union(rect)
        return box


class RTree:
    """Dynamic R-tree over d-dimensional rectangles/points.

    Parameters
    ----------
    dim:
        Dimensionality of indexed rectangles.
    max_entries:
        Node capacity ``M`` (>= 2); nodes split at ``M + 1`` entries.
    min_entries:
        Minimum fill ``m`` (defaults to ``ceil(M * 0.4)``); underfull
        nodes after deletion are dissolved and their entries reinserted.
    """

    def __init__(self, dim: int, max_entries: int = 8, min_entries: int | None = None) -> None:
        if dim <= 0:
            raise ValidationError(f"dim must be positive, got {dim}")
        if max_entries < 2:
            raise ValidationError(f"max_entries must be >= 2, got {max_entries}")
        self.dim = dim
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(1, (max_entries * 2) // 5)
        if not 1 <= self.min_entries <= max_entries // 2:
            raise ValidationError(
                f"min_entries must be in [1, {max_entries // 2}], got {self.min_entries}"
            )
        self._root = _Node(leaf=True)
        self._size = 0
        self._tiebreak = count()

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, rect: "Rect | np.typing.ArrayLike", payload: object) -> None:
        """Insert ``payload`` under ``rect`` (a :class:`Rect` or a point)."""
        rect = self._coerce(rect)
        leaf = self._choose_leaf(self._root, rect)
        leaf.entries.append((rect, payload))
        self._split_upward(leaf)
        self._size += 1

    def insert_point(self, coords: "np.typing.ArrayLike", payload: object) -> None:
        """Convenience wrapper for point data (the query-point use case)."""
        self.insert(Rect.point(coords), payload)

    def _coerce(self, rect: "Rect | np.typing.ArrayLike") -> Rect:
        if not isinstance(rect, Rect):
            rect = Rect.point(rect)
        if rect.dim != self.dim:
            raise ValidationError(f"rect dim {rect.dim} != tree dim {self.dim}")
        return rect

    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        while not node.leaf:
            best = None
            best_key = None
            for child_rect, child in node.entries:
                key = (child_rect.enlargement(rect), child_rect.area())
                if best_key is None or key < best_key:
                    best_key, best = key, child
            node = best
        return node

    def _split_upward(self, node: _Node) -> None:
        while len(node.entries) > self.max_entries:
            sibling = self._quadratic_split(node)
            parent = node.parent
            if parent is None:
                new_root = _Node(leaf=False)
                new_root.entries = [(node.rect(), node), (sibling.rect(), sibling)]
                node.parent = sibling.parent = new_root
                self._root = new_root
                return
            self._refresh_entry(parent, node)
            parent.entries.append((sibling.rect(), sibling))
            sibling.parent = parent
            node = parent
        self._adjust_rects(node)

    def _adjust_rects(self, node: _Node) -> None:
        parent = node.parent
        while parent is not None:
            self._refresh_entry(parent, node)
            node, parent = parent, parent.parent

    @staticmethod
    def _refresh_entry(parent: _Node, child: _Node) -> None:
        for i, (__, node) in enumerate(parent.entries):
            if node is child:
                parent.entries[i] = (child.rect(), child)
                return
        raise IndexCorruptionError("child missing from its parent's entry list")

    def _quadratic_split(self, node: _Node) -> _Node:
        """Guttman's quadratic split; ``node`` keeps one group, returns the other."""
        entries = node.entries
        # Pick seeds: the pair wasting the most area when joined.
        worst = -np.inf
        seeds = (0, 1)
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                waste = (
                    entries[i][0].union(entries[j][0]).area()
                    - entries[i][0].area()
                    - entries[j][0].area()
                )
                if waste > worst:
                    worst, seeds = waste, (i, j)
        group_a = [entries[seeds[0]]]
        group_b = [entries[seeds[1]]]
        rect_a, rect_b = group_a[0][0], group_b[0][0]
        rest = [e for k, e in enumerate(entries) if k not in seeds]

        while rest:
            # Forced assignment when one group must absorb all leftovers.
            if len(group_a) + len(rest) <= self.min_entries:
                group_a.extend(rest)
                rest = []
                break
            if len(group_b) + len(rest) <= self.min_entries:
                group_b.extend(rest)
                rest = []
                break
            # Pick the entry with the strongest preference.
            best_idx, best_diff, best_goes_a = 0, -np.inf, True
            for idx, (rect, __) in enumerate(rest):
                d_a = rect_a.enlargement(rect)
                d_b = rect_b.enlargement(rect)
                diff = abs(d_a - d_b)
                if diff > best_diff:
                    best_idx, best_diff, best_goes_a = idx, diff, d_a < d_b
            entry = rest.pop(best_idx)
            if best_goes_a:
                group_a.append(entry)
                rect_a = rect_a.union(entry[0])
            else:
                group_b.append(entry)
                rect_b = rect_b.union(entry[0])

        node.entries = group_a
        sibling = _Node(leaf=node.leaf)
        sibling.entries = group_b
        if not node.leaf:
            for __, child in group_b:
                child.parent = sibling
        return sibling

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, rect: "Rect | np.typing.ArrayLike", payload: object) -> bool:
        """Remove one entry matching ``(rect, payload)``; True on success."""
        rect = self._coerce(rect)
        leaf = self._find_leaf(self._root, rect, payload)
        if leaf is None:
            return False
        removed = False
        kept = []
        for entry_rect, entry_payload in leaf.entries:
            if not removed and entry_rect == rect and entry_payload == payload:
                removed = True
                continue
            kept.append((entry_rect, entry_payload))
        leaf.entries = kept
        self._size -= 1
        self._condense(leaf)
        return True

    def _find_leaf(self, node: _Node, rect: Rect, payload: object) -> _Node | None:
        if node.leaf:
            for r, p in node.entries:
                if r == rect and p == payload:
                    return node
            return None
        for child_rect, child in node.entries:
            if child_rect.contains(rect) or child_rect.intersects(rect):
                hit = self._find_leaf(child, rect, payload)
                if hit is not None:
                    return hit
        return None

    def _condense(self, node: _Node) -> None:
        orphans: list[tuple[Rect, object, bool]] = []  # (rect, payload, is_leaf_entry)
        while node.parent is not None:
            parent = node.parent
            if len(node.entries) < self.min_entries:
                parent.entries = [(r, child) for r, child in parent.entries if child is not node]
                self._collect(node, orphans)
            else:
                self._refresh_entry(parent, node)
            node = parent
        # Shrink the root when it has a single internal child.
        while not self._root.leaf and len(self._root.entries) == 1:
            (__, only_child) = self._root.entries[0]
            only_child.parent = None
            self._root = only_child
        if not self._root.leaf and not self._root.entries:
            self._root = _Node(leaf=True)
        for rect, payload, is_leaf_entry in orphans:
            if is_leaf_entry:
                self._size -= 1  # insert() will add it back
                self.insert(rect, payload)
            else:  # pragma: no cover - only hit on deep trees
                self._reinsert_subtree(payload)

    def _collect(self, node: _Node, orphans: list) -> None:
        if node.leaf:
            for rect, payload in node.entries:
                orphans.append((rect, payload, True))
        else:
            for __, child in node.entries:
                self._collect(child, orphans)

    def _reinsert_subtree(self, node: _Node) -> None:
        for rect, payload in self._leaf_entries(node):
            self._size -= 1
            self.insert(rect, payload)

    def _leaf_entries(self, node: _Node) -> "Iterator[tuple[Rect, object]]":
        if node.leaf:
            yield from node.entries
        else:
            for __, child in node.entries:
                yield from self._leaf_entries(child)

    def decrement_payloads_above(self, removed: int) -> None:
        """Shift every payload above ``removed`` down by one, in place.

        Dense-id renumbering after id ``removed`` left the tree: no
        rectangle moves, so the tree keeps its shape.
        """
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                node.entries = [(r, p - 1 if p > removed else p) for r, p in node.entries]
            else:
                stack.extend(child for __, child in node.entries)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def search(self, rect: "Rect | np.typing.ArrayLike") -> list:
        """Payloads of all entries whose rectangle intersects ``rect``."""
        rect = self._coerce(rect)
        out: list = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(p for r, p in node.entries if r.intersects(rect))
            else:
                stack.extend(child for r, child in node.entries if r.intersects(rect))
        return out

    def search_where(
        self,
        rect: "Rect | np.typing.ArrayLike",
        predicate: "Callable[[Rect, object], bool]",
    ) -> list:
        """Range search with an extra payload/point predicate.

        Used for affected-subspace retrieval: the R-tree prunes with the
        bounding box of the slab between the old and new hyperplanes, and
        ``predicate`` applies the exact boundary conditions (Eq. 4-5).
        """
        rect = self._coerce(rect)
        out = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.leaf:
                out.extend(p for r, p in node.entries if r.intersects(rect) and predicate(r, p))
            else:
                stack.extend(child for r, child in node.entries if r.intersects(rect))
        return out

    def nearest(self, point: "np.typing.ArrayLike", k: int = 1) -> list:
        """Best-first k-nearest-neighbour search; returns up to ``k`` payloads."""
        point = tuple(float(v) for v in np.atleast_1d(point))
        if len(point) != self.dim:
            raise ValidationError(f"point dim {len(point)} != tree dim {self.dim}")
        if k <= 0:
            raise ValidationError(f"k must be positive, got {k}")
        heap: list = []
        heappush(heap, (0.0, next(self._tiebreak), False, self._root))
        out = []
        while heap and len(out) < k:
            dist, __, is_entry, item = heappop(heap)
            if is_entry:
                out.append(item)
                continue
            node = item
            if node.leaf:
                for rect, payload in node.entries:
                    heappush(heap, (rect.min_dist_sq(point), next(self._tiebreak), True, payload))
            else:
                for rect, child in node.entries:
                    heappush(heap, (rect.min_dist_sq(point), next(self._tiebreak), False, child))
        return out

    def items(self) -> list:
        """All ``(Rect, payload)`` entries (unspecified order)."""
        return list(self._leaf_entries(self._root))

    # ------------------------------------------------------------------
    # Bulk loading (Sort-Tile-Recursive)
    # ------------------------------------------------------------------
    @classmethod
    def bulk_load(
        cls,
        dim: int,
        items: "Iterable[tuple[Rect | np.typing.ArrayLike, object]]",
        max_entries: int = 8,
    ) -> "RTree":
        """Build a packed tree from ``(point_or_rect, payload)`` pairs (STR)."""
        tree = cls(dim, max_entries=max_entries)
        entries = [(tree._coerce(rect), payload) for rect, payload in items]
        if not entries:
            return tree
        nodes = tree._str_pack([(r, p) for r, p in entries], leaf=True)
        while len(nodes) > 1:
            nodes = tree._str_pack([(n.rect(), n) for n in nodes], leaf=False)
        tree._root = nodes[0]
        tree._size = len(entries)
        return tree

    @classmethod
    def bulk_load_points(
        cls,
        dim: int,
        coords: "np.typing.ArrayLike",
        payloads: "Iterable[object] | None" = None,
        max_entries: int = 8,
    ) -> "RTree":
        """Build a packed tree from an ``(n, d)`` coordinate array (STR).

        The point-data fast path of :meth:`bulk_load`: the recursive
        sort-tile ordering runs on numpy index arrays (one ``argsort``
        per slab instead of Python tuple comparisons), so packing a
        whole query workload is a single vectorized pass.  ``payloads``
        defaults to ``0..n-1`` — the query-id convention of the
        subdomain index.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        tree = cls(dim, max_entries=max_entries)
        n = coords.shape[0]
        if n == 0:
            return tree
        if coords.shape[1] != dim:
            raise ValidationError(f"coords are {coords.shape[1]}-D, tree dim is {dim}")
        if payloads is None:
            payloads = range(n)
        payloads = list(payloads)
        if len(payloads) != n:
            raise ValidationError(f"{len(payloads)} payloads for {n} points")
        capacity = max_entries
        num_nodes = int(np.ceil(n / capacity))

        def tile(idx: np.ndarray, axis: int) -> list[np.ndarray]:
            if axis >= dim - 1 or idx.size <= capacity:
                idx = idx[np.argsort(coords[idx, min(axis, dim - 1)], kind="stable")]
                return [idx[i : i + capacity] for i in range(0, idx.size, capacity)]
            idx = idx[np.argsort(coords[idx, axis], kind="stable")]
            slabs_needed = int(np.ceil(num_nodes ** ((dim - axis - 1) / (dim - axis))))
            slab_size = max(capacity, int(np.ceil(idx.size / max(1, slabs_needed))))
            out: list[np.ndarray] = []
            for i in range(0, idx.size, slab_size):
                out.extend(tile(idx[i : i + slab_size], axis + 1))
            return out

        groups = [
            [(Rect.point(coords[i]), payloads[i]) for i in group]
            for group in tile(np.arange(n), 0)
        ]
        nodes = tree._nodes_from_groups(groups, leaf=True)
        while len(nodes) > 1:
            nodes = tree._str_pack([(node.rect(), node) for node in nodes], leaf=False)
        tree._root = nodes[0]
        tree._size = n
        return tree

    def _str_pack(self, entries: list, leaf: bool) -> list[_Node]:
        capacity = self.max_entries
        dim = self.dim
        num_nodes = int(np.ceil(len(entries) / capacity))
        # Recursively tile: sort by each axis in turn and slice.
        def tile(chunk: list, axis: int) -> list[list]:
            if axis >= dim - 1 or len(chunk) <= capacity:
                chunk.sort(key=lambda e: e[0].center()[min(axis, dim - 1)])
                return [chunk[i : i + capacity] for i in range(0, len(chunk), capacity)]
            chunk.sort(key=lambda e: e[0].center()[axis])
            slabs_needed = int(np.ceil(num_nodes ** ((dim - axis - 1) / (dim - axis)) ))
            slab_size = max(capacity, int(np.ceil(len(chunk) / max(1, slabs_needed))))
            out = []
            for i in range(0, len(chunk), slab_size):
                out.extend(tile(chunk[i : i + slab_size], axis + 1))
            return out

        groups = tile(list(entries), 0)
        return self._nodes_from_groups(groups, leaf)

    def _nodes_from_groups(self, groups: list[list], leaf: bool) -> list[_Node]:
        """Turn entry groups into nodes, enforcing the minimum fill.

        Slab boundaries can leave undersized tail groups; merge each
        into its predecessor (resplitting when the merge overflows) so
        every node respects the minimum fill invariant.
        """
        capacity = self.max_entries
        balanced: list[list] = []
        for group in groups:
            if len(group) >= self.min_entries or not balanced:
                balanced.append(group)
                continue
            merged = balanced.pop() + group
            if len(merged) <= capacity:
                balanced.append(merged)
            else:
                half = len(merged) // 2
                balanced.extend([merged[:half], merged[half:]])
        nodes = []
        for group in balanced:
            node = _Node(leaf=leaf)
            node.entries = group
            if not leaf:
                for __, child in group:
                    child.parent = node
            nodes.append(node)
        return nodes

    # ------------------------------------------------------------------
    # Introspection / invariants
    # ------------------------------------------------------------------
    def height(self) -> int:
        """Tree height (1 for a single leaf root)."""
        h, node = 1, self._root
        while not node.leaf:
            node = node.entries[0][1]
            h += 1
        return h

    def node_count(self) -> int:
        """Total number of nodes."""
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += 1
            if not node.leaf:
                stack.extend(child for __, child in node.entries)
        return total

    def memory_estimate(self) -> int:
        """Rough index size in bytes (for the Figure 4/5 size metric)."""
        per_rect = 2 * self.dim * 8
        entry_count = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            entry_count += len(node.entries)
            if not node.leaf:
                stack.extend(child for __, child in node.entries)
        return self.node_count() * 64 + entry_count * (per_rect + 16)

    def validate(self) -> None:
        """Raise :class:`IndexCorruptionError` if any invariant is broken."""
        leaf_depths: set[int] = set()
        counted = 0
        stack = [(self._root, 0)]
        while stack:
            node, depth = stack.pop()
            if node is not self._root and not (
                self.min_entries <= len(node.entries) <= self.max_entries
            ):
                raise IndexCorruptionError(
                    f"node fill {len(node.entries)} outside [{self.min_entries}, {self.max_entries}]"
                )
            if len(node.entries) > self.max_entries:
                raise IndexCorruptionError("root overfull")
            if node.leaf:
                leaf_depths.add(depth)
                counted += len(node.entries)
            else:
                for rect, child in node.entries:
                    if child.parent is not node:
                        raise IndexCorruptionError("broken parent pointer")
                    if child.entries and not rect.contains(child.rect()):
                        raise IndexCorruptionError("parent rect does not cover child")
                    stack.append((child, depth + 1))
        if len(leaf_depths) > 1:
            raise IndexCorruptionError(f"leaves at different depths: {sorted(leaf_depths)}")
        if counted != self._size:
            raise IndexCorruptionError(f"size mismatch: counted {counted}, recorded {self._size}")
