"""A static STR-packed R-tree over points: the baseline of Figures 5 and 6.

The paper keeps the top-k query points in an R-tree for the range
retrieval of a strategy's affected subspace (§4.1) and the
k-nearest-neighbour candidate cells of an inserted query (§4.3).  The
subdomain index here needs neither (see :mod:`repro.core.subdomain`),
so this tree serves one purpose: Figures 5 and 6 compare the index's
build time and size with those of a bare query R-tree.

:meth:`RTree.bulk_load` packs the tree by Sort-Tile-Recursive;
:meth:`RTree.memory_estimate` gives its size, and :meth:`RTree.validate`
checks every structural invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import IndexCorruptionError, ValidationError

__all__ = ["Rect", "RTree"]


@dataclass(frozen=True)
class Rect:
    """An axis-aligned d-dimensional rectangle ``[mins, maxs]``."""

    mins: tuple
    maxs: tuple

    @classmethod
    def point(cls, coords: "np.typing.ArrayLike") -> "Rect":
        coords = tuple(float(v) for v in np.atleast_1d(coords))
        return cls(coords, coords)

    @property
    def dim(self) -> int:
        return len(self.mins)

    def union(self, other: "Rect") -> "Rect":
        """Smallest rectangle covering both."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.mins, other.mins)),
            tuple(max(a, b) for a, b in zip(self.maxs, other.maxs)),
        )

    def contains(self, other: "Rect") -> bool:
        """Does this rectangle fully cover ``other``?"""
        return all(
            lo <= other_lo and other_hi <= hi
            for lo, hi, other_lo, other_hi in zip(self.mins, self.maxs, other.mins, other.maxs)
        )

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
    """R-tree over d-dimensional points or rectangles, packed once by :meth:`bulk_load`.

    Parameters
    ----------
    dim:
        Dimensionality of indexed rectangles.
    max_entries:
        Node capacity ``M`` (>= 2).
    min_entries:
        Minimum fill ``m`` of every node but the root (defaults to
        ``max(1, floor(0.4 * M))``).
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

    def __len__(self) -> int:
        return self._size

    def _coerce(self, rect: "Rect | np.typing.ArrayLike") -> Rect:
        if not isinstance(rect, Rect):
            rect = Rect.point(rect)
        if rect.dim != self.dim:
            raise ValidationError(f"rect dim {rect.dim} != tree dim {self.dim}")
        return rect

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
