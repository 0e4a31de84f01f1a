"""Shared-memory array plumbing for the worker pool.

The parent exports read-only numpy arrays into named
:class:`multiprocessing.shared_memory.SharedMemory` segments and hands
workers only the tiny :class:`ArraySpec` descriptors; workers re-map the
same physical pages instead of unpickling array copies.  This is what
lets the persistent pool ship the object matrix ``D``, the query
weights ``Q`` and the normals to every worker for the cost of an
``mmap``.

Lifecycle rules (the part that is easy to get wrong):

* the parent owns every segment it created — :class:`SharedArrayStore`
  is a context manager that closes *and unlinks* them on exit;
* workers only ever *attach*.  Attached segments are deregistered from
  the per-process ``resource_tracker`` (or opened with ``track=False``
  on Python 3.13+) so a worker exiting cannot tear down segments the
  parent still uses — the long-standing CPython pitfall bpo-38119.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Iterator

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "ArraySpec",
    "SharedArrayStore",
    "attach_array",
    "attached_segments",
    "detach_all",
    "detach_array",
]

#: Worker-side registry of attached segments.  Segments must outlive the
#: arrays mapped onto their buffers, so attachments are cached per
#: segment name, keyed together with the :class:`ArraySpec` they were
#: attached under — a cache hit is only valid for the *same* spec, and a
#: name reused with a different layout evicts the stale entry instead of
#: serving a wrong-shape view of whatever lives there now.
_ATTACHED: dict[str, tuple[ArraySpec, shared_memory.SharedMemory, np.ndarray]] = {}

#: Segments evicted from the cache while their ndarray view (or a slice
#: of it) was still referenced elsewhere.  numpy views do *not* export
#: the underlying memoryview buffer, so ``SharedMemory.close()`` on such
#: a segment would not raise — it would silently unmap pages the live
#: view still reads (a segfault on next access).  Parking the handle
#: keeps the mapping alive for the life of the process instead; the
#: cost is bounded by eviction count, and eviction is rare.
_ZOMBIES: list[shared_memory.SharedMemory] = []


@dataclass(frozen=True)
class ArraySpec:
    """Pickle-friendly descriptor of one shared array (not its data)."""

    name: str  #: shared-memory segment name
    shape: tuple[int, ...]
    dtype: str  #: numpy dtype string, e.g. ``"<f8"``


class SharedArrayStore:
    """Parent-side owner of shared-memory segments (context manager).

    ``share(array)`` copies the array into a fresh segment and returns
    the :class:`ArraySpec` workers use to attach; ``close()`` (or
    leaving the ``with`` block) closes and unlinks every segment the
    store created.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []

    def share(self, array: np.ndarray) -> ArraySpec:
        """Export one array into a new shared segment."""
        spec, __ = self.share_view(array)
        return spec

    def share_view(self, array: np.ndarray) -> "tuple[ArraySpec, np.ndarray]":
        """Export one array and return a parent-side view of the segment.

        The returned read-only ndarray maps the shared pages directly,
        so a parent that *rebinds* its own hot matrices onto the view
        (the persistent pool does) reads the exact physical memory its
        fork-started workers inherit — the array is resident in shared
        memory, not merely copy-on-write duplicated per fork generation.
        The view must not outlive the store; callers that rebound live
        state onto it copy the data back out before :meth:`close`.
        """
        array = np.ascontiguousarray(array)
        segment = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        self._segments.append(segment)
        view: np.ndarray = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        if array.nbytes:
            view[...] = array
        view.setflags(write=False)
        return ArraySpec(segment.name, tuple(array.shape), array.dtype.str), view

    def close(self) -> None:
        """Close and unlink every segment this store created.

        Same-process attachments to this store's segments (the serial
        path and tests attach in the parent) are evicted first, so the
        worker-side cache can never serve a view of an unlinked segment.
        """
        for segment in self._segments:
            detach_array(segment.name)
            try:
                segment.close()
            except BufferError:  # pragma: no cover - non-numpy buffer export
                _ZOMBIES.append(segment)
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        self._segments = []

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership."""
    try:
        # Python 3.13+: never register with the resource tracker.
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        # Older Pythons register attachments with the resource tracker
        # exactly like creations (bpo-38119), which double-books the
        # segment: fork-pool workers share the parent's tracker, so the
        # spurious registration (or un-registering it) desyncs the
        # tracker from the parent's own create/unlink bookkeeping.
        # Suppress registration for the attach only.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]


def attach_array(spec: ArraySpec) -> np.ndarray:
    """Map a shared segment as a read-only ndarray (worker side, cached).

    A cache hit is honoured only when the cached entry was attached
    under the *same* spec; a segment name reused with a different
    shape/dtype (generations of pools recycle names eventually) evicts
    the stale entry and re-attaches instead of serving a wrong-layout
    view of the new segment's bytes.
    """
    cached = _ATTACHED.get(spec.name)
    if cached is not None:
        if cached[0] == spec:
            return cached[2]
        detach_array(spec.name)
    if any(side < 0 for side in spec.shape):
        raise ValidationError(f"invalid shared-array shape {spec.shape}")
    segment = _attach_segment(spec.name)
    array: np.ndarray = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf)
    array.setflags(write=False)
    _ATTACHED[spec.name] = (spec, segment, array)
    return array


def detach_array(name: str) -> bool:
    """Evict one cached attachment; returns False if it was not cached.

    The segment is closed only when the cache held the *last* reference
    to its ndarray.  Any external reference — a caller's binding, a
    slice, an engine attribute rebound onto the view — keeps the chain
    of ``.base`` references to the cached array alive, so a refcount
    above the cache's own bookkeeping means closing would unmap memory
    someone still reads; the segment is parked in ``_ZOMBIES`` instead.
    """
    entry = _ATTACHED.pop(name, None)
    if entry is None:
        return False
    __, segment, array = entry
    # Live references at this point when nobody else holds the array:
    # the entry tuple, the local ``array``, and getrefcount's argument.
    if sys.getrefcount(array) <= 3:
        del array, entry
        try:
            segment.close()
        except BufferError:  # pragma: no cover - defensive
            _ZOMBIES.append(segment)
    else:
        _ZOMBIES.append(segment)
    return True


def detach_all() -> int:
    """Evict every cached attachment; returns how many were evicted.

    Worker initializers call this first: a fork-started worker inherits
    the parent's cache, whose entries describe the *previous* pool
    generation's segments — stale state the re-fork exists to replace.
    """
    count = 0
    for name in list(_ATTACHED):
        if detach_array(name):
            count += 1
    return count


def attached_segments() -> frozenset[str]:
    """Names of the segments currently held by the attachment cache."""
    return frozenset(_ATTACHED)


def chunk_bounds(total: int, chunks: int) -> Iterator[tuple[int, int]]:
    """Split ``range(total)`` into at most ``chunks`` contiguous slices."""
    if total <= 0:
        return
    if chunks < 1:
        raise ValidationError(f"chunks must be positive, got {chunks}")
    step = -(-total // chunks)  # ceil division: balanced, order-preserving
    for start in range(0, total, step):
        yield start, min(total, start + step)
