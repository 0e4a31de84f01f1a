"""Memory-mapped index persistence: raw ``.npy`` files + JSON manifest.

This is the one on-disk index layout:

* one uncompressed ``.npy`` per persisted matrix, opened with
  ``np.load(..., mmap_mode="r")`` so the open itself is O(1) — pages
  fault in lazily and live in the OS page cache;
* a ``manifest.json`` carrying the schema tag, the index metadata, the
  dataset/workload fingerprints, and per-array ``{file, dtype, shape}``
  entries so corruption is detected *before* any matrix is touched.

Because the maps are read-only, forked ``PersistentPool`` workers share
the hot matrices through the page cache for free.  Mutating code never
writes through the maps: update paths rebind index arrays (the
read-only mapping makes an accidental in-place write raise instead of
silently corrupting the file on disk).

Error typing: a missing / truncated / unparseable file raises
:class:`~repro.errors.IndexCorruptionError`; an intact directory that
belongs to different data or a different schema version raises
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import BinaryIO, Callable, Mapping

import numpy as np

from repro.errors import IndexCorruptionError, ValidationError

__all__ = [
    "MMAP_SCHEMA",
    "MANIFEST_NAME",
    "check_index_format",
    "replace_file",
    "write_mmap_index",
    "read_mmap_index",
]

#: Schema tag of the memory-mapped monolithic-index layout; bumped
#: whenever the on-disk layout changes so stale directories fail loudly.
MMAP_SCHEMA = "repro-subdomain-index-mmap/1"

MANIFEST_NAME = "manifest.json"

#: Schema tag of the sharded directory layout that earlier versions wrote
#: (one mmap subdirectory per shard); it is refused, not read.
_SHARDED_SCHEMA = "repro-sharded-index/1"


def check_index_format(format: str) -> None:
    """Reject any ``save(format=...)`` value but ``"mmap"``, the one layout."""
    if format != "mmap":
        raise ValidationError(
            f"unknown index format {format!r}; the only index layout is 'mmap'"
        )


def replace_file(target: Path, write: Callable[[BinaryIO], object]) -> None:
    """Write ``target`` under a temporary name, then rename it into place.

    The rename gives ``target`` a new inode instead of truncating the
    old one.  An index loaded from this directory holds read-only maps
    of the old files, and saving it back to the same path reads through
    those maps: they must keep the old bytes until the new file is
    complete.
    """
    scratch = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(scratch, "wb") as handle:
            write(handle)
        os.replace(scratch, target)
    finally:
        scratch.unlink(missing_ok=True)


def write_mmap_index(
    path: "str | Path",
    metadata: Mapping[str, object],
    arrays: Mapping[str, np.ndarray],
) -> None:
    """Persist ``arrays`` as raw ``.npy`` files under a manifest.

    ``metadata`` is copied into the manifest verbatim next to the
    schema tag and the per-array catalog; keys may not collide with
    ``schema`` / ``arrays``.  Every file is written by
    :func:`replace_file`, the manifest last, so saving over the
    directory an index was loaded from is safe.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    catalog: dict[str, dict[str, object]] = {}
    for key, array in arrays.items():
        filename = f"{key}.npy"
        replace_file(
            root / filename,
            lambda handle, array=array: np.save(handle, np.ascontiguousarray(array)),
        )
        catalog[key] = {
            "file": filename,
            "dtype": str(array.dtype),
            "shape": list(array.shape),
        }
    manifest: dict[str, object] = {"schema": MMAP_SCHEMA, **metadata, "arrays": catalog}
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    replace_file(root / MANIFEST_NAME, lambda handle: handle.write(text.encode("utf-8")))


def _manifest(root: Path) -> dict[str, object]:
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise IndexCorruptionError(f"mmap index {root} has no {MANIFEST_NAME}")
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise IndexCorruptionError(f"mmap index manifest {manifest_path} is unreadable: {exc}") from exc
    if not isinstance(payload, dict):
        raise IndexCorruptionError(f"mmap index manifest {manifest_path} is not an object")
    return payload


def read_mmap_index(
    path: "str | Path",
    validate: "Callable[[dict[str, object]], None] | None" = None,
) -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """Open a mmap-layout directory as ``(metadata, arrays)``.

    The manifest is validated first — schema tag, array catalog, and
    each catalog entry's dtype/shape against the ``.npy`` header — so
    every corruption surfaces as a typed error before a single matrix
    page is faulted in.  ``validate``, when given, sees the metadata
    before any array file is opened, so a header naming different data
    fails without touching the payload.  The returned arrays are
    read-only ``np.memmap`` views; the metadata dict is the manifest
    minus the ``schema``/``arrays`` bookkeeping keys.
    """
    root = Path(path)
    payload = _manifest(root)
    schema = payload.get("schema")
    if schema == _SHARDED_SCHEMA:
        raise ValidationError(
            f"saved index {root} uses the sharded layout, which this version no "
            "longer reads; save the index again"
        )
    if schema != MMAP_SCHEMA:
        raise ValidationError(
            f"unsupported mmap index schema {schema!r} (expected {MMAP_SCHEMA!r})"
        )
    catalog = payload.get("arrays")
    if not isinstance(catalog, dict):
        raise IndexCorruptionError(f"mmap index {root} manifest is missing the array catalog")
    metadata = {
        key: value for key, value in payload.items() if key not in ("schema", "arrays")
    }
    if validate is not None:
        validate(metadata)
    arrays: dict[str, np.ndarray] = {}
    for key, entry in catalog.items():
        if not isinstance(entry, dict) or "file" not in entry:
            raise IndexCorruptionError(f"mmap index {root} catalog entry {key!r} is malformed")
        array_path = root / str(entry["file"])
        try:
            array = np.load(array_path, mmap_mode="r", allow_pickle=False)
        except FileNotFoundError as exc:
            raise IndexCorruptionError(f"mmap index {root} is missing array file {key!r}") from exc
        except (OSError, EOFError, ValueError) as exc:
            raise IndexCorruptionError(
                f"mmap index array {array_path} is corrupt or truncated: {exc}"
            ) from exc
        if str(array.dtype) != entry.get("dtype") or list(array.shape) != entry.get("shape"):
            raise IndexCorruptionError(
                f"mmap index array {key!r} disagrees with its manifest entry "
                f"(got {array.dtype}/{array.shape}, manifest says "
                f"{entry.get('dtype')}/{entry.get('shape')})"
            )
        arrays[key] = array
    return metadata, arrays
