"""The raw mmap persistence layer: manifest-first validation, typed
errors, and read-only zero-copy views (:mod:`repro.index.mmapio`)."""

import json
import os

import numpy as np
import pytest

from repro.errors import IndexCorruptionError, ValidationError
from repro.index.mmapio import (
    MANIFEST_NAME,
    read_mmap_index,
    write_mmap_index,
)


@pytest.fixture
def saved(tmp_path, rng):
    metadata = {"mode": "exact", "epoch": 3, "dataset_fingerprint": "abc"}
    arrays = {
        "normals": rng.random((6, 3)),
        "ids": np.arange(7, dtype=np.intp),
        "flags": np.array([], dtype=np.int8),
    }
    root = tmp_path / "idx"
    write_mmap_index(root, metadata, arrays)
    return root, metadata, arrays


class TestRoundTrip:
    def test_metadata_and_arrays_survive_byte_exact(self, saved):
        root, metadata, arrays = saved
        got_meta, got_arrays = read_mmap_index(root)
        assert got_meta == metadata
        assert sorted(got_arrays) == sorted(arrays)
        for key, array in arrays.items():
            assert got_arrays[key].dtype == array.dtype
            assert np.array_equal(got_arrays[key], array)

    def test_arrays_come_back_as_readonly_maps(self, saved):
        root, __, __ = saved
        __, got = read_mmap_index(root)
        normals = got["normals"]
        assert isinstance(normals, np.memmap)
        assert not normals.flags.writeable
        with pytest.raises(ValueError):
            normals[0, 0] = 99.0

    def test_rewrite_through_its_own_maps_replaces_the_files(self, saved):
        # Writing arrays that are maps of the files being written: each
        # file is renamed into place, so the old maps keep the old bytes
        # and the new files hold exactly what was passed in.
        root, metadata, arrays = saved
        __, mapped = read_mmap_index(root)
        doubled = {**mapped, "normals": mapped["normals"] * 2}
        write_mmap_index(root, {**metadata, "epoch": 4}, doubled)
        assert np.array_equal(mapped["normals"], arrays["normals"])
        got_meta, got = read_mmap_index(root)
        assert got_meta["epoch"] == 4
        assert np.array_equal(got["normals"], arrays["normals"] * 2)
        assert np.array_equal(got["ids"], arrays["ids"])
        assert sorted(f.name for f in root.iterdir()) == sorted(
            [MANIFEST_NAME] + [f"{key}.npy" for key in arrays]
        )

    def test_failed_save_keeps_the_previous_file(self, saved, monkeypatch):
        # Each file is written under a temporary name first, so a save
        # whose rename fails leaves the saved directory as it was.
        root, metadata, arrays = saved
        before = {f.name: f.read_bytes() for f in root.iterdir()}

        def interrupted(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", interrupted)
        doubled = {key: array * 2 for key, array in arrays.items()}
        with pytest.raises(OSError, match="disk full"):
            write_mmap_index(root, {**metadata, "epoch": 4}, doubled)
        assert {f.name: f.read_bytes() for f in root.iterdir()} == before


class TestTypedErrors:
    def test_missing_manifest_is_corruption(self, tmp_path):
        root = tmp_path / "bare"
        root.mkdir()
        with pytest.raises(IndexCorruptionError, match=MANIFEST_NAME):
            read_mmap_index(root)

    def test_unparseable_manifest_is_corruption(self, saved):
        root, __, __ = saved
        (root / MANIFEST_NAME).write_text("}{ not json")
        with pytest.raises(IndexCorruptionError, match="unreadable"):
            read_mmap_index(root)

    def test_schema_mismatch_is_validation_not_corruption(self, saved):
        root, __, __ = saved
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["schema"] = "repro-subdomain-index-mmap/999"
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="schema"):
            read_mmap_index(root)

    def test_missing_array_file_is_corruption(self, saved):
        root, __, __ = saved
        (root / "normals.npy").unlink()
        with pytest.raises(IndexCorruptionError, match="missing array file"):
            read_mmap_index(root)

    def test_truncated_array_file_is_corruption(self, saved):
        root, __, __ = saved
        path = root / "normals.npy"
        path.write_bytes(path.read_bytes()[:70])
        with pytest.raises(IndexCorruptionError, match="corrupt or truncated"):
            read_mmap_index(root)

    def test_header_manifest_disagreement_is_corruption(self, saved):
        # Validation happens against the catalog *before* any payload
        # page is trusted: a swapped file fails on dtype/shape.
        root, __, __ = saved
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["arrays"]["normals"]["dtype"] = "float32"
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptionError, match="disagrees"):
            read_mmap_index(root)

    def test_malformed_catalog_entry_is_corruption(self, saved):
        root, __, __ = saved
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["arrays"]["normals"] = "normals.npy"
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptionError, match="malformed"):
            read_mmap_index(root)
