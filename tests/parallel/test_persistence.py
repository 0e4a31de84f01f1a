"""Index persistence: the reloaded index must be indistinguishable."""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.updates import add_object, add_query, remove_object, remove_query
from repro.core.subdomain import (
    SubdomainIndex,
    dataset_fingerprint,
    queryset_fingerprint,
)
from repro.errors import IndexCorruptionError, ValidationError
from repro.index.mmapio import MANIFEST_NAME

SAVED = Path(__file__).parents[1] / "fixtures" / "saved_index"


@pytest.fixture
def market(small_market):
    objects, queries, ks = small_market
    return Dataset(objects), QuerySet(queries, ks)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_identical_answers_without_reevaluation(self, market, tmp_path, mode):
        dataset, queries = market
        built = SubdomainIndex(dataset, queries, mode=mode)
        expected = {t: built.hits(t) for t in range(dataset.n)}
        path = tmp_path / "index"
        built.save(path)
        loaded = SubdomainIndex.load(path, dataset, queries)
        # Prefixes were persisted: answering must not recompute rankings.
        assert {t: loaded.hits(t) for t in range(dataset.n)} == expected
        assert loaded.representative_evaluations == 0
        assert loaded.epoch == built.epoch

    def test_partition_and_kth_other_survive(self, market, tmp_path):
        dataset, queries = market
        built = SubdomainIndex(dataset, queries)
        built.hits(0)  # force some lazy prefixes before saving
        path = tmp_path / "index"
        built.save(path)
        loaded = SubdomainIndex.load(path, dataset, queries)
        assert np.array_equal(loaded.signatures, built.signatures)
        assert np.array_equal(loaded.subdomain_of, built.subdomain_of)
        assert np.array_equal(loaded.representatives, built.representatives)
        kth_built = built.kth_other(0)
        kth_loaded = loaded.kth_other(0)
        assert np.array_equal(kth_built[0], kth_loaded[0])
        assert np.allclose(kth_built[1], kth_loaded[1])

    def test_engine_wraps_loaded_index(self, market, tmp_path):
        dataset, queries = market
        engine = ImprovementQueryEngine(dataset, queries)
        path = tmp_path / "index"
        engine.index.save(path)
        restored = ImprovementQueryEngine.from_index(
            SubdomainIndex.load(path, dataset, queries)
        )
        fresh = engine.min_cost(0, tau=5)
        reloaded = restored.min_cost(0, tau=5)
        assert fresh.hits_after == reloaded.hits_after
        assert fresh.total_cost == pytest.approx(reloaded.total_cost)
        plan = restored.explain(0, tau=5)
        assert plan.num_hyperplanes == engine.index.num_hyperplanes

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_save_over_the_directory_it_was_loaded_from(self, market, tmp_path, mode, rng):
        # A loaded index's matrices are read-only maps of the files the
        # save replaces: the new files must not be written through them,
        # and the maps must keep serving the old bytes.
        dataset, queries = market
        path = tmp_path / "index"
        built = SubdomainIndex(dataset, queries, mode=mode)
        expected = {t: built.hits(t) for t in range(dataset.n)}
        built.save(path)
        loaded = SubdomainIndex.load(path, dataset, queries)
        loaded.save(path)
        assert {t: loaded.hits(t) for t in range(dataset.n)} == expected
        reloaded = SubdomainIndex.load(path, dataset, queries)
        assert np.array_equal(reloaded.normals, built.normals)
        assert {t: reloaded.hits(t) for t in range(dataset.n)} == expected
        assert reloaded.representative_evaluations == 0
        # Load, update, save to the same path: the update survives.
        add_query(reloaded, rng.random(dataset.dim), 2)
        updated = {t: reloaded.hits(t) for t in range(dataset.n)}
        reloaded.save(path)
        again = SubdomainIndex.load(path, reloaded.dataset, reloaded.queries)
        again.validate()
        assert {t: again.hits(t) for t in range(dataset.n)} == updated
        assert again.epoch == reloaded.epoch

    def test_save_appends_no_extension_magic(self, market, tmp_path):
        # Saving must write exactly the requested path, whatever its
        # suffix, and nothing beside it.
        dataset, queries = market
        index = SubdomainIndex(dataset, queries)
        path = tmp_path / "index.bin"
        index.save(path)
        assert path.is_dir()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.bin"]
        loaded = SubdomainIndex.load(path, dataset, queries)
        assert loaded.num_subdomains == index.num_subdomains


class TestValidationOnLoad:
    def test_missing_file_rejected(self, market, tmp_path):
        dataset, queries = market
        with pytest.raises(ValidationError):
            SubdomainIndex.load(tmp_path / "absent", dataset, queries)

    def test_dataset_fingerprint_mismatch_rejected(self, market, tmp_path, rng):
        dataset, queries = market
        path = tmp_path / "index"
        SubdomainIndex(dataset, queries).save(path)
        other = Dataset(rng.random((dataset.n, dataset.dim)))
        with pytest.raises(ValidationError, match="fingerprint"):
            SubdomainIndex.load(path, other, queries)

    def test_queryset_fingerprint_mismatch_rejected(self, market, tmp_path, rng):
        dataset, queries = market
        path = tmp_path / "index"
        SubdomainIndex(dataset, queries).save(path)
        other = QuerySet(rng.random((queries.m, dataset.dim)), ks=2)
        with pytest.raises(ValidationError, match="fingerprint"):
            SubdomainIndex.load(path, dataset, other)

    def test_schema_mismatch_rejected(self, market, tmp_path):
        dataset, queries = market
        path = tmp_path / "index"
        SubdomainIndex(dataset, queries).save(path)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["schema"] = "repro-subdomain-index-mmap/999"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="schema"):
            SubdomainIndex.load(path, dataset, queries)

    def test_save_over_regular_file_rejected(self, market, tmp_path):
        dataset, queries = market
        path = tmp_path / "index"
        path.write_text("occupied")
        with pytest.raises(ValidationError, match="not a directory"):
            SubdomainIndex(dataset, queries).save(path)


class TestEagerMetadataValidation:
    def test_header_rejected_before_payload_is_touched(self, market, tmp_path):
        # Delete every payload matrix but leave the manifest with a
        # bogus fingerprint: a loader that validated lazily would crash
        # on the missing arrays with a corruption error; the eager
        # header check must win and type the failure as a
        # ValidationError instead.
        dataset, queries = market
        path = tmp_path / "index"
        SubdomainIndex(dataset, queries).save(path)
        for array_file in path.glob("*.npy"):
            array_file.unlink()
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["dataset_fingerprint"] = "bogus"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="fingerprint"):
            SubdomainIndex.load(path, dataset, queries)


class TestMmapLayout:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_identical_answers_from_mmap_directory(self, market, tmp_path, mode):
        dataset, queries = market
        built = SubdomainIndex(dataset, queries, mode=mode)
        expected = {t: built.hits(t) for t in range(dataset.n)}
        path = tmp_path / "index.mmap"
        built.save(path, format="mmap")
        assert path.is_dir()
        loaded = SubdomainIndex.load(path, dataset, queries)
        assert {t: loaded.hits(t) for t in range(dataset.n)} == expected
        assert loaded.representative_evaluations == 0
        assert loaded.epoch == built.epoch

    def test_save_rejects_unknown_format(self, market, tmp_path):
        dataset, queries = market
        index = SubdomainIndex(dataset, queries)
        with pytest.raises(ValidationError, match="format"):
            index.save(tmp_path / "index", format="pickle")

    def test_loaded_maps_are_copy_on_write_safe(self, market, tmp_path):
        # The file on disk can never be modified through a loaded
        # index: every array is a read-only map that refuses in-place
        # writes, and the update paths rebind what they change.
        dataset, queries = market
        SubdomainIndex(dataset, queries).save(tmp_path / "idx", format="mmap")
        before = {p.name: p.read_bytes() for p in (tmp_path / "idx").iterdir()}
        loaded = SubdomainIndex.load(tmp_path / "idx", dataset, queries)
        for array in (loaded.normals, loaded.signatures, loaded.subdomain_of):
            with pytest.raises(ValueError):
                array[0] = 0
        add_query(loaded, queries.weights[0], 2)
        add_object(loaded, dataset.points[0] + 0.1)
        remove_query(loaded, 0)
        remove_object(loaded, 0)
        loaded.validate()
        assert {p.name: p.read_bytes() for p in (tmp_path / "idx").iterdir()} == before

    def test_loaded_signatures_are_the_map_of_their_file(self, market, tmp_path):
        # A load copies no cell: the signature matrix is the read-only
        # map of signatures.npy itself.
        dataset, queries = market
        SubdomainIndex(dataset, queries).save(tmp_path / "idx")
        loaded = SubdomainIndex.load(tmp_path / "idx", dataset, queries)
        assert not loaded.signatures.flags.writeable
        base = loaded.signatures
        while base is not None and not isinstance(base, np.memmap):
            base = base.base
        assert base is not None and Path(base.filename).name == "signatures.npy"
        assert np.shares_memory(loaded.signatures, base)

    def test_pool_shares_mmap_arrays_through_page_cache(self, market, tmp_path):
        # Forked workers read the loaded index through the inherited
        # page-cache mapping; their answers must be byte-identical.
        from repro.parallel import IQRequest, PersistentPool, run_batch

        dataset, queries = market
        ImprovementQueryEngine(dataset, queries).index.save(
            tmp_path / "idx", format="mmap"
        )
        engine = ImprovementQueryEngine.from_index(
            SubdomainIndex.load(tmp_path / "idx", dataset, queries)
        )
        batch = [IQRequest("min_cost", t, 5.0) for t in range(4)] + [
            IQRequest("max_hit", t, 0.8) for t in range(4)
        ]
        serial = run_batch(engine, batch)
        with PersistentPool(engine, workers=2) as pool:
            pooled = pool.run(batch)
        for ours, theirs in zip(serial, pooled):
            assert ours.hits_after == theirs.hits_after
            assert ours.total_cost == theirs.total_cost
            assert np.array_equal(ours.strategy.vector, theirs.strategy.vector)


class TestSavedByEarlierVersion:
    """Indexes on disk from earlier versions: the monolithic directory
    still loads; a sharded directory or an ``.npz`` file is refused with
    a typed error that says to save the index again.  The directory
    fixtures were written by such a version from ``inputs.json``."""

    @pytest.fixture
    def saved(self):
        inputs = json.loads((SAVED / "inputs.json").read_text())
        dataset = Dataset(np.asarray(inputs["objects"]))
        queries = QuerySet(np.asarray(inputs["weights"]), np.asarray(inputs["ks"]))
        expected = [
            SubdomainIndex(dataset, queries, mode="relevant").hits(t)
            for t in range(dataset.n)
        ]
        return dataset, queries, expected

    def test_monolithic_directory_loads(self, saved):
        dataset, queries, expected = saved
        loaded = SubdomainIndex.load(SAVED / "monolithic", dataset, queries)
        assert [loaded.hits(t) for t in range(dataset.n)] == expected
        assert loaded.representative_evaluations == 0  # prefixes were saved

    @staticmethod
    def refuse_opens(monkeypatch):
        def opened(*args, **kwargs):
            raise AssertionError("an index file was opened")

        monkeypatch.setattr(np, "load", opened)

    def test_sharded_directory_refused_with_save_again_hint(self, saved, monkeypatch):
        # Refused from the manifest alone, before any shard file is opened.
        dataset, queries, __ = saved
        self.refuse_opens(monkeypatch)
        with pytest.raises(ValidationError, match="sharded layout.*save the index again"):
            SubdomainIndex.load(SAVED / "sharded", dataset, queries)

    def test_npz_sharded_manifest_rejected_before_shard_access(self, saved, tmp_path, monkeypatch):
        # The earlier sharded manifest, naming .npz shard files that do
        # not exist: the refusal must come from the manifest alone.
        dataset, queries, __ = saved
        manifest = json.loads((SAVED / "sharded" / MANIFEST_NAME).read_text())
        manifest["layout"] = "npz"
        for entry in manifest["shard_files"]:
            entry["file"] += ".npz"
        (tmp_path / "idx").mkdir()
        (tmp_path / "idx" / MANIFEST_NAME).write_text(json.dumps(manifest))
        self.refuse_opens(monkeypatch)
        with pytest.raises(ValidationError, match="sharded layout.*save the index again"):
            SubdomainIndex.load(tmp_path / "idx", dataset, queries)

    def test_literal_partition_key_ignored(self, saved, tmp_path):
        # A directory saved with the BSP build recorded in its manifest:
        # the key no longer chooses anything, so the index loads, answers
        # as a fresh build does, and a re-save drops the key.
        dataset, queries, expected = saved
        root = tmp_path / "idx"
        shutil.copytree(SAVED / "monolithic", root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["partition_method"] = "literal"
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        loaded = SubdomainIndex.load(root, dataset, queries)
        assert [loaded.hits(t) for t in range(dataset.n)] == expected
        loaded.save(tmp_path / "resaved")
        resaved = json.loads((tmp_path / "resaved" / MANIFEST_NAME).read_text())
        assert "partition_method" not in resaved
        assert_same_files(tmp_path / "resaved", SAVED / "monolithic")

    def test_npz_file_rejected_with_save_again_hint(self, saved, tmp_path):
        dataset, queries, __ = saved
        stale = tmp_path / "index.npz"
        stale.write_bytes(b"PK\x03\x04")
        with pytest.raises(ValidationError, match="directory.*save the index again"):
            SubdomainIndex.load(stale, dataset, queries)


def fixture_inputs():
    inputs = json.loads((SAVED / "inputs.json").read_text())
    dataset = Dataset(np.asarray(inputs["objects"]))
    queries = QuerySet(np.asarray(inputs["weights"]), np.asarray(inputs["ks"]))
    return dataset, queries


def assert_same_files(ours, theirs):
    """``ours`` holds the files of fixture ``theirs`` byte for byte.

    The fixture's manifest also records ``rtree_max_entries``, the node
    capacity of the query R-tree the index kept when the fixture was
    written, and ``partition_method``, the build path the index could
    once choose; ``ours`` must hold that manifest less these two keys,
    as ``write_mmap_index`` serializes it.
    """
    names = sorted(path.name for path in theirs.iterdir())
    assert sorted(path.name for path in ours.iterdir()) == names
    for name in names:
        expected = (theirs / name).read_bytes()
        if name == MANIFEST_NAME:
            manifest = json.loads(expected)
            del manifest["rtree_max_entries"], manifest["partition_method"]
            expected = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")
        assert (ours / name).read_bytes() == expected, name


class TestSavedBytes:
    """A save writes the fixture's files byte for byte."""

    def test_load_then_save(self, tmp_path):
        dataset, queries = fixture_inputs()
        SubdomainIndex.load(SAVED / "monolithic", dataset, queries).save(tmp_path / "idx")
        assert_same_files(tmp_path / "idx", SAVED / "monolithic")

    def test_fresh_build_ranked_then_saved(self, tmp_path):
        dataset, queries = fixture_inputs()
        index = SubdomainIndex(dataset, queries, mode="relevant")
        for target in range(dataset.n):
            index.hits(target)
        index.save(tmp_path / "idx")
        assert_same_files(tmp_path / "idx", SAVED / "monolithic")


def plant(root, name, edit):
    """Rewrite one array of the index at ``root``, keeping its manifest entry true."""
    array = np.load(root / f"{name}.npy")
    array = edit(array.copy())
    np.save(root / f"{name}.npy", array)
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    manifest["arrays"][name].update(dtype=str(array.dtype), shape=list(array.shape))
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))


def set_first(value):
    def edit(array):
        array.flat[0] = value
        return array

    return edit


class TestInconsistentArraysRefused:
    """Arrays that disagree with each other refuse to load, typed."""

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("subdomain_of", set_first(-1), "outside"),
            ("subdomain_of", lambda a: np.where(a == 1, 0, a), "no member"),
            ("prefix_lengths", set_first(-2), "prefix_lengths"),
            ("prefix_lengths", lambda a: a + 1, "prefix_lengths"),
            ("prefix_concat", set_first(99), "outside"),
            ("representatives", set_first(999), "outside"),
            ("representatives", lambda a: a[::-1].copy(), "another cell"),
            ("signatures", lambda a: a[:, :-1].copy(), "signatures has shape"),
            ("pairs", lambda a: a[:, ::-1].copy(), "pair"),
            ("normals", lambda a: a[:-1].copy(), "has shape"),
        ],
        ids=[
            "cell-id-negative",
            "empty-cell",
            "prefix-length-negative",
            "prefix-lengths-overrun",
            "prefix-id-out-of-range",
            "representative-out-of-range",
            "representative-in-another-cell",
            "signatures-column-short",
            "pair-not-ascending",
            "normals-row-short",
        ],
    )
    def test_refused(self, tmp_path, name, edit, message):
        dataset, queries = fixture_inputs()
        root = tmp_path / "idx"
        SubdomainIndex.load(SAVED / "monolithic", dataset, queries).save(root)
        plant(root, name, edit)
        with pytest.raises(IndexCorruptionError, match=message):
            SubdomainIndex.load(root, dataset, queries)


class TestMonolithicLoadErrors:
    """Damaged index directories surface as typed ReproErrors (never KeyError)."""

    def save_one(self, tmp_path, market):
        index = SubdomainIndex(*market, mode="relevant")
        path = tmp_path / "index"
        index.save(path)
        return path

    def test_truncated_file(self, tmp_path, market):
        path = self.save_one(tmp_path, market) / "normals.npy"
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(IndexCorruptionError, match="corrupt or truncated"):
            SubdomainIndex.load(path.parent, *market)

    def test_garbage_bytes(self, tmp_path, market):
        path = self.save_one(tmp_path, market) / "signatures.npy"
        path.write_bytes(b"this was never an npy payload")
        with pytest.raises(IndexCorruptionError):
            SubdomainIndex.load(path.parent, *market)

    def test_missing_field(self, tmp_path, market):
        path = self.save_one(tmp_path, market)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        del manifest["arrays"]["pairs"]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptionError, match="missing required field"):
            SubdomainIndex.load(path, *market)

    def test_schema_mismatch_is_validation_not_corruption(self, tmp_path, market):
        path = tmp_path / "wrong-schema"
        path.mkdir()
        (path / MANIFEST_NAME).write_text(json.dumps({"schema": "some-other-format/1"}))
        with pytest.raises(ValidationError, match="unsupported mmap index schema"):
            SubdomainIndex.load(path, *market)

    def test_missing_path(self, tmp_path, market):
        with pytest.raises(ValidationError, match="no saved index"):
            SubdomainIndex.load(tmp_path / "absent", *market)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("margin", "abc"),
            ("epoch", "x"),
            ("margin", None),
            ("epoch", [1]),
            ("margin", 2.7),
            ("margin", -5),
            ("margin", True),
            ("epoch", -3),
        ],
    )
    def test_untyped_scalar_refused_before_arrays(self, tmp_path, monkeypatch, field, value):
        dataset, queries = fixture_inputs()
        root = tmp_path / "idx"
        shutil.copytree(SAVED / "monolithic", root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest[field] = value
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        TestSavedByEarlierVersion.refuse_opens(monkeypatch)
        with pytest.raises(IndexCorruptionError, match=f"{field!r} must be an integer >= 0"):
            SubdomainIndex.load(root, dataset, queries)

    @pytest.mark.parametrize("margin", [0, 3])
    def test_another_margin_refused_with_save_again_hint(self, tmp_path, monkeypatch, margin):
        # Indexes rank contenders to one depth; a directory saved at
        # another is refused from the manifest alone.
        dataset, queries = fixture_inputs()
        root = tmp_path / "idx"
        shutil.copytree(SAVED / "monolithic", root)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        manifest["margin"] = margin
        (root / MANIFEST_NAME).write_text(json.dumps(manifest))
        TestSavedByEarlierVersion.refuse_opens(monkeypatch)
        with pytest.raises(ValidationError, match=f"margin {margin}.*save the index again"):
            SubdomainIndex.load(root, dataset, queries)


class TestFingerprints:
    def test_content_addressed(self, market, rng):
        dataset, queries = market
        same = Dataset(dataset.points.copy(), sense=dataset.sense)
        assert dataset_fingerprint(dataset) == dataset_fingerprint(same)
        moved = dataset.points.copy()
        moved[0, 0] += 1e-6
        assert dataset_fingerprint(dataset) != dataset_fingerprint(
            Dataset(moved, sense=dataset.sense)
        )
        assert queryset_fingerprint(queries) == queryset_fingerprint(
            QuerySet(queries.weights.copy(), queries.ks.copy())
        )
        other_ks = queries.ks.copy()
        other_ks[0] = other_ks[0] + 1
        assert queryset_fingerprint(queries) != queryset_fingerprint(
            QuerySet(queries.weights.copy(), other_ks)
        )
