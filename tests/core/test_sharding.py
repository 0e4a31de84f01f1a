"""Sharded subdomain index: parity, routing, persistence, maintenance."""

import json

import numpy as np
import pytest

from repro.core import updates
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.plan import build_plan
from repro.core.queries import QuerySet
from repro.core.sharding import (
    IndexProtocol,
    ShardedSubdomainIndex,
    build_index,
    resolve_shards,
)
from repro.core.solvers import get_solver
from repro.core.cost import euclidean_cost
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.data.synthetic import generate
from repro.data.workloads import generate_queries
from repro.errors import IndexCorruptionError, ValidationError
from repro.index.router import GridRouter, RendezvousRouter


def make_inputs(n=20, m=24, d=3, seed=11):
    dataset = Dataset(generate("IN", n, d, seed=seed))
    queries = generate_queries("UN", m, d, seed=seed + 1, k_range=(1, 4))
    return dataset, queries


@pytest.fixture(scope="module")
def inputs():
    return make_inputs()


class TestResolveShards:
    def test_none_is_monolithic(self):
        assert resolve_shards(None) == 1

    def test_explicit_counts_pass_through(self):
        assert resolve_shards(7) == 7
        assert resolve_shards("7") == 7

    def test_explicit_zero_rejected(self):
        with pytest.raises(ValidationError):
            resolve_shards(0)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            resolve_shards("many")

    def test_auto_is_rejected(self):
        # "auto" meant one shard per construction worker; the
        # construction pool is gone, and with it the rule.
        with pytest.raises(ValidationError):
            resolve_shards("auto")


class TestBuildIndexFactory:
    def test_monolithic_by_default(self, inputs):
        index = build_index(*inputs, mode="relevant")
        assert isinstance(index, SubdomainIndex)
        assert index.shards == 1 and index.routing == "none"

    def test_sharded_when_requested(self, inputs):
        index = build_index(*inputs, mode="relevant", shards=3)
        assert isinstance(index, ShardedSubdomainIndex)
        assert index.shards == 3
        assert sum(index.shard_sizes) == inputs[1].m

    def test_both_satisfy_the_protocol(self, inputs):
        assert isinstance(build_index(*inputs, mode="relevant"), IndexProtocol)
        assert isinstance(
            build_index(*inputs, mode="relevant", shards=2), IndexProtocol
        )


class TestShardedParity:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_served_answers_match_the_monolith(self, inputs, mode):
        dataset, queries = inputs
        mono = SubdomainIndex(dataset, queries, mode=mode)
        sharded = ShardedSubdomainIndex(dataset, queries, shards=4, mode=mode)
        for target in range(dataset.n):
            kth_m, theta_m = mono.kth_other(target)
            kth_s, theta_s = sharded.kth_other(target)
            assert np.array_equal(kth_m, kth_s)
            assert np.array_equal(theta_m, theta_s)
            assert np.array_equal(mono.hits_mask(target), sharded.hits_mask(target))
            assert mono.hits(target) == sharded.hits(target)

    def test_exact_mode_signatures_are_byte_identical(self, inputs):
        dataset, queries = inputs
        mono = SubdomainIndex(dataset, queries, mode="exact")
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="exact")
        for qid in range(queries.m):
            assert sharded.signature_of(qid) == mono.signature_of(qid)

    def test_k1_is_the_monolith(self, inputs):
        dataset, queries = inputs
        mono = SubdomainIndex(dataset, queries, mode="relevant")
        one = ShardedSubdomainIndex(dataset, queries, shards=1, mode="relevant")
        for qid in range(queries.m):
            assert one.signature_of(qid) == mono.signature_of(qid)
            assert np.array_equal(one.cell_members(qid), mono.cell_members(qid))

    def test_members_partition_the_workload(self, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=4, mode="relevant")
        seen = np.concatenate([sharded.shard_members(s) for s in range(4)])
        assert sorted(seen.tolist()) == list(range(queries.m))
        for s in range(4):
            members = sharded.shard_members(s)
            assert np.all(np.diff(members) > 0)  # strictly ascending

    def test_router_choice_is_respected(self, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(
            dataset, queries, shards=4, router="rendezvous", mode="relevant"
        )
        assert sharded.routing == "rendezvous"
        expected = RendezvousRouter().assign(queries.weights, 4)
        assert np.array_equal(sharded._shard_of, expected)

    def test_validate_passes_on_a_fresh_build(self, inputs):
        ShardedSubdomainIndex(*inputs, shards=4, mode="relevant").validate()

    def test_shard_accessor_bounds(self, inputs):
        sharded = ShardedSubdomainIndex(*inputs, shards=2, mode="relevant")
        with pytest.raises(ValidationError):
            sharded.shard(2)
        mono = SubdomainIndex(*inputs, mode="relevant")
        assert mono.shard(0) is mono
        with pytest.raises(ValidationError):
            mono.shard(1)


class TestShardedMutations:
    def test_add_query_touches_only_the_owning_shard(self):
        dataset, queries = make_inputs()
        sharded = ShardedSubdomainIndex(dataset, queries, shards=4, mode="relevant")
        before = sharded.shard_epochs
        weights = np.array([0.6, 0.3, 0.1])
        owner = sharded.router.assign_one(weights, 4)
        qid = sharded.add_query(weights, 2)
        assert qid == queries.m
        moved = [
            s for s, (a, b) in enumerate(zip(before, sharded.shard_epochs)) if a != b
        ]
        assert moved == [owner]
        assert qid in sharded.shard_members(owner).tolist()

    def test_remove_query_shifts_global_ids(self):
        dataset, queries = make_inputs()
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.remove_query(5)
        assert sharded.queries.m == queries.m - 1
        seen = np.concatenate([sharded.shard_members(s) for s in range(3)])
        assert sorted(seen.tolist()) == list(range(queries.m - 1))
        sharded.validate()

    def test_object_mutations_fan_out_and_match_rebuild(self):
        dataset, queries = make_inputs()
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.add_object(np.array([0.4, 0.5, 0.6]))
        sharded.remove_object(2)
        rebuilt = ShardedSubdomainIndex(
            sharded.dataset, sharded.queries, shards=3, mode="relevant"
        )
        for target in range(sharded.dataset.n):
            assert np.array_equal(
                sharded.hits_mask(target), rebuilt.hits_mask(target)
            )
        # fan-out re-unified the dataset: all shards share one object
        for s in range(3):
            assert sharded.shard(s).dataset is sharded.dataset
        sharded.validate()

    def test_updates_module_dispatches_on_the_union(self):
        dataset, queries = make_inputs()
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        epoch = sharded.epoch
        qid = updates.add_query(sharded, np.array([0.2, 0.3, 0.5]), 2)
        assert qid == queries.m
        assert sharded.epoch > epoch
        updates.remove_query(sharded, qid)
        assert sharded.queries.m == queries.m

    def test_mutation_notifies_subscribers(self):
        dataset, queries = make_inputs()
        sharded = ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant")
        calls = []

        def on_mutation():
            calls.append(True)

        # hooks are weakly held: the subscriber must stay alive
        sharded.subscribe_mutations(on_mutation)
        sharded.add_query(np.array([0.5, 0.25, 0.25]), 1)
        assert calls


class TestShardedPersistence:
    def test_save_load_round_trip(self, tmp_path, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.save(tmp_path / "idx")
        loaded = ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)
        assert loaded.shards == 3
        assert np.array_equal(loaded._shard_of, sharded._shard_of)
        for target in range(dataset.n):
            assert np.array_equal(
                loaded.hits_mask(target), sharded.hits_mask(target)
            )
        loaded.validate()

    def test_mmap_layout_round_trip(self, tmp_path, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.save(tmp_path / "idx", format="mmap")
        # shard entries are per-shard mmap directories
        assert (tmp_path / "idx" / "shard-0000").is_dir()
        assert (tmp_path / "idx" / "shard-0000" / "manifest.json").exists()
        assert not (tmp_path / "idx" / "shard-0000.npz").exists()
        loaded = ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)
        for target in range(dataset.n):
            assert np.array_equal(
                loaded.hits_mask(target), sharded.hits_mask(target)
            )
        loaded.validate()

    @pytest.mark.parametrize("lazy", [False, True])
    def test_save_over_the_directory_it_was_loaded_from(self, tmp_path, inputs, lazy):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        expected = [sharded.hits_mask(t) for t in range(dataset.n)]
        sharded.save(tmp_path / "idx")
        loaded = ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries, lazy=lazy)
        loaded.save(tmp_path / "idx")
        reloaded = ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)
        reloaded.validate()
        for s in range(3):
            assert np.array_equal(reloaded.shard(s).normals, sharded.shard(s).normals)
        for target in range(dataset.n):
            assert np.array_equal(reloaded.hits_mask(target), expected[target])
        # Load, update, save to the same path: the update survives.
        updates.add_query(reloaded, np.full(dataset.dim, 0.5), 2)
        updated = [reloaded.hits_mask(t) for t in range(dataset.n)]
        reloaded.save(tmp_path / "idx")
        again = ShardedSubdomainIndex.load(
            tmp_path / "idx", reloaded.dataset, reloaded.queries
        )
        again.validate()
        for target in range(dataset.n):
            assert np.array_equal(again.hits_mask(target), updated[target])

    def test_mmap_layout_rejects_unknown_format(self, tmp_path, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant")
        with pytest.raises(ValidationError, match="format"):
            sharded.save(tmp_path / "idx", format="pickle")

    def test_lazy_load_defers_shard_files(self, tmp_path, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.save(tmp_path / "idx")
        lazy = ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries, lazy=True)
        assert not any(lazy.shard_loaded(s) for s in range(3))
        # manifest hints serve EXPLAIN statistics without touching disk
        assert lazy.num_subdomains == sharded.num_subdomains
        assert lazy.shard_epochs == sharded.shard_epochs
        assert not any(lazy.shard_loaded(s) for s in range(3))
        qid = 0
        assert lazy.signature_of(qid) == sharded.signature_of(qid)
        assert any(lazy.shard_loaded(s) for s in range(3))

    def test_load_shard_alone(self, tmp_path, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        sharded.save(tmp_path / "idx")
        shard = ShardedSubdomainIndex.load_shard(tmp_path / "idx", dataset, queries, 1)
        assert isinstance(shard, SubdomainIndex)
        assert shard.queries.m == len(sharded.shard_members(1))

    def test_missing_manifest_raises_validation_error(self, tmp_path, inputs):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ValidationError, match="manifest"):
            ShardedSubdomainIndex.load(tmp_path / "empty", *inputs)

    def test_corrupt_manifest_raises_corruption_error(self, tmp_path, inputs):
        dataset, queries = inputs
        ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant").save(
            tmp_path / "idx"
        )
        (tmp_path / "idx" / "manifest.json").write_text("{not json")
        with pytest.raises(IndexCorruptionError, match="corrupt"):
            ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)

    def test_manifest_missing_field_raises_corruption_error(self, tmp_path, inputs):
        dataset, queries = inputs
        ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant").save(
            tmp_path / "idx"
        )
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["router"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptionError, match="required fields"):
            ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)

    def test_schema_mismatch_raises_validation_error(self, tmp_path, inputs):
        dataset, queries = inputs
        ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant").save(
            tmp_path / "idx"
        )
        manifest_path = tmp_path / "idx" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "repro-sharded-index/999"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValidationError, match="unsupported sharded schema"):
            ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)

    def test_fingerprint_mismatch_raises_validation_error(self, tmp_path, inputs):
        dataset, queries = inputs
        ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant").save(
            tmp_path / "idx"
        )
        other = Dataset(generate("IN", dataset.n, dataset.dim, seed=999))
        with pytest.raises(ValidationError, match="different dataset"):
            ShardedSubdomainIndex.load(tmp_path / "idx", other, queries)

    def test_truncated_shard_file_raises_corruption_error(self, tmp_path, inputs):
        dataset, queries = inputs
        ShardedSubdomainIndex(dataset, queries, shards=2, mode="relevant").save(
            tmp_path / "idx"
        )
        shard_file = tmp_path / "idx" / "shard-0001" / "normals.npy"
        shard_file.write_bytes(shard_file.read_bytes()[:40])
        with pytest.raises(IndexCorruptionError, match="corrupt or truncated"):
            ShardedSubdomainIndex.load(tmp_path / "idx", dataset, queries)


class TestMonolithicLoadErrors:
    """Damaged index directories surface as typed ReproErrors (never KeyError)."""

    def save_one(self, tmp_path, inputs):
        dataset, queries = inputs
        index = SubdomainIndex(dataset, queries, mode="relevant")
        path = tmp_path / "index"
        index.save(path)
        return path

    def test_truncated_file(self, tmp_path, inputs):
        path = self.save_one(tmp_path, inputs) / "normals.npy"
        path.write_bytes(path.read_bytes()[:64])
        with pytest.raises(IndexCorruptionError, match="corrupt or truncated"):
            SubdomainIndex.load(path.parent, *inputs)

    def test_garbage_bytes(self, tmp_path, inputs):
        path = self.save_one(tmp_path, inputs) / "signatures.npy"
        path.write_bytes(b"this was never an npy payload")
        with pytest.raises(IndexCorruptionError):
            SubdomainIndex.load(path.parent, *inputs)

    def test_missing_field(self, tmp_path, inputs):
        path = self.save_one(tmp_path, inputs)
        manifest = json.loads((path / "manifest.json").read_text())
        del manifest["arrays"]["pairs"]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(IndexCorruptionError, match="missing required field"):
            SubdomainIndex.load(path, *inputs)

    def test_schema_mismatch_is_validation_not_corruption(self, tmp_path, inputs):
        path = tmp_path / "wrong-schema"
        path.mkdir()
        (path / "manifest.json").write_text(json.dumps({"schema": "some-other-format/1"}))
        with pytest.raises(ValidationError, match="unsupported mmap index schema"):
            SubdomainIndex.load(path, *inputs)

    def test_missing_path(self, tmp_path, inputs):
        with pytest.raises(ValidationError, match="no saved index"):
            SubdomainIndex.load(tmp_path / "absent", *inputs)


class TestPlanAndEngine:
    def test_plan_reports_the_shard_layout(self, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        plan = build_plan(
            sharded,
            get_solver("efficient"),
            "min_cost",
            0,
            2,
            euclidean_cost(dataset.dim),
            StrategySpace.unconstrained(dataset.dim),
        )
        assert plan.shards == 3
        assert plan.routing == "grid"
        assert sum(plan.shard_sizes) == queries.m
        payload = plan.to_dict()
        assert payload["shards"] == 3
        assert payload["shard_sizes"] == list(sharded.shard_sizes)

    def test_monolithic_plan_is_unchanged(self, inputs):
        dataset, queries = inputs
        mono = SubdomainIndex(dataset, queries, mode="relevant")
        plan = build_plan(
            mono,
            get_solver("efficient"),
            "min_cost",
            0,
            2,
            euclidean_cost(dataset.dim),
            StrategySpace.unconstrained(dataset.dim),
        )
        assert plan.shards == 1
        assert plan.routing == "none"
        assert plan.shard_sizes == (queries.m,)

    def test_engine_builds_and_answers_through_shards(self, inputs):
        dataset, queries = inputs
        sharded_engine = ImprovementQueryEngine(
            dataset, queries, mode="relevant", shards=3
        )
        mono_engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
        assert sharded_engine.index.shards == 3
        target = 1
        a = sharded_engine.min_cost(target=target, tau=3)
        b = mono_engine.min_cost(target=target, tau=3)
        assert a.hits_after == b.hits_after
        assert a.total_cost == pytest.approx(b.total_cost)
        assert np.array_equal(a.strategy.vector, b.strategy.vector)


class TestHotArrays:
    def test_groups_cover_global_and_every_shard(self, inputs):
        dataset, queries = inputs
        sharded = ShardedSubdomainIndex(dataset, queries, shards=3, mode="relevant")
        entries = sharded.hot_arrays()
        groups = {group for _, group, _, _ in entries}
        assert "global" in groups
        assert {f"shard:{s}" for s in range(3)} <= groups
        keys = [key for key, _, _, _ in entries]
        assert len(keys) == len(set(keys))  # keys are unique across groups

    def test_monolith_exposes_only_the_global_group(self, inputs):
        mono = SubdomainIndex(*inputs, mode="relevant")
        assert {group for _, group, _, _ in mono.hot_arrays()} == {"global"}
