import contextlib
import copy
import functools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.check import check_index_invariants
from repro.check.oracles import check_prefixes, check_relevant_closure
from repro.core import updates
from repro.core.engine import ImprovementQueryEngine
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import (
    SubdomainIndex,
    _padded,
    _scores,
    contender_rows,
    hyperplanes,
    relevant_pairs,
)
from repro.errors import ValidationError
from tests.parallel.test_persistence import assert_same_files

UPDATED = Path(__file__).parents[1] / "fixtures" / "updated_index"


def build(rng, n=10, m=20, d=2):
    dataset = Dataset(rng.random((n, d)))
    queries = QuerySet(rng.random((m, d)), ks=rng.integers(1, 4, m))
    return SubdomainIndex(dataset, queries)


def rebuilt(index):
    """A from-scratch index over the same data, the ground truth."""
    return SubdomainIndex(index.dataset, index.queries, mode=index.mode, margin=index.margin)


def assert_equivalent(index, reference):
    """Same partition (as sets of query-id groups) and same hit counts."""
    assert cells(index) == cells(reference)
    for target in range(index.dataset.n):
        assert index.hits(target) == reference.hits(target)


def cells(index):
    """The partition as sorted tuples of query ids."""
    return sorted(tuple(members.tolist()) for members in index.cell_members())


def separation(index, object_id):
    """How ``object_id``'s hyperplanes separate the populated cells.

    ``"boundary"``: one of its columns is a registered boundary of some
    cell; ``"joint"``: no single column is, but dropping all of them
    makes two cells collide; ``"none"``: they separate no two cells.
    Read from the explicit §4.3 registry of a separate probe index.
    """
    dropped = [col for col, pair in enumerate(index.pairs) if object_id in pair]
    probe = rebuilt(index)
    probe.ensure_boundaries()
    if any(
        probe.is_boundary(sid, col) for sid in range(probe.num_subdomains) for col in dropped
    ):
        return "boundary"
    keep = [col for col in range(probe.num_hyperplanes) if col not in dropped]
    reduced = {row.tobytes() for row in probe.signatures[:, keep]}
    return "joint" if len(reduced) < probe.num_subdomains else "none"


class TestAddQuery:
    def test_add_matches_rebuild(self, rng):
        index = build(rng)
        for __ in range(5):
            qid = updates.add_query(index, rng.random(2), int(rng.integers(1, 4)))
            assert qid == index.queries.m - 1
        index.validate()
        assert_equivalent(index, rebuilt(index))

    def test_add_into_existing_subdomain(self, rng):
        index = build(rng)
        # Insert a point nearly identical to an existing one: it must
        # land in the same subdomain.
        existing, __ = index.queries.query(3)
        before = index.num_subdomains
        updates.add_query(index, existing + 1e-9, 2)
        assert index.num_subdomains == before
        assert index.subdomain_of[-1] == index.subdomain_of[3]

    def test_add_creates_new_subdomain_when_needed(self, rng):
        dataset = Dataset(rng.random((6, 2)))
        queries = QuerySet(np.full((2, 2), 0.5), ks=1)  # one tight cluster
        index = SubdomainIndex(dataset, queries)
        before = index.num_subdomains
        # Far-away corner point very likely lands in a new cell.
        updates.add_query(index, np.array([0.999, 0.001]), 1)
        index.validate()
        assert index.num_subdomains >= before


class TestRemoveQuery:
    def test_remove_matches_rebuild(self, rng):
        index = build(rng)
        for qid in (15, 7, 0):
            updates.remove_query(index, qid)
            index.validate()
        assert_equivalent(index, rebuilt(index))

    def test_remove_last_member_drops_subdomain(self, rng):
        index = build(rng, m=5)
        # Remove queries until one subdomain disappears.
        while index.queries.m > 0:
            sizes_before = index.num_subdomains
            updates.remove_query(index, 0)
            index.validate()
            assert index.num_subdomains <= sizes_before
        assert index.num_subdomains == 0

    def test_roundtrip_add_remove(self, rng):
        index = build(rng)
        reference = rebuilt(index)
        qid = updates.add_query(index, rng.random(2), 2)
        updates.remove_query(index, qid)
        index.validate()
        assert_equivalent(index, reference)


class TestAddObject:
    def test_add_matches_rebuild(self, rng):
        index = build(rng)
        updates.add_object(index, rng.random(2))
        index.validate()
        assert index.dataset.n == 11
        assert_equivalent(index, rebuilt(index))

    def test_copy_of_an_existing_object_adds_no_degenerate_column(self, rng):
        # Exact mode pairs the newcomer with every object; the pair with
        # its twin has a zero normal and must be dropped, exactly as a
        # fresh build drops it.
        index = build(rng)
        object_id = updates.add_object(index, index.dataset.points[3].copy())
        check_index_invariants(index)
        assert index.num_hyperplanes == 11 * 10 // 2 - 1
        assert [3, object_id] not in index.pairs.tolist()
        # The newcomer's columns come last; put them in build order.
        fresh = rebuilt(index)
        order = np.lexsort((index.pairs[:, 1], index.pairs[:, 0]))
        assert np.array_equal(index.pairs[order], fresh.pairs)
        assert np.array_equal(index.normals[order], fresh.normals)
        ours = sorted(
            (row.tobytes(), members.tolist())
            for row, members in zip(index.signatures[:, order], index.cell_members())
        )
        theirs = sorted(
            (row.tobytes(), members.tolist())
            for row, members in zip(fresh.signatures, fresh.cell_members())
        )
        assert ours == theirs

    def test_dominating_object_changes_hits(self, rng):
        index = build(rng)
        old_hits = [index.hits(t) for t in range(index.dataset.n)]
        # An object at the origin scores 0 everywhere: it enters every
        # top-k and can only push others out.
        oid = updates.add_object(index, np.zeros(2))
        assert index.hits(oid) == index.queries.m
        new_hits = [index.hits(t) for t in range(index.dataset.n - 1)]
        assert all(n <= o for n, o in zip(new_hits, old_hits))


class TestRemoveObject:
    def test_remove_matches_rebuild(self, rng):
        index = build(rng)
        updates.remove_object(index, 4)
        index.validate()
        assert index.dataset.n == 9
        assert_equivalent(index, rebuilt(index))

    def test_remove_merges_subdomains(self, rng):
        # Removing an object drops its hyperplanes; cells separated only
        # by them must merge (num_subdomains can only shrink or stay).
        index = build(rng, n=6, m=30)
        before = index.num_subdomains
        updates.remove_object(index, 2)
        index.validate()
        assert index.num_subdomains <= before

    # In the weight quadrant w = (cos t, sin t): object 2's hyperplanes
    # with objects 0 and 1 cross it at t = 45 and t = 26.6 degrees; the
    # pair (0, 1) and every pair with the dominated object 3 never do.
    SEPARATION_OBJECTS = [[0.2, 0.6], [0.3, 0.7], [0.5, 0.3], [0.9, 0.95]]

    @pytest.mark.parametrize(
        "case, degrees, removed",
        [
            ("boundary", (10, 12, 35, 38, 70, 75), 2),
            ("joint", (10, 12, 60, 70), 2),
            ("none", (10, 12, 35, 38, 70, 75), 3),
        ],
    )
    def test_remove_matches_rebuild_by_separation(self, case, degrees, removed):
        angles = np.radians(degrees)
        weights = np.column_stack([np.cos(angles), np.sin(angles)])
        queries = QuerySet(weights, ks=np.arange(len(degrees)) % 2 + 1)
        index = SubdomainIndex(Dataset(np.asarray(self.SEPARATION_OBJECTS)), queries)
        assert separation(index, removed) == case
        before = index.num_subdomains
        updates.remove_object(index, removed)
        index.validate()
        if case == "none":
            assert index.num_subdomains == before
        else:
            assert index.num_subdomains < before
        assert_equivalent(index, rebuilt(index))

    def test_remove_invalid_id(self, rng):
        index = build(rng)
        with pytest.raises(ValidationError):
            updates.remove_object(index, 99)

    def test_object_roundtrip(self, rng):
        index = build(rng)
        reference = rebuilt(index)
        oid = updates.add_object(index, rng.random(2))
        updates.remove_object(index, oid)
        index.validate()
        assert_equivalent(index, reference)


class TestEvaluatorInvalidation:
    """Every mutation moves the epoch, so cached thresholds are re-read."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda idx, rng: updates.add_query(idx, rng.random(2), 2),
            lambda idx, rng: updates.remove_query(idx, 0),
            lambda idx, rng: updates.add_object(idx, rng.random(2)),
            lambda idx, rng: updates.remove_object(idx, 0),
        ],
        ids=["add_query", "remove_query", "add_object", "remove_object"],
    )
    def test_every_mutation_invalidates(self, rng, mutate):
        from repro.core.ese import StrategyEvaluator

        index = build(rng)
        evaluator = StrategyEvaluator(index)
        evaluator.thresholds(1)  # populate the cache
        evaluator.thresholds(2)
        mutate(index, rng)
        kth_ids, theta = evaluator.thresholds(1)
        fresh_ids, fresh_theta = StrategyEvaluator(index).thresholds(1)
        assert np.array_equal(kth_ids, fresh_ids)
        assert np.array_equal(theta, fresh_theta)
        assert list(evaluator._target_cache) == [1]  # target 2's entry is gone

    def test_stale_cache_would_be_wrong(self, rng):
        # The behavioral reason for the epoch check: after adding an
        # object the cached thresholds are wrong, so hits computed from a
        # pinned stale cache must be allowed to differ from a fresh
        # evaluator.
        from repro.core.ese import StrategyEvaluator

        index = build(rng, n=8, m=25)
        evaluator = StrategyEvaluator(index)
        before = {t: evaluator.hits(t) for t in range(4)}
        updates.add_object(index, np.zeros(2))  # dominates: enters every top-k
        fresh = StrategyEvaluator(rebuilt(index))
        after = {t: evaluator.hits(t) for t in range(4)}
        assert after == {t: fresh.hits(t) for t in range(4)}
        assert before != after  # the dominating object displaced someone


class TestInterleaved:
    def test_mixed_update_sequence(self, rng):
        index = build(rng)
        updates.add_query(index, rng.random(2), 3)
        updates.add_object(index, rng.random(2))
        updates.remove_query(index, 5)
        updates.remove_object(index, 1)
        updates.add_query(index, rng.random(2), 1)
        index.validate()
        assert_equivalent(index, rebuilt(index))


class TestNoBoundaryRegistration:
    """The §4.3 update path decides by exact tests, never by the registry."""

    def test_mixed_updates_never_register_boundaries(self, rng, monkeypatch):
        calls = []
        register = SubdomainIndex.ensure_boundaries

        def counted(index):
            calls.append(index)
            register(index)

        monkeypatch.setattr(SubdomainIndex, "ensure_boundaries", counted)
        dataset = Dataset(rng.random((12, 2)))
        queries = QuerySet(rng.random((40, 2)), ks=rng.integers(1, 4, 40))
        index = SubdomainIndex(dataset, queries)
        for __ in range(2):
            updates.add_query(index, rng.random(2), int(rng.integers(1, 4)))
            updates.remove_object(index, int(rng.integers(index.dataset.n)))
            updates.add_object(index, rng.random(2))
            updates.remove_query(index, int(rng.integers(index.queries.m)))
        assert calls == []
        index.validate()
        reference = SubdomainIndex(index.dataset, index.queries)
        assert cells(index) == cells(reference)
        for target in range(index.dataset.n):
            assert index.hits(target) == reference.hits(target)


def recomputed_closure(index):
    """Close the arrangement by the full rule: ``relevant_pairs`` on the
    current data, appending every pair the arrangement misses in
    ``(a, b)`` order."""
    n = index.dataset.n
    wanted = relevant_pairs(index.dataset, index.queries, index.margin)
    held = index.pairs[:, 0] * n + index.pairs[:, 1]
    missing = wanted[~np.isin(wanted[:, 0] * n + wanted[:, 1], held)]
    new_pairs, new_normals = hyperplanes(index.dataset.matrix, missing)
    if new_pairs.shape[0]:
        updates._append_columns(index, new_pairs, new_normals)


def mixed_sequence(seed, mode, steps=36):
    """A fixed §4.3 update sequence with planted duplicate objects.

    Yields the index after every step.  Duplicates tie for every query,
    so some queries' top-(k + margin) cuts fall between two of them.
    """
    rng = np.random.default_rng(seed)
    points = rng.random((48, 3))
    points[24:32] = points[:8]  # planted duplicates
    queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
    index = SubdomainIndex(Dataset(points), queries, mode=mode)
    yield index
    for __ in range(steps):
        op = int(rng.integers(4))
        if op == 0:
            # A deep query can bring several new contenders at once.
            updates.add_query(index, rng.random(3), int(rng.integers(1, 10)))
        elif op == 1:
            updates.remove_query(index, int(rng.integers(index.queries.m)))
        elif op == 2:
            copy = int(rng.integers(index.dataset.n))
            attributes = index.dataset.points[copy] if rng.random() < 0.4 else rng.random(3)
            updates.add_object(index, attributes)
        elif index.dataset.n > 10:
            updates.remove_object(index, int(rng.integers(index.dataset.n)))
        yield index


def snapshot(index):
    state = {
        "subdomain_of": index.subdomain_of.tolist(),
        "members": [members.tolist() for members in index.cell_members()],
        "representatives": index.representatives.tolist(),
        "pairs": index.pairs.tolist(),
    }
    thresholds = [index.kth_other(t) for t in range(0, index.dataset.n, 3)]
    return state, thresholds


class TestSavedBytes:
    """The update sequence writes the bytes the list-of-cells index wrote.

    The fixture directories were saved after :func:`mixed_sequence`
    (seed 0), with every step followed by :func:`snapshot`, by the index
    that kept each cell as an object.  They pin the cell order, the
    representatives and the prefixes through every kind of update.
    """

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_mixed_sequence_saves_the_fixture_bytes(self, tmp_path, mode):
        for index in mixed_sequence(0, mode):
            snapshot(index)
        index.save(tmp_path / mode)
        assert_same_files(tmp_path / mode, UPDATED / mode)


class TestIncrementalClosure:
    """The kept contender rows close the arrangement exactly as a full
    recomputation of the relevant pairs after every update would."""

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay_matches_the_recomputed_closure(self, monkeypatch, mode, seed):
        incremental = [snapshot(index) for index in mixed_sequence(seed, mode)]
        monkeypatch.setattr(updates, "_close_over_new_contenders", recomputed_closure)
        recomputed = [snapshot(index) for index in mixed_sequence(seed, mode)]
        assert len(incremental) == len(recomputed)
        for (ours, our_kth), (theirs, their_kth) in zip(incremental, recomputed):
            assert ours == theirs
            for (ids, theta), (their_ids, their_theta) in zip(our_kth, their_kth):
                assert np.array_equal(ids, their_ids)
                np.testing.assert_allclose(theta, their_theta, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kept_rows_match_a_recomputation(self, seed):
        for index in mixed_sequence(seed, "relevant"):
            rows, tied, __ = index.contenders()
            fresh, fresh_tied = contender_rows(
                index.dataset.matrix, index.queries.weights, index.queries.ks, index.margin
            )
            assert [set(r) - {-1} for r in rows.tolist()] == [set(r) - {-1} for r in fresh.tolist()]
            assert np.array_equal(tied, fresh_tied)
            check_index_invariants(index)

    @pytest.mark.parametrize("seed", range(4))
    def test_tied_rows_follow_the_deepest_query(self, monkeypatch, seed):
        # A tied row holds argpartition's pick at the block's width, the
        # deepest query's depth: removing or adding that query can change
        # the pick, and the kept rows must follow it.
        def sequence():
            rng = np.random.default_rng(seed)
            base = rng.random((20, 3))
            dataset = Dataset(np.vstack([base, base[::-1]]))  # every object has a twin
            queries = QuerySet(rng.random((30, 3)), ks=np.r_[12, np.ones(29, dtype=int)])
            index = SubdomainIndex(dataset, queries, mode="relevant")
            for step in (
                lambda: updates.remove_query(index, 0),
                lambda: updates.add_query(index, rng.random(3), 12),
                lambda: updates.add_object(index, base[3]),
                lambda: updates.remove_query(index, index.queries.m - 1),
                lambda: updates.remove_object(index, 5),
                lambda: updates.add_query(index, rng.random(3), 1),
            ):
                step()
                check_index_invariants(index)
                yield snapshot(index)

        incremental = list(sequence())
        monkeypatch.setattr(updates, "_close_over_new_contenders", recomputed_closure)
        for (ours, __), (theirs, __) in zip(incremental, sequence()):
            assert ours == theirs

    def test_loaded_index_derives_its_rows_on_the_first_update(self, rng, tmp_path):
        dataset = Dataset(rng.random((30, 3)))
        queries = QuerySet(rng.random((40, 3)), ks=rng.integers(1, 5, 40))
        built = SubdomainIndex(dataset, queries, mode="relevant")
        built.save(tmp_path / "index")
        loaded = SubdomainIndex.load(tmp_path / "index", dataset, queries)
        assert loaded._contenders is None  # not persisted
        for index in (built, loaded):
            updates.add_query(index, np.array([0.9, 0.05, 0.5]), 5)
            updates.add_object(index, np.array([0.01, 0.02, 0.9]))
        assert np.array_equal(loaded.pairs, built.pairs)
        assert np.array_equal(loaded.contenders()[0], built.contenders()[0])

    def test_removing_the_deepest_query_closes_over_the_new_tied_pick(self):
        # At query 1, objects 0, 2 and 4 tie exactly across its cut, so
        # its row is tied.  Removing the deeper query 0 narrows the width
        # and every row is ranked afresh: argpartition then picks object
        # 2, which no row named before and the arrangement never closed
        # over.
        points = [[0.4, 0.4], [0.1, 0], [0, 0.8], [0.7, 0.6], [0.4, 0.4], [0.1, 0]]
        queries = QuerySet(np.array([[0.1, 0.5], [0.4, 0.4]]), ks=[2, 1])
        index = SubdomainIndex(Dataset(np.array(points)), queries, mode="relevant")
        updates.remove_query(index, 0)
        assert index.contenders().tied.tolist() == [True]
        check_relevant_closure(index)

    def test_a_row_kept_from_a_two_row_rank_equals_a_one_row_rank(self):
        # At query 0, objects 1, 2 and 7 tie exactly in real arithmetic,
        # across the cut after object 3.  The build ranks query 0 beside
        # query 1; once query 1 is gone a rebuild ranks it alone.  The
        # kept row and its tied flag equal the rebuild's only if a row's
        # score bits do not depend on how many rows share the product.
        points = [[0.8, 0.2], [0.3, 0.2], [0.1, 1], [0.2, 0.5], [0.3, 0.7], [0.6, 1]]
        points += points[:2]
        queries = QuerySet(np.array([[0.8, 0.2], [1, 0.4]]), ks=[1, 3])
        index = SubdomainIndex(Dataset(np.array(points)), queries, mode="relevant")
        updates.remove_query(index, 1)
        rows, tied, __ = index.contenders()
        fresh, fresh_tied = contender_rows(index.dataset.matrix, index.queries.weights, [1], 2)
        assert sorted(rows[0][rows[0] >= 0]) == sorted(fresh[0]) == [1, 2, 3]
        assert tied.tolist() == fresh_tied.tolist() == [True]
        check_relevant_closure(index)


def ranked_afresh(index):
    """The prefix table a cleared copy of ``index`` ranks on its first read."""
    fresh = copy.copy(index)
    fresh._clear_prefixes()
    return fresh._prefix_rows()


#: Values on a 0.1 grid: sums of tenths round differently at different
#: weights, so scores tie to within the last bits (near ties).  Signed
#: and scaled by 1e5, an object's terms cancel to a score far smaller
#: than they are, where two products differ most in their last bits.
GRID = st.integers(0, 10).map(lambda tenths: tenths / 10)
SIGNED_GRID = st.integers(-10, 10).map(lambda tenths: tenths / 10)


UPDATE_KINDS = ["add_query", "remove_query", "add_object", "copy_object", "remove_object"]


def updates_of(dims):
    """One drawn update: ``(kind, slot, vector, k)``, ``vector`` ``dims`` long."""
    return st.tuples(
        st.sampled_from(UPDATE_KINDS),
        st.integers(0, 1 << 16),
        arrays(np.float64, dims, elements=SIGNED_GRID),
        st.integers(1, 4),
    )


UPDATE = updates_of(3)


def apply_update(index, kind, slot, vector, k, scale=1.0):
    """Apply one drawn update; ``slot`` names an id modulo the current count.

    A query takes ``|vector|`` as its weights, an object ``scale * vector``.
    """
    d = index.dataset.dim
    m, n = index.queries.m, index.dataset.n
    if kind == "add_query":
        updates.add_query(index, np.abs(vector[:d]), k)
    elif kind == "remove_query" and m > 1:
        updates.remove_query(index, slot % m)
    elif kind == "add_object":
        updates.add_object(index, scale * vector[:d])
    elif kind == "copy_object":  # an exact tie with the original at every query
        updates.add_object(index, index.dataset.points[slot % n].copy())
    elif kind == "remove_object" and n > 2:
        updates.remove_object(index, slot % n)


def ranking_scores(matrix, w):
    """``matrix @ w`` as ``SubdomainIndex._rank_cells`` computes it, padded rows included."""
    return (_padded(matrix) @ w).reshape(-1)


def blas_thread_limits():
    """Contexts that each hold the BLAS at one thread count, 1 to the CPU count.

    threadpoolctl sets the count where it is installed; without it the
    one context leaves the BLAS at its own count.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return [contextlib.nullcontext]
    counts = range(1, (os.cpu_count() or 1) + 1)
    return [functools.partial(threadpool_limits, limits=t, user_api="blas") for t in counts]


class TestKeptPrefixes:
    """Object updates keep the prefix table instead of dropping it.

    The kept table must stay, entry for entry, what ranking every cell
    afresh writes: the read after an update ranks only the cells it left
    unranked.
    """

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    @given(
        base=st.integers(2, 3).flatmap(
            lambda d: arrays(
                np.float64, st.tuples(st.integers(3, 8), st.just(d)), elements=SIGNED_GRID
            )
        ),
        scale=st.sampled_from([1.0, 1e5]),
        twins=st.integers(1, 8),
        weights=arrays(np.float64, st.tuples(st.integers(2, 10), st.just(3)), elements=GRID),
        ks=arrays(np.int64, 10, elements=st.integers(1, 4)),
        steps=st.lists(UPDATE, min_size=1, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_the_table_follows_a_fresh_rank(self, mode, base, scale, twins, weights, ks, steps):
        points = scale * np.vstack([base, base[:twins]])  # duplicates: exact ties
        d = points.shape[1]
        queries = QuerySet(weights[:, :d], ks=ks[: weights.shape[0]])
        index = SubdomainIndex(Dataset(points), queries, mode=mode)
        for kind, slot, vector, k in steps:
            index._prefix_rows()  # a read between updates ranks every cell
            apply_update(index, kind, slot, vector, k, scale)
            check_prefixes(index)
            table, lengths = ranked_afresh(index)
            # Every ranked row agrees with a fresh rank up to its cell's depth.
            for cell in np.flatnonzero(index.prefix_lengths >= 0):
                depth = min(index.prefix_lengths[cell], lengths[cell])
                assert np.array_equal(index.prefixes[cell, :depth], table[cell, :depth])
            if kind.endswith("object"):
                ours, our_lengths = index._prefix_rows()
                assert np.array_equal(our_lengths, lengths)
                assert np.array_equal(ours, table)

    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_reads_after_object_updates_rank_only_unranked_cells(self, rng, mode):
        dataset = Dataset(rng.random((40, 3)))
        queries = QuerySet(rng.random((60, 3)), ks=rng.integers(1, 5, 60))
        index = SubdomainIndex(dataset, queries, mode=mode)
        ranked = []
        for step in range(8):
            index._prefix_rows()
            if step % 2:
                updates.remove_object(index, int(rng.integers(index.dataset.n)))
            else:
                updates.add_object(index, rng.random(3))
            unranked = int((index.prefix_lengths < index._cell_depths()).sum())
            before = index.representative_evaluations
            table, lengths = index._prefix_rows()
            assert index.representative_evaluations == before + unranked
            fresh, fresh_lengths = ranked_afresh(index)
            assert np.array_equal(lengths, fresh_lengths) and np.array_equal(table, fresh)
            ranked.append(unranked)
        # A newcomer near the front at every cell enters every row, but
        # most updates leave most rows ranked.
        assert np.median(ranked) < index.num_subdomains / 2

    def test_a_newcomer_whose_terms_cancel_is_judged_by_their_size(self):
        # At w the row is [0, 1].  OpenBLAS's Haswell gemv, which ranks,
        # scores object 1 at -4.0e-12 and the newcomer at -4.4e-12, so the
        # newcomer takes slot 1; the newcomer's own product reads -7.3e-12
        # and 0.0, a gap far above EPS_TIE * max(1, |score|) but far below
        # EPS_TIE times the size of the terms, about 2.7e-7.
        points = np.array([[-1e5, -1e5, -1e5], [-6e4, -3e4, 9e4], [1e5, 1e5, 1e5]])
        queries = QuerySet(np.array([[0.8, 0.5, 0.7]]), ks=1)
        index = SubdomainIndex(Dataset(points), queries, mode="exact")
        index._prefix_rows()
        updates.add_object(index, np.array([-5e4, -6e4, 1e5]))
        check_prefixes(index)
        assert np.array_equal(index._prefix_rows()[0], ranked_afresh(index)[0])

    def test_removing_an_object_that_owns_no_column_skips_the_merge(self, rng, monkeypatch):
        # A relevant-mode object outside every contender row owns no
        # hyperplane, so no two signatures can collide once it is gone.
        dataset = Dataset(rng.random((40, 3)))
        queries = QuerySet(rng.random((30, 3)), ks=1)
        index = SubdomainIndex(dataset, queries, mode="relevant")
        loner = int(np.setdiff1d(np.arange(40), index.pairs)[0])
        merges = []
        monkeypatch.setattr(updates, "_merge_cells", lambda *args: merges.append(args))
        signatures, pairs = index.signatures, index.pairs
        updates.remove_object(index, loner)
        assert merges == []
        assert index.signatures is signatures
        assert np.array_equal(index.pairs, pairs - (pairs > loner))
        check_index_invariants(index)

    def test_a_ranked_product_gives_each_object_the_same_bits_at_any_row_and_height(self):
        # A kept row stays what a fresh rank writes only if the BLAS scores
        # each object alike whatever its row and the matrix height: after
        # add_object appends a row, and after remove_object deletes one
        # and every row below it moves up.  A contender row ranked alone
        # also needs the bits it has beside other weights rows.
        # _rank_cells and contender_rows score the padded matrix in
        # blocks; unpadded, OpenBLAS's Haswell gemv breaks this
        # from 8 columns up, in the last rows, and in one gemv past 460,000
        # entries at 3 threads, in each thread's last rows.  The shapes
        # span the sizes the index ranks, each matrix freshly allocated as
        # Dataset.matrix is, and the last 20 reach past 460,000 entries.
        rng = np.random.default_rng(1)
        for limit in blas_thread_limits():
            with limit():
                for n, matrix, w in self.shapes_to_pin():
                    full = ranking_scores(matrix, w)
                    appended = ranking_scores(matrix[:n].copy(), w)
                    deleted = ranking_scores(matrix[1:].copy(), w)
                    bits = full.view(np.int64)
                    assert np.array_equal(appended.view(np.int64)[:n], bits[:n]), matrix.shape
                    assert np.array_equal(deleted.view(np.int64)[:n], bits[1 : n + 1]), matrix.shape
                    # Batched as the contender rows and the prefix table
                    # score them, a weights row keeps those bits alone,
                    # in a subset of the rows and beside all of them.
                    rows = np.vstack((w, rng.random((5, w.shape[0]))))
                    padded = _padded(matrix)
                    for chosen in ([0], [0, 2, 5], slice(None)):
                        scores = _scores(padded, rows[chosen], n + 1)
                        assert np.array_equal(scores[0].view(np.int64), bits[: n + 1]), matrix.shape

    @staticmethod
    def shapes_to_pin():
        """``(n, matrix, w)``: 300 shapes below 3,000 x 33, then 20 past 460,000 entries."""
        rng = np.random.default_rng(0)
        for case in range(320):
            if case < 300:
                n, d = int(rng.integers(1, 3000)), int(rng.integers(1, 33))
            else:
                d = int(rng.integers(8, 41))
                n = int(rng.integers(470_000, 1_000_000)) // d
            matrix = rng.normal(size=(n + 1, d)) * 10.0 ** rng.integers(-3, 4, (n + 1, 1))
            yield n, matrix, rng.random((4, d))[int(rng.integers(4))]  # a weights row


class TestKeptContenders:
    """Relevant-mode updates edit the contender rows one row at a time.

    Each kept row must name the objects, and carry the ``tied`` flag, of
    a fresh :func:`contender_rows` row; ``add_object`` ranks only the
    rows the newcomer may enter, ``remove_object`` only the rows that
    held the object.
    """

    @given(
        base=st.integers(2, 16).flatmap(
            lambda d: arrays(
                np.float64, st.tuples(st.integers(3, 8), st.just(d)), elements=SIGNED_GRID
            )
        ),
        scale=st.sampled_from([1.0, 1e5]),
        twins=st.integers(1, 8),
        weights=arrays(np.float64, st.tuples(st.integers(1, 10), st.just(16)), elements=GRID),
        ks=arrays(np.int64, 10, elements=st.integers(1, 4)),
        steps=st.lists(updates_of(16), min_size=1, max_size=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_kept_rows_follow_a_recomputation(self, base, scale, twins, weights, ks, steps):
        points = scale * np.vstack([base, base[:twins]])  # duplicates: exact ties
        d = points.shape[1]
        queries = QuerySet(weights[:, :d], ks=ks[: weights.shape[0]])
        index = SubdomainIndex(Dataset(points), queries, mode="relevant")
        for kind, slot, vector, k in steps:
            apply_update(index, kind, slot, vector, k, scale)
            rows, tied, __ = index.contenders()
            fresh, fresh_tied = contender_rows(
                index.dataset.matrix, index.queries.weights, index.queries.ks, index.margin
            )
            assert [set(r) - {-1} for r in rows.tolist()] == [set(r) - {-1} for r in fresh.tolist()]
            assert np.array_equal(tied, fresh_tied)
            # Not check_index_invariants: at 1e5 a query exactly on a
            # hyperplane takes its side from the last bits of one product.
            check_relevant_closure(index)

    @staticmethod
    def ranked_rows(monkeypatch):
        """The number of rows each contender rank of an update ranks."""
        ranked = []
        rank = updates.contender_rows

        def counted(matrix, weights, ks, margin):
            ranked.append(weights.shape[0])
            return rank(matrix, weights, ks, margin)

        monkeypatch.setattr(updates, "contender_rows", counted)
        return ranked

    def test_object_updates_rank_only_the_rows_they_change(self, rng, monkeypatch):
        dataset = Dataset(rng.random((60, 3)))
        queries = QuerySet(rng.random((80, 3)), ks=rng.integers(1, 5, 80))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        ranked = self.ranked_rows(monkeypatch)
        # Scores past every row's last entry at every query: it enters no row.
        updates.add_object(index, np.ones(3))
        assert ranked == []
        # Scores 0 everywhere: first in every row, each of which is ranked.
        updates.add_object(index, np.zeros(3))
        assert ranked == [80]
        outsider = int(np.flatnonzero(~index.contenders().closed)[0])
        updates.remove_object(index, outsider)
        assert ranked == [80]
        updates.remove_object(index, index.dataset.n - 1)  # the object at 0 again
        assert ranked == [80, 80]
        check_index_invariants(index)


class TestTypedArguments:
    """A bad ``k`` or id raises ValidationError before anything changes."""

    @staticmethod
    def data(rng):
        return Dataset(rng.random((10, 2))), QuerySet(rng.random((20, 2)), ks=2)

    @pytest.mark.parametrize("k", [2.5, np.inf, np.nan])
    def test_add_query_refuses_non_whole_k(self, rng, k):
        index = SubdomainIndex(*self.data(rng), mode="relevant")
        epoch, pairs = index.epoch, index.pairs.copy()
        with pytest.raises(ValidationError, match="whole number"):
            updates.add_query(index, rng.random(2), k)
        assert index.epoch == epoch and index.queries.m == 20
        assert np.array_equal(index.pairs, pairs)
        index.validate()

    @pytest.mark.parametrize("k", [2.5, np.inf])
    def test_engine_add_query_refuses_non_whole_k(self, rng, k):
        engine = ImprovementQueryEngine(*self.data(rng))
        with pytest.raises(ValidationError, match="whole number"):
            engine.add_query(rng.random(2), k)
        assert engine.queries.m == 20 and engine.epoch == 0
        query_id = engine.add_query(rng.random(2), 3.0)
        assert engine.queries.ks[query_id] == 3

    def test_fractional_ids_refused(self, rng):
        engine = ImprovementQueryEngine(*self.data(rng))
        for call in (
            lambda: updates.remove_query(engine.index, 1.5),
            lambda: engine.remove_query(1.5),
            lambda: engine.remove_object(1.5),
        ):
            with pytest.raises(ValidationError, match="must be an integer"):
                call()
        assert engine.epoch == 0
        assert (engine.queries.m, engine.dataset.n) == (20, 10)
        engine.index.validate()
