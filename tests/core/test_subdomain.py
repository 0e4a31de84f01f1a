import numpy as np
import pytest

from repro.check.oracles import check_prefixes
from repro.core import updates
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import (
    _TIE_TOL,
    SubdomainIndex,
    _beats_batch,
    find_subdomains,
    relevant_pairs,
)
from repro.errors import ValidationError
from repro.geometry.arrangement import signature_matrix, unique_signatures
from repro.topk.evaluate import kth_score, top_k
from tests.core.test_updates import ranked_afresh


def build(rng, n=15, m=25, d=3, k_max=4, mode="exact"):
    dataset = Dataset(rng.random((n, d)))
    queries = QuerySet(rng.random((m, d)), ks=rng.integers(1, k_max + 1, m))
    return dataset, queries, SubdomainIndex(dataset, queries, mode=mode)


class TestConstruction:
    def test_partition_covers_all_queries(self, rng):
        __, queries, index = build(rng)
        index.validate()
        total = sum(members.size for members in index.cell_members())
        assert total == queries.m

    def test_exact_mode_hyperplane_count(self, rng):
        dataset, __, index = build(rng, n=8)
        assert index.num_hyperplanes == 8 * 7 // 2

    def test_dim_mismatch_raises(self, rng):
        with pytest.raises(ValidationError):
            SubdomainIndex(Dataset(rng.random((3, 2))), QuerySet(rng.random((3, 3)), ks=1))

    def test_invalid_mode(self, rng):
        with pytest.raises(ValidationError):
            SubdomainIndex(Dataset(rng.random((3, 2))), QuerySet(rng.random((3, 2)), ks=1), mode="bogus")

    def test_construction_takes_no_workers_argument(self, rng):
        dataset = Dataset(rng.random((5, 2)))
        queries = QuerySet(rng.random((5, 2)), ks=1)
        with pytest.raises(TypeError):
            SubdomainIndex(dataset, queries, workers=2)

    def test_duplicate_objects_drop_every_degenerate_pair(self, rng):
        # Pairs keep the row order (0, 1), (0, 2), ..., (1, 2), ... and
        # lose exactly the pairs of identical objects.
        objects = rng.random((12, 3))
        objects[5] = objects[2]
        objects[9] = objects[2]
        dataset = Dataset(objects)
        index = SubdomainIndex(dataset, QuerySet(rng.random((8, 3)), ks=2))
        matrix = dataset.matrix
        expected = [
            (a, b)
            for a in range(12)
            for b in range(a + 1, 12)
            if not np.array_equal(matrix[a], matrix[b])
        ]
        assert len(expected) == 12 * 11 // 2 - 3
        assert index.pairs.dtype == np.intp
        assert [tuple(pair) for pair in index.pairs.tolist()] == expected
        assert np.array_equal(
            index.normals, matrix[index.pairs[:, 0]] - matrix[index.pairs[:, 1]]
        )

    def test_duplicate_objects_skip_degenerate_hyperplanes(self, rng):
        raw = rng.random((5, 2))
        raw[3] = raw[1]  # duplicate
        dataset = Dataset(raw)
        queries = QuerySet(rng.random((5, 2)), ks=1)
        index = SubdomainIndex(dataset, queries)
        assert index.num_hyperplanes == 5 * 4 // 2 - 1


class TestAgainstLiteralAlgorithm1:
    def test_fast_path_matches_bsp(self, rng):
        for __ in range(5):
            dataset, queries, index = build(rng, n=8, m=30, d=2)
            literal = find_subdomains(index.normals, queries.weights)
            fast = {
                row.tobytes(): members.tolist()
                for row, members in zip(index.signatures, index.cell_members())
            }
            literal = {key: sorted(val) for key, val in literal.items()}
            assert fast == literal

    def test_bsp_discards_empty_cells(self, rng):
        normals = rng.normal(size=(4, 2))
        points = rng.random((10, 2))
        cells = find_subdomains(normals, points)
        assert sum(len(v) for v in cells.values()) == 10
        assert all(v for v in cells.values())


class TestPartitionMethodSwitch:
    """Algorithm 1's BSP loop against the grouping the index builds with."""

    def test_methods_agree(self, rng):
        normals = rng.normal(size=(6, 3))
        points = rng.random((40, 3))
        cells, first, group = unique_signatures(signature_matrix(points, normals))
        grouped = {
            cell.tobytes(): np.flatnonzero(group == g).tolist() for g, cell in enumerate(cells)
        }
        assert find_subdomains(normals, points) == grouped
        assert first.tolist() == [members[0] for members in grouped.values()]


class TestRankingInvariance:
    """The index's core claim: rankings are constant within a subdomain."""

    def test_same_subdomain_same_ranking(self, rng):
        dataset, queries, index = build(rng, n=12, m=40, d=2)
        for members in index.cell_members():
            if members.size < 2:
                continue
            rankings = set()
            for qid in members:
                weights, __ = queries.query(int(qid))
                rankings.add(tuple(top_k(dataset.matrix, weights, dataset.n)))
            assert len(rankings) == 1, "subdomain members must share the full ranking"

    def test_prefix_matches_direct_topk(self, rng):
        dataset, queries, index = build(rng, n=10, m=30)
        for sid, representative in enumerate(index.representatives.tolist()):
            prefix = index.prefix(sid)
            weights, __ = queries.query(representative)
            expected = top_k(dataset.matrix, weights, len(prefix))
            assert prefix.tolist() == expected

    def test_prefix_lazy_and_counted(self, rng):
        __, __, index = build(rng, n=8, m=20)
        assert index.representative_evaluations == 0
        index.prefix(0)
        index.prefix(0)  # cached
        assert index.representative_evaluations == 1


class TestPrefixTies:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_duplicates_straddling_the_cut_rank_by_id(self, rng, mode):
        base = rng.random((6, 3))
        dataset = Dataset(np.vstack([base, base]))  # objects i and i + 6 always tie
        # Even ks give odd prefix depths, so every cut falls between twins.
        queries = QuerySet(rng.random((40, 3)), ks=rng.choice([2, 4], 40))
        index = SubdomainIndex(dataset, queries, mode=mode)
        table, lengths = index._prefix_rows()
        for representative, row, length in zip(index.representatives, table, lengths):
            weights, __ = queries.query(int(representative))
            scores = dataset.matrix @ weights
            expected = np.argsort(scores, kind="stable")[:length]
            assert scores[expected[-1]] == np.sort(scores)[length]  # a tied cut
            assert row[:length].tolist() == expected.tolist()
            assert (row[length:] == -1).all()
        check_prefixes(index)
        table, lengths = table.copy(), lengths.copy()
        index._clear_prefixes()
        for sid in range(index.num_subdomains):  # the one-cell path agrees
            assert index.prefix(sid).tolist() == table[sid, : lengths[sid]].tolist()


def recount_kth(index, target):
    """Eq. 6 thresholds per query by a stable argsort of D minus the target."""
    matrix = index.dataset.matrix
    kth_ids = np.full(index.queries.m, -1, dtype=np.intp)
    theta = np.full(index.queries.m, np.inf)
    for j in range(index.queries.m):
        weights, k = index.queries.query(j)
        scores = matrix @ weights
        order = np.argsort(scores, kind="stable")
        others = order[order != target]
        if k <= others.shape[0]:
            kth_ids[j] = others[k - 1]
            theta[j] = scores[others[k - 1]]
    return kth_ids, theta


def prefix_positions(index, target):
    """Where ``target`` sits in the cells' prefixes: inside, at the end, outside."""
    found = set()
    for sid in range(index.num_subdomains):
        prefix = index.prefix(sid).tolist()
        if target not in prefix:
            found.add("outside")
        elif prefix.index(target) == len(prefix) - 1:
            found.add("end")
        else:
            found.add("inside")
    return found


class TestKthOther:
    @pytest.mark.parametrize("variant", ["exact", "relevant", "mmap"])
    def test_matches_recount_through_every_update_kind(self, rng, tmp_path, variant):
        dataset = Dataset(rng.random((30, 3)))
        queries = QuerySet(rng.random((60, 3)), ks=rng.integers(1, 5, 60))
        index = SubdomainIndex(
            dataset, queries, mode="relevant" if variant == "relevant" else "exact"
        )
        if variant == "mmap":
            index.save(tmp_path / "index")
            index = SubdomainIndex.load(tmp_path / "index", dataset, queries)

        def lone_query(idx):
            # Removing the only member of a cell renumbers the cells.
            return min(int(m[0]) for m in idx.cell_members() if m.size == 1)

        steps = [
            lambda idx: None,
            lambda idx: updates.add_query(idx, rng.random(3), 4),
            lambda idx: updates.remove_query(idx, lone_query(idx)),
            lambda idx: updates.add_object(idx, np.zeros(3)),  # tops every query
            lambda idx: updates.remove_object(idx, int(idx.prefix(0)[1])),
        ]
        for step in steps:
            step(index)  # the same object throughout: a stale table shows
            positions = set()
            for target in range(index.dataset.n):
                kth_ids, theta = index.kth_other(target)
                expected_ids, expected_theta = recount_kth(index, target)
                assert np.array_equal(kth_ids, expected_ids)
                np.testing.assert_allclose(theta, expected_theta, rtol=1e-12)
                positions |= prefix_positions(index, target)
            assert positions == {"inside", "end", "outside"}

    def test_prefix_table_reused_until_the_epoch_moves(self, rng):
        __, __, index = build(rng)
        index.kth_other(0)
        ranked = index.representative_evaluations
        assert ranked == index.num_subdomains  # one batch ranks every cell once
        table, __ = index._prefix_rows()
        index.kth_other(1)
        assert index.representative_evaluations == ranked
        assert index._prefix_rows()[0] is table  # same epoch: the table is reused
        updates.add_object(index, rng.random(3))
        unranked = int((index.prefix_lengths < index._cell_depths()).sum())
        assert unranked < index.num_subdomains  # the update kept the table
        index.kth_other(1)
        # The read ranks only the cells the update left unranked, and the
        # table is what ranking every cell afresh writes.
        assert index.representative_evaluations == ranked + unranked
        for ours, theirs in zip(index._prefix_rows(), ranked_afresh(index)):
            assert np.array_equal(ours, theirs)

    def test_query_update_ranks_only_cells_that_need_it(self, rng):
        __, __, index = build(rng)
        index.kth_other(0)
        ranked = index.representative_evaluations
        cells = index.num_subdomains
        updates.add_query(index, rng.random(3), 1)
        index.kth_other(0)
        # Cached prefixes are deep enough for k = 1: only a new cell is ranked.
        assert index.representative_evaluations == ranked + index.num_subdomains - cells

    def test_matches_brute_force(self, rng):
        dataset, queries, index = build(rng, n=12, m=30)
        for target in (0, 5, 11):
            kth_ids, theta = index.kth_other(target)
            for j in range(queries.m):
                weights, k = queries.query(j)
                expected_score, expected_id = kth_score(
                    dataset.matrix, weights, k, exclude=target
                )
                assert kth_ids[j] == expected_id
                assert theta[j] == pytest.approx(expected_score)

    def test_hits_matches_brute_force(self, rng):
        dataset, queries, index = build(rng, n=12, m=30)
        for target in range(dataset.n):
            expected = 0
            for j in range(queries.m):
                weights, k = queries.query(j)
                if target in top_k(dataset.matrix, weights, k):
                    expected += 1
            assert index.hits(target) == expected

    def test_small_dataset_always_hit(self, rng):
        # With n=2 and k=5 > n-1, any object is in every top-5.
        dataset = Dataset(rng.random((2, 2)))
        queries = QuerySet(rng.random((6, 2)), ks=5)
        index = SubdomainIndex(dataset, queries)
        assert index.hits(0) == 6
        assert index.hits(1) == 6


class TestRelevantMode:
    def test_relevant_pairs_subset_of_all(self, rng):
        dataset, queries, __ = build(rng, n=20, m=15)
        pairs = relevant_pairs(dataset, queries)
        assert len(pairs) <= 20 * 19 // 2
        assert all(a < b for a, b in pairs)

    def test_relevant_mode_literal_matches_vectorized_partition(self, rng):
        # The relevant pair subset runs through the same partition
        # machinery: the literal BSP loop over the index's own normals
        # must make its cells.
        dataset = Dataset(rng.random((40, 3)))
        queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 5, 30))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        assert index.num_hyperplanes < dataset.n * (dataset.n - 1) // 2
        cells = {
            row.tobytes(): members.tolist()
            for row, members in zip(index.signatures, index.cell_members())
        }
        assert find_subdomains(index.normals, queries.weights) == cells

    def test_relevant_mode_hits_match_exact(self, rng):
        dataset = Dataset(rng.random((25, 3)))
        queries = QuerySet(rng.random((30, 3)), ks=rng.integers(1, 4, 30))
        exact = SubdomainIndex(dataset, queries, mode="exact")
        relevant = SubdomainIndex(dataset, queries, mode="relevant")
        assert relevant.num_hyperplanes <= exact.num_hyperplanes
        for target in range(0, 25, 5):
            assert relevant.hits(target) == exact.hits(target)

    def test_relevant_mode_fewer_hyperplanes_on_big_data(self, rng):
        dataset = Dataset(rng.random((60, 3)))
        queries = QuerySet(rng.random((20, 3)), ks=2)
        relevant = SubdomainIndex(dataset, queries, mode="relevant")
        assert relevant.num_hyperplanes < 60 * 59 // 2


class TestBoundaries:
    def test_boundary_columns_registered(self, rng):
        __, __, index = build(rng, n=6, m=40, d=2)
        index.ensure_boundaries()
        # At least one subdomain pair must be separated by some column
        # (with 40 queries and 15 hyperplanes there are several cells).
        if index.num_subdomains > 1:
            assert any(
                index.is_boundary(sid, col)
                for sid in range(index.num_subdomains)
                for col in range(index.num_hyperplanes)
            )

    def test_is_boundary_consistent(self, rng):
        # A column bounds a cell exactly when masking it makes the cell's
        # signature collide with another cell's.
        __, __, index = build(rng, n=6, m=40, d=2)
        index.ensure_boundaries()
        for sid in range(index.num_subdomains):
            for col in range(index.num_hyperplanes):
                masked = index.signatures.copy()
                masked[:, col] = 0
                collides = sum(row.tobytes() == masked[sid].tobytes() for row in masked) > 1
                assert index.is_boundary(sid, col) == collides

    def test_memory_estimate_positive(self, rng):
        __, __, index = build(rng)
        assert index.memory_estimate() > 0


class TestBeatsBatch:
    """Eq. 6 membership over an ``(m, c)`` score block."""

    def test_infinite_threshold_always_hits(self):
        scores = np.array([[5.0, -5.0], [0.5, 0.4]])
        theta = np.array([np.inf, 0.3])
        kth = np.array([7, 1], dtype=np.intp)
        out = _beats_batch(scores, theta, 3, kth)
        assert out.dtype == np.bool_
        assert out[0].all()  # fewer than k others: every position hits
        assert not out[1].any()  # above a finite threshold: no hit

    def test_strict_beat_below_band(self):
        theta = np.array([1.0])
        band = _TIE_TOL * 1.0
        scores = np.array([[1.0 - 2 * band, 1.0 + 2 * band]])
        out = _beats_batch(scores, theta, 0, np.array([9], dtype=np.intp))
        assert out.tolist() == [[True, False]]

    def test_tie_band_uses_id_tie_break(self):
        theta = np.array([1.0, 1.0])
        scores = np.full((2, 1), 1.0)  # exactly on the threshold
        kth = np.array([5, 5], dtype=np.intp)
        wins = _beats_batch(scores, theta, 2, kth)  # target 2 < kth 5
        loses = _beats_batch(scores, theta, 8, kth)  # target 8 > kth 5
        assert wins.all()
        assert not loses.any()

    def test_band_scales_relative_to_threshold(self):
        # |theta| > 1 widens the band: a score off by theta*tol/2 still ties.
        theta = np.array([100.0])
        near = 100.0 + 100.0 * _TIE_TOL / 2
        out = _beats_batch(np.array([[near]]), theta, 0, np.array([9], dtype=np.intp))
        assert out.all()

    def test_empty_block(self):
        out = _beats_batch(np.empty((0, 4)), np.empty(0), 0, np.empty(0, dtype=np.intp))
        assert out.shape == (0, 4)
