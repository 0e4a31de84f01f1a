"""Differential oracles: scripted scenarios, determinism, brute force."""

import numpy as np
import pytest

from repro.check import (
    AddObject,
    AddQuery,
    RemoveObject,
    RemoveQuery,
    Scenario,
    check_affected_parity,
    check_iq_contracts,
    check_scenario,
    replay,
)
from repro.check.differential import brute_force_hits
from repro.core.subdomain import SubdomainIndex


def full_ops(d=2):
    """One op of every kind, in an order that exercises each path."""
    return (
        AddObject(attributes=tuple(0.3 + 0.1 * j for j in range(d))),
        AddQuery(weights=tuple(0.7 - 0.1 * j for j in range(d)), k=2),
        RemoveObject(slot=2),
        RemoveQuery(slot=4),
        AddObject(attributes=tuple(0.6 for _ in range(d))),
    )


class TestCheckScenario:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    @pytest.mark.parametrize("kind", ["IN", "CO", "AC"])
    def test_scripted_scenario_passes(self, kind, mode):
        scenario = Scenario(kind=kind, mode=mode, n=7, m=9, d=2, seed=3, ops=full_ops())
        index = check_scenario(scenario)
        assert index.dataset.n == 8  # 7 initial + 2 adds - 1 removal
        assert index.queries.m == 9  # 9 initial + 1 add - 1 removal

    def test_replay_is_deterministic(self):
        scenario = Scenario(kind="IN", mode="exact", n=6, m=8, d=2, seed=11, ops=full_ops())
        a = replay(scenario)
        b = replay(scenario)
        assert np.array_equal(a.dataset.matrix, b.dataset.matrix)
        assert np.array_equal(a.queries.weights, b.queries.weights)
        assert np.array_equal(a.subdomain_of, b.subdomain_of)
        for target in range(a.dataset.n):
            assert np.array_equal(a.hits_mask(target), b.hits_mask(target))

    def test_empty_op_sequence_passes(self):
        for mode in ("exact", "relevant"):
            check_scenario(Scenario(kind="CO", mode=mode, n=6, m=7, d=3, seed=5))

    def test_relevant_partition_refines_fresh(self):
        scenario = Scenario(
            kind="IN", mode="relevant", n=8, m=10, d=2, seed=2, ops=full_ops()
        )
        index = replay(scenario)
        fresh = SubdomainIndex(index.dataset, index.queries, mode="relevant")
        for members in index.cell_members():
            sids = np.unique(fresh.subdomain_of[members])
            assert sids.shape[0] == 1  # every maintained cell inside one fresh cell


class TestBruteForce:
    def test_matches_index_on_fresh_build(self, rng):
        matrix = rng.random((9, 3))
        weights = rng.random((12, 3))
        ks = rng.integers(1, 4, 12)
        from repro.core.objects import Dataset
        from repro.core.queries import QuerySet

        index = SubdomainIndex(Dataset(matrix), QuerySet(weights, ks=ks))
        for target in range(9):
            mask, ambiguous = brute_force_hits(matrix, weights, ks, target)
            settled = ~ambiguous
            assert np.array_equal(index.hits_mask(target)[settled], mask[settled])

    def test_small_k_membership_by_hand(self):
        matrix = np.array([[0.1], [0.2], [0.3]])
        weights = np.array([[1.0]])
        ks = np.array([2])
        mask0, __ = brute_force_hits(matrix, weights, ks, 0)
        mask2, __ = brute_force_hits(matrix, weights, ks, 2)
        assert bool(mask0[0]) and not bool(mask2[0])

    def test_everyone_hits_when_k_exceeds_others(self):
        matrix = np.array([[0.9], [0.1]])
        weights = np.array([[1.0]])
        ks = np.array([5])  # only one *other* object exists
        mask, __ = brute_force_hits(matrix, weights, ks, 0)
        assert bool(mask[0])


class TestFurtherOracles:
    @pytest.mark.parametrize("mode", ["exact", "relevant"])
    def test_affected_and_iq_oracles_pass(self, mode):
        scenario = Scenario(kind="IN", mode=mode, n=7, m=9, d=2, seed=9, ops=full_ops())
        index = check_scenario(scenario)
        rng = np.random.default_rng(97)
        check_affected_parity(index, rng)
        check_iq_contracts(index, rng)

    def test_slot_resolution_keeps_subsequences_replayable(self):
        # Slots far beyond the id range must still replay (they wrap).
        ops = (RemoveObject(slot=10**6), RemoveQuery(slot=10**6))
        check_scenario(Scenario(kind="AC", mode="exact", n=6, m=6, d=2, seed=1, ops=ops))
