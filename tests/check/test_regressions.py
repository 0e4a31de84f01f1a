"""Regression tests for the bugs the correctness harness flushed out.

Each test pins one fix: the ESE-parity tie-band slab test and its
re-test of scores at their cutoffs, the relevant-mode ``add_object``
contender closure, the once-only Max-Hit budget slack, and the shared
Eq. 6 kernel behind ``evaluate_many``.
Where practical, the pre-fix behaviour is re-created in place (the
``tie_band_blind`` fixture patches ``ese._slab_crossings`` back to its
old sign-only form) to show the test really distinguishes the two.
"""

import numpy as np
import pytest

from repro.check.differential import (
    AddObject,
    AddQuery,
    RemoveObject,
    RemoveQuery,
    Scenario,
    check_affected_parity,
    check_scenario,
)
from repro.constants import EPS_COST, EPS_TIE
from repro.core import updates
from repro.core._search import SearchState, generate_candidates
from repro.core.cost import L2Cost
from repro.core.ese import StrategyEvaluator
from repro.core.maxhit import max_hit_iq
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex


def tie_band_instance():
    """Target 0 misses both queries; its tie band sits below both thresholds."""
    dataset = Dataset(np.array([[0.5, 0.5], [0.2, 0.3], [0.8, 0.1]]))
    queries = QuerySet(np.array([[0.6, 0.4], [0.3, 0.7]]), ks=np.array([1, 1]))
    return SubdomainIndex(dataset, queries)


class TestAffectedTieBandParity:
    """Fix 1: ``affected_queries`` uses the same tie band as ``_beats``."""

    def tie_band_move(self, evaluator, target, j):
        """A move landing the target's score strictly inside query j's band."""
        index = evaluator.index
        __, theta = evaluator.thresholds(target)
        q = index.queries.weights[j]
        old = index.dataset.matrix[target].copy()
        band = EPS_TIE * max(1.0, abs(float(theta[j])))
        landing = float(theta[j]) + 0.4 * band  # same raw side as a miss
        new = old + q * ((landing - float(q @ old)) / float(q @ q))
        return old, new

    def test_tie_band_entry_is_affected(self):
        evaluator = StrategyEvaluator(tie_band_instance())
        old, new = self.tie_band_move(evaluator, 0, 0)
        assert not evaluator.hits_mask(0)[0]  # a miss before the move
        hits, mask = evaluator.evaluate_affected(0, old, new)
        full = evaluator.hits_mask(0, new)
        assert bool(full[0])  # tie + id tie-break grant membership
        assert np.array_equal(mask, full)
        assert hits == int(full.sum())

    def test_raw_sign_predicate_misses_the_entry(self, tie_band_blind):
        # Re-create the pre-fix predicate: affected iff the raw sign of
        # the slab test flips.  The engineered move keeps the sign, so
        # the old code skips the query and diverges from a full pass.
        evaluator = StrategyEvaluator(tie_band_instance())
        old, new = self.tie_band_move(evaluator, 0, 0)
        __, mask = evaluator.evaluate_affected(0, old, new)
        full = evaluator.hits_mask(0, new)
        assert not np.array_equal(mask, full)  # the bug this PR fixes

    def test_tie_band_exit_is_affected(self):
        evaluator = StrategyEvaluator(tie_band_instance())
        old, inside = self.tie_band_move(evaluator, 0, 0)
        evaluator_moved = StrategyEvaluator(
            SubdomainIndex(
                evaluator.index.dataset.replaced(0, inside), evaluator.index.queries
            )
        )
        hits, mask = evaluator_moved.evaluate_affected(0, inside, old)
        full = evaluator_moved.hits_mask(0, old)
        assert np.array_equal(mask, full)


class TestAffectedAtExactTies:
    """Fix 1b: ``evaluate_affected`` re-tests scores that sit on their cutoff.

    Shrunk fuzz scenarios on 0.1-grid data.  At seed 7137 a move lands
    query 6's score on its ``hi``, 0.40000000000100006, while the slab
    test's offset ``q . (p - p_l)``, another product, reads 1.000055e-12,
    past the band ``b = 1e-12``, so the slab test alone leaves the query
    unaffected.  At seed 761519 a score lands on ``lo`` the same way.
    """

    @pytest.mark.parametrize(
        "scenario",
        [
            Scenario(
                kind="CO", mode="relevant", n=10, m=9, d=2, seed=761519, k_max=3, grid=True,
                ops=(RemoveObject(slot=28079), AddObject(attributes=(0.1, 0.1))),
            ),
            Scenario(
                kind="IN", mode="exact", n=5, m=10, d=2, seed=7137, k_max=3, grid=True,
                ops=(
                    AddQuery(weights=(0.4, 0.7), k=1),
                    RemoveQuery(slot=27005),
                    AddObject(attributes=(0.8, 0.1)),
                ),
            ),
        ],
        ids=["relevant-761519", "exact-7137"],
    )
    def test_moves_onto_a_cutoff_keep_parity(self, scenario):
        index = check_scenario(scenario)
        check_affected_parity(index, np.random.default_rng([scenario.seed, 97]))


class TestRelevantAddObjectClosure:
    """Fix 2: relevant-mode inserts extend the contender pair closure."""

    def test_insert_into_empty_pair_list(self):
        dataset = Dataset(np.array([[0.2, 0.8]]))
        queries = QuerySet(np.array([[0.9, 0.1], [0.1, 0.9]]), ks=np.array([1, 1]))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        assert index.pairs.shape[0] == 0  # a single object admits no hyperplanes

        updates.add_object(index, np.array([0.8, 0.2]))
        assert index.pairs.shape[0] > 0  # the newcomer must have gained hyperplanes
        updates.add_object(index, np.array([0.5, 0.5]))

        fresh = SubdomainIndex(index.dataset, index.queries, mode="relevant")
        for target in range(index.dataset.n):
            assert np.array_equal(index.hits_mask(target), fresh.hits_mask(target))

    def test_insert_matches_rebuild_on_random_data(self, rng):
        dataset = Dataset(rng.random((6, 2)))
        queries = QuerySet(rng.random((8, 2)), ks=rng.integers(1, 3, 8))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        for __ in range(3):
            updates.add_object(index, rng.random(2))
        index.validate()
        fresh = SubdomainIndex(index.dataset, index.queries, mode="relevant")
        for target in range(index.dataset.n):
            assert np.array_equal(index.hits_mask(target), fresh.hits_mask(target))

    def test_remove_object_repromotes_contenders(self, rng):
        # Deleting a strong object can promote previously-irrelevant
        # ones into the top-(k+margin) union; the closure must follow.
        dataset = Dataset(rng.random((8, 2)))
        queries = QuerySet(rng.random((6, 2)), ks=np.ones(6, dtype=int))
        index = SubdomainIndex(dataset, queries, mode="relevant")
        updates.remove_object(index, 0)
        updates.remove_object(index, 0)
        index.validate()
        fresh = SubdomainIndex(index.dataset, index.queries, mode="relevant")
        for target in range(index.dataset.n):
            assert np.array_equal(index.hits_mask(target), fresh.hits_mask(target))


class TestOnceOnlyBudgetSlack:
    """Fix 3: candidate filtering is exact; slack is granted once."""

    def search_state(self, evaluator, target):
        index = evaluator.index
        return SearchState(
            target=target,
            base=index.dataset.matrix[target].copy(),
            applied=np.zeros(index.dataset.dim),
            spent=0.0,
            mask=evaluator.hits_mask(target),
        )

    def test_filter_is_exact_not_epsilon_padded(self, rng):
        dataset = Dataset(rng.random((8, 2)))
        queries = QuerySet(rng.random((10, 2)), ks=rng.integers(1, 4, 10))
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        state = self.search_state(evaluator, 0)
        space = StrategySpace.unconstrained(2)
        cost = L2Cost(2)
        unfiltered = generate_candidates(evaluator, state, cost, space)
        assert unfiltered.size > 0
        cheapest = float(unfiltered.costs.min())
        # Pre-fix the filter admitted costs up to max_cost + EPS_COST,
        # so a cap a hair below the cheapest candidate still let it in.
        capped = generate_candidates(
            evaluator, state, cost, space, max_cost=cheapest - EPS_COST / 2
        )
        assert np.all(capped.costs < cheapest)
        exact_cap = generate_candidates(
            evaluator, state, cost, space, max_cost=cheapest
        )
        assert np.isclose(float(exact_cap.costs.min()), cheapest)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_max_hit_spend_never_drifts_past_slack(self, seed):
        rng = np.random.default_rng(seed)
        dataset = Dataset(rng.random((10, 3)))
        queries = QuerySet(rng.random((14, 3)), ks=rng.integers(1, 4, 14))
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        budget = 0.3 + 0.2 * float(rng.random())
        result = max_hit_iq(evaluator, 1, budget, cost=L2Cost(3))
        # The invariant the fix establishes: spend stays within one
        # EPS_COST of the budget however many iterations ran, not
        # within iterations * EPS_COST.
        assert result.total_cost <= budget + EPS_COST
        assert result.satisfied


class TestSharedBeatsKernel:
    """Fix 4: ``evaluate_many`` delegates to the same Eq. 6 kernel."""

    def test_batch_matches_per_position_masks(self, rng):
        dataset = Dataset(rng.random((9, 3)))
        queries = QuerySet(rng.random((11, 3)), ks=rng.integers(1, 4, 11))
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        positions = rng.random((17, 3))
        batched = evaluator.evaluate_many(2, positions)
        singles = np.array(
            [int(evaluator.hits_mask(2, pos).sum()) for pos in positions]
        )
        assert np.array_equal(batched, singles)

    def test_batch_honours_tie_band_membership(self):
        index = tie_band_instance()
        evaluator = StrategyEvaluator(index)
        __, theta = evaluator.thresholds(0)
        q = index.queries.weights[0]
        old = index.dataset.matrix[0]
        band = EPS_TIE * max(1.0, abs(float(theta[0])))
        inside = old + q * ((float(theta[0]) + 0.4 * band - float(q @ old)) / float(q @ q))
        outside = old + q * ((float(theta[0]) + 3.0 * band - float(q @ old)) / float(q @ q))
        counts = evaluator.evaluate_many(0, np.vstack([inside, outside]))
        masks = [evaluator.hits_mask(0, inside), evaluator.hits_mask(0, outside)]
        assert counts[0] == int(masks[0].sum()) and bool(masks[0][0])
        assert counts[1] == int(masks[1].sum()) and not bool(masks[1][0])
