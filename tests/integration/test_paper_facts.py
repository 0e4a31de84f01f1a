"""Executable checks of the paper's stated facts and worked examples."""

import numpy as np
import pytest

from repro.core.ese import StrategyEvaluator
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.subdomain import SubdomainIndex, hyperplanes
from repro.geometry.arrangement import signature_matrix
from repro.topk.evaluate import top_k


class TestFigure2WorkedExample:
    """f1(q) = 4 q1 + 3 q2, f2(q) = q1 - 2 q2, s = (1, 0) applied to p1.

    The paper's table: queries above both the old and new intersection
    keep [f1, f2]; queries that move across switch to [f2, f1]; queries
    below both keep [f2, f1].  (Here 'above' means f1 ranks no worse.)
    """

    P1 = np.array([4.0, 3.0])
    P2 = np.array([1.0, -2.0])
    S = np.array([1.0, 0.0])

    def ranking(self, p1, q):
        objects = np.vstack([p1, self.P2])
        return top_k(objects, q, 2)

    def normal(self, p1):
        """The index's hyperplane of the pair (f1, f2): Eq. 2's ``p1 - p2``."""
        pairs, normals = hyperplanes(np.vstack([p1, self.P2]), [(0, 1)])
        assert pairs.tolist() == [[0, 1]]
        return normals

    def test_old_and_new_intersections(self):
        old = self.normal(self.P1)
        new = self.normal(self.P1 + self.S)
        assert np.allclose(old, [[3.0, 5.0]])
        assert np.allclose(new, [[4.0, 5.0]])
        assert np.array_equal(new, old + self.S)  # Eq. 3: s tilts the normal

    def test_affected_queries_switch_rank(self):
        # Query domain here is unnormalized (the paper's figure uses
        # negative coordinates); test the fact directly on rankings.
        rng = np.random.default_rng(2)
        points = rng.uniform(-1, 1, size=(300, 2))
        old = signature_matrix(points, self.normal(self.P1))[:, 0]
        new = signature_matrix(points, self.normal(self.P1 + self.S))[:, 0]
        moved = kept = 0
        for q, crossed in zip(points, old != new):
            before = self.ranking(self.P1, q)
            after = self.ranking(self.P1 + self.S, q)
            if crossed:
                moved += 1
                assert before != after, "Fact 2: crossing queries switch ranks"
            else:
                kept += 1
                assert before == after, "Fact 1: non-crossing queries are unaffected"
        assert moved > 0 and kept > 0  # the sample saw both cases


class TestFact1General:
    """Fact 1 at scale: H changes only via queries in affected subspaces."""

    def test_unmoved_queries_keep_membership(self, rng):
        dataset = Dataset(rng.random((12, 3)))
        queries = QuerySet(rng.random((30, 3)), ks=3)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        target = 4
        old = dataset.matrix[target]
        for __ in range(10):
            s = rng.normal(scale=0.3, size=3)
            affected = set(evaluator.affected_queries(target, old, old + s).tolist())
            before = evaluator.hits_mask(target, old)
            after = evaluator.hits_mask(target, old + s)
            for j in range(30):
                if j not in affected:
                    assert before[j] == after[j]


class TestSubdomainCardinality:
    """§5.2 footnote: for linear functions the number of populated
    subdomains is bounded by the arrangement cell bound O(n^d)."""

    def test_cells_bounded(self, rng):
        from repro.geometry.arrangement import max_cells_bound

        dataset = Dataset(rng.random((8, 2)))
        queries = QuerySet(rng.random((100, 2)), ks=2)
        index = SubdomainIndex(dataset, queries)
        assert index.num_subdomains <= max_cells_bound(index.num_hyperplanes, 2)
        assert index.num_subdomains <= queries.m  # never more cells than points


class TestNPHardnessReductionShape:
    """§4.2.1: the set-cover reduction instance behaves as described."""

    def test_reduction_instance_mechanics(self):
        # U = {u1, u2, u3}, S1 = {u1, u2}, S2 = {u2, u3}.
        weights = np.array(
            [
                [1.0, 0.0],  # u1: covered by S1 only
                [1.0, 1.0],  # u2: covered by both
                [0.0, 1.0],  # u3: covered by S2 only
            ]
        )
        p0 = np.ones(2)  # the target: scores high (bad) everywhere
        p1 = np.full(2, 1.0 / 3)  # the paper's 1/(m+1) competitor
        dataset = Dataset(np.vstack([p0, p1]))
        queries = QuerySet(weights, ks=1)
        evaluator = StrategyEvaluator(SubdomainIndex(dataset, queries))
        assert evaluator.hits(0) == 0  # H(p0) = 0 as constructed
        assert evaluator.hits(1) == 3  # H(p1) = n as constructed
        # Setting attribute j to 0 "selects subset Sj": selecting both
        # subsets hits all three queries.
        assert evaluator.evaluate(0, np.array([-1.0, -1.0])) == 3
        # Reproduction note: selecting only S1 hits u1 (score 0 beats
        # 1/3) but NOT u2 — u2's score drops to deg-1 = 1, still above
        # the competitor's 2/3.  The paper's reduction text glosses over
        # elements covered by several subsets; the instance as literally
        # constructed requires zeroing *every* weighted attribute of a
        # query to hit it, which still makes optimal improvement encode
        # a covering-style choice but with AND semantics per element.
        assert evaluator.evaluate(0, np.array([-1.0, 0.0])) == 1
