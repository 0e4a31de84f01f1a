"""The one-compare Eq. 6 kernel equals ``_beats_batch`` bit for bit.

``StrategyEvaluator`` answers Eq. 6 through per-query cutoffs built once
per target (``subdomain._eq6_cutoffs``); ``_beats_batch`` is the
reference statement of the rule.  Scores are planted on the ends of
the tie interval (``lo = fl(theta - b)`` and ``hi = fl(theta + b)``),
on ``theta +- b/2``, ``theta +- 2b`` and ``theta``, each +-3 ulps, for
thresholds in every regime: ordinary, zero and subnormal, within a few
bands of zero, near the float maximum, infinite and NaN.  Every row is
asked with the target on both sides of its k-th object's id.  Drawn
thresholds check the interval itself: both ends tie, and the float
after ``hi`` does not.

The evaluator is driven through a stub index whose scores are the
positions: one attribute with weights all 1, or the identity, so that
each query reads its own entry.  The thresholds are whatever the test
plants.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import EPS_TIE
from repro.core.ese import StrategyEvaluator, _column_counts, _eq6_counts, _eq6_hits
from repro.core.subdomain import _beats_batch, _eq6_cutoffs

TARGET = 5
BIG = np.finfo(float).max
TINY = np.finfo(float).smallest_subnormal

THETAS = np.array(
    [
        0.37, -0.37, 1.0, -1.0, 3.25, -1234.5, 1e6, -1e6,
        0.0, -0.0, TINY, -TINY, 1e-310, -1e-310,
        1e-13, -1e-13, 5e-13, -5e-13, 1e-12, -1e-12, -9.737458350371517e-13, 9.737458350371517e-13,
        np.nextafter(-1e-12, 0.0), np.nextafter(1e-12, 0.0), 2e-12, -2e-12, 4e-12, -4e-12,
        BIG, -BIG, BIG / 2, -BIG / 2,
        np.inf, -np.inf, np.nan,
    ]
)


def _ulps(values, count=3):
    """``values`` and their neighbours up to ``count`` floats either way."""
    out = [values]
    up, down = values, values
    for __ in range(count):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def _interval(center):
    """The tie band ``b`` and interval ``[lo, hi]`` of finite thresholds."""
    with np.errstate(over="ignore"):
        band = EPS_TIE * np.maximum(1.0, np.abs(center))
        return band, center - band, np.minimum(center + band, BIG)


def _edges(theta):
    """Every planted score for ``theta`` (finite edges only where defined)."""
    with np.errstate(over="ignore", invalid="ignore"):
        center = np.array([theta if np.isfinite(theta) else 0.0])
        band, lo, hi = _interval(center)
        bases = [lo, hi, center - band / 2, center + band / 2,
                 center - 2 * band, center + 2 * band, center]
        planted = np.concatenate([edge for base in bases for edge in _ulps(base)])
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, BIG, -BIG]
    return np.unique(np.concatenate([planted, special]))


def _stub_evaluator(theta, kth_ids, weights=None):
    """A StrategyEvaluator whose thresholds are planted, scores = positions.

    ``weights`` defaults to one attribute weighted 1 at every query.
    """
    weights = np.ones((theta.shape[0], 1)) if weights is None else weights
    dim = weights.shape[1]
    index = SimpleNamespace(
        epoch=0,
        dataset=SimpleNamespace(dim=dim, matrix=np.zeros((TARGET + 1, dim))),
        queries=SimpleNamespace(weights=weights),
        kth_other=lambda target: (kth_ids, theta),
    )
    return StrategyEvaluator(index)


def _rows(thetas):
    """Each threshold twice: the target wins, then loses, the id tie-break."""
    theta = np.repeat(thetas, 2)
    kth_ids = np.tile(np.array([TARGET + 1, TARGET - 1], dtype=np.intp), thetas.shape[0])
    return theta, kth_ids


def _reference(scores, theta, kth_ids):
    with np.errstate(over="ignore", invalid="ignore"):
        return _beats_batch(scores, theta, TARGET, kth_ids)


class TestPlantedEdges:
    theta, kth_ids = _rows(THETAS)
    positions = np.unique(np.concatenate([_edges(t) for t in THETAS]))[:, None]

    def test_evaluate_many_counts_equal_the_reference(self):
        evaluator = _stub_evaluator(self.theta, self.kth_ids)
        counts = evaluator.evaluate_many(TARGET, self.positions)
        scores = np.ones((self.theta.shape[0], 1)) @ self.positions.T
        assert counts.tolist() == _reference(scores, self.theta, self.kth_ids).sum(axis=0).tolist()

    def test_hits_mask_equals_the_reference(self):
        evaluator = _stub_evaluator(self.theta, self.kth_ids)
        weights = np.ones((self.theta.shape[0], 1))
        for position in self.positions:
            expected = _reference((weights @ position)[:, None], self.theta, self.kth_ids)[:, 0]
            assert np.array_equal(evaluator.hits_mask(TARGET, position), expected), position

    def test_kernels_equal_the_reference_row_by_row(self):
        # Each row's own edges, so a disagreement names its threshold.
        for theta in THETAS:
            pair, kth_ids = _rows(np.array([theta]))
            scores = np.tile(_edges(theta), (2, 1))
            cutoffs = _eq6_cutoffs(pair, TARGET, kth_ids)
            expected = _reference(scores, pair, kth_ids)
            assert np.array_equal(_eq6_hits(scores, cutoffs), expected), theta
            assert np.array_equal(_eq6_counts(scores, cutoffs), expected.sum(axis=0)), theta

    def test_take_restricts_and_renumbers(self):
        scores = np.tile(self.positions.T, (self.theta.shape[0], 1))
        cutoffs = _eq6_cutoffs(self.theta, TARGET, self.kth_ids)
        rows = np.arange(self.theta.shape[0])[::-3]
        expected = _reference(scores, self.theta, self.kth_ids)[rows]
        assert np.array_equal(_eq6_hits(scores[rows], cutoffs.take(rows)), expected)


class TestTieInterval:
    """Every float in ``[lo, hi]`` ties, and no float outside it does.

    Thresholds are drawn in both regimes, ``|theta|`` up to 4 and up to
    ``1e-11``, where ``fl(s - theta)`` rounds at ``theta``'s scale.  The
    evaluator's identity weights give each query its own score.
    """

    rng = np.random.default_rng(0)
    theta = np.concatenate([rng.uniform(-4.0, 4.0, 600), rng.uniform(-1e-11, 1e-11, 600)])
    __, lo, hi = _interval(theta)
    past = np.nextafter(hi, np.inf)
    wins = np.full(theta.shape[0], TARGET + 1, dtype=np.intp)
    loses = np.full(theta.shape[0], TARGET - 1, dtype=np.intp)

    def check(self, kth_ids, scores, expected):
        """Each score vector hits every row (``True``) or none: three ways."""
        assert (_reference(np.stack(scores, axis=1), self.theta, kth_ids) == expected).all()
        evaluator = _stub_evaluator(self.theta, kth_ids, np.eye(self.theta.shape[0]))
        for position, hit in zip(scores, expected):
            assert (evaluator.hits_mask(TARGET, position) == hit).all(), hit
        counts = evaluator.evaluate_many(TARGET, np.stack(scores))
        assert counts.tolist() == [self.theta.shape[0] if hit else 0 for hit in expected]

    def test_a_winning_target_ties_on_both_ends_only(self):
        self.check(self.wins, [self.lo, self.hi, self.past], [True, True, False])

    def test_a_losing_target_misses_at_lo(self):
        self.check(self.loses, [self.lo, np.nextafter(self.lo, -np.inf)], [False, True])


class TestColumnCounts:
    def test_tall_blocks_do_not_wrap_a_byte(self):
        # Counted as bytes, 255 rows a pass: a full column of 600 rows must
        # read 600, not 600 mod 256.
        rng = np.random.default_rng(0)
        for m in (0, 1, 255, 256, 511, 600):
            mask = rng.random((m, 5)) < 0.5
            mask[:, 0] = True
            assert _column_counts(mask).tolist() == mask.sum(axis=0).tolist(), m


finite_theta = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e-11, 1e-11),
    st.floats(allow_nan=False, allow_infinity=False),
)
theta_value = st.one_of(finite_theta, st.sampled_from([np.inf, -np.inf, np.nan]))


@st.composite
def block(draw):
    """Thresholds, tie-break ids, and scores drawn on and around their bands."""
    m = draw(st.integers(1, 6))
    theta = np.array(draw(st.lists(theta_value, min_size=m, max_size=m)))
    kth_ids = np.array(draw(st.lists(st.integers(0, 2 * TARGET), min_size=m, max_size=m)))
    picks = draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                  st.integers(-4, 4)),
        min_size=1, max_size=12,
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        columns = []
        for row, fraction, steps in picks:
            center = theta[row] if np.isfinite(theta[row]) else 0.0
            value = center + fraction * EPS_TIE * max(1.0, abs(center))
            for __ in range(abs(steps)):
                value = np.nextafter(value, np.inf if steps > 0 else -np.inf)
            columns.append(value)
    columns += draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]), max_size=2))
    return theta, kth_ids, np.array(columns)[:, None]


class TestDrawnBlocks:
    @given(block())
    @settings(max_examples=300, deadline=None)
    def test_evaluator_equals_the_reference(self, drawn):
        theta, kth_ids, positions = drawn
        evaluator = _stub_evaluator(theta, kth_ids)
        weights = np.ones((theta.shape[0], 1))
        expected = _reference(weights @ positions.T, theta, kth_ids)
        assert evaluator.evaluate_many(TARGET, positions).tolist() == expected.sum(axis=0).tolist()
        for column, position in enumerate(positions):
            assert np.array_equal(evaluator.hits_mask(TARGET, position), expected[:, column])
