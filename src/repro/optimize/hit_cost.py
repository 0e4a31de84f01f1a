"""Cheapest strategy that makes the target hit a query (Eq. 13-14).

Every iteration of the greedy IQ searches (Algorithms 3 and 4) solves,
for each not-yet-hit query ``q``::

    minimize  Cost(s)   subject to   q . (p + s) < theta_q,
                                      s in StrategySpace box

where ``theta_q`` is the score of the k-th ranked *other* object at
``q`` (the threshold of Eq. 6).  Writing ``gap = theta_q - q . p``, the
constraint is ``q . s < gap``; the strict inequality is realized as
``q . s <= gap - DEFAULT_MARGIN``, the one strictness slack.

That is one linear constraint in a box, so every built-in cost has an
exact closed form that batches: :func:`min_cost_to_hit_batch` solves
all the unhit queries of a round at once, and :func:`min_cost_to_hit`
is its one-row case.

* L2 (weighted): the Lagrangian point ``s = b (q / w) / (q . (q / w))``;
  a row it takes out of the box follows the clipped ray with ``a = q / w``.
* L-infinity: the clipped ray ``s(t) = clip(-t a, lower, upper)`` with
  ``a = sign(q) / w``.  ``q . s(t)`` is piecewise linear and
  non-increasing in ``t``, so one sort of each row's kinks gives the
  exact ``t``.
* L1 and asymmetric linear: a fractional knapsack, buying the reduction
  of ``q . s`` at the lowest price per unit first, up to the room the
  box leaves (ties: lowest column first).
* any other cost: the projected-subgradient loop of
  :func:`min_cost_to_hit_set`, one row at a time (assumes a convex cost;
  always returns a *feasible* strategy).

:func:`min_cost_to_hit_set` hits a whole query *set* with one strategy,
the exhaustive search's joint problem: an LP on the in-house simplex
for the linear costs and L-infinity, Dykstra's projections for L2.
"""

from __future__ import annotations

import numpy as np

from repro.constants import DEFAULT_MARGIN, EPS_CONVERGENCE, FD_STEP
from repro.core.cost import AsymmetricLinearCost, CostFunction, L1Cost, L2Cost, LInfCost
from repro.core.strategy import Strategy, StrategySpace
from repro.errors import InfeasibleError, ValidationError
from repro.optimize.simplex import linprog

__all__ = ["min_cost_to_hit", "min_cost_to_hit_batch", "min_cost_to_hit_set"]


def min_cost_to_hit(
    cost: CostFunction,
    weights: np.ndarray,
    gap: float,
    space: StrategySpace | None = None,
) -> Strategy:
    """Solve Eq. 13-14 for one query: the one-row :func:`min_cost_to_hit_batch`.

    ``weights`` is the query's ``q`` and ``gap`` its ``theta_q - q . p``;
    the other parameters are the batch's.  Raises
    :class:`~repro.errors.InfeasibleError` when no strategy in the box
    hits the query.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (cost.dim,):
        raise ValidationError(f"weights shape {weights.shape} != ({cost.dim},)")
    vectors, costs, feasible = min_cost_to_hit_batch(
        cost, weights[None, :], np.array([gap], dtype=float), space=space
    )
    if not feasible[0]:
        raise InfeasibleError("query cannot be hit within the strategy bounds")
    return Strategy(vectors[0], cost=costs[0])


def min_cost_to_hit_batch(
    cost: CostFunction,
    weights_rows: np.ndarray,
    gaps: np.ndarray,
    space: StrategySpace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 13-14 for a whole batch of queries at once, exactly.

    Parameters
    ----------
    cost:
        The issuer's cost function.
    weights_rows, gaps:
        An ``(r, d)`` stack of query weight vectors ``q`` and their
        ``theta_q - q . p``; a positive gap means the target already hits.
    space:
        Valid-strategy box; defaults to unconstrained.

    Returns
    -------
    ``(vectors, costs, feasible)``: where ``feasible[i]``, row ``i`` is
    the cheapest strategy in the box with
    ``q_i . s <= gaps[i] - DEFAULT_MARGIN`` and its cost (zero when the
    gap already exceeds the margin).  A row the box cannot reach, or
    whose query weights are all zero, is not feasible and holds a zero
    vector and cost.
    """
    q = np.atleast_2d(np.asarray(weights_rows, dtype=float))
    gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
    if q.shape != (gaps.shape[0], cost.dim):
        raise ValidationError(
            f"weights shape {q.shape} incompatible with gaps {gaps.shape} / dim {cost.dim}"
        )
    space = space or StrategySpace.unconstrained(cost.dim)
    if space.dim != cost.dim:
        raise ValidationError(f"space dim {space.dim} != cost dim {cost.dim}")
    bounds = gaps - DEFAULT_MARGIN
    if isinstance(cost, L2Cost):
        return _l2_rows(cost, q, bounds, space)
    vectors = np.zeros(q.shape)
    costs = np.zeros(q.shape[0])
    feasible = np.ones(q.shape[0], dtype=bool)
    active = np.flatnonzero(bounds < 0)  # the zero strategy satisfies the other rows
    if isinstance(cost, LInfCost):
        # At budget t each coordinate moves t / w_i: the ray along sign(q) / w.
        a = np.sign(q[active]) / cost.weights
        vectors[active], feasible[active] = _clipped_ray(a, q[active], bounds[active], space)
        costs = np.max(cost.weights * np.abs(vectors), axis=1, initial=0.0)
    elif isinstance(cost, (L1Cost, AsymmetricLinearCost)):
        vectors[active], costs[active], feasible[active] = _knapsack_rows(
            cost, q[active], bounds[active], space
        )
    else:
        for row in active:
            try:
                vectors[row] = _set_numeric(cost, q[row : row + 1], bounds[row : row + 1], space)
            except InfeasibleError:
                feasible[row] = False
            else:
                costs[row] = cost(vectors[row])
    return vectors, costs, feasible


def _l2_rows(
    cost: L2Cost, q: np.ndarray, bounds: np.ndarray, space: StrategySpace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weighted L2: the Lagrangian point, or the clipped ray where the box cuts it.

    The point ``s = b (q / w) / (q . (q / w))`` with cost
    ``|b| / sqrt(q . (q / w))`` is the box optimum whenever it lies in
    the box; only the rows it leaves take :func:`_clipped_ray`.
    """
    scaled = q / cost.weights
    denom = np.einsum("ij,ij->i", q, scaled)  # q . W^-1 q per row
    already_hit = bounds >= 0  # the zero strategy suffices (and is free)
    feasible = already_hit | (denom > 0)
    active = feasible & ~already_hit
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(active, bounds / np.maximum(denom, 1e-300), 0.0)
        costs = np.where(active, np.abs(bounds) / np.sqrt(denom), 0.0)
    vectors = scale[:, None] * scaled
    if not active.all():
        vectors[~active] = 0.0  # a zero scale times a negative entry is -0.0
    if np.isfinite(space.lower).any() or np.isfinite(space.upper).any():
        inside = np.all((vectors >= space.lower) & (vectors <= space.upper), axis=1)
        clipped = np.flatnonzero(active & ~inside)
        if clipped.size:
            ray, reached = _clipped_ray(scaled[clipped], q[clipped], bounds[clipped], space)
            vectors[clipped] = ray
            costs[clipped] = np.sqrt(np.sum(cost.weights * ray * ray, axis=1))
            feasible[clipped] = reached
    return vectors, costs, feasible


def _clipped_ray(
    a: np.ndarray, q: np.ndarray, bounds: np.ndarray, space: StrategySpace
) -> tuple[np.ndarray, np.ndarray]:
    """The first ``s(t) = clip(-t a, lower, upper)`` with ``q . s(t) <= bound``, per row.

    ``a`` has the sign of ``q`` in every coordinate, so coordinate ``i``
    lowers ``q . s`` at rate ``q_i a_i`` until it meets the box at the
    kink ``t_i = room_i / |a_i|``, and holds ``|q_i| room_i`` past it.
    The reduction is piecewise linear and non-decreasing in ``t``: the
    first sorted kink whose reduction covers ``-bound`` closes the
    segment that holds the exact ``t``.  Returns ``(vectors,
    reached)``; a row the box cannot reach is zero.
    """
    room = np.where(a > 0, -space.lower, space.upper)
    need = -bounds
    rows = np.arange(q.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        kinks = np.where(a != 0, room / np.abs(a), 0.0)
        order = np.argsort(kinks, axis=1, kind="stable")
        kinks = np.take_along_axis(kinks, order, axis=1)
        rates = np.take_along_axis(q * a, order, axis=1)
        held = _exclusive_cumsum(rates * kinks)  # reduction of the coordinates at the box
        moving = np.cumsum(rates[:, ::-1], axis=1)[:, ::-1]  # rate of those still moving
        reached = held + moving * kinks >= need[:, None]
        feasible = reached.any(axis=1)
        seg = reached.argmax(axis=1)
        start = np.where(seg > 0, kinks[rows, seg - 1], 0.0)
        t = (need - held[rows, seg]) / moving[rows, seg]
    t = np.fmin(np.fmax(t, start), kinks[rows, seg])  # rounding stays in the segment
    vectors = np.clip(-t[:, None] * a, space.lower, space.upper)
    vectors[~feasible] = 0.0
    return vectors, feasible


def _knapsack_rows(
    cost: L1Cost | AsymmetricLinearCost,
    q: np.ndarray,
    bounds: np.ndarray,
    space: StrategySpace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L1 and asymmetric linear costs: a fractional knapsack per row.

    In coordinate ``i`` only one direction lowers ``q . s``: raising it
    where ``q_i < 0``, at price ``up_i``, and lowering it where
    ``q_i > 0``, at price ``down_i``.  Buying the reduction at the lowest
    price per unit, ``price / |q_i|``, up to the room the box leaves, is
    the LP optimum of one constraint; ties go to the lowest column.
    """
    up, down = _prices(cost)
    rising = q < 0
    price = np.where(rising, up, down)
    room = np.where(rising, space.upper, -space.lower)
    size = np.abs(q)
    useful = size > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        unit_price = np.where(useful, price / size, np.inf)
        supply = np.where(useful, size * room, 0.0)
    order = np.argsort(unit_price, axis=1, kind="stable")
    supply = np.take_along_axis(supply, order, axis=1)
    need = -bounds
    feasible = np.sum(supply, axis=1) >= need
    left = np.empty_like(supply)
    np.put_along_axis(left, order, need[:, None] - _exclusive_cumsum(supply), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        move = np.where(useful & (left > 0), np.minimum(left / size, room), 0.0)
    move[~feasible] = 0.0
    vectors = np.where(rising, move, -move) + 0.0  # + 0.0 turns -0.0 into 0.0
    return vectors, np.sum(price * move, axis=1), feasible


def _prices(cost: L1Cost | AsymmetricLinearCost) -> tuple[np.ndarray, np.ndarray]:
    """Per-unit prices of raising and of lowering each attribute."""
    if isinstance(cost, AsymmetricLinearCost):
        return cost.up, cost.down
    return cost.weights, cost.weights


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """Row-wise sum of the entries before each column (no ``inf - inf``)."""
    out = np.zeros_like(values)
    np.cumsum(values[:, :-1], axis=1, out=out[:, 1:])
    return out


def min_cost_to_hit_set(
    cost: CostFunction,
    weights: np.ndarray,
    gaps: np.ndarray,
    space: StrategySpace | None = None,
) -> Strategy:
    """Cheapest single strategy hitting a whole *set* of queries.

    Solves ``min Cost(s)`` s.t. ``W s <= gaps - DEFAULT_MARGIN``
    (row-wise) plus the strategy box — the multi-constraint
    generalization used by the exact (exhaustive) IQ search, where a
    candidate query subset must be hit simultaneously.

    Solvers: L1/asymmetric and L-infinity -> exact LP; L2 (weighted) ->
    Dykstra's alternating projections (minimum-norm point of a
    polyhedron); anything else -> projected subgradient with cyclic
    projections.  A strategy is returned only if it hits every row
    strictly, ``W s < gaps``; otherwise
    :class:`~repro.errors.InfeasibleError` is raised.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    gaps = np.atleast_1d(np.asarray(gaps, dtype=float))
    if weights.shape != (gaps.shape[0], cost.dim):
        raise ValidationError(
            f"weights shape {weights.shape} incompatible with gaps {gaps.shape} / dim {cost.dim}"
        )
    space = space or StrategySpace.unconstrained(cost.dim)
    bounds = gaps - DEFAULT_MARGIN
    rows = np.flatnonzero(bounds < 0)  # satisfied-at-zero rows stay as guards
    if rows.size == 0:
        return Strategy.zero(cost.dim)

    if isinstance(cost, (L1Cost, AsymmetricLinearCost)):
        vector = _set_linear_lp(cost, weights, bounds, space)
    elif isinstance(cost, LInfCost):
        vector = _set_linf_lp(cost, weights, bounds, space)
    elif isinstance(cost, L2Cost):
        vector = _set_l2_dykstra(cost, weights, bounds, space)
    else:
        vector = _set_numeric(cost, weights, bounds, space)
    vector = space.clip(vector)
    if not np.all(weights @ vector < gaps):
        raise InfeasibleError("query set cannot be hit jointly within the strategy bounds")
    return Strategy(vector, cost=cost(vector))


def _set_linear_lp(
    cost: L1Cost | AsymmetricLinearCost,
    weights: np.ndarray,
    bounds: np.ndarray,
    space: StrategySpace,
) -> np.ndarray:
    """L1 and asymmetric linear costs: the LP over ``s = u - v``, priced per part."""
    d = cost.dim
    c = np.concatenate(_prices(cost))
    a_ub = np.hstack([weights, -weights])
    result = linprog(c, a_ub=a_ub, b_ub=bounds, bounds=_split_box(space))
    return result.x[:d] - result.x[d:]


def _set_linf_lp(
    cost: LInfCost, weights: np.ndarray, bounds: np.ndarray, space: StrategySpace
) -> np.ndarray:
    """L-infinity: minimize ``t`` over ``s = u - v`` with ``w_i (u_i + v_i) <= t``.

    Any ``s`` with cost ``t`` gives a feasible point (its positive and
    negative parts), and any feasible point's ``u - v`` costs at most
    ``t``, so the LP optimum is the set's cheapest strategy.
    """
    d = cost.dim
    c = np.zeros(2 * d + 1)
    c[-1] = 1.0
    scale = np.diag(cost.weights)
    a_ub = np.vstack([
        np.hstack([weights, -weights, np.zeros((weights.shape[0], 1))]),
        np.hstack([scale, scale, -np.ones((d, 1))]),
    ])
    b_ub = np.concatenate([bounds, np.zeros(d)])
    result = linprog(c, a_ub=a_ub, b_ub=b_ub, bounds=_split_box(space) + [(0.0, None)])
    return result.x[:d] - result.x[d : 2 * d]


def _split_box(space: StrategySpace) -> list[tuple[float, float | None]]:
    """LP bounds of ``u`` and ``v`` in ``s = u - v``: the room the box leaves."""
    room = np.concatenate([space.upper, -space.lower])
    return [(0.0, float(r) if np.isfinite(r) else None) for r in room]


def _set_l2_dykstra(
    cost: L2Cost,
    weights: np.ndarray,
    bounds: np.ndarray,
    space: StrategySpace,
    iterations: int = 2000,
) -> np.ndarray:
    """Minimum weighted-norm point of the polyhedron via Dykstra.

    In the metric ``||s||_w = sqrt(sum w_i s_i^2)``, projecting the
    origin onto the intersection of the halfspaces and the box yields
    the optimum.  Work in scaled coordinates ``u = sqrt(w) * s`` where
    the metric is Euclidean; each constraint row rescales accordingly.
    """
    scale = np.sqrt(cost.weights)
    a = weights / scale  # constraint rows in u-space
    lo = space.lower * scale
    hi = space.upper * scale
    sets = [("half", i) for i in range(a.shape[0])] + [("box", None)]
    u = np.zeros(cost.dim)
    corrections = {key: np.zeros(cost.dim) for key in sets}
    row_norms = np.einsum("ij,ij->i", a, a)
    if np.any(row_norms <= 0):
        raise InfeasibleError("a query with all-zero weights cannot be hit")
    for __ in range(iterations):
        shift = 0.0
        for key in sets:
            kind, i = key
            y = u + corrections[key]
            if kind == "half":
                violation = float(a[i] @ y) - bounds[i]
                projected = y - (max(violation, 0.0) / row_norms[i]) * a[i] if violation > 0 else y
            else:
                projected = np.clip(y, lo, hi)
            corrections[key] = y - projected
            shift = max(shift, float(np.abs(projected - u).max(initial=0.0)))
            u = projected
        if shift < EPS_CONVERGENCE:
            break
    return u / scale


def _set_numeric(
    cost: CostFunction,
    weights: np.ndarray,
    bounds: np.ndarray,
    space: StrategySpace,
    iterations: int = 500,
) -> np.ndarray:
    """Projected subgradient with cyclic feasibility projections."""

    def project(s: np.ndarray) -> np.ndarray:
        row_norms = np.einsum("ij,ij->i", weights, weights)
        if np.any(row_norms <= 0):
            raise InfeasibleError("a query with all-zero weights cannot be hit")
        for __ in range(500):
            s = np.clip(s, space.lower, space.upper)
            violations = weights @ s - bounds
            worst = int(np.argmax(violations))
            if violations[worst] <= EPS_CONVERGENCE:
                return s
            s = s - (violations[worst] / row_norms[worst]) * weights[worst]
        raise InfeasibleError("query set cannot be hit jointly within the strategy bounds")

    warm = _set_l2_dykstra(L2Cost(cost.dim), weights, bounds, space)
    best = project(warm)
    best_cost = cost(best)
    current = best.copy()
    step0 = max(1.0, float(np.linalg.norm(best)))
    for t in range(1, iterations + 1):
        grad = _numeric_gradient(cost, current)
        norm = float(np.linalg.norm(grad))
        if norm <= EPS_CONVERGENCE:
            break
        current = project(current - (step0 / (norm * np.sqrt(t))) * grad)
        value = cost(current)
        if value < best_cost:
            best, best_cost = current.copy(), value
    return best


def _numeric_gradient(cost: CostFunction, s: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    grad = np.empty_like(s)
    for i in range(s.shape[0]):
        bump = np.zeros_like(s)
        bump[i] = h
        grad[i] = (cost(s + bump) - cost(s - bump)) / (2 * h)
    return grad
