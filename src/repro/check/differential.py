"""Differential oracles: maintenance, ESE parity, and IQ contracts.

Three behavioural equivalences, each checked by re-deriving the answer
through an independent path and raising
:class:`~repro.errors.CheckFailure` on divergence:

* **update vs rebuild** (:func:`check_scenario`) — replay a
  :class:`Scenario` (an op sequence over ``repro.core.updates``, each
  op on a ranked prefix table whose kept rows must match a brute-force
  ranking after it, as the kept contender rows must match a
  recomputation) and compare the incrementally maintained index
  against a fresh build on the final data: both must pass every
  invariant oracle, the
  incremental partition must equal the fresh one (exact mode) or refine
  it (relevant mode, whose arrangement keeps harmless stale
  hyperplanes), and ``hits_mask`` must agree for every object — and
  agree with a brute-force top-k evaluation away from tie bands.
* **affected vs full ESE** (:func:`check_affected_parity`) —
  ``evaluate_affected`` must produce the same mask as a full
  ``hits_mask`` re-evaluation for random moves *and* for engineered
  moves that land the target's score inside the tie band of a
  threshold, where the id tie-break decides membership.  At those
  moves ``hits_mask`` and ``evaluate_many`` must also equal
  ``_beats_batch``, the reference statement of Eq. 6 that no
  production path runs, and so must the evaluator's cached per-query
  cutoffs on scores planted at every row's band edges.
* **IQ result contracts** (:func:`check_iq_contracts`) — a Min-Cost /
  Max-Hit result's reported ``total_cost`` / ``hits_after`` /
  ``satisfied`` fields must survive re-verification from scratch
  (strategy re-costed under the IQ's own cost and held to its box, hits
  recounted on a fresh index of the improved data and by brute force,
  budget/goal re-checked), under free L2 and under boxed L1,
  L-infinity and asymmetric costs.  Each IQ is also replayed iteration
  by iteration: every candidate's hits, scored whole in one product,
  must stay within its bound, and the bounded selections must pick
  what scoring every candidate picks (:func:`check_selection_at_scale`
  does the same at a size where the searches bound by themselves).

Scenarios use ``sense="min"`` datasets, so external and internal
strategy coordinates coincide and results can be re-checked without
boundary conversion.  Removal ops name a *slot* resolved modulo the
current id range at replay time, which keeps every subsequence of an op
list replayable — the property the fuzz shrinker relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import EPS_COST, EPS_FEASIBILITY
from repro.check.oracles import check_index_invariants, check_prefixes, check_relevant_closure
from repro.core import _search, updates
from repro.core._search import (
    CandidateBatch,
    SearchState,
    Scorer,
    apply_candidate,
    best_ratio,
    cheapest_reaching,
    generate_candidates,
)
from repro.core.cost import AsymmetricLinearCost, CostFunction, L1Cost, L2Cost, LInfCost
from repro.core.engine import ImprovementQueryEngine
from repro.core.ese import StrategyEvaluator, _eq6_counts, _eq6_hits
from repro.core.objects import Dataset
from repro.core.queries import QuerySet
from repro.core.results import IQResult
from repro.core.strategy import StrategySpace
from repro.core.subdomain import _TIE_TOL, SubdomainIndex, _beats_batch
from repro.data.synthetic import generate, independent
from repro.data.workloads import uniform_queries
from repro.errors import CheckFailure

__all__ = [
    "AddObject",
    "AddQuery",
    "RemoveObject",
    "RemoveQuery",
    "Scenario",
    "brute_force_hits",
    "check_affected_parity",
    "check_iq_contracts",
    "check_scenario",
    "check_selection_at_scale",
    "initial_data",
    "replay",
]


# ----------------------------------------------------------------------
# Op sequence model
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AddQuery:
    """Insert a top-k query with the given weights."""

    weights: tuple[float, ...]
    k: int

    def apply(self, index: SubdomainIndex) -> None:
        """Apply this op to ``index`` via the maintenance layer."""
        updates.add_query(index, np.asarray(self.weights, dtype=float), self.k)


@dataclass(frozen=True)
class RemoveQuery:
    """Remove the query at ``slot % m`` (skipped when only one is left)."""

    slot: int

    def apply(self, index: SubdomainIndex) -> None:
        """Apply this op to ``index`` via the maintenance layer."""
        if index.queries.m <= 1:
            return  # keep the workload non-empty
        updates.remove_query(index, self.slot % index.queries.m)


@dataclass(frozen=True)
class AddObject:
    """Insert an object with the given attribute vector."""

    attributes: tuple[float, ...]

    def apply(self, index: SubdomainIndex) -> None:
        """Apply this op to ``index`` via the maintenance layer."""
        updates.add_object(index, np.asarray(self.attributes, dtype=float))


@dataclass(frozen=True)
class RemoveObject:
    """Remove the object at ``slot % n`` (skipped when only two are left)."""

    slot: int

    def apply(self, index: SubdomainIndex) -> None:
        """Apply this op to ``index`` via the maintenance layer."""
        if index.dataset.n <= 2:
            return  # keep enough objects for rankings to mean anything
        updates.remove_object(index, self.slot % index.dataset.n)


Op = AddQuery | RemoveQuery | AddObject | RemoveObject


@dataclass(frozen=True)
class Scenario:
    """A replayable correctness scenario: initial config + op sequence.

    The repr is copy-pasteable: evaluating it and passing the result to
    :func:`replay` (or :func:`check_scenario`) reproduces the exact
    index state, because the initial data is derived from the seeds and
    removal ops resolve ids modulo the current state.
    """

    kind: str = "IN"  #: synthetic dataset family (IN / CO / AC)
    mode: str = "exact"  #: index mode (exact / relevant)
    n: int = 8  #: initial object count
    m: int = 10  #: initial query count
    d: int = 2  #: dimensionality
    seed: int = 0  #: data seed (queries use ``seed + 1``)
    k_max: int = 3  #: per-query k drawn from [1, k_max]
    #: Round the initial objects and query weights to a 0.1 grid, where
    #: scores tie exactly or to within their last bits.
    grid: bool = False
    ops: tuple[Op, ...] = field(default_factory=tuple)


def initial_data(scenario: Scenario) -> "tuple[Dataset, QuerySet]":
    """The scenario's objects and queries before its first op."""
    points = generate(scenario.kind, scenario.n, scenario.d, scenario.seed)
    queries = uniform_queries(
        scenario.m, scenario.d, seed=scenario.seed + 1, k_range=(1, scenario.k_max)
    )
    if scenario.grid:
        return Dataset(np.round(points, 1)), QuerySet(np.round(queries.weights, 1), queries.ks)
    return Dataset(points), queries


def replay(scenario: Scenario) -> SubdomainIndex:
    """Build the initial index and apply the scenario's ops in order.

    Each op runs on a ranked prefix table, as after a read, so the
    updates edit ranked rows.  After each op every ranked row is held
    to a brute-force ranking (:func:`~repro.check.oracles.check_prefixes`)
    and, in relevant mode, every kept contender row to a recomputation
    (:func:`~repro.check.oracles.check_relevant_closure`): a row an
    update kept wrongly fails at that op.
    """
    index = SubdomainIndex(*initial_data(scenario), mode=scenario.mode)
    for op in scenario.ops:
        index._prefix_rows()
        op.apply(index)
        check_prefixes(index)
        check_relevant_closure(index)
    return index


# ----------------------------------------------------------------------
# Brute force reference
# ----------------------------------------------------------------------
def brute_force_hits(
    matrix: np.ndarray, weights: np.ndarray, ks: np.ndarray, target: int
) -> tuple[np.ndarray, np.ndarray]:
    """Reference membership mask, derived directly from the definition.

    Returns ``(mask, ambiguous)``: ``mask[j]`` is True when ``target``
    is among the ``ks[j]`` lowest-scoring objects at query ``j`` under
    the lexicographic ``(score, id)`` order, and ``ambiguous[j]`` is
    True when the target's score sits within the relative tie band of
    the k-th-other threshold — positions where the float-exact brute
    force and the banded Eq. 6 evaluator may legitimately disagree, so
    callers compare masks only where ``~ambiguous``.
    """
    matrix = np.asarray(matrix, dtype=float)
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    n = matrix.shape[0]
    m = weights.shape[0]
    mask = np.zeros(m, dtype=bool)
    ambiguous = np.zeros(m, dtype=bool)
    ids = np.arange(n)
    for j in range(m):
        scores = matrix @ weights[j]
        order = np.lexsort((ids, scores))
        k = int(ks[j])
        mask[j] = bool(np.any(order[: min(k, n)] == target))
        others = order[order != target]
        if k <= others.shape[0]:
            theta = float(scores[others[k - 1]])
            band = _TIE_TOL * max(1.0, abs(theta))
            ambiguous[j] = abs(float(scores[target]) - theta) <= band
        else:
            mask[j] = True  # fewer than k other objects exist
    return mask, ambiguous


# ----------------------------------------------------------------------
# Update-vs-rebuild differential
# ----------------------------------------------------------------------
def _cells(index: SubdomainIndex) -> set[tuple[int, ...]]:
    return {tuple(members.tolist()) for members in index.cell_members()}


def _check_partition_equivalence(
    incremental: SubdomainIndex, fresh: SubdomainIndex
) -> None:
    """Exact mode: identical partitions.  Relevant mode: refinement.

    A relevant-mode incremental index keeps hyperplanes whose objects
    are no longer contenders; extra hyperplanes only split cells, so
    every incremental cell must fall inside exactly one fresh cell.
    """
    if incremental.mode == "exact":
        if _cells(incremental) != _cells(fresh):
            raise CheckFailure(
                "incremental exact-mode partition differs from a fresh build: "
                f"{sorted(_cells(incremental))} vs {sorted(_cells(fresh))}"
            )
        return
    for sid, members in enumerate(incremental.cell_members()):
        fresh_sids = np.unique(fresh.subdomain_of[members])
        if fresh_sids.shape[0] > 1:
            raise CheckFailure(
                "incremental relevant-mode partition does not refine the fresh "
                f"build: cell {sid} members {members.tolist()} span "
                f"fresh cells {fresh_sids.tolist()}"
            )


def _check_hits_parity(incremental: SubdomainIndex, fresh: SubdomainIndex) -> None:
    """Every object's hit mask agrees: incremental == fresh == brute force."""
    weights = incremental.queries.weights
    ks = incremental.queries.ks
    matrix = incremental.dataset.matrix
    for target in range(incremental.dataset.n):
        mask_inc = incremental.hits_mask(target)
        mask_fresh = fresh.hits_mask(target)
        if not np.array_equal(mask_inc, mask_fresh):
            diverging = np.flatnonzero(mask_inc != mask_fresh)
            raise CheckFailure(
                f"hits_mask({target}) differs between the maintained index and "
                f"a fresh build at queries {diverging.tolist()}"
            )
        brute, ambiguous = brute_force_hits(matrix, weights, ks, target)
        settled = ~ambiguous
        if not np.array_equal(mask_inc[settled], brute[settled]):
            diverging = np.flatnonzero(settled & (mask_inc != brute))
            raise CheckFailure(
                f"hits_mask({target}) differs from brute-force top-k membership "
                f"at queries {diverging.tolist()}"
            )


def check_scenario(scenario: Scenario) -> SubdomainIndex:
    """Replay a scenario and run the full update-vs-rebuild differential.

    Returns the maintained index (so callers can run further oracles on
    it); raises :class:`~repro.errors.CheckFailure` or
    :class:`~repro.errors.IndexCorruptionError` on the first divergence.
    """
    index = replay(scenario)
    check_index_invariants(index)
    fresh = SubdomainIndex(index.dataset, index.queries, mode=index.mode)
    check_index_invariants(fresh)
    _check_partition_equivalence(index, fresh)
    _check_hits_parity(index, fresh)
    return index


# ----------------------------------------------------------------------
# Affected-subspace vs full ESE
# ----------------------------------------------------------------------
def _compare_affected(
    evaluator: StrategyEvaluator,
    target: int,
    old_position: np.ndarray,
    new_position: np.ndarray,
    label: str,
) -> None:
    hits_affected, mask_affected = evaluator.evaluate_affected(
        target, old_position, new_position
    )
    mask_full = evaluator.hits_mask(target, new_position)
    if not np.array_equal(mask_affected, mask_full):
        diverging = np.flatnonzero(mask_affected != mask_full)
        raise CheckFailure(
            f"evaluate_affected diverges from evaluate for target {target} on a "
            f"{label} move at queries {diverging.tolist()}"
        )
    if hits_affected != int(mask_full.sum()):
        raise CheckFailure(
            f"evaluate_affected hit count {hits_affected} disagrees with its own "
            f"mask for target {target} ({label} move)"
        )


def _compare_reference(
    evaluator: StrategyEvaluator, target: int, positions: np.ndarray, label: str
) -> None:
    """``hits_mask`` and ``evaluate_many`` ≡ ``_beats_batch`` at ``positions``.

    The reference sees the same score products as each path (``weights
    @ block.T`` for the batch, ``weights @ position`` for one mask),
    so any difference is the kernel's.
    """
    kth_ids, theta = evaluator.thresholds(target)
    weights = evaluator.index.queries.weights
    expected = _beats_batch(weights @ positions.T, theta, target, kth_ids).sum(axis=0)
    counts = evaluator.evaluate_many(target, positions)
    if not np.array_equal(counts, expected):
        raise CheckFailure(
            f"evaluate_many counts {counts.tolist()} differ from the reference "
            f"Eq. 6 counts {expected.tolist()} for target {target} ({label} moves)"
        )
    for position in positions:
        mask = evaluator.hits_mask(target, position)
        reference = _beats_batch((weights @ position)[:, None], theta, target, kth_ids)[:, 0]
        if not np.array_equal(mask, reference):
            diverging = np.flatnonzero(mask != reference)
            raise CheckFailure(
                f"hits_mask diverges from the reference Eq. 6 test for target "
                f"{target} on a {label} move at queries {diverging.tolist()}"
            )


def _compare_band_edges(evaluator: StrategyEvaluator, target: int) -> None:
    """The cached cutoffs ≡ ``_beats_batch`` on scores at every row's band edges.

    A position rarely lands its score on an exact float, so the edges
    are planted as scores: ``theta``, ``theta +- b/2``, ``theta +- b``
    and the last float under each row's cutoff, each with its
    neighbours two floats either way.  A cutoff one float off fails
    here, and so does a missed or extra hole at ``fl(theta - b)``.
    """
    kth_ids, theta, cutoffs = evaluator._cached(target)
    with np.errstate(over="ignore", invalid="ignore"):
        center = np.where(np.isinf(theta), 0.0, theta)
        band = _TIE_TOL * np.maximum(1.0, np.abs(center))
        edges = [
            center, center - band / 2, center + band / 2, center - band, center + band,
            np.nextafter(cutoffs.cut, -np.inf),
        ]
        columns = list(edges)
        for edge in edges:
            up, down = edge, edge
            for __ in range(2):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                columns += [up, down]
        scores = np.stack(columns, axis=1)
        expected = _beats_batch(scores, theta, target, kth_ids)
    hits = _eq6_hits(scores, cutoffs)
    if not np.array_equal(hits, expected) or not np.array_equal(
        _eq6_counts(scores, cutoffs), expected.sum(axis=0)
    ):
        rows = np.flatnonzero((hits != expected).any(axis=1))
        raise CheckFailure(
            f"the cached Eq. 6 cutoffs of target {target} disagree with the "
            f"reference test at band-edge scores of queries {rows.tolist()}"
        )


def check_affected_parity(
    index: SubdomainIndex,
    rng: np.random.Generator,
    targets: int = 2,
    moves: int = 3,
) -> None:
    """``evaluate_affected`` ≡ full re-evaluation, tie bands included.

    For each sampled target: ``moves`` random moves, then engineered
    moves that place the target's score exactly on / just inside the
    tie band of a query's threshold (where membership is decided by the
    id tie-break and the raw hyperplane side never flips — the
    ESE-parity bug's hiding spot).  The engineered moves and the band
    edges are also held to the reference Eq. 6 test
    (:func:`_compare_reference`, :func:`_compare_band_edges`), since
    ``evaluate_affected`` and ``hits_mask`` share one kernel.
    """
    evaluator = StrategyEvaluator(index)
    n = index.dataset.n
    d = index.dataset.dim
    weights = index.queries.weights
    chosen = rng.choice(n, size=min(targets, n), replace=False)
    for target in (int(t) for t in chosen):
        old = index.dataset.matrix[target].copy()
        for __ in range(moves):
            delta = rng.normal(0.0, 0.3, size=d)
            _compare_affected(evaluator, target, old, old + delta, "random")
        kth_ids, theta = evaluator.thresholds(target)
        _compare_band_edges(evaluator, target)
        landed: list[np.ndarray] = []
        probed = 0
        for j in range(weights.shape[0]):
            if probed >= 2 or not np.isfinite(theta[j]):
                continue
            q = weights[j]
            denom = float(q @ q)
            if denom <= 0.0:
                continue
            band = _TIE_TOL * max(1.0, abs(float(theta[j])))
            for frac in (0.0, 0.5, -0.5):
                landing = float(theta[j]) + frac * band
                new = old + q * ((landing - float(q @ old)) / denom)
                _compare_affected(evaluator, target, old, new, "tie-band")
                landed.append(new)
            probed += 1
        if landed:
            _compare_reference(evaluator, target, np.array(landed), "tie-band")


# ----------------------------------------------------------------------
# IQ result contracts
# ----------------------------------------------------------------------
def _recheck_hits(index: SubdomainIndex, result: IQResult, label: str) -> None:
    """Recount ``hits_after`` on a fresh index of the improved data."""
    improved = index.dataset.improved(result.target, result.strategy.vector)
    fresh = SubdomainIndex(improved, index.queries, mode=index.mode)
    recounted = int(fresh.hits_mask(result.target).sum())
    if recounted != result.hits_after:
        raise CheckFailure(
            f"{label} result reports hits_after={result.hits_after} but a fresh "
            f"index of the improved data counts {recounted}"
        )
    brute, ambiguous = brute_force_hits(
        improved.matrix, index.queries.weights, index.queries.ks, result.target
    )
    mask_fresh = fresh.hits_mask(result.target)
    settled = ~ambiguous
    if not np.array_equal(mask_fresh[settled], brute[settled]):
        diverging = np.flatnonzero(settled & (mask_fresh != brute))
        raise CheckFailure(
            f"{label} improved-data hit mask differs from brute force at "
            f"queries {diverging.tolist()}"
        )


def _recheck_cost(
    result: IQResult, label: str, cost: CostFunction, space: StrategySpace | None = None
) -> None:
    """Re-cost the strategy under the IQ's own cost, inside its own box."""
    if abs(result.total_cost - result.strategy.cost) > EPS_FEASIBILITY:
        raise CheckFailure(
            f"{label} result total_cost={result.total_cost} disagrees with its "
            f"strategy cost {result.strategy.cost}"
        )
    if result.total_cost < 0.0:
        raise CheckFailure(f"{label} result reports negative cost {result.total_cost}")
    if space is not None and not space.contains(result.strategy.vector):
        raise CheckFailure(
            f"{label} strategy {result.strategy.vector} leaves its box "
            f"[{space.lower}, {space.upper}]"
        )
    recosted = cost(result.strategy.vector)
    if recosted > result.total_cost + EPS_FEASIBILITY:
        raise CheckFailure(
            f"{label} applied strategy re-costs to {recosted}, above the "
            f"reported accumulated spend {result.total_cost}"
        )


def _pick(
    costs: np.ndarray,
    query_ids: np.ndarray,
    counts: np.ndarray,
    tau: int | None,
    bounds: np.ndarray | None = None,
    score: Scorer | None = None,
) -> int:
    """One greedy iteration's pick: the best ratio, or past ``tau`` the cheapest reaching it."""
    pick = best_ratio(costs, query_ids, counts, bounds, score)
    if tau is not None and np.isfinite(costs[pick]) and counts[pick] > tau:
        pick = cheapest_reaching(costs, query_ids, counts, tau, bounds, score)
    return pick


def _check_selection(
    evaluator: StrategyEvaluator,
    state: SearchState,
    cost: CostFunction,
    batch: CandidateBatch,
    tau: int | None,
    where: str,
) -> int:
    """Hold one iteration's selections to scoring every candidate whole.

    Every candidate's hits, scored whole in one product, must stay within
    its :func:`~repro.core._search.hit_bounds`, and so must each count
    the batch scored itself.  The bounded selection, run on those same
    counts whatever the batch size, and the batch's own selection must
    both pick what every count picks.  Returns that pick.
    """
    hits = batch.hits
    bounds = _search.hit_bounds(evaluator, state, cost, batch.vectors, batch.costs)
    for counts, kind in ((hits, "scored whole"), (batch.counts, "as the batch scored it")):
        over = np.flatnonzero(counts > bounds)
        if over.size:
            j = int(over[0])
            raise CheckFailure(
                f"{where}: the candidate for query {batch.query_ids[j]} hits {counts[j]} "
                f"queries {kind}, above its bound {bounds[j]}"
            )

    def whole(rows: "np.ndarray | slice") -> np.ndarray:
        return hits[rows]

    unscored = np.full(batch.size, -1, dtype=np.intp)
    picks = {
        "every candidate scored": _pick(batch.costs, batch.query_ids, hits, tau),
        "bounded selection": _pick(batch.costs, batch.query_ids, unscored, tau, bounds, whole),
        "the batch's own selection": _pick(
            batch.costs, batch.query_ids, batch.counts, tau, batch.bounds, batch.score
        ),
    }
    expected = picks["every candidate scored"]
    if any(pick != expected for pick in picks.values()):
        described = ", ".join(
            f"{name} query {batch.query_ids[pick]}" for name, pick in picks.items()
        )
        raise CheckFailure(f"{where}: the selections disagree: {described}")
    return expected


def _replay_selections(
    engine: ImprovementQueryEngine,
    result: IQResult,
    label: str,
    cost: CostFunction,
    space: StrategySpace | None,
    tau: int | None = None,
    budget: float | None = None,
) -> None:
    """Replay a Min-Cost (``tau``) or Max-Hit (``budget``) IQ iteration by iteration.

    Each iteration regenerates the candidates the search saw, checks its
    selections (:func:`_check_selection`) and applies the candidate the
    search applied; the replay must pick that candidate from a batch of
    the recorded size.  Internal and external coordinates coincide
    (``sense="min"``), so ``cost`` and ``space`` are what the search saw.
    """
    index, evaluator = engine.index, engine.evaluator
    d = index.dataset.dim
    space = space or StrategySpace.unconstrained(d)
    target = result.target
    state = SearchState(
        target=target,
        base=index.dataset.matrix[target].copy(),
        applied=np.zeros(d),
        spent=0.0,
        mask=evaluator.hits_mask(target),
    )
    for step, record in enumerate(result.iterations):
        max_cost = None if budget is None else budget + EPS_COST - state.spent
        batch = generate_candidates(
            evaluator, state, cost, space.shifted(state.applied), max_cost=max_cost
        )
        where = f"{label} iteration {step}"
        pick = _check_selection(evaluator, state, cost, batch, tau, where)
        if batch.size != record.candidates or int(batch.query_ids[pick]) != record.query_id:
            raise CheckFailure(
                f"{where}: the replay picks query {batch.query_ids[pick]} of "
                f"{batch.size} candidates, the search picked query {record.query_id} "
                f"of {record.candidates}"
            )
        apply_candidate(evaluator, state, batch, pick, [])


def _check_pair(
    engine: ImprovementQueryEngine,
    rng: np.random.Generator,
    cost: CostFunction,
    space: StrategySpace | None,
    name: str,
) -> None:
    """One Min-Cost and one Max-Hit IQ under ``cost`` in ``space``, re-verified."""
    index = engine.index
    target = int(rng.integers(index.dataset.n))
    tau = min(index.queries.m, engine.hits(target) + 2)
    label = f"min_cost ({name})"
    result = engine.min_cost(target, tau, cost=cost, space=space)
    _recheck_cost(result, label, cost, space)
    _recheck_hits(index, result, label)
    _replay_selections(engine, result, label, cost, space, tau=tau)
    if result.satisfied != (result.hits_after >= tau):
        raise CheckFailure(
            f"{label} satisfied={result.satisfied} contradicts "
            f"hits_after={result.hits_after} vs tau={tau}"
        )

    label = f"max_hit ({name})"
    budget = 0.25 * (1.0 + float(rng.random()))
    result = engine.max_hit(target, budget, cost=cost, space=space)
    _recheck_cost(result, label, cost, space)
    _recheck_hits(index, result, label)
    _replay_selections(engine, result, label, cost, space, budget=budget)
    if result.total_cost > budget + EPS_COST:
        raise CheckFailure(
            f"{label} spent {result.total_cost} beyond budget {budget} plus the "
            "once-only slack"
        )
    if not result.satisfied:
        raise CheckFailure(
            f"{label} returned satisfied=False; the best prefix is always within "
            "budget by construction"
        )
    if result.hits_after < result.hits_before:
        raise CheckFailure(
            f"{label} result lost hits: {result.hits_before} -> {result.hits_after}"
        )


def check_iq_contracts(index: SubdomainIndex, rng: np.random.Generator) -> None:
    """Min-Cost / Max-Hit results must survive re-verification from scratch.

    Runs one ``min_cost`` and one ``max_hit`` query through the engine
    (a reachable goal / a small budget) under the free L2 cost, then
    under L1, L-infinity and asymmetric linear costs in one random box,
    and re-checks every reported field: the strategy stays in its box,
    the accumulated cost bounds a re-costing of the applied strategy
    under the IQ's own cost, ``hits_after`` matches a fresh index of the
    improved data and brute force, and the feasibility flag means what
    it documents.
    """
    engine = ImprovementQueryEngine.from_index(index)
    d = index.dataset.dim
    _check_pair(engine, rng, L2Cost(d), None, "L2")
    box = StrategySpace(d, lower=-rng.uniform(0.02, 0.3, d), upper=rng.uniform(0.02, 0.3, d))
    prices = rng.uniform(0.5, 2.0, (3, d))
    for cost, name in (
        (L1Cost(d, prices[0]), "L1, boxed"),
        (LInfCost(d, prices[0]), "LINF, boxed"),
        (AsymmetricLinearCost(d, up=prices[1], down=prices[2]), "asymmetric, boxed"),
    ):
        _check_pair(engine, rng, cost, box, name)


def check_selection_at_scale() -> None:
    """Greedy selections where the searches bound by themselves, replayed.

    On the ``query`` benchmark's inputs (IN objects, n = 2000, seed
    20170321; uniform queries, m = 600, seed 20170322, k in [1, 10];
    d = 3, relevant mode) batches cross the whole-scoring line, so the
    searches score only what their bounds leave.  The first object that
    some query ranks and the first that none does each run a Min-Cost
    IQ (``tau = 10``) and a Max-Hit IQ (budget 0.3), under the free L2
    cost and under an L1 cost in a box, and every iteration is replayed
    against whole-batch scoring (:func:`_replay_selections`).
    """
    engine = ImprovementQueryEngine(
        Dataset(independent(2000, 3, seed=20170321)),
        uniform_queries(600, 3, seed=20170322, k_range=(1, 10)),
        mode="relevant",
    )
    ranked = next(target for target in range(2000) if engine.hits(target) > 0)
    unranked = next(target for target in range(2000) if engine.hits(target) == 0)
    box = StrategySpace(3, lower=np.full(3, -0.2), upper=np.full(3, 0.2))
    for target in (ranked, unranked):
        for cost, space, name in (
            (L2Cost(3), None, "L2"),
            (L1Cost(3, np.array([1.0, 2.0, 0.5])), box, "L1, boxed"),
        ):
            label = f"at scale, target {target}, min_cost ({name})"
            result = engine.min_cost(target, 10, cost=cost, space=space)
            _replay_selections(engine, result, label, cost, space, tau=10)
            label = f"at scale, target {target}, max_hit ({name})"
            result = engine.max_hit(target, 0.3, cost=cost, space=space)
            _replay_selections(engine, result, label, cost, space, budget=0.3)
