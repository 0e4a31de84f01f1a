"""Shared fault injection for the harness canary tests.

The ESE hot path classifies queries against the slab boundaries through
the batched ``ese._slab_crossings``, the one function that holds the tie
band, so re-creating the pre-fix tie-band-blind predicate patches it.

Eq. 6 itself runs through per-query cutoffs that the evaluator builds
with ``ese._eq6_cutoffs`` (the name ``ese`` imported), so the cutoff
canary patches that binding.

Pool workers run each request through the ``_run_one`` that
``repro.parallel.persistent`` imported, and inherit a patch of it when
they fork; the worker canary patches that binding.

The batched Eq. 13-14 solver looks its L1/asymmetric form up by name,
``hit_cost._knapsack_rows``, on every call, so the box canary patches
that binding.

``add_object`` unranks the prefix rows the newcomer enters through
``updates._unrank_rows_entered``, looked up by name on every call, so
the prefix canary patches that binding.

It re-ranks the contender rows the newcomer enters through
``updates._insert_into_contender_rows``, which asks
``updates._entered`` which rows those are; both are looked up by name
on every call, so the contender canary patches the second only while
the first runs, and the prefix rows are judged as before.

The greedy searches bound each candidate's hits through
``_search.hit_bounds``, and the IQ-contract replay asks it by name for
every batch it checks, so the bound canary patches that binding.
"""

import os

import numpy as np
import pytest

from repro.core import _search, ese, updates
from repro.core.strategy import StrategySpace
from repro.optimize import hit_cost
from repro.parallel import persistent


@pytest.fixture
def tie_band_blind(monkeypatch):
    """Inject the pre-fix predicate: affected iff the raw slab sign flips."""

    def sign_only(old_values, new_values, theta):
        return (np.asarray(old_values) > 0) != (np.asarray(new_values) > 0)

    monkeypatch.setattr(ese, "_slab_crossings", sign_only)
    return sign_only


@pytest.fixture
def cutoff_one_ulp_low(monkeypatch):
    """Move the first query's Eq. 6 cutoff one float down, for every target."""
    build = ese._eq6_cutoffs

    def shifted(theta, target, kth_ids):
        cutoffs = build(theta, target, kth_ids)
        cut = cutoffs.cut.copy()
        cut[:1] = np.nextafter(cut[:1], -np.inf)
        return cutoffs._replace(cut=cut)

    monkeypatch.setattr(ese, "_eq6_cutoffs", shifted)
    return shifted


@pytest.fixture
def forked_workers_drift(monkeypatch):
    """Add one hit to every result a forked pool worker computes.

    The parent process computes every serial reference and runs the
    0-worker pool, so only a check that forks a pool sees the change.
    """
    parent = os.getpid()
    run_one = persistent._run_one

    def drifting(engine, request):
        result = run_one(engine, request)
        if os.getpid() != parent:
            result.hits_after += 1
        return result

    monkeypatch.setattr(persistent, "_run_one", drifting)
    return drifting


@pytest.fixture
def knapsack_ignores_box(monkeypatch):
    """Solve L1 and asymmetric rows as if the strategy box were unbounded."""
    solve = hit_cost._knapsack_rows

    def boxless(cost, q, bounds, space):
        return solve(cost, q, bounds, StrategySpace.unconstrained(space.dim))

    monkeypatch.setattr(hit_cost, "_knapsack_rows", boxless)
    return boxless


@pytest.fixture
def newcomer_judged_one_entry_early(monkeypatch):
    """Judge an added object against the entry before each row's last.

    A row whose last slot the newcomer takes is then kept as it was.
    """
    unrank = updates._unrank_rows_entered

    def early(index, object_id):
        lengths = index.prefix_lengths
        index.prefix_lengths = np.where(lengths > 1, lengths - 1, lengths)
        unrank(index, object_id)
        index.prefix_lengths = np.where(index.prefix_lengths < 0, -1, lengths)

    monkeypatch.setattr(updates, "_unrank_rows_entered", early)
    return early


@pytest.fixture
def contender_newcomer_judged_one_entry_early(monkeypatch):
    """Judge an added object against the entry before each contender row's last.

    A contender row whose last slot the newcomer takes is then kept as it
    was.
    """
    insert, entered = updates._insert_into_contender_rows, updates._entered

    def early(weights, matrix, rows, lengths, object_id):
        shorter = np.where(lengths > 1, lengths - 1, lengths)
        return entered(weights, matrix, rows, shorter, object_id)

    def insert_early(index, object_id):
        updates._entered = early
        try:
            insert(index, object_id)
        finally:
            updates._entered = entered

    monkeypatch.setattr(updates, "_insert_into_contender_rows", insert_early)
    return insert_early


@pytest.fixture
def bound_without_own_query(monkeypatch):
    """Bound each candidate's hits as if it could not hit its own query.

    Every candidate can afford its own query, so this is one less than
    the bound.
    """
    bounds = _search.hit_bounds

    def short(evaluator, state, cost, vectors, costs):
        return bounds(evaluator, state, cost, vectors, costs) - 1

    monkeypatch.setattr(_search, "hit_bounds", short)
    return short
