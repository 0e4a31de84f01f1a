"""Canonical numeric tolerances for the whole library.

The paper's correctness rests on razor-thin geometric predicates: which
side of a hyperplane a query falls on (Facts 1-2, Eq. 6) decides whether
a hit is counted at all.  An inconsistent tolerance between two modules
does not crash — it silently flips hit counts near boundaries.  Every
float tolerance therefore lives *here*, under a name that says what it
guards, and nowhere else.  The static-analysis rule **RPR001**
(:mod:`repro.analysis`) rejects literal tolerances in any other module.

Grouping
--------
Geometric predicates (must all agree, or point-membership tests and
partition signatures disagree near boundaries):

* :data:`EPS` — the canonical side-of-hyperplane tolerance.
* :data:`EPS_TIE` — score ties when ranking objects at a query.

Optimization:

* :data:`LP_TOL`, :data:`LP_RESIDUAL_TOL` — simplex internals.
* :data:`DEFAULT_MARGIN` — strict-to-closed inequality slack (an
  absolute margin; meaningful because the query domain is normalized
  to the unit box).
* :data:`EPS_FEASIBILITY` — verification slack on returned solutions.
* :data:`EPS_CONVERGENCE`, :data:`FD_STEP` — iterative numeric solvers.
* :data:`EPS_COST` — cost comparisons in branch-and-bound pruning.

Benchmarking:

* :data:`EPS_TIME` — denominator guard in speedup ratios.
* :data:`ATOL_PARITY` — literal-vs-vectorized parity comparisons.
"""

from __future__ import annotations

__all__ = [
    "EPS",
    "EPS_TIE",
    "EPS_CONVERGENCE",
    "EPS_COST",
    "EPS_FEASIBILITY",
    "EPS_TIME",
    "ATOL_PARITY",
    "LP_TOL",
    "LP_RESIDUAL_TOL",
    "DEFAULT_MARGIN",
    "FD_STEP",
    "TOLERANCE_BAND",
]

#: Canonical geometric tolerance: ``q . normal <= EPS`` counts as *above*
#: (paper §4.1 side convention).  Every side test — single-point,
#: vectorized signature matrices, and region membership — must use this
#: one value so partition signatures and point-in-subdomain tests agree.
EPS = 1e-12

#: Two object scores at a query within ``EPS_TIE`` are a rank tie and
#: are broken deterministically by object id (paper's "lower id wins").
EPS_TIE = 1e-12

#: Stationarity / fixed-point threshold for iterative solvers
#: (Dykstra's projections, projected subgradient): iteration stops once
#: the step or gradient norm drops below this.
EPS_CONVERGENCE = 1e-12

#: Cost comparison slack for branch-and-bound pruning and budget
#: filtering: ``a`` beats ``b`` only when ``a < b - EPS_COST``.
EPS_COST = 1e-12

#: Slack accepted when *verifying* that a returned strategy satisfies a
#: single hit constraint or budget (guards against accumulated rounding
#: in an otherwise exact solution).
EPS_FEASIBILITY = 1e-9

#: Denominator guard when computing speedup ratios from measured wall
#: times (avoids dividing by a ~0s vectorized measurement).
EPS_TIME = 1e-9

#: Absolute tolerance for literal-vs-vectorized parity assertions in the
#: benchmark-regression harness.
ATOL_PARITY = 1e-9

#: Simplex reduced-cost / pivot-eligibility tolerance.
LP_TOL = 1e-9

#: Accepted phase-1 artificial residual: a phase-1 objective above
#: ``-LP_RESIDUAL_TOL`` counts as feasible (pure numerical noise).
LP_RESIDUAL_TOL = 1e-7

#: Strictness slack turning the open hit constraint ``q . s < gap`` into
#: the closed ``q . s <= gap - DEFAULT_MARGIN`` solved by the optimizers.
DEFAULT_MARGIN = 1e-7

#: Central finite-difference step for numeric gradients of custom cost
#: functions.
FD_STEP = 1e-6

#: The magnitude band ``[low, high]`` that rule RPR001 treats as "a
#: tolerance": float literals in this band outside this module must be
#: replaced by a named constant.  Values below the band (e.g. ``1e-300``
#: denominator floors) and above it (step sizes, scale factors) are not
#: tolerances and stay unrestricted.
TOLERANCE_BAND = (1e-15, 1e-5)
