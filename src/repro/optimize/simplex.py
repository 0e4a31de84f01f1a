"""A self-contained two-phase primal simplex linear-program solver.

The paper solves the single-constraint subproblem of Eq. 13-14 with "a
standard math tool" (it cites Khachiyan's polynomial LP algorithm).  We
provide our own dense simplex implementation so the library has no
dependency beyond numpy.  It is used for:

* L1 / linear min-cost-to-hit subproblems with box bounds
  (:mod:`repro.optimize.hit_cost`),
* the exhaustive exact IQ search (:mod:`repro.core.exhaustive`).

The interface mirrors the familiar ``linprog`` shape::

    result = linprog(c, a_ub=A, b_ub=b, a_eq=Aeq, b_eq=beq,
                     bounds=[(lo, hi), ...])

All problems are solved as minimization.  Infeasible problems raise
:class:`repro.errors.InfeasibleError`; unbounded problems raise
:class:`repro.errors.UnboundedError`.

Implementation notes
--------------------
The problem is converted to standard form (non-negative variables,
equality constraints) by shifting finitely-bounded variables, splitting
free variables into positive/negative parts, and adding slack variables
for inequalities and upper bounds.  Phase 1 minimizes the sum of
artificial variables with Bland's anti-cycling rule; phase 2 optimizes
the true objective starting from the phase-1 basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.constants import LP_RESIDUAL_TOL, LP_TOL as _TOL
from repro.errors import InfeasibleError, UnboundedError, ValidationError

__all__ = ["linprog", "LinprogResult"]


@dataclass
class LinprogResult:
    """Solution of a linear program."""

    x: np.ndarray  #: optimal primal solution in the original variables
    fun: float  #: optimal objective value
    iterations: int  #: total simplex pivots (both phases)


def linprog(
    c: "np.typing.ArrayLike",
    a_ub: "np.typing.ArrayLike | None" = None,
    b_ub: "np.typing.ArrayLike | None" = None,
    a_eq: "np.typing.ArrayLike | None" = None,
    b_eq: "np.typing.ArrayLike | None" = None,
    bounds: Sequence[tuple[float | None, float | None]] | None = None,
) -> LinprogResult:
    """Minimize ``c . x`` subject to ``a_ub x <= b_ub``, ``a_eq x = b_eq``.

    Parameters
    ----------
    c:
        Objective coefficients, length ``n``.
    a_ub, b_ub:
        Inequality constraints (optional).
    a_eq, b_eq:
        Equality constraints (optional).
    bounds:
        Per-variable ``(lo, hi)`` pairs; ``None`` entries mean
        unbounded on that side.  Defaults to ``x >= 0`` for every
        variable, matching the conventional LP standard form.
    """
    c = np.atleast_1d(np.asarray(c, dtype=float))
    n = c.shape[0]
    a_ub, b_ub = _check_system(a_ub, b_ub, n, "a_ub/b_ub")
    a_eq, b_eq = _check_system(a_eq, b_eq, n, "a_eq/b_eq")
    lows, highs = _normalize_bounds(bounds, n)

    std = _Standardizer(c, a_ub, b_ub, a_eq, b_eq, lows, highs)
    tableau_a, tableau_b, std_c = std.build()
    x_std, iterations = _two_phase(tableau_a, tableau_b, std_c)
    x = std.recover(x_std)
    return LinprogResult(x=x, fun=float(np.dot(c, x)), iterations=iterations)


def _check_system(
    a: "np.typing.ArrayLike | None",
    b: "np.typing.ArrayLike | None",
    n: int,
    label: str,
) -> tuple[np.ndarray, np.ndarray]:
    if a is None and b is None:
        return np.empty((0, n)), np.empty(0)
    if a is None or b is None:
        raise ValidationError(f"{label}: matrix and vector must be given together")
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise ValidationError(f"{label}: shape mismatch {a.shape} vs ({b.shape[0]}, {n})")
    return a, b


def _normalize_bounds(
    bounds: Sequence[tuple[float | None, float | None]] | None, n: int
) -> tuple[np.ndarray, np.ndarray]:
    if bounds is None:
        return np.zeros(n), np.full(n, np.inf)
    if len(bounds) != n:
        raise ValidationError(f"bounds must have {n} entries, got {len(bounds)}")
    lows = np.empty(n)
    highs = np.empty(n)
    for i, pair in enumerate(bounds):
        lo, hi = pair
        lows[i] = -np.inf if lo is None else float(lo)
        highs[i] = np.inf if hi is None else float(hi)
        if lows[i] > highs[i]:
            raise InfeasibleError(f"bound {i} is empty: ({lows[i]}, {highs[i]})")
    return lows, highs


class _Standardizer:
    """Converts a bounded LP to standard form and maps solutions back.

    Each original variable ``x_i`` becomes:

    * ``lo`` finite: ``x_i = lo + u_i`` with ``u_i >= 0`` (and an upper
      bound row ``u_i <= hi - lo`` when ``hi`` is finite too);
    * ``lo = -inf, hi`` finite: ``x_i = hi - u_i`` with ``u_i >= 0``;
    * free: ``x_i = u_i+ - u_i-``, two standard-form variables.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub: np.ndarray,
        b_ub: np.ndarray,
        a_eq: np.ndarray,
        b_eq: np.ndarray,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> None:
        self.c, self.a_ub, self.b_ub = c, a_ub, b_ub
        self.a_eq, self.b_eq = a_eq, b_eq
        self.lows, self.highs = lows, highs
        self.n = c.shape[0]

    def build(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.n
        # Column description of every standard-form variable: (orig, sign)
        self.columns: list[tuple[int, float]] = []
        shift = np.zeros(n)  # x = shift + sum(sign * u) over that var's columns
        extra_ub_rows = []  # (std_col, rhs) for finite ranges
        for i in range(n):
            lo, hi = self.lows[i], self.highs[i]
            if np.isfinite(lo):
                shift[i] = lo
                self.columns.append((i, 1.0))
                if np.isfinite(hi):
                    extra_ub_rows.append((len(self.columns) - 1, hi - lo))
            elif np.isfinite(hi):
                shift[i] = hi
                self.columns.append((i, -1.0))
            else:
                self.columns.append((i, 1.0))
                self.columns.append((i, -1.0))
        self.shift = shift
        k = len(self.columns)

        def to_std(matrix: np.ndarray) -> np.ndarray:
            out = np.zeros((matrix.shape[0], k))
            for j, (orig, sign) in enumerate(self.columns):
                out[:, j] = sign * matrix[:, orig]
            return out

        a_ub_std = to_std(self.a_ub)
        b_ub_std = self.b_ub - self.a_ub @ shift
        a_eq_std = to_std(self.a_eq)
        b_eq_std = self.b_eq - self.a_eq @ shift
        if extra_ub_rows:
            rows = np.zeros((len(extra_ub_rows), k))
            rhs = np.empty(len(extra_ub_rows))
            for r, (col, bound) in enumerate(extra_ub_rows):
                rows[r, col] = 1.0
                rhs[r] = bound
            a_ub_std = np.vstack([a_ub_std, rows])
            b_ub_std = np.concatenate([b_ub_std, rhs])

        # Add slacks: [A_ub | I] u = b_ub ; [A_eq | 0] u = b_eq
        m_ub, m_eq = a_ub_std.shape[0], a_eq_std.shape[0]
        total = k + m_ub
        a = np.zeros((m_ub + m_eq, total))
        a[:m_ub, :k] = a_ub_std
        a[:m_ub, k:] = np.eye(m_ub)
        a[m_ub:, :k] = a_eq_std
        b = np.concatenate([b_ub_std, b_eq_std])
        c_std = np.zeros(total)
        for j, (orig, sign) in enumerate(self.columns):
            c_std[j] += sign * self.c[orig]
        self.k = k
        return a, b, c_std

    def recover(self, x_std: np.ndarray) -> np.ndarray:
        x = self.shift.copy()
        for j, (orig, sign) in enumerate(self.columns):
            x[orig] += sign * x_std[j]
        return x


def _two_phase(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, int]:
    """Solve ``min c.u`` s.t. ``a u = b``, ``u >= 0``; returns (u, pivots)."""
    m, n = a.shape
    # Make all right-hand sides non-negative.
    neg = b < 0
    a = a.copy()
    b = b.copy()
    a[neg] *= -1
    b[neg] *= -1

    if m == 0:
        # No constraints: optimum is 0 unless some cost coefficient is
        # negative, in which case the problem is unbounded below.
        if np.any(c < -_TOL):
            raise UnboundedError("objective unbounded below (no constraints)")
        return np.zeros(n), 0

    # Phase 1: artificial basis.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # Phase-1 objective: minimize sum of artificials -> reduced costs.
    tableau[m, :n] = -a.sum(axis=0)
    tableau[m, -1] = -b.sum()
    basis = list(range(n, n + m))
    pivots1 = _iterate(tableau, basis, n + m)
    if tableau[m, -1] < -LP_RESIDUAL_TOL:
        raise InfeasibleError("linear program is infeasible")

    # Drive any artificial variables out of the basis (degenerate rows).
    for row, var in enumerate(basis):
        if var >= n:
            pivot_col = None
            for j in range(n):
                if abs(tableau[row, j]) > _TOL:
                    pivot_col = j
                    break
            if pivot_col is None:
                continue  # redundant constraint; row stays degenerate
            _pivot(tableau, row, pivot_col)
            basis[row] = pivot_col

    # Phase 2 objective row.
    tableau[m, :] = 0.0
    tableau[m, :n] = c
    for row, var in enumerate(basis):
        if var < n and abs(c[var]) > 0:
            tableau[m, :] -= c[var] * tableau[row, :]
    # Block artificial columns from re-entering.
    tableau[:, n : n + m] = 0.0
    pivots2 = _iterate(tableau, basis, n)

    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            # Standard-form variables are non-negative by definition;
            # phase-1's accepted residual can leave a ~LP_RESIDUAL_TOL
            # negative basic value, which is numerical noise — clamp it.
            x[var] = max(float(tableau[row, -1]), 0.0)
    return x, pivots1 + pivots2


def _iterate(
    tableau: np.ndarray, basis: list[int], num_cols: int, max_pivots: int = 100_000
) -> int:
    m = len(basis)
    pivots = 0
    while True:
        # Bland's rule: entering variable = lowest index with negative
        # reduced cost (guarantees termination).
        entering = None
        for j in range(num_cols):
            if tableau[m, j] < -_TOL:
                entering = j
                break
        if entering is None:
            return pivots
        # Ratio test, again lowest index on ties (Bland).
        best_ratio, leaving = np.inf, None
        for i in range(m):
            coef = tableau[i, entering]
            if coef > _TOL:
                ratio = tableau[i, -1] / coef
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving is None or basis[i] < basis[leaving])
                ):
                    best_ratio, leaving = ratio, i
        if leaving is None:
            raise UnboundedError("objective unbounded below")
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1
        if pivots > max_pivots:
            raise ValidationError("simplex pivot limit exceeded (numerical trouble?)")


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0:
            tableau[i, :] -= tableau[i, col] * tableau[row, :]
