"""Exception hierarchy for the ``repro`` library.

Every error raised intentionally by the library derives from
:class:`ReproError`, so callers can write ``except ReproError`` to catch
library failures without swallowing programming errors (``TypeError``,
``KeyError``, ...) raised by buggy user code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ValidationError(ReproError):
    """Invalid user input: bad shapes, out-of-range parameters, etc."""


class InfeasibleError(ReproError):
    """A constrained problem admits no feasible solution.

    Raised e.g. by the LP solver when constraints are contradictory, or
    by :func:`repro.optimize.hit_cost.min_cost_to_hit` when a query
    cannot be hit within the strategy bounds.
    """


class UnboundedError(ReproError):
    """A linear program is unbounded in the optimization direction."""


class BudgetExhaustedError(ReproError):
    """An iterative search ran out of its configured budget.

    Carries the best solution found so far in :attr:`best`, so callers
    that prefer a partial answer over an exception can recover it.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class IndexCorruptionError(ReproError):
    """An index invariant was violated (internal consistency check).

    Also raised when a persisted index — an array file or a
    manifest — is truncated, unreadable, or missing required fields.  Schema-version and fingerprint mismatches on an
    otherwise well-formed file raise :class:`ValidationError` instead:
    the file is intact, it just belongs to different data.
    """


class CheckFailure(ReproError):
    """A correctness-harness oracle found a divergence.

    Raised by :mod:`repro.check` when a differential oracle disagrees —
    an incrementally maintained index differs from a rebuild, the
    affected-subspace evaluation differs from the full one, or an IQ
    result's reported fields fail re-verification from scratch.  The
    message carries enough context to replay the failing scenario.
    """


class SQLError(ReproError):
    """Base class for errors raised by the mini DBMS."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""


class SQLCatalogError(SQLError):
    """Reference to a missing table/column, or a duplicate definition."""


class SQLExecutionError(SQLError):
    """A statement failed during execution (type mismatch, arity, ...)."""
