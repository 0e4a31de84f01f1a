"""Project-specific static analysis (``repro lint``).

A small AST lint framework plus the rules that keep this reproduction's
correctness disciplines machine-checked:

========  ==============================================================
RPR001    no literal float tolerances outside :mod:`repro.constants`
RPR002    runtime invariants raise :class:`~repro.errors.ReproError`
          subclasses, never ``assert`` / bare ``Exception``
RPR003    public ndarray-taking functions validate shape/dtype
RPR004    no mutable default arguments
RPR005    a reference implementation and its production counterpart
          are exercised by a parity test
RPR006    solver functions are called only through the solver table
RPR007    multiprocessing primitives live only in ``repro/parallel/``
RPR008    no module-level mutable state reachable from worker entry
          points (fork-safety; pass state as task arguments)
RPR010    index-owned array writes outside ``updates.py`` notify the
          epoch bus
RPR011    no blocking calls while holding a lock
          (``Condition.wait`` excepted)
RPR013    no compiled kernel backend (numba, llvmlite, cython,
          pyximport, cffi) is imported anywhere in the library
RPR014    monotonic-clock reads (``perf_counter``, ``monotonic``, ...)
          live only inside ``repro/observe/``; everything else times
          through ``repro.observe.clock``
========  ==============================================================

RPR001-007, RPR013 and RPR014 are per-file AST passes; RPR008, RPR010
and RPR011 additionally consume the run-wide
:class:`~repro.analysis.project.ProjectContext` (cross-file symbol
table, call graph, worker reachability) built in :func:`lint_paths`'
first pass.

Run ``repro lint src/repro`` (or ``python -m repro.analysis``); suppress
a single line with ``# repro: noqa[RPR001]``.
"""

from __future__ import annotations

import repro.analysis.concurrency  # noqa: F401  (import registers RPR008, RPR010-011)
import repro.analysis.rules  # noqa: F401  (import registers RPR001-007, RPR013-014)
from repro.analysis.cli import main
from repro.analysis.framework import (
    FileContext,
    Finding,
    LintConfig,
    Rule,
    lint_file,
    lint_paths,
    register_rule,
    registered_rules,
)
from repro.analysis.project import ProjectContext
from repro.analysis.rules import PARITY_PAIRS

__all__ = [
    "FileContext",
    "Finding",
    "LintConfig",
    "PARITY_PAIRS",
    "ProjectContext",
    "Rule",
    "lint_file",
    "lint_paths",
    "main",
    "register_rule",
    "registered_rules",
]
