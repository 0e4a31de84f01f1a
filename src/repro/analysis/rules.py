"""Project-specific lint rules RPR001-RPR007, RPR013 and RPR014.

Each rule encodes a discipline the paper's correctness depends on; see
DESIGN.md ("Static analysis") for the full catalog with rationale.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from repro.constants import TOLERANCE_BAND
from repro.analysis.framework import FileContext, Finding, Rule, register_rule

__all__ = [
    "ToleranceLiteralRule",
    "RuntimeInvariantRule",
    "ArrayValidationRule",
    "MutableDefaultRule",
    "ParityCoverageRule",
    "SolverDispatchRule",
    "ParallelImportRule",
    "CompiledBackendRule",
    "TimingSourceRule",
    "PARITY_PAIRS",
]

#: Reference implementations and their production counterparts
#: (RPR005): defining one of these symbols obliges some test file to
#: name it together with *both* listed names.  ``find_subdomains`` is
#: Algorithm 1's BSP loop, held to the index's grouping;
#: ``generate_candidates`` dispatches between a per-row ``"loop"`` and
#: the batched ``"auto"``; ``min_cost_to_hit_batch`` is held to its
#: one-row case and to the simplex/Dykstra set solver.
PARITY_PAIRS: dict[str, tuple[str, str]] = {
    "find_subdomains": ("signature_matrix", "unique_signatures"),
    "generate_candidates": ("loop", "auto"),
    "min_cost_to_hit_batch": ("min_cost_to_hit", "min_cost_to_hit_set"),
}


@register_rule
class ToleranceLiteralRule(Rule):
    """RPR001: float tolerances must be named constants in ``repro/constants.py``.

    Flags any float literal whose magnitude falls in
    :data:`repro.constants.TOLERANCE_BAND` outside the constants module.
    Scattered literal tolerances are exactly how side tests drift apart:
    ``1e-6`` in one module and ``1e-12`` in another silently disagree
    about which side of a hyperplane a boundary query is on.
    """

    code = "RPR001"
    title = "literal float tolerance outside repro/constants.py"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR001 findings: in-band float literals outside constants.py."""
        if ctx.path.name == "constants.py":
            return
        low, high = TOLERANCE_BAND
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, float):
                continue
            if low <= abs(value) <= high:
                yield ctx.finding(
                    node,
                    self,
                    f"literal tolerance {value!r}: use a named EPS_* constant "
                    f"from repro.constants",
                )


@register_rule
class RuntimeInvariantRule(Rule):
    """RPR002: runtime invariants must raise ``ReproError`` subclasses.

    ``assert`` statements are stripped under ``python -O``, and bare
    ``Exception`` defeats ``except ReproError`` error handling.  Flags
    every ``assert`` plus any ``raise`` of ``Exception`` /
    ``BaseException`` / ``AssertionError``.
    """

    code = "RPR002"
    title = "assert / bare Exception used for a runtime invariant"

    _FORBIDDEN = frozenset({"Exception", "BaseException", "AssertionError"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR002 findings: asserts and raises of non-Repro exceptions."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield ctx.finding(
                    node,
                    self,
                    "assert is stripped under python -O; raise a ReproError "
                    "subclass for runtime invariants",
                )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = target.id if isinstance(target, ast.Name) else None
                if name in self._FORBIDDEN:
                    yield ctx.finding(
                        node,
                        self,
                        f"raise {name}: library code must raise a ReproError subclass",
                    )


def _annotation_mentions_ndarray(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
        if "Callable" in text:  # an ndarray-taking callable is not an ndarray
            return False
        return "ndarray" in text or "NDArray" in text
    if isinstance(annotation, ast.Subscript):
        head = annotation.value
        head_name = head.id if isinstance(head, ast.Name) else (
            head.attr if isinstance(head, ast.Attribute) else None
        )
        if head_name == "Callable":
            return False
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name) and node.id in ("ndarray", "NDArray"):
            return True
        if isinstance(node, ast.Attribute) and node.attr in ("ndarray", "NDArray"):
            return True
    return False


#: Calls that count as "the function normalized/validated its input".
_VALIDATING_CALLS = frozenset(
    {
        "asarray",
        "ascontiguousarray",
        "asfarray",
        "atleast_1d",
        "atleast_2d",
        "atleast_3d",
        "array",
    }
)

_VALIDATING_PREFIXES = ("validate", "_validate", "check_", "_check")


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@register_rule
class ArrayValidationRule(Rule):
    """RPR003: public array-taking functions must validate before indexing.

    A public function with an ``np.ndarray`` parameter must show
    evidence of input validation: a ``np.asarray``/``np.atleast_*``
    normalization, a reference to ``ValidationError``, a call to a
    ``validate*``/``_check*`` helper, or a call to a same-file function
    that does one of those (delegation is followed to a fixpoint).
    Unvalidated array parameters fail later with shape-dependent
    ``IndexError``/broadcast noise instead of a clear error.
    """

    code = "RPR003"
    title = "public ndarray parameter without shape/dtype validation"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR003 findings: unvalidated public ndarray parameters."""
        functions: list[ast.FunctionDef | ast.AsyncFunctionDef] = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        validated: set[str] = set()
        calls: dict[str, set[str]] = {}
        for func in functions:
            has_evidence, called = self._direct_evidence(func)
            if has_evidence:
                validated.add(func.name)
            calls[func.name] = called
        # Delegation fixpoint: calling a validated same-file function counts.
        changed = True
        while changed:
            changed = False
            for name, called in calls.items():
                if name not in validated and called & validated:
                    validated.add(name)
                    changed = True
        for func in self._public_functions(ctx.tree):
            if func.name in validated:
                continue
            params = list(func.args.posonlyargs) + list(func.args.args) + list(
                func.args.kwonlyargs
            )
            array_params = [a.arg for a in params if _annotation_mentions_ndarray(a.annotation)]
            if array_params:
                yield ctx.finding(
                    func,
                    self,
                    f"public function {func.name}() takes ndarray parameter(s) "
                    f"{', '.join(array_params)} without validating shape/dtype "
                    f"(np.asarray/atleast_* or a ValidationError guard)",
                )

    @staticmethod
    def _public_functions(
        tree: ast.Module,
    ) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Module-level functions and methods of module-level classes.

        Nested closures are implementation details, not public API, and
        are excluded; their enclosing function is what gets checked.
        """
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    yield node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and not member.name.startswith("_"):
                        yield member

    @staticmethod
    def _direct_evidence(
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> tuple[bool, set[str]]:
        evidence = False
        called: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name is None:
                    continue
                called.add(name)
                if name in _VALIDATING_CALLS or name.startswith(_VALIDATING_PREFIXES):
                    evidence = True
            elif isinstance(node, ast.Name) and node.id == "ValidationError":
                evidence = True
            elif isinstance(node, ast.Attribute) and node.attr == "ValidationError":
                evidence = True
        return evidence, called


@register_rule
class MutableDefaultRule(Rule):
    """RPR004: no mutable default arguments.

    The classic footgun: a ``def f(x, cache={})`` default is shared
    across every call, so one caller's mutation leaks into the next.
    """

    code = "RPR004"
    title = "mutable default argument"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR004 findings: mutable default argument values."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield ctx.finding(
                        default,
                        self,
                        f"mutable default argument in {label}(); use None and "
                        f"create the container inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False


@lru_cache(maxsize=8)
def _test_corpus(tests_root: Path) -> tuple[tuple[frozenset[str], frozenset[str]], ...]:
    """(symbols, strings) of every parseable test file under ``tests_root`` (cached).

    A symbol is a ``Name``, an ``Attribute`` or an imported alias; a
    string is a whole string constant.  Text inside a string never
    counts as a symbol.
    """
    corpus: list[tuple[frozenset[str], frozenset[str]]] = []
    for path in sorted(tests_root.rglob("*.py")):
        try:
            nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        except (OSError, SyntaxError, ValueError):  # pragma: no cover - unreadable test file
            continue
        symbols = {n.id for n in nodes if isinstance(n, ast.Name)}
        symbols |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        for alias in (n for n in nodes if isinstance(n, ast.alias)):
            symbols |= {alias.name.rsplit(".", 1)[-1], alias.asname or alias.name}
        strings = {n.value for n in nodes if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        corpus.append((frozenset(symbols), frozenset(strings)))
    return tuple(corpus)


def _find_tests_root(start: Path) -> Path | None:
    for parent in start.resolve().parents:
        candidate = parent / "tests"
        if candidate.is_dir():
            return candidate
    return None


@register_rule
class ParityCoverageRule(Rule):
    """RPR005: a reference and its production counterpart need a parity test.

    For every symbol in :data:`PARITY_PAIRS` defined in the linted file,
    some file under ``tests/`` must reference the symbol together with
    *both* names listed for it: the production code that the reference
    stands for (``signature_matrix`` and ``unique_signatures`` for
    ``find_subdomains``), or the two variants the symbol dispatches
    between (``"loop"`` and ``"auto"``).  The test files are parsed: the
    symbol counts only as a name, an attribute or an imported alias, and
    a listed counterpart also as a whole string constant, so a fixture
    string that merely contains the names covers nothing.  The fast
    paths shadow the paper-literal algorithms; without an enforced
    parity test the two implementations drift apart silently.
    """

    code = "RPR005"
    title = "reference implementation lacks a parity test"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR005 findings: parity symbols with no two-variant test."""
        defined = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name in PARITY_PAIRS
        ]
        if not defined:
            return
        tests_root = self.config_tests_root(ctx)
        corpus = _test_corpus(tests_root) if tests_root is not None else ()
        for node in defined:
            variant_a, variant_b = PARITY_PAIRS[node.name]
            covered = any(
                node.name in symbols
                and variant_a in symbols | strings
                and variant_b in symbols | strings
                for symbols, strings in corpus
            )
            if not covered:
                yield ctx.finding(
                    node,
                    self,
                    f"no test file references {node.name} together with both "
                    f"{variant_a!r} and {variant_b!r}; add a parity test",
                )

    @staticmethod
    def config_tests_root(ctx: FileContext) -> Path | None:
        """The tests directory to scan: configured, or nearest ``tests/`` above."""
        if ctx.config.tests_root is not None:
            return ctx.config.tests_root
        return _find_tests_root(ctx.path)


@register_rule
class SolverDispatchRule(Rule):
    """RPR006: solver functions are called only through the solver table.

    The raw scheme implementations (``min_cost_iq``, ``greedy_*``,
    ``exhaustive_*``, ...) are the ``min_cost`` and ``max_hit``
    functions of the records in ``repro/core/solvers.py``; every other
    module must dispatch through ``get_solver(name)`` so plans, EXPLAIN
    output, and ``method=`` validation stay in sync with what actually
    runs.  The flagged name set is derived from those records'
    functions, so it follows the table.
    """

    code = "RPR006"
    title = "solver function called outside the registry"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR006 findings: direct solver-function calls."""
        if ctx.path.name == "solvers.py":
            return
        from repro.core.solvers import solver_function_names

        wrapped = solver_function_names()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in wrapped:
                yield ctx.finding(
                    node,
                    self,
                    f"direct call to solver function {name}(); dispatch "
                    f"through repro.core.solvers.get_solver(...) instead",
                )


@register_rule
class ParallelImportRule(Rule):
    """RPR007: process-pool primitives live only in ``repro/parallel/``.

    ``multiprocessing`` and ``concurrent.futures`` carry sharp edges —
    resource-tracker bookkeeping, start-method portability, pickling of
    module globals — that ``repro.parallel`` centralizes (worker-count
    resolution, fork-sharing an engine).  Any other module importing
    them directly bypasses those guards; it must go through the
    ``repro.parallel`` API instead.  Files whose path
    contains a ``parallel`` component are exempt.
    """

    code = "RPR007"
    title = "multiprocessing imported outside repro/parallel/"

    _FORBIDDEN_ROOTS = frozenset({"multiprocessing", "concurrent"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR007 findings: multiprocessing imports outside the layer."""
        if "parallel" in ctx.path.resolve().parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in self._FORBIDDEN_ROOTS:
                    yield ctx.finding(
                        node,
                        self,
                        f"import of {name}: process-pool primitives are "
                        f"owned by repro.parallel; use its pool/batch API "
                        f"instead",
                    )


@register_rule
class CompiledBackendRule(Rule):
    """RPR013: no compiled kernel backend anywhere in the library.

    The numpy kernels are the only backend.  A numba layer once sat
    behind a backend switch, but no recorded run ever executed it and
    no host showed a win, so it was deleted.  Any import of a compiled
    backend (numba, llvmlite, cython, pyximport, cffi) is a finding: a
    compiled backend comes back only as a deliberate change to this
    rule, together with a host that has it and a measured win.
    """

    code = "RPR013"
    title = "compiled kernel backend import"

    _COMPILED_ROOTS = frozenset({"numba", "llvmlite", "cython", "pyximport", "cffi"})

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield one RPR013 finding per compiled-backend import."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] in self._COMPILED_ROOTS:
                    yield ctx.finding(
                        node,
                        self,
                        f"import of {name}: the library has no compiled kernel "
                        f"backend; the numpy kernels are the only path",
                    )


@register_rule
class TimingSourceRule(Rule):
    """RPR014: monotonic-clock reads are confined to ``repro/observe``.

    ``repro.observe.clock`` is the library's single wall-clock seam
    (``now``/``Stopwatch``/``time_call``), and everything that measures
    time — the bench harness, the serving stats, the ``EXPLAIN
    ANALYZE`` recorder — imports it from there.  Flags any call to a monotonic/CPU clock
    (``time.perf_counter``, ``time.monotonic``, ``process_time``, their
    ``_ns`` variants, ``clock_gettime``) and any ``from time import``
    of one of those names in a file whose path has no ``observe``
    component.  One seam is what makes the "analyzed runs are
    byte-identical to plain runs" contract auditable: every timing side
    effect in the codebase is reachable from one module.
    """

    code = "RPR014"
    title = "monotonic-clock call outside repro/observe"

    _CLOCK_NAMES = frozenset(
        {
            "perf_counter",
            "perf_counter_ns",
            "monotonic",
            "monotonic_ns",
            "process_time",
            "process_time_ns",
            "thread_time",
            "thread_time_ns",
            "clock_gettime",
            "clock_gettime_ns",
        }
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR014 findings: clock calls/imports outside the observe layer."""
        if "observe" in ctx.path.resolve().parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _call_name(node) in self._CLOCK_NAMES:
                yield ctx.finding(
                    node,
                    self,
                    f"{_call_name(node)}() read outside repro/observe; time "
                    f"through repro.observe.clock (now/Stopwatch/time_call) "
                    f"so every timing side effect stays behind one seam",
                )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in self._CLOCK_NAMES:
                        yield ctx.finding(
                            node,
                            self,
                            f"from time import {alias.name} outside "
                            f"repro/observe; import the clock from "
                            f"repro.observe.clock instead",
                        )
