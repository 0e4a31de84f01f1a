"""Project-wide concurrency lint rules RPR008, RPR010 and RPR011.

Unlike RPR001-007, these rules consume the run-wide
:class:`~repro.analysis.project.ProjectContext` (cross-file symbol
table, call graph, worker reachability), because the failure modes
they police are cross-file:

* **RPR008** — module-level mutable state (containers, lock primitives,
  fork-shared rebinding slots) referenced from functions that run
  inside worker processes.  Fork-shared globals are invisible coupling
  between parent and child: state should travel as a task argument.
  Every accepted use needs a visible line-scoped noqa.
* **RPR010** — writes to index-owned arrays (:data:`_INDEX_ARRAYS`:
  ``pairs``, ``normals``, the partition arrays and the query set's
  ``_weights``), ``.flat``/slice stores into them, and
  ``setattr``-rebinding outside ``updates.py`` (or the module defining
  ``SubdomainIndex``) must notify the epoch bus: a function doing such
  a write without calling ``notify_mutation`` serves stale state to
  every epoch-checking consumer.
* **RPR011** — no blocking calls (pool dispatch, pipe/file I/O,
  joins) while holding a lock or condition, transitively through the
  project call graph; ``Condition.wait``/``notify`` are the sanctioned
  exceptions.  Blocking under the server's admission lock stalls every
  producer on one slow consumer.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.framework import FileContext, Finding, Rule, register_rule
from repro.analysis.project import FunctionInfo, ModuleInfo, ProjectContext

__all__ = [
    "ForkSafetyRule",
    "EpochDisciplineRule",
    "BlockingUnderLockRule",
]


def _call_tail(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _resolve_call(
    project: ProjectContext,
    info: ModuleInfo,
    fn: FunctionInfo,
    node: ast.Call,
) -> FunctionInfo | None:
    """Resolve a call site to a project function, mirroring the call graph."""
    func = node.func
    if isinstance(func, ast.Name):
        return project.resolve_name(info, func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        if func.value.id == "self" and fn.class_name is not None:
            return info.functions.get(f"{fn.class_name}.{func.attr}")
        dotted = info.module_aliases.get(func.value.id)
        if dotted is not None:
            module = project._module_by_dotted(dotted)
            if module is not None:
                return module.functions.get(func.attr)
    return None


@register_rule
class ForkSafetyRule(Rule):
    """RPR008: no module-level mutable state reachable from worker code.

    A fork-started worker inherits every module global by copy-on-write;
    mutating (or even relying on) that state couples parent and child
    invisibly — a spawn-started worker sees a fresh module instead, and
    a re-forked generation sees whatever the parent mutated since.
    State should travel as a task argument.  Lambdas handed to a pool
    are flagged unconditionally (their closure is the same trap plus a
    pickling failure on spawn).
    """

    code = "RPR008"
    title = "module-level mutable state reachable from a worker entry point"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR008 findings: fork-shared mutable globals in worker code."""
        project = ctx.project
        if project is None:
            return
        info = project.module_for(ctx.path)
        if info is None:
            return
        for arg in project.iter_entry_args(info):
            if isinstance(arg, ast.Lambda):
                yield ctx.finding(
                    arg,
                    self,
                    "lambda handed to a worker pool: closures capture "
                    "parent state invisibly and cannot be pickled; pass a "
                    "module-level function and its state as task arguments",
                )
        flagged = info.mutable_globals
        if not flagged:
            return
        reachable = project.worker_reachable()
        for fn in info.functions.values():
            if fn.key not in reachable:
                continue
            # One finding per (function, global), at the earliest
            # reference, so a single visible noqa covers the function.
            first: "dict[str, ast.Name]" = {}
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Name) or node.id not in flagged:
                    continue
                best = first.get(node.id)
                position = (node.lineno, node.col_offset)
                if best is None or position < (best.lineno, best.col_offset):
                    first[node.id] = node
            for name in sorted(first):
                yield ctx.finding(
                    first[name],
                    self,
                    f"worker-reachable {fn.qualname}() touches module-level "
                    f"{flagged[name]} {name!r}; pass the state as a task "
                    f"argument instead",
                )


#: Index-owned arrays whose rebinding or element stores demand an epoch
#: bump: the hyperplanes, the partition arrays kth_other reads, and the
#: query set's weights.
_INDEX_ARRAYS = (
    "pairs", "normals", "signatures", "subdomain_of", "representatives", "prefixes",
    "prefix_lengths", "_weights",
)

#: Attributes whose rebinding is flagged.
_INDEX_ARRAY_ATTRS = frozenset(_INDEX_ARRAYS)

#: Substrings of a subscript-store base that mark an index-owned array.
_STORE_BASE_MARKS = tuple(f".{name}" for name in _INDEX_ARRAYS) + (".flat",)


def _epoch_offense(node: ast.AST) -> "tuple[ast.AST, str] | None":
    """``(location, description)`` when ``node`` writes index-owned state."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in _INDEX_ARRAY_ATTRS:
                value = target.value
                if not (isinstance(value, ast.Name) and value.id == "self"):
                    return target, f"rebinding of index-owned array .{target.attr}"
            if isinstance(target, ast.Subscript):
                try:
                    base = ast.unparse(target.value)
                except Exception:  # pragma: no cover - exotic target
                    continue
                if base.startswith("self."):
                    continue
                if any(mark in base for mark in _STORE_BASE_MARKS):
                    return target, f"element store into {base}"
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "setattr":
            return node, "setattr() rebinding"
    return None


@register_rule
class EpochDisciplineRule(Rule):
    """RPR010: index-state writes outside updates.py must bump the epoch.

    Every consumer (evaluator caches, plans, the persistent pool's fork
    generations) trusts :attr:`SubdomainIndex.epoch` to move when the
    index does; a write that skips ``notify_mutation()`` makes all of
    them serve stale answers with no error anywhere.  ``updates.py``
    and the module defining ``SubdomainIndex`` own the discipline;
    ``self.*`` writes are the owning object managing its own state.
    """

    code = "RPR010"
    title = "index-owned array written without an epoch notification"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR010 findings: epoch-silent writes to index state."""
        if ctx.path.name == "updates.py":
            return
        if any(
            isinstance(node, ast.ClassDef) and node.name == "SubdomainIndex"
            for node in ctx.tree.body
        ):
            return
        functions = [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        inside: set[int] = set()
        for func in functions:
            for node in ast.walk(func):
                if node is not func:
                    inside.add(id(node))
        for scope in functions:
            yield from self._check_scope(ctx, ast.walk(scope), scope.name)
        module_nodes = (n for n in ast.walk(ctx.tree) if id(n) not in inside)
        yield from self._check_scope(ctx, module_nodes, "<module>")

    def _check_scope(
        self, ctx: FileContext, nodes: "Iterator[ast.AST]", label: str
    ) -> Iterator[Finding]:
        offenses: "list[tuple[ast.AST, str]]" = []
        notified = False
        for node in nodes:
            if isinstance(node, ast.Call) and _call_tail(node) == "notify_mutation":
                notified = True
            offense = _epoch_offense(node)
            if offense is not None:
                offenses.append(offense)
        if notified:
            return
        for location, description in offenses:
            yield ctx.finding(
                location,
                self,
                f"{description} in {label} without notify_mutation(): "
                f"epoch-checking consumers will serve stale state; mutate "
                f"through repro.core.updates or notify the epoch bus",
            )


#: Call tails treated as blocking: pool dispatch, pipe/file I/O, joins.
_BLOCKING_CALLS = frozenset(
    {
        "run",
        "run_outcomes",
        "run_batch",
        "recv",
        "send",
        "read",
        "readline",
        "readlines",
        "write",
        "flush",
        "result",
        "join",
        "sleep",
        "acquire",
    }
)

#: Sanctioned condition-variable verbs (wait releases the lock; notify
#: is O(1)) plus lock housekeeping.
_LOCK_VERBS = frozenset({"wait", "wait_for", "notify", "notify_all", "release", "locked"})


def _lockish(expr: ast.expr) -> str | None:
    """The spelling of a with-item that looks like a lock acquisition."""
    try:
        text = ast.unparse(expr)
    except Exception:  # pragma: no cover - exotic context expr
        return None
    lowered = text.lower()
    if "lock" in lowered or "cond" in lowered:
        return text
    return None


@register_rule
class BlockingUnderLockRule(Rule):
    """RPR011: no blocking calls while holding a lock or condition.

    The server's admission lock serializes every producer; one pool
    dispatch or pipe write under it turns the bounded queue into a
    convoy.  ``Condition.wait`` is exempt (it releases the lock while
    blocked) — that is the one sanctioned way to block "under" a lock.
    The check is transitive through the project call graph, so hiding
    the I/O one helper deep still fires.
    """

    code = "RPR011"
    title = "blocking call while holding a lock"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield RPR011 findings: blocking calls inside lock-holding withs."""
        project = ctx.project
        if project is None:
            return
        info = project.module_for(ctx.path)
        if info is None:
            return
        blocked = project.may_block(_BLOCKING_CALLS)
        for fn in info.functions.values():
            for stmt in ast.walk(fn.node):
                if not isinstance(stmt, (ast.With, ast.AsyncWith)):
                    continue
                locks = [
                    text
                    for item in stmt.items
                    if (text := _lockish(item.context_expr)) is not None
                ]
                if not locks:
                    continue
                for body_stmt in stmt.body:
                    yield from self._check_body(
                        ctx, project, info, fn, body_stmt, locks
                    )

    def _check_body(
        self,
        ctx: FileContext,
        project: ProjectContext,
        info: ModuleInfo,
        fn: FunctionInfo,
        stmt: ast.stmt,
        locks: "list[str]",
    ) -> Iterator[Finding]:
        blocked = project.may_block(_BLOCKING_CALLS)
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node)
            if tail is None or tail in _LOCK_VERBS:
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                try:
                    receiver = ast.unparse(func.value)
                except Exception:  # pragma: no cover - exotic receiver
                    receiver = ""
                if receiver in locks:
                    continue  # housekeeping on the held lock itself
            if tail in _BLOCKING_CALLS:
                yield ctx.finding(
                    node,
                    self,
                    f"blocking call {tail}() while holding {locks[0]}: "
                    f"compute under the lock, perform I/O after release",
                )
                continue
            target = _resolve_call(project, info, fn, node)
            if target is not None and target.key in blocked:
                yield ctx.finding(
                    node,
                    self,
                    f"call to {target.qualname}() while holding {locks[0]}: "
                    f"it transitively reaches blocking I/O; move it outside "
                    f"the lock",
                )
