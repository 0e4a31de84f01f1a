"""Cross-file analysis context for the project-wide lint rules.

The per-file rules (RPR001-007) see one ``ast.Module`` at a time; the
concurrency rules (RPR008, RPR010, RPR011) need to answer questions no
single file can: *which functions run inside worker processes?* (the
pool dispatch lives in one module, the task function it reaches in
another), *does this call eventually block?*

:class:`ProjectContext` is that shared view.  It is built once per lint
run from every parsed file and provides:

* a **symbol table** — module-level functions and class methods of every
  linted file, keyed by ``(path, qualname)``, plus each module's import
  aliases so ``from repro.parallel.batch import run_batch`` resolves to
  the defining file when it is part of the run;
* a **lightweight call graph** — edges for ``f(...)``, ``self.m(...)``,
  and ``alias.f(...)`` call forms (attribute calls on arbitrary objects
  are unresolvable by design: this is a linter, not a type checker);
* **worker entry points** — functions handed to process pools as
  ``initializer=``, submitted via ``executor.submit(f, ...)`` /
  ``executor.map(f, ...)`` (receivers whose spelling mentions
  ``executor`` or ``pool``), or started as ``Process(target=f)`` — and
  the transitive closure of project functions reachable from them;
* **module-global classification** — which module-level names are
  mutable state (container literals, ``threading`` primitives, or
  fork-shared rebinding slots declared ``global`` inside functions);
* a **may-block fixpoint** — given a seed set of blocking call names,
  which project functions can transitively reach one.

Everything here is deliberately conservative and syntactic: extra call
edges or extra "mutable" classifications only make the rules stricter,
and every accepted violation stays visible as a line-scoped noqa.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Protocol

__all__ = ["FunctionInfo", "ModuleInfo", "ProjectContext"]

#: Call-receiver method names that hand a function to a process pool.
_POOL_DISPATCH_METHODS = frozenset(
    {"submit", "map", "starmap", "apply_async", "map_async", "imap", "imap_unordered"}
)

#: Constructor name tails that accept a worker ``initializer=`` /
#: ``target=`` function.
_POOL_CTOR_TAILS = frozenset({"ProcessPoolExecutor", "Pool", "Process"})

#: ``threading``/lock primitives whose module-level instances count as
#: mutable cross-thread state when reachable from worker code.
_LOCK_CTOR_TAILS = frozenset(
    {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore", "Event", "Barrier"}
)

_CONTAINER_CTOR_NAMES = frozenset({"list", "dict", "set", "bytearray", "deque"})


class _ParsedFile(Protocol):
    """What :meth:`ProjectContext.build` needs from a parsed file."""

    path: Path
    tree: ast.Module


def _call_tail(node: ast.Call) -> str | None:
    """The last name component of a call's function expression."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _dotted_name(path: Path) -> str:
    """Best-effort dotted module name: parts after a ``src`` component."""
    parts = list(path.resolve().parts)
    stem_parts = parts[:-1] + [path.stem]
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        module_parts = stem_parts[idx + 1 :]
    else:
        module_parts = [path.stem]
    if module_parts and module_parts[-1] == "__init__":
        module_parts = module_parts[:-1]
    return ".".join(module_parts) if module_parts else path.stem


@dataclass
class FunctionInfo:
    """One project function (module-level def or class method)."""

    path: str  #: resolved source-file path (symbol-table key half)
    qualname: str  #: ``f`` or ``Class.f``
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None = None
    #: Raw call targets before resolution: ``("name", f)``, ``("self", m)``,
    #: or ``("module", alias, f)`` for ``alias.f(...)`` on an imported module.
    raw_calls: list[tuple[str, ...]] = field(default_factory=list)

    @property
    def key(self) -> tuple[str, str]:
        return (self.path, self.qualname)


@dataclass
class ModuleInfo:
    """One parsed module's project-relevant surface."""

    path: str
    dotted: str
    tree: ast.Module
    #: qualname -> FunctionInfo for defs in this module.
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: local name -> (module dotted name, original name) for from-imports.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: local alias -> module dotted name for plain imports.
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: module-level mutable state: name -> kind
    #: ("container" | "lock" | "fork-shared rebinding slot").
    mutable_globals: dict[str, str] = field(default_factory=dict)


class ProjectContext:
    """Cross-file symbol table + call graph over one lint run's files."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self._by_dotted: dict[str, str] = {}
        self._by_tail: dict[str, list[str]] = {}
        self._edges: dict[tuple[str, str], set[tuple[str, str]]] = {}
        self._entry_points: set[tuple[str, str]] | None = None
        self._worker_reachable: set[tuple[str, str]] | None = None
        self._may_block: dict[frozenset[str], set[tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, files: "Iterable[_ParsedFile]") -> "ProjectContext":
        """Build the context from every parsed file of the run."""
        project = cls()
        for parsed in files:
            project._add_module(parsed.path, parsed.tree)
        project._resolve_edges()
        return project

    def _add_module(self, path: Path, tree: ast.Module) -> None:
        resolved = str(path.resolve())
        info = ModuleInfo(path=resolved, dotted=_dotted_name(path), tree=tree)
        self.modules[resolved] = info
        self._by_dotted[info.dotted] = resolved
        self._by_tail.setdefault(info.dotted.rsplit(".", 1)[-1], []).append(resolved)
        self._collect_imports(info)
        self._collect_functions(info)
        self._collect_globals(info)

    @staticmethod
    def _collect_imports(info: ModuleInfo) -> None:
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    info.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    info.module_aliases[alias.asname or alias.name] = alias.name

    def _collect_functions(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._register_function(info, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._register_function(info, member, class_name=node.name)

    def _register_function(
        self,
        info: ModuleInfo,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        class_name: str | None,
    ) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        fn = FunctionInfo(
            path=info.path, qualname=qualname, node=node, class_name=class_name
        )
        for call in (n for n in ast.walk(node) if isinstance(n, ast.Call)):
            func = call.func
            if isinstance(func, ast.Name):
                fn.raw_calls.append(("name", func.id))
            elif isinstance(func, ast.Attribute):
                value = func.value
                if isinstance(value, ast.Name) and value.id == "self":
                    fn.raw_calls.append(("self", func.attr))
                elif isinstance(value, ast.Name):
                    fn.raw_calls.append(("module", value.id, func.attr))
        info.functions[qualname] = fn

    def _collect_globals(self, info: ModuleInfo) -> None:
        """Classify module-level mutable state."""
        module_level: set[str] = set()
        for node in info.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                module_level.add(target.id)
                kind = self._mutable_kind(value)
                if kind is not None:
                    info.mutable_globals[target.id] = kind
        # Fork-shared rebinding slots: module-level names reassigned
        # through a ``global`` statement inside some function.
        rebound: set[str] = set()
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
        for name in rebound & module_level:
            info.mutable_globals.setdefault(name, "fork-shared rebinding slot")

    @staticmethod
    def _mutable_kind(value: ast.expr | None) -> str | None:
        if isinstance(value, (ast.List, ast.Dict, ast.Set)):
            return "container"
        if isinstance(value, ast.Call):
            tail = _call_tail(value)
            if tail in _CONTAINER_CTOR_NAMES or tail == "defaultdict":
                return "container"
            if tail in _LOCK_CTOR_TAILS:
                return "lock"
        return None

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _module_by_dotted(self, dotted: str) -> ModuleInfo | None:
        path = self._by_dotted.get(dotted)
        if path is not None:
            return self.modules[path]
        # Fixture-friendly fallback: unique last-component match.
        candidates = self._by_tail.get(dotted.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return self.modules[candidates[0]]
        return None

    def resolve_name(self, info: ModuleInfo, name: str) -> FunctionInfo | None:
        """A plain-name reference: same module first, then from-imports."""
        fn = info.functions.get(name)
        if fn is not None:
            return fn
        imported = info.from_imports.get(name)
        if imported is not None:
            target = self._module_by_dotted(imported[0])
            if target is not None:
                return target.functions.get(imported[1])
        return None

    def _resolve_edges(self) -> None:
        for info in self.modules.values():
            for fn in info.functions.values():
                edges: set[tuple[str, str]] = set()
                for call in fn.raw_calls:
                    target: FunctionInfo | None = None
                    if call[0] == "name":
                        target = self.resolve_name(info, call[1])
                    elif call[0] == "self" and fn.class_name is not None:
                        target = info.functions.get(f"{fn.class_name}.{call[1]}")
                    elif call[0] == "module":
                        dotted = info.module_aliases.get(call[1])
                        if dotted is not None:
                            module = self._module_by_dotted(dotted)
                            if module is not None:
                                target = module.functions.get(call[2])
                    if target is not None:
                        edges.add(target.key)
                self._edges[fn.key] = edges

    def function(self, key: tuple[str, str]) -> FunctionInfo | None:
        """The function registered under ``(path, qualname)``, if any."""
        info = self.modules.get(key[0])
        return info.functions.get(key[1]) if info is not None else None

    def module_for(self, path: Path) -> ModuleInfo | None:
        """The :class:`ModuleInfo` of a linted file, or None if unparsed."""
        return self.modules.get(str(path.resolve()))

    # ------------------------------------------------------------------
    # Worker entry points and reachability
    # ------------------------------------------------------------------
    @staticmethod
    def _receiver_text(node: ast.Attribute) -> str:
        try:
            return ast.unparse(node.value).lower()
        except Exception:  # pragma: no cover - unparse of exotic nodes
            return ""

    def iter_entry_args(self, info: ModuleInfo) -> "Iterable[ast.expr]":
        """Expressions handed to pools as worker functions, per module."""
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = _call_tail(node)
            if tail in _POOL_CTOR_TAILS:
                for keyword in node.keywords:
                    if keyword.arg in ("initializer", "target"):
                        yield keyword.value
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _POOL_DISPATCH_METHODS
                and node.args
            ):
                receiver = self._receiver_text(node.func)
                if "executor" in receiver or "pool" in receiver:
                    yield node.args[0]

    def entry_points(self) -> set[tuple[str, str]]:
        """Functions handed to process pools anywhere in the project."""
        if self._entry_points is None:
            entries: set[tuple[str, str]] = set()
            for info in self.modules.values():
                for arg in self.iter_entry_args(info):
                    if isinstance(arg, ast.Name):
                        fn = self.resolve_name(info, arg.id)
                        if fn is not None:
                            entries.add(fn.key)
            self._entry_points = entries
        return self._entry_points

    def worker_reachable(self) -> set[tuple[str, str]]:
        """Transitive closure of project functions reachable from workers."""
        if self._worker_reachable is None:
            seen: set[tuple[str, str]] = set()
            stack = list(self.entry_points())
            while stack:
                key = stack.pop()
                if key in seen:
                    continue
                seen.add(key)
                stack.extend(self._edges.get(key, ()))
            self._worker_reachable = seen
        return self._worker_reachable

    # ------------------------------------------------------------------
    # Blocking-call fixpoint
    # ------------------------------------------------------------------
    def may_block(self, blocking_names: frozenset[str]) -> set[tuple[str, str]]:
        """Project functions that can transitively reach a blocking call."""
        cached = self._may_block.get(blocking_names)
        if cached is not None:
            return cached
        blocked: set[tuple[str, str]] = set()
        for info in self.modules.values():
            for fn in info.functions.values():
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Call) and _call_tail(node) in blocking_names:
                        blocked.add(fn.key)
                        break
        changed = True
        while changed:
            changed = False
            for key, callees in self._edges.items():
                if key not in blocked and callees & blocked:
                    blocked.add(key)
                    changed = True
        self._may_block[blocking_names] = blocked
        return blocked
