"""Spans recorded around the program's public callables.

The traced run installs wrappers at the attribute each caller resolves
(a class attribute for methods, the importing module's global for
functions), so the program itself is unchanged.  A span is
``{name, start, end, parent, rid, attrs}``; ``parent`` is the index of
the enclosing span on the same thread and ``rid`` the operation the
workload had in flight.  Spans stay in memory until :meth:`Tracer.dump`.

Improvement queries run through ``engine.analyze``: its
:class:`~repro.core.plan.ExecutedPlan` stage seconds and counters become
synthetic ``plan``/``solve``/``candidates``/``evaluate`` spans under the
``iq`` span.  Pool workers are forked processes whose spans cannot reach
the parent's memory, so a worker attaches the same record to the
``IQResult`` it returns and the parent's dispatch wrapper files it.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

from iqbench.measure import clock, median, percentile, tail_level

#: Attribute a pool worker sets on an ``IQResult`` to ship its IQ record.
SHIPPED = "_iqbench_iq"

UPDATE_OPS = ("add_query", "remove_query", "add_object", "remove_object")


class NullTracer:
    """The untraced run: every hook is a no-op."""

    rid: object = None

    def span(self, name: str, **attrs: object):
        return nullcontext()

    def mark(self, name: str) -> None:
        pass


class Tracer:
    """Spans of one workload run."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: "list[dict]" = []
        self.marks: "dict[str, float]" = {}
        self.rid: object = None
        self._local = threading.local()
        self._undo: "list[tuple[object, str, object]]" = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "int | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, start: float, end: float, parent: "int | None", **attrs: object) -> int:
        """Record a finished span; returns its index."""
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "rid": self.rid, "attrs": attrs}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[dict]:
        stack = self._stack()
        index = self.add(name, clock(), 0.0, self.current(), **attrs)
        record = self.spans[index]
        stack.append(index)
        try:
            yield record
        finally:
            record["end"] = clock()
            stack.pop()

    def mark(self, name: str) -> None:
        """Remember when a phase began (``timed`` separates set-up from the run)."""
        self.marks[name] = clock()

    def add_iq(self, info: dict, parent: "int | None") -> None:
        """File one IQ record as an ``iq`` span with its in-engine stages.

        Stage seconds are totals per stage, so the synthetic children are
        laid end to end inside their parent: ``plan`` then ``solve``;
        inside ``solve``, ``candidates`` (which contains the ``evaluate``
        calls made while scoring candidates) then the remaining
        ``evaluate`` time.
        """
        start = info["start"]
        iq = self.add(
            "iq", start, start + info["total"], parent,
            kind=info["kind"], pid=info["pid"], candidates=info["candidates_count"],
            evaluations=info["evaluations"], iterations=info["iterations"],
        )
        self.add("plan", start, start + info["plan"], iq)
        solve_start = start + info["plan"]
        solve = self.add("solve", solve_start, solve_start + info["solve"], iq)
        candidates = self.add("candidates", solve_start, solve_start + info["candidates"], solve)
        nested = min(info["evaluate_nested"], info["candidates"])
        self.add("evaluate", solve_start, solve_start + nested, candidates)
        after = solve_start + info["candidates"]
        self.add("evaluate", after, after + max(0.0, info["evaluate"] - nested), solve)

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner: object, attr: str, make: "Callable[[Callable], Callable]") -> None:
        """Replace ``owner.attr`` by ``make(original)``; :meth:`restore` undoes it."""
        raw = inspect.getattr_static(owner, attr)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, make(raw))

    def wrap_span(self, owner: object, attr: str, name: str, after: "Callable | None" = None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(span, args)`` adds attributes."""

        def make(original: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                with self.span(name) as record:
                    result = original(*args, **kwargs)
                if after is not None:
                    after(record, args)
                return result

            return wrapper

        self.wrap(owner, attr, make)

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def dump(self, path: Path, summary: dict) -> None:
        path.write_text(json.dumps({"summary": summary, "marks": self.marks, "spans": self.spans}))


def install(tracer: Tracer) -> None:
    """Wrap the public callables the workloads pass through."""
    from repro.core import updates
    from repro.core.engine import ImprovementQueryEngine
    from repro.core.ese import StrategyEvaluator
    from repro.core.subdomain import SubdomainIndex
    from repro.dbms import executor, parser
    from repro.dbms.improve import ImprovementService
    from repro.parallel.persistent import PersistentPool

    nested = [0.0]  # evaluate_many seconds inside the IQ in flight

    def analyzed(engine, kind: str, target, goals: dict, cost, space, method, kwargs):
        nested[0] = 0.0
        start = clock()
        result, executed = engine.analyze(
            target, cost=cost, space=space, method=method, **goals, **kwargs
        )
        info = {
            "kind": kind, "start": start, "pid": os.getpid(),
            "total": executed.total_seconds, "plan": executed.plan_seconds,
            "solve": executed.solve_seconds, "candidates": executed.candidates_seconds,
            "evaluate": executed.evaluate_seconds, "evaluate_nested": nested[0],
            "candidates_count": executed.candidates_generated,
            "evaluations": executed.evaluations, "iterations": executed.iterations,
        }
        if os.getpid() == tracer.pid:
            tracer.add_iq(info, tracer.current())
        else:
            setattr(result, SHIPPED, info)
        return result

    def min_cost(self, target, tau, cost=None, space=None, method="efficient", **kwargs):
        return analyzed(self, "min_cost", target, {"tau": tau}, cost, space, method, kwargs)

    def max_hit(self, target, budget, cost=None, space=None, method="efficient", **kwargs):
        return analyzed(self, "max_hit", target, {"budget": budget}, cost, space, method, kwargs)

    tracer.wrap(ImprovementQueryEngine, "min_cost", lambda original: min_cost)
    tracer.wrap(ImprovementQueryEngine, "max_hit", lambda original: max_hit)

    def make_evaluate_many(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                nested[0] += clock() - started

        return wrapper

    tracer.wrap(StrategyEvaluator, "evaluate_many", make_evaluate_many)

    def index_shape(record: dict, args: tuple) -> None:
        index = args[0]
        record["attrs"].update(
            hyperplanes=index.num_hyperplanes,
            subdomains=index.num_subdomains,
            memory_bytes=index.memory_estimate(),
        )

    tracer.wrap_span(SubdomainIndex, "__init__", "subdomain.build", after=index_shape)

    def make_update(name: str) -> "Callable[[Callable], Callable]":
        def make(original: Callable) -> Callable:
            def wrapper(index, *args, **kwargs):
                before = (index.num_hyperplanes, index.num_subdomains)
                with tracer.span(name) as record:
                    result = original(index, *args, **kwargs)
                record["attrs"].update(
                    hyperplanes_delta=index.num_hyperplanes - before[0],
                    subdomains_delta=index.num_subdomains - before[1],
                )
                return result

            return wrapper

        return make

    for op in UPDATE_OPS:
        tracer.wrap(updates, op, make_update(f"updates.{op}"))

    def make_boundaries(original: Callable) -> Callable:
        def wrapper(self):
            # ``is_boundary`` calls this once per (cell, column) probe; only
            # calls that register boundaries do work worth a span.
            if self._boundaries_ready:
                return original(self)
            with tracer.span("updates.ensure_boundaries"):
                return original(self)

        return wrapper

    tracer.wrap(SubdomainIndex, "ensure_boundaries", make_boundaries)

    tracer.wrap_span(parser, "tokenize", "dbms.tokenize")
    tracer.wrap_span(executor, "parse_script", "dbms.parse")
    tracer.wrap_span(ImprovementService, "improve", "dbms.improve")

    def make_dispatch(original: Callable) -> Callable:
        def wrapper(self, requests):
            with tracer.span("pool.dispatch", n=len(requests)):
                parent = tracer.current()
                outcomes = original(self, requests)
            for ok, value in outcomes:
                info = getattr(value, SHIPPED, None) if ok else None
                if info is not None:
                    tracer.add_iq(info, parent)
            return outcomes

        return wrapper

    tracer.wrap(PersistentPool, "run_outcomes", make_dispatch)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def self_times(spans: "list[dict]") -> "list[float]":
    """Each span's duration minus the part of it its children cover."""
    children: "dict[int, list[tuple[float, float]]]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out.append(span["end"] - span["start"] - covered)
    return out


def _mean(values: "list[float]") -> float:
    return sum(values) / len(values) if values else 0.0


def _tail(values: "list[float]") -> float:
    if not values:
        return 0.0
    try:
        return percentile(values, tail_level(len(values)))
    except ValueError:
        return max(values)  # too few samples for a tail: report the worst


class _Tree:
    """Parent/child lookups over the spans of the timed phase."""

    def __init__(self, spans: "list[dict]", since: float) -> None:
        self.spans = spans
        self.own = self_times(spans)
        self.run = [i for i, s in enumerate(spans) if s["start"] >= since]
        self.kids: "dict[int, list[int]]" = {}
        for i, span in enumerate(spans):
            if span["parent"] is not None:
                self.kids.setdefault(span["parent"], []).append(i)

    def named(self, name: str, among: "list[int] | None" = None) -> "list[int]":
        return [i for i in (self.run if among is None else among) if self.spans[i]["name"] == name]

    def below(self, roots: "list[int]", name: str) -> "list[list[int]]":
        """Per root, the descendants called ``name``."""
        out = []
        for root in roots:
            found, todo = [], list(self.kids.get(root, []))
            while todo:
                i = todo.pop()
                if self.spans[i]["name"] == name:
                    found.append(i)
                todo.extend(self.kids.get(i, []))
            out.append(found)
        return out

    def duration(self, i: int) -> float:
        return self.spans[i]["end"] - self.spans[i]["start"]

    def durations(self, indices: "list[int]") -> "list[float]":
        return [self.duration(i) for i in indices]

    def attr(self, indices: "list[int]", key: str) -> "list[float]":
        return [self.spans[i]["attrs"][key] for i in indices]


def layer_metrics(tracer: Tracer, extra: dict) -> "tuple[dict[str, float], dict]":
    """Per-layer metrics and per-path stage shares of the timed phase.

    ``extra`` carries what the workload timed itself: set-up sub-phases,
    pool and server counters, and per-request admission/response times.
    """
    tree = _Tree(tracer.spans, tracer.marks.get("timed", 0.0))
    iqs = tree.named("iq")
    n_iq = len(iqs) or 1

    def per_iq(name: str, self_only: bool = False) -> float:
        groups = tree.below(iqs, name)
        values = [sum(tree.own[i] if self_only else tree.duration(i) for i in g) for g in groups]
        return _mean(values)

    candidates = sum(tree.attr(iqs, "candidates"))
    iterations = sum(tree.attr(iqs, "iterations"))
    builds = tree.named("subdomain.build", list(range(len(tree.spans))))
    metrics = {
        "plan.self_s": per_iq("plan", self_only=True),
        "engine.unattributed_s": _mean([tree.own[i] for i in iqs]),
        "candidates.s": per_iq("candidates"),
        "candidates.count": candidates / n_iq,
        "solve.candidates_per_iteration": candidates / max(1, iterations),
        "evaluate.s": per_iq("evaluate"),
        "evaluate.count": sum(tree.attr(iqs, "evaluations")) / n_iq,
        "solve.self_s": per_iq("solve", self_only=True),
        "solve.iterations": iterations / n_iq,
        "subdomain.build_s": _mean(tree.durations(builds)),
        "subdomain.first_iq_s": median(extra["first_iq"]),
        "subdomain.hyperplanes": _mean(tree.attr(builds, "hyperplanes")),
        "subdomain.subdomains": _mean(tree.attr(builds, "subdomains")),
        "subdomain.memory_bytes": _mean(tree.attr(builds, "memory_bytes")),
    }

    mutations = [i for op in UPDATE_OPS for i in tree.named(f"updates.{op}")]
    n_mut = len(mutations) or 1
    boundaries = tree.named("updates.ensure_boundaries")
    for op in UPDATE_OPS:
        values = tree.durations(tree.named(f"updates.{op}"))
        metrics[f"updates.{op}_p50_s"] = median(values) if values else 0.0
    metrics.update({
        "updates.ensure_boundaries_s": sum(tree.durations(boundaries)) / n_mut,
        "updates.ensure_boundaries_calls": len(boundaries) / n_mut,
        "updates.hyperplanes_delta": _mean(tree.attr(mutations, "hyperplanes_delta")),
        "updates.subdomains_delta": _mean(tree.attr(mutations, "subdomains_delta")),
        "maintain.read_after_write_s": _mean(tree.durations(iqs)) if mutations else 0.0,
    })

    dispatches = tree.named("pool.dispatch")
    waits, emits = _server_waits(tree, dispatches, extra)
    metrics.update({
        "persist.load_s": median(extra["load"]) if extra.get("load") else 0.0,
        "pool.start_s": median(extra["pool_start"]) if extra.get("pool_start") else 0.0,
        "pool.dispatch_p50_s": median(tree.durations(dispatches)) if dispatches else 0.0,
        "pool.batch_size_mean": _mean(tree.attr(dispatches, "n")),
        "pool.batches": float(len(dispatches)),
        "pool.restarts": float(extra.get("restarts", 0)),
        "pool.refreshes": float(extra.get("refreshes", 0)),
        "server.queue_wait_tail_s": _tail(waits),
        "server.emit_tail_s": _tail(emits),
        "server.rejected": float(extra.get("rejected", 0)),
        "server.failed": float(extra.get("server_failed", 0)),
        "loadgen.late_tail_s": _tail(extra.get("late", [])),
    })

    statements = tree.named("sql")
    n_stmt = len(statements) or 1
    rebuilds = [i for group in tree.below(statements, "subdomain.build") for i in group]
    metrics.update({
        "dbms.tokenize_s": sum(tree.durations(tree.named("dbms.tokenize"))) / n_stmt,
        "dbms.parse_s": sum(tree.own[i] for i in tree.named("dbms.parse")) / n_stmt,
        "dbms.bind_s": _mean([tree.own[i] for i in tree.named("dbms.improve")]),
        "dbms.rebuilds": float(len(rebuilds)),
        "dbms.rebuild_s": _mean(tree.durations(rebuilds)),
    })

    roots = [i for i in tree.run if tree.spans[i]["parent"] is None]
    root_total = sum(tree.durations(roots))
    metrics["op.unattributed_frac"] = (
        sum(tree.own[i] for i in roots) / root_total if root_total else 0.0
    )
    return metrics, {"paths": _shares(tree, roots)}


def _shares(tree: _Tree, roots: "list[int]") -> "dict[str, dict[str, float]]":
    """Per root span name: each stage's share of self time, plus the remainder.

    Children that ran in parallel processes (pool workers) each count
    their own time, so a pooled path's shares can sum past 1.
    """
    out: "dict[str, dict[str, float]]" = {}
    for path in sorted({tree.spans[i]["name"] for i in roots}):
        mine = [i for i in roots if tree.spans[i]["name"] == path]
        total = sum(tree.durations(mine))
        if not total:
            continue
        shares = {"unattributed": sum(tree.own[i] for i in mine) / total}
        pending = [k for i in mine for k in tree.kids.get(i, [])]
        while pending:
            i = pending.pop()
            name = tree.spans[i]["name"]
            shares[name] = shares.get(name, 0.0) + tree.own[i] / total
            pending.extend(tree.kids.get(i, []))
        out[path] = dict(sorted(shares.items()))
    return out


def _server_waits(tree: _Tree, dispatches: "list[int]", extra: dict) -> "tuple[list[float], list[float]]":
    """Queue wait and emit time of each open-loop request.

    The server dispatches admitted requests in FIFO order, so the k-th
    request dispatched after serving began is the k-th request admitted.
    """
    admitted = extra.get("admitted", [])
    open_loop = set(extra.get("open_loop_ids", ()))
    responded = extra.get("responded", {})
    waits: "list[float]" = []
    emits: "list[float]" = []
    position = 0
    for index in dispatches:
        span = tree.spans[index]
        for request_id, taken in admitted[position : position + span["attrs"]["n"]]:
            if request_id in open_loop:
                waits.append(span["start"] - taken)
                emits.append(responded[request_id] - span["end"])
        position += span["attrs"]["n"]
    return waits, emits
