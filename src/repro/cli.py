"""Command-line analytic tool (``python -m repro``).

The paper ships its techniques as "an analytic tool integrated with the
DBMS" driven by a GUI (Fig. 3): pick target objects, choose which
attributes may be adjusted and in what range, pick a cost function, and
run a Min-Cost or Max-Hit improvement query.  This module is that tool
as a CLI over CSV files.

Subcommands
-----------
``improve``   run an IQ against object/query CSVs::

    python -m repro improve objects.csv queries.csv --target 3 \\
        --reach 25 --cost L2 --sense max --adjust "price:-80:0" \\
        --freeze storage

``explain``   print the :class:`~repro.core.plan.ExecutionPlan` an
              equivalent ``improve`` call would run, without running it
              (the CLI face of ``engine.explain`` / SQL
              ``EXPLAIN IMPROVE``).
``hits``      report H(target) and the reverse top-k for each object.
``serve``     long-lived batched IQ server: JSONL requests in (stdin or
              ``--input`` file), JSONL responses out, served by a
              persistent worker pool holding the built index.
``demo``      a self-contained run on generated data (no files needed).
``sql``       start the interactive mini-DBMS shell.
``bench``     run the benchmark-regression harness: every bench figure
              times a baseline path against the path it defends (also
              available as ``python -m repro.bench``).
``check``     run the differential correctness harness — invariant
              oracles, update-vs-rebuild differentials, ESE parity, and
              a seeded fuzz driver with counterexample shrinking (also
              available as ``python -m repro.check``).
``lint``      run the project's static analysis rules.

``bench``, ``check`` and ``lint`` take their tools' own options, so
``repro bench --help`` prints the harness's flags.

Object CSVs have one numeric column per attribute.  Query CSVs have the
matching weight columns plus a final ``k`` column.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.constants import EPS_FEASIBILITY
from repro.core.cost import L1Cost, L2Cost, LInfCost
from repro.core.engine import ImprovementQueryEngine
from repro.core.queries import QuerySet
from repro.core.solvers import registered_solvers
from repro.core.strategy import StrategySpace
from repro.core.subdomain import SubdomainIndex
from repro.data.realworld import load_csv, read_csv
from repro.errors import ReproError, ValidationError

__all__ = ["main", "build_parser"]

_COSTS = {"L1": L1Cost, "L2": L2Cost, "LINF": LInfCost}

#: Subcommands that run another tool, with their help lines.  Each tool
#: parses its own options: :func:`main` forwards the arguments after
#: the tool's name to that tool's ``main``.
_TOOLS = {
    "bench": "benchmark-regression harness",
    "check": "differential correctness harness (oracles + seeded fuzz)",
    "lint": "project static analysis (rules RPR001-RPR014)",
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface of the analytic tool."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Improvement queries over top-k preference workloads (EDBT'17).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_iq_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("objects", help="object CSV (numeric attribute columns)")
        command.add_argument("queries", help="query CSV (weight columns + final k column)")
        command.add_argument("--target", type=int, required=True, action="append",
                             help="object row id to improve (repeatable)")
        goal = command.add_mutually_exclusive_group(required=True)
        goal.add_argument("--reach", type=int, help="Min-Cost goal tau")
        goal.add_argument("--budget", type=float, help="Max-Hit budget beta")
        command.add_argument("--cost", default="L2", choices=sorted(_COSTS))
        command.add_argument("--sense", default="min", choices=["min", "max"])
        # Choices come from the solver table: the five schemes of §6.1.
        # The solver changes the answer, so it is never chosen for the user.
        command.add_argument("--method", default="efficient",
                             choices=list(registered_solvers()))
        command.add_argument("--adjust", action="append", default=[],
                             metavar="COL:LO:HI",
                             help="bound a column's adjustment, e.g. price:-80:0")
        command.add_argument("--freeze", action="append", default=[], metavar="COL",
                             help="forbid adjusting a column")
        add_index_arguments(command)

    def add_index_arguments(command: argparse.ArgumentParser) -> None:
        command.add_argument("--save-index", default=None, metavar="DIR",
                             help="persist the built index as a directory of "
                                  "memory-mappable .npy files")
        command.add_argument("--load-index", default=None, metavar="DIR",
                             help="restore an index directory written by "
                                  "--save-index instead of rebuilding "
                                  "(fingerprints must match the CSVs)")

    improve = sub.add_parser("improve", help="run a Min-Cost or Max-Hit IQ")
    add_iq_arguments(improve)

    explain = sub.add_parser(
        "explain", help="show the execution plan of an improve call, without running it"
    )
    add_iq_arguments(explain)
    explain.add_argument("--analyze", action="store_true",
                         help="EXPLAIN ANALYZE: actually run the query (results "
                              "discarded, byte-identical to improve) and append "
                              "the observed per-stage timings and counters")

    hits = sub.add_parser("hits", help="report current hits per object")
    hits.add_argument("objects")
    hits.add_argument("queries")
    hits.add_argument("--sense", default="min", choices=["min", "max"])
    hits.add_argument("--top", type=int, default=10, help="rows to print")
    add_index_arguments(hits)

    serve = sub.add_parser(
        "serve", help="long-lived JSONL improvement-query server (stdin -> stdout)"
    )
    serve.add_argument("objects")
    serve.add_argument("queries")
    serve.add_argument("--sense", default="min", choices=["min", "max"])
    serve.add_argument("--input", default=None, metavar="PATH",
                       help="read JSONL requests from this file instead of stdin")
    serve.add_argument("--batch-size", type=int, default=None, metavar="N",
                       help="max requests coalesced into one pool dispatch")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission bound; requests beyond it are rejected")
    serve.add_argument("--workers", default=None, metavar="N",
                       help="serving pool size: an integer, or 'auto' for all "
                            "cores (default: serial)")
    add_index_arguments(serve)

    demo = sub.add_parser("demo", help="self-contained demo on generated data")
    demo.add_argument("--seed", type=int, default=0)

    sub.add_parser("sql", help="interactive mini-DBMS shell")

    # Listed for ``repro --help``; main() hands them to their tools first.
    for name, summary in _TOOLS.items():
        sub.add_parser(name, help=summary)
    return parser


def _load(objects_path, queries_path, sense):
    dataset = load_csv(objects_path, normalized=False, sense=sense)
    __, weights_and_k = read_csv(queries_path)
    # QuerySet checks the k column: a finite whole number, never truncated.
    queries = QuerySet(weights_and_k[:, :-1], weights_and_k[:, -1], normalized=False)
    if queries.dim != dataset.dim:
        raise ValidationError(
            f"query file has {queries.dim} weight columns but objects have "
            f"{dataset.dim} attributes"
        )
    return dataset, queries


def _space(args, dataset) -> StrategySpace | None:
    if not args.adjust and not args.freeze:
        return None
    names = dataset.names or [f"col{j}" for j in range(dataset.dim)]
    lower = np.full(dataset.dim, -np.inf)
    upper = np.full(dataset.dim, np.inf)
    mentioned = set()

    def column_index(name):
        if name not in names:
            raise ValidationError(f"unknown column {name!r}; columns: {names}")
        return names.index(name)

    for spec in args.adjust:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"--adjust expects COL:LO:HI, got {spec!r}")
        idx = column_index(parts[0])
        lower[idx], upper[idx] = float(parts[1]), float(parts[2])
        mentioned.add(idx)
    for name in args.freeze:
        idx = column_index(name)
        lower[idx] = upper[idx] = 0.0
        mentioned.add(idx)
    # Paper semantics: listing ADJUST constraints freezes everything else.
    if args.adjust:
        for idx in range(dataset.dim):
            if idx not in mentioned:
                lower[idx] = upper[idx] = 0.0
    return StrategySpace(dataset.dim, lower=lower, upper=upper)


def _engine(args, dataset, queries) -> ImprovementQueryEngine:
    """Build (or restore) the engine honoring the index CLI options."""
    load_path = getattr(args, "load_index", None)
    if load_path:
        engine = ImprovementQueryEngine.from_index(
            SubdomainIndex.load(load_path, dataset, queries)
        )
    else:
        engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
    if getattr(args, "save_index", None):
        engine.index.save(args.save_index)
    return engine


def _cmd_improve(args, out) -> int:
    dataset, queries = _load(args.objects, args.queries, args.sense)
    engine = _engine(args, dataset, queries)
    cost = _COSTS[args.cost](dataset.dim)
    space = _space(args, dataset)
    names = dataset.names or [f"col{j}" for j in range(dataset.dim)]

    def report(target, result):
        goal = f"reach {args.reach}" if args.reach is not None else f"budget {args.budget}"
        print(f"target {target} ({goal}, cost {args.cost}, method {args.method}):", file=out)
        for name, delta in zip(names, result.strategy.vector):
            if abs(delta) > EPS_FEASIBILITY:
                print(f"  adjust {name:<16} {delta:+.6g}", file=out)
        print(
            f"  cost {result.total_cost:.6g}  hits {result.hits_before} -> "
            f"{result.hits_after}  satisfied {result.satisfied}",
            file=out,
        )

    targets = args.target
    if len(targets) == 1:
        target = targets[0]
        if args.reach is not None:
            result = engine.min_cost(target, args.reach, cost=cost, space=space, method=args.method)
        else:
            result = engine.max_hit(target, args.budget, cost=cost, space=space, method=args.method)
        report(target, result)
        return 0 if result.satisfied else 2
    if args.method != "efficient":
        raise ValidationError("multi-target improve supports --method efficient only")
    if args.reach is not None:
        multi = engine.min_cost_multi(targets, args.reach, costs=cost, spaces=space)
    else:
        multi = engine.max_hit_multi(targets, args.budget, costs=cost, spaces=space)
    print(
        f"targets {targets}: joint hits {multi.hits_before} -> {multi.hits_after}, "
        f"total cost {multi.total_cost:.6g}, satisfied {multi.satisfied}",
        file=out,
    )
    for target in targets:
        strategy = multi.strategies[target]
        moves = ", ".join(
            f"{name} {delta:+.4g}"
            for name, delta in zip(names, strategy.vector)
            if abs(delta) > EPS_FEASIBILITY
        )
        print(f"  target {target}: cost {strategy.cost:.6g}  [{moves or 'no change'}]", file=out)
    return 0 if multi.satisfied else 2


def _cmd_explain(args, out) -> int:
    dataset, queries = _load(args.objects, args.queries, args.sense)
    engine = _engine(args, dataset, queries)
    cost = _COSTS[args.cost](dataset.dim)
    space = _space(args, dataset)
    targets = args.target
    if len(targets) == 1:
        target = targets[0]
        if args.analyze:
            _, executed = engine.analyze(
                target, tau=args.reach, budget=args.budget,
                cost=cost, space=space, method=args.method,
            )
            plans = (executed,)
        else:
            plans = (
                engine.explain(
                    target, tau=args.reach, budget=args.budget,
                    cost=cost, space=space, method=args.method,
                ),
            )
    else:
        if args.method != "efficient":
            raise ValidationError("multi-target improve supports --method efficient only")
        if args.analyze:
            _, plans = engine.analyze_multi(
                targets, tau=args.reach, budget=args.budget, costs=cost, spaces=space
            )
        else:
            plans = engine.explain_multi(
                targets, tau=args.reach, budget=args.budget, costs=cost, spaces=space
            )
    for i, plan in enumerate(plans):
        if i:
            print(file=out)
        print(plan.render(), file=out)
    return 0


def _cmd_hits(args, out) -> int:
    dataset, queries = _load(args.objects, args.queries, args.sense)
    engine = _engine(args, dataset, queries)
    counts = [(engine.hits(t), t) for t in range(dataset.n)]
    counts.sort(reverse=True)
    print(f"{'object':>8}  {'hits':>5}  of {queries.m} queries", file=out)
    for hits, target in counts[: args.top]:
        print(f"{target:>8}  {hits:>5}", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    from repro.parallel.server import DEFAULT_BATCH_SIZE, DEFAULT_MAX_QUEUE, serve_stream

    dataset, queries = _load(args.objects, args.queries, args.sense)
    engine = _engine(args, dataset, queries)
    batch_size = args.batch_size if args.batch_size is not None else DEFAULT_BATCH_SIZE
    max_queue = args.max_queue if args.max_queue is not None else DEFAULT_MAX_QUEUE
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as reader:
            stats = serve_stream(engine, reader, out, workers=args.workers,
                                 batch_size=batch_size, max_queue=max_queue)
    else:
        stats = serve_stream(engine, sys.stdin, out, workers=args.workers,
                             batch_size=batch_size, max_queue=max_queue)
    # Responses go to stdout (pure JSONL); the session summary to stderr.
    print(
        f"serve: {stats.served} served, {stats.failed} failed, "
        f"{stats.rejected} rejected in {stats.seconds:.3f}s "
        f"({stats.throughput:.1f} req/s, "
        f"{stats.avg_request_seconds * 1000:.2f} ms/req dispatch, "
        f"workers {stats.workers}, "
        f"{stats.batches} batches, {stats.refreshes} refreshes)",
        file=sys.stderr,
    )
    return 0


def _cmd_demo(args, out) -> int:
    from repro.data.synthetic import independent
    from repro.data.workloads import uniform_queries
    from repro.core.objects import Dataset

    dataset = Dataset(independent(60, 3, seed=args.seed))
    queries = uniform_queries(40, 3, seed=args.seed + 1, k_range=(1, 5))
    engine = ImprovementQueryEngine(dataset, queries, mode="relevant")
    target = min(range(dataset.n), key=engine.hits)
    print(f"demo: 60 objects, 40 top-k queries; improving object {target} "
          f"(currently {engine.hits(target)} hits)", file=out)
    result = engine.min_cost(target, tau=10)
    print(f"min-cost to 10 hits: cost {result.total_cost:.4f}, "
          f"hits {result.hits_after}, strategy {np.round(result.strategy.vector, 4)}",
          file=out)
    result = engine.max_hit(target, budget=0.5)
    print(f"max-hit with budget 0.5: spent {result.total_cost:.4f}, "
          f"hits {result.hits_after}", file=out)
    return 0


def _run_tool(name: str, argv: list[str], out) -> int:
    if name == "bench":
        from repro.bench.regression import main as bench_main

        return bench_main(argv)
    if name == "check":
        from repro.check.cli import main as check_main

        return check_main(argv, out=out)
    from repro.analysis.cli import main as lint_main

    return lint_main(argv, out=out)


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in _TOOLS:
            return _run_tool(argv[0], argv[1:], out)
        args = build_parser().parse_args(argv)
        if args.command == "improve":
            return _cmd_improve(args, out)
        if args.command == "explain":
            return _cmd_explain(args, out)
        if args.command == "hits":
            return _cmd_hits(args, out)
        if args.command == "serve":
            return _cmd_serve(args, out)
        if args.command == "demo":
            return _cmd_demo(args, out)
        if args.command == "sql":
            from repro.dbms.__main__ import run_repl

            return run_repl(stdout=out)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0  # pragma: no cover - argparse enforces a command
