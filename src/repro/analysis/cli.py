"""``repro lint`` — run the project lint rules from the command line.

Exit codes: 0 clean, 1 findings reported, 2 bad invocation (unknown
rule code, missing target).  Also runnable as ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO

import repro.analysis.concurrency  # noqa: F401  (registers RPR008, RPR010-RPR011)
import repro.analysis.rules  # noqa: F401  (registers RPR001-RPR007, RPR013-RPR014)
from repro.analysis.framework import (
    LintConfig,
    lint_paths,
    registered_rules,
    render_human,
    render_json,
    render_sarif,
)
from repro.errors import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro lint`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project-specific static analysis (rules RPR001-RPR014).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["human", "json", "sarif"],
        default="human",
        help="output format",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--tests-root",
        default=None,
        metavar="DIR",
        help="tests directory for RPR005 parity lookups "
        "(default: nearest tests/ above each linted file)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _parse_codes(spec: str | None) -> frozenset[str] | None:
    if spec is None:
        return None
    return frozenset(code.strip().upper() for code in spec.split(",") if code.strip())


def main(argv: list[str] | None = None, out: IO[str] | None = None) -> int:
    """Run the lint rules over the requested paths; returns the exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.code} [{rule.severity}] {rule.title}", file=out)
        return 0

    known = {rule.code for rule in registered_rules()}
    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore) or frozenset()
    unknown = ((select or frozenset()) | ignore) - known
    if unknown:
        print(f"error: unknown rule code(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2

    config = LintConfig(
        select=select,
        ignore=ignore,
        tests_root=Path(args.tests_root) if args.tests_root else None,
    )
    try:
        findings, checked = lint_paths([Path(p) for p in args.paths], config)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        render_json(findings, checked, out)
    elif args.format == "sarif":
        render_sarif(findings, checked, out)
    else:
        render_human(findings, checked, out)
    return 1 if any(f.severity == "error" for f in findings) else 0
