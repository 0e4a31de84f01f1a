"""Timing and reporting utilities shared by every benchmark.

``Stopwatch`` and ``time_call`` are re-exports of the observe layer's
clock primitives (:mod:`repro.observe.clock`) — the bench harness
predates that layer and every benchmark imports them from here, but the
clock itself now lives behind the RPR014 seam like all other timing.
"""

from __future__ import annotations

import json

from repro.constants import EPS_TIME
from repro.observe.clock import Stopwatch, time_call
from dataclasses import dataclass, field

__all__ = ["BenchRecord", "Stopwatch", "TableResult", "time_call", "write_bench_json"]

#: Schema tag written into every BENCH_*.json file.
BENCH_SCHEMA = "repro-bench-regression/1"


@dataclass
class TableResult:
    """A paper-style results table: title, column headers, data rows.

    ``notes`` carries the comparison the figure is supposed to show
    (who should win, what the trend should be) so EXPERIMENTS.md can be
    assembled straight from the benchmark output.
    """

    title: str
    columns: list
    rows: list = field(default_factory=list)
    notes: str = ""

    def add(self, *values) -> None:
        """Append one data row."""
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        """Values of one column across all rows."""
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        """Fixed-width text rendering of the table."""
        widths = [len(str(c)) for c in self.columns]
        formatted = []
        for row in self.rows:
            cells = [_fmt(v) for v in row]
            formatted.append(cells)
            for i, cell in enumerate(cells):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(str(c).rjust(w) for c, w in zip(self.columns, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for cells in formatted:
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(cells, widths)))
        if self.notes:
            lines.append("")
            lines.append(f"expected shape: {self.notes}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table to stdout."""
        print()
        print(self.render())
        print()


@dataclass
class BenchRecord:
    """One point of a regression-harness figure: baseline vs candidate.

    ``literal_seconds`` times the baseline path (the BSP partition loop,
    the per-query candidate loop, the serial batch loop, a rebuild, a
    plain engine call); ``vectorized_seconds`` times the candidate path
    the figure defends on the *same* inputs.  The names come from the
    first figures, which timed literal against vectorized code; a
    record exists only after the two sides' results agreed.
    """

    figure: str  #: bench-table row (fig4, fig5, fig7, par_batch, serve, ...)
    case: str  #: human-readable point on the figure's sweep axis
    config: dict  #: the generating parameters (sizes, seed, mode, ...)
    literal_seconds: float
    vectorized_seconds: float
    #: ExecutionPlan.to_dict() of the benchmarked call, when the measured
    #: stage belongs to a planned improvement query (fig7, par_batch);
    #: None for the other figures.
    plan: dict | None = None

    @property
    def speedup(self) -> float:
        """Wall-clock ratio literal / vectorized (higher is better)."""
        return self.literal_seconds / max(self.vectorized_seconds, EPS_TIME)

    def to_dict(self) -> dict:
        """JSON-ready dict (the ``records[]`` entry of BENCH_*.json)."""
        payload = {
            "figure": self.figure,
            "case": self.case,
            "config": dict(self.config),
            "literal_seconds": self.literal_seconds,
            "vectorized_seconds": self.vectorized_seconds,
            "speedup": self.speedup,
        }
        if self.plan is not None:
            payload["plan"] = dict(self.plan)
        return payload


def summarize_records(records) -> dict:
    """Per-figure speedup summary (min / median / max)."""
    by_figure: dict[str, list[float]] = {}
    for record in records:
        by_figure.setdefault(record.figure, []).append(record.speedup)
    summary = {}
    for figure, speedups in sorted(by_figure.items()):
        ordered = sorted(speedups)
        summary[figure] = {
            "points": len(ordered),
            "min_speedup": ordered[0],
            "median_speedup": ordered[len(ordered) // 2],
            "max_speedup": ordered[-1],
        }
    return summary


def write_bench_json(records, path, *, scale: str, extra: dict | None = None) -> dict:
    """Serialize regression records to ``path``; returns the payload."""
    payload = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "summary": summarize_records(records),
        "records": [record.to_dict() for record in records],
    }
    if extra:
        payload.update(extra)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)
