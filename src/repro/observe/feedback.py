"""Feedback planner rule: recorded runtime stats → kernel choice.

:func:`choose_kernel` reads the :class:`~repro.observe.store.StatsStore`
and returns a :class:`Choice` — the chosen backend *plus a note citing
the stat that justified it*.  The engine appends that note to
``plan.notes``, so an ``EXPLAIN`` of an auto-planned query always shows
its evidence.  The rule never mutates the store and never touches
solver state: the kernel backends are bit-exact twins, so the choice
changes *how fast* a query runs, never its answer.  The solver, which
does change the answer, is never chosen from stats.

The rule is deliberately conservative: the kernel is only moved off its
availability-based default when the store has seen *competing* backends
for this workload fingerprint, so cold stores behave exactly like the
static planner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.observe.store import StatsStore

__all__ = ["Choice", "choose_kernel"]


@dataclass(frozen=True)
class Choice:
    """One feedback decision: the value and the stat-citing note."""

    value: str
    note: str


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}ms"


def choose_kernel(
    store: StatsStore, fingerprint: str, available: Iterable[str]
) -> Choice | None:
    """Resolve ``kernel="auto"`` from recorded backend timings, if any.

    Returns ``None`` — keep the availability-based default — unless the
    store has seen at least two distinct backends for this fingerprint
    (one backend recorded proves nothing about the alternative) and the
    fastest one is still available in this process.
    """
    ranked = store.knob_medians(fingerprint, "kernel")
    if len(ranked) < 2:
        return None
    usable = set(available)
    for kernel, median, runs in ranked:
        if kernel in usable:
            return Choice(
                kernel,
                f"auto kernel={kernel}: fastest median {_fmt_ms(median)} over "
                f"{runs} analyzed run{'s' if runs != 1 else ''} "
                f"(of {len(ranked)} recorded backends) for fingerprint {fingerprint}",
            )
    return None
