"""Seeded fuzz driver with greedy sequence shrinking.

Generates random :class:`~repro.check.differential.Scenario` values —
an IN/CO/AC dataset, an exact/relevant index, and a random op sequence
over :mod:`repro.core.updates` — and runs the full oracle battery on
each: index invariants, update-vs-rebuild differential, affected-vs-full
ESE parity (tie-band probes included), and IQ result contracts.

A quarter of the scenarios are tie-heavy: their data, query weights and
op vectors lie on a 0.1 grid, and some added objects copy an initial
one, so scores tie exactly or to within their last bits.  Every case is
derived deterministically from ``(seed, case_index)``, so a failure
reported by CI replays locally with the same seed.  On
failure the driver greedily shrinks the op sequence — repeatedly
dropping ops while the scenario still fails — and reports the minimal
scenario as a copy-pasteable repr::

    from repro.check import check_scenario, run_case
    from repro.check.differential import *
    run_case(Scenario(kind='IN', mode='relevant', ...))

Op subsequences stay replayable because removal ops resolve ids modulo
the current state (see :mod:`repro.check.differential`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.check.differential import (
    AddObject,
    AddQuery,
    Op,
    RemoveObject,
    RemoveQuery,
    Scenario,
    check_affected_parity,
    check_iq_contracts,
    check_scenario,
    initial_data,
)
from repro.data.synthetic import DATASET_KINDS
from repro.errors import ReproError

__all__ = ["FuzzFailure", "fuzz", "random_scenario", "run_case", "shrink"]

_MODES = ("exact", "relevant")
#: Share of scenarios drawn tie-heavy (see :func:`_on_grid`).
_GRID_SHARE = 0.25
#: Share of a tie-heavy scenario's added objects that copy an initial one.
_COPY_SHARE = 0.5


@dataclass(frozen=True)
class FuzzFailure:
    """One fuzz counterexample, already shrunk to a minimal op sequence."""

    scenario: Scenario  #: minimal failing scenario (repr is replayable)
    error: str  #: message of the oracle that failed

    def render(self) -> str:
        """Human-readable report with a copy-pasteable replay line."""
        return (
            f"FAIL: {self.error}\n"
            f"  replay with: run_case({self.scenario!r})"
        )


def random_scenario(seed: int, case_index: int, mode: str | None = None) -> Scenario:
    """Deterministically derive one random scenario from (seed, case)."""
    rng = np.random.default_rng([seed, case_index])
    kind = str(rng.choice(DATASET_KINDS))
    picked_mode = mode if mode is not None else str(rng.choice(_MODES))
    n = int(rng.integers(4, 11))
    m = int(rng.integers(5, 13))
    d = int(rng.integers(2, 4))
    k_max = int(rng.integers(1, 4))
    ops: list[Op] = []
    for __ in range(int(rng.integers(3, 9))):
        roll = float(rng.random())
        if roll < 0.3:
            ops.append(
                AddQuery(
                    weights=tuple(float(w) for w in rng.random(d)),
                    k=int(rng.integers(1, k_max + 1)),
                )
            )
        elif roll < 0.5:
            ops.append(RemoveQuery(slot=int(rng.integers(0, 1 << 16))))
        elif roll < 0.8:
            ops.append(AddObject(attributes=tuple(float(a) for a in rng.random(d))))
        else:
            ops.append(RemoveObject(slot=int(rng.integers(0, 1 << 16))))
    scenario = Scenario(
        kind=kind,
        mode=picked_mode,
        n=n,
        m=m,
        d=d,
        seed=int(rng.integers(0, 1 << 20)),
        k_max=k_max,
        ops=tuple(ops),
    )
    if rng.random() < _GRID_SHARE:
        scenario = _on_grid(scenario, rng)
    return scenario


def _on_grid(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """``scenario`` made tie-heavy: on the 0.1 grid, some added objects copies.

    The initial data is rounded at replay (:attr:`Scenario.grid`), the
    op vectors here; a copied object ties its original exactly at every
    query.
    """
    scenario = replace(scenario, grid=True)
    initial = initial_data(scenario)[0].points
    ops: list[Op] = []
    for op in scenario.ops:
        if isinstance(op, AddQuery):
            op = replace(op, weights=_grid(op.weights))
        elif isinstance(op, AddObject):
            original = initial[int(rng.integers(initial.shape[0]))]
            copied = rng.random() < _COPY_SHARE
            op = AddObject(attributes=_grid(original if copied else op.attributes))
        ops.append(op)
    return replace(scenario, ops=tuple(ops))


def _grid(values: "tuple[float, ...] | np.ndarray") -> tuple[float, ...]:
    return tuple(float(v) for v in np.round(np.asarray(values, dtype=float), 1))


def run_case(scenario: Scenario) -> str | None:
    """Run the full oracle battery on one scenario.

    Returns ``None`` when every oracle passes, otherwise the failure
    message (library errors from the oracles or from replay itself —
    an op sequence that corrupts the index enough to crash is a finding
    too).
    """
    try:
        index = check_scenario(scenario)
        rng = np.random.default_rng([scenario.seed, 97])
        check_affected_parity(index, rng)
        check_iq_contracts(index, rng)
    except ReproError as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def shrink(scenario: Scenario, error: str) -> tuple[Scenario, str]:
    """Greedy delta-debugging: drop ops while *some* failure persists.

    Repeatedly tries removing each op (suffix first, so later ops —
    usually incidental — go before the triggering prefix); keeps any
    shorter sequence that still fails, until no single removal does.
    The preserved failure may differ in message from the original; the
    final (scenario, error) pair is what gets reported.
    """
    current = scenario
    current_error = error
    improved = True
    while improved:
        improved = False
        for i in reversed(range(len(current.ops))):
            candidate = replace(
                current, ops=current.ops[:i] + current.ops[i + 1 :]
            )
            failure = run_case(candidate)
            if failure is not None:
                current = candidate
                current_error = failure
                improved = True
                break
    return current, current_error


def fuzz(
    cases: int,
    seed: int = 0,
    mode: str | None = None,
    stop_after: int | None = 5,
) -> list[FuzzFailure]:
    """Run ``cases`` random scenarios; return shrunk failures.

    ``mode`` pins the index mode (``None`` lets each case pick
    randomly); ``stop_after`` bounds how many distinct failures are
    collected before returning early (shrinking is the expensive part).
    """
    failures: list[FuzzFailure] = []
    for case_index in range(cases):
        scenario = random_scenario(seed, case_index, mode=mode)
        error = run_case(scenario)
        if error is None:
            continue
        minimal, minimal_error = shrink(scenario, error)
        failures.append(FuzzFailure(scenario=minimal, error=minimal_error))
        if stop_after is not None and len(failures) >= stop_after:
            break
    return failures
