"""Differential correctness harness (``repro check``).

The paper's efficiency claims rest on equivalences the rest of the
library only ever exercised point-wise: incremental maintenance (§4.3)
must equal rebuild-from-scratch, the affected-subspace path of
Algorithm 2 must equal the full vectorized ESE, and every solver must
honour its own feasibility contract.  This package turns those
equivalences into standing, mechanically checked oracles:

* :mod:`repro.check.oracles` — structural invariants over a single
  :class:`~repro.core.subdomain.SubdomainIndex` (partition cover and
  representatives, signature/normal consistency, brute-force prefix
  parity, pair bookkeeping).
* :mod:`repro.check.differential` — behavioural equivalences: replayed
  op sequences vs a fresh build, ``evaluate_affected`` vs ``evaluate``
  (including engineered tie-band positions), and Min-Cost / Max-Hit
  result contracts re-verified from scratch.
* :mod:`repro.check.fuzz` — a seeded fuzz driver generating random
  scenarios, with greedy sequence shrinking that reduces any failure to
  a minimal, copy-pasteable :class:`~repro.check.differential.Scenario`
  repr.
* :mod:`repro.check.cli` — the ``repro check`` subcommand /
  ``python -m repro.check`` entry point and the deterministic IN/CO/AC
  battery CI runs.
"""

from __future__ import annotations

from repro.check.differential import (
    AddObject,
    AddQuery,
    RemoveObject,
    RemoveQuery,
    Scenario,
    check_affected_parity,
    check_iq_contracts,
    check_scenario,
    replay,
)
from repro.check.fuzz import FuzzFailure, fuzz, run_case, shrink
from repro.check.oracles import check_index_invariants
from repro.errors import CheckFailure

__all__ = [
    "AddObject",
    "AddQuery",
    "CheckFailure",
    "FuzzFailure",
    "RemoveObject",
    "RemoveQuery",
    "Scenario",
    "check_affected_parity",
    "check_index_invariants",
    "check_iq_contracts",
    "check_scenario",
    "fuzz",
    "replay",
    "run_case",
    "shrink",
]
