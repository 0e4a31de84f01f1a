"""Shared fault injection for the harness canary tests.

The ESE hot path classifies queries against the slab boundaries through
the batched ``ese._slab_crossings``, so re-creating the pre-fix
tie-band-blind predicate must patch that function — patching the scalar
reference helper ``ese._slab_region`` would leave the vectorized path
that actually runs untouched and the canary powerless.

Eq. 6 itself runs through per-query cutoffs that the evaluator builds
with ``ese._eq6_cutoffs`` (the name ``ese`` imported), so the cutoff
canary patches that binding.
"""

import numpy as np
import pytest

from repro.core import ese


@pytest.fixture
def tie_band_blind(monkeypatch):
    """Inject the pre-fix predicate: affected iff the raw slab sign flips."""

    def sign_only(old_values, new_values, theta):
        return (np.asarray(old_values) > 0) != (np.asarray(new_values) > 0)

    monkeypatch.setattr(ese, "_slab_crossings", sign_only)
    return sign_only


@pytest.fixture
def cutoff_one_ulp_low(monkeypatch):
    """Move the first query's Eq. 6 cutoff one float down, for every target."""
    build = ese._eq6_cutoffs

    def shifted(theta, target, kth_ids):
        cutoffs = build(theta, target, kth_ids)
        cut = cutoffs.cut.copy()
        cut[:1] = np.nextafter(cut[:1], -np.inf)
        return cutoffs._replace(cut=cut)

    monkeypatch.setattr(ese, "_eq6_cutoffs", shifted)
    return shifted
