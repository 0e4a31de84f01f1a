"""Shared fault injection for the harness canary tests.

The ESE hot path classifies queries against the slab boundaries through
the batched ``ese._slab_crossings``, so re-creating the pre-fix
tie-band-blind predicate must patch that function — patching the scalar
reference helper ``ese._slab_region`` would leave the vectorized path
that actually runs untouched and the canary powerless.
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
