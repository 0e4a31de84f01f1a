"""Shared fixtures for the test suite."""

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A deterministic random generator; reseeded per test."""
    return np.random.default_rng(20170321)  # EDBT 2017 opening day


@pytest.fixture
def small_market(rng):
    """A small (objects, queries, ks) instance used across core tests."""
    objects = rng.random((30, 3))
    queries = rng.random((40, 3))
    ks = rng.integers(1, 6, size=40)
    return objects, queries, ks
