"""Shared fixtures."""

import pytest

from legch import builders


@pytest.fixture(autouse=True)
def fresh_builders():
    """Every test starts with no kept builder results, so none is served
    statistics that an earlier test memoized, e.g. by expansion under
    another EXPANSION_CAP."""
    builders.path_matrix.cache_clear()
    builders.torus_tangle.cache_clear()
