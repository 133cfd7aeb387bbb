"""Fixtures shared by every test under ``tests/``."""

import importlib

import pytest

coh_mod = importlib.import_module("ulrichbundles.cohomology")
ulrich_mod = importlib.import_module("ulrichbundles.ulrich")


@pytest.fixture(autouse=True)
def cold_oracle_caches():
    """Each test starts from empty oracle caches (the per-fan sign patterns
    and the vertex systems' inverses) and leaves them empty, so no test
    warms another's, nor the caches that the benchmark's traced oracle run
    expects to find cold."""
    oracle_caches = (coh_mod._fan_patterns, coh_mod._vertex_system)
    for cache in oracle_caches:
        cache.cache_clear()
    yield
    for cache in oracle_caches:
        cache.cache_clear()


@pytest.fixture(autouse=True)
def cold_criterion_setups():
    """Each test starts from an empty criterion-setup memo and leaves it
    empty, so a test that counts the setup's work sees it whatever ran
    before, and the benchmark's traced runs find the memo cold."""
    ulrich_mod._setup_for.cache_clear()
    yield
    ulrich_mod._setup_for.cache_clear()
