"""Fixtures shared by every test under ``tests/``."""

import importlib

import pytest

coh_mod = importlib.import_module("ulrichbundles.cohomology")
ulrich_mod = importlib.import_module("ulrichbundles.ulrich")


@pytest.fixture(autouse=True)
def cold_pattern_cache(monkeypatch):
    """Each test starts from an empty oracle pattern cache and leaves the
    shared one as it found it, so no test warms another's, nor the cache
    that the benchmark's traced oracle run expects to find cold."""
    monkeypatch.setattr(coh_mod, "_PATTERN_CACHE", {})


@pytest.fixture(autouse=True)
def cold_criterion_setups():
    """Each test starts from an empty criterion-setup memo and leaves it
    empty, so a test that counts the setup's work sees it whatever ran
    before, and the benchmark's traced runs find the memo cold."""
    ulrich_mod._setup_for.cache_clear()
    yield
    ulrich_mod._setup_for.cache_clear()
