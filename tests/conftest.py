"""Fixtures shared by every test under ``tests/``."""

import importlib

import pytest

coh_mod = importlib.import_module("ulrichbundles.cohomology")


@pytest.fixture(autouse=True)
def cold_pattern_cache(monkeypatch):
    """Each test starts from an empty oracle pattern cache and leaves the
    shared one as it found it, so no test warms another's, nor the cache
    that the benchmark's traced oracle run expects to find cold."""
    monkeypatch.setattr(coh_mod, "_PATTERN_CACHE", {})
