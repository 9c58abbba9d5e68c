"""Shared fixtures: tiny inputs and configs that keep unit tests fast."""

import os

import pytest

from repro.pipette.config import CacheConfig, MachineConfig
from repro.workloads.graphs import uniform_random


@pytest.fixture(scope="session", autouse=True)
def _cache_sandbox(tmp_path_factory):
    """Keep the repro.cache disk layer out of ``~/.cache`` during tests."""
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("phloem-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


@pytest.fixture
def cold_store(tmp_path, monkeypatch):
    """A fresh disk store (``tmp_path / "cache"``), empty in-process memo
    layers and zeroed hit/miss counters, for one test."""
    from repro import cache

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    cache.reset()
    yield
    cache.reset()


@pytest.fixture(scope="session")
def tiny_config():
    """A small machine: full feature set, tiny caches, quick to simulate."""
    return MachineConfig(
        l1=CacheConfig(4 * 1024, 4, 4),
        l2=CacheConfig(16 * 1024, 8, 12),
        l3_per_core=CacheConfig(64 * 1024, 16, 40),
    )


@pytest.fixture(scope="session")
def tiny_graph():
    """A 300-vertex graph small enough for exhaustive validation."""
    return uniform_random(300, 4, seed=9)


@pytest.fixture(scope="session")
def micro_graph():
    """A 60-vertex graph for the slowest (replicated/multi-variant) tests."""
    return uniform_random(60, 3, seed=5)
