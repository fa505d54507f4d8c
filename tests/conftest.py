"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from itertools import count

import numpy as np
import pytest
from hypothesis import settings

from repro.config import EngineConfig, HardwareConfig, StoreConfig
from repro.models import GiB, MiB, get_model
from repro.sim import Simulator
from repro.workload import WorkloadSpec, generate_trace

# Tier-1 draws the same examples on every run of the same tree: each test
# seeds from its own source, and no saved failures replay, so a defect
# cannot pass one run and fail the next.  ``--hypothesis-profile=explore``
# draws fresh examples, more of them where a test does not fix the count.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, max_examples=1000)


def pytest_configure(config):
    if config.getoption("hypothesis_profile", None) is None:
        settings.load_profile("tier1")


@pytest.fixture(scope="session")
def small_trace():
    """A tiny deterministic workload (fast engine tests)."""
    return generate_trace(WorkloadSpec(n_sessions=40, seed=7))


@pytest.fixture(scope="session")
def medium_trace():
    """A mid-sized workload for integration tests."""
    return generate_trace(WorkloadSpec(n_sessions=200, seed=13))


@pytest.fixture
def llama13b():
    return get_model("llama-13b")


@pytest.fixture
def llama65b():
    return get_model("llama-65b")


@pytest.fixture
def small_store_config():
    """A deliberately tight store so eviction paths are exercised."""
    return StoreConfig(dram_bytes=8 * GiB, ssd_bytes=64 * GiB, block_bytes=16 * MiB)


@pytest.fixture
def engine_config():
    return EngineConfig(batch_size=8)


@pytest.fixture
def hardware():
    return HardwareConfig(num_gpus=2)


@pytest.fixture
def tie_shuffle(monkeypatch):
    """Break same-timestamp ties at random in every simulator built next.

    Call the returned function with a seed.  It patches ``Simulator``
    construction so the heap's tie-break key is ``(rng.random(), n)``
    instead of the scheduling counter: events at one timestamp fire in a
    seeded random order, while time order is untouched.  A result that
    changes under this fixture depends on an ordering the model does not
    mean to make (DESIGN.md §12).
    """
    init = Simulator.__init__

    def install(seed: int) -> None:
        def shuffled_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            rng = random.Random(seed)
            self._seq = ((rng.random(), n) for n in count())

        monkeypatch.setattr(Simulator, "__init__", shuffled_init)

    return install
