"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.bench.executor import REUSE
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform


@pytest.fixture(autouse=True)
def fresh_reuse_tier():
    """Each test starts with an empty in-process reuse tier, so what it
    simulates does not depend on the tests that ran before it."""
    REUSE.clear()
    yield
    REUSE.clear()


@pytest.fixture
def small_platform() -> Platform:
    """2 nodes x 4 cores = 8 ranks; enough to hit intra- and inter-node paths."""
    return Platform("test-small", nodes=2, cores_per_node=4)


@pytest.fixture
def single_node_platform() -> Platform:
    return Platform("test-1node", nodes=1, cores_per_node=8)


@pytest.fixture
def flat_params() -> NetworkParams:
    """Uniform network: equal latency/bandwidth at both levels, no rx port.

    Handy for closed-form timing expectations in tests.
    """
    return NetworkParams(
        intra_latency=1e-6,
        inter_latency=1e-6,
        intra_bandwidth=1e9,
        inter_bandwidth=1e9,
        send_overhead=0.0,
        recv_overhead=0.0,
        eager_threshold=4096,
        rx_serialization=False,
    )
