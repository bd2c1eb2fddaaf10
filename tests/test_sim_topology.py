"""Tests for the three-level (Dragonfly-style) topology support."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim.network import NetworkModel, NetworkParams
from repro.sim.platform import Platform, get_machine


@pytest.fixture
def grouped_platform() -> Platform:
    """4 groups x 2 nodes x 2 cores = 16 ranks."""
    return Platform("dragonfly", nodes=8, cores_per_node=2, nodes_per_group=2)


class TestGroupedPlatform:
    def test_group_mapping(self, grouped_platform):
        plat = grouped_platform
        assert plat.num_groups == 4
        assert plat.group_of_node(0) == 0
        assert plat.group_of_node(1) == 0
        assert plat.group_of_node(2) == 1
        assert plat.group_of_node(7) == 3

    def test_group_table_matches_scalar(self, grouped_platform):
        table = grouped_platform.group_of_rank_table()
        for rank in range(grouped_platform.num_ranks):
            node = grouped_platform.node_of_rank(rank)
            assert table[rank] == grouped_platform.group_of_node(node)

    def test_two_level_platform_has_one_group(self):
        plat = Platform("flat", nodes=4, cores_per_node=4)
        assert plat.num_groups == 1
        assert set(plat.group_of_rank_table()) == {0}

    def test_uneven_group_division(self):
        plat = Platform("odd", nodes=5, cores_per_node=1, nodes_per_group=2)
        assert plat.num_groups == 3
        assert plat.group_of_node(4) == 2

    def test_invalid_group_size_rejected(self):
        with pytest.raises(ConfigurationError):
            Platform("bad", nodes=4, cores_per_node=2, nodes_per_group=0)


class TestThreeLevelNetwork:
    def test_latency_hierarchy(self, grouped_platform):
        model = NetworkModel(
            grouped_platform,
            NetworkParams(
                intra_latency=0.5e-6,
                inter_latency=1.0e-6,
                group_latency=2.0e-6,
            ),
        )
        assert model.latency(0, 1) == 0.5e-6  # same node
        assert model.latency(0, 2) == 1.0e-6  # same group, different node
        assert model.latency(0, 4) == 2.0e-6  # different group
        # Link classes index the per-class tables: self, intra, inter, group.
        assert [model.link_class(0, d) for d in (0, 1, 2, 4)] == [0, 1, 2, 3]
        assert model.link_class(4, 0) == 3
        assert model.lat_of == (0.0, 0.5e-6, 1.0e-6, 2.0e-6)

    def test_group_bandwidth(self, grouped_platform):
        model = NetworkModel(
            grouped_platform,
            NetworkParams(
                intra_bandwidth=4e9, inter_bandwidth=2e9, group_bandwidth=1e9
            ),
        )
        nbytes = 1000
        assert model.transmission_time(0, 1, nbytes) == pytest.approx(nbytes / 4e9)
        assert model.transmission_time(0, 2, nbytes) == pytest.approx(nbytes / 2e9)
        assert model.transmission_time(0, 4, nbytes) == pytest.approx(nbytes / 1e9)

    def test_group_params_default_to_inter(self, grouped_platform):
        model = NetworkModel(grouped_platform, NetworkParams(inter_latency=1.5e-6))
        assert model.latency(0, 4) == 1.5e-6

    def test_group_param_validation(self, grouped_platform):
        with pytest.raises(ConfigurationError):
            NetworkModel(grouped_platform, NetworkParams(group_latency=-1e-6))
        with pytest.raises(ConfigurationError):
            NetworkModel(grouped_platform, NetworkParams(group_bandwidth=0.0))

    def test_discoverer_preset_is_grouped(self):
        spec = get_machine("discoverer")
        assert spec.platform.nodes_per_group == 8
        assert spec.network["group_latency"] > spec.network["inter_latency"]
