"""Tests for the non-blocking-collectives extension experiment."""

from __future__ import annotations

from repro.apps.base import IterativeProxyApp
from repro.experiments import ext_nonblocking
from repro.experiments.common import ExperimentConfig
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import get_machine


class TestNonblockingExperiment:
    def test_grid_complete_and_positive(self):
        config = ExperimentConfig(nodes=4, cores_per_node=4, fast=True)
        result = ext_nonblocking.run(config)
        assert len(result.cells) == len(ext_nonblocking.WORKLOADS) * len(
            ext_nonblocking.NOISE_LEVELS
        )
        for (workload, noise), (blocking, nonblocking) in result.cells.items():
            assert blocking > 0 and nonblocking > 0

    def test_overlap_helps_bandwidth_bound_workload(self):
        config = ExperimentConfig(nodes=4, cores_per_node=4, fast=True)
        result = ext_nonblocking.run(config)
        # Large alltoall with real compute: hiding must give a clear benefit.
        assert result.benefit("large_alltoall", "none") > 0.05

    def test_report_renders(self):
        config = ExperimentConfig(nodes=4, cores_per_node=4, fast=True)
        result = ext_nonblocking.run(config)
        text = ext_nonblocking.report(result)
        assert "overlap benefit" in text
        assert "non-blocking" in text

    def test_each_variant_runs_under_a_fresh_noise_model(self):
        # The overlap benefit compares one noise realisation: each variant's
        # runtime is that variant run alone under a fresh model of the seed.
        config = ExperimentConfig(machine="galileo100", nodes=2,
                                  cores_per_node=4, seed=3, fast=True)
        result = ext_nonblocking.run(config)
        spec = get_machine(config.machine)
        platform = spec.platform.scaled(2, 4)
        params = NetworkParams(**spec.network)
        for workload, (collective, algorithm, msg_bytes, count,
                       compute) in ext_nonblocking.WORKLOADS.items():
            for noise in ("moderate", "noisy"):
                blocking = IterativeProxyApp(
                    platform, collective, algorithm, msg_bytes, iterations=5,
                    calls_per_iteration=1, compute_per_iteration=compute,
                    count=count, params=params,
                    noise=NoiseModel(noise, platform.num_ranks, seed=3),
                ).run().runtime
                nonblocking = ext_nonblocking._run_nonblocking(
                    platform, params,
                    NoiseModel(noise, platform.num_ranks, seed=3),
                    workload, iterations=5)
                assert result.cells[(workload, noise)] == (blocking,
                                                           nonblocking)
