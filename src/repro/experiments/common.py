"""Shared experiment configuration and helpers.

The paper runs 32 nodes x 32 cores = 1024 ranks.  A pure-Python DES cannot
sweep O(p^2)-message algorithms at that scale in reasonable time, so the
default experiment scale is 16 x 4 = 64 ranks (see DESIGN.md's scale
substitution note); ``ExperimentConfig`` exposes the knobs, and ``fast``
shrinks sweeps further for the pytest-benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.bench.executor import CellExecutor
from repro.bench.micro import MicroBenchmark
from repro.sim.platform import get_machine

#: Algorithm sets per collective, matching the paper's Table II (real-machine
#: experiments) — keys are our registry names, order follows the paper's IDs.
TABLE2_ALGORITHMS: dict[str, list[str]] = {
    "allreduce": ["nonoverlapping", "recursive_doubling", "ring",
                  "segmented_ring", "rabenseifner"],
    "alltoall": ["basic_linear", "pairwise", "bruck", "linear_sync"],
    "reduce": ["linear", "chain", "pipeline", "binary", "binomial",
               "in_order_binary", "rabenseifner"],
}

#: Algorithm sets for the SimGrid-based simulation study (Fig. 4); aliases
#: resolve to our implementations.
SIMULATION_ALGORITHMS: dict[str, list[str]] = {
    "reduce": ["linear", "chain", "pipeline", "binary", "binomial",
               "in_order_binary", "rabenseifner"],
    "allreduce": ["ring", "recursive_doubling", "rabenseifner",
                  "segmented_ring", "nonoverlapping"],
    "alltoall": ["basic_linear", "pairwise", "bruck", "linear_sync"],
}

#: The message sizes the paper sweeps (2 B .. 1 MiB).
DEFAULT_MSG_SIZES = [2, 16, 256, 1024, 16384, 262144, 1048576]
FAST_MSG_SIZES = [8, 1024, 65536]

#: Fig. 5's selected sizes.
FIG5_MSG_SIZES = [8, 1024, 1048576]

#: The distinct pattern subset shown in the real-machine figures.
FIG5_SHAPES = ["ascending", "descending", "first_delayed", "last_delayed", "random"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiment drivers."""

    machine: str = "hydra"
    nodes: int = 16
    cores_per_node: int = 4
    seed: int = 0
    nrep: int = 1
    skew_factor: float = 1.5
    fast: bool = False
    #: Worker processes for sweep fan-out (1 = serial; results identical).
    jobs: int = 1
    #: On-disk result cache directory (None disables caching).
    cache_dir: str | None = None
    #: Engine dispatch mode: "exact" or "hybrid" (repro.sim.flow).
    engine_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.nodes <= 0 or self.cores_per_node <= 0:
            raise ConfigurationError("nodes/cores_per_node must be positive")
        if self.nrep <= 0:
            raise ConfigurationError("nrep must be positive")
        if self.jobs <= 0:
            raise ConfigurationError("jobs must be positive")
        get_machine(self.machine)  # validate early

    @property
    def num_ranks(self) -> int:
        return self.nodes * self.cores_per_node

    def with_machine(self, machine: str) -> "ExperimentConfig":
        return replace(self, machine=machine)

    def scaled_down(self) -> "ExperimentConfig":
        """A cheaper variant for the benchmark harness."""
        return replace(self, nodes=min(self.nodes, 8), cores_per_node=min(self.cores_per_node, 4), fast=True)

    def make_bench(self, machine: str | None = None, **kwargs) -> MicroBenchmark:
        spec = get_machine(machine or self.machine)
        kwargs.setdefault("nrep", self.nrep)
        kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("engine_mode", self.engine_mode)
        return MicroBenchmark.from_machine(
            spec, nodes=self.nodes, cores_per_node=self.cores_per_node, **kwargs
        )

    def make_executor(self) -> CellExecutor:
        """One executor per experiment run, so its counters span all sweeps.

        The cache directory falls back to ``REPRO_CACHE_DIR`` when the
        config leaves it unset, so benchmark re-runs can opt into caching
        without touching driver code.
        """
        return CellExecutor.from_env(jobs=self.jobs, cache_dir=self.cache_dir)

    def msg_sizes(self) -> list[int]:
        return FAST_MSG_SIZES if self.fast else DEFAULT_MSG_SIZES
