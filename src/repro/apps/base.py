"""Generic iterative proxy application over the simulated MPI layer.

An :class:`IterativeProxyApp` alternates noise-perturbed compute phases with
collective calls — the skeleton of bulk-synchronous applications like the
NAS benchmarks.  Per-rank compute and MPI time are accounted separately,
standing in for the paper's mpisee profiling, and
:meth:`~IterativeProxyApp.trace` records the run's arrival patterns (the
paper's PMPI tracer, Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives import CollArgs, make_input, run_collective
from repro.obs.analysis import TraceAnalysis
from repro.obs.collect import capture_telemetry, merge_telemetry
from repro.obs.context import current as _obs_current, session
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import MachineSpec, Platform


@dataclass
class AppResult:
    """Accounting from one application run (the mpisee-analogue profile)."""

    runtime: float
    rank_compute_time: np.ndarray = field(repr=False)
    rank_mpi_time: np.ndarray = field(repr=False)
    collective_calls: int = 0

    @property
    def compute_time(self) -> float:
        """Critical-path compute estimate: the slowest rank's compute total."""
        return float(self.rank_compute_time.max())

    @property
    def mpi_time(self) -> float:
        """Mean time spent inside collectives across ranks."""
        return float(self.rank_mpi_time.mean())

    @property
    def mpi_fraction(self) -> float:
        return self.mpi_time / self.runtime if self.runtime > 0 else 0.0


@dataclass
class IterativeProxyApp:
    """compute -> collective [-> collective ...] loop, repeated ``iterations`` times.

    Parameters
    ----------
    collective, algorithm, msg_bytes:
        The dominant collective and the algorithm under study.
    compute_per_iteration:
        Nominal seconds of compute per iteration (split evenly across the
        ``calls_per_iteration`` collective calls).
    calls_per_iteration:
        Collective calls per iteration (FT performs multiple transposes).
    noise:
        The machine noise model; its per-rank persistent speed factors are
        what create the application's characteristic arrival pattern.
    """

    platform: Platform
    collective: str
    algorithm: str
    msg_bytes: float
    iterations: int = 20
    calls_per_iteration: int = 2
    compute_per_iteration: float = 2e-3
    count: int = 64
    params: NetworkParams = field(default_factory=NetworkParams)
    noise: NoiseModel | None = None
    name: str = "proxy"

    def __post_init__(self) -> None:
        if self.iterations <= 0 or self.calls_per_iteration <= 0:
            raise ConfigurationError("iterations and calls_per_iteration must be positive")
        if self.compute_per_iteration < 0:
            raise ConfigurationError("compute_per_iteration must be non-negative")

    @classmethod
    def from_machine(cls, spec: MachineSpec, nodes: int | None = None,
                     cores_per_node: int | None = None, seed: int = 0, **kwargs):
        platform = spec.platform.scaled(nodes, cores_per_node)
        noise = NoiseModel(spec.noise_profile, platform.num_ranks, seed=seed)
        return cls(platform=platform, params=NetworkParams(**spec.network),
                   noise=noise, **kwargs)

    def run(self) -> AppResult:
        """Execute the proxy app; returns profile accounting."""
        p = self.platform.num_ranks
        args = CollArgs(count=self.count, msg_bytes=self.msg_bytes)
        inputs = [make_input(self.collective, r, p, self.count) for r in range(p)]
        compute_chunk = self.compute_per_iteration / self.calls_per_iteration
        iterations = self.iterations
        calls = self.calls_per_iteration
        collective, algorithm = self.collective, self.algorithm

        def prog(ctx):
            me = ctx.rank
            compute_total = 0.0
            mpi_total = 0.0
            yield from ctx.barrier()
            start = ctx.time()
            for _it in range(iterations):
                for _call in range(calls):
                    before = ctx.time()
                    yield ctx.compute(compute_chunk)
                    entered = ctx.time()
                    compute_total += entered - before
                    yield from run_collective(ctx, collective, algorithm, args, inputs[me])
                    mpi_total += ctx.time() - entered
            return ctx.time() - start, compute_total, mpi_total

        run = run_processes(self.platform, prog, params=self.params, noise=self.noise)
        runtimes = np.array([r[0] for r in run.rank_results])
        return AppResult(
            runtime=float(runtimes.max()),
            rank_compute_time=np.array([r[1] for r in run.rank_results]),
            rank_mpi_time=np.array([r[2] for r in run.rank_results]),
            collective_calls=iterations * calls,
        )

    def trace(self) -> tuple[AppResult, TraceAnalysis]:
        """Run the app with every collective call traced (Section V-A).

        The run records one arrival-to-exit span per rank and call in a
        nested observability session, which then folds into the enclosing
        session (if any) so its metrics, engine stats and trace still count
        this run.  ``analysis.arrival_pattern(collective)`` is the
        replayable scenario (the paper's FT-Scenario).
        """
        outer = _obs_current()
        with session(meta={"app": self.name}) as octx:
            result = self.run()
        if outer.enabled:
            merge_telemetry(outer, capture_telemetry(octx), name=self.name)
        return result, TraceAnalysis.from_context(octx)
