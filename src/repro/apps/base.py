"""Generic iterative proxy application over the simulated MPI layer.

An :class:`IterativeProxyApp` alternates noise-perturbed compute phases with
collective calls — the skeleton of bulk-synchronous applications like the
NAS benchmarks.  It runs as a :class:`~repro.workloads.spec.WorkloadSpec`
through the workload layer's one rank program.  Per-rank compute and MPI
time are accounted separately, standing in for the paper's mpisee
profiling, and :meth:`~IterativeProxyApp.trace` records the run's arrival
patterns (the paper's PMPI tracer, Section V-A).

A run whose noise model has not drawn yet is simulated once per process:
it is kept, with the nested session that traced it and its noise streams
afterwards, in the executor's reuse tier
(:data:`repro.bench.executor.REUSE`), keyed by the workload spec,
platform, network, noise profile and seed.  A repeat returns a copy,
replays the session's telemetry and leaves the noise model where the run
would have left it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.obs.analysis import TraceAnalysis
from repro.obs.collect import capture_telemetry, merge_telemetry, replay_telemetry
from repro.obs.context import current as _obs_current, session
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import MachineSpec, Platform
from repro.workloads.spec import CollectivePhase, WorkloadSpec, build_plan, rank_program


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

    The proxy is a workload builder: :attr:`workload` is a
    :class:`~repro.workloads.spec.WorkloadSpec` of ``calls_per_iteration``
    copies of its collective phase with the compute split evenly before
    each, and :meth:`run` runs it through the workload layer's one rank
    program.

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
        self.workload  # validates every field the spec carries

    @property
    def workload(self) -> WorkloadSpec:
        """This proxy as a workload: one measured loop, no warmup."""
        phase = CollectivePhase(self.collective, msg_bytes=self.msg_bytes,
                                count=self.count, algorithm=self.algorithm)
        return WorkloadSpec(
            name=self.name, phases=(phase,) * self.calls_per_iteration,
            iterations=self.iterations, warmup=0,
            compute=self.compute_per_iteration, overlap="split",
        )

    @classmethod
    def from_machine(cls, spec: MachineSpec, nodes: int | None = None,
                     cores_per_node: int | None = None, seed: int = 0, **kwargs):
        platform = spec.platform.scaled(nodes, cores_per_node)
        noise = NoiseModel(spec.noise_profile, platform.num_ranks, seed=seed)
        return cls(platform=platform, params=NetworkParams(**spec.network),
                   noise=noise, **kwargs)

    def run(self) -> AppResult:
        """Execute the proxy app; returns profile accounting.

        The run records its spans in a nested observability session, which
        then replays into the enclosing session (if any) as a direct run
        would have recorded it there.  A run whose noise model has not
        drawn yet comes from the reuse tier when an equal one ran before.
        """
        outer = _obs_current()
        if outer.record_messages or outer.record_links:
            return self._simulate()  # the run session records neither
        from repro.bench.executor import REUSE

        noise = self.noise
        key = twin = None
        if noise is None or noise.fresh:
            key = ("proxy", self.workload, self.platform, self.params,
                   None if noise is None
                   else (noise.profile, noise.num_ranks, noise.seed))
            twin = REUSE.get(key)
        if twin is not None:
            result, octx, streams = twin
            if noise is not None:
                noise.set_streams(streams)
            result = _copy_result(result)
        else:
            with session(meta={"app": self.name}) as octx:
                result = self._simulate()
            if key is not None:
                REUSE.put(key, (_copy_result(result), octx,
                                None if noise is None else noise.streams()))
        if outer.enabled:
            replay_telemetry(outer, capture_telemetry(octx), self.collective,
                             self.algorithm, self.algorithm)
        return result

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

    def _simulate(self) -> AppResult:
        spec = self.workload
        prog = rank_program(spec, build_plan(spec.phases, self.platform.num_ranks))
        run = run_processes(self.platform, prog, params=self.params, noise=self.noise)
        results = run.rank_results
        return AppResult(
            runtime=float(max(r[0] for r in results)),
            rank_compute_time=np.array([r[2] for r in results]),
            rank_mpi_time=np.array([sum(r[1].values()) for r in results]),
            collective_calls=spec.iterations * len(spec.phases),
        )


def _copy_result(result: AppResult) -> AppResult:
    """``result`` sharing no array with it."""
    return replace(result, rank_compute_time=result.rank_compute_time.copy(),
                   rank_mpi_time=result.rank_mpi_time.copy())
