"""The micro-benchmark runner — the paper's Listing 1 measurement loop.

Two clock modes mirror the listing's two branches:

* ``"perfect"`` (the ``#ifdef SIMULATOR`` branch): all ranks share the
  simulator's exact global clock; each repetition harmonizes (cheaply) and
  each rank waits until ``start + skew_i`` before entering the collective.
* ``"synced"`` (the real-machine branch): each rank owns a drifting
  :class:`~repro.clocks.local.LocalClock`; the run starts with a
  hierarchical clock sync; each repetition calls the MPIX_Harmonize
  analogue and busy-waits on its *corrected* clock.  Timestamps are then
  corrected local readings, so measurement error mirrors reality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.bench.metrics import CollectiveTiming
from repro.bench.results import BenchResult
from repro.clocks.harmonize import harmonize
from repro.clocks.local import ClockSet
from repro.clocks.sync import sync_clocks
from repro.collectives import (
    CollArgs,
    VectorArgs,
    make_input,
    make_vector_input,
    run_collective,
)
from repro.collectives.ops import SUM, ReduceOp
from repro.obs.context import current as _obs_current
from repro.patterns.generator import ArrivalPattern, no_delay_pattern
from repro.sim.flow import ENGINE_MODES, FlowConfig
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel, get_noise_profile
from repro.sim.platform import MachineSpec, Platform


def freeze_counts(counts) -> tuple:
    """Normalize a count schedule to a hashable tuple (of tuples).

    Accepts lists, tuples, or numpy arrays — 1-D (per-rank counts) or 2-D
    (alltoallv per-pair matrix) — and returns the canonical form used by
    :class:`~repro.collectives.VectorArgs` and cell-spec serialization.
    """
    arr = np.asarray(counts, dtype=int)
    if arr.ndim == 1:
        return tuple(int(c) for c in arr)
    if arr.ndim == 2:
        return tuple(tuple(int(c) for c in row) for row in arr)
    raise ConfigurationError(f"counts must be 1-D or 2-D, got shape {arr.shape}")


@dataclass
class MicroBenchmark:
    """Configured micro-benchmark harness bound to one simulated machine.

    Parameters
    ----------
    platform, params:
        The simulated cluster and its network parameters.
    nrep:
        Repetitions per measurement (means are reported).
    clock_mode:
        ``"perfect"`` or ``"synced"`` (see module docstring).
    noise_profile:
        Name of a :mod:`repro.sim.noise` profile perturbing compute phases
        (the skew busy-waits are unaffected; noise matters for apps).
    count:
        Payload items per contribution — decoupled from the modeled
        ``msg_bytes`` (see :class:`~repro.collectives.base.CollArgs`).
    engine_mode:
        ``"exact"`` (per-message simulation) or ``"hybrid"`` (flow-level
        fast path where provably bit-exact, exact otherwise).  See
        :mod:`repro.sim.flow`.
    """

    platform: Platform
    params: NetworkParams = field(default_factory=NetworkParams)
    nrep: int = 3
    seed: int = 0
    clock_mode: str = "perfect"
    noise_profile: str = "none"
    count: int = 64
    harmonize_slack: float = 1e-3
    machine_name: str = ""
    engine_mode: str = "exact"

    def __post_init__(self) -> None:
        if self.nrep <= 0:
            raise ConfigurationError("nrep must be positive")
        if self.clock_mode not in ("perfect", "synced"):
            raise ConfigurationError(f"unknown clock_mode {self.clock_mode!r}")
        if self.count <= 0:
            raise ConfigurationError("count must be positive")
        if self.engine_mode not in ENGINE_MODES:
            raise ConfigurationError(
                f"unknown engine_mode {self.engine_mode!r}; "
                f"expected one of {ENGINE_MODES}"
            )
        get_noise_profile(self.noise_profile)  # validate early

    @classmethod
    def from_machine(
        cls,
        spec: MachineSpec,
        nodes: int | None = None,
        cores_per_node: int | None = None,
        **kwargs,
    ) -> "MicroBenchmark":
        """Build a harness from a machine preset, optionally rescaled."""
        platform = spec.platform.scaled(nodes, cores_per_node)
        params = NetworkParams(**spec.network)
        kwargs.setdefault("noise_profile", spec.noise_profile)
        kwargs.setdefault("machine_name", spec.platform.name)
        return cls(platform=platform, params=params, **kwargs)

    @property
    def num_ranks(self) -> int:
        return self.platform.num_ranks

    # ------------------------------------------------------------------ #

    def run(
        self,
        collective: str,
        algorithm: str,
        msg_bytes: float,
        pattern: ArrivalPattern | None = None,
        op: ReduceOp = SUM,
        segment_bytes: float | None = None,
        counts: tuple | None = None,
        item_bytes: float = 8.0,
    ) -> BenchResult:
        """Benchmark one algorithm under one arrival pattern.

        For vector collectives pass ``counts`` (a length-p vector, or a
        (p, p) matrix for alltoallv) plus ``item_bytes``; the reported
        ``msg_bytes`` coordinate is then the mean per-block wire size
        (``VectorArgs.msg_bytes``) regardless of the value passed.
        """
        p = self.num_ranks
        if pattern is None:
            pattern = no_delay_pattern(p)
        if pattern.num_ranks != p:
            raise ConfigurationError(
                f"pattern has {pattern.num_ranks} ranks, platform has {p}"
            )
        if counts is not None:
            args = VectorArgs(counts=freeze_counts(counts),
                              item_bytes=float(item_bytes))
            inputs = [make_vector_input(collective, r, p, args)
                      for r in range(p)]
            msg_bytes = args.msg_bytes
        else:
            args = CollArgs(
                count=self.count,
                msg_bytes=float(msg_bytes),
                op=op,
                segment_bytes=segment_bytes,
            )
            inputs = [make_input(collective, r, p, self.count) for r in range(p)]
        synced = self.clock_mode == "synced"
        clockset = ClockSet(p, seed=self.seed) if synced else None
        noise = (
            NoiseModel(self.noise_profile, p, seed=self.seed)
            if self.noise_profile != "none"
            else None
        )
        nrep = self.nrep
        slack = self.harmonize_slack
        octx = _obs_current()
        trace_waits = octx.enabled and octx.record_spans

        def prog(ctx):
            me = ctx.rank
            clock = clockset[me] if synced else None
            correction = None
            if synced:
                correction = yield from sync_clocks(ctx, clock)
            skew = pattern.skew_of(me)
            observations = []
            for _rep in range(nrep):
                target, _ok = yield from harmonize(
                    ctx, clock, correction, slack=slack + pattern.max_skew
                )
                wait_from = ctx.time()
                # Busy-wait until the skew target on the measuring clock.
                if synced:
                    true_target = clockset[me].true_from_local(
                        correction.local_for_global(target + skew)
                    )
                    yield ctx.wait_until(true_target)
                    a = correction.apply(clock.read(ctx.time()))
                else:
                    yield ctx.wait_until(target + skew)
                    a = ctx.time()
                if trace_waits:
                    octx.record_rank_span("skew_wait", me, wait_from, ctx.time(),
                                          args={"skew": skew, "rep": _rep})
                yield from run_collective(ctx, collective, algorithm, args, inputs[me])
                if synced:
                    e = correction.apply(clock.read(ctx.time()))
                else:
                    e = ctx.time()
                observations.append((a, e))
            return observations

        flow = None
        if self.engine_mode == "hybrid":
            # Each repetition harmonizes, so collective entries are aligned
            # up to the pattern's skews: declare that spread so dispatch can
            # prove (or refuse) flow eligibility.  Synced clocks add
            # drift-dependent wait error on top, which cannot be bounded
            # here — leave the spread undeclared (the exact path then runs).
            declared = (
                float(pattern.skews.max() - pattern.skews.min())
                if not synced
                else None
            )
            flow = FlowConfig(declared_spread=declared)
        with octx.wall_span(
            "bench.cell", track="bench",
            args={"collective": collective, "algorithm": algorithm,
                  "msg_bytes": float(msg_bytes), "pattern": pattern.name},
        ):
            run = run_processes(self.platform, prog, params=self.params,
                                noise=noise, flow=flow)
        timings = []
        for rep in range(nrep):
            arrivals = np.array([run.rank_results[r][rep][0] for r in range(p)])
            exits = np.array([run.rank_results[r][rep][1] for r in range(p)])
            timings.append(CollectiveTiming(arrivals, exits))
        return BenchResult(
            collective=collective,
            algorithm=algorithm,
            msg_bytes=float(msg_bytes),
            num_ranks=p,
            pattern_name=pattern.name,
            max_skew=pattern.max_skew,
            timings=timings,
            machine=self.machine_name or self.platform.name,
        )

    def run_many(
        self,
        collective: str,
        algorithms: list[str],
        msg_bytes: float,
        pattern: ArrivalPattern | None = None,
        **kwargs,
    ) -> dict[str, BenchResult]:
        """Benchmark several algorithms under the same pattern."""
        return {
            algo: self.run(collective, algo, msg_bytes, pattern, **kwargs)
            for algo in algorithms
        }
