"""Multi-job fabric contention: interleaved workloads on one platform.

Real clusters rarely run one job per fabric.  :func:`run_contended` places
several workloads on a single simulated platform — ranks interleave
round-robin across jobs, so co-located jobs share node NICs and their
traffic contends under the existing shared-NIC model — and runs them
concurrently in one engine.  Each job's collective calls are labeled
``"{job}:{collective}/{algorithm}"``, so link attribution
(:meth:`~repro.obs.analysis.TraceAnalysis.link_attribution`) splits port
wait time between the jobs that caused it.

Jobs see a private communicator through :class:`GroupContext`, a
rank-translating proxy over :class:`~repro.sim.mpi.ProcContext`: every
collective algorithm runs unmodified on local ranks ``0..size-1`` while
messages travel between the underlying global ranks.  Contended runs use
the exact engine only (flow plans assume a single job owns the fabric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.bench.micro import MicroBenchmark
from repro.obs.analysis import TraceAnalysis
from repro.obs.context import current as _obs_current
from repro.selection.table import SelectionTable
from repro.sim.mpi import TAG_BARRIER, TAG_P2P, dissemination_barrier, run_processes
from repro.workloads.runner import resolve_algorithm
from repro.workloads.spec import WorkloadSpec, build_plan, fold_ranks, rank_program


class GroupContext:
    """A job-local communicator view over a global :class:`ProcContext`.

    Local ranks ``0..size-1`` map onto the job's global rank set; all
    messaging translates peers and delegates to the wrapped context, so the
    collective algorithms (which only see ``rank``/``size`` and the p2p
    surface) run unchanged inside a sub-job.  ``obs_rank`` stays global so
    trace rank tracks never collide between jobs.
    """

    __slots__ = ("_ctx", "_ranks", "rank", "size", "obs_rank", "user")

    def __init__(self, ctx, ranks: Sequence[int]) -> None:
        self._ctx = ctx
        self._ranks = tuple(int(r) for r in ranks)
        self.size = len(self._ranks)
        self.rank = self._ranks.index(ctx.rank)
        self.obs_rank = ctx.rank
        self.user: dict[str, Any] = ctx.user

    # -- delegation ------------------------------------------------------ #

    @property
    def engine(self):
        return self._ctx.engine

    @property
    def noise(self):
        return self._ctx.noise

    @property
    def _fiber(self):
        return self._ctx._fiber

    def time(self) -> float:
        return self._ctx.time()

    def sleep(self, seconds: float) -> tuple:
        return self._ctx.sleep(seconds)

    def wait_until(self, when: float) -> tuple:
        return self._ctx.wait_until(when)

    def compute(self, seconds: float) -> tuple:
        return self._ctx.compute(seconds)

    def waitall(self, *requests) -> tuple:
        return self._ctx.waitall(*requests)

    wait = waitall

    def waitany(self, *requests) -> tuple:
        return self._ctx.waitany(*requests)

    def start_fiber(self, fn):
        ranks = self._ranks
        return self._ctx.start_fiber(lambda inner: fn(GroupContext(inner, ranks)))

    # -- translated messaging -------------------------------------------- #

    def _global(self, local: int) -> int:
        if not (0 <= local < self.size):
            raise ProtocolError(
                f"peer {local} outside group of {self.size} ranks "
                "(wildcards are unsupported in GroupContext)"
            )
        return self._ranks[local]

    def isend(self, dst: int, nbytes: int, tag: int = TAG_P2P,
              payload=None, sync: bool = False):
        return self._ctx.isend(self._global(dst), nbytes, tag, payload,
                               sync=sync)

    def irecv(self, src: int, tag: int = TAG_P2P, nbytes: int = 0):
        return self._ctx.irecv(self._global(src), tag, nbytes)

    def send(self, dst: int, nbytes: int, tag: int = TAG_P2P, payload=None):
        req = self.isend(dst, nbytes, tag, payload)
        yield self.waitall(req)
        return req

    def recv(self, src: int, tag: int = TAG_P2P, nbytes: int = 0):
        req = self.irecv(src, tag, nbytes)
        yield self.waitall(req)
        return req

    def sendrecv(self, dst: int, src: int, nbytes: int, tag: int = TAG_P2P,
                 payload=None) -> tuple:
        return self._ctx.sendrecv(self._global(dst), self._global(src), nbytes, tag, payload)

    def window(self, srcs, dsts, nbytes: int, tag: int = TAG_P2P,
               payloads=None, width: int = 4) -> tuple:
        return self._ctx.window([self._global(s) for s in srcs],
                                [self._global(d) for d in dsts],
                                nbytes, tag, payloads, width)

    def barrier(self, tag: int = TAG_BARRIER):
        """Dissemination barrier over the *group's* ranks."""
        return dissemination_barrier(self, tag)


@dataclass
class JobResult:
    """One job's outcome inside a contended run."""

    label: str
    spec: WorkloadSpec
    ranks: tuple[int, ...]
    runtime: float
    resolved: dict[str, str] = field(default_factory=dict)
    phase_mpi_time: dict[str, float] = field(default_factory=dict)


@dataclass
class ContentionResult:
    """Outcome of a multi-job contended run."""

    jobs: list[JobResult]
    final_time: float
    #: ``link_attribution()`` rows when the session recorded link telemetry
    #: (empty otherwise).  Activities carry the per-job labels.
    attribution: list[dict] = field(default_factory=list)

    def activities(self) -> set[str]:
        return {row["activity"] for row in self.attribution}

    def wait_by_job(self) -> dict[str, float]:
        """Total attributed port wait per job label (from activity prefixes)."""
        out: dict[str, float] = {}
        for row in self.attribution:
            activity = row["activity"]
            job = activity.split(":", 1)[0] if ":" in activity else activity
            out[job] = out.get(job, 0.0) + row["wait"]
        return out


def run_contended(
    workloads: Sequence[WorkloadSpec],
    bench: MicroBenchmark,
    labels: Sequence[str] | None = None,
    table: SelectionTable | None = None,
) -> ContentionResult:
    """Run several workloads concurrently on ``bench``'s platform.

    Global ranks interleave round-robin across jobs (job *j* of *n* owns
    ranks ``j, j+n, j+2n, ...``), so every node hosts ranks of every job
    and inter-node traffic of all jobs contends on the shared node NICs.
    """
    njobs = len(workloads)
    if njobs < 2:
        raise ConfigurationError("contended runs need at least 2 workloads")
    p_total = bench.num_ranks
    if p_total < 2 * njobs:
        raise ConfigurationError(
            f"{p_total} ranks cannot host {njobs} jobs of >= 2 ranks each"
        )
    if labels is None:
        labels = [f"job{j}-{spec.name}" for j, spec in enumerate(workloads)]
    if len(labels) != njobs or len(set(labels)) != njobs:
        raise ConfigurationError("labels must be distinct, one per workload")
    progs: list = [None] * p_total
    rank_sets = [tuple(range(j, p_total, njobs)) for j in range(njobs)]
    plans = []
    for spec, label, ranks in zip(workloads, labels, rank_sets):
        gp = len(ranks)
        plan = build_plan(spec.phases, gp,
                          lambda ph, gp=gp: resolve_algorithm(ph, gp, table))
        plans.append(plan)
        prog = rank_program(spec, plan, label_prefix=label)
        for r in ranks:
            progs[r] = lambda ctx, prog=prog, ranks=ranks: prog(
                GroupContext(ctx, ranks))
    octx = _obs_current()
    with octx.wall_span("workload.contend", track="workload",
                        args={"jobs": list(labels), "ranks": p_total}):
        run = run_processes(bench.platform, progs, params=bench.params)
    jobs = []
    for spec, label, ranks, plan in zip(workloads, labels, rank_sets, plans):
        runtime, phase_mpi = fold_ranks([run.rank_results[r] for r in ranks])
        jobs.append(JobResult(
            label=label, spec=spec, ranks=ranks, runtime=runtime,
            resolved={key: algorithm for key, _c, algorithm, _a, _i in plan},
            phase_mpi_time=phase_mpi,
        ))
    attribution: list[dict] = []
    if octx.enabled and getattr(octx, "links", None) is not None:
        attribution = TraceAnalysis.from_context(octx).link_attribution()
    return ContentionResult(
        jobs=jobs,
        final_time=float(run.final_time),
        attribution=attribution,
    )


__all__ = ["GroupContext", "JobResult", "ContentionResult", "run_contended"]
