"""Declarative workload model: phases, schedules, and overlap modes.

A :class:`WorkloadSpec` describes a communication workload the way PARAM's
comms benchmark describes one (SNIPPETS.md Snippet 2): an iterated loop of
collective *phases* — each with its own size/count schedule and optionally
its own algorithm — separated by per-rank compute, with warmup iterations
excluded from measurement.  Three comm/compute *overlap modes* cover the
structures real applications exhibit:

* ``"sequential"`` — one compute block, then the phases back to back (the
  classic bulk-synchronous timestep).
* ``"split"`` — the compute budget is divided evenly and a slice runs
  before each phase (gradient-bucket pipelining in data-parallel training).
* ``"interleaved"`` — every phase runs on its own fiber concurrently with
  the compute block and the iteration joins at the end (non-blocking
  collectives progressed by hardware offload).

Specs are value objects: ``to_dict``/``from_dict`` round-trip exactly, so
workloads serialize into run manifests and replay files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.bench.executor import PatternSpec
from repro.bench.micro import freeze_counts
from repro.collectives import (
    VECTOR_FAMILIES,
    CollArgs,
    VectorArgs,
    make_input,
    make_vector_input,
    run_collective,
)
from repro.collectives.ops import get_op
from repro.sim.mpi import TAG_COLLECTIVE

OVERLAP_MODES = ("sequential", "split", "interleaved")


@dataclass(frozen=True)
class CollectivePhase:
    """One collective call site of a workload iteration.

    Regular collectives use ``msg_bytes``/``count``; vector collectives
    (:data:`~repro.collectives.VECTOR_FAMILIES`) use ``counts`` — a
    length-p schedule, or a (p, p) per-pair matrix for alltoallv — plus
    ``item_bytes``.  ``algorithm=None`` defers selection to the resolver
    (selection table, then fixed decision logic).
    """

    collective: str
    msg_bytes: float = 0.0
    count: int = 32
    algorithm: str | None = None
    counts: tuple | None = None
    item_bytes: float = 8.0
    op: str = "sum"

    def __post_init__(self) -> None:
        for name in ("msg_bytes", "item_bytes"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigurationError(
                    f"{name} must be a finite size >= 0, got {value!r}")
        if self.count <= 0:
            raise ConfigurationError(f"count must be positive, got {self.count}")
        if self.counts is not None:
            object.__setattr__(self, "counts", freeze_counts(self.counts))
            if self.collective not in VECTOR_FAMILIES:
                raise ConfigurationError(
                    f"counts given but {self.collective!r} is not a vector "
                    f"collective {VECTOR_FAMILIES}"
                )
        elif self.collective in VECTOR_FAMILIES:
            raise ConfigurationError(
                f"vector collective {self.collective!r} needs a counts schedule"
            )

    @property
    def is_vector(self) -> bool:
        return self.counts is not None

    @property
    def effective_msg_bytes(self) -> float:
        """The size coordinate: mean per-block wire bytes for vector phases."""
        if self.is_vector:
            return VectorArgs(counts=self.counts,
                              item_bytes=self.item_bytes).msg_bytes
        return self.msg_bytes

    @property
    def key(self) -> str:
        return f"{self.collective}@{int(self.effective_msg_bytes)}B"

    def to_dict(self) -> dict:
        d = {
            "collective": self.collective,
            "msg_bytes": self.msg_bytes,
            "count": self.count,
            "algorithm": self.algorithm,
            "op": self.op,
        }
        if self.counts is not None:
            d["counts"] = ([list(row) for row in self.counts]
                           if isinstance(self.counts[0], tuple)
                           else list(self.counts))
            d["item_bytes"] = self.item_bytes
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CollectivePhase":
        return cls(
            collective=d["collective"],
            msg_bytes=float(d.get("msg_bytes", 0.0)),
            count=int(d.get("count", 32)),
            algorithm=d.get("algorithm"),
            counts=(freeze_counts(d["counts"])
                    if d.get("counts") is not None else None),
            item_bytes=float(d.get("item_bytes", 8.0)),
            op=d.get("op", "sum"),
        )


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete declarative workload: phases × iterations under a pattern."""

    name: str
    phases: tuple[CollectivePhase, ...] = ()
    iterations: int = 4
    warmup: int = 1
    compute: float = 0.0
    overlap: str = "sequential"
    pattern: PatternSpec | None = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ConfigurationError("workload needs at least one phase")
        if self.iterations <= 0 or self.warmup < 0:
            raise ConfigurationError("iterations must be > 0, warmup >= 0")
        if not (math.isfinite(self.compute) and self.compute >= 0):
            raise ConfigurationError(
                f"compute must be finite seconds >= 0, got {self.compute!r}")
        if self.overlap not in OVERLAP_MODES:
            raise ConfigurationError(
                f"unknown overlap mode {self.overlap!r}; "
                f"expected one of {OVERLAP_MODES}"
            )

    @property
    def collectives(self) -> tuple[str, ...]:
        """Distinct collective families, in phase order."""
        seen: list[str] = []
        for ph in self.phases:
            if ph.collective not in seen:
                seen.append(ph.collective)
        return tuple(seen)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "iterations": self.iterations,
            "warmup": self.warmup,
            "compute": self.compute,
            "overlap": self.overlap,
            "pattern": self.pattern.to_dict() if self.pattern else None,
            "phases": [ph.to_dict() for ph in self.phases],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WorkloadSpec":
        raw_pattern = d.get("pattern")
        pattern = (PatternSpec(name=raw_pattern["name"],
                               skews=tuple(float(s)
                                           for s in raw_pattern["skews"]))
                   if raw_pattern else None)
        return cls(
            name=d["name"],
            phases=tuple(CollectivePhase.from_dict(p) for p in d["phases"]),
            iterations=int(d.get("iterations", 4)),
            warmup=int(d.get("warmup", 1)),
            compute=float(d.get("compute", 0.0)),
            overlap=d.get("overlap", "sequential"),
            pattern=pattern,
            description=d.get("description", ""),
        )


# --------------------------------------------------------------------------- #
# Execution plan, iteration body and the one rank program
# --------------------------------------------------------------------------- #

def build_plan(phases, p: int, resolve=None) -> list[tuple]:
    """Resolve phases into ``(key, collective, algorithm, args, inputs)``.

    ``resolve(phase)`` supplies the algorithm when the phase leaves it open.
    Each phase gets its own tag stride so interleaved phases never
    cross-match; ``inputs`` holds every rank's deterministic input.
    Duplicate phase keys (same collective and size twice) are suffixed with
    their index so accounting dictionaries stay per-phase.
    """
    plan = []
    seen: set[str] = set()
    for idx, ph in enumerate(phases):
        algorithm = ph.algorithm if ph.algorithm is not None else resolve(ph)
        if ph.is_vector:
            args = VectorArgs(counts=ph.counts, item_bytes=ph.item_bytes,
                              tag=TAG_COLLECTIVE + 500 + 97 * idx)
            inputs = [make_vector_input(ph.collective, r, p, args)
                      for r in range(p)]
        else:
            args = CollArgs(count=ph.count, msg_bytes=ph.msg_bytes,
                            op=get_op(ph.op), tag=TAG_COLLECTIVE + 97 * idx)
            inputs = [make_input(ph.collective, r, p, ph.count)
                      for r in range(p)]
        key = ph.key
        if key in seen:
            key = f"{key}#{idx}"
        seen.add(key)
        plan.append((key, ph.collective, algorithm, args, inputs))
    return plan


def _compute(ctx, seconds: float, computed: list):
    """Generator: ``seconds`` of work; appends the time it took."""
    if seconds > 0:
        before = ctx.time()
        yield ctx.compute(seconds)
        computed.append(ctx.time() - before)


def _collective(ctx, entry, label_prefix):
    """Generator: one plan entry; returns its key and MPI seconds."""
    key, collective, algorithm, args, data = entry
    before = ctx.time()
    yield from run_collective(
        ctx, collective, algorithm, args, data,
        label=f"{label_prefix}:{collective}/{algorithm}" if label_prefix else None,
    )
    return key, ctx.time() - before


def iteration_body(ctx, plan, compute: float, overlap: str,
                   label_prefix: str | None = None):
    """Generator: one workload iteration on one rank.

    ``plan`` entries are ``(key, collective, algorithm, args, data)`` with
    ``data`` already this rank's input; ``label_prefix`` namespaces link
    attribution (multi-job runs).  Returns ``(timings, computed)``: one
    ``(key, MPI seconds)`` pair per phase and the duration of each compute
    block, in the order they ran.  This is the single implementation of
    the overlap modes.
    """
    computed: list[float] = []
    if overlap == "interleaved":
        handles = [
            ctx.start_fiber(lambda cctx, entry=entry:
                            _collective(cctx, entry, label_prefix))
            for entry in plan
        ]
        yield from _compute(ctx, compute, computed)
        yield ctx.waitall(handles)
        return [handle.result for handle in handles], computed
    # "sequential" computes once up front; "split" slices the budget
    # evenly before each phase.
    head, chunk = ((compute, 0.0) if overlap == "sequential"
                   else (0.0, compute / len(plan)))
    yield from _compute(ctx, head, computed)
    timings = []
    for entry in plan:
        yield from _compute(ctx, chunk, computed)
        timings.append((yield from _collective(ctx, entry, label_prefix)))
    return timings, computed


def rank_program(spec: WorkloadSpec, plan, skews=None,
                 label_prefix: str | None = None):
    """The one workload loop, as a ``prog(ctx)`` for ``run_processes``.

    Every rank runs a barrier, ``spec.warmup`` unmeasured iterations, a
    second barrier only if there were warmup iterations, its arrival skew
    ``skews[rank]`` (when given), and then ``spec.iterations`` measured
    iterations.  It returns ``(seconds, phase_time, compute)``: the measured
    loop's duration, MPI seconds per plan key, and compute seconds summed
    block by block.  The workload runner, the contention runner (through a
    job-local :class:`~repro.workloads.contention.GroupContext`) and the
    proxy applications (:mod:`repro.apps`) all run this program.
    """
    warmup, iterations = spec.warmup, spec.iterations
    compute, overlap = spec.compute, spec.overlap

    def prog(ctx):
        me = ctx.rank
        my_plan = [(key, coll, algo, args, inputs[me])
                   for key, coll, algo, args, inputs in plan]
        yield from ctx.barrier()
        for _it in range(warmup):
            yield from iteration_body(ctx, my_plan, compute, overlap,
                                      label_prefix)
        if warmup:
            yield from ctx.barrier()
        # The arrival pattern skews each rank's entry into the measured loop.
        if skews is not None:
            yield ctx.sleep(float(skews[me]))
        phase_time = {entry[0]: 0.0 for entry in plan}
        compute_time = 0.0
        start = ctx.time()
        for _it in range(iterations):
            timings, computed = yield from iteration_body(
                ctx, my_plan, compute, overlap, label_prefix)
            for key, seconds in timings:
                phase_time[key] += seconds
            for seconds in computed:
                compute_time += seconds
        return ctx.time() - start, phase_time, compute_time

    return prog


def fold_ranks(rank_results) -> tuple[float, dict[str, float]]:
    """A job's runtime (its slowest rank) and mean MPI seconds per phase,
    from the :func:`rank_program` returns of its ranks."""
    runtime = float(max(r[0] for r in rank_results))
    return runtime, {
        key: float(np.mean([r[1][key] for r in rank_results]))
        for key in rank_results[0][1]
    }


__all__ = [
    "OVERLAP_MODES",
    "CollectivePhase",
    "WorkloadSpec",
    "build_plan",
    "fold_ranks",
    "iteration_body",
    "rank_program",
]
