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

from dataclasses import dataclass, field

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
        if self.msg_bytes < 0 or self.count <= 0:
            raise ConfigurationError("invalid phase parameters")
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
        if self.compute < 0:
            raise ConfigurationError("compute must be non-negative")
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
# Execution plan + shared iteration body
# --------------------------------------------------------------------------- #

def build_plan(phases, p: int, resolve) -> list[tuple]:
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


def _phase_label(prefix: str | None, collective: str, algorithm: str):
    return f"{prefix}:{collective}/{algorithm}" if prefix else None


def iteration_body(ctx, plan, compute: float, overlap: str,
                   phase_time: dict | None = None,
                   label_prefix: str | None = None):
    """Generator: one workload iteration on one rank.

    ``plan`` entries are ``(key, collective, algorithm, args, data)`` with
    ``data`` already this rank's input.  ``phase_time`` (when given)
    accumulates per-phase MPI seconds; ``label_prefix`` namespaces link
    attribution (multi-job runs).  This is the single implementation of the
    overlap modes; the workload runner and the contention runner both route
    through it.
    """
    if overlap == "sequential":
        if compute > 0:
            yield ctx.compute(compute)
        for key, collective, algorithm, args, data in plan:
            before = ctx.time()
            yield from run_collective(
                ctx, collective, algorithm, args, data,
                label=_phase_label(label_prefix, collective, algorithm),
            )
            if phase_time is not None:
                phase_time[key] += ctx.time() - before
    elif overlap == "split":
        chunk = compute / len(plan)
        for key, collective, algorithm, args, data in plan:
            if chunk > 0:
                yield ctx.compute(chunk)
            before = ctx.time()
            yield from run_collective(
                ctx, collective, algorithm, args, data,
                label=_phase_label(label_prefix, collective, algorithm),
            )
            if phase_time is not None:
                phase_time[key] += ctx.time() - before
    else:  # interleaved
        handles = []
        for entry in plan:
            def comm(cctx, entry=entry):
                key, collective, algorithm, args, data = entry
                before = cctx.time()
                yield from run_collective(
                    cctx, collective, algorithm, args, data,
                    label=_phase_label(label_prefix, collective, algorithm),
                )
                return key, cctx.time() - before

            handles.append(ctx.start_fiber(comm))
        if compute > 0:
            yield ctx.compute(compute)
        yield ctx.waitall(handles)
        if phase_time is not None:
            for handle in handles:
                key, elapsed = handle.result
                phase_time[key] += elapsed


__all__ = [
    "OVERLAP_MODES",
    "CollectivePhase",
    "WorkloadSpec",
    "build_plan",
    "iteration_body",
]
