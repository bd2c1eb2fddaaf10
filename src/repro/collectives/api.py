"""Convenience layer: build inputs, run algorithms, compute reference results.

These helpers give the benchmark harness, the applications, and the test
suite one uniform way to drive any registered collective:

* :func:`make_input` — deterministic per-rank input of the right shape,
* :func:`run_collective` — dispatch by (family, algorithm-name),
* :func:`reference_result` — the semantically defined result, computed
  directly from all inputs (what MPI guarantees, independent of algorithm).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import CollArgs, get_algorithm
from repro.collectives.vector import VectorArgs
from repro.obs.context import current as _obs_current
from repro.sim.mpi import ProcContext

#: Families taking :class:`VectorArgs` (irregular counts) instead of CollArgs.
VECTOR_FAMILIES = ("alltoallv", "allgatherv", "gatherv", "scatterv")


def make_input(
    collective: str, rank: int, size: int, count: int, dtype=np.int64
) -> np.ndarray:
    """Deterministic input for ``rank`` with the family's expected shape.

    Values are small distinct integers so reductions are exact and block
    provenance is recognizable in failures (value encodes rank and index).
    """
    if collective in ("reduce", "allreduce", "allgather", "gather", "scan", "exscan"):
        return (np.arange(count) + 1000 * rank + 1).astype(dtype)
    if collective in ("alltoall", "scatter"):
        base = np.arange(size * count).reshape(size, count)
        return (base + 100_000 * rank + 1).astype(dtype)
    if collective == "reduce_scatter":
        return (np.arange(size * count) + 1000 * rank + 1).astype(dtype)
    if collective == "bcast":
        return (np.arange(count) + 7).astype(dtype)
    if collective == "barrier":
        return np.zeros(0, dtype=dtype)
    raise ConfigurationError(f"unknown collective family {collective!r}")


def make_vector_input(
    collective: str, rank: int, size: int, args: VectorArgs, dtype=np.int64
):
    """Deterministic input for a vector collective following its data convention.

    Values encode ``(source rank, destination block, index)`` so misplaced
    blocks are recognizable in failures, mirroring :func:`make_input`.
    """
    if collective == "alltoallv":
        counts = args.matrix(size)
        return [
            (np.arange(counts[rank][dst]) + 100_000 * rank + 1000 * dst + 1)
            .astype(dtype)
            for dst in range(size)
        ]
    if collective in ("allgatherv", "gatherv"):
        counts = args.vector(size)
        return (np.arange(counts[rank]) + 1000 * rank + 1).astype(dtype)
    if collective == "scatterv":
        counts = args.vector(size)
        if rank != args.root:
            return None
        return [
            (np.arange(counts[dst]) + 1000 * dst + 1).astype(dtype)
            for dst in range(size)
        ]
    raise ConfigurationError(f"unknown vector collective family {collective!r}")


def run_collective(ctx: ProcContext, collective: str, algorithm: str, args: CollArgs,
                   data, label: str | None = None):
    """Generator: run one collective algorithm on this rank; returns its result.

    When an observability session is open this is the canonical
    instrumentation point: it counts the call and records one
    arrival-to-exit span on the rank's virtual-time track — which is what
    makes process arrival patterns readable straight off the trace.

    When the engine carries a flow runtime (``--engine-mode hybrid``,
    see :mod:`repro.sim.flow`) and the schedule declares a phase plan
    eligible under the dispatch rules, the call is collapsed into one flow
    batch instead of per-message simulation; the span/counter semantics are
    identical either way.

    ``label`` overrides the activity string attached to fabric link records
    (default ``"{collective}/{algorithm}"``); multi-job runs use it to keep
    per-job traffic apart in link attribution.  The span name is always the
    plain ``"{collective}/{algorithm}"`` so call reconstruction is uniform.
    """
    info = get_algorithm(collective, algorithm)
    engine = ctx.engine
    activity = label if label is not None else f"{collective}/{algorithm}"
    engine.activity = activity
    fiber = getattr(ctx, "_fiber", None)
    prev_activity = fiber.activity if fiber is not None else None
    if fiber is not None:
        fiber.activity = activity
    try:
        body = None
        runtime = engine.flow_runtime
        if runtime is not None:
            body = runtime.dispatch(
                ctx, collective, algorithm, args, data,
                _flow_result_fn(collective, args),
            )
        if body is None:
            body = info.fn(ctx, args, data)
        octx = _obs_current()
        if not octx.enabled:
            return (yield from body)
        octx.metrics.counter(f"collective.calls.{collective}.{algorithm}").inc()
        if not octx.record_spans:
            return (yield from body)
        arrival = ctx.time()
        result = yield from body
        octx.record_rank_span(
            f"{collective}/{algorithm}", getattr(ctx, "obs_rank", ctx.rank),
            arrival, ctx.time(), args={"msg_bytes": args.msg_bytes},
        )
        return result
    finally:
        if fiber is not None:
            fiber.activity = prev_activity
            engine.activity = prev_activity


def _flow_result_fn(collective: str, args: CollArgs):
    """Per-rank result builder for flow-batched collectives.

    The gate collects every rank's input; the batch resolver calls this
    once with the full input list and distributes ``out[rank]`` as each
    rank's collective result — :func:`reference_result` by construction,
    which every exact algorithm is already validated against.  Alltoall,
    allreduce and allgather build every rank's result in one pass; each
    rank still gets its own buffer.
    """

    def result_fn(inputs):
        if collective == "alltoall":
            # Row r of the stack is rank r's result: block r of every input.
            return list(np.stack(inputs, axis=1))
        if collective in ("allreduce", "allgather"):
            # Every rank's reference result is the same array.
            shared = reference_result(collective, inputs, args, 0)
            return [shared.copy() for _ in inputs]
        return [
            reference_result(collective, inputs, args, rank)
            for rank in range(len(inputs))
        ]

    return result_fn


def reference_result(
    collective: str, inputs: Sequence[np.ndarray], args: CollArgs, rank: int
):
    """The MPI-semantics result of ``collective`` for ``rank``.

    ``inputs`` holds every rank's input (index = rank).  Used by the test
    suite to validate every algorithm against the standard's definition.
    """
    size = len(inputs)
    if collective == "bcast":
        return np.asarray(inputs[args.root])
    if collective == "reduce":
        if rank != args.root:
            return None
        acc = np.asarray(inputs[0]).copy()
        for contrib in inputs[1:]:
            acc = args.op(acc, np.asarray(contrib))
        return acc
    if collective == "allreduce":
        acc = np.asarray(inputs[0]).copy()
        for contrib in inputs[1:]:
            acc = args.op(acc, np.asarray(contrib))
        return acc
    if collective == "alltoall":
        return np.stack([np.asarray(inputs[src])[rank] for src in range(size)])
    if collective == "allgather":
        return np.stack([np.asarray(inputs[src]) for src in range(size)])
    if collective == "gather":
        if rank != args.root:
            return None
        return np.stack([np.asarray(inputs[src]) for src in range(size)])
    if collective == "scatter":
        return np.asarray(inputs[args.root])[rank]
    if collective == "reduce_scatter":
        total = np.asarray(inputs[0]).copy()
        for contrib in inputs[1:]:
            total = args.op(total, np.asarray(contrib))
        return total[rank * args.count : (rank + 1) * args.count]
    if collective == "scan":
        acc = np.asarray(inputs[0]).copy()
        for contrib in inputs[1 : rank + 1]:
            acc = args.op(acc, np.asarray(contrib))
        return acc
    if collective == "exscan":
        if rank == 0:
            return None
        acc = np.asarray(inputs[0]).copy()
        for contrib in inputs[1:rank]:
            acc = args.op(acc, np.asarray(contrib))
        return acc
    if collective == "barrier":
        return None
    if collective == "alltoallv":
        return [np.asarray(inputs[src][rank]) for src in range(size)]
    if collective == "allgatherv":
        return [np.asarray(inputs[src]) for src in range(size)]
    if collective == "gatherv":
        if rank != args.root:
            return None
        return [np.asarray(inputs[src]) for src in range(size)]
    if collective == "scatterv":
        return np.asarray(inputs[args.root][rank])
    raise ConfigurationError(f"unknown collective family {collective!r}")


__all__ = [
    "VECTOR_FAMILIES",
    "make_input",
    "make_vector_input",
    "run_collective",
    "reference_result",
]
