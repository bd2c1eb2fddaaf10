"""Vector (irregular) collectives: Alltoallv, Allgatherv, Gatherv, Scatterv.

Irregular collectives carry a different item count per rank (or per rank
pair), which is how real applications with uneven domain decompositions
communicate.  Counts are described by a :class:`VectorArgs`:

* ``counts`` — for Allgatherv/Gatherv/Scatterv: one entry per rank; for
  Alltoallv: a ``(p, p)`` matrix, ``counts[i][j]`` items from rank *i* to
  rank *j* (every rank knows the full matrix, as in workloads where counts
  derive from a shared decomposition).
* ``item_bytes`` — modeled wire bytes per item.

Data conventions:

* Alltoallv: ``data`` is a list of ``p`` 1-D arrays (row ``j`` destined to
  rank ``j`` with ``counts[me][j]`` items); the result is a list of ``p``
  arrays (entry ``i`` from rank ``i``, ``counts[i][me]`` items).
* Allgatherv: ``data`` is this rank's ``counts[me]``-item array; the result
  is a list of ``p`` arrays.
* Gatherv: like Allgatherv but only the root returns the list.
* Scatterv: the root passes the list; every rank returns its own array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import register
from repro.sim.mpi import TAG_COLLECTIVE, ProcContext


@dataclass(frozen=True)
class VectorArgs:
    """Invocation parameters for vector collectives."""

    counts: tuple = ()
    item_bytes: float = 8.0
    root: int = 0
    tag: int = TAG_COLLECTIVE + 500

    def __post_init__(self) -> None:
        if self.item_bytes < 0:
            raise ConfigurationError("item_bytes must be non-negative")

    def matrix(self, p: int) -> np.ndarray:
        """Validated (p, p) count matrix for Alltoallv."""
        arr = np.asarray(self.counts, dtype=int)
        if arr.shape != (p, p):
            raise ConfigurationError(
                f"alltoallv counts must be ({p}, {p}), got {arr.shape}"
            )
        if (arr < 0).any():
            raise ConfigurationError("counts must be non-negative")
        return arr

    def vector(self, p: int) -> np.ndarray:
        """Validated length-p count vector."""
        arr = np.asarray(self.counts, dtype=int)
        if arr.shape != (p,):
            raise ConfigurationError(f"counts must have length {p}, got {arr.shape}")
        if (arr < 0).any():
            raise ConfigurationError("counts must be non-negative")
        return arr

    def bytes_for(self, items: int) -> float:
        return float(items) * self.item_bytes

    @property
    def msg_bytes(self) -> float:
        """Mean modeled block size — the size coordinate for tuning rows.

        Vector collectives have no single message size; selection tables,
        cell specs, and trace spans index on the mean per-block wire bytes
        so skewed and uniform schedules with equal volume land on the same
        row.
        """
        arr = np.asarray(self.counts, dtype=float)
        if arr.size == 0:
            return 0.0
        return float(arr.mean()) * self.item_bytes

    @property
    def total_items(self) -> int:
        arr = np.asarray(self.counts, dtype=int)
        return int(arr.sum()) if arr.size else 0


def _check_blocks(data, counts_row, name: str) -> list[np.ndarray]:
    if len(data) != len(counts_row):
        raise ConfigurationError(f"{name}: expected {len(counts_row)} blocks")
    blocks = []
    for j, block in enumerate(data):
        arr = np.asarray(block)
        if arr.ndim != 1 or arr.shape[0] != counts_row[j]:
            raise ConfigurationError(
                f"{name}: block {j} must have {counts_row[j]} items, got {arr.shape}"
            )
        blocks.append(arr)
    return blocks


@register("alltoallv", "basic_linear", ompi_id=1, aliases=("linear",),
          description="Post every receive and send at once (skips zero-count pairs).")
def alltoallv_basic_linear(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.matrix(p)
    blocks = _check_blocks(data, counts[me], "alltoallv data")
    out: list[np.ndarray | None] = [None] * p
    out[me] = blocks[me].copy()
    recv_reqs = {
        src: ctx.irecv(src, args.tag)
        for src in range(p)
        if src != me and counts[src][me] > 0
    }
    send_reqs = [
        ctx.isend((me + off) % p, args.bytes_for(counts[me][(me + off) % p]),
                  args.tag, payload=blocks[(me + off) % p])
        for off in range(1, p)
        if counts[me][(me + off) % p] > 0
    ]
    pending = list(recv_reqs.values()) + send_reqs
    if pending:
        yield ctx.waitall(pending)
    for src, req in recv_reqs.items():
        out[src] = np.asarray(req.payload)
    for src in range(p):
        if out[src] is None:
            out[src] = np.empty(0, dtype=blocks[me].dtype)
    return out


@register("alltoallv", "pairwise", ompi_id=2,
          description="p-1 sendrecv rounds with ring-offset partners (skips empty exchanges).")
def alltoallv_pairwise(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.matrix(p)
    blocks = _check_blocks(data, counts[me], "alltoallv data")
    out: list[np.ndarray | None] = [None] * p
    out[me] = blocks[me].copy()
    for step in range(1, p):
        dst = (me + step) % p
        src = (me - step) % p
        reqs = []
        rreq = None
        if counts[me][dst] > 0:
            reqs.append(ctx.isend(dst, args.bytes_for(counts[me][dst]),
                                  args.tag, payload=blocks[dst]))
        if counts[src][me] > 0:
            rreq = ctx.irecv(src, args.tag)
            reqs.append(rreq)
        if reqs:
            yield ctx.waitall(reqs)
        out[src] = (
            np.asarray(rreq.payload) if rreq is not None
            else np.empty(0, dtype=blocks[me].dtype)
        )
    return out


@register("allgatherv", "linear", ompi_id=1,
          description="Everyone sends its block to everyone else (skips empty blocks).")
def allgatherv_linear(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.vector(p)
    own = np.asarray(data)
    if own.shape != (counts[me],):
        raise ConfigurationError(
            f"allgatherv data must have {counts[me]} items, got {own.shape}"
        )
    out: list[np.ndarray | None] = [None] * p
    out[me] = own.copy()
    recv_reqs = {
        src: ctx.irecv(src, args.tag)
        for src in range(p) if src != me and counts[src] > 0
    }
    send_reqs = [
        ctx.isend((me + off) % p, args.bytes_for(counts[me]), args.tag, payload=own)
        for off in range(1, p)
        if counts[me] > 0
    ]
    pending = list(recv_reqs.values()) + send_reqs
    if pending:
        yield ctx.waitall(pending)
    for src, req in recv_reqs.items():
        out[src] = np.asarray(req.payload)
    for src in range(p):
        if out[src] is None:
            out[src] = np.empty(0, dtype=own.dtype)
    return out


@register("allgatherv", "ring", ompi_id=2,
          description="p-1 ring steps forwarding variable-size blocks.")
def allgatherv_ring(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.vector(p)
    own = np.asarray(data)
    if own.shape != (counts[me],):
        raise ConfigurationError(
            f"allgatherv data must have {counts[me]} items, got {own.shape}"
        )
    out: list[np.ndarray] = [np.empty(0, dtype=own.dtype)] * p
    out[me] = own.copy()
    right = (me + 1) % p
    left = (me - 1) % p
    for step in range(p - 1):
        send_i = (me - step) % p
        recv_i = (me - step - 1) % p
        rreq = yield ctx.sendrecv(right, left, args.bytes_for(counts[send_i]),
                                  args.tag, out[send_i])
        out[recv_i] = (
            np.asarray(rreq.payload) if rreq.payload is not None
            else np.empty(0, dtype=own.dtype)
        )
    return out


@register("gatherv", "linear", ompi_id=1,
          description="Every rank sends its variable block to the root.")
def gatherv_linear(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.vector(p)
    own = np.asarray(data)
    if own.shape != (counts[me],):
        raise ConfigurationError(
            f"gatherv data must have {counts[me]} items, got {own.shape}"
        )
    if me != args.root:
        if counts[me] > 0:
            yield from ctx.send(args.root, args.bytes_for(counts[me]),
                                args.tag, payload=own)
        return None
    out: list[np.ndarray] = [np.empty(0, dtype=own.dtype)] * p
    out[me] = own.copy()
    reqs = {src: ctx.irecv(src, args.tag)
            for src in range(p) if src != me and counts[src] > 0}
    if reqs:
        yield ctx.waitall(list(reqs.values()))
    for src, req in reqs.items():
        out[src] = np.asarray(req.payload)
    return out


@register("scatterv", "linear", ompi_id=1,
          description="The root sends each rank its variable block.")
def scatterv_linear(ctx, args: VectorArgs, data):
    p, me = ctx.size, ctx.rank
    counts = args.vector(p)
    if me == args.root:
        blocks = _check_blocks(data, counts, "scatterv data")
        reqs = [
            ctx.isend(dst, args.bytes_for(counts[dst]), args.tag, payload=blocks[dst])
            for dst in range(p)
            if dst != me and counts[dst] > 0
        ]
        if reqs:
            yield ctx.waitall(reqs)
        return blocks[me].copy()
    if counts[me] == 0:
        return np.empty(0)
    req = yield from ctx.recv(args.root, args.tag)
    return np.asarray(req.payload)


__all__ = ["VectorArgs"]
