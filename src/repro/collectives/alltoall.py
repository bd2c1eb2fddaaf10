"""Alltoall algorithms (paper Table II IDs 1-4).

All algorithms take ``(ctx, args, data)`` where ``data`` has shape
``(p, count)`` — row ``j`` is the block this rank sends to rank ``j`` — and
return the received ``(p, count)`` matrix, row ``i`` being the block from
rank ``i``.  ``args.msg_bytes`` is the modeled wire size of **one block**
(the per-pair message size, as in the paper's Alltoall experiments).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.collectives.base import (
    FlowPlan,
    as_matrix,
    ceil_log2,
    phase_descriptor,
    register,
)
from repro.sim.mpi import ProcContext


@register("alltoall", "basic_linear", ompi_id=1, aliases=("linear", "lin"),
          description="Post every receive and every send at once, then wait for all.")
def alltoall_basic_linear(ctx, args, data):
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    out = np.empty_like(send)
    out[me] = send[me]
    if p == 1:
        return out
    # Open MPI's basic linear: irecv from everyone, isend to everyone,
    # single waitall.  Sends fan out from (me+1) to balance port pressure.
    recv_reqs = {src: ctx.irecv(src, args.tag) for src in range(p) if src != me}
    send_reqs = [
        ctx.isend((me + off) % p, args.msg_bytes, args.tag, payload=send[(me + off) % p])
        for off in range(1, p)
    ]
    yield ctx.waitall(list(recv_reqs.values()) + send_reqs)
    for src, req in recv_reqs.items():
        out[src] = req.payload
    return out


@register("alltoall", "pairwise", ompi_id=2, aliases=("pair",),
          description="p-1 rounds of sendrecv with partners (rank+step, rank-step).")
def alltoall_pairwise(ctx, args, data):
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    out = np.empty_like(send)
    out[me] = send[me]
    for step in range(1, p):
        dst = (me + step) % p
        src = (me - step) % p
        rreq = yield ctx.sendrecv(dst, src, args.msg_bytes, args.tag, send[dst])
        out[src] = rreq.payload
    return out


@register("alltoall", "bruck", ompi_id=3, aliases=("modified_bruck", "m_bruck"),
          description="ceil(log2 p) rounds shipping grouped blocks (latency-optimal for small messages).")
def alltoall_bruck(ctx, args, data):
    """Modified Bruck algorithm.

    Round ``k`` ships every staged block whose index has bit ``k`` set to
    rank ``me + 2^k``, receiving the symmetric set from ``me - 2^k``.  Blocks
    travel multiple hops, trading bandwidth (each block moves up to
    ``log2 p`` times) for latency (only ``ceil(log2 p)`` rounds).
    """
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    if p == 1:
        return send.copy()
    # Phase 1 — local rotation: staged[j] = block destined to rank (me + j) % p.
    staged = np.roll(send, -me, axis=0)
    # Phase 2 — log rounds.  After all rounds, staged[j] holds the block
    # *from* rank (me - j) % p destined to me.
    for k in range(ceil_log2(p) + 1):
        pow2 = 1 << k
        if pow2 >= p:
            break
        idx = _bruck_blocks(p, pow2)
        dst = (me + pow2) % p
        src = (me - pow2) % p
        rreq = yield ctx.sendrecv(dst, src, args.msg_bytes * len(idx), args.tag,
                                  staged[idx])
        staged[idx] = rreq.payload
    # Phase 3 — inverse rotation: out[i] = staged[(me - i) % p]; staged[0]
    # never moves, so out[me] is the rank's own block.
    return staged[(me - np.arange(p)) % p]


@lru_cache(maxsize=256)
def _bruck_blocks(p: int, pow2: int) -> np.ndarray:
    """Staged block indices with bit ``pow2`` set (read-only: shared)."""
    idx = np.flatnonzero(np.arange(p) & pow2)
    idx.flags.writeable = False
    return idx


@register("alltoall", "linear_sync", ompi_id=4, aliases=("linear_with_sync", "l_sync"),
          description="Linear exchange with synchronous sends, sliding window of outstanding pairs.")
def alltoall_linear_sync(ctx, args, data, window: int = 4):
    """Open MPI's ``linear_sync``: a *sliding* window of ``window``
    outstanding irecv/issend pairs, refilled as operations complete.  The
    synchronous sends mean no send completes before its receiver arrives,
    which is what makes this algorithm degrade when a late receiver pins
    window slots (e.g. the First-delayed pattern) while staying
    competitive otherwise.  The window is one engine condition
    (:meth:`~repro.sim.mpi.ProcContext.window`), refilled inside the
    engine on each completion.
    """
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    out = np.empty_like(send)
    out[me] = send[me]
    if p == 1:
        return out
    dsts = [(me + off) % p for off in range(1, p)]
    srcs = [(me - off) % p for off in range(1, p)]
    received = yield ctx.window(srcs, dsts, args.msg_bytes, args.tag,
                                send[dsts], window)
    for src, rreq in zip(srcs, received):
        out[src] = rreq.payload
    return out


# --------------------------------------------------------------------- #
# Flow-phase descriptors (repro.sim.flow)
# --------------------------------------------------------------------- #


@phase_descriptor("alltoall", "basic_linear")
def _basic_linear_flow(p, args, net):
    # The post-everything-then-wait shape is only phase-regular under the
    # eager protocol; rendezvous handshakes reorder against post order, so
    # large messages keep exact per-message simulation.
    if args.msg_bytes > net.eager_max:
        return None
    return FlowPlan(
        kind="linear",
        collective="alltoall",
        algorithm="basic_linear",
        hetero_ok=True,
        est_messages=p * (p - 1),
        msg_bytes=float(args.msg_bytes),
    )


@phase_descriptor("alltoall", "pairwise")
def _pairwise_flow(p, args, net):
    msg_bytes = float(args.msg_bytes)

    def steps():
        idx = np.arange(p, dtype=np.int64)
        sbytes = np.full(p, msg_bytes)
        for step in range(1, p):
            yield (idx + step) % p, (idx - step) % p, sbytes

    return FlowPlan(
        kind="stepped",
        collective="alltoall",
        algorithm="pairwise",
        hetero_ok=True,
        est_messages=p * (p - 1),
        num_steps=p - 1,
        steps=steps,
    )
