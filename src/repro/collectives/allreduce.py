"""Allreduce algorithms (paper Table II IDs 1-6 plus the SimGrid names of Fig. 4b).

All algorithms take ``(ctx, args, data)`` where ``data`` is this rank's
contribution (1-D, ``args.count`` items) and return the fully reduced buffer
on every rank.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives import bcast as _bcast
from repro.collectives import reduce as _reduce
from repro.collectives.base import (
    CollArgs,
    FlowPlan,
    as_array,
    largest_power_of_two_leq,
    phase_descriptor,
    register,
)
from repro.sim.mpi import ProcContext


def _require_commutative(args: CollArgs, algo: str) -> None:
    if not args.op.commutative:
        raise ConfigurationError(
            f"allreduce/{algo} needs a commutative op; got {args.op.name!r}"
        )


@register("allreduce", "basic_linear", ompi_id=1, aliases=("linear",),
          description="Linear reduce to rank 0, then linear broadcast.")
def allreduce_basic_linear(ctx, args, data):
    root_args = args.with_root(0)
    reduced = yield from _reduce.reduce_linear(ctx, root_args, data)
    return (yield from _bcast.bcast_linear(ctx, root_args, reduced))


@register("allreduce", "nonoverlapping", ompi_id=2,
          aliases=("non_overlapping", "redbcast"),
          description="Tuned reduce (binomial) to rank 0 followed by tuned broadcast.")
def allreduce_nonoverlapping(ctx, args, data):
    _require_commutative(args, "nonoverlapping")
    root_args = args.with_root(0)
    reduced = yield from _reduce.reduce_binomial(ctx, root_args, data)
    return (yield from _bcast.bcast_binomial(ctx, root_args, reduced))


@register("allreduce", "recursive_doubling", ompi_id=3, aliases=("rdb",),
          description="log2(p) full-buffer exchange rounds; extras fold in/out for non-power-of-two.")
def allreduce_recursive_doubling(ctx, args, data):
    _require_commutative(args, "recursive_doubling")
    p, me = ctx.size, ctx.rank
    own = as_array(data, args.count, "allreduce data").copy()
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    # Fold: the first 2*rem ranks collapse, odd ones retire for the core phase.
    if me < 2 * rem:
        if me % 2 == 0:
            yield from ctx.send(me + 1, args.msg_bytes, args.tag, payload=own)
            newrank = -1
        else:
            req = yield from ctx.recv(me - 1, args.tag)
            own = args.op(np.asarray(req.payload), own)
            newrank = me // 2
    else:
        newrank = me - rem

    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner_nr = newrank ^ mask
            partner = partner_nr * 2 + 1 if partner_nr < rem else partner_nr + rem
            rreq = yield ctx.sendrecv(partner, partner, args.msg_bytes,
                                      args.tag, own)
            own = args.op(own, np.asarray(rreq.payload))
            mask <<= 1

    # Unfold: survivors ship the result back to the retired even ranks.
    if me < 2 * rem:
        if me % 2 == 0:
            req = yield from ctx.recv(me + 1, args.tag)
            own = np.asarray(req.payload)
        else:
            yield from ctx.send(me - 1, args.msg_bytes, args.tag, payload=own)
    return own


def _ring_exchange(ctx, args, own, bounds, tag):
    """Ring reduce-scatter followed by ring allgather over ``p`` blocks.

    ``own`` is modified in place and returned fully reduced.
    """
    p, me = ctx.size, ctx.rank
    right = (me + 1) % p
    left = (me - 1) % p
    edges = [int(b) for b in bounds]
    blk = [slice(edges[i], edges[i + 1]) for i in range(p)]
    nbytes = [args.bytes_for(edges[i + 1] - edges[i]) for i in range(p)]
    op = args.op

    # Reduce-scatter: after p-1 steps rank me owns reduced block (me+1) % p.
    for step in range(p - 1):
        send_i = (me - step) % p
        recv = blk[(me - step - 1) % p]
        rreq = yield ctx.sendrecv(right, left, nbytes[send_i], tag,
                                  own[blk[send_i]])
        own[recv] = op(own[recv], np.asarray(rreq.payload))
    # Allgather: circulate the reduced blocks.
    for step in range(p - 1):
        send_i = (me + 1 - step) % p
        rreq = yield ctx.sendrecv(right, left, nbytes[send_i], tag,
                                  own[blk[send_i]])
        own[blk[(me - step) % p]] = np.asarray(rreq.payload)
    return own


def _ring_runs_as(p: int, args: CollArgs) -> str | None:
    """Fewer items than ranks leave a block empty: recursive doubling runs."""
    return "recursive_doubling" if args.count < p else None


@register("allreduce", "ring", ompi_id=4, aliases=("lr",),
          description="Ring reduce-scatter then ring allgather (the 'lr' algorithm).",
          runs_as=_ring_runs_as)
def allreduce_ring(ctx, args, data):
    _require_commutative(args, "ring")
    p = ctx.size
    own = as_array(data, args.count, "allreduce data").copy()
    if p == 1:
        return own
    if _ring_runs_as(p, args):
        return (yield from allreduce_recursive_doubling(ctx, args, data))
    bounds = np.linspace(0, args.count, p + 1).astype(int)
    return (yield from _ring_exchange(ctx, args, own, bounds, args.tag))


def _segmented_ring_runs_as(p: int, args: CollArgs) -> str | None:
    """One segment (or fewer items than ranks) has nothing to pipeline:
    the plain ring runs."""
    if args.count < p or len(args.segments()) == 1:
        return "ring"
    return None


@register("allreduce", "segmented_ring", ompi_id=5,
          aliases=("ring_segmented", "ompi_ring_segmented"),
          description="Ring allreduce applied per segment (pipelines very large messages).",
          runs_as=_segmented_ring_runs_as)
def allreduce_segmented_ring(ctx, args, data):
    _require_commutative(args, "segmented_ring")
    p = ctx.size
    own = as_array(data, args.count, "allreduce data").copy()
    if p == 1:
        return own
    if _segmented_ring_runs_as(p, args):
        return (yield from allreduce_ring(ctx, args, data))
    for off, n in args.segments():
        if n < p:
            # Tiny trailing segment: fold it with recursive doubling.
            seg_args = CollArgs(
                count=n, msg_bytes=args.bytes_for(n), op=args.op, tag=args.tag + 1
            )
            own[off : off + n] = yield from allreduce_recursive_doubling(
                ctx, seg_args, own[off : off + n]
            )
            continue
        bounds = off + np.linspace(0, n, p + 1).astype(int)
        # _ring_exchange slices ``own`` with these absolute bounds.
        yield from _ring_exchange(ctx, args, own, bounds, args.tag)
    return own


@register("allreduce", "allgather_reduce", aliases=("smp_rsag_lr",),
          description="Allgather all contributions, reduce locally (latency-optimal for tiny p).")
def allreduce_allgather_reduce(ctx, args, data):
    """Gather every contribution to every rank, then reduce locally.

    Used by several libraries for tiny communicators/messages: one
    communication phase, no reduction on the critical path.  The local
    fold runs in ascending rank order, so non-commutative (associative)
    operators are safe.
    """
    from repro.collectives import allgather as _allgather

    own = as_array(data, args.count, "allreduce data")
    gathered = yield from _allgather.allgather_bruck(ctx, args, own)
    acc = np.asarray(gathered[0]).copy()
    for src in range(1, ctx.size):
        acc = args.op(acc, np.asarray(gathered[src]))
    return acc


def _rabenseifner_runs_as(p: int, args: CollArgs) -> str | None:
    """Fewer items than the power-of-two core cannot be halved that often:
    recursive doubling runs."""
    pof2 = largest_power_of_two_leq(p)
    return "recursive_doubling" if args.count < pof2 else None


@register("allreduce", "rabenseifner", ompi_id=6, aliases=("raben", "rab_rdb"),
          description="Recursive-halving reduce-scatter, then recursive-doubling allgather.",
          runs_as=_rabenseifner_runs_as)
def allreduce_rabenseifner(ctx, args, data):
    _require_commutative(args, "rabenseifner")
    p, me = ctx.size, ctx.rank
    own = as_array(data, args.count, "allreduce data").copy()
    if p == 1:
        return own
    if _rabenseifner_runs_as(p, args):
        return (yield from allreduce_recursive_doubling(ctx, args, data))
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2

    if me < 2 * rem:
        if me % 2 == 0:
            yield from ctx.send(me + 1, args.msg_bytes, args.tag, payload=own)
            newrank = -1
        else:
            req = yield from ctx.recv(me - 1, args.tag)
            own = args.op(np.asarray(req.payload), own)
            newrank = me // 2
    else:
        newrank = me - rem

    def real(nr: int) -> int:
        return nr * 2 + 1 if nr < rem else nr + rem

    bounds = np.linspace(0, args.count, pof2 + 1).astype(int)
    if newrank != -1:
        # Recursive-halving reduce-scatter.
        lo, hi = 0, pof2
        while hi - lo > 1:
            mid = lo + (hi - lo) // 2
            in_low = newrank < mid
            partner = newrank + (hi - lo) // 2 if in_low else newrank - (hi - lo) // 2
            keep_lo, keep_hi = (lo, mid) if in_low else (mid, hi)
            send_lo, send_hi = (mid, hi) if in_low else (lo, mid)
            s0, s1 = int(bounds[send_lo]), int(bounds[send_hi])
            k0, k1 = int(bounds[keep_lo]), int(bounds[keep_hi])
            peer = real(partner)
            rreq = yield ctx.sendrecv(peer, peer, args.bytes_for(s1 - s0),
                                      args.tag, own[s0:s1])
            own[k0:k1] = args.op(own[k0:k1], np.asarray(rreq.payload))
            lo, hi = keep_lo, keep_hi
        # Recursive-doubling allgather, mirroring the halving in reverse.
        span = 1
        while span < pof2:
            block_lo = (newrank // span) * span
            if (newrank // span) % 2 == 0:
                partner = newrank + span
                other_lo = block_lo + span
            else:
                partner = newrank - span
                other_lo = block_lo - span
            s0, s1 = int(bounds[block_lo]), int(bounds[block_lo + span])
            o0, o1 = int(bounds[other_lo]), int(bounds[other_lo + span])
            peer = real(partner)
            rreq = yield ctx.sendrecv(peer, peer, args.bytes_for(s1 - s0),
                                      args.tag, own[s0:s1])
            own[o0:o1] = np.asarray(rreq.payload)
            span *= 2

    # Unfold to the retired even front ranks.
    if me < 2 * rem:
        if me % 2 == 0:
            req = yield from ctx.recv(me + 1, args.tag)
            own = np.asarray(req.payload)
        else:
            yield from ctx.send(me - 1, args.msg_bytes, args.tag, payload=own)
    return own


# --------------------------------------------------------------------- #
# Flow-phase descriptors (repro.sim.flow)
# --------------------------------------------------------------------- #


@phase_descriptor("allreduce", "recursive_doubling")
def _recursive_doubling_flow(p, args, net):
    # Regular only at powers of two: the fold/unfold rounds for leftover
    # ranks break the lockstep-exchange shape.
    if p & (p - 1):
        return None
    rounds = p.bit_length() - 1
    msg_bytes = float(args.msg_bytes)

    def steps():
        idx = np.arange(p, dtype=np.int64)
        sbytes = np.full(p, msg_bytes)
        mask = 1
        while mask < p:
            partner = idx ^ mask
            yield partner, partner, sbytes
            mask <<= 1

    return FlowPlan(
        kind="stepped",
        collective="allreduce",
        algorithm="recursive_doubling",
        hetero_ok=True,
        est_messages=p * rounds,
        num_steps=rounds,
        steps=steps,
    )


@phase_descriptor("allreduce", "ring")
def _ring_flow(p, args, net):
    # count < p delegates to recursive doubling inside the algorithm — a
    # different schedule; let the exact path (or its own descriptor via a
    # direct call) handle it.
    if _ring_runs_as(p, args):
        return None
    bounds = np.linspace(0, args.count, p + 1).astype(int)
    blen = np.diff(bounds)

    def steps():
        idx = np.arange(p, dtype=np.int64)
        right = (idx + 1) % p
        left = (idx - 1) % p
        # Reduce-scatter rounds, then allgather rounds, exactly as
        # _ring_exchange schedules them; per-rank wire bytes replicate
        # args.bytes_for(blen(send_i)) operation-for-operation.
        for step in range(p - 1):
            send_i = (idx - step) % p
            yield right, left, args.msg_bytes * (blen[send_i] / args.count)
        for step in range(p - 1):
            send_i = (idx + 1 - step) % p
            yield right, left, args.msg_bytes * (blen[send_i] / args.count)

    return FlowPlan(
        kind="stepped",
        collective="allreduce",
        algorithm="ring",
        hetero_ok=True,
        est_messages=2 * p * (p - 1),
        num_steps=2 * (p - 1),
        steps=steps,
    )
