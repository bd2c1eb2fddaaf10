"""Reduce_scatter (block-regular) algorithms.

All algorithms take ``(ctx, args, data)`` where ``data`` is this rank's full
contribution of ``p * count`` items (``count`` items destined to each rank's
result block) and return this rank's reduced ``count``-item block.
``args.msg_bytes`` models the wire size of **one block**.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import largest_power_of_two_leq, register
from repro.sim.mpi import ProcContext


def _check(ctx, args, data) -> np.ndarray:
    arr = np.asarray(data)
    expected = ctx.size * args.count
    if arr.ndim != 1 or arr.shape[0] != expected:
        raise ConfigurationError(
            f"reduce_scatter data must be 1-D with {expected} items, got {arr.shape}"
        )
    if not args.op.commutative:
        raise ConfigurationError("reduce_scatter algorithms require a commutative op")
    return arr


@register("reduce_scatter", "pairwise", ompi_id=2,
          description="p-1 rounds; each round ships one pre-reduced block to its owner.")
def reduce_scatter_pairwise(ctx, args, data):
    p, me = ctx.size, ctx.rank
    arr = _check(ctx, args, data)
    acc = arr[me * args.count : (me + 1) * args.count].copy()
    for step in range(1, p):
        dst = (me + step) % p
        src = (me - step) % p
        block = arr[dst * args.count : (dst + 1) * args.count]
        rreq = yield ctx.sendrecv(dst, src, args.msg_bytes, args.tag, block)
        acc = args.op(acc, np.asarray(rreq.payload))
    return acc


@register("reduce_scatter", "recursive_halving", ompi_id=1, aliases=("rec_halving",),
          description="log2(p) halving rounds, each shipping half the remaining buffer.")
def reduce_scatter_recursive_halving(ctx, args, data):
    p, me = ctx.size, ctx.rank
    arr = _check(ctx, args, data).copy()
    if p == 1:
        return arr[: args.count]
    pof2 = largest_power_of_two_leq(p)
    rem = p - pof2
    # Fold non-power-of-two ranks: odd front ranks retire after combining.
    if me < 2 * rem:
        if me % 2 != 0:
            yield from ctx.send(me - 1, args.msg_bytes * p, args.tag, payload=arr)
            newrank = -1
        else:
            req = yield from ctx.recv(me + 1, args.tag)
            arr = args.op(arr, np.asarray(req.payload))
            newrank = me // 2
    else:
        newrank = me - rem

    def real(nr: int) -> int:
        return nr * 2 if nr < rem else nr + rem

    result: np.ndarray | None = None
    if newrank != -1:
        lo, hi = 0, pof2
        while hi - lo > 1:
            mid = lo + (hi - lo) // 2
            in_low = newrank < mid
            partner = newrank + (hi - lo) // 2 if in_low else newrank - (hi - lo) // 2
            keep_lo, keep_hi = (lo, mid) if in_low else (mid, hi)
            send_lo, send_hi = (mid, hi) if in_low else (lo, mid)

            def rng(nr_lo: int, nr_hi: int) -> slice:
                # Compacted rank nr covers the real blocks of real(nr).
                items = []
                for nr in range(nr_lo, nr_hi):
                    r = real(nr)
                    items.append((r * args.count, (r + 1) * args.count))
                    if nr < rem:  # survivor also owns its retired partner's block
                        items.append(((r + 1) * args.count, (r + 2) * args.count))
                return items

            send_items = rng(send_lo, send_hi)
            keep_items = rng(keep_lo, keep_hi)
            payload = np.concatenate([arr[a:b] for a, b in send_items])
            nbytes = args.msg_bytes * sum((b - a) for a, b in send_items) / args.count
            peer = real(partner)
            rreq = yield ctx.sendrecv(peer, peer, nbytes, args.tag, payload)
            arrived = np.asarray(rreq.payload)
            offset = 0
            for a, b in keep_items:
                arr[a:b] = args.op(arr[a:b], arrived[offset : offset + (b - a)])
                offset += b - a
            lo, hi = keep_lo, keep_hi
        r = real(newrank)
        result = arr[r * args.count : (r + 1) * args.count]
        # Survivors ship their retired partner's reduced block back.
        if newrank < rem:
            partner_block = arr[(r + 1) * args.count : (r + 2) * args.count]
            yield from ctx.send(r + 1, args.msg_bytes, args.tag + 1, payload=partner_block)
    if me < 2 * rem and me % 2 != 0:
        req = yield from ctx.recv(me - 1, args.tag + 1)
        result = np.asarray(req.payload)
    assert result is not None
    return result
