"""Broadcast algorithms.

All algorithms take ``(ctx, args, data)`` where ``data`` is the root's send
buffer (1-D, ``args.count`` items; ignored on non-roots) and return the
broadcast buffer on every rank.  Tree algorithms are segmented/pipelined
(see :meth:`CollArgs.segments`); with one segment they degenerate to the
plain tree algorithm.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.collectives.base import (
    CollArgs,
    as_array,
    binary_tree,
    binomial_tree,
    chain_tree,
    knomial_tree,
    largest_power_of_two_leq,
    register,
    rrank,
    vrank,
)
from repro.sim.mpi import ProcContext


def _tree_bcast(
    ctx: ProcContext,
    args: CollArgs,
    data: np.ndarray | None,
    tree: Callable[[int, int, int], tuple[int | None, list[int]]],
) -> Generator[tuple, None, np.ndarray]:
    """Segmented broadcast down an arbitrary tree.

    Each rank pre-posts one receive per segment from its parent, then for
    every segment forwards to its children as soon as the segment lands —
    the standard pipelining that lets deep trees stream large messages.
    """
    parent, children = tree(ctx.rank, ctx.size, args.root)
    segs = args.segments()
    if ctx.rank == args.root:
        buf = as_array(data, args.count, "bcast data").copy()
        recv_reqs = None
    else:
        buf = np.empty(args.count, dtype=np.asarray(data).dtype if data is not None else float)
        recv_reqs = [ctx.irecv(parent, args.tag) for _ in segs]
    send_reqs = []
    for si, (off, n) in enumerate(segs):
        if recv_reqs is not None:
            yield ctx.waitall(recv_reqs[si])
            buf[off : off + n] = recv_reqs[si].payload
        nbytes = args.bytes_for(n)
        # Farthest child first: it heads the largest subtree.
        for child in reversed(children):
            send_reqs.append(ctx.isend(child, nbytes, args.tag, payload=buf[off : off + n]))
    if send_reqs:
        yield ctx.waitall(send_reqs)
    return buf


@register("bcast", "linear", ompi_id=1, aliases=("basic_linear",),
          description="Root sends the full message to every rank directly.")
def bcast_linear(ctx, args, data):
    if ctx.rank == args.root:
        buf = as_array(data, args.count, "bcast data").copy()
        reqs = [
            ctx.isend(dst, args.msg_bytes, args.tag, payload=buf)
            for dst in range(ctx.size)
            if dst != args.root
        ]
        if reqs:
            yield ctx.waitall(reqs)
        return buf
    req = yield from ctx.recv(args.root, args.tag)
    return np.asarray(req.payload)


@register("bcast", "chain", ompi_id=2,
          description="Segmented broadcast down parallel chains (fanout 4).")
def bcast_chain(ctx, args, data):
    tree = lambda r, s, root: chain_tree(r, s, root, fanout=4)  # noqa: E731
    return (yield from _tree_bcast(ctx, args, data, tree))


@register("bcast", "pipeline", ompi_id=3,
          description="Segmented broadcast down a single chain.")
def bcast_pipeline(ctx, args, data):
    tree = lambda r, s, root: chain_tree(r, s, root, fanout=1)  # noqa: E731
    return (yield from _tree_bcast(ctx, args, data, tree))


@register("bcast", "binary", ompi_id=5, aliases=("bintree",),
          description="Segmented broadcast down a complete binary tree.")
def bcast_binary(ctx, args, data):
    return (yield from _tree_bcast(ctx, args, data, binary_tree))


@register("bcast", "binomial", ompi_id=6, aliases=("ompi_binomial", "bmtree"),
          description="Segmented broadcast down a binomial tree.")
def bcast_binomial(ctx, args, data):
    return (yield from _tree_bcast(ctx, args, data, binomial_tree))


@register("bcast", "knomial", ompi_id=7, aliases=("k_nomial",),
          description="Segmented broadcast down a radix-4 k-nomial tree (shallower than binomial).")
def bcast_knomial(ctx, args, data):
    tree = lambda r, s, root: knomial_tree(r, s, root, radix=4)  # noqa: E731
    return (yield from _tree_bcast(ctx, args, data, tree))


def _split_binary_runs_as(p: int, args: CollArgs) -> str | None:
    """Fewer than four ranks or two items cannot be split: binomial runs."""
    return "binomial" if p < 4 or args.count < 2 else None


@register("bcast", "split_binary", ompi_id=4,
          description="Message halves travel down the two root subtrees; opposite-subtree pairs swap halves.",
          runs_as=_split_binary_runs_as)
def bcast_split_binary(ctx, args, data):
    """Split-binary broadcast (Open MPI algorithm 4).

    The root pushes the first message half down its left binary subtree and
    the second half down the right subtree (each link carries only half the
    bytes), then every rank swaps its half with a partner from the opposite
    subtree.  Ranks without an opposite-subtree partner (unbalanced trees)
    fetch the missing half from the root.  Falls back to binomial for
    fewer than four ranks or messages too small to split.
    """
    p, me = ctx.size, ctx.rank
    if _split_binary_runs_as(p, args):
        return (yield from bcast_binomial(ctx, args, data))
    v = vrank(me, p, args.root)
    half_items = args.count // 2
    spans = {0: (0, half_items), 1: (half_items, args.count)}

    def side_of(virtual: int) -> int:
        """0 = left subtree of the (virtual) heap root, 1 = right, -1 = root."""
        if virtual == 0:
            return -1
        node = virtual
        while node not in (1, 2):
            node = (node - 1) // 2
        return 0 if node == 1 else 1

    parent, children = binary_tree(me, p, args.root)
    my_side = side_of(v)
    if me == args.root:
        buf = as_array(data, args.count, "bcast data").copy()
    else:
        buf = np.empty(args.count, dtype=np.asarray(data).dtype if data is not None else float)

    # --- phase 1: each subtree pipelines its own half. -------------------
    if my_side == -1:
        send_reqs = []
        for child in children:
            lo, hi = spans[side_of(vrank(child, p, args.root))]
            send_reqs.append(
                ctx.isend(child, args.bytes_for(hi - lo), args.tag, payload=buf[lo:hi])
            )
        if send_reqs:
            yield ctx.waitall(send_reqs)
    else:
        lo, hi = spans[my_side]
        req = yield from ctx.recv(parent, args.tag)
        buf[lo:hi] = req.payload
        send_reqs = [
            ctx.isend(child, args.bytes_for(hi - lo), args.tag, payload=buf[lo:hi])
            for child in children
        ]
        if send_reqs:
            yield ctx.waitall(send_reqs)

        # --- phase 2: swap halves with the opposite subtree. -------------
        left = sorted(u for u in range(1, p) if side_of(u) == 0)
        right = sorted(u for u in range(1, p) if side_of(u) == 1)
        mine = left if my_side == 0 else right
        other = right if my_side == 0 else left
        idx = mine.index(v)
        olo, ohi = spans[1 - my_side]
        if idx < len(other):
            partner = rrank(other[idx], p, args.root)
            rreq = yield ctx.sendrecv(partner, partner, args.bytes_for(hi - lo),
                                      args.tag + 1, buf[lo:hi])
            buf[olo:ohi] = rreq.payload
        else:
            # No opposite partner: the root supplies the missing half.
            req = yield from ctx.recv(args.root, args.tag + 1)
            buf[olo:ohi] = req.payload
    if me == args.root:
        # Serve unbalanced-tree leftovers their missing halves.
        left = sorted(u for u in range(1, p) if side_of(u) == 0)
        right = sorted(u for u in range(1, p) if side_of(u) == 1)
        leftovers: list[tuple[int, int]] = []
        if len(left) > len(right):
            leftovers = [(u, 1) for u in left[len(right):]]
        elif len(right) > len(left):
            leftovers = [(u, 0) for u in right[len(left):]]
        reqs = []
        for u, missing_side in leftovers:
            lo2, hi2 = spans[missing_side]
            reqs.append(
                ctx.isend(rrank(u, p, args.root), args.bytes_for(hi2 - lo2),
                          args.tag + 1, payload=buf[lo2:hi2])
            )
        if reqs:
            yield ctx.waitall(reqs)
    return buf


def _scatter_allgather_runs_as(p: int, args: CollArgs) -> str | None:
    """Fewer items than ranks leave nothing to scatter: binomial runs."""
    return "binomial" if args.count < p or p == 1 else None


@register("bcast", "scatter_allgather", ompi_id=8, aliases=("van_de_geijn",),
          description="Binomial scatter of blocks, then ring allgather.",
          runs_as=_scatter_allgather_runs_as)
def bcast_scatter_allgather(ctx, args, data):
    """Van de Geijn broadcast: bandwidth-optimal for large messages.

    Phase 1 scatters ``p`` blocks down a binomial tree (each subtree receives
    only the blocks it owns); phase 2 re-assembles with a ring allgather.
    Falls back to binomial broadcast when the message has fewer items than
    ranks (the scatter would be pointless).
    """
    p, me = ctx.size, ctx.rank
    if _scatter_allgather_runs_as(p, args):
        return (yield from bcast_binomial(ctx, args, data))
    v = vrank(me, p, args.root)
    bounds = np.linspace(0, args.count, p + 1).astype(int)

    def span(vlo: int, vhi: int) -> tuple[int, int]:
        """Item range owned by virtual ranks [vlo, vhi)."""
        return int(bounds[vlo]), int(bounds[min(vhi, p)])

    if me == args.root:
        buf = as_array(data, args.count, "bcast data").copy()
    else:
        buf = np.empty(args.count, dtype=np.asarray(data).dtype if data is not None else float)

    # --- binomial scatter: each node forwards the halves of its span. ---
    # Virtual rank v is responsible for span [v, v + 2^k) at the moment it
    # has received its data, where 2^k is its subtree extent.
    extent = largest_power_of_two_leq(p - 1) * 2 if p > 1 else 1
    if v != 0:
        # Receive own span from the parent.
        mask = 1
        while not (v & mask):
            mask <<= 1
        lo, hi = span(v, v + mask)
        req = yield from ctx.recv(rrank(v ^ mask, p, args.root), args.tag)
        buf[lo:hi] = req.payload
        subtree = mask
    else:
        subtree = extent
    send_reqs = []
    mask = subtree >> 1
    while mask >= 1:
        child = v + mask
        if child < p:
            lo, hi = span(child, child + mask)
            if hi > lo:
                send_reqs.append(
                    ctx.isend(
                        rrank(child, p, args.root),
                        args.bytes_for(hi - lo),
                        args.tag,
                        payload=buf[lo:hi],
                    )
                )
        mask >>= 1
    if send_reqs:
        yield ctx.waitall(send_reqs)

    # --- ring allgather of the p blocks (virtual-rank order). ---
    right = rrank((v + 1) % p, p, args.root)
    left = rrank((v - 1) % p, p, args.root)
    for step in range(p - 1):
        send_block = (v - step) % p
        recv_block = (v - step - 1) % p
        slo, shi = span(send_block, send_block + 1)
        rlo, rhi = span(recv_block, recv_block + 1)
        rreq = yield ctx.sendrecv(right, left, args.bytes_for(shi - slo),
                                  args.tag + 1, buf[slo:shi])
        buf[rlo:rhi] = rreq.payload
    return buf
