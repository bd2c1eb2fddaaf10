"""Reduce algorithms (paper Table II: IDs 1-7).

All algorithms take ``(ctx, args, data)`` where ``data`` is this rank's
contribution (1-D, ``args.count`` items) and return the reduced buffer on
``args.root`` (``None`` elsewhere).

Combine-order discipline: tree algorithms that mix subtree contributions in
rank-arbitrary order require a commutative operator and raise otherwise;
``linear`` and ``in_order_binary`` combine strictly in ascending rank order
and therefore accept non-commutative operators, mirroring MPI's rules.
"""

from __future__ import annotations

from typing import Callable, Generator

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import (
    CollArgs,
    as_array,
    binary_tree,
    binomial_tree,
    chain_tree,
    in_order_binary_tree,
    in_order_tree_root,
    knomial_tree,
    largest_power_of_two_leq,
    register,
)
from repro.sim.mpi import ProcContext


def _require_commutative(args: CollArgs, algo: str) -> None:
    if not args.op.commutative:
        raise ConfigurationError(
            f"reduce/{algo} combines in tree order and needs a commutative op; "
            f"use 'linear' or 'in_order_binary' for {args.op.name!r}"
        )


def _tree_reduce(
    ctx: ProcContext,
    args: CollArgs,
    data: np.ndarray,
    tree: Callable[[int, int, int], tuple[int | None, list[int]]],
    ordered: bool = False,
) -> Generator[tuple, None, np.ndarray | None]:
    """Segmented reduction up an arbitrary tree.

    For every segment each rank receives its children's partial results,
    combines them with its own contribution, and forwards the partial up the
    tree; segments pipeline through the tree.  With ``ordered=True`` the
    children tuple is interpreted as ``(left, right)`` of an in-order binary
    tree and contributions combine as ``left op (own op right)``, which keeps
    ascending rank order for non-commutative operators.
    """
    parent, children = tree(ctx.rank, ctx.size, args.root)
    own = as_array(data, args.count, "reduce data")
    segs = args.segments()
    # Pre-post all child receives (children send segments in order; FIFO
    # matching per (src, tag) keeps them straight).
    child_reqs = {child: [ctx.irecv(child, args.tag) for _ in segs] for child in children}
    send_reqs = []
    out = np.empty_like(own) if parent is None else None
    for si, (off, n) in enumerate(segs):
        acc = own[off : off + n]
        if ordered and len(children) == 2:
            left, right = children
            lreq, rreq = child_reqs[left][si], child_reqs[right][si]
            yield ctx.waitall(lreq, rreq)
            acc = args.op(np.asarray(lreq.payload), args.op(acc, np.asarray(rreq.payload)))
        elif ordered and len(children) == 1:
            (child,) = children
            creq = child_reqs[child][si]
            yield ctx.waitall(creq)
            contrib = np.asarray(creq.payload)
            acc = args.op(contrib, acc) if child < ctx.rank else args.op(acc, contrib)
        else:
            for child in children:
                creq = child_reqs[child][si]
                yield ctx.waitall(creq)
                acc = args.op(acc, np.asarray(creq.payload))
        if parent is not None:
            send_reqs.append(ctx.isend(parent, args.bytes_for(n), args.tag, payload=acc))
        else:
            out[off : off + n] = acc
    if send_reqs:
        yield ctx.waitall(send_reqs)
    return out


@register("reduce", "linear", ompi_id=1, aliases=("basic_linear",),
          description="Every rank sends to the root; the root combines in rank order.")
def reduce_linear(ctx, args, data):
    own = as_array(data, args.count, "reduce data")
    if ctx.rank != args.root:
        yield from ctx.send(args.root, args.msg_bytes, args.tag, payload=own)
        return None
    reqs = {src: ctx.irecv(src, args.tag) for src in range(ctx.size) if src != args.root}
    if reqs:
        yield ctx.waitall(list(reqs.values()))
    acc: np.ndarray | None = None
    for src in range(ctx.size):
        contrib = own if src == args.root else np.asarray(reqs[src].payload)
        acc = contrib.copy() if acc is None else args.op(acc, contrib)
    return acc


@register("reduce", "chain", ompi_id=2,
          description="Segmented reduction up parallel chains (fanout 4).")
def reduce_chain(ctx, args, data):
    _require_commutative(args, "chain")
    tree = lambda r, s, root: chain_tree(r, s, root, fanout=4)  # noqa: E731
    return (yield from _tree_reduce(ctx, args, data, tree))


@register("reduce", "pipeline", ompi_id=3,
          description="Segmented reduction up a single chain.")
def reduce_pipeline(ctx, args, data):
    _require_commutative(args, "pipeline")
    tree = lambda r, s, root: chain_tree(r, s, root, fanout=1)  # noqa: E731
    return (yield from _tree_reduce(ctx, args, data, tree))


@register("reduce", "binary", ompi_id=4, aliases=("bintree",),
          description="Segmented reduction up a complete binary tree.")
def reduce_binary(ctx, args, data):
    _require_commutative(args, "binary")
    return (yield from _tree_reduce(ctx, args, data, binary_tree))


@register("reduce", "binomial", ompi_id=5, aliases=("ompi_binomial",),
          description="Segmented reduction up a binomial tree.")
def reduce_binomial(ctx, args, data):
    _require_commutative(args, "binomial")
    return (yield from _tree_reduce(ctx, args, data, binomial_tree))


@register("reduce", "knomial", aliases=("k_nomial",),
          description="Segmented reduction up a radix-4 k-nomial tree (shallower than binomial).")
def reduce_knomial(ctx, args, data):
    _require_commutative(args, "knomial")
    tree = lambda r, s, root: knomial_tree(r, s, root, radix=4)  # noqa: E731
    return (yield from _tree_reduce(ctx, args, data, tree))


@register("reduce", "in_order_binary", ompi_id=6, aliases=("ompi_in_order_binary",),
          description="Reduction up an in-order binary tree (valid for non-commutative ops).")
def reduce_in_order_binary(ctx, args, data):
    head = in_order_tree_root(ctx.size)
    result = yield from _tree_reduce(ctx, args, data, in_order_binary_tree, ordered=True)
    if head == args.root:
        return result
    # The tree head is fixed by the topology; ship the result to the root.
    if ctx.rank == head:
        yield from ctx.send(args.root, args.msg_bytes, args.tag + 1, payload=result)
        return None
    if ctx.rank == args.root:
        req = yield from ctx.recv(head, args.tag + 1)
        return np.asarray(req.payload)
    return None


def _rabenseifner_runs_as(p: int, args: CollArgs) -> str | None:
    """One rank, or fewer items than the power-of-two core, leave nothing
    to halve: binomial runs."""
    if p == 1 or args.count < largest_power_of_two_leq(p):
        return "binomial"
    return None


@register("reduce", "rabenseifner", ompi_id=7, aliases=("raben", "scatter_gather"),
          description="Recursive-halving reduce-scatter, then binomial gather to the root.",
          runs_as=_rabenseifner_runs_as)
def reduce_rabenseifner(ctx, args, data):
    """Rabenseifner's algorithm; bandwidth-optimal for large messages.

    Non-power-of-two rank counts fold the first ``2*(p - pof2)`` ranks into
    half as many survivors before the recursive halving, the standard MPICH
    construction.  Falls back to binomial for tiny item counts where the
    scatter cannot split.
    """
    _require_commutative(args, "rabenseifner")
    p, me = ctx.size, ctx.rank
    if _rabenseifner_runs_as(p, args):
        return (yield from reduce_binomial(ctx, args, data))
    pof2 = largest_power_of_two_leq(p)
    own = as_array(data, args.count, "reduce data").copy()
    rem = p - pof2

    # --- fold phase: 2*rem front ranks collapse into rem survivors. ---
    if me < 2 * rem:
        if me % 2 != 0:  # odd: hand everything to the left neighbour, retire
            yield from ctx.send(me - 1, args.msg_bytes, args.tag, payload=own)
            newrank = -1
        else:
            req = yield from ctx.recv(me + 1, args.tag)
            own = args.op(own, np.asarray(req.payload))
            newrank = me // 2
    else:
        newrank = me - rem

    bounds = np.linspace(0, args.count, pof2 + 1).astype(int)

    def real(nr: int) -> int:
        """Survivor's real rank from its compacted rank."""
        return nr * 2 if nr < rem else nr + rem

    def compacted(rank: int) -> int:
        """Compacted rank of the survivor acting for ``rank``."""
        if rank < 2 * rem:
            return rank // 2  # odd front ranks are represented by their even partner
        return rank - rem

    acting_nr = compacted(args.root)
    acting_real = real(acting_nr)

    if newrank != -1:
        # --- recursive halving reduce-scatter over pof2 survivors. ---
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
        # Survivor ``newrank`` now owns the reduced block ``newrank``.
        assert lo == newrank

        # --- binomial gather of virtual blocks to the acting root. ---
        # Virtual block index of real block b is (b - acting_nr) % pof2; the
        # blocks a rank accumulates are contiguous in virtual space, so no
        # per-block metadata is needed on the wire.
        vr = (newrank - acting_nr) % pof2

        def vblock_len(vb: int) -> int:
            b = (vb + acting_nr) % pof2
            return int(bounds[b + 1] - bounds[b])

        vbuf: dict[int, np.ndarray] = {vr: own[int(bounds[lo]) : int(bounds[lo + 1])]}
        mask = 1
        while mask < pof2:
            if vr & mask:
                dst = (vr - mask + acting_nr) % pof2
                payload = np.concatenate([vbuf[vb] for vb in range(vr, vr + mask)])
                yield from ctx.send(
                    real(dst), args.bytes_for(payload.shape[0]), args.tag, payload=payload
                )
                break
            src_vr = vr + mask
            if src_vr < pof2:
                req = yield from ctx.recv(real((src_vr + acting_nr) % pof2), args.tag)
                payload = np.asarray(req.payload)
                offset = 0
                for vb in range(src_vr, src_vr + mask):
                    n = vblock_len(vb)
                    vbuf[vb] = payload[offset : offset + n]
                    offset += n
            mask <<= 1
        if newrank == acting_nr:
            out = np.empty_like(own)
            for vb, seg in vbuf.items():
                b = (vb + acting_nr) % pof2
                out[int(bounds[b]) : int(bounds[b + 1])] = seg
            if acting_real == args.root:
                return out
            yield from ctx.send(args.root, args.msg_bytes, args.tag + 1, payload=out)
            return None
    # A retired odd front rank can still be the root: its acting survivor
    # ships it the final result.
    if me == args.root and acting_real != args.root:
        req = yield from ctx.recv(acting_real, args.tag + 1)
        return np.asarray(req.payload)
    return None
