"""SMP-aware (hierarchical, node-leader) collective algorithms.

Production MPI libraries exploit the node hierarchy: combine contributions
*inside* each node first (cheap shared-memory traffic), run the inter-node
phase only among node leaders (one NIC user per node), then fan out
intra-node.  These algorithms are the natural response to shared node NICs
and node-correlated arrival skew, so they complete this library's story:
the machinery that *mitigates* what the paper measures.

The implementations derive the node layout from the engine's network model
(each rank knows its node peers), so they work on any platform without a
sub-communicator abstraction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.collectives.base import as_array, binomial_tree, register
from repro.sim.mpi import ProcContext


def _node_layout(ctx: ProcContext) -> tuple[list[int], list[int]]:
    """(my node's ranks ascending, all node-leader ranks ascending)."""
    node_of = ctx.engine.network.node_of
    me_node = node_of[ctx.rank]
    peers = [r for r in range(ctx.size) if node_of[r] == me_node]
    leaders_seen: dict[int, int] = {}
    for rank in range(ctx.size):
        leaders_seen.setdefault(node_of[rank], rank)
    leaders = sorted(leaders_seen.values())
    return peers, leaders


@register("allreduce", "smp", aliases=("hierarchical", "smp_rdb"),
          description="Node-local reduce to leaders, recursive doubling among leaders, node-local bcast.")
def allreduce_smp(ctx, args, data):
    """Hierarchical allreduce (the MVAPICH/HAN-style SMP scheme).

    Phase 1: every rank sends its contribution to its node leader, which
    folds them in rank order (ascending, so associative non-commutative
    operators are safe).  Phase 2: the leaders allreduce among themselves
    with recursive doubling over leader *indices* (any leader count).
    Phase 3: leaders broadcast the result to their node peers.
    """
    if not args.op.commutative:
        raise ConfigurationError(
            "allreduce/smp's leader exchange reorders contributions; "
            "it needs a commutative op"
        )
    own = as_array(data, args.count, "allreduce data")
    peers, leaders = _node_layout(ctx)
    leader = peers[0]
    me = ctx.rank

    # --- phase 1: intra-node fold at the leader. ------------------------
    if me != leader:
        yield from ctx.send(leader, args.msg_bytes, args.tag, payload=own)
        req = yield from ctx.recv(leader, args.tag + 2)
        return np.asarray(req.payload)

    acc = own.copy()
    for peer in peers[1:]:
        req = yield from ctx.recv(peer, args.tag)
        acc = args.op(acc, np.asarray(req.payload))

    # --- phase 2: recursive doubling among the leaders. -----------------
    idx = leaders.index(me)
    n = len(leaders)
    pof2 = 1
    while pof2 * 2 <= n:
        pof2 *= 2
    rem = n - pof2
    if idx < 2 * rem:
        if idx % 2 == 0:
            yield from ctx.send(leaders[idx + 1], args.msg_bytes, args.tag + 1,
                                payload=acc)
            newidx = -1
        else:
            req = yield from ctx.recv(leaders[idx - 1], args.tag + 1)
            acc = args.op(np.asarray(req.payload), acc)
            newidx = idx // 2
    else:
        newidx = idx - rem

    def real(ni: int) -> int:
        return leaders[ni * 2 + 1] if ni < rem else leaders[ni + rem]

    if newidx != -1:
        mask = 1
        while mask < pof2:
            partner = real(newidx ^ mask)
            rreq = yield ctx.sendrecv(partner, partner, args.msg_bytes,
                                      args.tag + 1, acc)
            acc = args.op(acc, np.asarray(rreq.payload))
            mask <<= 1
    if idx < 2 * rem:
        if idx % 2 == 0:
            req = yield from ctx.recv(leaders[idx + 1], args.tag + 1)
            acc = np.asarray(req.payload)
        else:
            yield from ctx.send(leaders[idx - 1], args.msg_bytes, args.tag + 1,
                                payload=acc)

    # --- phase 3: intra-node broadcast from the leader. ------------------
    reqs = [ctx.isend(peer, args.msg_bytes, args.tag + 2, payload=acc)
            for peer in peers[1:]]
    if reqs:
        yield ctx.waitall(reqs)
    return acc


@register("bcast", "smp", aliases=("hierarchical",),
          description="Binomial broadcast among node leaders, then linear fan-out inside each node.")
def bcast_smp(ctx, args, data):
    """Hierarchical broadcast: leaders relay inter-node, peers fan out locally.

    The root first hands the buffer to its node leader (if it is not one),
    the leaders run a binomial broadcast rooted at the root's leader, and
    every leader serves its node peers directly.
    """
    peers, leaders = _node_layout(ctx)
    leader = peers[0]
    me = ctx.rank
    node_of = ctx.engine.network.node_of
    root_leader = min(
        r for r in range(ctx.size) if node_of[r] == node_of[args.root]
    )

    buf = None
    if me == args.root:
        buf = as_array(data, args.count, "bcast data").copy()
        if me != root_leader:
            yield from ctx.send(root_leader, args.msg_bytes, args.tag, payload=buf)

    if me == leader:
        if me == root_leader:
            if me != args.root:
                req = yield from ctx.recv(args.root, args.tag)
                buf = np.asarray(req.payload)
        # Binomial broadcast over leader indices, rooted at root_leader.
        li = leaders.index(me)
        root_li = leaders.index(root_leader)
        n = len(leaders)
        parent, children = binomial_tree(li, n, root_li)
        if parent is not None:
            req = yield from ctx.recv(leaders[parent], args.tag + 1)
            buf = np.asarray(req.payload)
        reqs = [ctx.isend(leaders[c], args.msg_bytes, args.tag + 1, payload=buf)
                for c in reversed(children)]
        # Serve node peers (skip the root, which already has the data).
        reqs += [ctx.isend(peer, args.msg_bytes, args.tag + 2, payload=buf)
                 for peer in peers[1:] if peer != args.root]
        if reqs:
            yield ctx.waitall(reqs)
        return buf

    if me != args.root:
        req = yield from ctx.recv(leader, args.tag + 2)
        return np.asarray(req.payload)
    return buf
