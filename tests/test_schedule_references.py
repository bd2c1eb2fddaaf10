"""The two Alltoall schedules against their straightforward references.

``alltoall/linear_sync`` runs its sliding window as one engine condition
(``ctx.window``) and ``alltoall/bruck`` moves whole arrays.  The references
below are those algorithms as a plain generator would write them: the
``waitany`` loop that refills the window after every completion, and the
Bruck rotations and block selections row by row.  On every drawn
platform, size and arrival pattern both must give the same per-rank exit
times, results and engine counters, bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives import CollArgs, get_algorithm, make_input
from repro.collectives.base import as_matrix, ceil_log2
from repro.errors import ProtocolError
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform


def reference_linear_sync(ctx, args, data, window=4):
    """linear_sync as a generator-driven ``waitany`` loop."""
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    out = np.empty_like(send)
    out[me] = send[me]
    if p == 1:
        return out
    send_peers = [(me + off) % p for off in range(1, p)]
    recv_peers = [(me - off) % p for off in range(1, p)]
    recv_of = {}
    outstanding = []
    in_flight = [0, 0]  # outstanding requests by kind: [sends, receives]
    next_send = next_recv = 0

    def fill():
        nonlocal next_send, next_recv
        while next_recv < len(recv_peers) and in_flight[1] < window:
            src = recv_peers[next_recv]
            recv_of[src] = rreq = ctx.irecv(src, args.tag)
            outstanding.append(rreq)
            in_flight[1] += 1
            next_recv += 1
        while next_send < len(send_peers) and in_flight[0] < window:
            dst = send_peers[next_send]
            outstanding.append(ctx.isend(dst, args.msg_bytes, args.tag,
                                         payload=send[dst], sync=True))
            in_flight[0] += 1
            next_send += 1

    fill()
    while outstanding:
        index = yield ctx.waitany(outstanding)
        in_flight[outstanding.pop(index).kind] -= 1
        fill()
    for src, rreq in recv_of.items():
        out[src] = rreq.payload
    return out


def reference_bruck(ctx, args, data):
    """Modified Bruck with per-row rotations and block lists."""
    p, me = ctx.size, ctx.rank
    send = as_matrix(data, p, args.count, "alltoall data")
    out = np.empty_like(send)
    out[me] = send[me]
    if p == 1:
        return out
    staged = np.empty_like(send)
    for j in range(p):
        staged[j] = send[(me + j) % p]
    for k in range(ceil_log2(p) + 1):
        pow2 = 1 << k
        if pow2 >= p:
            break
        idx = [j for j in range(p) if j & pow2]
        rreq = yield ctx.sendrecv((me + pow2) % p, (me - pow2) % p,
                                  args.msg_bytes * len(idx), args.tag,
                                  staged[idx])
        staged[idx] = rreq.payload
    for j in range(1, p):
        out[(me - j) % p] = staged[j]
    return out


def _simulate(schedule, p, nodes, params, skews, msg_bytes, **kw):
    """Per-rank exit times, results and engine counters of one call."""
    platform = Platform("ref", nodes=nodes, cores_per_node=math.ceil(p / nodes))
    args = CollArgs(count=3, msg_bytes=msg_bytes)
    inputs = [make_input("alltoall", r, p, args.count) for r in range(p)]

    def prog(ctx):
        yield ctx.wait_until(skews[ctx.rank])
        out = yield from schedule(ctx, args, inputs[ctx.rank], **kw)
        return out, ctx.time()

    run = run_processes(platform, prog, params=params, num_ranks=p)
    stats = run.engine_stats.to_dict()
    for volatile in ("wall_seconds", "events_per_sec"):
        del stats[volatile]
    return ([r[1] for r in run.rank_results], run.rank_times,
            [r[0] for r in run.rank_results], stats)


def _assert_same_run(mine, reference):
    exits, times, results, stats = mine
    ref_exits, ref_times, ref_results, ref_stats = reference
    assert exits == ref_exits  # exact, not approx
    assert times == ref_times
    assert stats == ref_stats
    for got, want in zip(results, ref_results):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# Sizes on both sides of the 4096 B eager threshold.
_SIZES = st.sampled_from([0.0, 8.0, 1024.0, 4096.0, 4097.0, 65536.0])
# Skews with ties: arrivals at equal times exercise the tie orders.
_SKEW = st.one_of(st.floats(0.0, 2e-4), st.sampled_from([0.0, 1e-5]))


def _case():
    return dict(
        p=st.integers(1, 9),
        nodes=st.integers(1, 3),
        msg_bytes=_SIZES,
        shared_nic=st.booleans(),
        rx_serialization=st.booleans(),
        skews=st.lists(_SKEW, min_size=9, max_size=9),
    )


def _params(shared_nic, rx_serialization):
    return NetworkParams(shared_node_nic=shared_nic,
                         rx_serialization=rx_serialization)


@settings(max_examples=80, deadline=None)
@given(window=st.sampled_from([1, 2, 4, 8]), **_case())
def test_linear_sync_matches_the_waitany_loop(p, nodes, msg_bytes, shared_nic,
                                              rx_serialization, skews, window):
    nodes = min(nodes, p)
    params = _params(shared_nic, rx_serialization)
    schedule = get_algorithm("alltoall", "linear_sync").fn
    _assert_same_run(
        _simulate(schedule, p, nodes, params, skews, msg_bytes, window=window),
        _simulate(reference_linear_sync, p, nodes, params, skews, msg_bytes,
                  window=window))


@settings(max_examples=80, deadline=None)
@given(**_case())
def test_bruck_matches_the_per_row_schedule(p, nodes, msg_bytes, shared_nic,
                                            rx_serialization, skews):
    nodes = min(nodes, p)
    params = _params(shared_nic, rx_serialization)
    schedule = get_algorithm("alltoall", "bruck").fn
    _assert_same_run(
        _simulate(schedule, p, nodes, params, skews, msg_bytes),
        _simulate(reference_bruck, p, nodes, params, skews, msg_bytes))


def test_bruck_block_indices_are_read_only():
    from repro.collectives.alltoall import _bruck_blocks

    idx = _bruck_blocks(8, 2)
    assert idx.tolist() == [2, 3, 6, 7]
    with pytest.raises(ValueError):
        idx[0] = 0


def test_linear_sync_generator_resumes_twice_per_rank_and_call():
    schedule = get_algorithm("alltoall", "linear_sync").fn
    resumes = []

    def counted(ctx, args, data):
        gen = schedule(ctx, args, data)
        value, n = None, 0
        while True:
            n += 1
            try:
                condition = gen.send(value)
            except StopIteration as stop:
                resumes.append(n)
                return stop.value
            value = yield condition

    _simulate(counted, 8, 2, NetworkParams(), [0.0] * 9, 1024.0)
    assert resumes == [2] * 8


def test_yield_from_a_window_is_a_protocol_error():
    def prog(ctx):
        yield from ctx.window([1 - ctx.rank], [1 - ctx.rank], 8)

    with pytest.raises(ProtocolError, match="window is a blocking condition"):
        run_processes(Platform("ref", nodes=1, cores_per_node=2), prog)


def test_an_empty_window_is_a_protocol_error():
    def prog(ctx):
        yield ctx.window([], [], 8)

    with pytest.raises(ProtocolError, match="window of width"):
        run_processes(Platform("ref", nodes=1, cores_per_node=1), prog)


def test_window_payloads_are_snapshotted_when_yielded():
    def prog(ctx):
        peer = 1 - ctx.rank
        payloads = np.full((1, 2), float(ctx.rank))
        condition = ctx.window([peer], [peer], 16, payloads=payloads,
                               width=1)
        payloads[:] = -1.0  # after the snapshot: never sent
        (rreq,) = yield condition
        return rreq.payload

    run = run_processes(Platform("ref", nodes=1, cores_per_node=2), prog)
    assert [r.tolist() for r in run.rank_results] == [[1.0, 1.0], [0.0, 0.0]]
