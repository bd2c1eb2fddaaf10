"""Property-based tests of the simulation core (hypothesis-driven traffic)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform

_slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _platform(p: int) -> Platform:
    return Platform("prop", nodes=max(1, (p + 3) // 4), cores_per_node=4)


@st.composite
def traffic_schedules(draw):
    """A random but *matched* set of point-to-point messages.

    Each message is (src, dst, nbytes, tag, send_order_delay).  Receivers
    post receives in per-(src, tag) send order, which is exactly the
    discipline the collectives follow, so every schedule must complete.
    """
    p = draw(st.integers(min_value=2, max_value=8))
    n_msgs = draw(st.integers(min_value=1, max_value=25))
    msgs = []
    for i in range(n_msgs):
        src = draw(st.integers(min_value=0, max_value=p - 1))
        dst = draw(st.integers(min_value=0, max_value=p - 1).filter(lambda d: d != src))
        nbytes = draw(st.sampled_from([1, 64, 4096, 5000, 100_000]))
        tag = draw(st.integers(min_value=0, max_value=2))
        delay = draw(st.floats(min_value=0, max_value=1e-3))
        msgs.append((src, dst, nbytes, tag, delay, i))
    return p, msgs


@_slow
@given(traffic_schedules())
def test_matched_traffic_always_completes_and_conserves_payloads(schedule):
    p, msgs = schedule

    def prog(ctx):
        me = ctx.rank
        my_sends = [m for m in msgs if m[0] == me]
        my_recvs = [m for m in msgs if m[1] == me]
        reqs = []
        recv_reqs = []
        for src, dst, nbytes, tag, delay, uid in my_sends:
            reqs.append(ctx.isend(dst, nbytes, tag=tag + 10,
                                  payload=np.array([float(uid)])))
        for src, dst, nbytes, tag, delay, uid in my_recvs:
            recv_reqs.append((uid, ctx.irecv(src, tag=tag + 10)))
        if reqs or recv_reqs:
            yield ctx.waitall(reqs + [r for _, r in recv_reqs])
        # Each received uid must be one of the uids sent to me with that tag,
        # and per (src, tag) the arrival order matches the send order.
        by_pair: dict[tuple[int, int], list[int]] = {}
        for src, dst, nbytes, tag, delay, uid in msgs:
            if dst == me:
                by_pair.setdefault((src, tag), []).append(uid)
        got: dict[tuple[int, int], list[float]] = {}
        for (uid, req) in recv_reqs:
            src, dst, nbytes, tag, delay, _ = msgs[uid]
            got.setdefault((src, tag), []).append(float(req.payload[0]))
        for key, uids in by_pair.items():
            assert sorted(got[key]) == sorted(float(u) for u in uids)
        return len(recv_reqs)

    run = run_processes(_platform(p), prog, num_ranks=p)
    assert sum(run.rank_results) == len(msgs)


@_slow
@given(
    p=st.integers(min_value=2, max_value=8),
    nbytes=st.sampled_from([1, 512, 4096, 4097, 65536]),
    seed=st.integers(min_value=0, max_value=100),
)
def test_random_pairwise_exchange_times_are_causal(p, nbytes, seed):
    """Exit time >= entry time; receives never complete before the send posts."""
    rng = np.random.default_rng(seed)
    delays = rng.uniform(0, 1e-3, size=p)

    def prog(ctx):
        me = ctx.rank
        partner = me ^ 1
        if partner >= p:
            return (ctx.time(), ctx.time(), 0.0)
        yield ctx.sleep(float(delays[me]))
        entry = ctx.time()
        req = yield ctx.sendrecv(partner, partner, nbytes)
        return entry, ctx.time(), float(delays[partner])

    run = run_processes(_platform(p), prog, num_ranks=p)
    for me, (entry, exit_t, partner_delay) in enumerate(run.rank_results):
        assert exit_t >= entry
        partner = me ^ 1
        if partner < p:
            # The exchange cannot finish before the later partner started.
            assert exit_t >= max(entry, partner_delay) - 1e-12


@_slow
@given(
    p=st.integers(min_value=2, max_value=10),
    shared=st.booleans(),
    rx=st.booleans(),
)
def test_engine_deterministic_under_any_port_config(p, shared, rx):
    params = NetworkParams(shared_node_nic=shared, rx_serialization=rx)

    def prog(ctx):
        partner = (ctx.rank + 1) % p
        source = (ctx.rank - 1) % p
        for _ in range(3):
            yield ctx.sendrecv(partner, source, 8192)
        return ctx.time()

    a = run_processes(_platform(p), prog, params=params, num_ranks=p)
    b = run_processes(_platform(p), prog, params=params, num_ranks=p)
    assert a.rank_results == b.rank_results


@_slow
@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=50))
def test_total_delay_dominates_last_delay_in_simulation(p, seed):
    """Run a real collective under a random pattern; d* >= d^ must hold."""
    from repro.bench import MicroBenchmark
    from repro.patterns import generate_pattern
    from repro.sim.platform import get_machine

    bench = MicroBenchmark.from_machine(
        get_machine("hydra"),
        nodes=max(1, (p + 3) // 4), cores_per_node=4, nrep=1,
    )
    pattern = generate_pattern("random", bench.num_ranks, 1e-4, seed=seed)
    result = bench.run("allreduce", "recursive_doubling", 1024, pattern=pattern)
    assert result.total_delay >= result.last_delay - 1e-12
