"""Unit tests for the flow-level fast path (:mod:`repro.sim.flow`).

The bitwise hybrid-vs-exact sweeps live in ``test_engine_parity.py``; this
file covers the building blocks: the sequential port-chain kernel, platform
classification, dispatch eligibility (including fallback reasons and their
counters), gate protocol errors, batch results, and the engine's max_events
diagnostics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.bench.micro import MicroBenchmark
from repro.collectives import CollArgs, make_input, run_collective
from repro.collectives.api import _flow_result_fn, reference_result
from repro.errors import ConfigurationError, SimulationError
from repro.sim.flow import (
    ENGINE_MODES,
    FlowConfig,
    _seq_chain,
    get_descriptor,
)
from repro.sim.mpi import build_engine, run_processes
from repro.sim.platform import Platform
from tests.helpers import flow_counter

HETERO = Platform("hetero", nodes=16, cores_per_node=4)
UNIFORM = Platform("uniform", nodes=64, cores_per_node=1)
INTRA = Platform("intra", nodes=1, cores_per_node=64)

ARGS = CollArgs(count=8, msg_bytes=2048.0)


def _alltoall_data(p, count):
    return np.arange(p * count, dtype=np.float64).reshape(p, count)


def _single_collective_prog(collective, algorithm, args, skews=None):
    def prog(ctx):
        if skews is not None:
            yield ctx.wait_until(float(skews[ctx.rank]))
        if collective == "barrier":
            data = None
        elif collective == "alltoall":
            data = _alltoall_data(ctx.size, args.count) + ctx.rank
        else:
            data = np.arange(args.count, dtype=np.float64) + ctx.rank
        return (yield from run_collective(ctx, collective, algorithm, args, data))

    return prog


def _run_flow(plat, prog, flow):
    """Run under an obs session; return (engine, metrics snapshot)."""
    with obs.session(meta={"test": "flow"}) as octx:
        engine, contexts = build_engine(plat, flow=flow)
        for rank, ctx in enumerate(contexts):
            engine.set_process(rank, prog(ctx))
        engine.run()
        return engine, octx.metrics.snapshot()


# --------------------------------------------------------------------- #
# _seq_chain: the exact sequential port-claim kernel
# --------------------------------------------------------------------- #


def _seq_chain_scalar(a, t, free0):
    """The definitional left fold _seq_chain must match bit-for-bit."""
    out = np.empty(len(a))
    prev = free0
    for i in range(len(a)):
        start = a[i] if a[i] > prev else prev
        prev = start + t[i]
        out[i] = prev
    return out, prev


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seq_chain_matches_scalar_fold(seed):
    rng = np.random.default_rng(seed)
    n = 257
    a = np.cumsum(rng.uniform(0, 2e-6, n))        # mostly increasing claims
    a[rng.integers(0, n, 40)] = a[n // 2]         # inject ties and back-jumps
    t = rng.uniform(1e-7, 5e-6, n)
    free0 = float(a[3])
    ends, last = _seq_chain(a, t, free0)
    ref_ends, ref_last = _seq_chain_scalar(a, t, free0)
    assert np.array_equal(ends, ref_ends)         # bitwise, not approx
    assert last == ref_last


def test_seq_chain_idle_port():
    a = np.array([5.0, 6.0, 9.0])
    t = np.array([0.5, 0.5, 0.5])
    ends, last = _seq_chain(a, t, 0.0)
    assert ends.tolist() == [5.5, 6.5, 9.5]
    assert last == 9.5


def test_seq_chain_busy_port_serializes():
    a = np.zeros(4)
    t = np.full(4, 1.0)
    ends, last = _seq_chain(a, t, 10.0)
    assert ends.tolist() == [11.0, 12.0, 13.0, 14.0]
    assert last == 14.0


def _regime_chains(regime):
    """``(a, t, free0)`` chains whose claims find the port as ``regime`` says.

    Transmission times stay below 1e-7 s, so a ready-time gap of at least
    2e-6 s finds the port idle even after thirteen queued claims, and a gap
    below 1e-8 s queues behind the claim before.
    """
    rng = np.random.default_rng(0)
    n = 300
    t = rng.uniform(1e-8, 1e-7, n)
    idle_gaps = rng.uniform(2e-6, 4e-6, n)
    queued_gaps = rng.uniform(0.0, 1e-8, n)
    if regime == "idle":
        return [(np.cumsum(idle_gaps), t, 0.0)]
    if regime == "saturated":
        a = np.cumsum(queued_gaps)
        return [(a, t, float(a[0])), (a, t, 0.0)]
    if regime == "alternating":
        # Stretches of 1 to 13 claims, idle and queued in turn, so each
        # kind comes in every length.
        stretch = np.repeat(np.arange(26), np.arange(26) % 13 + 1)
        m = stretch.size
        a = np.cumsum(np.where(stretch % 2 == 0, idle_gaps[:m], queued_gaps[:m]))
        return [(a, t[:m], 0.0)]
    # Edges: exact ties a[j] == end[j-1], free0 above every ready time, and
    # single-claim chains.
    a = np.cumsum(idle_gaps)
    for j in range(5, n, 11):
        a[j] = _seq_chain_scalar(a[:j], t[:j], 0.0)[1]
    return [
        (a, t, 0.0),
        (a, t, float(a[-1]) + 1e-6),
        (a[:1], t[:1], 0.0),
        (a[:1], t[:1], float(a[0]) + 1e-6),
    ]


@pytest.mark.parametrize("regime", ["idle", "saturated", "alternating", "edges"])
def test_seq_chain_regimes_match_scalar_fold(regime):
    chains = _regime_chains(regime)
    for a, t, free0 in chains:
        ends, last = _seq_chain(a, t, free0)
        ref_ends, ref_last = _seq_chain_scalar(a, t, free0)
        assert np.array_equal(ends, ref_ends)     # bitwise, not approx
        assert last == ref_last
    # The first chain exercises what the regime names.
    a, t, free0 = chains[0]
    ref_ends, _ = _seq_chain_scalar(a, t, free0)
    idle = a[1:] > ref_ends[:-1]
    if regime == "idle":
        assert idle.all()
    elif regime == "saturated":
        assert not idle.any()
    elif regime == "alternating":
        assert np.count_nonzero(np.diff(idle)) >= 20
    else:
        assert np.count_nonzero(a[1:] == ref_ends[:-1]) >= 20


# --------------------------------------------------------------------- #
# Platform classification
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "plat,private,uniform",
    [
        (HETERO, False, False),   # multi-rank nodes + shared NIC + two classes
        (UNIFORM, True, True),    # one rank per node: all inter, private ports
        (INTRA, True, True),      # one node: all intra, node ports unused
    ],
)
def test_net_tables_port_privacy(plat, private, uniform):
    engine, _ = build_engine(plat, flow=FlowConfig())
    nt = engine.flow_runtime.net_tables
    assert nt.private_ports is private
    assert nt.uniform is uniform


# --------------------------------------------------------------------- #
# Single-port-owner scan (shared-platform stepped eligibility)
# --------------------------------------------------------------------- #


def _plan_for(plat, collective, algorithm, args=ARGS):
    engine, _ = build_engine(plat, flow=FlowConfig())
    fn = get_descriptor(collective, algorithm)
    assert fn is not None
    plan = fn(engine.num_procs, args, engine.network)
    assert plan is not None
    return engine.flow_runtime, plan


def test_ring_schedule_is_single_owner_on_smp():
    rt, plan = _plan_for(HETERO, "allgather", "ring")
    assert rt._single_port_owner(plan, ARGS) is True


def test_strided_schedules_are_contended_on_smp():
    for collective, algorithm in [
        ("alltoall", "pairwise"),
        ("allreduce", "recursive_doubling"),
        ("barrier", "bruck"),
    ]:
        args = CollArgs(count=1, msg_bytes=0.0) if collective == "barrier" else ARGS
        rt, plan = _plan_for(HETERO, collective, algorithm, args)
        assert rt._single_port_owner(plan, args) is False, (collective, algorithm)


def test_owner_scan_verdict_is_cached():
    rt, plan = _plan_for(HETERO, "allgather", "ring")
    rt._single_port_owner(plan, ARGS)
    key = (plan.collective, plan.algorithm, rt.net_tables.p, ARGS.count,
           ARGS.msg_bytes)
    assert rt._owner_cache[key] is True


# --------------------------------------------------------------------- #
# Dispatch eligibility and fallback counters
# --------------------------------------------------------------------- #


def test_flow_engages_on_eligible_cell():
    """An eligible cell collapses into one flow batch: the obs counters
    record it and the event count stays at the O(p) start/resume
    skeleton.  The 4096-rank pairwise case guards the scale benchmarks
    against silently falling back to per-message simulation (a descriptor
    rename or an eligibility-rule change would still finish, just slowly)."""
    wide = Platform("probe", nodes=4096, cores_per_node=1)
    wide_args = CollArgs(count=4, msg_bytes=1024.0)
    wide_data = np.zeros((wide.num_ranks, wide_args.count))

    def wide_prog(ctx):
        yield from run_collective(ctx, "alltoall", "pairwise", wide_args,
                                  wide_data)

    cases = [
        (HETERO, "basic_linear",
         _single_collective_prog("alltoall", "basic_linear", ARGS),
         FlowConfig(declared_spread=0.0)),
        (wide, "pairwise", wide_prog,
         FlowConfig(declared_spread=0.0, payloads=False)),
    ]
    for plat, algorithm, prog, flow in cases:
        p = plat.num_ranks
        engine, snap = _run_flow(plat, prog, flow)
        assert flow_counter(snap, "flow.batches") == 1, algorithm
        assert snap[f'flow.batches{{algorithm="{algorithm}"}}']["value"] == 1
        assert flow_counter(snap, "flow.fallback_calls") == 0, algorithm
        assert flow_counter(snap, "flow.messages_collapsed") == p * (p - 1)
        assert 0 < engine.events_processed <= 4 * p, algorithm


def test_shared_contention_falls_back():
    prog = _single_collective_prog("alltoall", "pairwise", ARGS)
    _engine, snap = _run_flow(HETERO, prog, FlowConfig(declared_spread=0.0))
    assert flow_counter(snap, "flow.batches") == 0
    # Counted once, not once per rank.
    assert flow_counter(snap, "flow.fallback_calls") == 1
    assert snap['flow.fallback_calls{reason="shared_contention"}']["value"] == 1
    assert snap['flow.fallback_messages{reason="shared_contention"}'][
        "value"] == 64 * 63


def test_vector_args_fall_back_with_reason():
    """Vector collectives always take the exact path, labeled reason=vector."""
    from repro.collectives import VectorArgs, make_vector_input

    p = HETERO.num_ranks
    counts = tuple(tuple(0 if i == j else 2 for j in range(p))
                   for i in range(p))
    args = VectorArgs(counts=counts)

    def prog(ctx):
        data = make_vector_input("alltoallv", ctx.rank, p, args)
        return (yield from run_collective(
            ctx, "alltoallv", "basic_linear", args, data))

    _engine, snap = _run_flow(HETERO, prog, FlowConfig(declared_spread=0.0))
    assert flow_counter(snap, "flow.batches") == 0
    assert snap['flow.fallback_calls{reason="vector"}']["value"] == 1
    assert 'flow.fallback_calls{reason="no_plan"}' not in snap


def test_unknown_spread_falls_back():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    _engine, snap = _run_flow(HETERO, prog, FlowConfig(declared_spread=None))
    assert flow_counter(snap, "flow.batches") == 0
    assert snap['flow.fallback_calls{reason="unknown_spread"}']["value"] == 1


def test_declared_skew_beyond_tolerance_falls_back():
    # Stepped plans on shared node ports need a declared spread of zero.
    skews = np.linspace(0, 100e-6, HETERO.num_ranks)
    prog = _single_collective_prog("alltoall", "pairwise", ARGS, skews=skews)
    _engine, snap = _run_flow(HETERO, prog, FlowConfig(declared_spread=100e-6))
    assert flow_counter(snap, "flow.batches") == 0
    assert snap['flow.fallback_calls{reason="spread"}']["value"] == 1


def test_skewed_stepped_engages_on_private_ports():
    skews = np.linspace(0, 100e-6, UNIFORM.num_ranks)
    prog = _single_collective_prog("alltoall", "pairwise", ARGS, skews=skews)
    _engine, snap = _run_flow(UNIFORM, prog, FlowConfig(declared_spread=100e-6))
    assert flow_counter(snap, "flow.batches") == 1


def test_flow_counters_reach_obs_metrics():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    _engine, snap = _run_flow(HETERO, prog, FlowConfig(declared_spread=0.0))
    key = 'flow.batches{algorithm="basic_linear"}'
    assert snap[key]["value"] == 1
    assert snap['flow.messages_collapsed{algorithm="basic_linear"}'][
        "value"] == 64 * 63
    # The labeled key parses back to (name, labels) for exposition.
    assert obs.parse_metric_key(key) == (
        "flow.batches", {"algorithm": "basic_linear"})


# --------------------------------------------------------------------- #
# Gate protocol and resolve-time checks
# --------------------------------------------------------------------- #


def test_gate_signature_mismatch_raises():
    def prog(ctx):
        tag = 1 if ctx.rank == 0 else 2     # diverging parameters
        args = CollArgs(count=8, msg_bytes=2048.0, tag=tag)
        data = _alltoall_data(ctx.size, 8)
        return (yield from run_collective(ctx, "alltoall", "basic_linear", args, data))

    with pytest.raises(SimulationError, match="flow gate mismatch"):
        run_processes(HETERO, prog,
                      flow=FlowConfig(declared_spread=0.0))


def test_stale_declaration_raises_at_resolve():
    # Two back-to-back ring allgathers on shared node ports: ranks exit the
    # first at different times, so the second gate sees a real spread the
    # declaration (0.0) promised away.  The gate must refuse rather than
    # silently mis-replay.
    def prog(ctx):
        data = np.arange(8, dtype=np.float64) + ctx.rank
        args1 = CollArgs(count=8, msg_bytes=2048.0, tag=1)
        args2 = CollArgs(count=8, msg_bytes=2048.0, tag=2)
        yield from run_collective(ctx, "allgather", "ring", args1, data)
        return (yield from run_collective(ctx, "allgather", "ring", args2, data))

    with pytest.raises(SimulationError, match="actual entry spread"):
        run_processes(HETERO, prog,
                      flow=FlowConfig(declared_spread=0.0))


def test_back_to_back_linear_raises_busy_ports():
    # The second linear gate opens while the first batch's traffic still
    # holds ports past the earliest entry: the quiet check refuses it.
    def prog(ctx):
        data = _alltoall_data(ctx.size, 8)
        args1 = CollArgs(count=8, msg_bytes=2048.0, tag=1)
        args2 = CollArgs(count=8, msg_bytes=2048.0, tag=2)
        yield from run_collective(ctx, "alltoall", "basic_linear", args1, data)
        return (yield from run_collective(ctx, "alltoall", "basic_linear", args2, data))

    with pytest.raises(SimulationError, match="a port is busy until"):
        run_processes(HETERO, prog,
                      flow=FlowConfig(declared_spread=0.0))


#: Common entry time of the gate-crossing programs below, and the post time
#: that means "after the collective".
ENTRY = 50e-6
AFTER = float("inf")


def _crossing_prog(collective, algorithm, recv_at, send_at):
    """Every rank enters the collective at ENTRY.  Rank 4 sends 2 KiB to
    rank 0, which posts the matching receive; each side posts at its
    ``*_at`` time (before ENTRY, or AFTER the collective) and waits on its
    request after the collective."""
    args = CollArgs(count=8, msg_bytes=2048.0, tag=100)

    def prog(ctx):
        when = {0: recv_at, 4: send_at}.get(ctx.rank)

        def post():
            if ctx.rank == 0:
                return ctx.irecv(4, tag=7)
            return ctx.isend(0, 2048, tag=7)

        req = None
        if when is not None and when < ENTRY:
            yield ctx.wait_until(when)
            req = post()
        yield ctx.wait_until(ENTRY)
        if collective == "alltoall":
            data = _alltoall_data(ctx.size, args.count) + ctx.rank
        else:
            data = np.arange(args.count, dtype=np.float64) + ctx.rank
        res = yield from run_collective(ctx, collective, algorithm, args, data)
        if when == AFTER:
            req = post()
        if req is not None:
            yield ctx.waitall(req)
        return res

    return prog


@pytest.mark.parametrize("plat,collective,algorithm", [
    (HETERO, "alltoall", "basic_linear"),
    (UNIFORM, "alltoall", "pairwise"),
    (UNIFORM, "allreduce", "recursive_doubling"),
    (HETERO, "allgather", "ring"),
], ids=["linear16x4", "pairwise64x1", "recdbl64x1", "ring16x4"])
def test_traffic_across_hybrid_gate_raises(plat, collective, algorithm):
    # Rank 0 posts a receive before the collective and waits on it after,
    # while rank 4's message (sent 1 us before the entry; the wire takes
    # longer) is in flight across the gate.  The replay cannot see that
    # message, so the exact engine's clocks would differ: every hybrid gate
    # refuses instead of mis-replaying.
    prog = _crossing_prog(collective, algorithm, recv_at=0.0,
                          send_at=ENTRY - 1e-6)
    with pytest.raises(SimulationError, match="--engine-mode exact"):
        run_processes(plat, prog,
                      flow=FlowConfig(declared_spread=0.0))


@pytest.mark.parametrize("recv_at,send_at,condition", [
    (0.0, AFTER, "rank 0 holds a posted receive"),
    (AFTER, 0.0, "rank 0 holds an unmatched message"),
], ids=["posted_recv", "unmatched_msg"])
def test_quiet_gate_conditions(recv_at, send_at, condition):
    # A receive or a message that straddles the gate leaves matching state
    # the replay does not model; the gate refuses it even when, as here,
    # the message is not in flight during the batch.
    prog = _crossing_prog("alltoall", "pairwise", recv_at, send_at)
    with pytest.raises(SimulationError, match=condition):
        run_processes(UNIFORM, prog,
                      flow=FlowConfig(declared_spread=0.0))
    # The same program is well formed: the exact engine runs it.
    assert run_processes(UNIFORM, prog).final_time > ENTRY


def test_payloads_disabled_returns_none():
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    result = run_processes(
        HETERO, prog,
        flow=FlowConfig(declared_spread=0.0, payloads=False),
    )
    assert all(r is None for r in result.rank_results)
    assert result.final_time > 0


# --------------------------------------------------------------------- #
# Batch results
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("collective", ["alltoall", "allgather", "allreduce",
                                        "barrier"])
@pytest.mark.parametrize("p", [2, 5, 16])
@pytest.mark.parametrize("kind", ["make_input", "float"])
def test_batch_results_match_reference(collective, p, kind):
    """A flow batch hands every rank its reference result in its own buffer."""
    args = CollArgs(count=3, msg_bytes=24.0)
    inputs = [make_input(collective, r, p, args.count) for r in range(p)]
    if kind == "float":
        rng = np.random.default_rng(p)
        inputs = [rng.standard_normal(x.shape) for x in inputs]
    results = _flow_result_fn(collective, args)(inputs)
    assert len(results) == p
    for rank, got in enumerate(results):
        want = reference_result(collective, inputs, args, rank)
        if want is None:
            assert got is None
            continue
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    arrays = [r for r in results if r is not None]
    for i, x in enumerate(arrays):
        assert not any(np.shares_memory(x, y) for y in arrays[i + 1:])
        assert not any(np.shares_memory(x, y) for y in inputs)


# --------------------------------------------------------------------- #
# Config validation and engine diagnostics
# --------------------------------------------------------------------- #


def test_flow_config_validation():
    assert ENGINE_MODES == ("exact", "hybrid")
    with pytest.raises(ConfigurationError, match="declared_spread"):
        FlowConfig(declared_spread=-1.0)
    with pytest.raises(ConfigurationError, match="unknown engine_mode 'flow'"):
        MicroBenchmark(platform=HETERO, engine_mode="flow")


def test_max_events_error_names_activity_and_suggests_hybrid():
    engine, contexts = build_engine(HETERO)
    engine.max_events = 500       # far below the ~4k events this cell needs
    prog = _single_collective_prog("alltoall", "basic_linear", ARGS)
    for rank, ctx in enumerate(contexts):
        engine.set_process(rank, prog(ctx))
    with pytest.raises(SimulationError) as exc:
        engine.run()
    msg = str(exc.value)
    assert "alltoall/basic_linear" in msg
    assert "--engine-mode hybrid" in msg
