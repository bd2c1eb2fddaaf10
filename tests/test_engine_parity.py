"""Determinism parity pins for the engine hot-path overhaul.

These constants were captured from the pre-overhaul engine (PR 1 state) on
fixed seeds.  The O(1) matching, countdown waits, and tuple-event heap must
not move a single timestamp: ``final_time``, per-rank clocks, per-rank
results, event counts, and selection outcomes are pinned bit-for-bit.  If a
deliberate model change ever invalidates them, re-capture with the recipe in
each test — do not loosen the comparisons to approx.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import obs
from repro.bench.micro import MicroBenchmark
from repro.collectives import CollArgs, make_input, run_collective
from repro.patterns.generator import generate_pattern
from repro.sim.mpi import build_engine, run_processes
from repro.sim.platform import Platform
from tests.helpers import flow_counter


def digest_floats(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


def digest_results(results) -> str:
    h = hashlib.sha256()
    for r in results:
        arr = np.asarray(r, dtype=np.float64) if r is not None else np.array([])
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


# (collective, algorithm[, count[, msg_bytes]]) -> (final_time, rank_times
# digest, results digest, events processed), captured at 64 ranks (16 nodes x
# 4 cores), default network, ascending pattern (max_skew=200us, seed=7),
# count=8 and 2048 B unless the key says otherwise.  Schedules that fall back
# at count=8 carry their own count: ring, rabenseifner and scatter_allgather
# need count >= p, and segmented_ring needs two segments of at least p items.
PINNED = {
    ("reduce", "binomial"): (
        0.00023146079999999988,
        "eea76f212665b4bf",
        "0647177bc6b9fb7d",
        317,
    ),
    ("allreduce", "recursive_doubling"): (
        0.00023959119999999981,
        "a65a004b67a4db6f",
        "340f587faf1d76e7",
        896,
    ),
    ("alltoall", "basic_linear"): (
        0.0006074305904761939,
        "7875e4414a3ae789",
        "29de3e8047dd4c32",
        4224,
    ),
    ("alltoall", "pairwise"): (
        0.0006251037968253995,
        "221723447819f902",
        "29de3e8047dd4c32",
        8192,
    ),
    ("alltoall", "linear_sync"): (
        0.0005949667936507965,
        "674bb8b98aa1ae79",
        "29de3e8047dd4c32",
        16256,
    ),
    # The paired send-receive schedules, pinned before the exchange step
    # was fused into one engine condition.
    ("allgather", "bruck"): (
        0.0006603027936507939, "a0065a45156e11a6", "3a4f69f7167dd8f1", 1152),
    ("allgather", "neighbor_exchange"): (
        0.00045603839999999935, "7c4aa76505a40374", "3a4f69f7167dd8f1", 4224),
    ("allgather", "recursive_doubling"): (
        0.0006574600000000002, "c8b628875e660a8f", "3a4f69f7167dd8f1", 1152),
    ("allgather", "ring"): (
        0.0005043384000000026, "225b08e82b36288f", "3a4f69f7167dd8f1", 8192),
    ("allreduce", "rabenseifner", 64): (
        0.00023319360000000012, "582066ddb2af063c", "c20b6100ae7903bf", 1664),
    ("allreduce", "ring", 64): (
        0.00040225120000000295, "efa4f4ca4b1552d9", "c20b6100ae7903bf", 16256),
    ("allreduce", "ring", 64, 524288.0): (  # rendezvous blocks
        0.0023953072000000015, "4902f708268a210e", "c20b6100ae7903bf", 24320),
    ("allreduce", "segmented_ring", 128, 131072.0): (
        0.0010034767999999865, "8882ead3d4952e37", "8c64d5447441dd17", 32384),
    ("allreduce", "smp"): (
        0.00023473759999999985, "903a1efc851a5895", "340f587faf1d76e7", 512),
    ("alltoall", "bruck"): (
        0.0013119048000000005, "e2cb5b0f6b2d1486", "29de3e8047dd4c32", 1280),
    ("barrier", "bruck"): (
        0.00021301040000000008, "e7d168e21d2967a2", "e3b0c44298fc1c14", 896),
    ("barrier", "recursive_doubling"): (
        0.0002119096000000001, "b92fc9bfc5bf9d90", "e3b0c44298fc1c14", 896),
    ("bcast", "scatter_allgather", 64): (
        0.0003014256000000012, "03b5270248cb8472", "5ae0c66d46776c1f", 8350),
    ("bcast", "split_binary"): (
        0.00020163840000000002, "e1c7c912f90a038c", "0ce8402d8c8602d1", 413),
    ("reduce", "rabenseifner", 64): (
        0.00021925440000000013, "94abb1e0f72b3670", "efa0e78451a2d434", 1085),
    ("reduce_scatter", "pairwise"): (
        0.0006251037968253995, "221723447819f902", "279e9feab80c4872", 8192),
    ("reduce_scatter", "recursive_halving"): (
        0.0006611513904761905, "d71fdb8cf5c0fd04", "279e9feab80c4872", 1152),
}


def _key_id(key) -> str:
    return "-".join(str(part) for part in key)


@pytest.mark.parametrize("key", sorted(PINNED), ids=_key_id)
def test_collective_parity_is_bit_identical(key):
    collective, algorithm = key[:2]
    count = key[2] if len(key) > 2 else 8
    msg_bytes = key[3] if len(key) > 3 else 2048.0
    plat = Platform("parity", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    pattern = generate_pattern("ascending", p, max_skew=200e-6, seed=7)
    args = CollArgs(count=count, msg_bytes=msg_bytes)
    inputs = [make_input(collective, r, p, count) for r in range(p)]

    def prog(ctx):
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        result = yield from run_collective(ctx, collective, algorithm, args, inputs[ctx.rank])
        return result

    run = run_processes(plat, prog)
    final_time, times_digest, results_digest, events = PINNED[key]
    assert run.final_time == final_time  # exact, not approx
    assert digest_floats(run.rank_times) == times_digest
    assert digest_results(run.rank_results) == results_digest
    assert run.events_processed == events


def _pinned_run(prog):
    run = run_processes(Platform("parity", nodes=16, cores_per_node=4), prog)
    return (run.final_time, digest_floats(run.rank_times),
            digest_results(run.rank_results), run.events_processed)


def test_allgatherv_ring_parity_is_bit_identical():
    from repro.collectives.api import make_vector_input
    from repro.collectives.vector import VectorArgs

    pattern = generate_pattern("ascending", 64, max_skew=200e-6, seed=7)
    args = VectorArgs(counts=tuple((r * 7) % 13 for r in range(64)),
                      item_bytes=96.0)
    inputs = [make_vector_input("allgatherv", r, 64, args) for r in range(64)]

    def prog(ctx):
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        blocks = yield from run_collective(ctx, "allgatherv", "ring", args,
                                           inputs[ctx.rank])
        return np.concatenate(blocks)

    assert _pinned_run(prog) == (
        0.00041402160000000247, "da65a8ac83d59472", "a2f44b460781622c", 8192)


def test_harness_barrier_parity_is_bit_identical():
    pattern = generate_pattern("random", 64, max_skew=200e-6, seed=7)

    def prog(ctx):
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        yield from ctx.barrier()
        yield from ctx.barrier(tag=1_500)
        return ctx.time()

    assert _pinned_run(prog) == (
        0.00022502000000000015, "1035d31311a9b986", "1035d31311a9b986", 1664)


def test_group_context_parity_is_bit_identical():
    # Two interleaved jobs on one fabric, as run_contended lays them out:
    # each job's barrier and collective travel through GroupContext.
    from repro.workloads.contention import GroupContext

    pattern = generate_pattern("ascending", 64, max_skew=200e-6, seed=7)
    groups = [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))]
    algos = [("allreduce", "ring"), ("allgather", "bruck")]
    args = CollArgs(count=32, msg_bytes=32768.0)

    def prog(ctx):
        job = ctx.rank % 2
        g = GroupContext(ctx, groups[job])
        coll, algo = algos[job]
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        yield from g.barrier()
        data = make_input(coll, g.rank, g.size, 32)
        return (yield from run_collective(g, coll, algo, args, data,
                                          label=f"job{job}:{coll}/{algo}"))

    assert _pinned_run(prog) == (
        0.0024538893968254, "86ee5a774013c193", "e7384cc2209885af", 5216)


def test_group_context_window_and_bruck_parity_is_bit_identical():
    # The sliding-window linear_sync (one engine condition) and the
    # whole-array Bruck inside interleaved jobs, through GroupContext;
    # pinned while linear_sync still ran its waitany loop in the generator
    # and Bruck copied rows.
    from repro.workloads.contention import GroupContext

    pattern = generate_pattern("first_delayed", 64, max_skew=200e-6, seed=7)
    groups = [tuple(range(0, 64, 2)), tuple(range(1, 64, 2))]
    algos = ["linear_sync", "bruck"]

    def prog(ctx):
        job = ctx.rank % 2
        g = GroupContext(ctx, groups[job])
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        data = make_input("alltoall", g.rank, g.size, 16)
        out = []
        for msg_bytes in (1024.0, 65536.0):  # eager and rendezvous blocks
            args = CollArgs(count=16, msg_bytes=msg_bytes)
            out.append((yield from run_collective(
                g, "alltoall", algos[job], args, data,
                label=f"job{job}:alltoall/{algos[job]}")))
        return out

    assert _pinned_run(prog) == (
        0.013465295200000022, "c5d2696c239808eb", "cae69fb913d03f1b", 9024)


# Expected mean last_delay per alltoall algorithm (32 ranks, random pattern
# max_skew=150us seed=11, 4 KiB, nrep=2, seed=3) and the resulting winner.
PINNED_SELECTION = {
    "basic_linear": 0.0003246882001687962,
    "bruck": 0.0009031895999999985,
    "linear_sync": 0.00033754058500244806,
    "pairwise": 0.00038687839999999017,
}


def test_selection_outcome_parity():
    bench = MicroBenchmark(
        platform=Platform("parity-sel", nodes=8, cores_per_node=4), nrep=2, seed=3
    )
    pattern = generate_pattern("random", 32, max_skew=150e-6, seed=11)
    results = bench.run_many(
        "alltoall", sorted(PINNED_SELECTION), msg_bytes=4096.0, pattern=pattern
    )
    means = {a: float(np.mean(r.last_delays)) for a, r in results.items()}
    assert means == PINNED_SELECTION  # exact float equality
    assert min(means, key=means.get) == "basic_linear"


# ===================================================================== #
# Hybrid flow-engine parity (repro.sim.flow)
#
# Wherever the hybrid dispatcher engages a flow batch, the run must be
# bit-identical to the exact engine: same final_time, same per-rank exit
# clocks, same payload results.  Fallback cases must also be bit-identical
# (the exact path runs either way) — the assertions below additionally pin
# *whether* each cell engages, so eligibility regressions are caught even
# when timings happen to agree.
# ===================================================================== #

from repro.sim.flow import FlowConfig  # noqa: E402
from repro.sim.network import NetworkParams  # noqa: E402
from repro.sim.platform import get_machine  # noqa: E402

FLOW_COMBOS = [
    ("alltoall", "basic_linear"),
    ("alltoall", "pairwise"),
    ("allreduce", "recursive_doubling"),
    ("allgather", "ring"),
    ("barrier", "bruck"),
]

FLOW_PLATFORMS = {
    "hetero16x4": (16, 4),    # shared node NICs, intra/inter classes
    "uniform64x1": (64, 1),   # private ports, all inter-node
    "intra1x64": (1, 64),     # private ports, all intra-node
}


def _flow_prog(seq, skews=None):
    def prog(ctx):
        if skews is not None:
            yield ctx.wait_until(float(skews[ctx.rank]))
        res = None
        for i, (coll, algo) in enumerate(seq):
            args = CollArgs(count=8, msg_bytes=2048.0, tag=10_000 + 50 * i)
            if coll == "barrier":
                data = None
            elif coll == "alltoall":
                data = np.arange(ctx.size * 8, dtype=np.float64).reshape(
                    ctx.size, 8) + ctx.rank
            else:
                data = np.arange(8, dtype=np.float64) + ctx.rank
            res = yield from run_collective(ctx, coll, algo, args, data)
        return res

    return prog


def _assert_hybrid_bitwise(plat, seq, skews, declared, expect_flow,
                           params=None):
    exact = run_processes(plat, _flow_prog(seq, skews), params=params)
    hybrid = run_processes(
        plat, _flow_prog(seq, skews), params=params,
        flow=FlowConfig(declared_spread=declared),
    )
    assert hybrid.final_time == exact.final_time          # bitwise, not approx
    assert hybrid.rank_times == exact.rank_times
    for a, b in zip(exact.rank_results, hybrid.rank_results):
        if a is None and b is None:
            continue
        assert np.array_equal(np.asarray(a), np.asarray(b))
    engaged = hybrid.events_processed < exact.events_processed
    assert engaged == expect_flow, (
        f"expected engage={expect_flow}, events "
        f"{exact.events_processed}->{hybrid.events_processed}"
    )


def _expect_engage(pname, coll, algo, skewed):
    """The eligibility contract: see the dispatch rules in repro.sim.flow."""
    private = pname != "hetero16x4"
    stepped = algo != "basic_linear"
    if skewed:
        # The linear replay follows the exact engine's event order at any
        # skew; stepped plans survive skew only on private-port platforms.
        return private or not stepped
    # Aligned: everything engages except shared-contention stepped schedules
    # (strided exchanges on multi-core shared-NIC nodes).
    if not private and stepped:
        return (coll, algo) == ("allgather", "ring")
    return True


@pytest.mark.parametrize("pname", sorted(FLOW_PLATFORMS))
@pytest.mark.parametrize("coll,algo", FLOW_COMBOS)
def test_hybrid_parity_aligned(pname, coll, algo):
    nodes, cores = FLOW_PLATFORMS[pname]
    plat = Platform(pname, nodes=nodes, cores_per_node=cores)
    _assert_hybrid_bitwise(plat, [(coll, algo)], None, 0.0,
                           _expect_engage(pname, coll, algo, skewed=False))


@pytest.mark.parametrize("pname", sorted(FLOW_PLATFORMS))
@pytest.mark.parametrize("coll,algo", FLOW_COMBOS)
@pytest.mark.parametrize("shape", ["ascending", "random", "bell"])
def test_hybrid_parity_skewed(pname, coll, algo, shape):
    nodes, cores = FLOW_PLATFORMS[pname]
    plat = Platform(pname, nodes=nodes, cores_per_node=cores)
    p = plat.num_ranks
    pattern = generate_pattern(shape, p, max_skew=200e-6, seed=13)
    skews = pattern.skews
    declared = float(skews.max() - skews.min())
    _assert_hybrid_bitwise(plat, [(coll, algo)], skews, declared,
                           _expect_engage(pname, coll, algo, skewed=True))


# The paper's Table I machines run 70-200 Gbit/s links, so a 2 KiB message
# spends less time on the wire than the send overhead and most port claims
# find their port idle.  Default NetworkParams (10 Gbit/s) saturate every
# chain; these cases cover the idle-port regime of the replays.
HYDRA_NET = NetworkParams(**get_machine("hydra").network)


@pytest.mark.parametrize("pname", ["hetero16x4", "uniform64x1"])
@pytest.mark.parametrize("coll,algo", FLOW_COMBOS)
@pytest.mark.parametrize("shape", ["aligned", "ascending"])
def test_hybrid_parity_hydra_network(pname, coll, algo, shape):
    nodes, cores = FLOW_PLATFORMS[pname]
    plat = Platform(pname, nodes=nodes, cores_per_node=cores)
    skewed = shape != "aligned"
    skews, declared = None, 0.0
    if skewed:
        skews = generate_pattern(shape, plat.num_ranks, max_skew=200e-6,
                                 seed=13).skews
        declared = float(skews.max() - skews.min())
    _assert_hybrid_bitwise(
        plat, [(coll, algo)], skews, declared,
        _expect_engage(pname, coll, algo, skewed=skewed),
        params=HYDRA_NET,
    )


# Shapes with whole blocks of ranks late (one rank, half of them, every
# other one): most messages to a late rank arrive before it enters, so the
# linear replay claims them from entry events instead of deliveries.
UNEXPECTED_SHAPES = ["first_delayed", "last_delayed", "step", "zigzag"]


@pytest.mark.parametrize("pname", sorted(FLOW_PLATFORMS))
@pytest.mark.parametrize("net", ["default", "hydra"])
@pytest.mark.parametrize("shape", UNEXPECTED_SHAPES)
def test_hybrid_parity_skewed_linear(pname, net, shape):
    nodes, cores = FLOW_PLATFORMS[pname]
    plat = Platform(pname, nodes=nodes, cores_per_node=cores)
    skews = generate_pattern(shape, plat.num_ranks, max_skew=200e-6,
                             seed=13).skews
    _assert_hybrid_bitwise(
        plat, [("alltoall", "basic_linear")], skews,
        float(skews.max() - skews.min()), True,
        params=HYDRA_NET if net == "hydra" else None,
    )


def test_hybrid_parity_entry_tied_with_arrival(monkeypatch):
    # A late receiver enters exactly (bit for bit) when one of its messages
    # arrives.  Its entry event was scheduled before any delivery, so it
    # runs first: the tied message is claimed at its delivery, after the
    # entry's queued claims, not among them.  Hydra's fast links leave the
    # extraction port idle between claims, so the claim order shows in the
    # receiver's exit time.
    from repro.sim.engine import Engine

    plat = Platform("tie", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    late = 37
    skews = generate_pattern("random", p, max_skew=50e-6, seed=21).skews.copy()
    skews[late] = 200e-6
    arrivals = []
    deliver = Engine._deliver

    def spy(engine, msg):
        if msg.peer == late:
            arrivals.append(msg.arrival)
        deliver(engine, msg)

    monkeypatch.setattr(Engine, "_deliver", spy)
    seq = [("alltoall", "basic_linear")]
    run_processes(plat, _flow_prog(seq, skews), params=HYDRA_NET)
    # Arrivals after every other entry keep the late rank last, so moving
    # its entry leaves every arrival to it unchanged.
    candidates = sorted(a for a in arrivals if a > np.delete(skews, late).max())
    tied = candidates[len(candidates) // 2]
    skews[late] = tied
    arrivals.clear()
    _assert_hybrid_bitwise(plat, seq, skews, float(skews.max() - skews.min()),
                           True, params=HYDRA_NET)
    assert tied in arrivals      # the exact run really delivers at the entry


@pytest.mark.parametrize("coll,algo", [("alltoall", "basic_linear"),
                                       ("allgather", "ring")])
def test_hybrid_parity_discoverer_group_tier(coll, algo):
    # Two Dragonfly+ groups of eight nodes: intra-node, inter-node and
    # cross-group link classes in one phase.
    spec = get_machine("discoverer")
    plat = spec.platform.scaled(16, 4)
    _assert_hybrid_bitwise(
        plat, [(coll, algo)], None, 0.0,
        _expect_engage("hetero16x4", coll, algo, skewed=False),
        params=NetworkParams(**spec.network),
    )


def test_hybrid_parity_multi_collective_sequence():
    # Back-to-back phases on a private-port platform: exits of one phase
    # become skewed entries of the next, and every phase must still collapse
    # bit-exactly.
    seq = [("alltoall", "pairwise"), ("allgather", "ring"),
           ("barrier", "bruck"), ("allreduce", "recursive_doubling")]
    skews = generate_pattern("random", 64, max_skew=200e-6, seed=5).skews
    for nodes, cores in [(64, 1), (1, 64)]:
        plat = Platform(f"seq{nodes}x{cores}", nodes=nodes, cores_per_node=cores)
        _assert_hybrid_bitwise(plat, seq, skews,
                               float(skews.max() - skews.min()), True)


def test_hybrid_parity_256_ranks():
    plat = Platform("parity256", nodes=64, cores_per_node=4)
    for coll, algo, expect in [
        ("alltoall", "basic_linear", True),
        ("allgather", "ring", True),
        ("alltoall", "pairwise", False),        # shared contention
    ]:
        _assert_hybrid_bitwise(plat, [(coll, algo)], None, 0.0, expect)


def _run_counted(plat, seq, skews, flow):
    """Run under an obs session and return its metrics snapshot."""
    with obs.session(record_spans=False) as octx:
        engine, contexts = build_engine(plat, flow=flow)
        prog = _flow_prog(seq, skews)
        for rank, ctx in enumerate(contexts):
            engine.set_process(rank, prog(ctx))
        engine.run()
        return octx.metrics.snapshot()


def test_hybrid_fallback_on_skewed_linear():
    # The remaining fallback trigger for linear plans: an unknown spread
    # (synced clocks declare none) sends the call to the exact path —
    # counters record the decision and no batch is formed.
    plat = Platform("fb", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    skews = generate_pattern("descending", p, max_skew=150e-6, seed=3).skews
    seq = [("alltoall", "basic_linear")]
    snap = _run_counted(plat, seq, skews, FlowConfig(declared_spread=None))
    assert flow_counter(snap, "flow.batches") == 0
    assert snap['flow.fallback_calls{reason="unknown_spread"}']["value"] == 1
    assert snap['flow.fallback_messages{reason="unknown_spread"}'][
        "value"] == p * (p - 1)
    # And the fallback run is still bit-identical to exact:
    _assert_hybrid_bitwise(plat, seq, skews, None, False)


def test_hybrid_engages_on_skewed_linear():
    # A known skewed spread keeps the linear plan on the flow path, and the
    # replay stays bit-identical to exact.
    plat = Platform("fb", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    skews = generate_pattern("descending", p, max_skew=150e-6, seed=3).skews
    declared = float(skews.max() - skews.min())
    seq = [("alltoall", "basic_linear")]
    snap = _run_counted(plat, seq, skews, FlowConfig(declared_spread=declared))
    assert flow_counter(snap, "flow.batches") == 1
    assert flow_counter(snap, "flow.fallback_calls") == 0
    assert flow_counter(snap, "flow.messages_collapsed") == p * (p - 1)
    _assert_hybrid_bitwise(plat, seq, skews, declared, True)


@pytest.mark.parametrize("shape", [None, "ascending", "random", "bell"])
def test_microbenchmark_hybrid_parity(shape):
    # The harness-level contract: MicroBenchmark(engine_mode="hybrid")
    # reproduces exact-mode results bit-for-bit in perfect-clock mode, and
    # every repetition engages: harmonize leaves each gate quiet, so the
    # linear replay runs at any declared spread.
    pattern = (
        generate_pattern(shape, 64, max_skew=200e-6, seed=9) if shape else None
    )
    runs = {}
    for mode in ("exact", "hybrid"):
        bench = MicroBenchmark(
            platform=Platform("mb", nodes=16, cores_per_node=4),
            nrep=3, seed=11, engine_mode=mode,
        )
        with obs.session(record_spans=False) as octx:
            runs[mode] = bench.run("alltoall", "basic_linear",
                                   msg_bytes=2048.0, pattern=pattern)
        batches = octx.metrics.snapshot().get(
            'flow.batches{algorithm="basic_linear"}', {"value": 0})["value"]
        # Every repetition collapses into one flow batch in hybrid mode.
        assert batches == (3 if mode == "hybrid" else 0)
    assert np.array_equal(runs["exact"].last_delays, runs["hybrid"].last_delays)
    assert np.array_equal(runs["exact"].total_delays, runs["hybrid"].total_delays)
    assert np.array_equal(
        runs["exact"].arrival_spreads, runs["hybrid"].arrival_spreads
    )


def test_microbenchmark_synced_hybrid_falls_back():
    # Synced clocks declare no spread: drifting harmonize targets schedule
    # entries inside the gate window, which the quiet check would refuse,
    # so hybrid keeps even skew-exact stepped plans on the exact path.
    runs = {}
    for mode in ("exact", "hybrid"):
        bench = MicroBenchmark(
            platform=Platform("mbs", nodes=64, cores_per_node=1),
            nrep=2, seed=3, clock_mode="synced", engine_mode=mode,
        )
        with obs.session(record_spans=False) as octx:
            runs[mode] = bench.run("alltoall", "pairwise", msg_bytes=1024.0)
        snap = octx.metrics.snapshot()
    assert snap['flow.fallback_calls{reason="unknown_spread"}']["value"] == 2
    assert 'flow.batches{algorithm="pairwise"}' not in snap
    assert np.array_equal(runs["exact"].last_delays, runs["hybrid"].last_delays)
    assert np.array_equal(runs["exact"].total_delays, runs["hybrid"].total_delays)
