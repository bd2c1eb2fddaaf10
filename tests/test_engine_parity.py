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


# (collective, algorithm) -> (final_time, rank_times digest, results digest,
# events processed), captured at 64 ranks (16 nodes x 4 cores), default
# network, ascending pattern (max_skew=200us, seed=7), count=8, 2048 B.
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
}


@pytest.mark.parametrize("collective,algorithm", sorted(PINNED))
def test_collective_parity_is_bit_identical(collective, algorithm):
    plat = Platform("parity", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    pattern = generate_pattern("ascending", p, max_skew=200e-6, seed=7)
    args = CollArgs(count=8, msg_bytes=2048.0)
    inputs = [make_input(collective, r, p, 8) for r in range(p)]

    def prog(ctx):
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        result = yield from run_collective(ctx, collective, algorithm, args, inputs[ctx.rank])
        return result

    run = run_processes(plat, prog)
    final_time, times_digest, results_digest, events = PINNED[(collective, algorithm)]
    assert run.final_time == final_time  # exact, not approx
    assert digest_floats(run.rank_times) == times_digest
    assert digest_results(run.rank_results) == results_digest
    assert run.events_processed == events


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
