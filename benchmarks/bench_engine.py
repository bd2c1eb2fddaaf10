"""Micro-benchmarks of the simulation substrate itself.

These track the engine's throughput (simulated messages per second of wall
time) and the cost of the clock-sync stack — useful when tuning the DES hot
paths, and a regression guard for the experiment suite's overall runtime.
"""

from __future__ import annotations

import numpy as np

from repro.bench.micro import MicroBenchmark
from repro.clocks import ClockSet
from repro.clocks.sync import sync_clocks
from repro.collectives import CollArgs, make_input, run_collective
from repro.patterns.generator import generate_pattern
from repro.sim.flow import FlowConfig
from repro.sim.mpi import run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform, get_machine

# Aligned entries (single collective from t=0), no payload materialization:
# the scale benches time the engine, not result building.
_HYBRID = FlowConfig(declared_spread=0.0, payloads=False)


def _flow_collective_job(plat, collective, algorithm, args, flow, params=None,
                         skews=None):
    """A zero-copy collective runner: one shared zeros input for all ranks.

    With ``payloads=False`` the flow path never materializes results, so a
    single shared input array serves every rank without O(p^2) memory.
    ``skews`` (seconds per rank) delays each rank's entry.
    """
    p = plat.num_ranks
    shape = (p, args.count) if collective == "alltoall" else (args.count,)
    data = np.zeros(shape)

    def prog(ctx):
        if skews is not None:
            yield ctx.wait_until(float(skews[ctx.rank]))
        yield from run_collective(ctx, collective, algorithm, args, data)

    def job():
        return run_processes(plat, prog, params=params, flow=flow)

    return job


def bench_engine_alltoall_throughput(benchmark):
    """Simulate a 64-rank linear Alltoall (~4k messages) repeatedly."""
    plat = Platform("t", nodes=16, cores_per_node=4)
    p = plat.num_ranks
    args = CollArgs(count=8, msg_bytes=1024.0)
    inputs = [make_input("alltoall", r, p, 8) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "alltoall", "basic_linear", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert result.events_processed > p * (p - 1)


def _alltoall_cell(algorithm):
    """One 64-rank exact Alltoall cell as the sweeps run it: hydra 16 x 4,
    1 KiB blocks, First-delayed at 200 us, two repetitions."""
    bench = MicroBenchmark.from_machine(get_machine("hydra"), nodes=16,
                                        cores_per_node=4, nrep=2)
    pattern = generate_pattern("first_delayed", bench.num_ranks, 2e-4, seed=1)

    def job():
        return bench.run("alltoall", algorithm, 1024.0, pattern)

    return job


def bench_engine_alltoall_linear_sync_cell(benchmark):
    """linear_sync's sliding window, refilled inside the engine (one
    ``window`` condition per rank and call)."""
    result = benchmark.pedantic(_alltoall_cell("linear_sync"), rounds=5,
                                iterations=1)
    assert result.last_delay > 0


def bench_engine_alltoall_bruck_cell(benchmark):
    """Bruck's rotations and block selections as whole-array indexing."""
    result = benchmark.pedantic(_alltoall_cell("bruck"), rounds=5,
                                iterations=1)
    assert result.last_delay > 0


def bench_engine_tree_collective_throughput(benchmark):
    """A 256-rank binomial broadcast — deep-tree scheduling pressure."""
    plat = Platform("t", nodes=32, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=8.0)
    inputs = [make_input("bcast", r, p, 4) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "bcast", "binomial", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert result.final_time > 0


def bench_engine_alltoall_1024(benchmark):
    """The old scale ceiling: a 1024-rank linear Alltoall (~1M messages),
    routed through the hybrid flow engine.  The aligned single-collective
    program is provably flow-eligible, so the whole exchange collapses to
    one analytic batch — bit-identical exit times at a fraction of the
    exact engine's ~9 s (see BENCH_engine.json history)."""
    plat = Platform("t", nodes=128, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "basic_linear", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    # Flow engagement: only start/resume events remain, not ~p^2 deliveries.
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_1024_hydra(benchmark):
    """The same 1024-rank linear Alltoall on Hydra's 32x32 platform and
    network.  At 80-100 Gbit/s a 1 KiB message spends less time on the wire
    than the send overhead, so most port claims find their port idle: the
    regime of the paper's Table I machines, where the replay evaluates each
    run of idle-port claims in one vector pass."""
    spec = get_machine("hydra")
    plat = spec.platform
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "basic_linear", args, _HYBRID,
                               NetworkParams(**spec.network))

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_512_hydra_skewed(benchmark):
    """A 512-rank linear Alltoall on Hydra's network and platform scaled to
    128x4, under a seeded random arrival pattern with 2 ms maximum skew.
    About 39% of the messages reach their receiver before it enters; the
    linear replay claims their extraction ports in the exact engine's event
    order, so the skewed exchange stays one flow batch instead of ~262k
    exact events."""
    spec = get_machine("hydra")
    plat = spec.platform.scaled(128, 4)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    skews = generate_pattern("random", p, max_skew=2e-3, seed=0).skews
    flow = FlowConfig(declared_spread=float(skews.max() - skews.min()),
                      payloads=False)
    job = _flow_collective_job(plat, "alltoall", "basic_linear", args, flow,
                               NetworkParams(**spec.network), skews)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_4096(benchmark):
    """A 4096-rank pairwise Alltoall (~16.8M messages) through the hybrid
    flow engine — the CI scale smoke target.  Single-core nodes keep every
    port single-owner, so the stepped replay is bit-exact at any skew and
    memory stays O(p) per step."""
    plat = Platform("t", nodes=4096, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_8192(benchmark):
    """An 8192-rank pairwise Alltoall (~67M messages) through the hybrid
    engine.  Single-core nodes keep every port single-owner, so the stepped
    replay is bit-exact at any skew; memory stays O(p) per step."""
    plat = Platform("t", nodes=8192, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_allreduce_4096(benchmark):
    """A 4096-rank ring Allreduce (reduce-scatter + allgather, ~33.5M
    messages) through the hybrid engine on an SMP platform."""
    plat = Platform("t", nodes=512, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=p, msg_bytes=float(8 * p))
    job = _flow_collective_job(plat, "allreduce", "ring", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_allreduce_8192(benchmark):
    """An 8192-rank ring Allreduce (~134M messages) through the hybrid
    engine."""
    plat = Platform("t", nodes=1024, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=p, msg_bytes=float(8 * p))
    job = _flow_collective_job(plat, "allreduce", "ring", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_alltoall_16384_flow(benchmark):
    """A 16384-rank pairwise Alltoall (~268M messages) through the hybrid
    engine — the scale ceiling.  Exact simulation at this size is out of
    reach (hundreds of millions of events); single-core nodes keep every
    port single-owner, so the stepped replay is bit-exact and costs p-1
    vectorized steps."""
    plat = Platform("t", nodes=16384, cores_per_node=1)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=1024.0)
    job = _flow_collective_job(plat, "alltoall", "pairwise", args, _HYBRID)

    result = benchmark.pedantic(job, rounds=1, iterations=1)
    assert 0 < result.events_processed <= 4 * p
    assert result.final_time > 0


def bench_engine_bcast_1024(benchmark):
    """A 1024-rank binomial broadcast — resume-dominated deep-tree scheduling
    at scale (few messages per rank, long dependency chains)."""
    plat = Platform("t", nodes=128, cores_per_node=8)
    p = plat.num_ranks
    args = CollArgs(count=4, msg_bytes=8.0)
    inputs = [make_input("bcast", r, p, 4) for r in range(p)]

    def prog(ctx):
        yield from run_collective(ctx, "bcast", "binomial", args, inputs[ctx.rank])

    def job():
        return run_processes(plat, prog)

    result = benchmark.pedantic(job, rounds=3, iterations=1)
    assert result.final_time > 0


def bench_clock_sync_cost(benchmark):
    """Full hierarchical clock sync on 32 ranks."""
    plat = Platform("t", nodes=8, cores_per_node=4)
    clockset = ClockSet(plat.num_ranks, seed=1)

    def prog(ctx):
        corr = yield from sync_clocks(ctx, clockset[ctx.rank])
        return corr

    def job():
        return run_processes(plat, prog)

    result = benchmark(job)
    assert all(c is not None for c in result.rank_results)
