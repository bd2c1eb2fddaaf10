"""Instrumentation must never change simulated results.

The determinism contract of the observability layer: opening a session only
*reads* clocks, so a traced run is bit-for-bit identical to an untraced one,
and disabled-mode instrumentation costs no allocations on the hot paths.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.bench.micro import MicroBenchmark
from repro.obs.context import NULL_CONTEXT, current
from repro.patterns.generator import generate_pattern
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform


def _bench(nodes: int = 2, cores: int = 4) -> MicroBenchmark:
    return MicroBenchmark(
        platform=Platform(name="parity", nodes=nodes, cores_per_node=cores),
        nrep=2,
    )


def _run_cell(bench: MicroBenchmark):
    pattern = generate_pattern("ascending", bench.num_ranks, 5e-4, seed=0)
    return bench.run("alltoall", "pairwise", 1024, pattern)


class TestTracedUntracedParity:
    def test_bench_results_bit_identical(self):
        untraced = _run_cell(_bench())
        with obs.session() as octx:
            traced = _run_cell(_bench())
        assert untraced.to_dict() == traced.to_dict()
        # The traced run actually recorded something (the test is vacuous
        # otherwise).
        assert len(octx.spans) > 0
        assert octx.metrics.get("collective.calls.alltoall.pairwise").value > 0

    def test_metrics_only_session_also_parity(self):
        untraced = _run_cell(_bench())
        with obs.session(record_spans=False):
            traced = _run_cell(_bench())
        assert untraced.to_dict() == traced.to_dict()

    def test_raw_run_processes_parity(self):
        platform = Platform(name="parity", nodes=2, cores_per_node=2)

        def prog(ctx):
            peer = (ctx.rank + 1) % ctx.size
            yield from ctx.sendrecv(peer, (ctx.rank - 1) % ctx.size, nbytes=256)
            yield from ctx.barrier()
            return ctx.time()

        plain = run_processes(platform, prog)
        with obs.session():
            traced = run_processes(platform, prog)
        assert plain.final_time == traced.final_time
        assert plain.rank_times == traced.rank_times
        assert plain.events_processed == traced.events_processed

    def test_session_engine_aggregate_counts_runs(self):
        with obs.session() as octx:
            _run_cell(_bench())
        assert octx.engine_stats is not None
        assert octx.engine_stats.runs == 1

    def test_parity_with_labeled_flow_metrics(self):
        # The flow engine's labeled counters (flow.batches{algorithm=...})
        # must not perturb results either: labels only change how counts
        # are keyed, never what the simulation computes.
        from repro.collectives import run_collective
        from repro.collectives.base import CollArgs
        from repro.sim.flow import FlowConfig

        platform = Platform(name="parity", nodes=16, cores_per_node=4)
        args = CollArgs(count=8, msg_bytes=2048.0)

        def prog(ctx):
            data = np.arange(ctx.size * args.count,
                             dtype=np.float64).reshape(ctx.size, -1)
            out = yield from run_collective(
                ctx, "alltoall", "basic_linear", args, data + ctx.rank
            )
            return out

        flow = FlowConfig(declared_spread=0.0)
        plain = run_processes(platform, prog, flow=flow)
        with obs.session() as octx:
            traced = run_processes(platform, prog, flow=flow)
        assert plain.final_time == traced.final_time
        assert plain.rank_times == traced.rank_times
        assert plain.events_processed == traced.events_processed
        for a, b in zip(plain.rank_results, traced.rank_results):
            np.testing.assert_array_equal(a, b)
        # The traced run recorded the labeled counter (vacuity guard) and
        # the key round-trips through the exposition parser.
        key = obs.metric_key("flow.batches", {"algorithm": "basic_linear"})
        assert octx.metrics.get(key).value == 1
        assert obs.parse_metric_key(key) == (
            "flow.batches", {"algorithm": "basic_linear"})

    def test_link_recording_parity_exact_engine(self):
        untraced = _run_cell(_bench())
        with obs.session(record_links=True) as octx:
            traced = _run_cell(_bench())
        assert untraced.to_dict() == traced.to_dict()
        # Vacuity guard: the fabric recorder actually captured claims.
        assert len(octx.links) > 0

    def test_link_recording_parity_flow_engine(self):
        from repro.collectives import run_collective
        from repro.collectives.base import CollArgs
        from repro.sim.flow import FlowConfig

        platform = Platform(name="parity", nodes=16, cores_per_node=4)
        args = CollArgs(count=8, msg_bytes=2048.0)

        def prog(ctx):
            data = np.arange(ctx.size * args.count,
                             dtype=np.float64).reshape(ctx.size, -1)
            out = yield from run_collective(
                ctx, "alltoall", "basic_linear", args, data + ctx.rank
            )
            return out

        flow = FlowConfig(declared_spread=0.0)
        plain = run_processes(platform, prog, flow=flow)
        with obs.session(record_links=True) as octx:
            traced = run_processes(platform, prog, flow=flow)
        assert plain.final_time == traced.final_time
        assert plain.rank_times == traced.rank_times
        assert plain.events_processed == traced.events_processed
        for a, b in zip(plain.rank_results, traced.rank_results):
            np.testing.assert_array_equal(a, b)
        # The flow path wrote back synthetic aggregates, not nothing.
        assert len(octx.links) > 0


class TestDisabledModeIsInert:
    def test_no_session_leaves_null_context(self):
        _run_cell(_bench())
        assert current() is NULL_CONTEXT
        assert NULL_CONTEXT.metrics.snapshot() == {}

    def test_engine_skips_span_hook_when_disabled(self):
        from repro.sim.engine import Engine
        from repro.sim.network import NetworkModel, NetworkParams

        platform = Platform(name="parity", nodes=1, cores_per_node=2)
        network = NetworkModel(platform, NetworkParams())
        assert Engine(2, network)._obs is None
        with obs.session():
            assert Engine(2, network)._obs is not None
        with obs.session(record_spans=False):
            # Metrics-only sessions keep the engine's per-fiber hook off.
            assert Engine(2, network)._obs is None

    def test_engine_skips_link_hook_unless_requested(self):
        from repro.sim.engine import Engine
        from repro.sim.network import NetworkModel, NetworkParams

        platform = Platform(name="parity", nodes=1, cores_per_node=2)
        network = NetworkModel(platform, NetworkParams())
        # Link recording is opt-in: the hot path keeps its single None
        # check in every other mode, including full-trace sessions.
        assert Engine(2, network)._obs_link is None
        with obs.session():
            assert Engine(2, network)._obs_link is None
        with obs.session(record_links=True) as octx:
            assert Engine(2, network)._obs_link is octx.links

    def test_disabled_wall_span_is_shared_nullcontext(self):
        cm1 = NULL_CONTEXT.wall_span("a")
        cm2 = NULL_CONTEXT.wall_span("b", args={"k": 1})
        assert cm1 is cm2  # no per-call allocation

    def test_untraced_rank_results_match_numpy_reference(self):
        # Unchanged semantic results under instrumentation: validate the
        # collective's payload too, not just timing.
        from repro.collectives import make_input, reference_result, run_collective
        from repro.collectives.base import CollArgs

        platform = Platform(name="parity", nodes=1, cores_per_node=4)
        args = CollArgs(count=4, msg_bytes=64.0)
        inputs = [make_input("allgather", r, 4, 4) for r in range(4)]

        def prog(ctx):
            out = yield from run_collective(
                ctx, "allgather", "ring", args, inputs[ctx.rank]
            )
            return out

        with obs.session():
            run = run_processes(platform, prog)
        for rank in range(4):
            expected = reference_result("allgather", inputs, args, rank)
            np.testing.assert_array_equal(run.rank_results[rank], expected)
