"""Tests for the user-facing simulated MPI layer (ProcContext, runners)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.sim.mpi import ProcContext, build_engine, run_processes
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import Platform


class TestBuildEngine:
    def test_contexts_match_ranks(self, small_platform):
        engine, contexts = build_engine(small_platform)
        assert len(contexts) == small_platform.num_ranks
        for rank, ctx in enumerate(contexts):
            assert ctx.rank == rank
            assert ctx.size == small_platform.num_ranks

    def test_undersubscription(self, small_platform):
        engine, contexts = build_engine(small_platform, num_ranks=3)
        assert len(contexts) == 3
        assert contexts[0].size == 3

    @pytest.mark.parametrize("bad", [0, -1, 999])
    def test_invalid_num_ranks_rejected(self, small_platform, bad):
        with pytest.raises(ProtocolError):
            build_engine(small_platform, num_ranks=bad)


class TestRunProcesses:
    def test_per_rank_program_list(self, small_platform):
        def sender(ctx):
            yield from ctx.send(1, nbytes=8, payload=np.array([1.0]))
            return "sent"

        def receiver(ctx):
            req = yield from ctx.recv(0)
            return float(req.payload[0])

        def idle(ctx):
            return "idle"
            yield  # pragma: no cover

        programs = [sender, receiver] + [idle] * (small_platform.num_ranks - 2)
        run = run_processes(small_platform, programs)
        assert run.rank_results[0] == "sent"
        assert run.rank_results[1] == 1.0
        assert run.rank_results[2] == "idle"

    def test_user_slot_is_per_rank(self, small_platform):
        def prog(ctx):
            ctx.user["mine"] = ctx.rank * 2
            yield ctx.sleep(0.0)
            return ctx.user["mine"]

        run = run_processes(small_platform, prog)
        assert run.rank_results == [r * 2 for r in range(small_platform.num_ranks)]

    def test_events_counted(self, small_platform):
        def prog(ctx):
            yield from ctx.barrier()

        run = run_processes(small_platform, prog)
        assert run.events_processed > small_platform.num_ranks


class TestContextHelpers:
    def test_sendrecv_returns_receive_request(self, small_platform):
        def prog(ctx):
            partner = ctx.rank ^ 1
            req = yield ctx.sendrecv(
                partner, partner, nbytes=8, payload=np.array([float(ctx.rank)])
            )
            return float(req.payload[0])

        run = run_processes(small_platform, prog)
        for rank, value in enumerate(run.rank_results):
            assert value == float(rank ^ 1)

    def test_waitall_accepts_iterables_and_singletons(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                reqs = [ctx.isend(1, 8) for _ in range(3)]
                extra = ctx.isend(1, 8)
                yield ctx.waitall(reqs, extra)
            elif ctx.rank == 1:
                reqs = [ctx.irecv(0) for _ in range(4)]
                condition = ctx.waitall(reqs)
                assert condition[1] is reqs  # a single list passes through
                yield condition
            return None

        run_processes(small_platform, prog)

    def test_compute_without_noise_is_exact(self, small_platform):
        def prog(ctx):
            yield ctx.compute(0.25)
            return ctx.time()

        run = run_processes(small_platform, prog)
        assert all(t == pytest.approx(0.25) for t in run.rank_results)

    def test_compute_with_noise_differs_per_rank(self, small_platform):
        noise = NoiseModel("noisy", small_platform.num_ranks, seed=5)

        def prog(ctx):
            yield ctx.compute(1e-3)
            return ctx.time()

        run = run_processes(small_platform, prog, noise=noise)
        assert len(set(run.rank_results)) > 1

    def test_barrier_synchronizes_staggered_ranks(self, small_platform):
        def prog(ctx):
            yield ctx.sleep(ctx.rank * 1e-3)
            entry = ctx.time()
            yield from ctx.barrier()
            return entry, ctx.time()

        run = run_processes(small_platform, prog)
        entries = [r[0] for r in run.rank_results]
        exits = [r[1] for r in run.rank_results]
        assert min(exits) >= max(entries)

    def test_single_rank_barrier_is_noop(self):
        plat = Platform("solo", nodes=1, cores_per_node=1)

        def prog(ctx):
            yield from ctx.barrier()
            return ctx.time()

        run = run_processes(plat, prog)
        assert run.rank_results == [0.0]

    def test_custom_params_respected(self, small_platform):
        params = NetworkParams(inter_latency=1.0, intra_latency=1.0,
                               send_overhead=0.0, recv_overhead=0.0)

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=1)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return ctx.time()

        run = run_processes(small_platform, prog, params=params)
        assert run.rank_results[1] >= 1.0  # one-second wire latency
