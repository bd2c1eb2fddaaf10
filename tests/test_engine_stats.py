"""EngineStats observability and matching-queue hygiene."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import ANY_SOURCE, ANY_TAG, Engine, EngineStats
from repro.sim.mpi import build_engine, run_processes
from repro.sim.network import NetworkModel, NetworkParams
from repro.sim.platform import Platform


@pytest.fixture
def plat() -> Platform:
    return Platform("stats", nodes=2, cores_per_node=4)


def exchange_prog(ctx):
    """Every rank sends to and receives from its neighbour."""
    peer = ctx.rank ^ 1
    sreq = ctx.isend(peer, nbytes=64, tag=2)
    rreq = ctx.irecv(peer, tag=2)
    yield ctx.waitall(sreq, rreq)
    return rreq.source_rank


class TestEngineStats:
    def test_run_result_carries_stats(self, plat):
        res = run_processes(plat, exchange_prog)
        stats = res.engine_stats
        assert stats is not None
        assert stats.events_total == res.events_processed
        assert stats.events_start == plat.num_ranks
        assert stats.events_deliver == plat.num_ranks  # one message per rank
        assert stats.runs == 1
        assert stats.peak_heap > 0
        assert stats.wall_seconds > 0
        assert stats.events_per_sec > 0

    def test_fast_path_counters(self, plat):
        res = run_processes(plat, exchange_prog)
        stats = res.engine_stats
        # All receives are exact and no wildcard is ever posted.
        assert stats.match_fast == plat.num_ranks
        assert stats.match_scan == 0
        assert stats.posted_fast == plat.num_ranks
        assert stats.posted_wild == 0

    def test_wildcard_counters(self, plat):
        def prog(ctx):
            if ctx.rank == 0:
                req = yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
                return req.source_rank
            elif ctx.rank == 1:
                yield from ctx.send(0, nbytes=8, tag=4)

        res = run_processes(plat, prog)
        stats = res.engine_stats
        assert stats.match_scan == 1  # the wildcard irecv probes the queues
        assert stats.posted_wild == 1  # the arriving message sees a live wildcard

    def test_to_dict_and_summary(self, plat):
        stats = run_processes(plat, exchange_prog).engine_stats
        d = stats.to_dict()
        assert d["events_total"] == stats.events_total
        assert d["events_per_sec"] == stats.events_per_sec
        assert d["peak_heap"] == stats.peak_heap
        text = stats.summary()
        assert f"{stats.events_total} events" in text
        assert "peak heap" in text

    def test_merge_accumulates(self, plat):
        a = run_processes(plat, exchange_prog).engine_stats
        b = run_processes(plat, exchange_prog).engine_stats
        total = EngineStats()
        total.merge(a)
        total.merge(b)
        assert total.events_total == a.events_total + b.events_total
        assert total.runs == 2
        assert total.peak_heap == max(a.peak_heap, b.peak_heap)

    def test_aggregation_collects_across_runs(self, plat):
        with obs.session() as octx:
            first = run_processes(plat, exchange_prog)
            second = run_processes(plat, exchange_prog)
        agg = octx.engine_stats
        assert agg.runs == 2
        assert agg.events_total == (
            first.engine_stats.events_total + second.engine_stats.events_total
        )
        # Closing the session stops further accumulation.
        run_processes(plat, exchange_prog)
        assert agg.runs == 2

    def test_max_events_error_includes_stats(self, plat):
        network = NetworkModel(plat, NetworkParams())
        engine = Engine(plat.num_ranks, network, max_events=3)

        def prog():
            while True:
                yield ("sleep", 1e-6)

        for rank in range(plat.num_ranks):
            engine.set_process(rank, prog())
        with pytest.raises(SimulationError, match="max_events=3") as err:
            engine.run()
        # Diagnosable from the message alone: the stats digest rides along.
        assert "events" in str(err.value)
        assert "peak heap" in str(err.value)


class TestQueueHygiene:
    def test_unexpected_and_posted_dicts_drain_empty(self, plat):
        """Long multi-collective programs must not leak one dict entry per
        (src, tag) pair ever used: keys are deleted when their deque empties."""
        engine, contexts = build_engine(plat)

        def prog(ctx):
            peer = ctx.rank ^ 1
            for tag in range(40):  # 40 distinct (src, tag) pairs per proc
                sreq = ctx.isend(peer, nbytes=16, tag=tag)
                rreq = ctx.irecv(peer, tag=tag)
                yield ctx.waitall(sreq, rreq)

        for rank, ctx in enumerate(contexts):
            engine.set_process(rank, prog(ctx))
        engine.run()
        for proc in engine.procs:
            assert proc.unexpected == {}
            assert proc.posted == {}
            assert proc.wild_posted == 0

    def test_wildcard_scan_path_also_prunes(self, plat):
        engine, contexts = build_engine(plat)

        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.sleep(1e-3)  # let both messages become unexpected
                for _ in range(2):
                    yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
            elif ctx.rank in (1, 2):
                yield from ctx.send(0, nbytes=8, tag=ctx.rank)

        for rank, ctx in enumerate(contexts):
            engine.set_process(rank, prog(ctx))
        engine.run()
        assert engine.procs[0].unexpected == {}
        assert engine.procs[0].posted == {}
