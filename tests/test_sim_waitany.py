"""Tests for the wait_any blocking condition."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform


@pytest.fixture
def plat():
    return Platform("t", nodes=2, cores_per_node=4)


class TestWaitAny:
    def test_returns_index_of_earliest_completion(self, plat):
        def prog(ctx):
            if ctx.rank == 1:
                yield ctx.sleep(0.2)
                yield from ctx.send(0, 8, tag=1, payload=np.array([1.0]))
            elif ctx.rank == 2:
                yield ctx.sleep(0.1)
                yield from ctx.send(0, 8, tag=2, payload=np.array([2.0]))
            elif ctx.rank == 0:
                r1 = ctx.irecv(1, tag=1)
                r2 = ctx.irecv(2, tag=2)
                index = yield ctx.waitany(r1, r2)
                first_time = ctx.time()
                assert index == 1  # rank 2's message lands first
                yield ctx.waitall(r1)
                return first_time, ctx.time()
            return None

        run = run_processes(plat, prog)
        first, second = run.rank_results[0]
        assert 0.1 <= first < 0.15
        assert second >= 0.2

    def test_already_complete_request_resumes_immediately(self, plat):
        def prog(ctx):
            if ctx.rank == 1:
                yield from ctx.send(0, 8, payload=np.array([7.0]))
            elif ctx.rank == 0:
                req = ctx.irecv(1)
                yield ctx.sleep(0.05)  # message certainly arrived
                index = yield ctx.waitany([req])
                assert index == 0
                assert req.payload[0] == 7.0
                return ctx.time()
            return None

        run = run_processes(plat, prog)
        # A few CPU-overhead microseconds on top of the 50 ms sleep.
        assert run.rank_results[0] == pytest.approx(0.05, abs=1e-5)

    def test_equal_completion_times_go_to_the_lowest_index(self, plat):
        # Two zero-byte messages from ranks of rank 0's node land at the
        # same instant; whichever is listed first wins, in either order.
        def prog(ctx):
            if ctx.rank in (1, 2):
                yield from ctx.send(0, 0, tag=ctx.rank,
                                    payload=np.array([float(ctx.rank)]))
            elif ctx.rank == 0:
                r1 = ctx.irecv(1, tag=1)
                r2 = ctx.irecv(2, tag=2)
                yield ctx.sleep(0.01)  # both already complete
                assert r1.complete_time == r2.complete_time
                first = yield ctx.waitany(r1, r2)
                second = yield ctx.waitany(r2, r1)
                return first, second
            return None

        run = run_processes(plat, prog)
        assert run.rank_results[0] == (0, 0)

    def test_sliding_window_consumes_all(self, plat):
        """waitany-driven window: receive 6 messages with 2 slots."""

        def prog(ctx):
            if ctx.rank == 0:
                srcs = [1, 2, 3]
                pending = []
                seen = []
                # two messages from each of three peers
                queue = [(src, k) for src in srcs for k in range(2)]
                queue_iter = iter(queue)
                for _ in range(2):
                    src, _k = next(queue_iter)
                    pending.append((src, ctx.irecv(src)))
                remaining = queue[2:]
                while pending:
                    index = yield ctx.waitany([r for _, r in pending])
                    src, req = pending.pop(index)
                    seen.append(float(req.payload[0]))
                    if remaining:
                        nsrc, _k = remaining.pop(0)
                        pending.append((nsrc, ctx.irecv(nsrc)))
                return sorted(seen)
            if ctx.rank in (1, 2, 3):
                for k in range(2):
                    yield from ctx.send(
                        0, 8, payload=np.array([ctx.rank * 10.0 + k])
                    )
            return None

        run = run_processes(plat, prog)
        assert run.rank_results[0] == [10.0, 11.0, 20.0, 21.0, 30.0, 31.0]

    def test_rewait_replaces_the_stale_entry(self, plat):
        # A request still pending across two waitany calls carries one
        # back-pointer for the waiting fiber, not one per call.
        def prog(ctx):
            if ctx.rank in (1, 2, 3):
                yield ctx.sleep(0.1 * ctx.rank)
                yield from ctx.send(0, 8, payload=np.array([float(ctx.rank)]))
            elif ctx.rank == 0:
                pending = [ctx.irecv(src) for src in (1, 2, 3)]
                order = []
                while pending:
                    index = yield ctx.waitany(pending)
                    order.append(float(pending.pop(index).payload[0]))
                    assert all(type(r.waiters) is tuple for r in pending)
                return order
            return None

        run = run_processes(plat, prog)
        assert run.rank_results[0] == [1.0, 2.0, 3.0]

    def test_empty_waitany_rejected(self, plat):
        def prog(ctx):
            yield ctx.waitany()

        with pytest.raises(ProtocolError):
            run_processes(plat, prog)

    def test_waitany_deadlock_detected(self, plat):
        from repro.errors import DeadlockError

        def prog(ctx):
            if ctx.rank == 0:
                req = ctx.irecv(1)  # never sent
                yield ctx.waitany([req])
            return None

        with pytest.raises(DeadlockError):
            run_processes(plat, prog)
