"""Unit tests for the discrete-event engine core."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.errors import DeadlockError, ProtocolError
from repro.sim.engine import ANY_SOURCE, ANY_TAG
from repro.sim.mpi import build_engine, run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform


def run(platform, fn, params=None, **kw):
    return run_processes(platform, fn, params=params, **kw)


class TestBasicExecution:
    def test_empty_program_finishes_at_zero(self, small_platform):
        def prog(ctx):
            return ctx.time()
            yield  # pragma: no cover - makes prog a generator

        res = run(small_platform, prog)
        assert res.final_time == 0.0
        assert res.rank_results == [0.0] * small_platform.num_ranks

    def test_sleep_advances_only_that_rank(self, small_platform):
        def prog(ctx):
            if ctx.rank == 3:
                yield ctx.sleep(0.25)
            return ctx.time()

        res = run(small_platform, prog)
        assert res.rank_results[3] == pytest.approx(0.25)
        assert all(t == 0.0 for i, t in enumerate(res.rank_results) if i != 3)

    def test_wait_until_past_time_is_noop(self, small_platform):
        def prog(ctx):
            yield ctx.sleep(1.0)
            yield ctx.wait_until(0.5)
            return ctx.time()

        res = run(small_platform, prog)
        assert res.rank_results[0] == pytest.approx(1.0)

    def test_wait_until_future_time(self, small_platform):
        def prog(ctx):
            yield ctx.wait_until(2.0)
            return ctx.time()

        res = run(small_platform, prog)
        assert all(t == pytest.approx(2.0) for t in res.rank_results)

    def test_negative_sleep_rejected(self, small_platform):
        def prog(ctx):
            yield ctx.sleep(-1.0)

        with pytest.raises(ProtocolError):
            run(small_platform, prog)

    def test_invalid_yield_rejected(self, small_platform):
        def prog(ctx):
            yield "nonsense"

        with pytest.raises(ProtocolError):
            run(small_platform, prog)

    def test_rank_results_returned_in_order(self, small_platform):
        def prog(ctx):
            yield ctx.sleep(0.001 * ctx.rank)
            return ctx.rank * 10

        res = run(small_platform, prog)
        assert res.rank_results == [r * 10 for r in range(small_platform.num_ranks)]


class TestPointToPoint:
    def test_payload_transfer(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=64, payload=np.arange(8))
            elif ctx.rank == 1:
                req = yield from ctx.recv(0)
                assert np.array_equal(req.payload, np.arange(8))
                return float(req.payload.sum())
            return None

        res = run(small_platform, prog)
        assert res.rank_results[1] == 28.0

    def test_payload_is_snapshotted_at_isend(self, small_platform):
        """Mutating the send buffer after isend must not corrupt the message."""

        def prog(ctx):
            if ctx.rank == 0:
                buf = np.ones(4)
                req = ctx.isend(1, nbytes=32, payload=buf)
                buf[:] = -1.0
                yield ctx.waitall(req)
            elif ctx.rank == 1:
                req = yield from ctx.recv(0)
                assert np.array_equal(req.payload, np.ones(4))
            return None

        run(small_platform, prog)

    def test_eager_timing_closed_form(self, small_platform, flat_params):
        """One eager message: arrival = tx_time + latency (no overheads)."""
        nbytes = 1000

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=nbytes)
            elif ctx.rank == 1:
                yield from ctx.recv(0)
            return ctx.time()

        res = run(small_platform, prog, params=flat_params)
        expected = nbytes / 1e9 + 1e-6
        assert res.rank_results[1] == pytest.approx(expected)
        # Sender completes at end of injection, before arrival.
        assert res.rank_results[0] == pytest.approx(nbytes / 1e9)

    def test_back_to_back_sends_serialize_on_injection_port(
        self, small_platform, flat_params
    ):
        nbytes = 2000

        def prog(ctx):
            if ctx.rank == 0:
                r1 = ctx.isend(1, nbytes=nbytes)
                r2 = ctx.isend(2, nbytes=nbytes)
                yield ctx.waitall(r1, r2)
            elif ctx.rank in (1, 2):
                yield from ctx.recv(0)
            return ctx.time()

        res = run(small_platform, prog, params=flat_params)
        tx = nbytes / 1e9
        # Second message cannot start until the first has drained.
        assert res.rank_results[2] == pytest.approx(2 * tx + 1e-6)

    def test_late_receiver_does_not_stall_eager_sender(self, small_platform, flat_params):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=10)
                return ctx.time()
            if ctx.rank == 1:
                yield ctx.sleep(1.0)
                yield from ctx.recv(0)
                return ctx.time()
            return None

        res = run(small_platform, prog, params=flat_params)
        assert res.rank_results[0] < 1e-3  # sender finished immediately
        assert res.rank_results[1] == pytest.approx(1.0, abs=1e-3)

    def test_late_receiver_stalls_rendezvous_sender(self, small_platform, flat_params):
        nbytes = 100_000  # above the 4096-byte eager threshold

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=nbytes)
                return ctx.time()
            if ctx.rank == 1:
                yield ctx.sleep(0.5)
                yield from ctx.recv(0)
                return ctx.time()
            return None

        res = run(small_platform, prog, params=flat_params)
        assert res.rank_results[0] >= 0.5  # sender waited for the handshake
        # Receiver: handshake at 0.5 + CTS latency + tx + latency.
        expected = 0.5 + 1e-6 + nbytes / 1e9 + 1e-6
        assert res.rank_results[1] == pytest.approx(expected, rel=1e-6)

    def test_unexpected_message_queue(self, small_platform):
        """Message arriving before the recv is posted waits in the queue."""

        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=8, payload=np.array([42.0]))
            elif ctx.rank == 1:
                yield ctx.sleep(0.1)
                req = yield from ctx.recv(0)
                assert req.payload[0] == 42.0
                return ctx.time()
            return None

        res = run(small_platform, prog)
        assert res.rank_results[1] == pytest.approx(0.1, rel=1e-3)

    def test_message_order_preserved_per_pair(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                for i in range(5):
                    yield from ctx.send(1, nbytes=8, payload=np.array([float(i)]))
            elif ctx.rank == 1:
                values = []
                for _ in range(5):
                    req = yield from ctx.recv(0)
                    values.append(req.payload[0])
                assert values == [0.0, 1.0, 2.0, 3.0, 4.0]
            return None

        run(small_platform, prog)

    def test_tags_disambiguate_messages(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                ra = ctx.isend(1, nbytes=8, tag=7, payload=np.array([7.0]))
                rb = ctx.isend(1, nbytes=8, tag=9, payload=np.array([9.0]))
                yield ctx.waitall(ra, rb)
            elif ctx.rank == 1:
                # Receive in the opposite tag order.
                r9 = yield from ctx.recv(0, tag=9)
                r7 = yield from ctx.recv(0, tag=7)
                assert r9.payload[0] == 9.0
                assert r7.payload[0] == 7.0
            return None

        run(small_platform, prog)

    def test_any_source_matches_earliest_arrival(self, small_platform):
        def prog(ctx):
            if ctx.rank == 2:
                yield ctx.sleep(0.2)
                yield from ctx.send(0, nbytes=8, payload=np.array([2.0]))
            elif ctx.rank == 1:
                yield ctx.sleep(0.1)
                yield from ctx.send(0, nbytes=8, payload=np.array([1.0]))
            elif ctx.rank == 0:
                yield ctx.sleep(0.3)
                first = yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
                second = yield from ctx.recv(ANY_SOURCE, tag=ANY_TAG)
                assert first.source_rank == 1
                assert second.source_rank == 2
            return None

        run(small_platform, prog)

    def test_self_message(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                sreq = ctx.isend(0, nbytes=8, payload=np.array([5.0]))
                rreq = ctx.irecv(0)
                yield ctx.waitall(sreq, rreq)
                assert rreq.payload[0] == 5.0
            return None
            yield  # pragma: no cover

        def prog_all(ctx):
            if ctx.rank == 0:
                yield from prog(ctx)
            return None

        run(small_platform, prog_all)


class TestErrorHandling:
    def test_deadlock_detection(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1)  # never sent
            return None

        with pytest.raises(DeadlockError) as exc:
            run(small_platform, prog)
        assert exc.value.blocked_ranks == [0]

    def test_send_to_invalid_rank(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(999, nbytes=8)
            return None

        with pytest.raises(ProtocolError):
            run(small_platform, prog)

    def test_negative_size_rejected(self, small_platform):
        def prog(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, nbytes=-5)
            return None

        with pytest.raises(ProtocolError):
            run(small_platform, prog)

    def test_waitall_empty_rejected(self, small_platform):
        def prog(ctx):
            yield ctx.waitall()

        with pytest.raises(ProtocolError):
            run(small_platform, prog)


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, small_platform):
        def prog(ctx):
            partner = ctx.rank ^ 1
            for _ in range(10):
                yield ctx.sendrecv(partner, partner, nbytes=500)
            return ctx.time()

        res1 = run(small_platform, prog)
        res2 = run(small_platform, prog)
        assert res1.rank_results == res2.rank_results
        assert res1.final_time == res2.final_time
        assert res1.events_processed == res2.events_processed



class TestSendrecv:
    """The fused ``sendrecv`` condition against the three-call form."""

    # (nbytes, partner of rank r): eager and rendezvous pair exchanges on a
    # ring, and self exchanges.
    CASES = {
        "eager": (500, lambda r, p: ((r + 1) % p, (r - 1) % p)),
        "rendezvous": (65536, lambda r, p: ((r + 3) % p, (r - 3) % p)),
        "self": (500, lambda r, p: (r, r)),
    }

    @staticmethod
    def _program(nbytes, peers, fused):
        def prog(ctx):
            dst, src = peers(ctx.rank, ctx.size)
            # Skewed entries: some receives find their message already
            # delivered, so both the blocking and the immediate path run.
            yield ctx.sleep(3e-6 * ((ctx.rank * 5) % 7))
            got = []
            for step in range(4):
                payload = np.array([ctx.rank, step], dtype=np.float64)
                if fused:
                    rreq = yield ctx.sendrecv(dst, src, nbytes, 7, payload)
                else:
                    sreq = ctx.isend(dst, nbytes, 7, payload)
                    rreq = ctx.irecv(src, 7)
                    yield ctx.waitall(sreq, rreq)
                got.append(rreq.payload.tolist())
            return got

        return prog

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fused_step_matches_the_triplet(self, small_platform, case):
        nbytes, peers = self.CASES[case]
        fused = run(small_platform, self._program(nbytes, peers, True))
        triplet = run(small_platform, self._program(nbytes, peers, False))
        assert fused.rank_times == triplet.rank_times  # bitwise
        assert fused.rank_results == triplet.rank_results
        assert fused.events_processed == triplet.events_processed
        p = small_platform.num_ranks
        for rank, got in enumerate(fused.rank_results):
            src = peers(rank, p)[1]
            assert got == [[float(src), float(step)] for step in range(4)]

    @pytest.mark.parametrize("nbytes", [500, 65536])
    def test_engine_drops_the_receive_request_after_resume(self, small_platform,
                                                           nbytes):
        # The received payload lives only on the receive request (and on the
        # peer's send request until it is delivered), so it must die with
        # the generator's last reference once every rank has moved on.
        engine, contexts = build_engine(small_platform)
        refs, alive_mid_run = [], []

        def prog(ctx):
            peer = ctx.rank ^ 1
            yield ctx.sleep(1e-6 * ctx.rank)
            rreq = yield ctx.sendrecv(peer, peer, nbytes, 3,
                                      np.full(4, float(ctx.rank)))
            ref = weakref.ref(rreq.payload)
            refs.append(ref)
            del rreq
            yield ctx.sleep(1e-3)  # every rank has resumed by now
            alive_mid_run.append(ref() is not None)

        for rank, ctx in enumerate(contexts):
            engine.set_process(rank, prog(ctx))
        engine.run()
        assert len(refs) == small_platform.num_ranks
        assert not any(alive_mid_run)
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_yield_from_is_rejected(self, small_platform):
        def prog(ctx):
            yield from ctx.sendrecv(ctx.rank ^ 1, ctx.rank ^ 1, 8)

        with pytest.raises(ProtocolError, match="blocking condition"):
            run(small_platform, prog)


class TestQuietPoint:
    """``Engine.quiet_point``: the check a resumable run relies on."""

    PLATFORM = Platform("quiet", nodes=1, cores_per_node=3)
    PARKED = {1: (0, 5), 2: (0, 5)}
    T = 1e-3

    def _probe(self, before_park, parked=PARKED):
        """Ranks 1 and 2 run ``before_park(ctx)`` and park on a receive from
        rank 0; rank 0 probes the engine at ``T``."""
        seen = []

        def prog(ctx):
            if ctx.rank == 0:
                yield ctx.sleep(self.T)
                seen.append(ctx.engine.quiet_point(0, parked))
                for dst in (1, 2):
                    yield from ctx.send(dst, nbytes=8, tag=5)
            else:
                yield from before_park(ctx)
                yield from ctx.recv(0, tag=5)

        run(self.PLATFORM, prog)
        return seen[0]

    @staticmethod
    def _stagger(ctx):
        yield ctx.sleep(ctx.rank * 1e-4)

    def test_parked_ranks_report_their_post_times(self):
        assert self._probe(self._stagger) == [self.T, 1e-4, 2e-4]

    def test_wrong_envelope_is_not_quiet(self):
        assert self._probe(self._stagger, {1: (0, 6), 2: (0, 5)}) is None

    @pytest.mark.parametrize("case", ["message_in_flight", "unmatched_message",
                                      "extra_receive", "busy_port",
                                      "second_fiber"])
    def test_disturbed_engine_is_not_quiet(self, case):
        eager = 4000  # below the eager threshold; ~3.2 us on the wire

        def nap(ctx):
            yield ctx.sleep(1e-5)

        def before_park(ctx):
            if case == "message_in_flight" and ctx.rank == 2:
                # Off the port before T, delivered one latency later.
                yield ctx.wait_until(self.T - 0.5e-6)
                ctx.isend(1, nbytes=8, tag=7)
            elif case == "unmatched_message" and ctx.rank == 2:
                yield from ctx.send(1, nbytes=8, tag=7)
            elif case == "extra_receive" and ctx.rank == 1:
                ctx.irecv(2, tag=7)
            elif case == "busy_port":
                # Delivered just before T into a pre-posted receive nobody
                # waits on: rank 1's extraction port stays busy past T.
                if ctx.rank == 1:
                    ctx.irecv(2, tag=7)
                else:
                    yield ctx.wait_until(self.T - 5e-6)
                    ctx.isend(1, nbytes=eager, tag=7)
            elif case == "second_fiber" and ctx.rank == 1:
                yield ctx.waitall(ctx.start_fiber(nap))
            yield ctx.sleep(0.0)

        assert self._probe(before_park) is None
