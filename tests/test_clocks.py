"""Tests for the clock substrate: local clocks, hierarchical sync, harmonize."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.clocks import ClockSet, LinearCorrection, LocalClock, SyncedClocks
from repro.clocks.harmonize import harmonize
from repro.clocks.sync import sync_clocks
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform


class TestLocalClock:
    def test_offset_and_drift(self):
        clock = LocalClock(offset=5.0, drift=1e-5)
        assert clock.read(0.0) == pytest.approx(5.0)
        assert clock.read(10.0) == pytest.approx(5.0 + 10.0 * (1 + 1e-5))

    def test_inverse(self):
        clock = LocalClock(offset=-2.0, drift=5e-6)
        for t in (0.0, 1.5, 100.0):
            assert clock.true_from_local(clock.read(t)) == pytest.approx(t)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalClock(offset=0.0, drift=-1.5)
        with pytest.raises(ConfigurationError):
            LocalClock(offset=0.0, drift=0.0, read_jitter=-1e-9)


    def test_jitter_state_round_trip(self):
        clock = ClockSet(2, seed=4)[1]
        state = clock.jitter_state
        first = [clock.read(1.0) for _ in range(3)]
        clock.jitter_state = state
        assert [clock.read(1.0) for _ in range(3)] == first
        with pytest.raises(ConfigurationError):
            LocalClock(offset=0.0, drift=0.0).jitter_state = state


class TestClockSet:
    def test_deterministic(self):
        a = ClockSet(8, seed=1)
        b = ClockSet(8, seed=1)
        assert [c.offset for c in a.clocks] == [c.offset for c in b.clocks]

    def test_clocks_disagree_before_sync(self):
        clocks = ClockSet(16, seed=0, max_offset=0.05)
        readings = [clocks.read(r, 1.0) for r in range(16)]
        assert np.ptp(readings) > 1e-3  # tens of milliseconds of disagreement


class TestLinearCorrection:
    def test_apply_and_invert(self):
        corr = LinearCorrection(1.0 + 2e-6, -0.731)
        for local in (0.0, 3.7, 1e4):
            assert corr.local_for_global(corr.apply(local)) == pytest.approx(local)

    def test_compose(self):
        outer = LinearCorrection(2.0, 1.0)
        composed = outer.compose(3.0, 4.0)
        # outer(inner(l)) = 2*(3l + 4) + 1 = 6l + 9
        assert composed.a == pytest.approx(6.0)
        assert composed.b == pytest.approx(9.0)


def _run_sync(p: int, seed: int = 0, **clockset_kw):
    platform = Platform("t", nodes=max(1, (p + 3) // 4), cores_per_node=4)
    clockset = ClockSet(p, seed=seed, **clockset_kw)

    def prog(ctx):
        corr = yield from sync_clocks(ctx, clockset[ctx.rank])
        return corr

    run = run_processes(platform, prog, num_ranks=p)
    return clockset, SyncedClocks(clockset, run.rank_results), run


class TestHierarchicalSync:
    @pytest.mark.parametrize("p", [2, 4, 7, 16])
    def test_submicrosecond_global_clock(self, p):
        """Paper Section II-B: the global clock's accuracy is < 1 us."""
        clockset, synced, run = _run_sync(p)
        horizon = run.final_time
        for t in (horizon, horizon + 0.05, horizon + 0.2):
            assert synced.max_error(t) < 1e-6, f"error {synced.max_error(t)} at {t}"

    def test_sync_beats_raw_clocks_by_orders_of_magnitude(self):
        clockset, synced, run = _run_sync(8, max_offset=0.05)
        t = run.final_time + 0.1
        raw_spread = np.ptp([clockset.read(r, t) for r in range(8)])
        assert synced.max_error(t) < raw_spread / 1e4

    def test_single_rank_identity(self):
        _, synced, _ = _run_sync(1)
        assert synced.corrections[0].a == 1.0
        assert synced.corrections[0].b == 0.0

    def test_corrections_deterministic(self):
        _, s1, _ = _run_sync(5, seed=3)
        _, s2, _ = _run_sync(5, seed=3)
        assert [(c.a, c.b) for c in s1.corrections] == [(c.a, c.b) for c in s2.corrections]

    def test_too_few_exchanges_rejected(self):
        platform = Platform("t", nodes=1, cores_per_node=2)
        clockset = ClockSet(2)

        def prog(ctx):
            yield from sync_clocks(ctx, clockset[ctx.rank], exchanges=2)

        with pytest.raises(ConfigurationError):
            run_processes(platform, prog)


class TestHarmonize:
    def test_perfect_clock_harmonize_aligns_ranks(self):
        """All ranks leave harmonize at the same true instant."""
        platform = Platform("t", nodes=2, cores_per_node=4)

        def prog(ctx):
            yield ctx.sleep(ctx.rank * 1e-4)  # staggered arrivals
            target, ok = yield from harmonize(ctx, slack=5e-3)
            return ctx.time(), ok

        run = run_processes(platform, prog)
        times = [r[0] for r in run.rank_results]
        assert all(r[1] for r in run.rank_results)
        assert np.ptp(times) < 1e-12

    def test_harmonize_with_synced_clocks_aligns_below_microsecond(self):
        p = 8
        platform = Platform("t", nodes=2, cores_per_node=4)
        clockset = ClockSet(p, seed=1)

        def prog(ctx):
            corr = yield from sync_clocks(ctx, clockset[ctx.rank])
            target, ok = yield from harmonize(
                ctx, clockset[ctx.rank], corr, slack=5e-3
            )
            return ctx.time(), ok

        run = run_processes(platform, prog, num_ranks=p)
        times = [r[0] for r in run.rank_results]
        assert all(r[1] for r in run.rank_results)
        assert np.ptp(times) < 1e-6

    def test_straggler_absorbed_by_fan_in(self):
        """The max-reduce fan-in waits for stragglers, so the flag stays ok."""
        platform = Platform("t", nodes=2, cores_per_node=4)

        def prog(ctx):
            if ctx.rank == ctx.size - 1:
                yield ctx.sleep(0.1)
            target, ok = yield from harmonize(ctx, slack=5e-3)
            return target, ok, ctx.time()

        run = run_processes(platform, prog)
        assert all(r[1] for r in run.rank_results)
        times = [r[2] for r in run.rank_results]
        assert np.ptp(times) < 1e-12
        assert min(times) > 0.1  # nobody left before the straggler arrived

    def test_insufficient_slack_flagged(self):
        """Slack below the broadcast propagation time trips the failure flag."""
        platform = Platform("t", nodes=2, cores_per_node=4)

        def prog(ctx):
            target, ok = yield from harmonize(ctx, slack=1e-9)
            return ok

        run = run_processes(platform, prog)
        assert not any(run.rank_results)  # everyone reaches the target late

    def test_bad_slack_rejected(self):
        platform = Platform("t", nodes=1, cores_per_node=2)

        def prog(ctx):
            yield from harmonize(ctx, slack=0.0)

        with pytest.raises(ConfigurationError):
            run_processes(platform, prog)
