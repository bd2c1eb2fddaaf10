"""Integration tests for the micro-benchmark harness (Listing 1 analogue)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.bench import MicroBenchmark, micro
from repro.experiments.common import FIG5_MSG_SIZES, FIG5_SHAPES, TABLE2_ALGORITHMS
from repro.patterns import generate_pattern
from repro.sim.engine import Engine
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform, get_machine


@pytest.fixture(scope="module")
def bench():
    return MicroBenchmark.from_machine(
        get_machine("hydra"), nodes=4, cores_per_node=4, nrep=2
    )


class TestMicroBenchmark:
    def test_no_delay_arrival_spread_is_tiny(self, bench):
        result = bench.run("reduce", "binomial", msg_bytes=8)
        for timing in result.timings:
            assert timing.arrival_spread < 1e-9

    def test_metrics_agree_without_pattern(self, bench):
        result = bench.run("allreduce", "ring", msg_bytes=1024)
        assert result.total_delay == pytest.approx(result.last_delay, rel=1e-6)

    def test_pattern_reproduced_in_arrivals(self, bench):
        """The measured arrival pattern equals the requested one."""
        pattern = generate_pattern("ascending", bench.num_ranks, 5e-4, seed=1)
        result = bench.run("alltoall", "bruck", msg_bytes=64, pattern=pattern)
        for timing in result.timings:
            measured = timing.delays_from_first()
            assert np.allclose(measured, pattern.skews, atol=1e-9)

    def test_total_delay_includes_skew_last_delay_does_not(self, bench):
        skew = 2e-3
        pattern = generate_pattern("last_delayed", bench.num_ranks, skew)
        result = bench.run("alltoall", "bruck", msg_bytes=64, pattern=pattern)
        assert result.total_delay >= skew
        assert result.last_delay < skew / 2

    def test_deterministic_across_invocations(self, bench):
        a = bench.run("reduce", "binomial", msg_bytes=512)
        b = bench.run("reduce", "binomial", msg_bytes=512)
        assert np.array_equal(a.last_delays, b.last_delays)

    def test_wrong_pattern_size_rejected(self, bench):
        with pytest.raises(ConfigurationError):
            bench.run("reduce", "binomial", 8, pattern=generate_pattern("bell", 3, 1e-3))

    def test_run_many_covers_all_algorithms(self, bench):
        out = bench.run_many("alltoall", ["bruck", "pairwise"], msg_bytes=64)
        assert set(out) == {"bruck", "pairwise"}

    def test_larger_messages_take_longer(self, bench):
        small = bench.run("alltoall", "pairwise", msg_bytes=64)
        large = bench.run("alltoall", "pairwise", msg_bytes=1 << 20)
        assert large.last_delay > small.last_delay * 10

    def test_validation(self):
        plat = Platform("t", nodes=1, cores_per_node=2)
        with pytest.raises(ConfigurationError):
            MicroBenchmark(platform=plat, nrep=0)
        with pytest.raises(ConfigurationError):
            MicroBenchmark(platform=plat, clock_mode="quantum")
        with pytest.raises(ConfigurationError):
            MicroBenchmark(platform=plat, noise_profile="hurricane")

    @pytest.mark.parametrize("slack", [0.0, -1e-3, float("nan")])
    def test_non_positive_harmonize_slack_rejected(self, slack):
        # Harmonize needs a positive slack even in a No-delay cell, whose
        # pattern adds no skew on top: reject it before any cell runs.
        plat = Platform("t", nodes=1, cores_per_node=2)
        with pytest.raises(ConfigurationError, match="harmonize_slack"):
            MicroBenchmark(platform=plat, harmonize_slack=slack)


class TestSyncedClockMode:
    def test_synced_mode_measures_close_to_perfect_mode(self):
        """Measurement with drifting+synced clocks stays within ~1 us of truth."""
        spec = get_machine("hydra")
        perfect = MicroBenchmark.from_machine(
            spec, nodes=2, cores_per_node=4, nrep=1, clock_mode="perfect"
        )
        synced = MicroBenchmark.from_machine(
            spec, nodes=2, cores_per_node=4, nrep=1, clock_mode="synced"
        )
        pattern = generate_pattern("bell", 8, 2e-4, seed=3)
        rp = perfect.run("alltoall", "pairwise", msg_bytes=4096, pattern=pattern)
        rs = synced.run("alltoall", "pairwise", msg_bytes=4096, pattern=pattern)
        assert rs.last_delay == pytest.approx(rp.last_delay, abs=2e-6)

    def test_synced_mode_deterministic(self):
        spec = get_machine("hydra")
        mk = lambda: MicroBenchmark.from_machine(  # noqa: E731
            spec, nodes=2, cores_per_node=4, nrep=1, clock_mode="synced", seed=9
        )
        a = mk().run("reduce", "binomial", msg_bytes=256)
        b = mk().run("reduce", "binomial", msg_bytes=256)
        assert np.array_equal(a.last_delays, b.last_delays)


def _timings(result):
    return [(t.arrivals, t.exits) for t in result.timings]


def _assert_bitwise(a, b):
    assert len(a.timings) == len(b.timings)
    for (arr_a, exit_a), (arr_b, exit_b) in zip(_timings(a), _timings(b)):
        assert np.array_equal(arr_a, arr_b) and np.array_equal(exit_a, exit_b)


class TestSyncedPrefix:
    """Synced runs sync once per process and resume from the memo bit for
    bit (see the ``repro.bench.micro`` module docstring)."""

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(micro, "_synced_prefix", None)

    @pytest.fixture
    def sync_calls(self, monkeypatch):
        """Ranks that ran the full clock sync, in call order."""
        calls = []
        real = micro.sync_clocks

        def counted(ctx, clock):
            calls.append(ctx.rank)
            return (yield from real(ctx, clock))

        monkeypatch.setattr(micro, "sync_clocks", counted)
        return calls

    @staticmethod
    def _bench(nodes=2, cores=4, **kwargs):
        kwargs.setdefault("nrep", 2)
        return MicroBenchmark.from_machine(
            get_machine("hydra"), nodes=nodes, cores_per_node=cores,
            clock_mode="synced", **kwargs)

    def test_every_fig5_cell_shape_matches_the_full_prefix(self, sync_calls):
        # Each Fig. 5 cell shape (collective, Table II algorithm, size,
        # pattern) once from the full prefix and once from the memo, on
        # two nodes so the sync crosses both link classes.
        bench = self._bench(nodes=2, cores=2)
        p = bench.num_ranks
        cells = 0
        for collective, algorithms in TABLE2_ALGORITHMS.items():
            for algorithm in algorithms:
                for size in FIG5_MSG_SIZES:
                    for shape in [None] + FIG5_SHAPES:
                        pattern = (generate_pattern(shape, p, 2e-4, seed=3)
                                   if shape else None)
                        micro._synced_prefix = None
                        full = bench.run(collective, algorithm, size, pattern)
                        memo = bench.run(collective, algorithm, size, pattern)
                        _assert_bitwise(full, memo)
                        cells += 1
        assert cells == 16 * 3 * 6
        assert len(sync_calls) == cells * p

    def test_paper_scale_cell_fills_the_slot(self, sync_calls):
        bench = self._bench(nodes=16, cores=4)
        pattern = generate_pattern("random", 64, 2e-4, seed=3)
        full = bench.run("alltoall", "pairwise", 1024, pattern)
        assert micro._synced_prefix is not None
        assert len(micro._synced_prefix.entries) == 64
        memo = bench.run("alltoall", "pairwise", 1024, pattern)
        _assert_bitwise(full, memo)
        assert len(sync_calls) == 64

    def test_refused_quiet_check_runs_the_full_prefix(self, monkeypatch,
                                                     sync_calls):
        bench = self._bench()
        cells = [("reduce", "binomial", 8, None),
                 ("alltoall", "bruck", 1024,
                  generate_pattern("descending", 8, 2e-4)),
                 ("allreduce", "ring", 1 << 20, None)]
        memo = [bench.run(*cell) for cell in cells]
        assert len(sync_calls) == 8
        micro._synced_prefix = None
        monkeypatch.setattr(Engine, "quiet_point", lambda *args: None)
        refused = [bench.run(*cell) for cell in cells]
        assert micro._synced_prefix is None
        assert len(sync_calls) == 8 + 3 * 8
        for a, b in zip(memo, refused):
            _assert_bitwise(a, b)

    @pytest.mark.parametrize("change", [
        {"seed": 1}, {"nodes": 4, "cores": 2}, {"noise_profile": "quiet"},
        {"engine_mode": "hybrid"}])
    def test_key_change_refills_the_slot(self, sync_calls, change):
        cell = ("allreduce", "recursive_doubling", 1024,
                generate_pattern("last_delayed", 8, 2e-4))
        self._bench().run(*cell)
        first = micro._synced_prefix
        other = self._bench(**change)
        missed = other.run(*cell)
        refilled = micro._synced_prefix
        assert refilled is not None and refilled.key != first.key
        _assert_bitwise(missed, other.run(*cell))  # from the refilled slot
        assert len(sync_calls) == 2 * 8
        micro._synced_prefix = None
        _assert_bitwise(missed, other.run(*cell))  # cold

    def test_cell_fields_share_the_slot(self, sync_calls):
        # nrep, count and harmonize_slack are read only after the prefix.
        cell = ("reduce", "pipeline", 1024, None)
        self._bench().run(*cell)
        prefix = micro._synced_prefix
        for kwargs in ({"nrep": 3}, {"count": 16}, {"harmonize_slack": 2e-3}):
            micro._synced_prefix = prefix
            synced = len(sync_calls)
            warm = self._bench(**kwargs).run(*cell)
            assert len(sync_calls) == synced
            micro._synced_prefix = None
            _assert_bitwise(warm, self._bench(**kwargs).run(*cell))
