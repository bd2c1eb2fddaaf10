"""Tests for the proxy applications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.apps import CGProxy, FTProxy, IterativeProxyApp
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform, get_machine


class TestIterativeProxyApp:
    def test_accounting_sums_to_runtime(self):
        app = IterativeProxyApp(
            platform=Platform("t", nodes=2, cores_per_node=4),
            collective="allreduce",
            algorithm="ring",
            msg_bytes=1024,
            iterations=5,
            calls_per_iteration=2,
            compute_per_iteration=1e-3,
        )
        result = app.run()
        assert result.collective_calls == 10
        # Per-rank compute + MPI accounts for (almost) the whole runtime.
        totals = result.rank_compute_time + result.rank_mpi_time
        assert np.all(totals <= result.runtime + 1e-9)
        assert totals.max() == pytest.approx(result.runtime, rel=0.05)

    def test_without_noise_compute_is_exact(self):
        app = IterativeProxyApp(
            platform=Platform("t", nodes=1, cores_per_node=4),
            collective="allreduce",
            algorithm="ring",
            msg_bytes=64,
            iterations=3,
            calls_per_iteration=1,
            compute_per_iteration=2e-3,
        )
        result = app.run()
        assert np.allclose(result.rank_compute_time, 6e-3, rtol=1e-6)

    def test_validation(self):
        plat = Platform("t", nodes=1, cores_per_node=2)
        with pytest.raises(ConfigurationError):
            IterativeProxyApp(plat, "alltoall", "bruck", 64, iterations=0)
        with pytest.raises(ConfigurationError):
            IterativeProxyApp(plat, "alltoall", "bruck", 64, compute_per_iteration=-1)

    @pytest.mark.parametrize("field", ["msg_bytes", "compute_per_iteration"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, field, value):
        kwargs = {"msg_bytes": 64.0, field: value}
        with pytest.raises(ConfigurationError):
            IterativeProxyApp(Platform("t", nodes=1, cores_per_node=2),
                              "alltoall", "bruck", **kwargs)

    def test_runs_as_its_workload(self):
        app = FTProxy(platform=Platform("t", nodes=1, cores_per_node=2),
                      iterations=3, compute_per_iteration=1e-3)
        spec = app.workload
        assert [ph.key for ph in spec.phases] == ["alltoall@32768B"] * 2
        assert (spec.iterations, spec.warmup, spec.compute, spec.overlap) == (
            3, 0, 1e-3, "split")


class TestFTProxy:
    def test_paper_message_size_default(self):
        spec = get_machine("hydra")
        ft = FTProxy.class_d_scaled(spec, nodes=2, cores_per_node=4)
        assert ft.msg_bytes == 32768.0
        assert ft.collective == "alltoall"

    def test_algorithm_choice_changes_runtime(self):
        spec = get_machine("hydra")
        runtimes = {}
        for algo in ("bruck", "pairwise"):
            ft = FTProxy.class_d_scaled(spec, nodes=4, cores_per_node=4,
                                        seed=3, algorithm=algo)
            runtimes[algo] = ft.run().runtime
        assert runtimes["bruck"] != runtimes["pairwise"]

    def test_deterministic_given_seed(self):
        spec = get_machine("galileo100")
        mk = lambda: FTProxy.class_d_scaled(spec, nodes=2, cores_per_node=4, seed=11)  # noqa: E731
        assert mk().run().runtime == mk().run().runtime

    def test_noise_seed_changes_runtime(self):
        spec = get_machine("galileo100")
        a = FTProxy.class_d_scaled(spec, nodes=2, cores_per_node=4, seed=1).run()
        b = FTProxy.class_d_scaled(spec, nodes=2, cores_per_node=4, seed=2).run()
        assert a.runtime != b.runtime


class TestFTClasses:
    def test_class_d_at_1024_ranks_matches_the_paper(self):
        from repro.apps.ft import ft_message_bytes

        assert ft_message_bytes("D", 1024) == 32768.0

    @pytest.mark.parametrize("cls_name", ["S", "W", "A", "B", "C", "D", "E"])
    def test_message_bytes_scale_inverse_square(self, cls_name):
        from repro.apps.ft import ft_message_bytes

        m32 = ft_message_bytes(cls_name, 32)
        m64 = ft_message_bytes(cls_name, 64)
        assert m32 == pytest.approx(4 * m64)

    def test_unknown_class_rejected(self):
        from repro.apps.ft import ft_message_bytes

        with pytest.raises(ValueError):
            ft_message_bytes("Z", 32)
        with pytest.raises(ValueError):
            ft_message_bytes("D", 0)

    def test_for_class_builds_consistent_app(self):
        from repro.apps.ft import ft_message_bytes

        spec = get_machine("hydra")
        ft = FTProxy.for_class("A", spec, nodes=4, cores_per_node=4,
                               iterations=3)
        assert ft.msg_bytes == ft_message_bytes("A", 16)
        assert ft.compute_per_iteration > 0
        result = ft.run()
        assert result.runtime > 0
        assert 0 < result.mpi_fraction < 1


class TestCGProxy:
    def test_cg_is_allreduce_dominant_and_cheap_on_comm(self):
        app = CGProxy(
            platform=Platform("t", nodes=2, cores_per_node=4),
            iterations=10,
        )
        result = app.run()
        assert result.collective_calls == 20
        # Tiny allreduces: MPI fraction must be small without noise.
        assert result.mpi_fraction < 0.2


class TestProxyReuse:
    """A proxy run whose noise model has not drawn yet is simulated once
    per process; repeats come from the executor's reuse tier."""

    @staticmethod
    def _ft(**kw):
        return FTProxy.class_d_scaled(get_machine("galileo100"), nodes=2,
                                      cores_per_node=2, seed=3, iterations=2,
                                      **kw)

    @pytest.fixture
    def simulated(self, monkeypatch):
        """Proxy runs simulated, in call order."""
        calls = []
        original = IterativeProxyApp._simulate

        def counting(app):
            calls.append(app.algorithm)
            return original(app)

        monkeypatch.setattr(IterativeProxyApp, "_simulate", counting)
        return calls

    @staticmethod
    def _same(a, b):
        assert a.runtime == b.runtime
        assert a.collective_calls == b.collective_calls
        for mine, theirs in ((a.rank_compute_time, b.rank_compute_time),
                             (a.rank_mpi_time, b.rank_mpi_time)):
            assert np.array_equal(mine, theirs)
            assert not np.shares_memory(mine, theirs)

    def test_a_repeat_is_simulated_once(self, simulated):
        first = self._ft().run()
        again = self._ft().run()
        assert simulated == ["pairwise"]
        self._same(first, again)
        self._ft(algorithm="bruck").run()
        assert simulated == ["pairwise", "bruck"]

    def test_a_reused_run_leaves_the_noise_where_the_run_would(
            self, simulated):
        from repro.bench.executor import REUSE

        ft = self._ft()
        ft.run()
        second = ft.run()  # drawn noise: not keyed, simulated
        assert simulated == ["pairwise"] * 2
        REUSE.clear()
        self._ft().run()
        reused = self._ft()
        reused.run()  # from the tier
        assert simulated == ["pairwise"] * 3
        self._same(reused.run(), second)  # continues the restored streams
        assert simulated == ["pairwise"] * 4

    def test_trace_after_run_hits_and_matches_a_fresh_trace(self, simulated):
        from repro import obs
        from repro.bench.executor import REUSE

        def traced():
            with obs.session(run_id="outer") as octx:
                result, analysis = self._ft().trace()
            spans = [s.to_dict() for s in octx.spans if s.domain == "virtual"]
            return (result, analysis.arrival_pattern("alltoall").skews,
                    spans, octx.metrics.snapshot(), octx.engine_stats.runs)

        fresh = traced()
        REUSE.clear()
        self._ft().run()
        hit = traced()
        assert simulated == ["pairwise"] * 2
        self._same(fresh[0], hit[0])
        assert np.array_equal(fresh[1], hit[1])
        assert fresh[2:] == hit[2:]

    def test_a_reused_run_records_what_the_run_would(self, simulated):
        from repro import obs

        def recorded():
            with obs.session(run_id="outer") as octx:
                self._ft().run()
            spans = [s.to_dict() for s in octx.spans if s.domain == "virtual"]
            engine = {k: v for k, v in octx.engine_stats.to_dict().items()
                      if k not in ("wall_seconds", "events_per_sec")}
            return spans, octx.metrics.snapshot(), engine

        first = recorded()
        assert recorded() == first
        assert simulated == ["pairwise"]
        assert first[2]["runs"] == 1 and first[0]
