"""End-to-end tests of the experiment drivers (tiny fast configurations).

These validate the paper's shape-level claims at small scale:
Fig. 4 reduce shows pattern-dependent winners; Fig. 8's robustness pick
differs from (or matches, machine-dependent) the No-delay pick; etc.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    fig1_ft_trace,
    fig2_notation,
    fig3_patterns,
    fig4_simulation,
    fig5_runtimes,
    fig6_robustness,
    fig7_ft_vs_micro,
    fig8_normalized,
    fig9_prediction,
    tables,
)
from repro.experiments.common import ExperimentConfig
from repro.patterns.shapes import NO_DELAY

TINY = ExperimentConfig(nodes=4, cores_per_node=4, fast=True)
TINY_SIM = ExperimentConfig(machine="simcluster", nodes=4, cores_per_node=4, fast=True)


class TestFig1:
    def test_structure_and_report(self):
        result = fig1_ft_trace.run(TINY.with_machine("galileo100"))
        assert result.num_ranks == 16
        assert result.calls_traced > 0
        assert result.avg_delay_per_rank.shape == (16,)
        assert result.max_skew > 0
        text = fig1_ft_trace.report(result)
        assert "Fig. 1" in text and "galileo100" in text

    def test_delays_nonuniform(self):
        result = fig1_ft_trace.run(TINY.with_machine("galileo100"))
        assert np.std(result.avg_delay_per_rank) > 0


class TestFig2:
    def test_metrics_in_report(self):
        result = fig2_notation.run(TINY)
        text = fig2_notation.report(result)
        assert "total delay d*" in text and "last delay  d^" in text
        assert result.timing.total_delay >= result.timing.last_delay


class TestFig3:
    def test_all_eight_shapes_reported(self):
        result = fig3_patterns.run(TINY)
        assert len(result.patterns) == 8
        text = fig3_patterns.report(result)
        for shape in ("ascending", "descending", "bell", "zigzag"):
            assert f"[{shape}]" in text


class TestFig4:
    def test_reduce_has_pattern_dependent_winners(self):
        """The paper's central simulation claim for rooted collectives."""
        result = fig4_simulation.run(TINY_SIM, collective="reduce")
        mismatches = result.mismatch_cells()
        assert len(mismatches) > 0
        # At least one cell where the no-delay choice loses substantially.
        assert min(rel for *_x, rel in mismatches) < 0.8

    def test_allreduce_is_robust(self):
        """Paper: Allreduce's best algorithm rarely changes under patterns."""
        result = fig4_simulation.run(TINY_SIM, collective="allreduce")
        cells = len(result.msg_sizes) * len(result.shapes)
        assert len(result.mismatch_cells()) <= cells // 4

    def test_relative_values_meaningful(self):
        result = fig4_simulation.run(TINY_SIM, collective="reduce")
        for size in result.msg_sizes:
            for pattern in [NO_DELAY] + result.shapes:
                _algo, rel = result.best(size, pattern)
                assert 0 < rel <= 1.0 + 1e-9  # best can't be slower than the ND pick

    def test_unknown_collective_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            fig4_simulation.run(TINY_SIM, collective="barrier")

    def test_report_renders(self):
        result = fig4_simulation.run(TINY_SIM, collective="alltoall")
        text = fig4_simulation.report(result)
        assert "Fig. 4" in text and "no_delay" in text


class TestFig5:
    def test_grid_complete_and_classified(self):
        result = fig5_runtimes.run(TINY, collective="reduce")
        for size in result.msg_sizes:
            for pattern in [NO_DELAY] + result.shapes:
                classes = result.classification(size, pattern)
                assert set(classes) == set(result.algorithms)
                assert any(classes.values())  # at least the fastest is good
        text = fig5_runtimes.report(result)
        assert "*" in text


class TestFig6:
    def test_normalized_values_and_counts(self):
        result = fig6_robustness.run(TINY, collective="reduce")
        size = result.msg_sizes[0]
        counts = result.counts(size)
        assert sum(counts.values()) == len(result.shapes) * len(result.algorithms)
        for shape in result.shapes:
            for algo in result.algorithms:
                value = result.normalized(size, shape, algo)
                assert value > -1.0  # d^ can't be negative

    def test_report_renders(self):
        result = fig6_robustness.run(TINY, collective="allreduce")
        assert "Fig. 6" in fig6_robustness.report(result)


class TestFig7:
    def test_two_series_per_machine(self):
        result = fig7_ft_vs_micro.run(TINY, machines=("hydra",), ft_runs=1)
        mres = result.machines["hydra"]
        assert set(mres.ft_runtime) == set(mres.micro_delay)
        assert all(v > 0 for v in mres.ft_runtime.values())
        text = fig7_ft_vs_micro.report(result)
        assert "AGREE" in text or "DISAGREE" in text


class TestFig8:
    def test_ft_scenario_and_average_row(self):
        result = fig8_normalized.run(TINY, machines=("hydra",))
        mres = result.machines["hydra"]
        assert "ft_scenario" in mres.sweep.patterns
        assert mres.traced_max_skew > 0
        normalized = mres.normalized
        for pattern, row in normalized.items():
            assert min(row.values()) == pytest.approx(1.0)
        avg = mres.average_row()
        assert set(avg) == set(mres.sweep.algorithms)
        assert mres.predicted_best() in avg
        text = fig8_normalized.report(result)
        assert "Average" in text


class TestFig9:
    def test_projections_and_errors(self):
        result = fig9_prediction.run(TINY)
        assert result.calls > 0 and result.compute_time > 0
        for algo in result.actual:
            assert result.predicted_no_delay[algo] > result.compute_time
            assert result.predicted_average[algo] > result.compute_time
        assert 0 <= result.no_delay_mean_error < 2.0
        text = fig9_prediction.report(result)
        assert "actual" in text and "%" in text


class TestTables:
    def test_table1_lists_all_machines(self):
        text = tables.table1()
        for machine in ("simcluster", "hydra", "galileo100", "discoverer"):
            assert machine in text

    def test_table2_matches_paper_ids(self):
        text = tables.table2()
        assert "rabenseifner" in text and "bruck" in text
        assert "in_order_binary" in text

    def test_full_registry_covers_every_family(self):
        text = tables.full_registry()
        for family in ("barrier", "bcast", "gather", "scatter", "reduce_scatter"):
            assert family in text


class TestReuseAcrossFigures:
    def test_fig8_after_fig7_equals_fig8_alone(self, monkeypatch):
        """Fig. 8's FT trace and No-delay cells repeat Fig. 7's runs: in one
        process they come from the reuse tier, and Fig. 8 reports and
        records exactly what it does alone."""
        from repro import obs
        from repro.bench.executor import REUSE
        from repro.bench.micro import MicroBenchmark

        config = ExperimentConfig(nodes=2, cores_per_node=2, fast=True)
        calls = []
        original = MicroBenchmark.run

        def counting(bench, *args, **kwargs):
            calls.append(args[1])
            return original(bench, *args, **kwargs)

        monkeypatch.setattr(MicroBenchmark, "run", counting)

        def fig8():
            with obs.session(run_id="fig8", record_spans=False) as octx:
                text = fig8_normalized.report(
                    fig8_normalized.run(config, machines=("hydra",)))
            engine = {k: v for k, v in octx.engine_stats.to_dict().items()
                      if k not in ("wall_seconds", "events_per_sec")}
            return text, engine

        alone = fig8()
        alone_calls = len(calls)
        REUSE.clear()
        with obs.session(run_id="fig7", record_spans=False):
            fig7_ft_vs_micro.run(config, machines=("hydra",))
        del calls[:]
        assert fig8() == alone
        # The four No-delay cells came from Fig. 7's runs.
        assert len(calls) == alone_calls - 4
