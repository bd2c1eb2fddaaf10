"""Tests for the trace analysis engine (repro.obs.analysis).

Hand-computed values follow the paper's Section II notation and its Fig. 2
example style: per-rank arrivals ``a_i`` and exits ``e_i`` give last delay
``d^ = max(e) - max(a)``, total delay ``d* = max(e) - min(a)``, and arrival
spread ``omega = max(a) - min(a)``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.bench.executor import CellExecutor, CellSpec
from repro.bench.micro import MicroBenchmark
from repro.errors import TraceFormatError
from repro.obs.analysis import (
    HOST_TIME_METRICS,
    CollectiveCall,
    TraceAnalysis,
    diff_payloads,
)
from repro.obs.export import export_jsonl, export_perfetto
from repro.patterns.generator import generate_pattern
from repro.sim.platform import Platform

US = 1e-6


def _rank_span(rank, name, start, end, cell=None, span_id=None):
    args = {}
    if cell is not None:
        args["cell"] = cell
    return {"span_id": span_id or 0, "parent_id": None, "name": name,
            "track": f"rank {rank}", "domain": "virtual",
            "start": start, "end": end, "args": args or None}


def _msg_span(src, dst, start, end, nbytes=256.0, cell=None):
    args = {"src": src, "dst": dst, "bytes": nbytes, "tag": 0}
    if cell is not None:
        args["cell"] = cell
    return {"span_id": 0, "parent_id": None, "name": "msg",
            "track": f"msgs {dst}", "domain": "virtual",
            "start": start, "end": end, "args": args}


def _fig2_spans():
    """Four ranks, one call: a = [0, 2, 4, 6] us, e = [7, 8, 9, 10] us."""
    arrivals = [0.0, 2 * US, 4 * US, 6 * US]
    exits = [7 * US, 8 * US, 9 * US, 10 * US]
    return [_rank_span(r, "alltoall/pairwise", arrivals[r], exits[r])
            for r in range(4)]


class TestHandComputedDelays:
    def test_fig2_style_call_metrics(self):
        ana = TraceAnalysis(_fig2_spans())
        (call,) = ana.calls()
        assert call.name == "alltoall/pairwise"
        assert call.ranks == (0, 1, 2, 3)
        # d^ = 10us - 6us, d* = 10us - 0, omega = 6us - 0.
        assert call.last_delay == pytest.approx(4 * US)
        assert call.total_delay == pytest.approx(10 * US)
        assert call.arrival_spread == pytest.approx(6 * US)
        assert call.delays() == pytest.approx((0.0, 2 * US, 4 * US, 6 * US))

    def test_imbalance_factors(self):
        imb = TraceAnalysis(_fig2_spans()).imbalance()
        assert imb["calls"] == 1
        assert imb["mean_arrival_spread"] == pytest.approx(6 * US)
        # omega / d^ = 6 / 4.
        assert imb["spread_over_last_delay"]["mean"] == pytest.approx(1.5)
        assert imb["spread_over_last_delay"]["max"] == pytest.approx(1.5)
        # mean delay = (0 + 2 + 4 + 6)/4 = 3us; / d^ = 0.75.
        assert imb["mean_delay_over_last_delay"]["mean"] == pytest.approx(0.75)

    def test_imbalance_against_external_baseline(self):
        # The paper's kappa = omega / T with T a balanced completion time.
        imb = TraceAnalysis(_fig2_spans()).imbalance(baseline=3 * US)
        assert imb["spread_over_baseline"]["mean"] == pytest.approx(2.0)
        with pytest.raises(TraceFormatError):
            TraceAnalysis(_fig2_spans()).imbalance(baseline=0.0)

    def test_arrival_pattern_reconstruction(self):
        pattern = TraceAnalysis(_fig2_spans()).arrival_pattern()
        assert pattern.skews == pytest.approx([0.0, 2 * US, 4 * US, 6 * US])

    def test_reconstruction_averages_across_calls(self):
        spans = _fig2_spans()
        # Second rep: delays doubled -> averages are 1.5x the first rep's.
        for r, (a, e) in enumerate([(0.0, 30 * US), (4 * US, 31 * US),
                                    (8 * US, 32 * US), (12 * US, 33 * US)]):
            spans.append(_rank_span(r, "alltoall/pairwise", 20 * US + a,
                                    20 * US + e))
        ana = TraceAnalysis(spans)
        assert len(ana.calls()) == 2
        assert ana.calls()[0].rep == 0 and ana.calls()[1].rep == 1
        assert ana.arrival_pattern().skews == pytest.approx(
            [0.0, 3 * US, 6 * US, 9 * US])

    def test_empty_trace_raises(self):
        with pytest.raises(TraceFormatError):
            TraceAnalysis([]).arrival_pattern()
        with pytest.raises(TraceFormatError):
            TraceAnalysis([]).imbalance()

    def test_collective_filter(self):
        spans = _fig2_spans() + [
            _rank_span(r, "allreduce/ring", 20 * US, 21 * US) for r in range(4)
        ]
        ana = TraceAnalysis(spans)
        assert len(ana.calls()) == 2
        assert len(ana.calls("alltoall")) == 1
        assert len(ana.calls("allreduce")) == 1
        assert ana.calls("bcast") == []

    def test_cells_group_independently(self):
        spans = ([_rank_span(r, "a/b", r * US, 10 * US, cell=0)
                  for r in range(2)]
                 + [_rank_span(r, "c/d", r * US, 20 * US, cell=1)
                    for r in range(2)])
        ana = TraceAnalysis(spans)
        assert [c.cell for c in ana.calls()] == [0, 1]
        assert len(ana.calls(cell=1)) == 1


class TestCommMatrix:
    def test_volume_and_counts(self):
        spans = [_msg_span(0, 1, 0.0, 1 * US, nbytes=100.0),
                 _msg_span(0, 1, 1 * US, 2 * US, nbytes=50.0),
                 _msg_span(1, 0, 0.0, 3 * US, nbytes=10.0)]
        m = TraceAnalysis(spans).comm_matrix()
        assert m.ranks == (0, 1)
        assert m.bytes_sent[0][1] == pytest.approx(150.0)
        assert m.messages[0][1] == 2
        assert m.bytes_sent[1][0] == pytest.approx(10.0)
        assert m.total_bytes == pytest.approx(160.0)
        assert m.total_messages == 3
        d = m.to_dict()
        assert d["bytes"]["0"]["1"] == pytest.approx(150.0)

    def test_cell_filter(self):
        spans = [_msg_span(0, 1, 0.0, 1 * US, cell=0),
                 _msg_span(1, 0, 0.0, 1 * US, cell=1)]
        assert TraceAnalysis(spans).comm_matrix(cell=0).total_messages == 1


class TestCriticalPath:
    def test_hand_built_two_rank_path(self):
        # rank 0 arrives at 0, sends at 3, delivered at 5; rank 1 arrives
        # at 2, exits at 6.  Path: compute(1: 5->6) + link(0->1: 3->5) +
        # compute(0: 0->3); skew 0 (path origin is the first arrival).
        spans = [
            _rank_span(0, "x/y", 0.0, 3.5),
            _rank_span(1, "x/y", 2.0, 6.0),
            _msg_span(0, 1, 3.0, 5.0, nbytes=64.0),
        ]
        cp = TraceAnalysis(spans).critical_path()
        assert cp.compute == pytest.approx(4.0)
        assert cp.link == pytest.approx(2.0)
        assert cp.skew == pytest.approx(0.0)
        assert cp.total == pytest.approx(cp.call.total_delay) == pytest.approx(6.0)
        kinds = [s["kind"] for s in cp.steps]
        assert kinds == ["compute", "link", "compute"]

    def test_skew_attribution_when_origin_arrives_late(self):
        # The path ends on rank 1, whose arrival (2.0) trails rank 0's
        # (0.0): that gap is skew, not compute.
        spans = [
            _rank_span(0, "x/y", 0.0, 1.0),
            _rank_span(1, "x/y", 2.0, 6.0),
        ]
        cp = TraceAnalysis(spans).critical_path()
        assert cp.compute == pytest.approx(4.0)
        assert cp.link == pytest.approx(0.0)
        assert cp.skew == pytest.approx(2.0)
        assert cp.total == pytest.approx(cp.call.total_delay)
        assert cp.steps[-1]["kind"] == "skew"

    def test_invariant_on_simulated_trace(self):
        bench = MicroBenchmark(
            platform=Platform(name="cp", nodes=2, cores_per_node=2), nrep=2
        )
        pattern = generate_pattern("ascending", 4, 1e-5, seed=1)
        with obs.session(record_messages=True) as ctx:
            bench.run("alltoall", "pairwise", 1024, pattern)
            ana = TraceAnalysis.from_context(ctx)
        calls = ana.calls()
        assert len(calls) == 2
        for call in calls:
            cp = ana.critical_path(call)
            # Exact attribution: compute + link + skew == d*.
            assert cp.compute + cp.link + cp.skew == pytest.approx(
                call.total_delay, rel=1e-9)
            assert cp.compute >= 0 and cp.link >= 0 and cp.skew >= 0
            assert cp.link > 0  # an alltoall must cross the network

    def test_no_calls_raises(self):
        with pytest.raises(TraceFormatError):
            TraceAnalysis([]).critical_path()


class TestSources:
    def _recorded_context(self):
        bench = MicroBenchmark(
            platform=Platform(name="src", nodes=1, cores_per_node=4), nrep=1
        )
        with obs.session(run_id="src-test", record_messages=True) as ctx:
            bench.run("allreduce", "ring", 512)
            yielded = TraceAnalysis.from_context(ctx)
        return ctx, yielded

    def test_jsonl_roundtrip_payload_identical(self, tmp_path):
        ctx, ana = self._recorded_context()
        path = tmp_path / "trace.jsonl"
        export_jsonl(path, ctx)
        loaded = TraceAnalysis.from_file(path)
        assert loaded.run_id == "src-test"
        assert json.dumps(loaded.analysis_payload(), sort_keys=True) == \
            json.dumps(ana.analysis_payload(), sort_keys=True)

    def test_perfetto_loads_with_microsecond_precision(self, tmp_path):
        ctx, ana = self._recorded_context()
        path = tmp_path / "trace.json"
        export_perfetto(path, ctx)
        loaded = TraceAnalysis.from_file(path)
        (a,), (b,) = ana.calls("allreduce")[:1], loaded.calls("allreduce")[:1]
        assert b.last_delay == pytest.approx(a.last_delay, rel=1e-9)
        assert b.arrival_spread == pytest.approx(a.arrival_spread, abs=1e-12)

    def test_payload_excludes_host_time_metrics(self):
        metrics = {"executor.cells": {"kind": "counter", "value": 3},
                   "executor.cell_seconds": {"kind": "histogram", "count": 3}}
        payload = TraceAnalysis(_fig2_spans(), metrics=metrics).analysis_payload()
        assert "executor.cells" in payload["metrics"]
        assert "executor.cell_seconds" not in payload["metrics"]
        assert "executor.cell_seconds" in HOST_TIME_METRICS


class TestDiffPayloads:
    def test_identical_payloads_agree(self):
        p = {"metrics": {"a": {"value": 3}}, "engine": {"runs": 2}}
        assert diff_payloads(p, json.loads(json.dumps(p))) == []

    def test_detects_increase_and_direction(self):
        old = {"m": {"x": 100.0}}
        new = {"m": {"x": 120.0}}
        (d,) = diff_payloads(old, new, threshold=0.1)
        assert d["path"] == "m.x"
        assert d["direction"] == "increase"
        assert d["change"] == pytest.approx(0.2)
        assert diff_payloads(old, new, threshold=0.5) == []

    def test_detects_added_and_removed_leaves(self):
        drifts = diff_payloads({"a": 1, "b": 2}, {"a": 1, "c": 3})
        assert {(d["path"], d["direction"]) for d in drifts} == \
            {("b", "removed"), ("c", "added")}

    def test_ignores_host_time_paths_by_default(self):
        old = {"metrics": {"executor.cell_seconds": {"sum": 1.0}},
               "engine": {"wall_seconds": 0.5, "events_per_sec": 100.0,
                          "runs": 4}}
        new = {"metrics": {"executor.cell_seconds": {"sum": 9.0}},
               "engine": {"wall_seconds": 5.0, "events_per_sec": 1.0,
                          "runs": 4}}
        assert diff_payloads(old, new) == []
        new["engine"]["runs"] = 8
        (d,) = diff_payloads(old, new)
        assert d["path"] == "engine.runs"

    def test_zero_baseline_counts_as_drift(self):
        (d,) = diff_payloads({"x": 0.0}, {"x": 1.0}, threshold=0.5)
        assert d["direction"] == "increase"


class TestExecutorMergedTraceAnalysis:
    def test_merged_cells_analyze_like_direct_runs(self):
        bench = MicroBenchmark(
            platform=Platform(name="merged", nodes=2, cores_per_node=2), nrep=1
        )
        pattern = generate_pattern("descending", 4, 2e-5, seed=5)
        spec = CellSpec.from_bench(bench, "alltoall", "bruck", 512, pattern)
        with obs.session(record_messages=True) as ctx:
            CellExecutor(jobs=1).run_cells([spec])
            ana = TraceAnalysis.from_context(ctx)
        (call,) = ana.calls()
        assert call.cell == 0
        direct = spec.run()
        np.testing.assert_allclose(call.last_delay,
                                   direct.timings[0].last_delay)
        np.testing.assert_allclose(call.arrival_spread,
                                   direct.timings[0].arrival_spread)
