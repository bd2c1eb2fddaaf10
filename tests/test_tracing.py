"""Tests for application tracing: rank spans, the Section V-A analysis, and
trace files."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro import obs
from repro.errors import TraceFormatError
from repro.apps import FTProxy
from repro.collectives import CollArgs, make_input, run_collective
from repro.obs.analysis import TraceAnalysis
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform, get_machine


def _traced_session(pattern_skews, ncalls=3):
    """Run ``ncalls`` alltoalls with a fixed imposed arrival pattern."""
    p = len(pattern_skews)
    platform = Platform("t", nodes=max(1, (p + 3) // 4), cores_per_node=4)
    args = CollArgs(count=8, msg_bytes=64.0)
    inputs = [make_input("alltoall", r, p, 8) for r in range(p)]

    def prog(ctx):
        for call in range(ncalls):
            yield from ctx.barrier()
            base = ctx.time()
            yield ctx.wait_until(base + pattern_skews[ctx.rank])
            yield from run_collective(ctx, "alltoall", "bruck", args, inputs[ctx.rank])
        return None

    with obs.session() as octx:
        run_processes(platform, prog, num_ranks=p)
    return octx


def _run_traced(pattern_skews, ncalls=3) -> TraceAnalysis:
    return TraceAnalysis.from_context(_traced_session(pattern_skews, ncalls))


class TestTracer:
    def test_records_all_calls_and_ranks(self):
        trace = _run_traced([0.0] * 8, ncalls=3)
        calls = trace.calls("alltoall")
        assert len(calls) == 3
        for call in calls:
            assert call.ranks == tuple(range(8))

    def test_event_validation(self, tmp_path):
        path = tmp_path / "backwards.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "X", "name": "alltoall/bruck", "cat": "virtual",
             "pid": 1, "tid": 0, "ts": 2.0, "dur": -1.0}]}))
        with pytest.raises(TraceFormatError, match="ends before it starts"):
            TraceAnalysis.from_file(path)


class TestAnalysis:
    def test_average_delay_recovers_imposed_pattern(self):
        skews = [0.0, 1e-4, 2e-4, 5e-5, 0.0, 3e-4, 1e-5, 0.0]
        trace = _run_traced(skews, ncalls=4)
        avg = trace.arrival_pattern("alltoall").skews
        # The dissemination barrier releases ranks within a few microseconds,
        # so recovery is accurate to that scale.
        assert np.allclose(avg, skews, atol=5e-6)

    def test_max_observed_skew(self):
        skews = [0.0, 0.0, 4e-4, 0.0]
        trace = _run_traced(skews, ncalls=2)
        spread = trace.imbalance("alltoall")["max_arrival_spread"]
        assert spread == pytest.approx(4e-4, abs=5e-6)

    def test_pattern_from_trace_is_replayable(self):
        skews = [0.0, 2e-4, 1e-4, 0.0]
        trace = _run_traced(skews, ncalls=2)
        pattern = trace.arrival_pattern("alltoall", name="scenario")
        assert pattern.name == "scenario"
        assert pattern.num_ranks == 4
        assert np.allclose(pattern.skews, skews, atol=5e-6)

    def test_missing_collective_rejected(self):
        trace = _run_traced([0.0] * 4, ncalls=1)
        with pytest.raises(TraceFormatError):
            trace.arrival_pattern("bcast")


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        octx = _traced_session([0.0, 1e-4, 0.0, 5e-5], ncalls=2)
        trace = TraceAnalysis.from_context(octx)
        path = tmp_path / "run.jsonl"
        obs.export_jsonl(path, octx)
        back = TraceAnalysis.from_file(path)
        assert back.run_id == trace.run_id
        assert len(back.calls("alltoall")) == len(trace.calls("alltoall"))
        assert (back.arrival_pattern("alltoall").skews.tolist()
                == trace.arrival_pattern("alltoall").skews.tolist())

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"magic": "nope", "version": 1}\n')
        with pytest.raises(TraceFormatError):
            TraceAnalysis.from_file(path)

    def test_corrupt_event_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text('{"magic": "repro-obs", "version": 1}\n{"c": "alltoall"}\n')
        with pytest.raises(TraceFormatError):
            TraceAnalysis.from_file(path)

    _SPAN = {"span_id": 0, "parent_id": None, "name": "alltoall/bruck",
             "domain": "virtual", "start": 0.0, "end": 1e-6, "args": None}
    MALFORMED = {
        "first_line_not_an_object": "[1, 2, 3]\n",
        "perfetto_event_without_ts": json.dumps({"traceEvents": [
            {"ph": "X", "name": "alltoall/bruck", "cat": "virtual",
             "pid": 1, "tid": 0, "dur": 1.0}]}),
        "non_numeric_rank_track": json.dumps({"traceEvents": [
            {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
             "args": {"name": "rank x"}},
            {"ph": "X", "name": "alltoall/bruck", "cat": "virtual",
             "pid": 1, "tid": 0, "ts": 0.0, "dur": 1.0}]}),
        "jsonl_span_without_track": "\n".join(json.dumps(line) for line in (
            {"magic": "repro-obs", "version": 1, "run_id": "r"},
            {"type": "span", **_SPAN},
            {"type": "end", "spans": 1, "dropped": 0},
        )) + "\n",
        "jsonl_metric_without_name": "\n".join(json.dumps(line) for line in (
            {"magic": "repro-obs", "version": 1, "run_id": "r"},
            {"type": "metric", "kind": "counter", "value": 1},
            {"type": "end", "spans": 0, "dropped": 0},
        )) + "\n",
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_trace_names_the_file(self, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_text(self.MALFORMED[case])
        with pytest.raises(TraceFormatError, match=re.escape(str(path))):
            TraceAnalysis.from_file(path).calls()


class TestFTEndToEnd:
    def test_ft_trace_produces_structured_pattern(self):
        """Fig. 1's phenomenon: the FT proxy yields a non-uniform, stable pattern."""
        spec = get_machine("galileo100")
        ft = FTProxy.class_d_scaled(spec, nodes=4, cores_per_node=4, seed=7)
        result, trace = ft.trace()
        assert result.runtime > 0
        assert len(trace.calls("alltoall")) == result.collective_calls
        avg = trace.arrival_pattern("alltoall").skews
        assert avg.shape == (16,)
        # Delays differ meaningfully across ranks (the paper's observation).
        assert avg.max() > 0
        assert np.std(avg) > 0.05 * avg.max()

    def test_ft_is_alltoall_dominant(self):
        spec = get_machine("hydra")
        ft = FTProxy.class_d_scaled(spec, nodes=4, cores_per_node=4, seed=1)
        result = ft.run()
        assert 0.05 < result.mpi_fraction < 0.95
        assert result.collective_calls == ft.iterations * ft.calls_per_iteration

    @staticmethod
    def _small_ft():
        # A fresh app per run: the noise model's RNG advances with each run.
        return FTProxy.class_d_scaled(get_machine("hydra"), nodes=2,
                                      cores_per_node=4, seed=3, iterations=2)

    def test_tracing_does_not_perturb_the_run(self):
        plain = self._small_ft().run()
        traced, _ = self._small_ft().trace()
        assert traced.runtime == plain.runtime
        assert traced.rank_mpi_time.tolist() == plain.rank_mpi_time.tolist()

    def test_trace_folds_into_the_enclosing_session(self):
        ft = self._small_ft()
        with obs.session() as octx:
            result, trace = ft.trace()
        calls = octx.metrics.get("collective.calls.alltoall.pairwise").value
        assert calls == ft.platform.num_ranks * result.collective_calls
        assert octx.engine_stats.runs == 1
        merged = TraceAnalysis.from_context(octx)
        assert (merged.arrival_pattern("alltoall").skews.tolist()
                == trace.arrival_pattern("alltoall").skews.tolist())
        # Without an enclosing session nothing leaks out.
        self._small_ft().trace()
        assert not obs.current().enabled
