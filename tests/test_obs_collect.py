"""Tests for cross-process telemetry capture, shipping, and merging.

The headline contract: a ``--jobs N`` run merges worker telemetry into a
trace byte-identical to the serial run's, and cache hits replay their
stored payloads (differing only by the provenance tag).
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import obs
from repro.bench.executor import CellExecutor, CellSpec
from repro.bench.micro import MicroBenchmark
from repro.bench.runner import sweep_shared_skew
from repro.errors import TraceFormatError
from repro.obs.analysis import HOST_TIME_METRICS, TraceAnalysis
from repro.obs.collect import (
    CACHE_REPLAY,
    CELLS_TRACK,
    SIMULATED,
    CellTelemetry,
    capture_telemetry,
    merge_telemetry,
    replay_telemetry,
)
from repro.obs.context import ObsContext
from repro.patterns.generator import generate_pattern
from repro.sim.platform import Platform


def _specs():
    bench = MicroBenchmark(
        platform=Platform(name="collect", nodes=2, cores_per_node=2), nrep=2,
        seed=7,
    )
    pattern = generate_pattern("ascending", 4, 1e-5, seed=3)
    return [
        CellSpec.from_bench(bench, "alltoall", "pairwise", 1024, pattern),
        CellSpec.from_bench(bench, "allreduce", "ring", 4096, None),
    ]


def _run(jobs, cache_dir=None):
    """One instrumented executor batch; returns (ctx, virtual span dicts)."""
    with obs.session(run_id="collect-test", record_spans=True,
                     record_messages=True) as ctx:
        executor = CellExecutor(jobs=jobs, cache_dir=cache_dir)
        executor.run_cells(_specs())
    spans = [s.to_dict() for s in ctx.spans if s.domain == "virtual"]
    return ctx, spans


def _deterministic_metrics(ctx):
    return {name: snap for name, snap in ctx.metrics.snapshot().items()
            if name not in HOST_TIME_METRICS}


class TestCellTelemetry:
    def test_dict_roundtrip(self):
        t = CellTelemetry(run_id="cell-x", spans=[{"name": "s"}],
                          metrics={"m": {"kind": "counter", "value": 1}},
                          engine={"runs": 1}, dropped=2)
        back = CellTelemetry.from_dict(json.loads(json.dumps(t.to_dict())))
        assert back == t

    def test_from_dict_rejects_missing_keys(self):
        with pytest.raises(TraceFormatError):
            CellTelemetry.from_dict({"run_id": "x"})

    def test_picklable(self):
        t = CellTelemetry(run_id="cell-x", spans=[{"a": 1}])
        assert pickle.loads(pickle.dumps(t)) == t

    def test_tagged_copy_changes_only_provenance(self):
        t = CellTelemetry(run_id="cell-x", spans=[{"a": 1}], dropped=3)
        replay = t.tagged(CACHE_REPLAY)
        assert replay.provenance == CACHE_REPLAY
        assert t.provenance == SIMULATED
        assert replay.spans == t.spans and replay.dropped == t.dropped


class TestCaptureAndMerge:
    def _captured_cell(self):
        with obs.session(run_id="inner", record_spans=True) as cctx:
            cctx.record_rank_span("x/y", 0, 0.0, 2.0)
            cctx.record_rank_span("x/y", 1, 1.0, 3.0)
            cctx.metrics.counter("collective.calls.x.y").inc(2)
            return capture_telemetry(cctx)

    def test_capture_snapshots_everything(self):
        telemetry = self._captured_cell()
        assert telemetry.run_id == "inner"
        assert telemetry.provenance == SIMULATED
        assert len(telemetry.spans) == 2
        assert telemetry.metrics["collective.calls.x.y"]["value"] == 2

    def test_merge_rebases_and_tags_spans(self):
        telemetry = self._captured_cell()
        parent = ObsContext("parent", {})
        cid = merge_telemetry(parent, telemetry, cell=0, name="x/y")
        # Container on the cells track covering the cell's extent.
        container = next(s for s in parent.spans if s.span_id == cid)
        assert container.track == CELLS_TRACK
        assert container.start == 0.0 and container.end == 3.0
        assert container.args["provenance"] == SIMULATED
        assert container.args["cell_run_id"] == "inner"
        # Second cell tiles after the first (cursor advanced by the extent).
        assert parent.merge_cursor == 3.0
        cid2 = merge_telemetry(parent, telemetry, cell=1, name="x/y")
        container2 = next(s for s in parent.spans if s.span_id == cid2)
        assert container2.start == 3.0 and container2.end == 6.0
        merged = [s for s in parent.spans if s.track.startswith("rank ")]
        assert len(merged) == 4
        assert all(s.args["cell"] in (0, 1) for s in merged)
        assert {s.parent_id for s in merged} == {cid, cid2}

    def test_merge_accumulates_metrics_and_dropped(self):
        telemetry = self._captured_cell().tagged(SIMULATED)
        telemetry = CellTelemetry(
            run_id=telemetry.run_id, spans=telemetry.spans,
            metrics=telemetry.metrics, dropped=5,
        )
        parent = ObsContext("parent", {})
        merge_telemetry(parent, telemetry)
        merge_telemetry(parent, telemetry)
        assert parent.metrics.get("collective.calls.x.y").value == 4
        assert parent.spans.dropped == 10

    def test_merge_without_span_recording_merges_metrics_only(self):
        telemetry = self._captured_cell()
        parent = ObsContext("parent", {}, record_spans=False)
        assert merge_telemetry(parent, telemetry) is None
        assert parent.metrics.get("collective.calls.x.y").value == 2

    def test_wall_spans_never_merge(self):
        with obs.session(run_id="inner") as cctx:
            with cctx.wall_span("bench.cell", track="bench"):
                cctx.record_rank_span("x/y", 0, 0.0, 1.0)
            telemetry = capture_telemetry(cctx)
        assert any(s["domain"] == "wall" for s in telemetry.spans)
        parent = ObsContext("parent", {})
        merge_telemetry(parent, telemetry)
        assert all(s.domain == "virtual" for s in parent.spans)


class TestReplay:
    def _twin(self):
        with obs.session(run_id="twin", record_spans=True) as cctx:
            with cctx.wall_span("bench.cell", track="bench",
                                args={"collective": "x", "algorithm": "y"}):
                with cctx.wall_span("sim.run", track="sim"):
                    cctx.record_rank_span("x/y", 0, 0.0, 2.0)
                    cctx.record_rank_span("skew_wait", 1, 0.0, 1.0)
            cctx.metrics.counter("collective.calls.x.y").inc(2)
            cctx.metrics.counter("other").inc()
            return capture_telemetry(cctx)

    def test_replay_renames_the_twin_and_keeps_span_links(self):
        twin = self._twin()
        ctx = ObsContext("cell", {})
        replay_telemetry(ctx, twin, "x", "y", "z")
        replayed = capture_telemetry(ctx)
        assert [s["name"] for s in replayed.spans] == \
            ["x/z", "skew_wait", "sim.run", "bench.cell"]
        assert replayed.spans[-1]["args"] == {"collective": "x",
                                              "algorithm": "z"}

        def shape(spans):
            return [(s["span_id"], s["parent_id"], s["track"], s["domain"],
                     s["start"], s["end"]) for s in spans]

        assert shape(replayed.spans) == shape(twin.spans)
        assert ctx.spans.tracks == ["rank 0", "rank 1", "sim", "bench"]
        assert replayed.metrics == {
            "collective.calls.x.z": {"kind": "counter", "value": 2},
            "other": {"kind": "counter", "value": 1},
        }

    def test_replay_into_a_used_recorder_shifts_ids(self):
        ctx = ObsContext("cell", {})
        ctx.record_rank_span("earlier", 0, 0.0, 1.0)
        replay_telemetry(ctx, self._twin(), "x", "y", "z")
        spans = {s.name: s for s in ctx.spans}
        assert len({s.span_id for s in ctx.spans}) == 5
        assert spans["sim.run"].parent_id == spans["bench.cell"].span_id

    def test_replay_without_span_recording_copies_metrics_only(self):
        ctx = ObsContext("cell", {}, record_spans=False)
        replay_telemetry(ctx, self._twin(), "x", "y", "z")
        assert len(ctx.spans) == 0
        assert ctx.metrics.get("collective.calls.x.z").value == 2


class TestScheduleReuse:
    """At 1 KiB the segmented ring runs the ring's schedule, so each sweep
    group simulates it once; the reused cell replays the ring's payload."""

    ALGORITHMS = ["ring", "recursive_doubling", "segmented_ring"]

    def _sweep(self, jobs):
        bench = MicroBenchmark(
            platform=Platform(name="reuse", nodes=2, cores_per_node=2),
            nrep=2, seed=11,
        )
        with obs.session(run_id="reuse-test", record_spans=True) as ctx:
            sweep = sweep_shared_skew(bench, "allreduce", self.ALGORITHMS,
                                      1024, ["no_delay", "ascending"],
                                      executor=CellExecutor(jobs=jobs))
        spans = [s.to_dict() for s in ctx.spans if s.domain == "virtual"]
        engine = {k: v for k, v in ctx.engine_stats.to_dict().items()
                  if k not in ("wall_seconds", "events_per_sec")}
        return (json.dumps(sweep.to_dict()), spans,
                _deterministic_metrics(ctx), engine)

    def test_reuse_matches_simulating_every_cell_at_any_jobs(
            self, monkeypatch):
        import repro.bench.executor as executor_mod

        calls = []
        original = MicroBenchmark.run

        def counting(bench, collective, algorithm, *args, **kwargs):
            calls.append(algorithm)
            return original(bench, collective, algorithm, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(MicroBenchmark, "run", counting)
            serial = self._sweep(jobs=1)
            assert calls == ["ring", "recursive_doubling"] * 2
            executor_mod.REUSE.clear()
            m.setattr(executor_mod.CellSpec, "schedule",
                      lambda spec: spec.algorithm)
            every_cell = self._sweep(jobs=1)
            assert len(calls) == 4 + 6
        executor_mod.REUSE.clear()
        parallel = self._sweep(jobs=2)
        assert serial == every_cell == parallel
        cells = [s for s in serial[1] if s["track"] == CELLS_TRACK]
        assert [s["name"] for s in cells] == \
            [f"allreduce/{a}" for a in self.ALGORITHMS] * 2
        assert {s["args"]["provenance"] for s in cells} == {SIMULATED}


class TestSerialParallelParity:
    def test_jobs2_trace_is_byte_identical_to_serial(self):
        ctx1, spans1 = _run(jobs=1)
        ctx2, spans2 = _run(jobs=2)
        assert spans1 == spans2
        assert _deterministic_metrics(ctx1) == _deterministic_metrics(ctx2)
        # Worker engine runs merged back into the parent aggregate.
        assert ctx2.engine_stats is not None
        assert ctx2.engine_stats.runs == ctx1.engine_stats.runs > 0
        # The parallel trace really contains worker-originated rank tracks.
        assert any(s["track"].startswith("rank ") for s in spans2)

    def test_analysis_payloads_identical(self):
        ctx1, _ = _run(jobs=1)
        ctx2, _ = _run(jobs=2)
        p1 = TraceAnalysis.from_context(ctx1).analysis_payload()
        p2 = TraceAnalysis.from_context(ctx2).analysis_payload()
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_provenance_identical_inline_vs_worker(self):
        _, spans1 = _run(jobs=1)
        _, spans2 = _run(jobs=2)
        prov1 = [s["args"]["provenance"] for s in spans1
                 if s["track"] == CELLS_TRACK]
        prov2 = [s["args"]["provenance"] for s in spans2
                 if s["track"] == CELLS_TRACK]
        assert prov1 == prov2 == [SIMULATED, SIMULATED]


class TestCacheReplay:
    def test_warm_cache_replays_stored_telemetry(self, tmp_path):
        cache = tmp_path / "cache"
        ctx_cold, spans_cold = _run(jobs=1, cache_dir=cache)
        ctx_warm, spans_warm = _run(jobs=1, cache_dir=cache)
        # Same spans except the provenance tag on the cell containers.
        prov = [s["args"]["provenance"] for s in spans_warm
                if s["track"] == CELLS_TRACK]
        assert prov == [CACHE_REPLAY, CACHE_REPLAY]

        def untagged(spans):
            out = []
            for s in spans:
                s = dict(s)
                if s["track"] == CELLS_TRACK:
                    s["args"] = {k: v for k, v in s["args"].items()
                                 if k != "provenance"}
                out.append(s)
            return out

        assert untagged(spans_cold) == untagged(spans_warm)
        # The derived analysis agrees exactly, except for the counters that
        # exist precisely to tell hits apart from fresh simulation.
        p_cold = TraceAnalysis.from_context(ctx_cold).analysis_payload()
        p_warm = TraceAnalysis.from_context(ctx_warm).analysis_payload()
        for payload in (p_cold, p_warm):
            for name in ("executor.cache_hit_total", "executor.simulated"):
                payload["metrics"].pop(name, None)
        assert json.dumps(p_cold, sort_keys=True) == \
            json.dumps(p_warm, sort_keys=True)

    def test_cache_hit_counter_separates_hits_from_simulated(self, tmp_path):
        cache = tmp_path / "cache"
        ctx_cold, _ = _run(jobs=1, cache_dir=cache)
        assert ctx_cold.metrics.get("executor.cache_hit_total").value == 0
        assert ctx_cold.metrics.get("executor.simulated").value == 2
        assert ctx_cold.metrics.get("executor.cell_seconds").count == 2
        ctx_warm, _ = _run(jobs=1, cache_dir=cache)
        assert ctx_warm.metrics.get("executor.cache_hit_total").value == 2
        assert ctx_warm.metrics.get("executor.simulated").value == 0
        # Satellite contract: the histogram covers simulated cells only —
        # a fully-cached run observes nothing.
        assert ctx_warm.metrics.get("executor.cell_seconds") is None

    def test_records_without_telemetry_still_hit(self, tmp_path):
        # A cache written without a session (old records) has telemetry
        # None; warm runs with a session still hit, just without replay.
        cache = tmp_path / "cache"
        executor = CellExecutor(jobs=1, cache_dir=cache)
        executor.run_cells(_specs())
        with obs.session(record_spans=True) as ctx:
            warm = CellExecutor(jobs=1, cache_dir=cache)
            warm.run_cells(_specs())
        assert warm.stats.hits == 2
        assert ctx.metrics.get("executor.cache_hit_total").value == 2
        assert not any(s.track == CELLS_TRACK for s in ctx.spans)


class TestUninstrumentedPath:
    def test_no_session_means_no_telemetry(self, tmp_path):
        cache = tmp_path / "cache"
        executor = CellExecutor(jobs=1, cache_dir=cache)
        results = executor.run_cells(_specs())
        assert len(results) == 2
        record = executor.cache.get_record(_specs()[0])
        assert record is not None and record[1] is None

    def test_results_identical_with_and_without_session(self):
        plain = CellExecutor(jobs=1).run_cells(_specs())
        with obs.session(record_spans=True, record_messages=True):
            traced = CellExecutor(jobs=1).run_cells(_specs())
        assert [r.to_dict() for r in plain] == [r.to_dict() for r in traced]
