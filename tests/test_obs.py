"""Tests for the repro.obs metrics registry, span recorder, and context."""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.context import NULL_CONTEXT, current, session
from repro.obs.metrics import (
    MAX_EXP,
    MIN_EXP,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    MetricsRegistry,
    bucket_exp,
    metric_key,
    parse_metric_key,
)
from repro.obs.runid import RUN_ID_LEN, make_run_id
from repro.obs.spans import WALL, SpanRecorder, rank_track


class TestBucketExp:
    def test_powers_of_two_land_exactly(self):
        for k in range(-20, 20):
            assert bucket_exp(2.0 ** k) == k

    def test_just_below_boundary_lands_one_lower(self):
        for k in range(-10, 10):
            v = 2.0 ** k
            assert bucket_exp(v * (1 - 1e-12)) == k - 1

    def test_clamped_to_range(self):
        assert bucket_exp(1e-300) == MIN_EXP
        assert bucket_exp(1e300) == MAX_EXP


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.counter("c").inc(3)
        m.gauge("g").set(2.0)
        m.gauge("g").set(1.0)
        m.histogram("h").observe(0.25)
        m.histogram("h").observe(0.0)
        snap = m.snapshot()
        assert snap["c"] == {"kind": "counter", "value": 4}
        assert snap["g"]["value"] == 1.0 and snap["g"]["peak"] == 2.0
        assert snap["h"]["count"] == 2
        assert snap["h"]["zeros"] == 1
        assert snap["h"]["buckets"] == {"2^-2": 1}

    def test_same_name_same_instrument(self):
        m = MetricsRegistry()
        assert m.counter("x") is m.counter("x")

    def test_kind_mismatch_raises(self):
        m = MetricsRegistry()
        m.counter("x")
        with pytest.raises(ValueError):
            m.gauge("x")

    def test_snapshot_sorted_by_name(self):
        m = MetricsRegistry()
        m.counter("b")
        m.counter("a")
        assert list(m.snapshot()) == ["a", "b"]

    def test_get_missing_is_none(self):
        assert MetricsRegistry().get("nope") is None


class TestLabeledMetrics:
    def test_distinct_label_sets_are_distinct_instruments(self):
        m = MetricsRegistry()
        m.counter("q", {"coll": "alltoall"}).inc()
        m.counter("q", {"coll": "bcast"}).inc(2)
        m.counter("q").inc(10)
        snap = m.snapshot()
        assert snap['q{coll="alltoall"}']["value"] == 1
        assert snap['q{coll="bcast"}']["value"] == 2
        assert snap["q"]["value"] == 10

    def test_label_order_is_canonical(self):
        m = MetricsRegistry()
        a = m.counter("q", {"b": "2", "a": "1"})
        b = m.counter("q", {"a": "1", "b": "2"})
        assert a is b
        assert a.name == 'q{a="1",b="2"}'

    def test_key_round_trip_with_escaping(self):
        nasty = 'sl\\ash "quote"\nnewline'
        key = metric_key("m", {"v": nasty})
        assert parse_metric_key(key) == ("m", {"v": nasty})

    def test_bare_name_parses_to_empty_labels(self):
        assert parse_metric_key("plain.name") == ("plain.name", {})

    def test_malformed_key_raises(self):
        with pytest.raises(ValueError):
            parse_metric_key("m{unterminated")

    def test_invalid_label_name_raises(self):
        with pytest.raises(ValueError):
            metric_key("m", {"bad-name": "v"})

    def test_kind_mismatch_with_labels_raises(self):
        m = MetricsRegistry()
        m.counter("x", {"l": "1"})
        with pytest.raises(ValueError):
            m.histogram("x", {"l": "1"})

    def test_get_with_labels(self):
        m = MetricsRegistry()
        c = m.counter("x", {"l": "1"})
        assert m.get("x", {"l": "1"}) is c
        assert m.get("x") is None

    def test_merge_snapshot_preserves_labeled_keys(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("q", {"coll": "alltoall"}).inc(2)
        b.counter("q", {"coll": "alltoall"}).inc(3)
        b.histogram("h", {"coll": "bcast"}).observe(0.5)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap['q{coll="alltoall"}']["value"] == 5
        assert snap['h{coll="bcast"}']["count"] == 1

    def test_null_registry_accepts_labels(self):
        assert NULL_METRICS.counter("a", {"l": "1"}) is NULL_COUNTER
        assert NULL_METRICS.histogram("a", {"l": "1"}) is NULL_HISTOGRAM
        assert NULL_METRICS.get("a", {"l": "1"}) is None
        assert NULL_HISTOGRAM.quantile(0.5) is None


class TestNullMetrics:
    def test_stubs_are_shared_singletons(self):
        # The disabled path must never allocate: every request returns the
        # same module-level stub object.
        assert NULL_METRICS.counter("a") is NULL_COUNTER
        assert NULL_METRICS.counter("b") is NULL_COUNTER
        assert NULL_METRICS.gauge("a") is NULL_GAUGE
        assert NULL_METRICS.histogram("a") is NULL_HISTOGRAM

    def test_stub_operations_record_nothing(self):
        NULL_COUNTER.inc(5)
        NULL_GAUGE.set(3.0)
        NULL_HISTOGRAM.observe(1.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_HISTOGRAM.count == 0
        assert len(NULL_METRICS) == 0
        assert NULL_METRICS.snapshot() == {}


class TestSpanRecorder:
    def test_record_and_ids(self):
        rec = SpanRecorder()
        a = rec.record("x", rank_track(0), 0.0, 1.0)
        b = rec.record("y", rank_track(0), 1.0, 2.0, parent=a)
        assert b > a
        spans = list(rec)
        assert spans[1].parent_id == a
        assert spans[0].duration == 1.0

    def test_ring_overflow_drops_and_counts(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.record("s", "t", float(i), float(i + 1))
        assert len(rec) == 3
        assert rec.dropped == 2
        # Oldest spans were evicted.
        assert [s.start for s in rec] == [2.0, 3.0, 4.0]

    def test_wall_span_nests_automatically(self):
        rec = SpanRecorder()
        with rec.wall_span("outer") as outer_id:
            with rec.wall_span("inner"):
                pass
        spans = {s.name: s for s in rec}
        assert spans["inner"].parent_id == outer_id
        assert spans["outer"].parent_id is None
        assert spans["outer"].domain == WALL
        assert spans["outer"].start <= spans["inner"].start

    def test_by_track_sorted_by_start(self):
        rec = SpanRecorder()
        rec.record("b", "t", 2.0, 3.0)
        rec.record("a", "t", 0.0, 1.0)
        assert [s.name for s in rec.by_track()["t"]] == ["a", "b"]


class TestRunId:
    def test_deterministic(self):
        assert make_run_id({"a": 1}) == make_run_id({"a": 1})
        assert make_run_id({"a": 1}) != make_run_id({"a": 2})

    def test_key_order_irrelevant(self):
        assert make_run_id({"a": 1, "b": 2}) == make_run_id({"b": 2, "a": 1})

    def test_prefix_and_length(self):
        rid = make_run_id({"x": 1}, prefix="run")
        assert rid.startswith("run-")
        assert len(rid) == len("run-") + RUN_ID_LEN


class TestContext:
    def test_no_session_means_null_context(self):
        ctx = current()
        assert ctx is NULL_CONTEXT
        assert not ctx.enabled
        assert ctx.record_vspan("x", "t", 0.0, 1.0) is None
        with ctx.wall_span("x") as sid:
            assert sid is None

    def test_session_installs_and_restores(self):
        with session(meta={"t": 1}) as octx:
            assert current() is octx
            assert octx.enabled
        assert current() is NULL_CONTEXT

    def test_sessions_nest(self):
        with session(run_id="outer") as outer:
            with session(run_id="inner") as inner:
                assert current() is inner
            assert current() is outer

    def test_session_run_id_deterministic_from_meta(self):
        with session(meta={"command": "x"}) as a:
            pass
        with session(meta={"command": "x"}) as b:
            pass
        assert a.run_id == b.run_id
        assert a.run_id.startswith("run-")

    def test_record_spans_off_disables_spans_only(self):
        with session(record_spans=False) as octx:
            assert octx.record_rank_span("x", 0, 0.0, 1.0) is None
            with octx.wall_span("w") as sid:
                assert sid is None
            assert len(octx.spans) == 0
            octx.metrics.counter("still.counted").inc()
            assert octx.metrics.get("still.counted").value == 1

    def test_rank_span_uses_canonical_track(self):
        with session() as octx:
            octx.record_rank_span("x", 7, 0.0, 1.0)
            assert next(iter(octx.spans)).track == rank_track(7)


class TestEngineStatsAbsorption:
    def test_session_aggregates_engine_runs(self):
        from repro.sim.engine import EngineStats
        from repro.obs.context import absorb_engine_stats

        with session() as octx:
            s = EngineStats()
            s.runs = 1
            s.events_start = 10
            absorb_engine_stats(s)
            absorb_engine_stats(s)
            assert octx.engine_stats.runs == 2
            assert octx.engine_stats.events_start == 20
        # Outside the session nothing accumulates (and nothing crashes).
        absorb_engine_stats(s)


class TestPackageSurface:
    def test_public_reexports(self):
        for name in ("session", "current", "export_perfetto", "export_jsonl",
                     "read_jsonl", "make_run_id", "MetricsRegistry",
                     "SpanRecorder", "render_timeline"):
            if name == "render_timeline":
                from repro.reporting import render_timeline  # noqa: F401
            else:
                assert hasattr(obs, name), name
