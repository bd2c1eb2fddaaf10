"""Tests for the repro.lint guideline engine: findings, report policies,
store persistence (v3 migration, suspect flags), and service exclusion."""

from __future__ import annotations

import json
import math
import sqlite3

import numpy as np
import pytest

from repro.errors import ConfigurationError, StoreError
from repro.bench.metrics import CollectiveTiming
from repro.bench.results import BenchResult
from repro.lint import (
    COMPOSITION_GUIDELINES,
    DEFAULT_GUIDELINES,
    LintFinding,
    LintReport,
    lint_records,
    lint_store,
    record_from_payload,
    record_from_result,
    severity_rank,
)
from repro.service import SelectionService
from repro.store import PATTERN_BEST, TuningStore, content_hash
from repro.store.schema import LATEST_VERSION, MIGRATIONS


def _result(coll="alltoall", algo="bruck", delay=1.0, msg=1024.0, ranks=4,
            pattern="no_delay", machine="testbox") -> BenchResult:
    timing = CollectiveTiming(np.zeros(2), np.full(2, delay))
    return BenchResult(coll, algo, msg, ranks, pattern, 0.0, [timing],
                       machine=machine)


def _records(*results: BenchResult):
    return [record_from_result(r) for r in results]


def _findings(report: LintReport, guideline: str) -> list[LintFinding]:
    return [f for f in report.findings if f.guideline == guideline]


class TestCompositionGuidelines:
    def test_clean_composition_passes(self):
        report = lint_records(_records(
            _result("reduce", "binomial", 1.0),
            _result("bcast", "binomial", 1.0),
            _result("allreduce", "ring", 1.8),
        ))
        assert report.findings == []
        assert report.cells_checked == 3
        assert "allreduce_le_reduce_bcast" in report.guidelines

    def test_moderate_violation_is_a_warning(self):
        report = lint_records(_records(
            _result("reduce", "binomial", 1.0),
            _result("bcast", "binomial", 1.0),
            _result("allreduce", "ring", 3.0),
        ))
        (finding,) = report.findings
        assert finding.guideline == "allreduce_le_reduce_bcast"
        assert finding.severity == "warning"
        assert finding.margin == pytest.approx(0.5)

    def test_gross_violation_is_an_error_with_hash_and_witnesses(self):
        bad = _result("allreduce", "ring", 100.0)
        reduce_cell = _result("reduce", "binomial", 1.0)
        bcast_cell = _result("bcast", "binomial", 1.0)
        report = lint_records(_records(reduce_cell, bcast_cell, bad))
        (finding,) = report.findings
        assert finding.severity == "error"
        assert finding.margin == pytest.approx(49.0)
        assert finding.content_hash == content_hash(bad.to_dict())
        assert set(finding.witnesses) == {
            content_hash(reduce_cell.to_dict()),
            content_hash(bcast_cell.to_dict()),
        }

    def test_best_part_time_sets_the_bound(self):
        """Multiple part algorithms: the *fastest* of each sums the bound."""
        report = lint_records(_records(
            _result("reduce", "binomial", 1.0),
            _result("reduce", "rabenseifner", 5.0),
            _result("bcast", "binomial", 1.0),
            _result("allreduce", "ring", 2.5),
        ))
        (finding,) = report.findings  # bound is 2.0, not 6.0
        assert finding.bound == pytest.approx(2.0)

    def test_cells_only_join_at_the_same_coordinate(self):
        report = lint_records(_records(
            _result("reduce", "binomial", 1.0, msg=64.0),
            _result("bcast", "binomial", 1.0, msg=64.0),
            _result("allreduce", "ring", 100.0, msg=2048.0),
        ))
        assert report.findings == []  # no parts at 2048 B -> vacuous

    @pytest.mark.parametrize("guideline", COMPOSITION_GUIDELINES,
                             ids=lambda g: g.name)
    def test_every_declared_relation_fires(self, guideline):
        cells = [_result(part, "x", 1.0) for part in guideline.parts]
        cells.append(_result(guideline.composite, "y", 50.0))
        report = lint_records(_records(*cells))
        (finding,) = _findings(report, guideline.name)
        assert finding.severity == "error"
        assert finding.collective == guideline.composite


class TestMonotonyGuidelines:
    def test_increasing_runtimes_pass(self):
        report = lint_records(_records(
            _result(delay=1.0, msg=1024.0),
            _result(delay=2.0, msg=65536.0),
        ))
        assert report.findings == []

    def test_msg_bytes_inversion_flags_the_faster_larger_cell(self):
        small = _result(delay=1.0, msg=1024.0)
        large = _result(delay=0.01, msg=65536.0)
        report = lint_records(_records(small, large))
        (finding,) = _findings(report, "monotone_msg_bytes")
        assert finding.severity == "error"  # margin 0.99 > 0.9
        assert finding.msg_bytes == 65536.0
        assert finding.content_hash == content_hash(large.to_dict())
        assert finding.witnesses == (content_hash(small.to_dict()),)

    def test_mild_inversion_is_a_warning(self):
        report = lint_records(_records(
            _result(delay=1.0, msg=1024.0),
            _result(delay=0.5, msg=65536.0),
        ))
        (finding,) = _findings(report, "monotone_msg_bytes")
        assert finding.severity == "warning"
        assert finding.margin == pytest.approx(0.5)

    def test_noise_within_tolerance_passes(self):
        report = lint_records(_records(
            _result(delay=1.0, msg=1024.0),
            _result(delay=0.9, msg=65536.0),  # -10% is within tolerance
        ))
        assert report.findings == []

    def test_comm_size_inversion_flags(self):
        report = lint_records(_records(
            _result(delay=1.0, ranks=4),
            _result(delay=0.01, ranks=16),
        ))
        (finding,) = _findings(report, "monotone_comm_size")
        assert finding.severity == "error"
        assert finding.comm_size == 16

    def test_different_algorithms_do_not_join(self):
        report = lint_records(_records(
            _result("alltoall", "bruck", 1.0, msg=1024.0),
            _result("alltoall", "pairwise", 0.01, msg=65536.0),
        ))
        assert report.findings == []


class TestSanityAndFloor:
    def test_nan_timings_flag_as_error(self):
        report = lint_records(_records(_result(delay=float("nan"))))
        (finding,) = report.findings
        assert finding.guideline == "finite_non_negative"
        assert finding.severity == "error"
        assert finding.content_hash  # legacy hash still computed

    def test_negative_delay_flags(self):
        payload = _result().to_dict()
        payload["last_delays"] = [-1.0, -1.0]
        payload["total_delays"] = [-1.0, -1.0]
        report = lint_records([record_from_payload(payload)])
        (finding,) = _findings(report, "finite_non_negative")
        assert finding.severity == "error"

    def test_impossibly_fast_cell_breaks_the_floor(self):
        # hydra's fastest link is 100 Gbit/s; 1 MiB cannot move in 1 ps.
        report = lint_records(_records(
            _result(delay=1e-12, msg=float(1 << 20), machine="hydra")))
        (finding,) = _findings(report, "bandwidth_floor")
        assert finding.severity == "error"
        assert 0.0 < finding.margin <= 1.0

    def test_realistic_cell_clears_the_floor(self):
        report = lint_records(_records(
            _result(delay=1.0, msg=float(1 << 20), machine="hydra")))
        assert report.findings == []

    def test_unknown_machine_skips_the_floor(self):
        report = lint_records(_records(
            _result(delay=1e-12, msg=float(1 << 20), machine="testbox")))
        assert _findings(report, "bandwidth_floor") == []


class TestLintReport:
    def _report(self):
        return lint_records(_records(
            _result("reduce", "binomial", 1.0),
            _result("bcast", "binomial", 1.0),
            _result("allreduce", "ring", 100.0),   # error
            _result("allreduce", "rd", 2.5),       # warning
        ))

    def test_counts_and_max_severity(self):
        report = self._report()
        assert report.counts() == {"info": 0, "warning": 1, "error": 1}
        assert report.max_severity() == "error"

    def test_fail_on_policies(self):
        report = self._report()
        assert report.fails("error") and report.fails("warning")
        assert not report.fails("never")
        assert not LintReport().fails("error")
        assert LintReport().max_severity() is None

    def test_unknown_severity_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown severity"):
            severity_rank("catastrophic")
        with pytest.raises(ConfigurationError, match="unknown severity"):
            self._report().fails("sometimes")

    def test_json_roundtrip_is_strict_json(self):
        report = self._report()
        blob = json.dumps(report.to_dict(), allow_nan=False)  # must not raise
        back = LintReport.from_dict(json.loads(blob))
        assert back.cells_checked == report.cells_checked
        assert {f.content_hash for f in back.findings} == \
            {f.content_hash for f in report.findings}
        assert back.max_severity() == "error"

    def test_render_text_names_the_cell(self):
        report = self._report()
        text = report.render_text()
        assert "allreduce/ring @ p=4, 1024 B" in text
        assert "[error] allreduce_le_reduce_bcast" in text
        clean = LintReport(cells_checked=5, guidelines=("a",)).render_text()
        assert clean.endswith("clean")


class TestStorePersistence:
    def _violating_store(self, path) -> tuple[TuningStore, BenchResult]:
        store = TuningStore(path)
        bad = _result("allreduce", "ring", 100.0)
        for cell in (_result("reduce", "binomial", 1.0),
                     _result("bcast", "binomial", 1.0), bad):
            store.ingest_result(cell)
        store.add_rule("s", "allreduce", 4, 1024.0, "ring")
        return store, bad

    def test_lint_store_reports_seeded_violation(self, tmp_path):
        store, bad = self._violating_store(tmp_path / "t.db")
        with store:
            report = lint_store(store)
        (finding,) = report.findings
        assert finding.guideline == "allreduce_le_reduce_bcast"
        assert finding.content_hash == content_hash(bad.to_dict())
        assert finding.margin == pytest.approx(49.0)

    def test_apply_lint_marks_and_clears(self, tmp_path):
        store, bad = self._violating_store(tmp_path / "t.db")
        with store:
            report = lint_store(store)
            applied = store.apply_lint(report)
            assert applied["cells_marked"] == 1
            assert store.suspect_hashes() == {content_hash(bad.to_dict())}
            # Re-applying is idempotent on both flags and finding rows.
            again = store.apply_lint(lint_store(store))
            assert again["cells_marked"] == 0
            assert store.counts()["lint_findings"] == 1
            # A clean report clears previously-marked cells.
            cleared = store.apply_lint(LintReport())
            assert cleared["cells_cleared"] == 1
            assert store.suspect_hashes() == set()

    def test_persisted_findings_reload(self, tmp_path):
        path = tmp_path / "t.db"
        store, bad = self._violating_store(path)
        with store:
            store.apply_lint(lint_store(store))
        with TuningStore(path) as back:
            (finding,) = back.load_lint_findings()
            assert finding.guideline == "allreduce_le_reduce_bcast"
            assert finding.content_hash == content_hash(bad.to_dict())
            assert finding.margin == pytest.approx(49.0)
            assert back.suspect_hashes() == {content_hash(bad.to_dict())}

    def test_v2_file_migrates_and_marks_persist(self, tmp_path):
        """--mark semantics survive a v2 -> v3 migration of an old file."""
        path = tmp_path / "v2.db"
        bad = _result("allreduce", "ring", 100.0)
        conn = sqlite3.connect(path)
        for _version, script in MIGRATIONS[:2]:
            conn.executescript(script)
        conn.execute("PRAGMA user_version = 2")
        for cell in (_result("reduce", "binomial", 1.0),
                     _result("bcast", "binomial", 1.0), bad):
            payload = cell.to_dict()
            conn.execute(
                "INSERT INTO bench_results (content_hash, collective,"
                " algorithm, msg_bytes, num_ranks, pattern, payload)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (content_hash(payload), cell.collective, cell.algorithm,
                 float(cell.msg_bytes), int(cell.num_ranks),
                 cell.pattern_name, json.dumps(payload)))
        conn.execute(
            "INSERT INTO rules (strategy, collective, comm_size, msg_bytes,"
            " pattern, algorithm) VALUES ('s', 'allreduce', 4, 1024.0, '',"
            " 'ring')")
        conn.commit()
        conn.close()
        with TuningStore(path) as store:
            assert store.schema_version() == LATEST_VERSION
            store.apply_lint(lint_store(store))
            assert store.suspect_hashes() == {content_hash(bad.to_dict())}
        with TuningStore(path) as back:  # flags survive reopen
            assert back.suspect_hashes() == {content_hash(bad.to_dict())}
            with pytest.raises(StoreError, match="suspect"):
                back.load_table("s")

    def test_excluded_table_raises_but_raw_load_works(self, tmp_path):
        store, _bad = self._violating_store(tmp_path / "t.db")
        with store:
            store.apply_lint(lint_store(store))
            with pytest.raises(StoreError, match="suspect"):
                store.load_table("s")
            raw = store.load_table("s", exclude_suspect=False)
            assert raw.lookup("allreduce", 4, 1024) == "ring"

    def test_clean_corroborating_cell_keeps_the_rule(self, tmp_path):
        store, _bad = self._violating_store(tmp_path / "t.db")
        with store:
            # Same (collective, algorithm, ranks, msg) coordinate, different
            # pattern, sane timing: one clean measurement saves the rule.
            store.ingest_result(_result("allreduce", "ring", 2.0,
                                        pattern="ascending"))
            store.apply_lint(lint_store(store))
            table = store.load_table("s")
            assert table.lookup("allreduce", 4, 1024) == "ring"

    def test_pattern_rules_excluded_per_pattern(self, tmp_path):
        store, _bad = self._violating_store(tmp_path / "t.db")
        with store:
            store.add_rule(PATTERN_BEST, "allreduce", 4, 1024.0, "ring",
                           pattern="no_delay")
            store.add_rule(PATTERN_BEST, "reduce", 4, 1024.0, "binomial",
                           pattern="no_delay")
            store.apply_lint(lint_store(store))
            tables = store.load_pattern_tables()
            with pytest.raises(ConfigurationError):
                tables["no_delay"].lookup("allreduce", 4, 1024)
            assert tables["no_delay"].lookup("reduce", 4, 1024) == "binomial"


class TestServiceExclusion:
    def test_suspect_backed_rule_falls_back_source_tagged(self, tmp_path):
        path = tmp_path / "t.db"
        bad = _result("allreduce", "ring", 100.0)
        with TuningStore(path) as store:
            for cell in (_result("reduce", "binomial", 1.0),
                         _result("bcast", "binomial", 1.0), bad):
                store.ingest_result(cell)
            store.add_rule("s", "allreduce", 4, 1024.0, "ring")
            store.add_rule("s", "reduce", 4, 1024.0, "binomial")
            store.apply_lint(lint_store(store))
        with SelectionService(path, watch_store=False) as service:
            reply = service.query("allreduce", 4, 1024.0)
            assert reply["source"] == "fallback"
            assert reply["algorithm"] != "ring"
            clean = service.query("reduce", 4, 1024.0)
            assert clean["source"] == "store"
            assert clean["algorithm"] == "binomial"


class TestDefaultCatalogue:
    def test_default_guidelines_cover_all_families(self):
        names = {g.name for g in DEFAULT_GUIDELINES}
        assert "finite_non_negative" in names
        assert "bandwidth_floor" in names
        assert "monotone_msg_bytes" in names and "monotone_comm_size" in names
        assert {g.name for g in COMPOSITION_GUIDELINES} <= names

    def test_unknown_guideline_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown guideline"):
            lint_records([], guidelines=(object(),))
