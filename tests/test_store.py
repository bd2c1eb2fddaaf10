"""Tests for the persistent tuning store: schema migration, idempotent
content-addressed ingest, round-trips, and the campaign as its one writer."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.errors import ConfigurationError, StoreError
from repro.bench.metrics import CollectiveTiming
from repro.bench.results import BenchResult, SweepResult
from repro.selection.table import SelectionTable
from repro.store import (
    PATTERN_BEST,
    TuningStore,
    canonical_json,
    content_hash,
    open_store,
)
from repro.store.schema import LATEST_VERSION, MIGRATIONS


def _result(collective="alltoall", algo="bruck", msg_bytes=1024.0,
            num_ranks=4, pattern="no_delay", delay=1.0) -> BenchResult:
    timing = CollectiveTiming(np.zeros(2), np.full(2, delay))
    return BenchResult(collective, algo, msg_bytes, num_ranks, pattern,
                       0.0, [timing])


def _sweep(collective="alltoall", msg_bytes=1024.0, num_ranks=4) -> SweepResult:
    sweep = SweepResult(collective, msg_bytes, num_ranks, machine="testbox")
    grid = {
        "no_delay": {"bruck": 1.0, "pairwise": 2.0},
        "ascending": {"bruck": 5.0, "pairwise": 2.5},
    }
    for pattern, row in grid.items():
        sweep.skew_by_pattern[pattern] = 0.0 if pattern == "no_delay" else 1e-3
        for algo, delay in row.items():
            sweep.add(_result(collective, algo, msg_bytes, num_ranks,
                              pattern, delay))
    return sweep


class TestSchemaMigration:
    def test_new_store_is_at_latest_version(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            assert store.schema_version() == LATEST_VERSION

    def test_v0_empty_file_migrates_to_latest(self, tmp_path):
        path = tmp_path / "empty.db"
        path.touch()  # a v0 file: zero bytes, PRAGMA user_version == 0
        with TuningStore(path) as store:
            assert store.schema_version() == LATEST_VERSION
            assert store.counts() == {"provenance": 0, "sweeps": 0,
                                      "bench_results": 0, "rules": 0,
                                      "lint_findings": 0}

    def test_v1_file_migrates_and_keeps_data(self, tmp_path):
        path = tmp_path / "v1.db"
        conn = sqlite3.connect(path)
        conn.executescript(MIGRATIONS[0][1])
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT INTO rules (strategy, collective, comm_size, msg_bytes,"
            " pattern, algorithm) VALUES ('s', 'alltoall', 8, 64.0, '', 'bruck')"
        )
        conn.commit()
        conn.close()
        with TuningStore(path) as store:
            assert store.schema_version() == LATEST_VERSION
            assert store.load_table("s").lookup("alltoall", 8, 64) == "bruck"

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {LATEST_VERSION + 1}")
        conn.commit()
        conn.close()
        with pytest.raises(StoreError, match="upgrade"):
            TuningStore(path)

    def test_non_database_file_is_refused(self, tmp_path):
        path = tmp_path / "garbage.db"
        path.write_text("this is not sqlite" * 100)
        with pytest.raises(StoreError, match="not a tuning store"):
            TuningStore(path)

    def test_wal_journal_mode(self, tmp_path):
        store = TuningStore(tmp_path / "t.db")
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        store.close()
        assert mode == "wal"


class TestCanonicalJson:
    """NaN/Infinity must never reach a content-addressed row (regression:
    json.dumps defaults to allow_nan=True)."""

    def test_non_finite_float_names_the_key_path(self):
        with pytest.raises(ConfigurationError, match=r"\$\.a\.b\[1\]"):
            canonical_json({"a": {"b": [1.0, float("nan")]}})
        with pytest.raises(ConfigurationError, match="non-finite"):
            canonical_json({"x": float("inf")})

    def test_content_hash_rejects_nan(self):
        with pytest.raises(ConfigurationError):
            content_hash({"delay": float("nan")})

    def test_finite_payloads_hash_as_before(self):
        assert canonical_json({"b": 1, "a": [2.0]}) == '{"a":[2.0],"b":1}'

    def test_nan_result_ingest_is_rejected(self, tmp_path):
        timing = CollectiveTiming(np.zeros(2), np.full(2, np.nan))
        bad = BenchResult("alltoall", "bruck", 1024.0, 4, "no_delay",
                          0.0, [timing])
        with TuningStore(tmp_path / "t.db") as store:
            with pytest.raises(ConfigurationError, match="non-finite"):
                store.ingest_result(bad)
            assert store.counts()["bench_results"] == 0


class TestIngestIdempotency:
    def test_result_ingest_is_idempotent(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            rid, inserted = store.ingest_result(_result())
            assert inserted
            before = store.counts()
            rid2, inserted2 = store.ingest_result(_result())
            assert rid2 == rid and not inserted2
            assert store.counts() == before

    def test_distinct_results_get_distinct_rows(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_result(_result(algo="bruck"))
            store.ingest_result(_result(algo="pairwise"))
            assert store.counts()["bench_results"] == 2

    def test_sweep_ingest_is_idempotent(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            sid, inserted = store.ingest_sweep(_sweep())
            assert inserted
            before = store.counts()
            sid2, inserted2 = store.ingest_sweep(_sweep())
            assert sid2 == sid and not inserted2
            assert store.counts() == before

    def test_standalone_result_links_to_later_sweep(self, tmp_path):
        """A standalone cell (a workload run's) gains its sweep link
        without duplication."""
        sweep = _sweep()
        cell = next(iter(sweep.cells.values()))
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_result(cell)  # standalone: sweep_id NULL
            sid, _ = store.ingest_sweep(sweep)
            assert store.counts()["bench_results"] == len(sweep.cells)
            linked = store._conn.execute(
                "SELECT COUNT(*) FROM bench_results WHERE sweep_id=?", (sid,)
            ).fetchone()[0]
            assert linked == len(sweep.cells)

    def test_sweep_ingest_is_atomic(self, tmp_path):
        sweep = _sweep()
        assert len(sweep.cells) == 4
        with TuningStore(tmp_path / "t.db") as store:
            store._conn.execute(
                "CREATE TRIGGER fail_third_cell BEFORE INSERT ON bench_results"
                " WHEN (SELECT COUNT(*) FROM bench_results) = 2"
                " BEGIN SELECT RAISE(ABORT, 'injected failure'); END")
            with pytest.raises(sqlite3.DatabaseError, match="injected"):
                store.ingest_sweep(sweep)
            counts = store.counts()
            assert (counts["sweeps"], counts["bench_results"]) == (0, 0)
            store._conn.execute("DROP TRIGGER fail_third_cell")
            _sid, inserted = store.ingest_sweep(sweep)
            assert inserted
            counts = store.counts()
            assert (counts["sweeps"], counts["bench_results"]) == (1, 4)

    def test_provenance_tuple_deduplicates(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            a = store.ensure_provenance(run_id="r1", params_hash="h1")
            b = store.ensure_provenance(run_id="r1", params_hash="h1")
            c = store.ensure_provenance(run_id="r2", params_hash="h1")
            assert a == b and c != a
            assert store.counts()["provenance"] == 2


class TestRoundTrips:
    def test_sweep_round_trips_bit_exact(self, tmp_path):
        sweep = _sweep()
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_sweep(sweep)
            (back,) = list(store.load_sweeps())
        assert content_hash(back.to_dict()) == content_hash(sweep.to_dict())

    def test_load_sweeps_filters_by_collective(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_sweep(_sweep("alltoall"))
            store.ingest_sweep(_sweep("allreduce"))
            assert len(list(store.load_sweeps("allreduce"))) == 1
            assert len(list(store.load_sweeps())) == 2

    def test_table_round_trip_via_store(self, tmp_path):
        path = tmp_path / "t.db"
        table = SelectionTable(strategy_name="robust_average")
        table.add_rule("alltoall", 16, 1024.0, "bruck")
        table.add_rule("reduce", 16, 8.0, "binomial")
        assert table.to_store(path) == 2
        back = SelectionTable.from_store(path)
        assert back.strategy_name == "robust_average"
        assert back.lookup("alltoall", 16, 1024) == "bruck"
        assert back.lookup("reduce", 16, 8) == "binomial"

    def test_rule_upsert_keeps_one_row(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.add_rule("s", "alltoall", 8, 64.0, "bruck")
            store.add_rule("s", "alltoall", 8, 64.0, "pairwise")
            assert store.counts()["rules"] == 1
            assert store.load_table("s").lookup("alltoall", 8, 64) == "pairwise"

    def test_load_table_without_rules_raises(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            with pytest.raises(StoreError, match="no selection rules"):
                store.load_table()

    def test_ambiguous_strategy_must_be_named(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.add_rule("a", "alltoall", 8, 64.0, "bruck")
            store.add_rule("b", "alltoall", 8, 64.0, "pairwise")
            with pytest.raises(ConfigurationError, match="pick one"):
                store.load_table()
            assert store.strategies() == ["a", "b"]
            assert store.load_table("a").lookup("alltoall", 8, 64) == "bruck"

    def test_open_store_coercion(self, tmp_path):
        store = TuningStore(tmp_path / "t.db")
        same, owned = open_store(store)
        assert same is store and not owned
        opened, owned2 = open_store(tmp_path / "t2.db")
        assert owned2
        opened.close()
        store.close()


class TestCampaignIngest:
    def _campaign_result(self):
        from repro.bench.campaign import CampaignResult

        table = SelectionTable(strategy_name="robust_average")
        sweeps = {}
        winners = {}
        for size in (1024.0, 65536.0):
            sweep = _sweep(msg_bytes=size)
            from repro.selection import RobustAverageSelector

            winners[("alltoall", size)] = table.add_sweep(
                sweep, RobustAverageSelector())
            sweeps[("alltoall", size)] = sweep
        return CampaignResult(table=table, sweeps=sweeps, winners=winners)

    def test_campaign_ingest_and_idempotency(self, tmp_path):
        result = self._campaign_result()
        with TuningStore(tmp_path / "t.db") as store:
            first = store.ingest_campaign(result, run_id="run-1")
            assert first["new_sweeps"] == 2
            assert first["rules_written"] > 0
            before = store.counts()
            second = store.ingest_campaign(result, run_id="run-1")
            assert second["new_sweeps"] == 0
            assert store.counts() == before  # the acceptance probe

    def test_campaign_ingest_builds_pattern_tables(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_campaign(self._campaign_result())
            tables = store.load_pattern_tables()
        assert set(tables) == {"no_delay", "ascending"}
        # The ascending row's winner in _sweep is pairwise (2.5 < 5.0).
        assert tables["ascending"].lookup("alltoall", 4, 1024) == "pairwise"
        assert tables["ascending"].strategy_name == PATTERN_BEST

    def test_pattern_rules_can_be_disabled(self, tmp_path):
        with TuningStore(tmp_path / "t.db") as store:
            store.ingest_campaign(self._campaign_result(),
                                  pattern_rules=False)
            assert store.load_pattern_tables() == {}


class TestOneWriter:
    """A campaign's cells reach the store through ``ingest_campaign`` alone."""

    @staticmethod
    def _campaign(store, cache_dir=None):
        from repro.bench import MicroBenchmark
        from repro.bench.campaign import TuningCampaign
        from repro.sim.platform import get_machine

        bench = MicroBenchmark.from_machine(
            get_machine("hydra"), nodes=2, cores_per_node=2, nrep=1
        )
        return TuningCampaign(bench=bench, collectives=("alltoall",),
                              msg_sizes=(1024,), shapes=("ascending",),
                              cache_dir=cache_dir, store=store)

    @staticmethod
    def _rows(path) -> dict[str, list[tuple]]:
        """Every row that carries data, keyed by content, not by row id."""
        queries = {
            "cells": "SELECT b.content_hash, s.content_hash, p.run_id,"
                     " p.params_hash FROM bench_results b"
                     " LEFT JOIN sweeps s ON s.id = b.sweep_id"
                     " LEFT JOIN provenance p ON p.id = b.provenance_id",
            "sweeps": "SELECT s.content_hash, p.run_id, p.params_hash"
                      " FROM sweeps s"
                      " LEFT JOIN provenance p ON p.id = s.provenance_id",
            "provenance": "SELECT run_id, model_version, params_hash,"
                          " git_describe FROM provenance",
            "rules": "SELECT r.strategy, r.collective, r.comm_size,"
                     " r.msg_bytes, r.pattern, r.algorithm, p.params_hash"
                     " FROM rules r"
                     " LEFT JOIN provenance p ON p.id = r.provenance_id",
        }
        with TuningStore(path) as store:
            return {name: sorted(tuple(row) for row in
                                 store._conn.execute(sql).fetchall())
                    for name, sql in queries.items()}

    def test_cold_campaign_looks_up_and_writes_each_cell_once(self, tmp_path):
        statements: list[str] = []
        with TuningStore(tmp_path / "t.db") as store:
            store._conn.set_trace_callback(statements.append)
            result = self._campaign(store).run()
            store._conn.set_trace_callback(None)
        verbs = [sql.split()[0].upper() for sql in statements
                 if "bench_results" in sql]
        cells = result.stats.cells
        assert cells > 0
        assert (verbs.count("SELECT"), verbs.count("INSERT"),
                verbs.count("UPDATE")) == (cells, cells, 0)

    def test_campaign_writes_its_rules_in_one_transaction(self, tmp_path):
        from repro.bench import MicroBenchmark
        from repro.bench.campaign import TuningCampaign
        from repro.sim.platform import get_machine

        bench = MicroBenchmark.from_machine(
            get_machine("hydra"), nodes=2, cores_per_node=2, nrep=1
        )
        statements: list[str] = []
        with TuningStore(tmp_path / "t.db") as store:
            store._conn.set_trace_callback(statements.append)
            campaign = TuningCampaign(
                bench=bench, collectives=("alltoall", "reduce"),
                msg_sizes=(8, 1024), shapes=("ascending",), store=store)
            result = campaign.run()
            store._conn.set_trace_callback(None)
        sweeps = len(result.sweeps)
        assert sweeps == 4
        begins = [sql for sql in statements if sql.upper().startswith("BEGIN")]
        # Provenance, one per sweep with its cells, and one for the rules.
        assert len(begins) == 1 + sweeps + 1
        assert result.store_ingest["rules_written"] > sweeps

    def test_warm_campaign_fills_a_fresh_store_like_a_cold_one(self, tmp_path):
        cache = tmp_path / "cache"
        stats = {}
        for name in ("cold", "warm"):
            campaign = self._campaign(tmp_path / f"{name}.db", cache)
            try:
                stats[name] = campaign.run().stats
            finally:
                campaign.close()
        assert stats["warm"].hits == stats["warm"].cells
        cold = self._rows(tmp_path / "cold.db")
        assert len(cold["cells"]) == stats["cold"].cells
        assert all(row[1] is not None for row in cold["cells"])  # linked
        assert len(cold["provenance"]) == 1
        assert self._rows(tmp_path / "warm.db") == cold

    def test_campaign_store_field_ingests_sweeps_cells_and_rules(self, tmp_path):
        path = tmp_path / "c.db"
        campaign = self._campaign(path)
        try:
            result = campaign.run()
        finally:
            campaign.close()
        assert result.store_ingest is not None
        assert result.store_ingest["new_sweeps"] == 1
        with TuningStore(path) as store:
            counts = store.counts()
            assert counts["sweeps"] == 1
            assert counts["rules"] > 0
            assert counts["bench_results"] > 0
