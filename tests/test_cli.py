"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for cmd in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                    "fig8", "fig9", "table1", "table2", "registry", "all"):
            args = parser.parse_args([cmd] if cmd.startswith("table") or cmd == "registry"
                                     else [cmd, "--fast"] if cmd != "all" else [cmd, "--fast"])
            assert args.command == cmd

    def test_collective_choice_validated(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig4", "--collective", "bogus"])

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_mode_choices(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["fig4", "--engine-mode", "hybrid"]
                                 ).engine_mode == "hybrid"
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["fig4", "--engine-mode", "flow"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'flow'" in capsys.readouterr().err


class TestMain:
    def test_table_commands(self, capsys):
        assert main(["table1"]) == 0
        assert "hydra" in capsys.readouterr().out
        assert main(["table2"]) == 0
        assert "bruck" in capsys.readouterr().out

    def test_fig3_fast(self, capsys):
        assert main(["fig3", "--nodes", "2", "--cores", "4", "--fast"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_fig4_with_json_export(self, capsys, tmp_path):
        out = tmp_path / "fig4.json"
        code = main([
            "fig4", "--collective", "reduce", "--machine", "simcluster",
            "--nodes", "2", "--cores", "4", "--fast", "--json", str(out),
        ])
        assert code == 0
        assert "Fig. 4" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["collective"] == "reduce"

    def test_fig2_runs(self, capsys):
        assert main(["fig2", "--fast"]) == 0
        assert "last delay" in capsys.readouterr().out

    def test_selfcheck_quick(self, capsys):
        assert main(["selfcheck", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "self-check" in out and "OK" in out

    def test_trace_writes_artifacts(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main([
            "trace", "--app", "ft", "--nodes", "2", "--cores", "4",
            "--iterations", "3",
            "--trace-out", str(tmp_path / "x.trace"),
            "--pattern-out", str(tmp_path / "x.pattern"),
        ])
        assert code == 0
        assert (tmp_path / "x.trace").exists()
        assert (tmp_path / "x.pattern").exists()
        out = capsys.readouterr().out
        assert "traced" in out and "max skew" in out

    def test_tune_writes_rules(self, capsys, tmp_path):
        code = main([
            "tune", "--nodes", "2", "--cores", "4",
            "--collectives", "alltoall",
            "--sizes", "64",
            "--out", str(tmp_path / "tuned"),
        ])
        assert code == 0
        assert (tmp_path / "tuned" / "ompi_dynamic_rules.conf").exists()
        assert (tmp_path / "tuned" / "selection_table.json").exists()
        assert "selected algorithm" in capsys.readouterr().out

    def test_tune_jobs_and_cache_flags(self, capsys, tmp_path):
        from repro.obs.analysis import TraceAnalysis

        base = ["tune", "--nodes", "2", "--cores", "4",
                "--collectives", "alltoall", "--sizes", "64"]

        def tune(name, *flags):
            assert main(base + [*flags, "--out", str(tmp_path / name),
                                "--trace-out", str(tmp_path / f"{name}.json")]) == 0
            return (capsys.readouterr().err,
                    TraceAnalysis.from_file(tmp_path / f"{name}.json"))

        cached = ["--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        cold_err, cold = tune("cold", *cached)
        assert "0% hit rate" in cold_err
        # Every cell ran in a worker process, so its rank tracks were
        # shipped home and merged: one per rank.
        cells = [s for s in cold.spans if s["track"] == "cells"]
        assert cells
        assert {s["args"]["provenance"] for s in cells} == {"simulated"}
        assert len({s["track"] for s in cold.spans
                    if s["track"].startswith("rank ")}) == 8
        # The merged --jobs 2 trace equals a serial run's, span for span.
        _, serial = tune("serial", "--jobs", "1")
        assert cold.spans == serial.spans
        assert cold.calls() and cold.calls() == serial.calls()
        # The warm re-run serves every cell from the cache, replays the
        # cached telemetry, and writes identical artifacts.
        warm_err, warm = tune("warm", *cached)
        assert "100% hit rate" in warm_err and "all served from cache" in warm_err
        assert {s["args"]["provenance"] for s in warm.spans
                if s["track"] == "cells"} == {"cache_replay"}
        assert warm.calls() == cold.calls()
        for artifact in ("sweeps.json", "selection_table.json"):
            assert ((tmp_path / "cold" / artifact).read_bytes()
                    == (tmp_path / "warm" / artifact).read_bytes())

    def test_tune_store_then_query_roundtrip(self, capsys, tmp_path):
        store = tmp_path / "tuning.db"
        code = main([
            "tune", "--machine", "simcluster", "--nodes", "2", "--cores", "2",
            "--collectives", "alltoall", "--sizes", "64",
            "--out", str(tmp_path / "tuned"), "--store", str(store),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "+1 sweeps" in out
        assert store.exists()
        # Offline query answers from the store the campaign just filled.
        assert main(["query", "alltoall", "4", "64",
                     "--store", str(store), "--json"]) == 0
        reply = json.loads(capsys.readouterr().out.splitlines()[0])
        assert reply["ok"] is True
        assert reply["source"] == "store"
        from repro.selection.table import SelectionTable

        offline = SelectionTable.from_store(store)
        assert reply["algorithm"] == offline.lookup("alltoall", 4, 64)

    def test_tune_store_rerun_is_idempotent(self, capsys, tmp_path):
        argv = [
            "tune", "--machine", "simcluster", "--nodes", "2", "--cores", "2",
            "--collectives", "alltoall", "--sizes", "64",
            "--out", str(tmp_path / "tuned"), "--store",
            str(tmp_path / "tuning.db"),
        ]
        assert main(argv) == 0
        assert "+1 sweeps" in capsys.readouterr().out
        assert main(argv) == 0
        assert "+0 sweeps" in capsys.readouterr().out

    def test_lint_store_flags_a_poisoned_cell_the_service_then_skips(
            self, capsys, tmp_path):
        from dataclasses import replace

        from repro.bench.metrics import CollectiveTiming
        from repro.service import SOURCE_STORE, SelectionService
        from repro.store import TuningStore, content_hash

        db = str(tmp_path / "tuning.db")
        assert main([
            "tune", "--nodes", "2", "--cores", "2",
            "--collectives", "alltoall", "allreduce", "--sizes", "64", "1KiB",
            "--out", str(tmp_path / "tuned"), "--store", db,
        ]) == 0
        # One physically impossible cell: a real alltoall cell's timings
        # pushed far below the machine's bandwidth floor, plus a rule
        # derived from it.
        with TuningStore(db) as store:
            cell = next(iter(next(store.load_sweeps("alltoall")).cells.values()))
            poisoned = replace(cell, algorithm="poisoned", timings=[
                CollectiveTiming(np.zeros_like(t.arrivals),
                                 np.full_like(t.exits, 1e-15))
                for t in cell.timings])
            store.ingest_result(poisoned)
            store.add_rule(store.strategies()[0], "alltoall", cell.num_ranks,
                           cell.msg_bytes, "poisoned")
        coord = (cell.num_ranks, cell.msg_bytes)
        with SelectionService(db, watch_store=False) as service:
            assert service.query("alltoall", *coord)["algorithm"] == "poisoned"
        capsys.readouterr()
        assert main(["lint-store", db, "--mark", "--fail-on", "error"]) != 0
        assert "bandwidth_floor" in capsys.readouterr().out
        with TuningStore(db) as store:
            assert content_hash(poisoned.to_dict()) in store.suspect_hashes()
        with SelectionService(db, watch_store=False) as service:
            assert service.query("alltoall", *coord)["algorithm"] != "poisoned"
            assert service.query("allreduce", *coord)["source"] == SOURCE_STORE

    def test_cache_stats_and_gc(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main([
            "tune", "--machine", "simcluster", "--nodes", "2", "--cores", "2",
            "--collectives", "alltoall", "--sizes", "64",
            "--out", str(tmp_path / "tuned"), "--cache-dir", str(cache_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "entries" in out and str(cache_dir) in out
        # Evict everything; stats then reports an empty cache.
        assert main(["cache", "gc", "--max-bytes", "0",
                     "--cache-dir", str(cache_dir)]) == 0
        assert "evicted" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_cache_without_dir_fails_cleanly(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert main(["cache", "stats"]) == 2
        assert "REPRO_CACHE_DIR" in capsys.readouterr().err

    def test_library_error_is_one_stderr_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]\n")
        assert main(["report", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(bad) in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("argv, bad", [
        (["report", "{missing}"], "missing"),
        (["report", "{directory}"], "directory"),
        (["report", "{binary}"], "binary"),
        (["workload", "replay", "{missing}"], "missing"),
        (["diff-metrics", "{missing}", "{metrics}"], "missing"),
        (["diff-metrics", "{metrics}", "{malformed}"], "malformed"),
        (["lint-store", "{missing}", "--fail-on", "error"], "missing"),
        (["query", "alltoall", "8", "64", "--store", "{missing}"], "missing"),
    ], ids=["report-missing", "report-directory", "report-binary",
            "replay-missing", "diff-metrics-missing", "diff-metrics-malformed",
            "lint-store-missing", "query-store-missing"])
    def test_bad_file_argument_is_one_error_line(self, capsys, tmp_path,
                                                 argv, bad):
        files = {name: tmp_path / name for name in
                 ("missing", "directory", "binary", "metrics", "malformed")}
        files["directory"].mkdir()
        files["binary"].write_bytes(b"\xff\xfe\x80 not text")
        files["metrics"].write_text('{"metrics": {}}')
        files["malformed"].write_text("{not json")
        assert main([arg.format(**files) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert str(files[bad]) in err
        assert not files["missing"].exists()

    def test_query_without_a_listener_is_one_error_line(self, capsys):
        import socket

        # Bind without listening: the port is ours, and connecting to it is
        # refused.
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
            code = main(["query", "alltoall", "8", "64", "--port", str(port)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot connect to 127.0.0.1:{port}")
        assert len(err.splitlines()) == 1

    def test_ext_subcommands_fast(self, capsys):
        assert main(["ext-nonblocking", "--nodes", "2", "--cores", "4",
                     "--fast"]) == 0
        assert "overlap benefit" in capsys.readouterr().out


class TestProfile:
    def test_profile_emits_timeline_and_perfetto_trace(self, capsys, tmp_path):
        from repro.obs.analysis import TraceAnalysis
        from repro.obs.export import load_perfetto, rank_tracks

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        svg = tmp_path / "links.svg"
        code = main([
            "profile", "--nodes", "2", "--cores", "4",
            "--collective", "alltoall", "--algorithm", "pairwise",
            "--msg-bytes", "1KiB",
            "--trace-out", str(trace), "--metrics-out", str(metrics),
            "--links", "--links-out", str(svg),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "virtual timeline" in out
        assert "alltoall/pairwise" in out
        assert f"wrote trace: {trace}" in out
        assert "fabric weather map" in out
        assert f"wrote link heatmap: {svg}" in out
        assert svg.read_text().startswith("<svg")
        loaded = load_perfetto(trace)
        # One track per rank, each carrying arrival->exit collective spans.
        assert rank_tracks(loaded) == [f"rank {r}" for r in range(8)]
        coll = [e for e in loaded["traceEvents"]
                if e.get("ph") == "X" and e["name"] == "alltoall/pairwise"]
        assert len(coll) >= 8
        assert all(e["dur"] > 0 for e in coll)
        assert json.loads(metrics.read_text())["engine"]["runs"] >= 2
        # 2 nodes in one group: intra- and inter-node links are both hot.
        ana = TraceAnalysis.from_file(trace)
        usage = ana.link_usage()
        assert {row["cls"] for row in usage} == {1, 2}
        for cls in (1, 2):
            assert any(r["busy"] > 0 for r in usage if r["cls"] == cls)
        assert ana.dropped_links == 0

    def test_profile_default_trace_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "--nodes", "1", "--cores", "2",
                     "--msg-bytes", "64", "--shape", "no_delay"]) == 0
        assert (tmp_path / "profile_trace.json").exists()

    def test_metrics_out_on_experiment_command(self, tmp_path):
        metrics = tmp_path / "m.json"
        code = main([
            "fig4", "--collective", "reduce", "--machine", "simcluster",
            "--nodes", "2", "--cores", "4", "--fast",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["metrics"]["executor.cells"]["value"] > 0
        assert payload["engine"]["runs"] > 0
        assert payload["meta"]["command"] == "fig4"

    def test_executor_summary_on_stderr(self, capsys, tmp_path):
        code = main([
            "tune", "--nodes", "2", "--cores", "4",
            "--collectives", "alltoall", "--sizes", "64",
            "--out", str(tmp_path / "tuned"),
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "executor:" in err and "hit rate" in err

    def test_workload_list_shows_builtins(self, capsys):
        assert main(["workload", "list"]) == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()
                 if line and not line.startswith(("workload", "-"))]
        assert len(names) >= 4
        assert "dlrm_embedding" in names

    def test_workload_describe(self, capsys):
        assert main(["workload", "describe", "allgatherv_ragged",
                     "--ranks", "4", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "allgatherv" in out and "length-p" in out

    def test_workload_run_replay_round_trip(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        db = tmp_path / "wl.db"
        code = main([
            "workload", "run", "halo_mix", "--fast",
            "--machine", "simcluster", "--nodes", "2", "--cores", "2",
            "--shape", "ascending", "--max-skew", "2e-4",
            "--store", str(db), "--trace-out", "wl.json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime" in out and "phase cell(s)" in out
        assert db.exists() and (tmp_path / "wl.json").exists()
        code = main(["workload", "replay", str(tmp_path / "wl.json"),
                     "--fast", "--machine", "simcluster",
                     "--nodes", "2", "--cores", "2", "--no-cells"])
        assert code == 0
        out = capsys.readouterr().out
        assert "alltoall@" in out and "pattern replay:" in out

    def test_trace_file_replays_and_reports(self, capsys, tmp_path,
                                            monkeypatch):
        from repro.obs.analysis import TraceAnalysis
        from repro.patterns import read_pattern_file

        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--app", "ft", "--nodes", "2", "--cores", "4",
                     "--iterations", "3", "--pattern-out", "ft.pattern"]) == 0
        assert "wrote trace: app_trace.json" in capsys.readouterr().out
        assert main(["workload", "replay", "app_trace.json", "--fast",
                     "--machine", "simcluster", "--nodes", "2",
                     "--cores", "4", "--no-cells"]) == 0
        assert "alltoall@" in capsys.readouterr().out
        assert main(["report", "app_trace.json", "-o", "report.html"]) == 0
        assert (tmp_path / "report.html").exists()
        derived = TraceAnalysis.from_file("app_trace.json").arrival_pattern(
            "alltoall")
        written = read_pattern_file("ft.pattern")
        np.testing.assert_allclose(derived.skews, written.skews, rtol=1e-9,
                                   atol=1e-9 * written.max_skew)

    def test_fig1_metrics_count_the_traced_run(self, capsys, tmp_path):
        metrics = tmp_path / "m.json"
        assert main(["fig1", "--fast", "--metrics-out", str(metrics)]) == 0
        header = re.search(r"(\d+) ranks, (\d+) calls",
                           capsys.readouterr().out)
        ranks, calls = map(int, header.groups())
        payload = json.loads(metrics.read_text())
        counter = payload["metrics"]["collective.calls.alltoall.pairwise"]
        assert counter["value"] == ranks * calls
        assert payload["engine"]["runs"] == 1

    def test_workload_contend_attributes_both_jobs(self, capsys, tmp_path):
        out_json = tmp_path / "contend.json"
        code = main([
            "workload", "contend", "halo_mix", "dlrm_embedding", "--fast",
            "--machine", "simcluster", "--nodes", "4", "--cores", "2",
            "--links", "--json", str(out_json),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "link wait attribution by job:" in out
        assert "job0-halo_mix" in out and "job1-dlrm_embedding" in out
        result = json.loads(out_json.read_text())
        jobs = ("job0-halo_mix", "job1-dlrm_embedding")
        waits = result["wait_by_job"]
        assert all(waits.get(job, 0) > 0 for job in jobs), waits
        activities = {row["activity"] for row in result["attribution"]}
        for job in jobs:
            assert any(a.startswith(f"{job}:") for a in activities), job

    def test_trace_out_and_metrics_out_parse_everywhere(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--trace-out", "t.json",
                                  "--metrics-out", "m.json"])
        assert args.obs_trace_out == "t.json"
        assert args.obs_metrics_out == "m.json"
        # The trace command writes its application trace through the same
        # obs flag.
        args = parser.parse_args(["trace", "--trace-out", "x.json",
                                  "--metrics-out", "m.json"])
        assert args.obs_trace_out == "x.json"
        assert args.obs_metrics_out == "m.json"
