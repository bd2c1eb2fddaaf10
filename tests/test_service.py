"""Tests for the concurrent selection service: offline parity, caching,
fallback, the NDJSON protocol, TCP concurrency, and hot reload."""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError, ServiceError
from repro.bench.metrics import CollectiveTiming
from repro.bench.results import BenchResult, SweepResult
from repro.selection import RobustAverageSelector
from repro.selection.table import SelectionTable
from repro.service import (
    SOURCE_FALLBACK,
    SOURCE_PATTERN,
    SOURCE_STORE,
    InProcessClient,
    SelectionClient,
    SelectionServer,
    SelectionService,
    handle_request,
    install_sighup_reload,
)
from repro.service.server import encode_reply
from repro.store import TuningStore


def _cache_entries(service) -> float:
    return service.metrics.gauge("service.cache_entries").value


def _serve(store, *flags: str, stderr=subprocess.STDOUT) -> subprocess.Popen:
    """Start ``repro-mpi serve STORE --port 0 FLAGS`` as a subprocess of
    this interpreter, with this checkout's ``src`` on its path."""
    import repro

    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(store),
         "--port", "0", *flags],
        stdout=subprocess.PIPE, stderr=stderr, text=True, env=env)


def _serving_line(server: subprocess.Popen) -> str:
    """The first stdout line of a ``_serve`` process ('' after 60 s)."""
    ready, _, _ = select.select([server.stdout], [], [], 60)
    return server.stdout.readline() if ready else ""


def _sweep(collective="alltoall", msg_bytes=1024.0, num_ranks=4) -> SweepResult:
    sweep = SweepResult(collective, msg_bytes, num_ranks, machine="testbox")
    grid = {
        "no_delay": {"bruck": 1.0, "pairwise": 2.0},
        "ascending": {"bruck": 5.0, "pairwise": 2.5},
    }
    for pattern, row in grid.items():
        sweep.skew_by_pattern[pattern] = 0.0 if pattern == "no_delay" else 1e-3
        for algo, delay in row.items():
            timing = CollectiveTiming(np.zeros(2), np.full(2, delay))
            sweep.add(BenchResult(collective, algo, msg_bytes, num_ranks,
                                  pattern, 0.0, [timing]))
    return sweep


@pytest.fixture
def seeded_store(tmp_path):
    """A store holding a small campaign's sweeps, rules, and pattern picks."""
    from repro.bench.campaign import CampaignResult

    table = SelectionTable(strategy_name="robust_average")
    sweeps, winners = {}, {}
    for coll in ("alltoall", "allreduce"):
        for size in (1024.0, 65536.0):
            sweep = _sweep(coll, size)
            winners[(coll, size)] = table.add_sweep(sweep,
                                                    RobustAverageSelector())
            sweeps[(coll, size)] = sweep
    path = tmp_path / "tuning.db"
    with TuningStore(path) as store:
        store.ingest_campaign(
            CampaignResult(table=table, sweeps=sweeps, winners=winners),
            run_id="seed",
        )
    return path


class TestServiceQueries:
    def test_offline_parity(self, seeded_store):
        """Service answers == direct SelectionTable.lookup (acceptance)."""
        offline = SelectionTable.from_store(seeded_store)
        with SelectionService(seeded_store) as service:
            for coll in ("alltoall", "allreduce"):
                for size in (8, 1024, 4096, 65536, 1 << 20):
                    reply = service.query(coll, 4, size)
                    assert reply["algorithm"] == offline.lookup(coll, 4, size)
                    assert reply["source"] == SOURCE_STORE
                    assert reply["strategy"] == "robust_average"

    def test_pattern_conditioned_answers_use_pattern_table(self, seeded_store):
        with SelectionService(seeded_store) as service:
            agnostic = service.query("alltoall", 4, 1024)
            patterned = service.query("alltoall", 4, 1024, "ascending")
        # robust_average picks bruck overall, but under ascending skew the
        # per-pattern oracle row favors pairwise (2.5 vs 5.0).
        assert agnostic["algorithm"] == "bruck"
        assert patterned["algorithm"] == "pairwise"
        assert patterned["source"] == SOURCE_PATTERN

    def test_unknown_pattern_falls_through_to_strategy_table(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = service.query("alltoall", 4, 1024, "zigzag")
        assert reply["source"] == SOURCE_STORE

    def test_fallback_for_uncovered_collective(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = service.query("bcast", 16, 1024)
            assert reply["source"] == SOURCE_FALLBACK
            assert reply["algorithm"]
            assert service.stats.fallbacks == 1

    def test_fallback_disabled_raises(self, seeded_store):
        with SelectionService(seeded_store, fallback=False) as service:
            with pytest.raises(ConfigurationError, match="no rule covers"):
                service.query("bcast", 16, 1024)
            assert service.stats.errors == 1

    def test_unknown_collective_raises_even_with_fallback(self, seeded_store):
        with SelectionService(seeded_store) as service:
            with pytest.raises(ConfigurationError):
                service.query("no_such_collective", 4, 8)

    @pytest.mark.parametrize("bad", [
        {"collective": "", "comm_size": 4, "msg_bytes": 8},
        {"collective": "alltoall", "comm_size": 0, "msg_bytes": 8},
        {"collective": "alltoall", "comm_size": True, "msg_bytes": 8},
        {"collective": "alltoall", "comm_size": 4, "msg_bytes": -1},
        {"collective": "alltoall", "comm_size": 4, "msg_bytes": "big"},
        {"collective": "alltoall", "comm_size": 4, "msg_bytes": 8,
         "pattern": 7},
    ])
    def test_invalid_coordinates_rejected(self, seeded_store, bad):
        with SelectionService(seeded_store) as service:
            with pytest.raises(ConfigurationError):
                service.query(bad.get("collective"), bad.get("comm_size"),
                              bad.get("msg_bytes"), bad.get("pattern"))

    def test_table_only_service_without_store(self):
        table = SelectionTable(strategy_name="manual")
        table.add_rule("alltoall", 8, 0.0, "bruck")
        with SelectionService(table=table) as service:
            assert service.query("alltoall", 8, 64)["algorithm"] == "bruck"

    def test_service_needs_store_or_table(self):
        with pytest.raises(ConfigurationError):
            SelectionService()

    def test_empty_store_serves_fallback_only(self, tmp_path):
        path = tmp_path / "empty.db"
        TuningStore(path).close()
        with SelectionService(path) as service:
            reply = service.query("alltoall", 8, 64)
        assert reply["source"] == SOURCE_FALLBACK
        assert reply["strategy"] == ""


class TestCaching:
    def test_repeat_queries_hit_the_cache(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            first = service.query("alltoall", 4, 1024)
            second = service.query("alltoall", 4, 1024)
        assert first == second
        assert service.stats.queries == 2
        assert service.stats.cache_hits == 1

    def test_lru_evicts_oldest_entry(self, seeded_store):
        with SelectionService(seeded_store, cache_size=2,
                              watch_store=False) as service:
            service.query("alltoall", 4, 8)       # A
            service.query("alltoall", 4, 1024)    # B
            service.query("alltoall", 4, 8)       # A again: hit, A now MRU
            service.query("allreduce", 4, 8)      # C evicts B
            assert _cache_entries(service) == 2
            service.query("alltoall", 4, 1024)    # B again: miss
        assert service.stats.cache_hits == 1

    def test_query_batch_matches_single_queries(self, seeded_store):
        queries = [
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
            {"collective": "allreduce", "comm_size": 4, "msg_bytes": 8,
             "pattern": "ascending"},
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
        ]
        with SelectionService(seeded_store, watch_store=False) as service:
            singles = [service.query(q["collective"], q["comm_size"],
                                     q["msg_bytes"], q.get("pattern"))
                       for q in queries]
        with SelectionService(seeded_store, watch_store=False) as service:
            batched = service.query_batch(queries)
        assert batched == [{"ok": True, **reply} for reply in singles]

    def test_query_batch_degrades_per_item(self, seeded_store):
        """An invalid item gets its own structured error; the rest answer."""
        queries = [
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
            {"collective": "alltoall", "comm_size": 0, "msg_bytes": 8},
            {"collective": "allreduce", "comm_size": 4, "msg_bytes": 65536},
        ]
        with SelectionService(seeded_store, watch_store=False) as service:
            replies = service.query_batch(queries)
            assert service.stats.queries == 3
            assert service.stats.errors == 1
        assert [r["ok"] for r in replies] == [True, False, True]
        with SelectionService(seeded_store, watch_store=False) as service:
            with pytest.raises(ConfigurationError) as excinfo:
                service.query("alltoall", 0, 8)
            assert replies[1] == {"ok": False, "error": "ConfigurationError",
                                  "detail": str(excinfo.value)}
            for item, q in zip(replies[::2], queries[::2]):
                assert item == {"ok": True, **service.query(**q)}

    def test_tallies_stay_exact_under_thread_switch_stress(self, seeded_store):
        """8 threads mix single, refused and batched queries under a 1 us
        switch interval; every tally is exact, so no update was lost."""
        good = {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024}
        bad = {"collective": "alltoall", "comm_size": 0, "msg_bytes": 8}
        rounds = 200
        unexpected: list[str] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SelectionService(seeded_store, watch_store=False) as service:

                def worker() -> None:
                    try:
                        for _ in range(rounds):
                            service.query(**good)
                            try:
                                service.query(**bad)
                                unexpected.append("refused query answered")
                            except ConfigurationError:
                                pass
                            oks = [r["ok"] for r in
                                   service.query_batch([good, bad, good])]
                            if oks != [True, False, True]:
                                unexpected.append(repr(oks))
                    except Exception as exc:  # noqa: BLE001 - collected
                        unexpected.append(repr(exc))

                threads = [threading.Thread(target=worker) for _ in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                stats = service.stats.snapshot()
                labeled = sum(service.metrics.get(k).value
                              for k in service.metrics
                              if k.startswith("service.query_total{"))
        finally:
            sys.setswitchinterval(interval)
        assert not unexpected, unexpected[:5]
        n = 8 * rounds
        assert stats == {"queries": 5 * n, "cache_hits": 3 * n - 1,
                         "pattern_hits": 0, "fallbacks": 0,
                         "errors": 2 * n, "reloads": 0}
        assert labeled == 5 * n

    def test_in_process_throughput_floor(self, seeded_store):
        """Warm LRU, 8 threads x 5,000 queries: at least 10k lookups/s, no
        errors, and op:stats counts every query and hit exactly."""
        coords = [(coll, 4, size) for coll in ("alltoall", "allreduce")
                  for size in (8, 64, 512, 1024, 32768, 1 << 20)]
        per_thread = 5000
        errors: list[str] = []
        with SelectionService(seeded_store, watch_store=False) as service:
            for coll, ranks, size in coords:
                service.query(coll, ranks, size)       # warm the LRU

            def worker() -> None:
                try:
                    for i in range(per_thread):
                        service.query(*coords[i % len(coords)])
                except Exception as exc:  # noqa: BLE001 - collected below
                    errors.append(repr(exc))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            started = time.perf_counter()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            elapsed = time.perf_counter() - started
            stats = InProcessClient(service).stats()["stats"]
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[:5]
        assert stats["errors"] == 0
        assert stats["queries"] == 8 * per_thread + len(coords) == 40_012
        assert stats["cache_hits"] == 8 * per_thread == 40_000
        rate = 8 * per_thread / elapsed
        assert rate >= 10_000, f"{rate:,.0f} lookups/s is below the floor"


class TestProtocol:
    def test_query_reply_shape(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = handle_request(service, {
                "op": "query", "collective": "alltoall",
                "comm_size": 4, "msg_bytes": 1024,
            })
        assert reply["ok"] is True
        assert set(reply) == {"ok", "collective", "comm_size", "msg_bytes",
                              "pattern", "algorithm", "source", "strategy"}

    def test_missing_fields_is_protocol_error(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = handle_request(service, {"op": "query"})
        assert reply["ok"] is False
        assert reply["error"] == "ProtocolError"
        assert "collective" in reply["detail"]

    def test_domain_error_is_structured(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = handle_request(service, {
                "collective": "alltoall", "comm_size": -1, "msg_bytes": 8,
            })
        assert reply["ok"] is False
        assert reply["error"] == "ConfigurationError"
        assert "comm_size" in reply["detail"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_msg_bytes_rejected(self, seeded_store, token):
        # Python's json module accepts these tokens; a reply echoing them
        # back would not be RFC 8259 JSON, so the query must fail first.
        request = json.loads('{"collective": "alltoall", "comm_size": 16, '
                             f'"msg_bytes": {token}}}')
        with SelectionService(seeded_store) as service:
            before = _cache_entries(service)
            reply = handle_request(service, request)
            assert _cache_entries(service) == before
        assert reply["ok"] is False
        assert reply["error"] == "ConfigurationError"
        assert "msg_bytes" in reply["detail"]
        json.loads(encode_reply(reply), parse_constant=pytest.fail)

    def test_unknown_op_rejected(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = handle_request(service, {"op": "frobnicate"})
        assert reply == {"ok": False, "error": "ProtocolError",
                         "detail": "unknown op 'frobnicate'"}

    def test_batch_degrades_per_item(self, seeded_store):
        with SelectionService(seeded_store) as service:
            reply = handle_request(service, {"op": "batch", "queries": [
                {"collective": "alltoall", "comm_size": 4, "msg_bytes": 8},
                {"collective": "alltoall"},
                "not an object",
            ]})
        assert reply["ok"] is True
        oks = [r["ok"] for r in reply["replies"]]
        assert oks == [True, False, False]

    def test_in_process_client_checks_errors(self, seeded_store):
        with SelectionService(seeded_store) as service:
            client = InProcessClient(service)
            assert client.ping()["version"] >= 1
            with pytest.raises(ServiceError) as excinfo:
                client.query("alltoall", -1, 8)
            assert excinfo.value.reply["error"] == "ConfigurationError"
            raw = client.query("alltoall", -1, 8, check=False)
            assert raw["ok"] is False


class TestTCPServer:
    def test_concurrent_tcp_clients_match_offline(self, seeded_store):
        """8 threads x concurrent queries; replies byte-identical to the
        in-process client (and therefore to SelectionTable.lookup)."""
        offline = SelectionTable.from_store(seeded_store)
        coords = [("alltoall", 4, size) for size in (8, 1024, 4096, 65536)] \
            + [("allreduce", 4, size) for size in (8, 1024, 65536, 1 << 20)]
        service = SelectionService(seeded_store, watch_store=False)
        failures: list[str] = []
        with SelectionServer(service) as server:
            host, port = server.address

            def worker() -> None:
                try:
                    with SelectionClient(host, port) as client:
                        for coll, ranks, size in coords * 3:
                            reply = client.query(coll, ranks, size)
                            expected = offline.lookup(coll, ranks, size)
                            if reply["algorithm"] != expected:
                                failures.append(f"{coll}/{size}: "
                                                f"{reply['algorithm']}")
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        service.close()
        assert not failures
        assert service.stats.queries == 8 * len(coords) * 3
        assert service.stats.errors == 0

    def test_serve_command_answers_concurrent_clients(self, seeded_store):
        """`repro-mpi serve` itself, as a subprocess on an ephemeral port:
        8 client threads get the algorithm SelectionTable.lookup picks."""
        offline = SelectionTable.from_store(seeded_store)
        coords = [(coll, 4, size) for coll in ("alltoall", "allreduce")
                  for size in (8, 64, 512, 1024, 32768, 1 << 20)]
        server = _serve(seeded_store)
        failures: list[str] = []
        answered: list[int] = []
        try:
            line = _serving_line(server)
            bound = re.search(r"^serving .* on (\S+):(\d+)", line)
            assert bound, f"no serving line from repro-mpi serve: {line!r}"
            host, port = bound.group(1), int(bound.group(2))

            def worker() -> None:
                try:
                    with SelectionClient(host, port) as client:
                        for coll, ranks, size in coords * 2:
                            reply = client.query(coll, ranks, size)
                            expected = offline.lookup(coll, ranks, size)
                            if reply["algorithm"] != expected:
                                failures.append(f"{coll}/{size}: "
                                                f"{reply['algorithm']}")
                            answered.append(1)
                except Exception as exc:  # noqa: BLE001 - collected below
                    failures.append(repr(exc))

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            server.terminate()
            server.wait(timeout=30)
            server.stdout.close()
        assert not failures, failures[:5]
        assert len(answered) == 8 * len(coords) * 2

    def test_wire_bytes_match_in_process_encoding(self, seeded_store):
        """The TCP reply line is byte-identical to encode_reply(handle_request)."""
        import socket

        service = SelectionService(seeded_store, watch_store=False)
        request = {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024}
        with SelectionServer(service) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(json.dumps(request).encode() + b"\n")
                f.flush()
                wire_line = f.readline()
        expected = encode_reply(handle_request(service, dict(request)))
        service.close()
        assert wire_line == expected

    def test_malformed_json_gets_error_line_and_connection_survives(
            self, seeded_store):
        import socket

        service = SelectionService(seeded_store, watch_store=False)
        with SelectionServer(service) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b"{broken\n")
                f.flush()
                error = json.loads(f.readline())
                f.write(b'{"op": "ping"}\n')
                f.flush()
                pong = json.loads(f.readline())
        service.close()
        assert error["ok"] is False and error["error"] == "ProtocolError"
        assert pong["ok"] is True

    def test_over_long_line_gets_error_then_close(self, seeded_store):
        import socket

        from repro.service.server import MAX_REQUEST_BYTES

        pad = "x" * (2 * MAX_REQUEST_BYTES)
        line = json.dumps({"op": "ping", "pad": pad}).encode() + b"\n"
        service = SelectionService(seeded_store, watch_store=False)
        with SelectionServer(service) as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as sock:
                try:
                    sock.sendall(line)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the server may close before the line is sent
                f = sock.makefile("rb")
                error = json.loads(f.readline())
                eof = f.readline()
            with SelectionClient(host, port) as client:
                pong = client.ping()
        service.close()
        assert error["ok"] is False and error["error"] == "ProtocolError"
        assert str(MAX_REQUEST_BYTES) in error["detail"]
        assert eof == b""
        assert pong["ok"] is True

    def test_bind_failure_is_a_service_error(self, seeded_store):
        import socket

        with SelectionService(seeded_store, watch_store=False) as service, \
                socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            with pytest.raises(ServiceError, match=f"127.0.0.1:{port}"):
                SelectionServer(service, port=port)

    def test_request_timeout_is_a_service_error(self):
        import socket

        # The kernel completes the handshake from the listen backlog, but
        # nothing ever answers.
        with socket.socket() as silent:
            silent.bind(("127.0.0.1", 0))
            silent.listen()
            port = silent.getsockname()[1]
            with SelectionClient("127.0.0.1", port, timeout=0.2) as client:
                with pytest.raises(ServiceError, match="timed out"):
                    client.ping()


class TestHotReload:
    def _add_rule(self, path, algorithm):
        with TuningStore(path) as store:
            store.add_rule("robust_average", "scatter", 4, 0.0, algorithm)

    def test_store_change_triggers_reload(self, seeded_store):
        with SelectionService(seeded_store, reload_interval=0.0) as service:
            assert service.query("scatter", 4, 8)["source"] == SOURCE_FALLBACK
            self._add_rule(seeded_store, "binomial")
            reply = service.query("scatter", 4, 8)
        assert reply["source"] == SOURCE_STORE
        assert reply["algorithm"] == "binomial"
        assert service.stats.reloads >= 1

    def test_reload_zeroes_the_cache_entries_gauge(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            client = InProcessClient(service)
            for size in (8, 1024, 65536):
                client.query("alltoall", 4, size)
            assert client.stats()["cache_entries"] == 3
            client.reload()
            assert _cache_entries(service) == 0
            assert client.stats()["cache_entries"] == 0

    def test_manual_reload_drops_cache(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            service.query("alltoall", 4, 1024)
            assert _cache_entries(service) == 1
            service.reload()
            assert _cache_entries(service) == 0
            assert service.stats.reloads == 1

    @pytest.mark.skipif(not hasattr(signal, "SIGHUP"),
                        reason="SIGHUP is POSIX-only")
    def test_sighup_reloads(self, seeded_store):
        service = SelectionService(seeded_store, watch_store=False)
        previous = install_sighup_reload(service)
        assert previous is not None or \
            threading.current_thread() is not threading.main_thread()
        if previous is None:  # pragma: no cover - non-main-thread runner
            pytest.skip("not on the main thread")
        try:
            self._add_rule(seeded_store, "binomial")
            os.kill(os.getpid(), signal.SIGHUP)
            reply = service.query("scatter", 4, 8)
            assert reply["algorithm"] == "binomial"
            assert service.stats.reloads == 1
        finally:
            signal.signal(signal.SIGHUP, previous)
            service.close()


class TestServiceTelemetry:
    """The always-on service registry: labels, latency, flight recording."""

    def test_query_total_labeled_by_collective_and_source(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            service.query("alltoall", 4, 1024)
            service.query("alltoall", 4, 1024)        # cache hit, same labels
            service.query("scatter", 4, 8)            # fallback
            snap = service.metrics.snapshot()
        key = 'service.query_total{collective="alltoall",source="store"}'
        assert snap[key]["value"] == 2
        fb = 'service.query_total{collective="scatter",source="fallback"}'
        assert snap[fb]["value"] == 1
        assert snap["service.cache_hit_total"]["value"] == 1
        assert snap["service.fallback_total"]["value"] == 1

    def test_error_queries_labeled_and_counted(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            with pytest.raises(ConfigurationError):
                service.query("alltoall", -1, 8)
            with pytest.raises(ConfigurationError):
                service.query(12345, 4, 8)            # non-str collective
            snap = service.metrics.snapshot()
        assert snap["service.error_total"]["value"] == 2
        # A valid-shaped collective keeps its label on the error path; a
        # garbage one collapses into "<invalid>" (cardinality guard).
        assert snap['service.query_total'
                    '{collective="alltoall",source="error"}']["value"] == 1
        assert snap['service.query_total'
                    '{collective="<invalid>",source="error"}']["value"] == 1

    def test_label_cardinality_is_capped(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            cap = service._LABEL_CAP
            for i in range(cap + 20):                 # unique garbage names
                with pytest.raises(ConfigurationError):
                    service.query(f"no-such-collective-{i}", 4, 8)
            labeled = [k for k in service.metrics
                       if k.startswith("service.query_total{")]
            assert len(labeled) <= cap + 1            # + the "<other>" bucket
            other = service.metrics.get(
                "service.query_total",
                {"collective": "<other>", "source": "error"})
            assert other is not None and other.value >= 20

    def test_query_seconds_strictly_per_query(self, seeded_store):
        # Satellite fix: batch latency must not skew the per-query
        # histogram — each batch item observes individually and the whole
        # batch lands in service.batch_seconds.
        with SelectionService(seeded_store, watch_store=False) as service:
            service.query("alltoall", 4, 1024)
            service.query_batch([
                {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
                {"collective": "allreduce", "comm_size": 4, "msg_bytes": 1024},
                {"collective": "alltoall", "comm_size": 4,
                 "msg_bytes": 65536},
            ])
            h_query = service.metrics.histogram("service.query_seconds")
            h_batch = service.metrics.histogram("service.batch_seconds")
        assert h_query.count == 4                     # 1 single + 3 items
        assert h_batch.count == 1
        assert h_batch.total > 0.0
        assert h_query.quantile(0.99) is not None
        # Batch items are tagged distinctly in the flight recorder.
        ops = {e["op"] for e in service.flight.dump()["slowest"]}
        assert ops <= {"query", "batch-item"} and "batch-item" in ops

    def test_cache_entries_gauge_tracks_lru(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False,
                              cache_size=2) as service:
            service.query("alltoall", 4, 1024)
            service.query("allreduce", 4, 1024)
            service.query("alltoall", 4, 65536)       # evicts the oldest
            gauge = service.metrics.gauge("service.cache_entries")
        assert gauge.value == 2
        assert gauge.peak == 2

    def test_reload_total_counter(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            service.reload()
            service.reload()
            assert service.metrics.counter(
                "service.reload_total").value == 2

    def test_flight_records_slowest_and_errors(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False,
                              flight_capacity=4) as service:
            for msg in (1024, 65536):
                service.query("alltoall", 4, msg)
            with pytest.raises(ConfigurationError):
                service.query("alltoall", 0, 8)
            dump = service.flight.dump()
        assert dump["capacity"] == 4
        assert len(dump["slowest"]) == 2
        # Slowest-first ordering, full request coordinates attached.
        lats = [e["latency_seconds"] for e in dump["slowest"]]
        assert lats == sorted(lats, reverse=True)
        assert dump["slowest"][0]["request"]["collective"] == "alltoall"
        assert dump["slowest"][0]["source"] == "store"
        (err,) = dump["errors"]
        assert err["error"] == "ConfigurationError"
        assert err["request"]["comm_size"] == 0

    def test_flight_threshold_gates_recording(self):
        from repro.service import FlightRecorder

        rec = FlightRecorder(2)
        assert rec.fast_threshold == 0.0              # heap not full yet
        assert rec.record(latency=0.5)
        assert rec.record(latency=1.0)
        assert rec.fast_threshold == 0.5              # K-th slowest
        assert not rec.record(latency=0.1)            # below the bar
        assert rec.record(latency=2.0)                # displaces 0.5
        assert rec.fast_threshold == 1.0
        dump = rec.dump()
        assert [e["latency_seconds"] for e in dump["slowest"]] == [2.0, 1.0]
        assert rec.occupancy()["slow"] == 2
        # Errors bypass the latency bar entirely.
        assert rec.record(latency=0.0, error="Boom")
        assert rec.occupancy()["errors"] == 1
        rec.clear()
        assert rec.fast_threshold == 0.0
        assert rec.dump()["slowest"] == []

    def test_table_generation_and_uptime(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            assert service.table_generation == 1
            service.reload()
            assert service.table_generation == 2
            assert service.uptime_seconds() >= 0.0


class TestOpsEndpoints:
    """op:metrics / op:debug / enriched op:stats over the wire protocol."""

    def test_op_metrics_reply(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            client = InProcessClient(service)
            client.query("alltoall", 4, 1024)
            reply = client.metrics()
        assert reply["ok"] and reply["op"] == "metrics"
        key = 'service.query_total{collective="alltoall",source="store"}'
        assert reply["metrics"][key]["value"] == 1
        q = reply["quantiles"]["service.query_seconds"]
        assert set(q) == {"p50", "p90", "p99"}
        assert q["p50"] > 0
        # Empty histograms must serialize (no JSON Infinity).
        assert reply["metrics"]["service.batch_seconds"]["min"] is None
        assert reply["uptime_seconds"] >= 0.0

    def test_op_debug_reply(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            client = InProcessClient(service)
            client.query("alltoall", 4, 1024)
            client.query("nope", 4, 8, check=False)
            reply = client.debug()
        assert reply["ok"] and reply["op"] == "debug"
        assert reply["flight"]["slowest"]
        assert reply["flight"]["errors"][0]["error"] == "ConfigurationError"
        assert reply["config"]["cache_size"] == 4096
        assert reply["config"]["store_path"].endswith("tuning.db")
        assert reply["stats"]["queries"] == 2
        assert reply["table_generation"] == 1

    def test_op_stats_enriched(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            client = InProcessClient(service)
            client.query("alltoall", 4, 1024)
            reply = client.stats()
        assert reply["table_generation"] == 1
        assert reply["uptime_seconds"] >= 0.0
        occupancy = reply["flight"]
        assert occupancy["capacity"] == 32
        assert occupancy["slow"] == 1
        assert occupancy["errors"] == 0

    def test_op_stats_reads_the_registry(self, seeded_store):
        """After a mixed sequence, every op:stats field equals its registry
        tally, and refused queries count as queries."""
        with SelectionService(seeded_store, watch_store=False) as service:
            client = InProcessClient(service)
            client.query("alltoall", 0, 8, check=False)         # refused
            client.query("alltoall", 4, 1024)                   # miss
            assert client.stats()["stats"]["queries"] == 2
            client.query("alltoall", 4, 1024)                   # hit
            client.query("alltoall", 4, 1024, "ascending")      # pattern
            client.query("bcast", 16, 1024)                     # fallback
            client.query_batch([
                {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
                {"collective": "alltoall", "comm_size": -1, "msg_bytes": 8},
                {"collective": "alltoall"},                     # malformed
            ])
            assert client.reload()["reloads"] == 1
            stats = client.stats()["stats"]
            snap = service.metrics.snapshot()
        assert stats == {
            "queries": snap["service.query_seconds"]["count"],
            "cache_hits": snap["service.cache_hit_total"]["value"],
            "pattern_hits": snap["service.pattern_hit_total"]["value"],
            "fallbacks": snap["service.fallback_total"]["value"],
            "errors": snap["service.error_total"]["value"],
            "reloads": snap["service.reload_total"]["value"],
        }
        assert stats == {"queries": 7, "cache_hits": 2, "pattern_hits": 1,
                         "fallbacks": 1, "errors": 2, "reloads": 1}
        assert stats["queries"] == sum(
            v["value"] for k, v in snap.items()
            if k.startswith("service.query_total{"))

    def test_batch_and_single_queries_agree(self, seeded_store):
        """The same queries sent singly and as one op:batch give
        byte-identical replies and the same registry tallies; the batch
        adds one service.batch_seconds sample."""
        queries = [
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024},
            {"collective": "alltoall", "comm_size": 4, "msg_bytes": 1024,
             "pattern": "ascending"},
            {"collective": "bcast", "comm_size": 16, "msg_bytes": 8},
            {"collective": "alltoall", "comm_size": 0, "msg_bytes": 8},
            {"collective": "no_such_collective", "comm_size": 4,
             "msg_bytes": 8},
            {"collective": "alltoall", "comm_size": 4},
        ]

        def tallies(service) -> dict:
            snap = service.metrics.snapshot()
            return {k: v.get("value", v.get("count"))
                    for k, v in snap.items()
                    if k.startswith("service.query_total{")
                    or k in ("service.query_seconds",
                             "service.cache_hit_total",
                             "service.fallback_total",
                             "service.pattern_hit_total",
                             "service.error_total")}

        with SelectionService(seeded_store, watch_store=False) as service:
            singles = [encode_reply(handle_request(service, dict(q)))
                       for q in queries]
            single_tallies = tallies(service)
            assert service.metrics.histogram(
                "service.batch_seconds").count == 0
        with SelectionService(seeded_store, watch_store=False) as service:
            reply = handle_request(service, {"op": "batch",
                                             "queries": queries})
            batch_tallies = tallies(service)
            assert service.metrics.histogram(
                "service.batch_seconds").count == 1
            ops = {e["op"] for e in service.flight.dump()["errors"]}
        assert [encode_reply(r) for r in reply["replies"]] == singles
        assert batch_tallies == single_tallies
        assert single_tallies["service.pattern_hit_total"] == 1
        assert single_tallies["service.error_total"] == 2
        assert ops == {"batch-item"}

    def test_ops_answer_over_tcp(self, seeded_store):
        with SelectionService(seeded_store, watch_store=False) as service:
            with SelectionServer(service, port=0) as server:
                host, port = server.address
                with SelectionClient(host, port) as client:
                    client.query("alltoall", 4, 1024)
                    metrics = client.metrics()
                    debug = client.debug()
        assert metrics["quantiles"]["service.query_seconds"]["p99"] > 0
        assert debug["flight"]["slowest"][0]["op"] == "query"


class TestPrometheusEndToEnd:
    """Acceptance: a live scrape of the service registry parses back."""

    def test_scrape_round_trips_labeled_service_metrics(self, seeded_store):
        import urllib.request

        from repro.obs.expose import MetricsHTTPServer, parse_prometheus

        with SelectionService(seeded_store, watch_store=False) as service:
            service.query("alltoall", 4, 1024)
            service.query("alltoall", 4, 1024)
            service.query("scatter", 4, 8)            # fallback source
            with MetricsHTTPServer(service.metrics, port=0) as http:
                host, port = http.address
                text = urllib.request.urlopen(
                    f"http://{host}:{port}/metrics").read().decode()
        families = parse_prometheus(text)
        total = families["repro_service_query_total"]
        assert total["type"] == "counter"
        by_labels = {tuple(sorted(l.items())): v
                     for _n, l, v in total["samples"]}
        assert by_labels[(("collective", "alltoall"),
                          ("source", "store"))] == 2
        assert by_labels[(("collective", "scatter"),
                          ("source", "fallback"))] == 1
        hist = families["repro_service_query_seconds"]
        assert hist["type"] == "histogram"
        counts = [v for n, _l, v in hist["samples"] if n.endswith("_count")]
        assert counts == [3]


    def test_serve_command_scrape_endpoint(self, seeded_store):
        """`repro-mpi serve --metrics-port 0 --json-logs` as a subprocess:
        op:metrics, op:debug, a live /metrics scrape, the serve.start log."""
        import urllib.request

        from repro.obs.expose import parse_prometheus

        server = _serve(seeded_store, "--metrics-port", "0", "--json-logs",
                        stderr=subprocess.PIPE)
        try:
            line = _serving_line(server)
            bound = re.search(r"^serving .* on (\S+):(\d+), "
                              r"metrics on (http://\S+/metrics)$", line)
            assert bound, f"no serving line from repro-mpi serve: {line!r}"
            with SelectionClient(bound.group(1), int(bound.group(2))) as client:
                for msg in (8, 1024, 32768):
                    client.query("alltoall", 16, msg)
                metrics = client.metrics()
                debug = client.debug()
            text = urllib.request.urlopen(bound.group(3),
                                          timeout=10).read().decode()
        finally:
            server.terminate()
            _out, log = server.communicate(timeout=30)
        assert metrics["quantiles"]["service.query_seconds"]["p99"] > 0
        assert debug["flight"]["slowest"], "flight recorder is empty"
        families = parse_prometheus(text)
        total = families["repro_service_query_total"]
        assert any(labels.get("collective") == "alltoall"
                   for _n, labels, _v in total["samples"])
        hist = families["repro_service_query_seconds"]
        assert hist["type"] == "histogram"
        assert any(n.endswith("_count") and v >= 3
                   for n, _l, v in hist["samples"])
        assert '"event":"serve.start"' in log


class TestJsonLoggerAndSignals:
    def test_json_logger_lines_parse_and_carry_run_id(self):
        import io

        from repro.service import JsonLogger

        stream = io.StringIO()
        logger = JsonLogger(stream, run_id="abc123")
        logger.log("serve.start", port=7453)
        logger.log("request.error", error="Boom", seq=4)
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert lines[0]["event"] == "serve.start"
        assert lines[0]["run_id"] == "abc123"
        assert lines[0]["port"] == 7453
        assert lines[1]["seq"] == 4
        assert all("ts" in l for l in lines)

    def test_server_logs_connections_and_errors(self, seeded_store):
        import io

        from repro.service import JsonLogger

        stream = io.StringIO()
        with SelectionService(seeded_store, watch_store=False) as service:
            with SelectionServer(service, port=0,
                                 logger=JsonLogger(stream),
                                 slow_log_seconds=0.0) as server:
                host, port = server.address
                with SelectionClient(host, port) as client:
                    client.query("alltoall", 4, 1024)
                    client.query("nope", 4, 8, check=False)
        events = [json.loads(l) for l in stream.getvalue().splitlines()]
        kinds = [e["event"] for e in events]
        assert "conn.open" in kinds and "conn.close" in kinds
        # slow_log_seconds=0.0 logs every success; the bad query errors.
        assert "request.slow" in kinds
        err = next(e for e in events if e["event"] == "request.error")
        assert err["error"] == "ConfigurationError"
        assert err["seq"] > 0
        close = next(e for e in events if e["event"] == "conn.close")
        assert close["requests"] == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGUSR1"),
                        reason="SIGUSR1 is POSIX-only")
    def test_sigusr1_dumps_flight_recorder(self, seeded_store):
        import io

        from repro.service import install_sigusr1_dump

        service = SelectionService(seeded_store, watch_store=False)
        stream = io.StringIO()
        previous = install_sigusr1_dump(service, stream)
        if previous is None:  # pragma: no cover - non-main-thread runner
            service.close()
            pytest.skip("not on the main thread")
        try:
            service.query("alltoall", 4, 1024)
            os.kill(os.getpid(), signal.SIGUSR1)
            payload = json.loads(stream.getvalue())
            assert payload["op"] == "debug"
            assert payload["flight"]["slowest"]
        finally:
            signal.signal(signal.SIGUSR1, previous)
            service.close()
