"""Newline-delimited-JSON TCP front-end for the selection service.

Wire protocol (one JSON object per line, both directions)::

    -> {"collective": "alltoall", "comm_size": 16, "msg_bytes": 1024}
    <- {"ok": true, "collective": "alltoall", ..., "algorithm": "pairwise",
        "source": "store", "strategy": "robust_average"}

    -> {"op": "batch", "queries": [{...}, {...}]}
    <- {"ok": true, "op": "batch", "replies": [{"ok": true, ...}, ...]}

    -> {"op": "ping"}        <- {"ok": true, "op": "ping", "version": 1}
    -> {"op": "stats"}       <- {"ok": true, "op": "stats", "stats": {...}}
    -> {"op": "reload"}      <- {"ok": true, "op": "reload", "reloads": N}
    -> {"op": "metrics"}     <- {"ok": true, "op": "metrics",
                                 "metrics": {...}, "quantiles": {...}}
    -> {"op": "debug"}       <- {"ok": true, "op": "debug", "flight": {...},
                                 "stats": {...}, "config": {...}}

``op`` defaults to ``"query"``.  ``op:metrics`` snapshots the service's
live registry and pre-computes p50/p90/p99 for every histogram;
``op:debug`` dumps the slow-query flight recorder with the raw stats and
effective configuration.  Every failure — malformed JSON, a missing
field, an unknown collective — produces a structured error reply
``{"ok": false, "error": "<ExceptionName>", "detail": "..."}`` on the same
line; the connection stays up and the server never crashes on bad input.
In a batch, failures degrade per item.  The one exception is a request
line longer than :data:`MAX_REQUEST_BYTES`: it gets a ``ProtocolError``
reply naming the limit, and then the server closes the connection.

:class:`SelectionServer` is a thread-per-connection
:class:`socketserver.ThreadingTCPServer`; requests on one connection
pipeline (send N lines, read N replies).  ``repro-mpi serve`` wires SIGHUP
to :meth:`~repro.service.core.SelectionService.reload` on top of the
service's own store-mtime watching, and SIGUSR1 to a flight-recorder dump
(:func:`install_sigusr1_dump`).  Pass a :class:`JsonLogger` to get
structured one-line-JSON logs: connection open/close, request errors, and
any request slower than ``slow_log_seconds``, each stamped with a request
sequence number drawn from the flight recorder's counter.
"""

from __future__ import annotations

import json
import signal
import socketserver
import sys
import threading
import time
from typing import TYPE_CHECKING, Any, TextIO

from repro.errors import ReproError, ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.core import SelectionService

#: Bumped when the wire protocol changes incompatibly.
PROTOCOL_VERSION = 1

#: Longest request line the server reads, newline included (a 64-query
#: batch is about 6 KB).  A longer line gets one ProtocolError reply and
#: the connection is closed, since the rest of it cannot be resynchronized.
MAX_REQUEST_BYTES = 1 << 20

#: Fields a query request may carry (plus "op").
_QUERY_FIELDS = ("collective", "comm_size", "msg_bytes", "pattern")


#: Histogram quantiles ``op:metrics`` pre-computes for every histogram.
METRICS_QUANTILES = (("p50", 0.5), ("p90", 0.9), ("p99", 0.99))


def error_reply(exc: BaseException) -> dict:
    """The structured error form of any exception."""
    name = type(exc).__name__ if isinstance(exc, ReproError) else "InternalError"
    return {"ok": False, "error": name, "detail": str(exc)}


class JsonLogger:
    """Thread-safe structured logger: one compact JSON object per line.

    Every record carries ``ts`` (epoch seconds), ``event``, the server's
    ``run_id`` when one was set, plus the caller's fields.  Infinities from
    empty histograms are not a concern here — callers pass plain scalars —
    but keys sort so lines diff cleanly.
    """

    def __init__(self, stream: TextIO | None = None,
                 run_id: str | None = None) -> None:
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self.run_id = run_id

    def log(self, event: str, **fields: Any) -> None:
        record: dict[str, Any] = {"ts": round(time.time(), 6), "event": event}
        if self.run_id:
            record["run_id"] = self.run_id
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"),
                          default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


def metrics_reply(service: "SelectionService") -> dict:
    """The ``op:metrics`` payload: registry snapshot + histogram quantiles."""
    snapshot = service.metrics.snapshot()
    quantiles: dict[str, dict] = {}
    for key, snap in snapshot.items():
        if snap.get("kind") != "histogram":
            continue
        hist = service.metrics.get(key)
        quantiles[key] = {label: hist.quantile(q)
                          for label, q in METRICS_QUANTILES}
        # JSON has no Infinity; an empty histogram's min/max sentinel
        # values must not poison the wire encoding.
        if snap["count"] == 0:
            snap["min"] = snap["max"] = None
    return {"ok": True, "op": "metrics", "metrics": snapshot,
            "quantiles": quantiles,
            "uptime_seconds": service.uptime_seconds()}


def debug_reply(service: "SelectionService") -> dict:
    """The ``op:debug`` payload: flight dump, stats, and configuration."""
    return {
        "ok": True,
        "op": "debug",
        "flight": service.flight.dump(),
        "stats": service.stats.snapshot(),
        "config": {
            "store_path": service.store_path,
            "strategy": service.strategy,
            "fallback": service.fallback,
            "cache_size": service.cache_size,
            "exclude_suspect": service.exclude_suspect,
            "watch_store": service.watch_store,
            "reload_interval": service.reload_interval,
            "flight_capacity": service.flight.capacity,
        },
        "table_generation": service.table_generation,
        "uptime_seconds": service.uptime_seconds(),
    }


def encode_reply(reply: dict) -> bytes:
    """One reply as a compact NDJSON line (the byte-identity unit the
    parity tests compare)."""
    return json.dumps(reply, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def handle_request(service: "SelectionService", request: object) -> dict:
    """Dispatch one decoded request; always returns a reply dict.

    This is the whole protocol: the TCP handler and the in-process client
    both call it, so tests over :class:`~repro.service.client.InProcessClient`
    exercise exactly what the socket serves.
    """
    if not isinstance(request, dict):
        return {"ok": False, "error": "ProtocolError",
                "detail": f"request must be an object, got "
                          f"{type(request).__name__}"}
    op = request.get("op", "query")
    try:
        if op == "query":
            missing = [f for f in ("collective", "comm_size", "msg_bytes")
                       if f not in request]
            if missing:
                return {"ok": False, "error": "ProtocolError",
                        "detail": f"query missing fields {missing}"}
            return {"ok": True,
                    **service.query(**{f: request.get(f)
                                       for f in _QUERY_FIELDS})}
        if op == "batch":
            queries = request.get("queries")
            if not isinstance(queries, list):
                return {"ok": False, "error": "ProtocolError",
                        "detail": "batch needs a 'queries' list"}
            replies = []
            for q in queries:
                replies.append(handle_request(service, {**q, "op": "query"})
                               if isinstance(q, dict)
                               else {"ok": False, "error": "ProtocolError",
                                     "detail": "batch entries must be objects"})
            return {"ok": True, "op": "batch", "replies": replies}
        if op == "ping":
            return {"ok": True, "op": "ping", "version": PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "op": "stats",
                    "stats": service.stats.snapshot(),
                    "cache_entries": service.cache_len(),
                    "strategy": service.strategy,
                    "table_generation": service.table_generation,
                    "uptime_seconds": service.uptime_seconds(),
                    "flight": service.flight.occupancy()}
        if op == "metrics":
            return metrics_reply(service)
        if op == "debug":
            return debug_reply(service)
        if op == "reload":
            service.reload()
            return {"ok": True, "op": "reload",
                    "reloads": service.stats.reloads}
        return {"ok": False, "error": "ProtocolError",
                "detail": f"unknown op {op!r}"}
    except Exception as exc:  # noqa: BLE001 - the wire never crashes
        return error_reply(exc)


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via TCP tests
        logger: JsonLogger | None = self.server.logger
        slow_after = self.server.slow_log_seconds
        peer = "%s:%s" % self.client_address[:2]
        served = 0
        if logger is not None:
            logger.log("conn.open", peer=peer)
        try:
            while line := self.rfile.readline(MAX_REQUEST_BYTES + 1):
                too_long = len(line) > MAX_REQUEST_BYTES
                line = line.strip()
                if not line and not too_long:
                    continue
                started = time.perf_counter()
                if too_long:
                    reply = {"ok": False, "error": "ProtocolError",
                             "detail": f"request line exceeds "
                                       f"{MAX_REQUEST_BYTES} bytes"}
                else:
                    try:
                        request = json.loads(line)
                    except ValueError as exc:
                        reply = {"ok": False, "error": "ProtocolError",
                                 "detail": f"malformed JSON: {exc}"}
                    else:
                        reply = handle_request(self.server.service, request)
                latency = time.perf_counter() - started
                served += 1
                if logger is not None:
                    if not reply.get("ok"):
                        logger.log("request.error", peer=peer,
                                   seq=self.server.service.flight.next_seq(),
                                   error=reply.get("error"),
                                   detail=reply.get("detail"),
                                   latency_ms=round(latency * 1e3, 3))
                    elif latency >= slow_after:
                        logger.log("request.slow", peer=peer,
                                   seq=self.server.service.flight.next_seq(),
                                   op=reply.get("op", "query"),
                                   latency_ms=round(latency * 1e3, 3))
                try:
                    self.wfile.write(encode_reply(reply))
                    self.wfile.flush()
                except (BrokenPipeError, ConnectionResetError):
                    return
                if too_long:
                    return
        finally:
            if logger is not None:
                logger.log("conn.close", peer=peer, requests=served)


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    service: "SelectionService"
    logger: "JsonLogger | None"
    slow_log_seconds: float


class SelectionServer:
    """Serve a :class:`SelectionService` over TCP (NDJSON, one thread per
    connection).  ``port=0`` binds an ephemeral port — read it back from
    :attr:`address`.  ``logger`` turns on structured JSON connection /
    error / slow-request logs; ``slow_log_seconds`` sets the latency above
    which a successful request is logged as ``request.slow``."""

    def __init__(self, service: "SelectionService",
                 host: str = "127.0.0.1", port: int = 0, *,
                 logger: "JsonLogger | None" = None,
                 slow_log_seconds: float = 0.1) -> None:
        self.service = service
        self.logger = logger
        try:
            self._tcp = _TCPServer((host, port), _Handler)
        except OSError as exc:
            raise ServiceError(f"cannot listen on {host}:{port}: {exc}") from None
        self._tcp.service = service
        self._tcp.logger = logger
        self._tcp.slow_log_seconds = float(slow_log_seconds)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The (host, port) actually bound."""
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> "SelectionServer":
        """Serve in a daemon thread (the test/embedding entry point)."""
        self._thread = threading.Thread(target=self._tcp.serve_forever,
                                        name="repro-selection-server",
                                        daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` (the CLI path)."""
        self._tcp.serve_forever()

    def stop(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "SelectionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def install_sighup_reload(service: "SelectionService"):
    """Make SIGHUP hot-reload ``service``; returns the previous handler.

    Only possible from the main thread (a Python signal-module rule);
    callers on other threads should rely on the service's store-mtime
    watching instead.  Returns ``None`` when SIGHUP does not exist or this
    is not the main thread.
    """
    if not hasattr(signal, "SIGHUP"):  # pragma: no cover - non-POSIX
        return None
    if threading.current_thread() is not threading.main_thread():
        return None
    return signal.signal(signal.SIGHUP, lambda _sig, _frame: service.reload())


def install_sigusr1_dump(service: "SelectionService",
                         stream: TextIO | None = None):
    """Make SIGUSR1 dump the flight recorder as JSON; returns the previous
    handler.

    The dump (same payload as ``op:debug``) is written to ``stream``
    (default: stderr) so an operator can inspect the slowest and erroring
    requests of a live server with ``kill -USR1 <pid>`` — no client
    needed.  Returns ``None`` when SIGUSR1 does not exist or this is not
    the main thread (the same rules as :func:`install_sighup_reload`).
    """
    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
        return None
    if threading.current_thread() is not threading.main_thread():
        return None
    out = stream if stream is not None else sys.stderr

    def _dump(_sig, _frame) -> None:
        json.dump(debug_reply(service), out, sort_keys=True, default=str)
        out.write("\n")
        out.flush()

    return signal.signal(signal.SIGUSR1, _dump)


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_REQUEST_BYTES",
    "METRICS_QUANTILES",
    "SelectionServer",
    "JsonLogger",
    "handle_request",
    "encode_reply",
    "error_reply",
    "metrics_reply",
    "debug_reply",
    "install_sighup_reload",
    "install_sigusr1_dump",
]
