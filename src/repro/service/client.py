"""Clients for the selection service: over TCP and in-process.

Both clients speak the exact same protocol: the TCP client writes NDJSON
lines to a socket; the in-process client JSON-round-trips each request
through :func:`repro.service.server.handle_request` directly, so tests and
embedded callers exercise the wire semantics — validation, structured
errors, reply shape — without a socket.

Replies with ``ok: false`` raise :class:`~repro.errors.ServiceError`
carrying the structured reply (pass ``check=False`` to get the raw reply
instead).
"""

from __future__ import annotations

import json
import socket
from threading import Lock
from typing import TYPE_CHECKING, Sequence

from repro.errors import ServiceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.core import SelectionService


def _check(reply: dict, check: bool) -> dict:
    if check and not reply.get("ok"):
        raise ServiceError(
            f"{reply.get('error', 'Error')}: {reply.get('detail', '')}",
            reply=reply,
        )
    return reply


class _ClientBase:
    """The shared query surface; subclasses implement :meth:`request`."""

    def request(self, payload: dict) -> dict:
        raise NotImplementedError

    def query(self, collective: str, comm_size: int, msg_bytes: float,
              pattern: str | None = None, *, check: bool = True) -> dict:
        payload = {"op": "query", "collective": collective,
                   "comm_size": comm_size, "msg_bytes": msg_bytes}
        if pattern is not None:
            payload["pattern"] = pattern
        return _check(self.request(payload), check)

    def query_batch(self, queries: Sequence[dict], *,
                    check: bool = True) -> list[dict]:
        """One round trip for many queries; returns the per-item replies.

        With ``check=True`` a failed *batch* raises; per-item failures
        surface as ``ok: false`` entries either way (degrade, don't abort).
        """
        reply = _check(self.request({"op": "batch",
                                     "queries": list(queries)}), check)
        return reply["replies"]

    def ping(self) -> dict:
        return _check(self.request({"op": "ping"}), True)

    def stats(self) -> dict:
        return _check(self.request({"op": "stats"}), True)

    def metrics(self) -> dict:
        """Live metrics snapshot with per-histogram p50/p90/p99."""
        return _check(self.request({"op": "metrics"}), True)

    def debug(self) -> dict:
        """Flight-recorder dump plus stats and effective configuration."""
        return _check(self.request({"op": "debug"}), True)

    def reload(self) -> dict:
        return _check(self.request({"op": "reload"}), True)


class SelectionClient(_ClientBase):
    """Blocking NDJSON-over-TCP client (thread-safe; one in-flight request
    at a time per client — open one client per thread for parallelism)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 7453, *,
                 timeout: float = 10.0) -> None:
        self._peer = f"{host}:{port}"
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServiceError(f"cannot connect to {self._peer}: {exc}") from None
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        self._lock = Lock()

    def request(self, payload: dict) -> dict:
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        try:
            with self._lock:
                self._wfile.write(line)
                self._wfile.flush()
                reply = self._rfile.readline()
        except OSError as exc:   # timeouts included
            raise ServiceError(f"request to {self._peer} failed: {exc}") from None
        if not reply:
            raise ServiceError("server closed the connection")
        try:
            return json.loads(reply)
        except ValueError as exc:
            raise ServiceError(f"malformed reply from server: {exc}") from None

    def close(self) -> None:
        for stream in (self._rfile, self._wfile, self._sock):
            try:
                stream.close()
            except OSError:  # pragma: no cover - best effort
                pass

    def __enter__(self) -> "SelectionClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessClient(_ClientBase):
    """Protocol-faithful client bound directly to a service instance."""

    def __init__(self, service: "SelectionService") -> None:
        self.service = service

    def request(self, payload: dict) -> dict:
        from repro.service.server import handle_request

        # The JSON round trip pins wire semantics: only JSON types cross,
        # exactly as over a socket.
        request = json.loads(json.dumps(payload))
        return json.loads(json.dumps(handle_request(self.service, request)))

    def close(self) -> None:
        pass

    def __enter__(self) -> "InProcessClient":
        return self

    def __exit__(self, *exc) -> None:
        pass


__all__ = ["SelectionClient", "InProcessClient"]
