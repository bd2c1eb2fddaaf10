"""The concurrent selection service: store-backed, cached, hot-reloadable.

A :class:`SelectionService` answers the paper's runtime question — *which
algorithm for this* ``(collective, comm_size, msg_bytes, pattern?)`` — from
a persistent :class:`~repro.store.TuningStore`:

* **Warm start**: on construction the strategy table and the per-pattern
  best-pick tables load from the store into memory; queries never touch
  SQLite on the hot path.
* **Lock-protected LRU cache**: resolved replies cache under one lock
  (:meth:`query_batch` amortizes it over many lookups), so the concurrent
  throughput floor is a dict probe, not a table walk.
* **Graceful degradation**: a query no stored rule covers falls back to
  the Open MPI fixed decision logic
  (:func:`repro.collectives.tuned.fixed_decision`) and says so in the
  reply's ``source`` field; only a collective *nobody* knows raises.
* **Hot reload**: when the store file (or its WAL sidecar) changes on
  disk, the next query reloads the tables and drops the cache;
  :meth:`reload` does the same on demand (the server wires it to SIGHUP).

Telemetry is always on: every service owns a live
:class:`~repro.obs.metrics.MetricsRegistry` (:attr:`SelectionService.metrics`)
that exists independently of any run-scoped :func:`repro.obs.session` —
``service.query_total{collective,source}`` (labeled per query coordinate
and resolve layer), ``service.cache_hit_total``,
``service.fallback_total``, ``service.reload_total``,
``service.error_total``, the ``service.query_seconds`` per-query latency
histogram (p50/p99 via :meth:`~repro.obs.metrics.Histogram.quantile`),
the ``service.batch_seconds`` whole-batch histogram, and the
``service.cache_entries`` gauge.  The registry feeds ``op:metrics`` on
the wire protocol and the ``--metrics-port`` Prometheus scrape endpoint;
the coarse process-local tallies remain on
:attr:`SelectionService.stats`.  A bounded
:class:`~repro.service.flight.FlightRecorder` keeps the K slowest and
erroring requests for ``op:debug`` and SIGUSR1 dumps.
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock
from typing import TYPE_CHECKING, Any, Sequence

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.service.flight import DEFAULT_CAPACITY, FlightRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.selection.table import SelectionTable
    from repro.store import TuningStore

#: ``source`` values a reply can carry.
SOURCE_PATTERN = "store:pattern"   # per-pattern best pick from the store
SOURCE_STORE = "store"             # the strategy-built rule table
SOURCE_FALLBACK = "fallback"       # Open MPI fixed decision logic


@dataclass
class ServiceStats:
    """Coarse process-local tallies (the fine-grained, labeled view lives
    on :attr:`SelectionService.metrics`)."""

    queries: int = 0
    cache_hits: int = 0
    pattern_hits: int = 0
    fallbacks: int = 0
    errors: int = 0
    reloads: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "pattern_hits": self.pattern_hits,
            "fallbacks": self.fallbacks,
            "errors": self.errors,
            "reloads": self.reloads,
        }


@dataclass
class _Tables:
    """One immutable generation of loaded lookup state.

    Reload swaps the whole generation atomically (one reference write), so
    in-flight queries never see a half-loaded mix of old and new rules.
    """

    table: "SelectionTable | None" = None
    pattern_tables: dict[str, "SelectionTable"] = field(default_factory=dict)
    mtime: float = 0.0
    #: Monotonically increasing load counter (1 = the warm-start load);
    #: surfaced in ``op:stats`` so clients can detect a reload happened.
    generation: int = 0


class SelectionService:
    """Concurrent query front-end over a tuning store (see module docstring).

    ``store`` may be a :class:`~repro.store.TuningStore`, a path, or
    ``None`` (then ``table`` must carry the rules and hot reload is off).
    ``cache_size`` bounds the reply LRU; ``fallback=False`` turns a rule
    miss into a :class:`ConfigurationError` instead of a fixed-decision
    answer; ``reload_interval`` throttles the store-mtime stat (seconds,
    0 checks on every query).  ``exclude_suspect`` (default on) refuses to
    serve rules whose every backing cell is lint-flagged suspect (see
    :mod:`repro.lint`); such queries get the fixed-decision fallback,
    source-tagged as usual.  ``flight_capacity`` bounds the slow-query
    flight recorder (slots per buffer, see
    :class:`~repro.service.flight.FlightRecorder`).
    """

    #: Max distinct (collective, source) label pairs before new ones
    #: collapse into "<other>" (see :meth:`_record_query`).
    _LABEL_CAP = 64

    def __init__(self, store: "TuningStore | str | Path | None" = None, *,
                 table: "SelectionTable | None" = None,
                 cache_size: int = 4096,
                 fallback: bool = True,
                 watch_store: bool = True,
                 reload_interval: float = 1.0,
                 exclude_suspect: bool = True,
                 flight_capacity: int = DEFAULT_CAPACITY) -> None:
        if store is None and table is None:
            raise ConfigurationError("service needs a store or a table")
        if cache_size < 1:
            raise ConfigurationError(f"cache_size must be >= 1, got {cache_size}")
        self._store = None
        self._owns_store = False
        if store is not None:
            from repro.store import open_store

            self._store, self._owns_store = open_store(store)
        self._explicit_table = table
        self.exclude_suspect = bool(exclude_suspect)
        self.cache_size = int(cache_size)
        self.fallback = bool(fallback)
        self.watch_store = bool(watch_store) and self._store is not None
        self.reload_interval = float(reload_interval)
        self.stats = ServiceStats()
        #: Service-scoped live registry — always on, independent of any
        #: run-scoped obs session (see module docstring for the schema).
        self.metrics = MetricsRegistry()
        self.flight = FlightRecorder(flight_capacity)
        self.started_wall = time.time()
        self._started_monotonic = time.monotonic()
        # Hot-path instruments, pre-resolved so a query costs dict probes
        # and attribute bumps, never metric-key construction.
        self._h_query = self.metrics.histogram("service.query_seconds")
        self._h_batch = self.metrics.histogram("service.batch_seconds")
        self._c_cache_hit = self.metrics.counter("service.cache_hit_total")
        self._c_fallback = self.metrics.counter("service.fallback_total")
        self._c_reload = self.metrics.counter("service.reload_total")
        self._c_error = self.metrics.counter("service.error_total")
        self._g_cache_entries = self.metrics.gauge("service.cache_entries")
        self._query_counters: dict[tuple[str, str], Any] = {}
        self._lock = Lock()
        self._cache: OrderedDict[tuple, dict] = OrderedDict()
        self._last_check = time.monotonic()
        self._generation = 0
        self._tables = self._load()

    # -- lifecycle ------------------------------------------------------- #

    def close(self) -> None:
        if self._store is not None and self._owns_store:
            self._store.close()

    def __enter__(self) -> "SelectionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def strategy(self) -> str:
        """Strategy name of the active rule table ('' when fallback-only)."""
        table = self._tables.table
        return table.strategy_name if table is not None else ""

    @property
    def table_generation(self) -> int:
        """Load counter of the active table generation (1 = warm start)."""
        return self._tables.generation

    @property
    def store_path(self) -> str | None:
        """Filesystem path of the backing store (None when table-only)."""
        return str(self._store.path) if self._store is not None else None

    def uptime_seconds(self) -> float:
        """Seconds since this service instance was constructed."""
        return time.monotonic() - self._started_monotonic

    def cache_len(self) -> int:
        with self._lock:
            return len(self._cache)

    # -- loading and reloading ------------------------------------------- #

    def _load(self) -> _Tables:
        """Build one fresh generation of lookup tables."""
        from repro.errors import StoreError

        self._generation += 1
        if self._store is None:
            return _Tables(table=self._explicit_table,
                           generation=self._generation)
        try:
            table = self._store.load_table(
                exclude_suspect=self.exclude_suspect)
        except StoreError:
            # A store with no rules yet (e.g. a campaign still running) —
            # or one whose rules all derive from lint-flagged cells — is
            # served entirely by the fallback until clean rules appear.
            table = self._explicit_table
        return _Tables(table=table,
                       pattern_tables=self._store.load_pattern_tables(
                           exclude_suspect=self.exclude_suspect),
                       mtime=self._store.mtime(),
                       generation=self._generation)

    def reload(self) -> None:
        """Reload tables from the store and drop the reply cache."""
        tables = self._load()
        with self._lock:
            self._tables = tables
            self._cache.clear()
            self.stats.reloads += 1
        self._c_reload.inc()

    def _maybe_reload(self) -> None:
        if not self.watch_store:
            return
        now = time.monotonic()
        if now - self._last_check < self.reload_interval:
            return
        self._last_check = now
        if self._store.mtime() != self._tables.mtime:
            self.reload()

    # -- queries --------------------------------------------------------- #

    def query(self, collective: str, comm_size: int, msg_bytes: float,
              pattern: str | None = None) -> dict:
        """Resolve one selection query; returns the reply dict.

        Reply fields: the echoed coordinates plus ``algorithm``, ``source``
        (one of ``store:pattern`` / ``store`` / ``fallback``), and
        ``strategy`` (the rule table's name, '' for fallback answers).
        Raises :class:`ConfigurationError` for invalid coordinates or when
        no layer — store, pattern table, or fallback — can answer.
        """
        started = time.perf_counter()
        source: str | None = None
        cache_hit = False
        error: BaseException | None = None
        try:
            key = self._validate(collective, comm_size, msg_bytes, pattern)
            self._maybe_reload()
            with self._lock:
                self.stats.queries += 1
                reply = self._cache.get(key)
                if reply is not None:
                    self._cache.move_to_end(key)
                    self.stats.cache_hits += 1
                    cache_hit = True
                else:
                    reply = self._resolve(*key)
                    self._cache[key] = reply
                    if len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                self._g_cache_entries.set(len(self._cache))
                source = reply["source"]
                return dict(reply)
        except Exception as exc:
            self.stats.errors += 1
            error = exc
            raise
        finally:
            self._record_query(
                "query", time.perf_counter() - started, collective, source,
                cache_hit, error,
                (collective, comm_size, msg_bytes, pattern))

    def query_batch(self, queries: Sequence[dict]) -> list[dict]:
        """Resolve many queries with one reload check and one lock pass.

        Each entry is a dict of :meth:`query` keyword arguments.  The
        batch is all-or-nothing for *validation* errors (the wire layer
        degrades per-item instead — see
        :func:`repro.service.server.handle_request`).  Latency accounting:
        ``service.query_seconds`` receives one strictly per-query sample
        per item (its resolve time under the lock), and the whole batch —
        validation, reload check, lock acquisition — lands in
        ``service.batch_seconds``.
        """
        started = time.perf_counter()
        keys = [self._validate(q.get("collective"), q.get("comm_size"),
                               q.get("msg_bytes"), q.get("pattern"))
                for q in queries]
        self._maybe_reload()
        replies: list[dict] = []
        hits = 0
        with self._lock:
            self.stats.queries += len(keys)
            for key in keys:
                item_started = time.perf_counter()
                reply = self._cache.get(key)
                if reply is not None:
                    self._cache.move_to_end(key)
                    hits += 1
                    cache_hit = True
                else:
                    reply = self._resolve(*key)
                    self._cache[key] = reply
                    if len(self._cache) > self.cache_size:
                        self._cache.popitem(last=False)
                    cache_hit = False
                replies.append(dict(reply))
                self._record_query(
                    "batch-item", time.perf_counter() - item_started,
                    key[0], reply["source"], cache_hit, None, key)
            self._g_cache_entries.set(len(self._cache))
            self.stats.cache_hits += hits
        self._h_batch.observe(time.perf_counter() - started)
        return replies

    def _record_query(self, op: str, latency: float, collective,
                      source: str | None, cache_hit: bool,
                      error: BaseException | None, coords: tuple) -> None:
        """Per-query telemetry: latency histogram, labeled counter, flight."""
        self._h_query.observe(latency)
        if cache_hit:
            self._c_cache_hit.inc()
        if error is not None:
            self._c_error.inc()
        # Cardinality guard: non-string collectives collapse into one
        # "<invalid>" series instead of minting a label per garbage
        # request, and once _LABEL_CAP distinct (collective, source) pairs
        # exist, new pairs collapse into "<other>" — a client spraying
        # unique collective names cannot grow the registry unboundedly.
        label = (collective if isinstance(collective, str) else "<invalid>",
                 source or "error")
        counter = self._query_counters.get(label)
        if counter is None:
            if len(self._query_counters) >= self._LABEL_CAP:
                label = ("<other>", label[1])
                counter = self._query_counters.get(label)
            if counter is None:
                counter = self.metrics.counter(
                    "service.query_total",
                    {"collective": label[0], "source": label[1]})
                self._query_counters[label] = counter
        counter.inc()
        flight = self.flight
        if error is not None or latency > flight.fast_threshold:
            flight.record(
                op=op, latency=latency,
                request={"collective": str(coords[0]),
                         "comm_size": coords[1], "msg_bytes": coords[2],
                         "pattern": coords[3]},
                source=source, cache_hit=cache_hit,
                error=type(error).__name__ if error is not None else None,
                detail=str(error) if error is not None else None)

    # -- internals ------------------------------------------------------- #

    @staticmethod
    def _validate(collective, comm_size, msg_bytes, pattern) -> tuple:
        """Normalize one query into its cache key, rejecting bad shapes."""
        if not isinstance(collective, str) or not collective:
            raise ConfigurationError(
                f"collective must be a non-empty string, got {collective!r}"
            )
        if isinstance(comm_size, bool) or not isinstance(comm_size, int) \
                or comm_size <= 0:
            raise ConfigurationError(
                f"comm_size must be a positive integer, got {comm_size!r}"
            )
        if isinstance(msg_bytes, bool) \
                or not isinstance(msg_bytes, (int, float)) or msg_bytes < 0:
            raise ConfigurationError(
                f"msg_bytes must be a non-negative number, got {msg_bytes!r}"
            )
        if not math.isfinite(msg_bytes):
            raise ConfigurationError(f"msg_bytes must be finite, got {msg_bytes!r}")
        if pattern is not None and not isinstance(pattern, str):
            raise ConfigurationError(
                f"pattern must be a string or null, got {pattern!r}"
            )
        return collective, comm_size, float(msg_bytes), pattern or None

    def _resolve(self, collective: str, comm_size: int, msg_bytes: float,
                 pattern: str | None) -> dict:
        """Layered lookup (called under the lock, result goes in the cache)."""
        tables = self._tables
        if pattern is not None:
            ptable = tables.pattern_tables.get(pattern)
            if ptable is not None:
                try:
                    algorithm = ptable.lookup(collective, comm_size, msg_bytes)
                except ConfigurationError:
                    pass
                else:
                    self.stats.pattern_hits += 1
                    return self._reply(collective, comm_size, msg_bytes,
                                       pattern, algorithm, SOURCE_PATTERN,
                                       ptable.strategy_name)
        if tables.table is not None:
            try:
                algorithm = tables.table.lookup(collective, comm_size,
                                                msg_bytes)
            except ConfigurationError:
                pass
            else:
                return self._reply(collective, comm_size, msg_bytes, pattern,
                                   algorithm, SOURCE_STORE,
                                   tables.table.strategy_name)
        if self.fallback:
            from repro.collectives.tuned import fixed_decision

            algorithm = fixed_decision(collective, comm_size, msg_bytes)
            self.stats.fallbacks += 1
            self._c_fallback.inc()
            return self._reply(collective, comm_size, msg_bytes, pattern,
                               algorithm, SOURCE_FALLBACK, "")
        raise ConfigurationError(
            f"no rule covers {collective!r} at comm_size={comm_size}, "
            f"msg_bytes={msg_bytes:g} (fallback disabled)"
        )

    @staticmethod
    def _reply(collective, comm_size, msg_bytes, pattern, algorithm, source,
               strategy) -> dict:
        return {
            "collective": collective,
            "comm_size": comm_size,
            "msg_bytes": msg_bytes,
            "pattern": pattern,
            "algorithm": algorithm,
            "source": source,
            "strategy": strategy,
        }


__all__ = [
    "SelectionService",
    "ServiceStats",
    "SOURCE_PATTERN",
    "SOURCE_STORE",
    "SOURCE_FALLBACK",
]
