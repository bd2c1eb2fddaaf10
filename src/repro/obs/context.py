"""The run-scoped observability context and its disabled-mode null object.

One :class:`ObsContext` scopes everything observability owns — a
:class:`~repro.obs.metrics.MetricsRegistry`, a
:class:`~repro.obs.spans.SpanRecorder`, an engine-stats aggregate, a
deterministic run ID — to one *run* (a CLI invocation, a profile cell, a
test).  The active context travels through a :mod:`contextvars` variable:

* :func:`session` installs a fresh enabled context for a ``with`` block,
* :func:`current` returns the active context — or :data:`NULL_CONTEXT`,
  the shared disabled singleton, when no session is open.

Because the scope is a context variable (not a module global), concurrent
or nested runs each see their own aggregates; because the disabled path is
a null object whose methods are no-ops over shared singletons, instrumented
code needs no ``if obs is not None`` guards and pays near-zero cost when
observability is off.

Determinism guarantee: contexts only *read* simulated clocks and host
wall clocks.  Opening a session never changes simulated results — the
parity tests pin traced and untraced runs bit-for-bit.

Engine-stats aggregation
------------------------
``Engine.run`` reports its :class:`~repro.sim.engine.EngineStats` through
:func:`absorb_engine_stats` after every run.  The active session merges
them into its own run-scoped aggregate (``ctx.engine_stats``); without a
session the report is dropped.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from typing import Any, Iterator

from repro.obs.linkstats import DEFAULT_LINK_CAPACITY, LinkStatsRecorder
from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetricsRegistry
from repro.obs.spans import DEFAULT_CAPACITY, SpanRecorder, rank_track
from repro.obs.runid import make_run_id

#: Shared no-op context manager returned by disabled wall_span calls.
_NULL_CM = nullcontext(None)


class ObsContext:
    """Container for one run's observability state (enabled mode)."""

    __slots__ = ("run_id", "meta", "enabled", "record_spans",
                 "record_messages", "record_links", "metrics", "spans",
                 "links", "engine_stats", "merge_cursor")

    def __init__(self, run_id: str, meta: dict[str, Any],
                 record_spans: bool = True,
                 record_messages: bool = False,
                 record_links: bool = False,
                 span_capacity: int = DEFAULT_CAPACITY,
                 link_capacity: int = DEFAULT_LINK_CAPACITY) -> None:
        self.run_id = run_id
        self.meta = meta
        self.enabled = True
        self.record_spans = record_spans
        #: When True (and spans are on), the engine records one span per
        #: delivered message (sender post to receiver completion) — the raw
        #: material for comm-volume matrices and critical-path extraction
        #: in :mod:`repro.obs.analysis`.  Off by default: per-message spans
        #: are O(messages), which a large sweep would drown in.
        self.record_messages = record_messages
        #: When True, both engines record per-port busy intervals into
        #: ``links`` (fabric utilization and contention; see
        #: :mod:`repro.obs.linkstats`).  Off by default for the same
        #: O(messages) reason as ``record_messages``.
        self.record_links = record_links
        self.metrics: MetricsRegistry = MetricsRegistry()
        self.spans = SpanRecorder(capacity=span_capacity)
        #: Fabric link recorder, or None when link recording is off — the
        #: engine captures this attribute directly, so the disabled-mode
        #: hot-path cost is one None check per message.
        self.links = (LinkStatsRecorder(capacity=link_capacity)
                      if record_links else None)
        #: Run-scoped EngineStats aggregate (lazily typed off the first
        #: absorbed stats object, so this module never imports the engine).
        self.engine_stats: Any = None
        #: Virtual-time offset for the next merged cell payload — owned by
        #: :mod:`repro.obs.collect`, which tiles per-cell traces (each cell
        #: restarts virtual time at zero) end to end along this cursor.
        self.merge_cursor: float = 0.0

    # -- spans ---------------------------------------------------------- #

    def record_vspan(self, name: str, track: str, start: float, end: float,
                     parent: int | None = None,
                     args: dict[str, Any] | None = None) -> int | None:
        """Record a completed virtual-time span (no-op if spans are off)."""
        if not self.record_spans:
            return None
        return self.spans.record(name, track, start, end, parent=parent,
                                 args=args)

    def record_rank_span(self, name: str, rank: int, start: float, end: float,
                         parent: int | None = None,
                         args: dict[str, Any] | None = None) -> int | None:
        """Record a virtual-time span on the canonical per-rank track."""
        if not self.record_spans:
            return None
        return self.spans.record(name, rank_track(rank), start, end,
                                 parent=parent, args=args)

    def wall_span(self, name: str, track: str = "harness",
                  args: dict[str, Any] | None = None):
        """Context manager recording a wall-clock span (nulled if spans off)."""
        if not self.record_spans:
            return _NULL_CM
        return self.spans.wall_span(name, track, args=args)

    # -- engine stats --------------------------------------------------- #

    def absorb_engine_stats(self, stats: Any) -> None:
        """Merge one completed engine run's stats into this run's aggregate."""
        agg = self.engine_stats
        if agg is None:
            self.engine_stats = agg = type(stats)()
        agg.merge(stats)


class NullObsContext:
    """Disabled-mode stand-in: same surface, every method a cheap no-op."""

    __slots__ = ()

    run_id = ""
    meta: dict[str, Any] = {}
    enabled = False
    record_spans = False
    record_messages = False
    record_links = False
    metrics: NullMetricsRegistry = NULL_METRICS
    spans = None
    links = None
    engine_stats = None
    merge_cursor = 0.0

    def record_vspan(self, name: str, track: str, start: float, end: float,
                     parent: int | None = None,
                     args: dict[str, Any] | None = None) -> None:
        return None

    def record_rank_span(self, name: str, rank: int, start: float, end: float,
                         parent: int | None = None,
                         args: dict[str, Any] | None = None) -> None:
        return None

    def wall_span(self, name: str, track: str = "harness",
                  args: dict[str, Any] | None = None):
        return _NULL_CM

    def absorb_engine_stats(self, stats: Any) -> None:
        return None


NULL_CONTEXT = NullObsContext()

_current: ContextVar[ObsContext | NullObsContext] = ContextVar(
    "repro_obs_context", default=NULL_CONTEXT
)


def current() -> ObsContext | NullObsContext:
    """The active observability context (:data:`NULL_CONTEXT` when none)."""
    return _current.get()


@contextmanager
def session(run_id: str | None = None, meta: dict[str, Any] | None = None,
            record_spans: bool = True,
            record_messages: bool = False,
            record_links: bool = False,
            span_capacity: int = DEFAULT_CAPACITY,
            link_capacity: int = DEFAULT_LINK_CAPACITY) -> Iterator[ObsContext]:
    """Open a run-scoped observability session for a ``with`` block.

    ``run_id`` defaults to the deterministic ID of ``meta`` (see
    :mod:`repro.obs.runid`), so re-running the same configuration stamps
    its artifacts identically.  Sessions nest: the inner session shadows
    the outer for its ``with`` block, then the outer resumes.
    """
    meta = dict(meta or {})
    if run_id is None:
        run_id = make_run_id(meta, prefix="run")
    ctx = ObsContext(run_id, meta, record_spans=record_spans,
                     record_messages=record_messages,
                     record_links=record_links,
                     span_capacity=span_capacity,
                     link_capacity=link_capacity)
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


def absorb_engine_stats(stats: Any) -> None:
    """Called by ``Engine.run`` after every run with that run's stats.

    Merges into the active session's run-scoped aggregate (a no-op when no
    session is open).
    """
    _current.get().absorb_engine_stats(stats)


__all__ = [
    "ObsContext",
    "NullObsContext",
    "NULL_CONTEXT",
    "current",
    "session",
    "absorb_engine_stats",
]
