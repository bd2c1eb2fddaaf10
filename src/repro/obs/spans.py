"""Span recording: bounded, dual-clock, with explicit parent links.

A *span* is one named interval on one *track*.  Two clock domains coexist in
a single recorder:

* ``"virtual"`` — simulated seconds.  One track per simulated rank
  (:func:`rank_track`), so per-rank timing structure — arrival/exit skew
  inside a collective, the paper's Fig. 1 — is directly visible when the
  trace is opened in Perfetto or rendered as an ASCII timeline.
* ``"wall"`` — host seconds (``perf_counter`` relative to the recorder's
  creation), for harness stages: benchmark cells, executor batches,
  campaign phases.

Spans are recorded *complete* (both endpoints known) — the natural fit for
a discrete-event simulator, where an interval's timestamps are read off
simulated clocks after the fact.  Parent links are explicit ``span_id``
references: virtual spans pass their parent directly; wall spans recorded
through the :meth:`SpanRecorder.wall_span` context manager nest
automatically via a stack.

The buffer is a bounded ring (default :data:`DEFAULT_CAPACITY` spans): a
runaway instrumented sweep can never exhaust memory.  Overflow drops the
*oldest* spans and counts them in :attr:`SpanRecorder.dropped` — exports
surface that count so a truncated trace is never mistaken for a complete
one.
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterable, Iterator

VIRTUAL = "virtual"
WALL = "wall"

#: Default ring-buffer capacity (spans).  At ~100 bytes per span this bounds
#: the recorder at ~20 MB even under a fully instrumented campaign.
DEFAULT_CAPACITY = 200_000


def rank_track(rank: int) -> str:
    """Canonical track name for a simulated rank."""
    return f"rank {rank}"


def msg_track(rank: int) -> str:
    """Canonical track name for messages *received by* a simulated rank.

    Deliberately not a ``rank ...`` name: message spans overlap freely (any
    number can be in flight toward one rank), so they live beside — not on —
    the rank's span track, and track-per-rank assertions stay unambiguous.
    """
    return f"msgs {rank}"


class Span:
    """One completed interval on one track."""

    __slots__ = ("span_id", "parent_id", "name", "track", "domain",
                 "start", "end", "args")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 track: str, domain: str, start: float, end: float,
                 args: dict[str, Any] | None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.domain = domain
        self.start = start
        self.end = end
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "track": self.track,
            "domain": self.domain,
            "start": self.start,
            "end": self.end,
        }
        if self.args:
            d["args"] = self.args
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Span #{self.span_id} {self.name!r} {self.track} "
                f"[{self.start:.9f}, {self.end:.9f}] {self.domain}>")


class SpanRecorder:
    """Bounded in-memory store of completed spans for one session."""

    __slots__ = ("capacity", "spans", "dropped", "_next_id", "_tracks",
                 "_wall_stack", "wall_epoch")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.spans: deque[Span] = deque(maxlen=capacity)
        #: Spans evicted from the ring by newer ones.
        self.dropped = 0
        self._next_id = 0
        # track name -> first-seen index (stable track ordering for exports).
        self._tracks: dict[str, int] = {}
        # Open wall_span() ids, innermost last (automatic wall nesting).
        self._wall_stack: list[int] = []
        #: Wall timestamps are perf_counter() minus this epoch, so wall
        #: tracks start near zero in exported traces.
        self.wall_epoch = perf_counter()

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def _register_track(self, track: str) -> None:
        if track not in self._tracks:
            self._tracks[track] = len(self._tracks)

    @property
    def tracks(self) -> list[str]:
        """Track names in first-seen order."""
        return sorted(self._tracks, key=self._tracks.get)

    def record(self, name: str, track: str, start: float, end: float,
               domain: str = VIRTUAL, parent: int | None = None,
               args: dict[str, Any] | None = None) -> int:
        """Store one completed span; returns its id (usable as a parent)."""
        self._next_id += 1
        sid = self._next_id
        self._register_track(track)
        if len(self.spans) == self.capacity:
            self.dropped += 1
        self.spans.append(Span(sid, parent, name, track, domain, start, end, args))
        return sid

    def extend(self, records: Iterable[dict]) -> None:
        """Append spans captured from another recorder (``Span.to_dict()``
        records, in its ring order), with ids and parent links shifted past
        this recorder's own; into a fresh recorder they keep their ids."""
        base = self._next_id
        for r in records:
            sid = base + r["span_id"]
            parent = r["parent_id"]
            self._register_track(r["track"])
            if len(self.spans) == self.capacity:
                self.dropped += 1
            self.spans.append(Span(
                sid, None if parent is None else base + parent, r["name"],
                r["track"], r["domain"], r["start"], r["end"], r.get("args")))
            if sid > self._next_id:
                self._next_id = sid

    @contextmanager
    def wall_span(self, name: str, track: str = "harness",
                  args: dict[str, Any] | None = None) -> Iterator[int]:
        """Record a wall-clock span around a ``with`` block.

        Nested ``wall_span`` blocks parent automatically.  Yields the span's
        id so virtual spans created inside can reference it explicitly.
        """
        self._next_id += 1
        sid = self._next_id
        parent = self._wall_stack[-1] if self._wall_stack else None
        self._wall_stack.append(sid)
        start = perf_counter() - self.wall_epoch
        try:
            yield sid
        finally:
            end = perf_counter() - self.wall_epoch
            self._wall_stack.pop()
            self._register_track(track)
            if len(self.spans) == self.capacity:
                self.dropped += 1
            self.spans.append(Span(sid, parent, name, track, WALL, start, end, args))

    def by_track(self, domain: str | None = None) -> dict[str, list[Span]]:
        """Spans grouped by track (optionally one clock domain only),
        each list sorted by start time."""
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            if domain is not None and span.domain != domain:
                continue
            out.setdefault(span.track, []).append(span)
        for spans in out.values():
            spans.sort(key=lambda s: (s.start, s.span_id))
        return out


__all__ = [
    "VIRTUAL",
    "WALL",
    "DEFAULT_CAPACITY",
    "rank_track",
    "msg_track",
    "Span",
    "SpanRecorder",
]
