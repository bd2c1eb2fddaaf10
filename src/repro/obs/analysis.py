"""Trace analysis: compute the paper's quantities straight from spans.

A recorded trace — an in-memory :class:`~repro.obs.context.ObsContext` or
an exported file — already contains everything the paper's evaluation
measures; this module turns spans into those numbers:

* **Per-call delay metrics** (Section II notation): for each collective
  call with per-rank arrivals ``a_i`` and exits ``e_i``,

  - *last delay*    ``d_hat = max(e_i) - max(a_i)`` — completion time seen
    by the last-arriving process, the paper's primary cost metric,
  - *total delay*   ``d_star = max(e_i) - min(a_i)`` — first arrival to
    last exit, the full wall extent of the call,
  - *arrival spread* ``omega = max(a_i) - min(a_i)`` — the process-arrival
    imbalance driving algorithm selection.

* **Arrival-pattern reconstruction** (Section V-A): per-rank average delay
  relative to the first arrival across all calls — the replayable
  *FT-Scenario* (see :meth:`repro.apps.base.IterativeProxyApp.trace`).

* **Imbalance factors**: ``omega / d_hat`` per call (how large the arrival
  spread is relative to the work it delays) and ``omega`` against an
  optional external baseline (the paper's ``kappa = omega / T`` with ``T``
  a balanced-case completion time).

* **Comm-volume matrices**: per ``(src, dst)`` byte and message counts
  from per-message engine spans (``record_messages=True`` sessions).

* **Fabric-link attribution**: from the link records of a
  ``record_links=True`` session (see :mod:`repro.obs.linkstats`),
  per-link utilization totals, contention wait charged per link ×
  collective/algorithm, binned utilization timelines (the weather map's
  raw form), and hotspot ranking.

* **Algorithm phase breakdown**: time per span name on the rank tracks —
  skew waits vs. time inside each collective algorithm.

* **Critical-path extraction**: walk the engine span graph backward from
  the last exit, jumping along the latest-delivered message into its
  sender, attributing every second of ``d_star`` to *compute* (a rank
  holding the path between message events), *link* (a message in flight),
  or *skew* (waiting for the path's origin rank to arrive).  The
  attribution is exact: ``compute + link + skew == d_star``.

Sources
-------
:meth:`TraceAnalysis.from_context` reads a live session;
:meth:`TraceAnalysis.from_file` loads an exported JSONL stream
(bit-exact) or a Perfetto JSON trace (timestamps make a float round trip
through microseconds, so values may differ in the last ulp).  Analyses of
the same run from either source agree because all quantities derive from
the deterministic virtual-time spans.

Merged multi-cell traces (see :mod:`repro.obs.collect`) tag every span
with its ``cell`` index; single-cell traces recorded directly (e.g.
``repro-mpi profile``) have no tag and group under cell ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.errors import TraceFormatError
from repro.obs.export import load_perfetto, read_jsonl
from repro.obs.linkstats import link_name, link_totals
from repro.obs.spans import VIRTUAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import ObsContext
    from repro.patterns.generator import ArrivalPattern

#: Metric instruments measuring *host* time.  They are honest but
#: nondeterministic — two identical runs land different values — so
#: determinism comparisons (trace parity tests, :func:`diff_payloads`)
#: must exclude them.  Everything else in a snapshot is derived from
#: simulated time or event counts and is bit-reproducible.
HOST_TIME_METRICS = frozenset({"executor.cell_seconds"})

#: Dotted payload paths :func:`diff_payloads` skips by default: host-time
#: measurements that legitimately differ between runs of the same config.
DEFAULT_DIFF_IGNORE = (
    "metrics.executor.cell_seconds",
    "engine.wall_seconds",
    "engine.events_per_sec",
)


# --------------------------------------------------------------------------- #
# Value objects
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class CollectiveCall:
    """One collective call reconstructed from per-rank spans.

    ``arrivals``/``exits`` align with ``ranks`` (ascending rank order).
    """

    name: str                 #: span name, ``"{collective}/{algorithm}"``
    cell: int | None          #: merged-cell index (None in single-cell traces)
    rep: int                  #: repetition index within the cell
    ranks: tuple[int, ...]
    arrivals: tuple[float, ...]
    exits: tuple[float, ...]

    @property
    def last_delay(self) -> float:
        """``d_hat = max(e_i) - max(a_i)`` — the paper's primary metric."""
        return max(self.exits) - max(self.arrivals)

    @property
    def total_delay(self) -> float:
        """``d_star = max(e_i) - min(a_i)`` — first arrival to last exit."""
        return max(self.exits) - min(self.arrivals)

    @property
    def arrival_spread(self) -> float:
        """``omega = max(a_i) - min(a_i)`` — the process arrival imbalance."""
        return max(self.arrivals) - min(self.arrivals)

    def delays(self) -> tuple[float, ...]:
        """Per-rank arrival delay relative to the first arrival."""
        first = min(self.arrivals)
        return tuple(a - first for a in self.arrivals)


@dataclass(frozen=True)
class CriticalPath:
    """The longest causally linked chain ending at a call's last exit.

    ``steps`` runs backward in time (last exit first).  The three
    attribution buckets partition ``total`` exactly:

    * ``compute`` — a rank on the path holding between message events,
    * ``link``    — a message in flight (sender post to receiver delivery),
    * ``skew``    — the gap between the call's first arrival and the
      arrival of the rank the path originates on: pure waiting caused by
      the arrival pattern, before the path's origin did any work.
    """

    call: CollectiveCall
    steps: tuple[dict, ...]
    compute: float
    link: float
    skew: float

    @property
    def total(self) -> float:
        """Equals ``call.total_delay`` (and ``compute + link + skew``)."""
        return self.compute + self.link + self.skew


@dataclass(frozen=True)
class CommMatrix:
    """Per-(src, dst) message traffic extracted from engine message spans."""

    ranks: tuple[int, ...]
    #: ``bytes_sent[src][dst]`` — payload bytes delivered src -> dst.
    bytes_sent: dict[int, dict[int, float]] = field(default_factory=dict)
    #: ``messages[src][dst]`` — delivered message count src -> dst.
    messages: dict[int, dict[int, int]] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return sum(v for row in self.bytes_sent.values() for v in row.values())

    @property
    def total_messages(self) -> int:
        return sum(v for row in self.messages.values() for v in row.values())

    def to_dict(self) -> dict:
        """JSON form with string keys, sorted — deterministic."""
        return {
            "ranks": list(self.ranks),
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
            "bytes": {str(s): {str(d): self.bytes_sent[s][d]
                               for d in sorted(self.bytes_sent[s])}
                      for s in sorted(self.bytes_sent)},
            "messages": {str(s): {str(d): self.messages[s][d]
                                  for d in sorted(self.messages[s])}
                         for s in sorted(self.messages)},
        }


# --------------------------------------------------------------------------- #
# The analysis engine
# --------------------------------------------------------------------------- #

def _is_rank_track(track: str) -> bool:
    return track.startswith("rank ")


def _is_msg_track(track: str) -> bool:
    return track.startswith("msgs ")


def _check_span(span: dict, source) -> None:
    """Reject a loaded span the analyses cannot read, naming its file."""
    track = span.get("track")
    if not (isinstance(track, str) and isinstance(span.get("name"), str)
            and isinstance(span.get("start"), (int, float))
            and isinstance(span.get("end"), (int, float))
            and isinstance(span.get("args") or {}, dict)):
        raise TraceFormatError(
            f"{source}: span {span.get('span_id')!r} needs a name, a track, "
            f"a numeric start and end: {span!r}"
        )
    if span["end"] < span["start"]:
        raise TraceFormatError(
            f"{source}: span {span.get('span_id')!r} ends before it starts"
        )
    if _is_rank_track(track):
        try:
            int(track[5:])
        except ValueError:
            raise TraceFormatError(
                f"{source}: bad rank track name {track!r}"
            ) from None


class TraceAnalysis:
    """Computes the paper's metrics from one trace, however it was loaded.

    Construction normalizes the source into a list of plain span dicts
    (virtual domain only — wall-clock spans carry no simulated structure),
    so every method works identically on live contexts, JSONL streams, and
    Perfetto exports.
    """

    def __init__(self, spans: Sequence[dict], run_id: str = "",
                 metrics: dict[str, dict] | None = None,
                 dropped: int = 0,
                 links: Sequence[dict] | None = None,
                 dropped_links: int = 0) -> None:
        self.run_id = run_id
        self.metrics = dict(metrics or {})
        self.dropped = int(dropped)
        self.spans: list[dict] = [
            s for s in spans if s.get("domain", VIRTUAL) == VIRTUAL
        ]
        #: Fabric link records (:data:`repro.obs.linkstats.FIELDS` dicts)
        #: from a ``record_links=True`` session; empty otherwise.
        self.links: list[dict] = list(links or [])
        self.dropped_links = int(dropped_links)
        self._calls: list[CollectiveCall] | None = None

    # -- constructors --------------------------------------------------- #

    @classmethod
    def from_context(cls, ctx: "ObsContext") -> "TraceAnalysis":
        """Analyze a live (enabled) observability context."""
        recorder = ctx.spans
        spans = [s.to_dict() for s in recorder] if recorder is not None else []
        links = ctx.links
        return cls(spans, run_id=ctx.run_id, metrics=ctx.metrics.snapshot(),
                   dropped=recorder.dropped if recorder is not None else 0,
                   links=links.to_dicts() if links is not None else None,
                   dropped_links=links.dropped if links is not None else 0)

    @classmethod
    def from_file(cls, path) -> "TraceAnalysis":
        """Load an exported trace: JSONL stream or Perfetto JSON.

        JSONL round-trips bit-exactly; Perfetto timestamps pass through
        microseconds, so values can differ from the source in the last ulp.
        Malformed input raises :class:`~repro.errors.TraceFormatError`
        naming ``path``.
        """
        try:
            stream = read_jsonl(path)
        except TraceFormatError:
            stream = None
        try:
            if stream is None:
                ana = cls._from_perfetto(load_perfetto(path), str(path))
            else:
                end = stream["end"]
                ana = cls(stream["spans"],
                          run_id=stream["header"].get("run_id", ""),
                          metrics=stream["metrics"],
                          dropped=int(end.get("dropped", 0)),
                          links=stream["links"],
                          dropped_links=int(end.get("dropped_links", 0)))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: malformed trace: {exc!r}") from None
        for s in ana.spans:
            _check_span(s, path)
        return ana

    @classmethod
    def _from_perfetto(cls, payload: dict, source: str) -> "TraceAnalysis":
        tracks: dict[tuple[int, int], str] = {}
        for ev in payload["traceEvents"]:
            if ev.get("ph") == "M" and ev.get("name") == "thread_name":
                tracks[(ev["pid"], ev["tid"])] = str(ev["args"]["name"])
        spans: list[dict] = []
        for ev in payload["traceEvents"]:
            if ev.get("ph") != "X":
                continue
            args = dict(ev.get("args") or {})
            span_id = args.pop("span_id", None)
            parent_id = args.pop("parent_id", None)
            key = (ev.get("pid"), ev.get("tid"))
            spans.append({
                "span_id": span_id,
                "parent_id": parent_id,
                "name": ev["name"],
                "track": tracks.get(key, f"track {key[1]}"),
                "domain": ev.get("cat", VIRTUAL),
                "start": ev["ts"] / 1e6,
                "end": (ev["ts"] + ev.get("dur", 0.0)) / 1e6,
                "args": args or None,
            })
        other = payload.get("otherData") or {}
        return cls(spans, run_id=str(other.get("run_id", source)),
                   dropped=int(other.get("dropped_spans", 0)),
                   links=other.get("links"),
                   dropped_links=int(other.get("dropped_links", 0)))

    # -- collective calls ------------------------------------------------ #

    def calls(self, collective: str | None = None,
              cell: int | None = None) -> list[CollectiveCall]:
        """All reconstructed collective calls, in (cell, rep) order.

        A "call" is the k-th collective span on each rank track of one
        cell — rank tracks record one ``{collective}/{algorithm}`` span per
        repetition, in time order.  Calls not covering every rank of their
        cell (truncated ring buffer) are dropped rather than reported with
        misleading extrema.  Filters: ``collective`` matches the family
        prefix of the span name; ``cell`` selects one merged cell.
        """
        if self._calls is None:
            self._calls = self._reconstruct_calls()
        out = self._calls
        if collective is not None:
            out = [c for c in out if c.name.split("/", 1)[0] == collective]
        if cell is not None:
            out = [c for c in out if c.cell == cell]
        return list(out)

    def _reconstruct_calls(self) -> list[CollectiveCall]:
        per: dict[tuple[Any, int], list[dict]] = {}
        for s in self.spans:
            track = s["track"]
            if not _is_rank_track(track) or "/" not in s["name"]:
                continue
            cell = (s.get("args") or {}).get("cell")
            per.setdefault((cell, int(track[5:])), []).append(s)
        cells: dict[Any, dict[int, list[dict]]] = {}
        for (cell, rank), lst in per.items():
            lst.sort(key=lambda s: (s["start"], s.get("span_id") or 0))
            cells.setdefault(cell, {})[rank] = lst
        calls: list[CollectiveCall] = []
        for cell in sorted(cells, key=lambda c: -1 if c is None else c):
            by_rank = cells[cell]
            ranks = tuple(sorted(by_rank))
            nreps = min(len(v) for v in by_rank.values())
            for rep in range(nreps):
                row = [by_rank[r][rep] for r in ranks]
                calls.append(CollectiveCall(
                    name=row[0]["name"], cell=cell, rep=rep, ranks=ranks,
                    arrivals=tuple(s["start"] for s in row),
                    exits=tuple(s["end"] for s in row),
                ))
        return calls

    # -- paper metrics --------------------------------------------------- #

    def last_delays(self, collective: str | None = None) -> list[float]:
        """``d_hat`` per call (paper's primary cost metric)."""
        return [c.last_delay for c in self.calls(collective)]

    def arrival_pattern(self, collective: str | None = None,
                        name: str = "reconstructed") -> "ArrivalPattern":
        """Section V-A reconstruction: per-rank mean delay vs. first arrival.

        Raises :class:`~repro.errors.TraceFormatError` when the trace holds
        no (matching) collective calls, or calls disagree on rank count.
        """
        import numpy as np

        from repro.patterns.generator import ArrivalPattern

        calls = self.calls(collective)
        if not calls:
            what = f"{collective!r} calls" if collective else "collective calls"
            raise TraceFormatError(f"trace contains no {what}")
        width = len(calls[0].ranks)
        if any(len(c.ranks) != width for c in calls):
            raise TraceFormatError(
                "calls span different rank counts; filter by cell= first"
            )
        rows = np.array([c.delays() for c in calls])
        return ArrivalPattern(name, rows.mean(axis=0))

    def imbalance(self, collective: str | None = None,
                  baseline: float | None = None) -> dict:
        """Arrival-imbalance factors over the (matching) calls.

        * ``spread_over_last_delay`` — mean and max of ``omega / d_hat``
          per call: how large the arrival spread is relative to the
          completion time the last arriver still pays.
        * ``mean_delay_over_last_delay`` — mean per-rank delay normalized
          the same way (less extremum-driven than the spread).
        * ``spread_over_baseline`` — the paper's ``kappa = omega / T``
          when a balanced-case completion time ``T`` is supplied.
        """
        calls = self.calls(collective)
        if not calls:
            raise TraceFormatError("trace contains no collective calls")
        ratios: list[float] = []
        mean_ratios: list[float] = []
        spreads: list[float] = []
        for c in calls:
            spreads.append(c.arrival_spread)
            d = c.last_delay
            if d > 0:
                ratios.append(c.arrival_spread / d)
                mean_ratios.append(
                    (sum(c.delays()) / len(c.ranks)) / d)
        out: dict[str, Any] = {
            "calls": len(calls),
            "mean_arrival_spread": sum(spreads) / len(spreads),
            "max_arrival_spread": max(spreads),
            "spread_over_last_delay": {
                "mean": sum(ratios) / len(ratios) if ratios else 0.0,
                "max": max(ratios) if ratios else 0.0,
            },
            "mean_delay_over_last_delay": {
                "mean": (sum(mean_ratios) / len(mean_ratios)
                         if mean_ratios else 0.0),
            },
        }
        if baseline is not None:
            if baseline <= 0:
                raise TraceFormatError(f"baseline must be > 0, got {baseline}")
            out["spread_over_baseline"] = {
                "mean": out["mean_arrival_spread"] / baseline,
                "max": out["max_arrival_spread"] / baseline,
            }
        return out

    # -- communication structure ----------------------------------------- #

    def message_spans(self, cell: int | None = None) -> list[dict]:
        """Per-message engine spans (``record_messages=True`` sessions)."""
        out = []
        for s in self.spans:
            if s["name"] != "msg" or not _is_msg_track(s["track"]):
                continue
            if cell is not None and (s.get("args") or {}).get("cell") != cell:
                continue
            out.append(s)
        return out

    def comm_matrix(self, cell: int | None = None) -> CommMatrix:
        """Byte/message traffic per (src, dst) pair from message spans."""
        byts: dict[int, dict[int, float]] = {}
        counts: dict[int, dict[int, int]] = {}
        ranks: set[int] = set()
        for s in self.message_spans(cell):
            args = s.get("args") or {}
            src, dst = int(args["src"]), int(args["dst"])
            ranks.update((src, dst))
            row = byts.setdefault(src, {})
            row[dst] = row.get(dst, 0.0) + float(args.get("bytes", 0.0))
            crow = counts.setdefault(src, {})
            crow[dst] = crow.get(dst, 0) + 1
        return CommMatrix(ranks=tuple(sorted(ranks)), bytes_sent=byts,
                          messages=counts)

    def phase_breakdown(self, cell: int | None = None) -> dict[str, dict]:
        """Total time and count per span name on the rank tracks.

        Separates skew waiting (``skew_wait``) from time inside each
        collective algorithm (``{collective}/{algorithm}``) — summed over
        ranks and repetitions, so values are rank-seconds.
        """
        out: dict[str, dict] = {}
        for s in self.spans:
            if not _is_rank_track(s["track"]):
                continue
            if cell is not None and (s.get("args") or {}).get("cell") != cell:
                continue
            agg = out.setdefault(s["name"], {"count": 0, "seconds": 0.0})
            agg["count"] += 1
            agg["seconds"] += s["end"] - s["start"]
        return dict(sorted(out.items()))

    # -- fabric links ------------------------------------------------------ #

    def _link_rows(self, by_activity: bool = False) -> list[dict]:
        """Per-link totals (:func:`~repro.obs.linkstats.link_totals`) as
        rows, per link × activity with ``by_activity``, first-seen order."""
        totals = link_totals(
            ((int(r["port"]), int(r["cls"]), int(r["direction"]), r["start"],
              r["end"], float(r["busy"]), float(r["nbytes"]),
              int(r["messages"]), float(r["wait"]), r.get("activity") or "p2p")
             for r in self.links),
            by_activity)
        rows = []
        for key, (busy, nbytes, messages, wait) in totals.items():
            port, cls, direction = key[:3]
            row = {"port": port, "cls": cls, "direction": direction,
                   "link": link_name(port, cls, direction)}
            if by_activity:
                row["activity"] = key[3]
            row.update(busy=busy, bytes=nbytes, messages=messages, wait=wait)
            rows.append(row)
        return rows

    def link_usage(self) -> list[dict]:
        """Per-link utilization totals from the fabric link records.

        One row per distinct ``(port, cls, direction)`` — busy seconds,
        bytes, message count, and contention-wait seconds summed over the
        whole trace — sorted by that key, so the output is deterministic.
        Empty when the trace was not a ``record_links=True`` session.
        """
        return sorted(self._link_rows(),
                      key=lambda r: (r["port"], r["cls"], r["direction"]))

    def link_attribution(self) -> list[dict]:
        """Contention wait charged per link × collective/algorithm.

        ``wait`` is the seconds traffic sat ready but blocked behind other
        claims of the same port, summed per ``(link, activity)`` where
        ``activity`` is the ``"{collective}/{algorithm}"`` label active at
        claim time (``"p2p"`` for raw point-to-point traffic).  This is
        the "which collective made this link hot" answer: sorted rows,
        heaviest attribution first within each link.
        """
        rows = self._link_rows(by_activity=True)
        rows.sort(key=lambda r: (r["port"], r["cls"], r["direction"],
                                 -r["wait"], -r["busy"], r["activity"]))
        return rows

    def link_hotspots(self, top: int | None = None) -> list[dict]:
        """Links ranked hottest first: by wait, then busy, then key.

        The top entry is *the* congestion hotspot — the port whose FIFO
        queued the most ready-but-blocked traffic.  Ties (e.g. a perfectly
        symmetric exchange) break deterministically on busy seconds and
        then the link key, so exact and hybrid runs of the same case
        agree on the ranking.
        """
        ranked = sorted(
            self.link_usage(),
            key=lambda r: (-r["wait"], -r["busy"],
                           r["port"], r["cls"], r["direction"]),
        )
        return ranked[:top] if top is not None else ranked

    def link_timeline(self, bins: int = 60) -> dict:
        """Binned per-link busy-fraction timeline — the weather map's data.

        Splits the trace's link-record extent into ``bins`` equal slots
        and spreads each record's busy seconds uniformly over the slots
        its ``[start, end]`` interval overlaps (exact for single-message
        records; an even-occupancy approximation for flow-batch
        aggregates, whose envelope spans a whole phase).  Returns
        ``{"t0", "t1", "bin_seconds", "bins", "rows"}`` where each row is
        ``{"port", "cls", "direction", "link", "busy"}`` with ``busy`` a
        per-bin list of busy-fraction floats in ``[0, 1]`` (aggregates can
        exceed 1 when several messages overlap on a flow batch; the
        renderers clamp).  Rows sort by link key.
        """
        if not self.links:
            return {"t0": 0.0, "t1": 0.0, "bin_seconds": 0.0,
                    "bins": bins, "rows": []}
        t0 = min(float(r["start"]) for r in self.links)
        t1 = max(float(r["end"]) for r in self.links)
        width = (t1 - t0) / bins if t1 > t0 else 0.0
        rows: dict[tuple[int, int, int], list[float]] = {}
        for r in self.links:
            key = (int(r["port"]), int(r["cls"]), int(r["direction"]))
            slots = rows.get(key)
            if slots is None:
                rows[key] = slots = [0.0] * bins
            start, end = float(r["start"]), float(r["end"])
            busy = float(r["busy"])
            if width <= 0.0 or end <= start:
                slots[0] += busy
                continue
            # Spread busy over the overlapped bins, proportional to overlap.
            lo = min(int((start - t0) / width), bins - 1)
            hi = min(int((end - t0) / width), bins - 1)
            span = end - start
            for b in range(lo, hi + 1):
                b0, b1 = t0 + b * width, t0 + (b + 1) * width
                overlap = min(end, b1) - max(start, b0)
                if overlap > 0:
                    slots[b] += busy * (overlap / span)
        out_rows = [
            {"port": p, "cls": c, "direction": d, "link": link_name(p, c, d),
             "busy": ([b / width for b in rows[(p, c, d)]] if width > 0
                      else rows[(p, c, d)])}
            for p, c, d in sorted(rows)
        ]
        return {"t0": t0, "t1": t1, "bin_seconds": width, "bins": bins,
                "rows": out_rows}

    # -- critical path ---------------------------------------------------- #

    def critical_path(self, call: CollectiveCall | None = None) -> CriticalPath:
        """Extract the critical path of one call (default: the call with
        the largest ``d_star``; ties break to the earliest call).

        Requires per-message spans (``record_messages=True``); without
        them the whole path degenerates to one compute step on the
        last-exiting rank.  The walk runs backward from the last exit:
        at each step it finds the latest message delivered to the current
        rank (after that rank's arrival), attributes the gap since the
        delivery to *compute*, the message's flight to *link*, and jumps
        to the sender at its post time.  When no earlier message exists,
        the remaining time back to the rank's arrival is compute and the
        gap from the call's first arrival to that rank's arrival is skew.
        """
        if call is None:
            calls = self.calls()
            if not calls:
                raise TraceFormatError("trace contains no collective calls")
            call = max(calls, key=lambda c: c.total_delay)
        arrivals = dict(zip(call.ranks, call.arrivals))
        by_dst: dict[int, list[dict]] = {}
        for s in self.message_spans(call.cell):
            args = s.get("args") or {}
            by_dst.setdefault(int(args["dst"]), []).append(s)
        for lst in by_dst.values():
            lst.sort(key=lambda s: (s["end"], s["start"]))
        exit_i = max(range(len(call.ranks)), key=lambda i: call.exits[i])
        rank = call.ranks[exit_i]
        t = call.exits[exit_i]
        first_arrival = min(call.arrivals)
        steps: list[dict] = []
        compute = link = 0.0
        # Each jump lands strictly earlier, so the walk visits at most one
        # message per step; the bound is a defensive backstop.
        for _ in range(len(self.spans) + len(call.ranks) + 1):
            arrived = arrivals[rank]
            best = None
            for m in reversed(by_dst.get(rank, ())):
                if m["end"] <= t and m["end"] > arrived and m["start"] < t:
                    best = m
                    break
            if best is None:
                compute += t - arrived
                steps.append({"kind": "compute", "rank": rank,
                              "start": arrived, "end": t})
                skew = arrived - first_arrival
                if skew > 0:
                    steps.append({"kind": "skew", "rank": rank,
                                  "start": first_arrival, "end": arrived})
                return CriticalPath(call=call, steps=tuple(steps),
                                    compute=compute, link=link, skew=skew)
            args = best.get("args") or {}
            compute += t - best["end"]
            steps.append({"kind": "compute", "rank": rank,
                          "start": best["end"], "end": t})
            link += best["end"] - best["start"]
            steps.append({"kind": "link", "src": int(args["src"]),
                          "dst": rank, "start": best["start"],
                          "end": best["end"],
                          "bytes": float(args.get("bytes", 0.0))})
            rank = int(args["src"])
            t = best["start"]
            if rank not in arrivals:
                raise TraceFormatError(
                    f"message sender rank {rank} has no arrival span"
                )
        raise TraceFormatError("critical-path walk did not converge")

    # -- deterministic payload -------------------------------------------- #

    def analysis_payload(self) -> dict:
        """Everything above as one deterministic JSON-serializable object.

        Derived purely from virtual-time spans and event counters, so two
        runs of the same configuration — serial, parallel, or cached —
        produce byte-identical payloads (host-time metrics are excluded;
        see :data:`HOST_TIME_METRICS`).
        """
        calls = self.calls()
        payload: dict[str, Any] = {
            "run_id": self.run_id,
            "dropped_spans": self.dropped,
            "dropped_links": self.dropped_links,
            "calls": [
                {
                    "cell": c.cell, "rep": c.rep, "name": c.name,
                    "ranks": len(c.ranks),
                    "last_delay": c.last_delay,
                    "total_delay": c.total_delay,
                    "arrival_spread": c.arrival_spread,
                }
                for c in calls
            ],
            "imbalance": self.imbalance() if calls else None,
            "phases": self.phase_breakdown(),
            "comm": self.comm_matrix().to_dict(),
            "links": {
                "records": len(self.links),
                "usage": self.link_usage(),
                "attribution": self.link_attribution(),
                "hotspots": self.link_hotspots(top=10),
            } if self.links else None,
            "critical_path": None,
            "metrics": {name: snap for name, snap in sorted(self.metrics.items())
                        if name not in HOST_TIME_METRICS},
        }
        if calls and self.message_spans():
            agg = {"compute": 0.0, "link": 0.0, "skew": 0.0, "total": 0.0}
            for c in calls:
                cp = self.critical_path(c)
                agg["compute"] += cp.compute
                agg["link"] += cp.link
                agg["skew"] += cp.skew
                agg["total"] += cp.total
            payload["critical_path"] = agg
        return payload


# --------------------------------------------------------------------------- #
# Payload diffing (the `repro-mpi diff-metrics` engine)
# --------------------------------------------------------------------------- #

def _numeric_leaves(obj: Any, prefix: str = "") -> dict[str, float]:
    out: dict[str, float] = {}
    if isinstance(obj, bool):
        return out
    if isinstance(obj, (int, float)):
        out[prefix] = float(obj)
    elif isinstance(obj, dict):
        for k in obj:
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(_numeric_leaves(obj[k], key))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(_numeric_leaves(v, f"{prefix}[{i}]"))
    return out


def diff_payloads(baseline: dict, candidate: dict,
                  threshold: float = 0.05,
                  ignore: Iterable[str] = DEFAULT_DIFF_IGNORE) -> list[dict]:
    """Compare two analysis/metrics payloads; return thresholded drifts.

    Walks every numeric leaf (dotted path).  A leaf drifts when its
    relative change ``|new - old| / max(|old|, tiny)`` exceeds
    ``threshold``, or when it exists on only one side.  Paths starting
    with any ``ignore`` prefix are skipped (default: host-time
    measurements, which differ between any two runs).  Returns a list of
    ``{"path", "baseline", "candidate", "change", "direction"}`` sorted by
    path — empty means the payloads agree within the threshold.
    """
    ignore = tuple(ignore)
    old = _numeric_leaves(baseline)
    new = _numeric_leaves(candidate)
    drifts: list[dict] = []
    for path in sorted(set(old) | set(new)):
        if any(path == p or path.startswith(p + ".") or path.startswith(p + "[")
               for p in ignore):
            continue
        a, b = old.get(path), new.get(path)
        if a is None or b is None:
            drifts.append({"path": path, "baseline": a, "candidate": b,
                           "change": None,
                           "direction": "added" if a is None else "removed"})
            continue
        if a == b:
            continue
        denom = max(abs(a), 1e-300)
        change = (b - a) / denom
        if abs(change) > threshold:
            drifts.append({
                "path": path, "baseline": a, "candidate": b,
                "change": change,
                "direction": "increase" if change > 0 else "decrease",
            })
    return drifts


__all__ = [
    "HOST_TIME_METRICS",
    "DEFAULT_DIFF_IGNORE",
    "CollectiveCall",
    "CriticalPath",
    "CommMatrix",
    "TraceAnalysis",
    "diff_payloads",
]
