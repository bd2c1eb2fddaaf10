"""Exporters: Chrome/Perfetto ``trace_event`` JSON and a JSONL event stream.

Both exporters serialize one :class:`~repro.obs.context.ObsContext` and
stamp its deterministic run ID, so artifacts from the same run correlate
and re-runs of the same configuration produce comparable files.

Perfetto / chrome://tracing
---------------------------
:func:`export_perfetto` writes the ``trace_event`` JSON object format
(loadable at https://ui.perfetto.dev or ``chrome://tracing``).  The two
clock domains become two *processes*:

* pid 1 — "virtual time": one thread (track) per simulated rank, so the
  per-rank arrival/exit structure of a collective reads directly off the
  timeline.
* pid 2 — "wall clock": harness stages (benchmark cells, executor batches,
  campaign phases).

Spans are complete events (``"ph": "X"``, microsecond ``ts``/``dur``);
explicit ``span_id``/``parent_id`` links ride in ``args``.  Thread-name
and sort-index metadata events order rank tracks numerically.

JSONL stream
------------
:func:`export_jsonl` writes a self-describing line stream: a header object,
one object per span, one per fabric-link record (``record_links=True``
sessions), one per metric, the engine-stats aggregate, and a trailer with
ring-buffer accounting (recorded vs. dropped spans and link records) so a
truncated trace is detectable.  :func:`read_jsonl` loads it back.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import TraceFormatError
from repro.obs.spans import VIRTUAL, WALL, Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import ObsContext

_JSONL_MAGIC = "repro-obs"
_JSONL_VERSION = 1

#: Perfetto process ids per clock domain.
_PID = {VIRTUAL: 1, WALL: 2}
_PROCESS_NAMES = {
    VIRTUAL: "virtual time (simulated ranks)",
    WALL: "wall clock (harness)",
}

_NUM_RE = re.compile(r"(\d+)")


def _natural_key(track: str) -> tuple:
    """Sort key ordering ``rank 2`` before ``rank 10``."""
    return tuple(int(part) if part.isdigit() else part
                 for part in _NUM_RE.split(track))


def _track_ids(spans: list[Span]) -> dict[tuple[str, str], int]:
    """Assign a stable tid per (domain, track), naturally ordered per domain."""
    by_domain: dict[str, set[str]] = {}
    for span in spans:
        by_domain.setdefault(span.domain, set()).add(span.track)
    tids: dict[tuple[str, str], int] = {}
    for domain, tracks in by_domain.items():
        for tid, track in enumerate(sorted(tracks, key=_natural_key)):
            tids[(domain, track)] = tid
    return tids


def trace_events(ctx: "ObsContext") -> list[dict]:
    """The ``traceEvents`` list for ``ctx`` (metadata + complete events)."""
    spans = list(ctx.spans) if ctx.spans is not None else []
    tids = _track_ids(spans)
    events: list[dict] = []
    seen_domains = {domain for domain, _track in tids}
    for domain in (VIRTUAL, WALL):
        if domain in seen_domains:
            events.append({
                "ph": "M", "name": "process_name", "pid": _PID[domain], "tid": 0,
                "args": {"name": _PROCESS_NAMES[domain]},
            })
    for (domain, track), tid in sorted(tids.items(), key=lambda kv: kv[1]):
        pid = _PID[domain]
        events.append({
            "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": track},
        })
        events.append({
            "ph": "M", "name": "thread_sort_index", "pid": pid, "tid": tid,
            "args": {"sort_index": tid},
        })
    for span in spans:
        args: dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.args:
            args.update(span.args)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.domain,
            "pid": _PID[span.domain],
            "tid": tids[(span.domain, span.track)],
            "ts": span.start * 1e6,       # trace_event timestamps are in us
            "dur": span.duration * 1e6,
            "args": args,
        })
    return events


def export_perfetto(path: str | Path, ctx: "ObsContext") -> Path:
    """Write ``ctx`` as Perfetto-loadable ``trace_event`` JSON."""
    path = Path(path)
    dropped = ctx.spans.dropped if ctx.spans is not None else 0
    links = getattr(ctx, "links", None)
    other: dict[str, Any] = {
        "run_id": ctx.run_id,
        "dropped_spans": dropped,
        **{str(k): v for k, v in ctx.meta.items()},
    }
    if links is not None:
        # Perfetto has no native port-utilization track; the raw link
        # records ride along in otherData so analyses loaded from the
        # Perfetto file keep the fabric view.
        other["links"] = links.to_dicts()
        other["dropped_links"] = links.dropped
    payload = {
        "traceEvents": trace_events(ctx),
        "displayTimeUnit": "ms",
        "otherData": other,
    }
    path.write_text(json.dumps(payload))
    return path


def metrics_payload(ctx: "ObsContext") -> dict:
    """The metrics snapshot of ``ctx`` as one JSON-serializable object.

    Absorbs all three legacy silos: the metrics registry (executor/cache
    counters, per-collective call counts, histograms), the run-scoped
    engine-stats aggregate, and span-buffer accounting.
    """
    engine = ctx.engine_stats
    spans = ctx.spans
    links = getattr(ctx, "links", None)
    return {
        "run_id": ctx.run_id,
        "meta": {str(k): v for k, v in ctx.meta.items()},
        "metrics": ctx.metrics.snapshot(),
        "engine": engine.to_dict() if engine is not None else None,
        "spans": {
            "recorded": len(spans) if spans is not None else 0,
            "dropped": spans.dropped if spans is not None else 0,
        },
        "links": {
            "recorded": len(links) if links is not None else 0,
            "dropped": links.dropped if links is not None else 0,
        },
    }


def export_metrics(path: str | Path, ctx: "ObsContext") -> Path:
    """Write :func:`metrics_payload` as indented JSON."""
    path = Path(path)
    path.write_text(json.dumps(metrics_payload(ctx), indent=2))
    return path


def export_jsonl(path: str | Path, ctx: "ObsContext") -> Path:
    """Write ``ctx`` as a self-describing JSONL event stream."""
    path = Path(path)
    spans = ctx.spans
    links = getattr(ctx, "links", None)
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "magic": _JSONL_MAGIC,
            "version": _JSONL_VERSION,
            "run_id": ctx.run_id,
            "meta": {str(k): v for k, v in ctx.meta.items()},
        }) + "\n")
        if spans is not None:
            for span in spans:
                fh.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        if links is not None:
            for rec in links.to_dicts():
                fh.write(json.dumps({"type": "link", **rec}) + "\n")
        for name, snap in ctx.metrics.snapshot().items():
            fh.write(json.dumps({"type": "metric", "name": name, **snap}) + "\n")
        if ctx.engine_stats is not None:
            fh.write(json.dumps({"type": "engine",
                                 **ctx.engine_stats.to_dict()}) + "\n")
        fh.write(json.dumps({
            "type": "end",
            "spans": len(spans) if spans is not None else 0,
            "dropped": spans.dropped if spans is not None else 0,
            "links": len(links) if links is not None else 0,
            "dropped_links": links.dropped if links is not None else 0,
        }) + "\n")
    return path


def read_jsonl(path: str | Path) -> dict:
    """Load a JSONL stream back into plain dicts.

    Returns ``{"header", "spans", "links", "metrics", "engine", "end"}`` —
    the spans and fabric-link records as lists of dicts, the metrics keyed
    by name.  Raises :class:`~repro.errors.TraceFormatError` on malformed
    input.
    """
    path = Path(path)
    lines = _read_text(path).splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: empty obs stream")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: bad header: {exc}") from None
    if not isinstance(header, dict) or header.get("magic") != _JSONL_MAGIC:
        raise TraceFormatError(f"{path}: not a repro-obs stream")
    if header.get("version") != _JSONL_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported version {header.get('version')}"
        )
    out: dict[str, Any] = {"header": header, "spans": [], "links": [],
                           "metrics": {}, "engine": None, "end": None}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            kind = obj.pop("type")
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError) as exc:
            raise TraceFormatError(f"{path}:{lineno}: bad event: {exc}") from None
        if kind == "span":
            out["spans"].append(obj)
        elif kind == "link":
            out["links"].append(obj)
        elif kind == "metric":
            name = obj.pop("name", None)
            if not isinstance(name, str):
                raise TraceFormatError(f"{path}:{lineno}: metric without a name")
            out["metrics"][name] = obj
        elif kind == "engine":
            out["engine"] = obj
        elif kind == "end":
            out["end"] = obj
        else:
            raise TraceFormatError(f"{path}:{lineno}: unknown event type {kind!r}")
    if out["end"] is None:
        raise TraceFormatError(f"{path}: truncated stream (no end record)")
    return out


def _read_text(path: Path) -> str:
    """``path``'s text; a file that cannot be read or decoded raises
    :class:`~repro.errors.TraceFormatError` naming it."""
    try:
        return path.read_text()
    except OSError as exc:
        raise TraceFormatError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not a text file: {exc}") from None


def read_json(path: str | Path) -> Any:
    """Parse an exported JSON file (a Perfetto trace or a metrics snapshot).

    Raises :class:`~repro.errors.TraceFormatError` naming ``path`` when the
    file cannot be read or is not JSON.
    """
    try:
        return json.loads(_read_text(Path(path)))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid JSON: {exc}") from None


def load_perfetto(path: str | Path) -> dict:
    """Parse an exported Perfetto JSON file (validation helper)."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise TraceFormatError(f"{path}: no traceEvents key")
    return payload


def dropped_span_warning(ctx: "ObsContext") -> str | None:
    """A loud one-line warning when a session ring buffer overflowed.

    Covers both the span ring and the fabric-link ring.  Returns ``None``
    when nothing was dropped.  Exporter callers (the CLI, the HTML report)
    surface this so a truncated trace is never mistaken for a complete
    one — every analysis derived from it may be missing the *oldest*
    records.
    """
    parts: list[str] = []
    spans = ctx.spans
    if spans is not None and spans.dropped:
        parts.append(f"{spans.dropped} span(s) dropped "
                     f"(capacity {spans.capacity})")
    links = getattr(ctx, "links", None)
    if links is not None and links.dropped:
        parts.append(f"{links.dropped} link record(s) dropped "
                     f"(capacity {links.capacity})")
    if not parts:
        return None
    return (
        f"WARNING: trace buffer overflowed: {'; '.join(parts)}; the trace "
        f"and everything derived from it are incomplete — raise the "
        f"capacity or narrow the run"
    )


def rank_tracks(trace: dict) -> list[str]:
    """Names of the per-rank virtual-time tracks in a loaded Perfetto trace."""
    return sorted(
        (ev["args"]["name"] for ev in trace["traceEvents"]
         if ev.get("ph") == "M" and ev.get("name") == "thread_name"
         and ev.get("pid") == _PID[VIRTUAL]
         and str(ev["args"].get("name", "")).startswith("rank ")),
        key=_natural_key,
    )


__all__ = [
    "trace_events",
    "export_perfetto",
    "export_metrics",
    "metrics_payload",
    "export_jsonl",
    "read_jsonl",
    "read_json",
    "load_perfetto",
    "dropped_span_warning",
    "rank_tracks",
]
