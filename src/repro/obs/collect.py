"""Cross-process telemetry: capture a cell's observability state, ship it,
merge it deterministically into the parent session.

With ``--jobs N`` every benchmark cell simulates inside a
``ProcessPoolExecutor`` worker whose interpreter has its own (initially
null) observability context — so before this module existed, every per-rank
arrival span, engine counter, and metric produced in a worker was silently
dropped, and cache-hit cells emitted no telemetry at all.  The fix is a
value object:

* :class:`CellTelemetry` — one cell's complete observability output (spans,
  metrics snapshot, engine-stats aggregate, ring accounting) as plain
  picklable/JSON-serializable data.  Workers run each cell under a fresh
  :func:`repro.obs.session` and return :func:`capture_telemetry` alongside
  the ``BenchResult``; the :class:`~repro.bench.executor.ResultCache`
  persists the payload so cache hits *replay* their stored telemetry (with
  provenance ``"cache_replay"``).
* :func:`merge_telemetry` — folds one payload into the parent session:
  metrics add instrument-wise, engine stats merge into the run aggregate,
  and virtual-time spans are re-recorded under a container span on the
  ``"cells"`` track, **rebased** along the parent's virtual cursor (each
  cell restarts simulated time at zero; tiling them end to end keeps every
  cell readable on one timeline).

Determinism: the executor merges payloads in spec order, cell indices and
the virtual cursor advance identically whether a cell simulated inline, in
a worker, or replayed from cache — so a serial run, a ``--jobs N`` run, and
a warm cache run produce merged traces with identical virtual spans (the
provenance tag is the only difference on replays), and identical
:mod:`repro.obs.analysis` results.

Wall-clock spans captured inside a cell (``bench.cell``, ``sim.run``) stay
in the payload but are *not* merged: worker wall clocks share no epoch with
the parent, and wall timings legitimately differ between serial and
parallel runs — merging them would break trace parity.

* :func:`replay_telemetry` — records a twin run's payload into a session,
  renamed, as the run would have recorded it there.  The executor's reuse
  tier simulates each distinct run once per process
  (:func:`repro.bench.executor.run_cell`): a cell whose run (or whose
  fallback schedule) already ran replays that run's telemetry, so its
  payload, like a cache hit's, reads as if it had simulated.  A proxy
  application run replays its traced session into the enclosing one the
  same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import TraceFormatError
from repro.obs.spans import VIRTUAL

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import ObsContext

#: Track carrying one container span per merged cell.
CELLS_TRACK = "cells"

#: Provenance tags: freshly simulated (inline or worker — deliberately the
#: same tag, so serial and parallel traces stay identical) vs. replayed from
#: the on-disk result cache.
SIMULATED = "simulated"
CACHE_REPLAY = "cache_replay"


@dataclass
class CellTelemetry:
    """One cell's observability output as plain, process-portable data."""

    run_id: str
    provenance: str = SIMULATED
    #: ``Span.to_dict()`` records, ring order (both clock domains).
    spans: list[dict] = field(default_factory=list)
    #: ``MetricsRegistry.snapshot()`` — merges instrument-wise.
    metrics: dict[str, dict] = field(default_factory=dict)
    #: ``EngineStats.to_dict()`` aggregate of the cell's engine runs.
    engine: dict | None = None
    #: Spans the cell's ring buffer evicted before capture.
    dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "provenance": self.provenance,
            "spans": self.spans,
            "metrics": self.metrics,
            "engine": self.engine,
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellTelemetry":
        try:
            return cls(
                run_id=data["run_id"],
                provenance=data["provenance"],
                spans=list(data["spans"]),
                metrics=dict(data["metrics"]),
                engine=data["engine"],
                dropped=int(data["dropped"]),
            )
        except (KeyError, TypeError) as exc:
            raise TraceFormatError(f"CellTelemetry dict missing {exc}") from None

    def tagged(self, provenance: str) -> "CellTelemetry":
        """A copy of this payload with a different provenance tag."""
        return CellTelemetry(
            run_id=self.run_id, provenance=provenance, spans=self.spans,
            metrics=self.metrics, engine=self.engine, dropped=self.dropped,
        )


def capture_telemetry(ctx: "ObsContext",
                      provenance: str = SIMULATED) -> CellTelemetry:
    """Snapshot ``ctx`` (an *enabled* context) into a portable payload."""
    spans = ctx.spans
    return CellTelemetry(
        run_id=ctx.run_id,
        provenance=provenance,
        spans=[s.to_dict() for s in spans] if spans is not None else [],
        metrics=ctx.metrics.snapshot(),
        engine=ctx.engine_stats.to_dict() if ctx.engine_stats is not None else None,
        dropped=spans.dropped if spans is not None else 0,
    )


def merge_telemetry(ctx: "ObsContext", telemetry: CellTelemetry,
                    cell: int | None = None, name: str = "cell",
                    args: dict[str, Any] | None = None) -> int | None:
    """Fold one cell payload into the parent session ``ctx``.

    Metrics and engine stats always merge.  Virtual spans re-record under a
    container span (track :data:`CELLS_TRACK`, named ``name``) whose
    interval covers the cell's rebased extent; parent links are remapped,
    top-level spans parent to the container, and every merged span's args
    gain the ``cell`` index.  Advances ``ctx.merge_cursor`` by the cell's
    virtual extent.  Returns the container span id (``None`` when span
    recording is off).
    """
    ctx.metrics.merge_snapshot(telemetry.metrics)
    if telemetry.engine is not None:
        from repro.sim.engine import EngineStats  # deferred: no obs->engine cycle

        ctx.absorb_engine_stats(EngineStats.from_dict(telemetry.engine))
    recorder = ctx.spans
    if not ctx.record_spans or recorder is None:
        return None
    # A worker ring that overflowed is a truncated payload; surface it in
    # the parent's accounting so exporters warn about it.
    recorder.dropped += telemetry.dropped
    virtual = [s for s in telemetry.spans if s.get("domain") == VIRTUAL]
    offset = ctx.merge_cursor
    extent = max((s["end"] for s in virtual), default=0.0)
    cargs: dict[str, Any] = dict(args or {})
    if cell is not None:
        cargs["cell"] = cell
    cargs["provenance"] = telemetry.provenance
    cargs["cell_run_id"] = telemetry.run_id
    container = recorder.record(name, CELLS_TRACK, offset, offset + extent,
                                domain=VIRTUAL, args=cargs)
    id_map: dict[int, int] = {}
    for span in virtual:
        sargs = dict(span.get("args") or ())
        if cell is not None:
            sargs["cell"] = cell
        parent = span.get("parent_id")
        new_id = recorder.record(
            span["name"], span["track"],
            span["start"] + offset, span["end"] + offset,
            domain=VIRTUAL,
            parent=id_map.get(parent, container),
            args=sargs or None,
        )
        id_map[span["span_id"]] = new_id
    ctx.merge_cursor = offset + extent
    return container


def replay_telemetry(ctx: "ObsContext", telemetry: CellTelemetry,
                     collective: str, twin: str, algorithm: str) -> None:
    """Record a twin run's payload into ``ctx`` for a run of the twin's
    schedule under the name ``algorithm`` (``twin`` itself for a repeat).

    Metrics, engine stats and spans (both clock domains, parent links
    kept, ids shifted past ``ctx``'s own) are copied with ``twin`` swapped
    for ``algorithm`` in the span names, the ``algorithm`` span argument
    and the ``collective.calls.*`` key, which is how the run would have
    recorded them in ``ctx``.
    """
    old_name, new_name = f"{collective}/{twin}", f"{collective}/{algorithm}"
    old_key = f"collective.calls.{collective}.{twin}"
    ctx.metrics.merge_snapshot({
        f"collective.calls.{collective}.{algorithm}" if key == old_key
        else key: snap
        for key, snap in telemetry.metrics.items()})
    if telemetry.engine is not None:
        from repro.sim.engine import EngineStats  # deferred: no obs->engine cycle

        ctx.absorb_engine_stats(EngineStats.from_dict(telemetry.engine))
    recorder = ctx.spans
    if not ctx.record_spans or recorder is None:
        return
    recorder.dropped += telemetry.dropped
    spans = []
    for span in telemetry.spans:
        span = dict(span)
        if span["name"] == old_name:
            span["name"] = new_name
        args = span.get("args")
        if args and args.get("algorithm") == twin:
            span["args"] = {**args, "algorithm": algorithm}
        spans.append(span)
    recorder.extend(spans)


__all__ = [
    "CELLS_TRACK",
    "SIMULATED",
    "CACHE_REPLAY",
    "CellTelemetry",
    "capture_telemetry",
    "merge_telemetry",
    "replay_telemetry",
]
