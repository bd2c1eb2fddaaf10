"""repro.obs — the unified, run-scoped observability layer.

Every layer of the stack plugs into one :class:`ObsContext` per run:

* **metrics** — counters, gauges, and fixed log2-bucket histograms
  (:mod:`repro.obs.metrics`) absorbing the engine's hot-path counters, the
  executor/result-cache hit rates, and per-collective call counts;
* **spans** — virtual-time intervals on one track per simulated rank
  (arrival patterns become literally visible) plus wall-clock intervals
  for harness stages, in a bounded ring buffer (:mod:`repro.obs.spans`);
* **fabric links** — bounded per-port busy-interval records from both
  engines' FIFO port chains, the raw material for per-link utilization,
  contention attribution, and the network weather map
  (:mod:`repro.obs.linkstats`);
* **exporters** — Chrome/Perfetto ``trace_event`` JSON, a JSONL event
  stream, and a metrics snapshot, all stamped with a deterministic run ID
  (:mod:`repro.obs.export`, :mod:`repro.obs.runid`);
* **live exposition** — Prometheus text rendering of any registry
  (labels included), interval windows with rolling rates, and a plain
  HTTP scrape endpoint for long-lived services
  (:mod:`repro.obs.expose`; import it from there, so that importing this
  package, which every simulation does, never loads the HTTP stack);
* **cross-process capture** — per-cell telemetry payloads that pool
  workers and the result cache ship back to the parent session, merged
  deterministically so ``--jobs N`` traces equal serial ones
  (:mod:`repro.obs.collect`);
* **analysis** — the paper's metrics (last delay ``d_hat``, arrival
  spread/imbalance, comm-volume matrices, critical paths) computed
  straight from a context or an exported trace file
  (:mod:`repro.obs.analysis`), plus HTML reporting
  (:mod:`repro.obs.report`).

Usage::

    from repro import obs

    with obs.session(meta={"command": "profile"}) as octx:
        ...  # run simulations; layers record through obs.current()
        obs.export_perfetto("trace.json", octx)

When no session is open, :func:`current` returns the shared disabled
:data:`NULL_CONTEXT` whose methods are allocation-free no-ops — and
instrumentation never changes simulated results either way (pinned by the
parity tests).
"""

from repro.obs.context import (
    NULL_CONTEXT,
    NullObsContext,
    ObsContext,
    absorb_engine_stats,
    current,
    session,
)
from repro.obs.analysis import (
    CollectiveCall,
    CommMatrix,
    CriticalPath,
    HOST_TIME_METRICS,
    TraceAnalysis,
    diff_payloads,
)
from repro.obs.collect import (
    CellTelemetry,
    capture_telemetry,
    merge_telemetry,
)
from repro.obs.export import (
    dropped_span_warning,
    export_jsonl,
    export_metrics,
    export_perfetto,
    load_perfetto,
    metrics_payload,
    rank_tracks,
    read_jsonl,
    trace_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    metric_key,
    parse_metric_key,
)
from repro.obs.linkstats import (
    CLASS_NAMES,
    DEFAULT_LINK_CAPACITY,
    DIRECTION_NAMES,
    FIELDS as LINK_FIELDS,
    LinkStatsRecorder,
    RX,
    TX,
    link_name,
    port_name,
)
from repro.obs.runid import RUN_ID_LEN, make_run_id
from repro.obs.spans import (
    DEFAULT_CAPACITY,
    Span,
    SpanRecorder,
    VIRTUAL,
    WALL,
    msg_track,
    rank_track,
)

__all__ = [
    # context
    "ObsContext",
    "NullObsContext",
    "NULL_CONTEXT",
    "current",
    "session",
    "absorb_engine_stats",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_METRICS",
    "metric_key",
    "parse_metric_key",
    # spans
    "Span",
    "SpanRecorder",
    "VIRTUAL",
    "WALL",
    "DEFAULT_CAPACITY",
    "rank_track",
    "msg_track",
    # fabric links
    "LinkStatsRecorder",
    "DEFAULT_LINK_CAPACITY",
    "CLASS_NAMES",
    "DIRECTION_NAMES",
    "TX",
    "RX",
    "LINK_FIELDS",
    "port_name",
    "link_name",
    # run ids
    "RUN_ID_LEN",
    "make_run_id",
    # export
    "trace_events",
    "export_perfetto",
    "export_metrics",
    "metrics_payload",
    "export_jsonl",
    "read_jsonl",
    "load_perfetto",
    "rank_tracks",
    "dropped_span_warning",
    # cross-process capture
    "CellTelemetry",
    "capture_telemetry",
    "merge_telemetry",
    # analysis
    "TraceAnalysis",
    "CollectiveCall",
    "CommMatrix",
    "CriticalPath",
    "HOST_TIME_METRICS",
    "diff_payloads",
]
