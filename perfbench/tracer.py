"""In-memory span tracer for the traced benchmark run.

The tracer patches public entry points of the ``repro`` layers from the
outside: every module that imported a traced function by name gets the
wrapper (each name is patched where its caller looks it up), and traced
methods are replaced on their class.  No file under ``src/`` changes.

Each span carries a name, start, end and the index of its parent span.
Generator entry points (``run_collective``, ``sync_clocks``,
``harmonize``) are driven step by step by the simulation engine, so a
wall span around them would measure simulated waiting, not host work;
they accumulate the host time of each step instead.  Nested activations
of the same generator count once.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: (name, start, end, parent index or -1)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[int] = []
        self.step_seconds: dict[str, float] = defaultdict(float)
        self._active_steps: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #

    def wrap(self, fn, name, on_result=None):
        """``fn`` recording one span per call.

        ``name`` is a string or a callable of the call's arguments;
        ``on_result(tracer, result)`` sees every return value.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            spans.append((label, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                spans[index] = (label, start, end, spans[index][3])
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """``fn`` (a generator function) with per-step host-time accounting."""
        step_seconds, active = self.step_seconds, self._active_steps

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            method, value = gen.send, None
            while True:
                outer = active[name] == 0
                active[name] += 1
                start = _now()
                try:
                    yielded = method(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    active[name] -= 1
                    if outer:
                        step_seconds[name] += _now() - start
                try:
                    value = yield yielded
                    method = gen.send
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    method, value = gen.throw, exc

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------- #

    def patch_function(self, module_name: str, attr: str, make) -> None:
        """Replace ``module.attr`` in every loaded ``repro`` module that
        holds the same object."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = make(original)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            if getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------- #

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: inclusive seconds (an activation nested inside
        another of the same name counts once) and self seconds (duration
        minus direct children)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            own[name] += (end - start) - child_time[i]
            if not self._has_ancestor_named(i, name):
                inclusive[name] += end - start
        return inclusive, own

    def seconds_within(self, name: str, ancestor: str) -> float:
        """Inclusive seconds of ``name`` spans that run inside an
        ``ancestor`` span."""
        return sum(end - start
                   for i, (n, start, end, _p) in enumerate(self.spans)
                   if n == name and not self._has_ancestor_named(i, name)
                   and self._has_ancestor_named(i, ancestor))

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_durations(self, name: str) -> list[float]:
        """Self time of every span called ``name`` (for per-call medians)."""
        spans = self.spans
        child_time = defaultdict(float)
        for _n, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [(end - start) - child_time[i]
                for i, (n, start, end, _p) in enumerate(spans) if n == name]


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------- #
# The layer entry points
# --------------------------------------------------------------------- #

FIGURES = tuple(f"fig{i}" for i in range(1, 10))
FALLBACK_REASONS = ("hetero", "unknown_spread", "spread", "shared_contention",
                    "no_plan", "vector")


def _on_engine_run(tracer, result) -> None:
    stats = result.engine_stats
    if stats is not None:
        tracer.counts["engine.events"] += stats.events_total
        tracer.counts["engine.deliveries"] += stats.events_deliver
        tracer.counts["engine.wall"] += stats.wall_seconds


def _on_cells(tracer, result) -> None:
    tracer.counts["executor.cells"] += len(result)


def _on_cache_get(tracer, result) -> None:
    tracer.counts["executor.lookups"] += 1
    tracer.counts["executor.hits"] += result is not None


def _on_ingest(tracer, result) -> None:
    tracer.counts["store.ingest.calls"] += 1
    if isinstance(result, tuple):  # ingest_result / ingest_sweep
        tracer.counts["store.offered"] += 1
        tracer.counts["store.new"] += bool(result[1])


def _on_lint(tracer, result) -> None:
    tracer.counts["lint.findings"] += len(result.findings)


def _on_reload(tracer, result) -> None:
    tracer.counts["service.reload.calls"] += 1


def _on_micro(tracer, result) -> None:
    tracer.counts["bench.micro.run.calls"] += 1


def _handle_name(service, request) -> str:
    if isinstance(request, dict) and request.get("op") == "batch":
        return "service.batch"
    return "service.handle"


def install_layers(tracer: Tracer) -> None:
    """Patch every layer entry point the per-layer ledger reads."""
    from repro.apps.base import IterativeProxyApp
    from repro.bench.executor import CellExecutor, ResultCache
    from repro.bench.micro import MicroBenchmark
    from repro.service.client import InProcessClient
    from repro.service.core import SelectionService
    from repro.sim.flow import FlowGate
    from repro.store.tuning_store import TuningStore
    import repro.lint  # noqa: F401 - the campaign imports lint_store lazily

    span = tracer.wrap
    if "repro.cli" in sys.modules:
        tracer.patch_function(
            "repro.cli", "_run_one",
            lambda f: span(f, lambda command, args: f"experiments.{command}"))
    tracer.patch_function(
        "repro.sim.mpi", "run_processes",
        lambda f: span(f, "sim.engine.run", _on_engine_run))
    tracer.patch_function(
        "repro.collectives", "run_collective",
        lambda f: tracer.wrap_generator(f, "collectives.run_collective"))
    for attr in ("make_input", "make_vector_input"):
        tracer.patch_function("repro.collectives", attr,
                              lambda f: span(f, "collectives.inputs"))
    tracer.patch_function(
        "repro.clocks.sync", "sync_clocks",
        lambda f: tracer.wrap_generator(f, "clocks.sync"))
    tracer.patch_function(
        "repro.clocks.harmonize", "harmonize",
        lambda f: tracer.wrap_generator(f, "clocks.harmonize"))
    tracer.patch_function("repro.lint", "lint_store",
                          lambda f: span(f, "lint.lint_store", _on_lint))

    tracer.patch_method(MicroBenchmark, "run",
                        lambda f: span(f, "bench.micro.run", _on_micro))
    tracer.patch_method(IterativeProxyApp, "run", lambda f: span(f, "apps.run"))
    tracer.patch_method(FlowGate, "resolve",
                        lambda f: span(f, "sim.flow.resolve"))
    tracer.patch_method(CellExecutor, "run_cells",
                        lambda f: span(f, "bench.executor.run_cells", _on_cells))
    tracer.patch_method(ResultCache, "get_record",
                        lambda f: span(f, "bench.executor.cache_get",
                                       _on_cache_get))
    tracer.patch_method(ResultCache, "put",
                        lambda f: span(f, "bench.executor.cache_put"))
    for attr in ("ingest_result", "ingest_sweep", "ingest_campaign"):
        tracer.patch_method(TuningStore, attr,
                            lambda f: span(f, "store.ingest", _on_ingest))
    for attr in ("load_table", "load_pattern_tables"):
        tracer.patch_method(TuningStore, attr,
                            lambda f: span(f, "store.load_table"))
    tracer.patch_method(InProcessClient, "request",
                        lambda f: span(f, "service.request"))
    tracer.patch_function(
        "repro.service.server", "handle_request",
        lambda f: span(f, _handle_name))
    tracer.patch_method(SelectionService, "reload",
                        lambda f: span(f, "service.reload", _on_reload))

    samples = tracer.samples

    def make_query(query):
        def traced(service, *args, **kwargs):
            before = service.stats.cache_hits
            start = _now()
            try:
                return query(service, *args, **kwargs)
            finally:
                seconds = _now() - start
                hit = service.stats.cache_hits != before
                samples["service.query.hit" if hit else
                        "service.query.miss"].append(seconds)
        traced.__wrapped__ = query
        return traced

    tracer.patch_method(SelectionService, "query", make_query)


def layer_metrics(tracer: Tracer, passes: int,
                  obs_snapshot: dict[str, dict]) -> dict[str, tuple[float, str]]:
    """The per-layer ledger, per traced pass, as ``{name: (value, unit)}``.

    ``obs_snapshot`` is the metrics snapshot of the observability
    session(s) the traced passes ran in (the ``flow.*`` counters).
    """
    inclusive, own = tracer.totals()
    counts = tracer.counts
    steps = tracer.step_seconds
    n = float(passes)
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, per_pass=True):
        out[name] = (value / n if per_pass else value, unit)

    for fig in FIGURES:
        put(f"experiments.{fig}.s", inclusive.get(f"experiments.{fig}", 0.0), "s")
        put(f"experiments.{fig}.self_s", own.get(f"experiments.{fig}", 0.0), "s")

    engine_s = inclusive.get("sim.engine.run", 0.0)
    generator_s = (steps["collectives.run_collective"] + steps["clocks.sync"]
                   + steps["clocks.harmonize"])
    flow_s = inclusive.get("sim.flow.resolve", 0.0)
    put("sim.engine.run.s", engine_s, "s")
    put("sim.engine.self_s", max(engine_s - generator_s - flow_s, 0.0), "s")
    put("sim.engine.events", counts["engine.events"], "count")
    put("sim.engine.deliveries", counts["engine.deliveries"], "count")
    put("sim.engine.events_per_s",
        counts["engine.events"] / counts["engine.wall"]
        if counts["engine.wall"] else 0.0, "1/s", per_pass=False)

    put("collectives.run_collective.s", steps["collectives.run_collective"], "s")
    put("collectives.inputs.s", inclusive.get("collectives.inputs", 0.0), "s")
    put("clocks.sync.s", steps["clocks.sync"], "s")
    put("clocks.harmonize.s", steps["clocks.harmonize"], "s")
    put("apps.run.s", inclusive.get("apps.run", 0.0), "s")
    put("apps.run.self_s", own.get("apps.run", 0.0), "s")

    def flow_counter(prefix: str) -> float:
        return sum(m["value"] for key, m in obs_snapshot.items()
                   if key == prefix or key.startswith(prefix + "{"))

    batches = flow_counter("flow.batches")
    put("sim.flow.resolve.s", flow_s, "s")
    put("sim.flow.batches", batches, "count")
    put("sim.flow.messages_collapsed", flow_counter("flow.messages_collapsed"),
        "count")
    fallbacks = 0.0
    for reason in FALLBACK_REASONS:
        calls = obs_snapshot.get(f'flow.fallback_calls{{reason="{reason}"}}',
                                 {}).get("value", 0)
        fallbacks += calls
        put(f"sim.flow.fallback_calls.{reason}", calls, "count")
    put("sim.flow.engaged_ratio",
        batches / (batches + fallbacks) if batches + fallbacks else 0.0,
        "ratio", per_pass=False)

    micro_s = inclusive.get("bench.micro.run", 0.0)
    put("bench.micro.run.s", micro_s, "s")
    put("bench.micro.run.self_s", own.get("bench.micro.run", 0.0), "s")
    put("bench.micro.run.calls", counts["bench.micro.run.calls"], "count")

    run_cells = inclusive.get("bench.executor.run_cells", 0.0)
    put("bench.executor.run_cells.s", run_cells, "s")
    put("bench.executor.cells", counts["executor.cells"], "count")
    put("bench.executor.overhead_s",
        run_cells - tracer.seconds_within("bench.micro.run",
                                          "bench.executor.run_cells"), "s")
    put("bench.executor.cache_get.s",
        inclusive.get("bench.executor.cache_get", 0.0), "s")
    put("bench.executor.cache_put.s",
        inclusive.get("bench.executor.cache_put", 0.0), "s")
    put("bench.executor.cache_hit_ratio",
        counts["executor.hits"] / counts["executor.lookups"]
        if counts["executor.lookups"] else 0.0, "ratio", per_pass=False)

    put("bench.campaign.run.s", inclusive.get("bench.campaign.run", 0.0), "s")
    put("bench.campaign.run.self_s", own.get("bench.campaign.run", 0.0), "s")
    put("bench.campaign.rerun.s", inclusive.get("bench.campaign.rerun", 0.0),
        "s")

    put("store.ingest.s", inclusive.get("store.ingest", 0.0), "s")
    put("store.ingest.calls", counts["store.ingest.calls"], "count")
    put("store.ingest.new_ratio",
        counts["store.new"] / counts["store.offered"]
        if counts["store.offered"] else 0.0, "ratio", per_pass=False)
    put("store.load_table.s", inclusive.get("store.load_table", 0.0), "s")
    put("lint.lint_store.s", inclusive.get("lint.lint_store", 0.0), "s")
    put("lint.findings", counts["lint.findings"], "count")

    hits = samples_us(tracer, "service.query.hit")
    misses = samples_us(tracer, "service.query.miss")
    put("service.query.hit_us", median_or_zero(hits), "us", per_pass=False)
    put("service.query.miss_us", median_or_zero(misses), "us", per_pass=False)
    put("service.cache_hit_ratio",
        len(hits) / (len(hits) + len(misses)) if hits or misses else 0.0,
        "ratio", per_pass=False)
    put("service.wire_us",
        median_or_zero(1e6 * s for s in tracer.self_durations("service.request")),
        "us", per_pass=False)
    put("service.batch.s", inclusive.get("service.batch", 0.0), "s")
    put("service.reload.s", inclusive.get("service.reload", 0.0), "s")
    put("service.reload.calls", counts["service.reload.calls"], "count")
    return out


def samples_us(tracer: Tracer, name: str) -> list[float]:
    return [1e6 * s for s in tracer.samples.get(name, ())]


__all__ = ["Tracer", "install_layers", "layer_metrics", "median_or_zero"]
