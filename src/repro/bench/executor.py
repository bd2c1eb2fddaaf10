"""Parallel sweep-cell execution with a content-addressed result cache.

Every simulation cell — one ``(collective, algorithm, msg_bytes, pattern)``
measurement on one configured harness — is pure and deterministic, so sweeps
are embarrassingly parallel and their results are perfectly cacheable.  This
module supplies the three pieces the sweep drivers build on:

* :class:`CellSpec`: a picklable, JSON-serializable value object capturing
  *everything* that determines a cell's outcome (platform, network
  parameters, harness knobs, collective/algorithm/size, and the concrete
  arrival pattern).  ``CellSpec.run()`` reproduces ``MicroBenchmark.run``
  bit for bit.
* :class:`ResultCache`: an on-disk store of finished cells keyed by the
  SHA-256 of the canonical spec JSON plus the model version — any change to
  the spec *or* to the simulator version misses and re-simulates.
* :class:`CellExecutor`: runs a batch of specs — inline for ``jobs=1``, over
  a :class:`concurrent.futures.ProcessPoolExecutor` otherwise — and always
  returns results in the order the specs were given, so parallel sweeps are
  byte-identical to serial ones.  Per-cell timings and cache hit/miss
  counters accumulate on :class:`ExecutorStats`.

Environment overrides (picked up when a sweep builds its default executor):
``REPRO_JOBS`` sets the worker count, ``REPRO_CACHE_DIR`` enables the
cache, and ``REPRO_STORE`` sinks every finished cell into a persistent
:class:`~repro.store.TuningStore` — so re-runs of ``benchmarks/bench_*.py``
and the experiment drivers can skip already-simulated cells and accumulate
a durable tuning database without any code change.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro._version import __version__
from repro.errors import ConfigurationError, TraceFormatError
from repro.obs.context import current as _obs_current

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.micro import MicroBenchmark
    from repro.bench.results import BenchResult
    from repro.obs.collect import CellTelemetry
    from repro.patterns.generator import ArrivalPattern

#: Version stamp mixed into every cache key.  Bump the package version (or
#: this constant) whenever the simulator's numerics change: every cached
#: record then misses and cells are re-simulated.
MODEL_VERSION = __version__


# --------------------------------------------------------------------------- #
# Cell specification
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class PatternSpec:
    """Picklable description of one concrete arrival pattern.

    The per-rank skews are stored explicitly (not as shape + seed) so traced
    application scenarios and generated shapes serialize identically and the
    cache key covers the exact delays each rank saw.
    """

    name: str
    skews: tuple[float, ...]

    @classmethod
    def from_pattern(cls, pattern: "ArrivalPattern") -> "PatternSpec":
        return cls(name=pattern.name, skews=tuple(float(s) for s in pattern.skews))

    def build(self) -> "ArrivalPattern":
        import numpy as np

        from repro.patterns.generator import ArrivalPattern

        return ArrivalPattern(self.name, np.array(self.skews, dtype=float))

    def to_dict(self) -> dict:
        return {"name": self.name, "skews": list(self.skews)}


@dataclass(frozen=True)
class CellSpec:
    """Everything that determines one benchmark cell's result.

    A spec is self-contained: ``run()`` rebuilds the harness from scratch in
    any process and produces the same :class:`~repro.bench.results.BenchResult`
    the originating :class:`~repro.bench.micro.MicroBenchmark` would.
    """

    # -- harness ------------------------------------------------------- #
    platform_name: str
    nodes: int
    cores_per_node: int
    nodes_per_group: int | None
    network: tuple[tuple[str, object], ...]  # sorted NetworkParams items
    nrep: int
    seed: int
    clock_mode: str
    noise_profile: str
    count: int
    harmonize_slack: float
    machine_name: str
    # -- cell ---------------------------------------------------------- #
    collective: str
    algorithm: str
    msg_bytes: float
    pattern: PatternSpec | None
    op: str = "sum"
    segment_bytes: float | None = None
    engine_mode: str = "exact"
    # Vector-collective count schedule (None for regular collectives): a
    # length-p tuple, or a (p, p) tuple-of-tuples for alltoallv.
    counts: tuple | None = None
    item_bytes: float = 8.0

    @classmethod
    def from_bench(
        cls,
        bench: "MicroBenchmark",
        collective: str,
        algorithm: str,
        msg_bytes: float,
        pattern: "ArrivalPattern | None" = None,
        **run_kwargs,
    ) -> "CellSpec":
        """Capture one ``bench.run(...)`` call as a value object."""
        from dataclasses import asdict

        unknown = set(run_kwargs) - {"op", "segment_bytes", "counts",
                                     "item_bytes"}
        if unknown:
            raise ConfigurationError(
                f"cannot serialize bench.run kwargs {sorted(unknown)}; "
                "supported: op, segment_bytes, counts, item_bytes"
            )
        op = run_kwargs.get("op")
        segment_bytes = run_kwargs.get("segment_bytes")
        counts = run_kwargs.get("counts")
        if counts is not None:
            from repro.bench.micro import freeze_counts

            counts = freeze_counts(counts)
        return cls(
            platform_name=bench.platform.name,
            nodes=bench.platform.nodes,
            cores_per_node=bench.platform.cores_per_node,
            nodes_per_group=bench.platform.nodes_per_group,
            network=tuple(sorted(asdict(bench.params).items())),
            nrep=bench.nrep,
            seed=bench.seed,
            clock_mode=bench.clock_mode,
            noise_profile=bench.noise_profile,
            count=bench.count,
            harmonize_slack=bench.harmonize_slack,
            machine_name=bench.machine_name,
            collective=collective,
            algorithm=algorithm,
            msg_bytes=float(msg_bytes),
            pattern=PatternSpec.from_pattern(pattern) if pattern is not None else None,
            op=op.name if op is not None else "sum",
            segment_bytes=float(segment_bytes) if segment_bytes is not None else None,
            engine_mode=bench.engine_mode,
            counts=counts,
            item_bytes=float(run_kwargs.get("item_bytes", 8.0)),
        )

    def make_bench(self) -> "MicroBenchmark":
        """Rebuild the harness this spec was captured from (value-equal)."""
        from repro.bench.micro import MicroBenchmark
        from repro.sim.network import NetworkParams
        from repro.sim.platform import Platform

        platform = Platform(
            name=self.platform_name,
            nodes=self.nodes,
            cores_per_node=self.cores_per_node,
            nodes_per_group=self.nodes_per_group,
        )
        return MicroBenchmark(
            platform=platform,
            params=NetworkParams(**dict(self.network)),
            nrep=self.nrep,
            seed=self.seed,
            clock_mode=self.clock_mode,
            noise_profile=self.noise_profile,
            count=self.count,
            harmonize_slack=self.harmonize_slack,
            machine_name=self.machine_name,
            engine_mode=self.engine_mode,
        )

    def run(self) -> "BenchResult":
        """Simulate this cell from scratch (the worker-side entry point)."""
        from repro.collectives.ops import get_op

        bench = self.make_bench()
        pattern = self.pattern.build() if self.pattern is not None else None
        return bench.run(
            self.collective,
            self.algorithm,
            self.msg_bytes,
            pattern,
            op=get_op(self.op),
            segment_bytes=self.segment_bytes,
            counts=self.counts,
            item_bytes=self.item_bytes,
        )

    # -- hashing ------------------------------------------------------- #

    def to_dict(self) -> dict:
        d = {
            "platform": {
                "name": self.platform_name,
                "nodes": self.nodes,
                "cores_per_node": self.cores_per_node,
                "nodes_per_group": self.nodes_per_group,
            },
            "network": {k: v for k, v in self.network},
            "nrep": self.nrep,
            "seed": self.seed,
            "clock_mode": self.clock_mode,
            "noise_profile": self.noise_profile,
            "count": self.count,
            "harmonize_slack": self.harmonize_slack,
            "machine_name": self.machine_name,
            "collective": self.collective,
            "algorithm": self.algorithm,
            "msg_bytes": self.msg_bytes,
            "pattern": self.pattern.to_dict() if self.pattern is not None else None,
            "op": self.op,
            "segment_bytes": self.segment_bytes,
        }
        # Emitted only when non-default so exact-mode cache keys (and any
        # results cached before the flow engine existed) stay valid.
        if self.engine_mode != "exact":
            d["engine_mode"] = self.engine_mode
        # Same stability rule for vector cells: regular-collective keys are
        # untouched by the counts extension.
        if self.counts is not None:
            d["counts"] = [list(row) for row in self.counts] \
                if self.counts and isinstance(self.counts[0], tuple) \
                else list(self.counts)
            d["item_bytes"] = self.item_bytes
        return d

    def cache_key(self) -> str:
        """SHA-256 over the canonical spec JSON and the model version."""
        payload = {"model_version": MODEL_VERSION, "spec": self.to_dict()}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def run_cell(spec: CellSpec) -> "BenchResult":
    """Module-level worker function (must stay picklable by reference)."""
    return spec.run()


def _run_cell_job(
    job: tuple[CellSpec, tuple[bool, bool, bool]],
) -> tuple["BenchResult", float, "CellTelemetry | None"]:
    """Run one cell, optionally under a fresh observability session.

    Module-level (picklable by reference); the same function serves the
    inline path and pool workers, so a cell's telemetry payload is
    identical however it executed.  The flags mirror the parent session
    (``collect``, ``record_spans``, ``record_messages``); with ``collect``
    off this is exactly the bare timed run.

    CPU time, not wall time: on an oversubscribed machine a worker's wall
    clock includes time spent descheduled, which would inflate the
    serial-equivalent estimate the speedup counter is based on.
    """
    spec, (collect, record_spans, record_messages) = job
    if not collect:
        started = time.process_time()
        result = run_cell(spec)
        return result, time.process_time() - started, None

    from repro.obs.collect import capture_telemetry
    from repro.obs.context import session
    from repro.obs.runid import make_run_id

    started = time.process_time()
    with session(run_id=make_run_id({"cell": spec.cache_key()}, prefix="cell"),
                 meta={"collective": spec.collective,
                       "algorithm": spec.algorithm},
                 record_spans=record_spans,
                 record_messages=record_messages) as cctx:
        result = run_cell(spec)
        telemetry = capture_telemetry(cctx)
    return result, time.process_time() - started, telemetry


# --------------------------------------------------------------------------- #
# On-disk result cache
# --------------------------------------------------------------------------- #

class ResultCache:
    """Content-addressed store of finished cells under ``cache_dir``.

    Layout: ``<cache_dir>/<key[:2]>/<key>.json`` where ``key`` is
    :meth:`CellSpec.cache_key`.  Each record is self-describing — it embeds
    the model version, the full spec, and the raw per-repetition timestamps —
    so a cache directory doubles as a provenance log.  Records never go
    stale silently: the version is part of the key, so a simulator change
    simply misses.
    """

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise ConfigurationError(
                f"cache dir {self.cache_dir} exists and is not a directory"
            )

    def path_for(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, spec: CellSpec) -> "BenchResult | None":
        record = self.get_record(spec)
        return record[0] if record is not None else None

    def get_record(
        self, spec: CellSpec
    ) -> "tuple[BenchResult, CellTelemetry | None] | None":
        """The cached result plus its stored telemetry payload (if the run
        that wrote the record had an observability session open)."""
        from repro.bench.results import BenchResult
        from repro.obs.collect import CellTelemetry

        path = self.path_for(spec.cache_key())
        if not path.exists():
            return None
        try:
            record = json.loads(path.read_text())
            if record.get("model_version") != MODEL_VERSION:
                return None
            result = BenchResult.from_dict(record["result"])
            raw = record.get("telemetry")
            telemetry = CellTelemetry.from_dict(raw) if raw is not None else None
        except (ValueError, KeyError, ConfigurationError, TraceFormatError):
            return None  # corrupt record: treat as a miss, re-simulate
        try:
            # Touch on hit: file mtime doubles as the LRU clock for gc().
            os.utime(path)
        except OSError:
            pass
        return result, telemetry

    def put(self, spec: CellSpec, result: "BenchResult",
            telemetry: "CellTelemetry | None" = None) -> Path:
        key = spec.cache_key()
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "model_version": MODEL_VERSION,
            "key": key,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
            "telemetry": telemetry.to_dict() if telemetry is not None else None,
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record))
        tmp.replace(path)  # atomic: concurrent writers race benignly
        return path

    # -- maintenance (repro-mpi cache) ---------------------------------- #

    def record_paths(self) -> list[Path]:
        """Every record file currently in the cache (sorted for stability)."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(self.cache_dir.glob("??/*.json"))

    def stats(self) -> "CacheStats":
        """Entry and byte totals (the ``repro-mpi cache stats`` numbers)."""
        entries = 0
        total = 0
        for path in self.record_paths():
            try:
                total += path.stat().st_size
                entries += 1
            except OSError:
                continue  # racing eviction; skip
        return CacheStats(entries=entries, total_bytes=total)

    def gc(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used records until the cache fits
        ``max_bytes``; returns ``(evicted_count, freed_bytes)``.

        Recency is file mtime — reads touch records (see
        :meth:`get_record`), so a long campaign's working set survives and
        stale cells go first.
        """
        if max_bytes < 0:
            raise ConfigurationError(f"max_bytes must be >= 0, got {max_bytes}")
        records = []
        total = 0
        for path in self.record_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        records.sort()  # oldest mtime first
        evicted = 0
        freed = 0
        for _mtime, path, size in records:
            if total - freed <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
            freed += size
        return evicted, freed


@dataclass(frozen=True)
class CacheStats:
    """Totals returned by :meth:`ResultCache.stats`."""

    entries: int
    total_bytes: int


# --------------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------------- #

@dataclass
class ExecutorStats:
    """Cache and timing counters accumulated over one executor's lifetime.

    Population caveat: ``cells`` counts *every* cell (hits included), but
    ``cell_seconds`` / ``sim_seconds`` — and the ``executor.cell_seconds``
    histogram they feed — cover **simulated cells only**: a cache hit never
    runs a simulation, so it contributes no duration.  A hit-heavy run
    therefore shows few-but-honest cell timings, not "fast cells"; read the
    hit count (``hits``, or the ``executor.cache_hit_total`` counter)
    alongside the histogram.
    """

    cells: int = 0
    hits: int = 0
    simulated: int = 0
    #: Summed simulation time of every executed cell (worker-side CPU
    #: seconds — the serial-equivalent cost of the simulated cells).
    sim_seconds: float = 0.0
    #: Wall-clock spent inside ``run_cells`` (parent-side seconds).
    wall_seconds: float = 0.0
    #: Per-cell simulation durations, in completion order (simulated cells
    #: only — cache hits do not appear; see the class docstring).
    cell_seconds: list[float] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.cells if self.cells else 0.0

    @property
    def speedup(self) -> float:
        """Estimated speedup vs. serial uncached execution of the same cells."""
        return self.sim_seconds / self.wall_seconds if self.wall_seconds > 0 else 1.0

    def summary(self) -> str:
        # Floor the percentage: "100%" must mean every cell hit, not 99.6%.
        head = (
            f"{self.cells} cells: {self.simulated} simulated, "
            f"{self.hits} cache hits ({int(self.hit_rate * 100)}% hit rate); "
        )
        if self.simulated == 0:
            return head + f"all served from cache in {self.wall_seconds:.2f}s wall"
        return head + (
            f"cell time {self.sim_seconds:.2f}s in {self.wall_seconds:.2f}s wall "
            f"({self.speedup:.1f}x vs serial uncached)"
        )


class CellExecutor:
    """Runs batches of :class:`CellSpec` with optional parallelism + caching.

    Results always come back in the order the specs were given, regardless
    of the completion order in the pool — the deterministic merge that keeps
    ``--jobs N`` output byte-identical to the serial path.
    """

    def __init__(self, jobs: int = 1, cache_dir: str | Path | None = None,
                 store=None) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.jobs = int(jobs)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.stats = ExecutorStats()
        # Optional persistent sink: a repro.store.TuningStore (or a path to
        # one) that every finished cell — simulated or cache-served — is
        # ingested into.  Ingest is content-addressed, so repeated runs are
        # idempotent.  Lazily imported: the store is an optional layer.
        self.store = None
        self._owns_store = False
        self._store_provenance: int | None = None
        if store is not None:
            from repro.store import open_store

            self.store, self._owns_store = open_store(store)

    @classmethod
    def from_env(cls, jobs: int | None = None,
                 cache_dir: str | Path | None = None,
                 store=None) -> "CellExecutor":
        """Build an executor honoring ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` /
        ``REPRO_STORE``."""
        if jobs is None:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        if cache_dir is None:
            cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
        if store is None:
            store = os.environ.get("REPRO_STORE") or None
        return cls(jobs=jobs, cache_dir=cache_dir, store=store)

    def close(self) -> None:
        """Release the store connection if this executor opened it."""
        if self.store is not None and self._owns_store:
            self.store.close()
            self.store = None

    def run_cells(
        self,
        specs: Sequence[CellSpec],
        progress: Callable[[CellSpec], None] | None = None,
    ) -> list["BenchResult"]:
        """Execute every spec; returns results aligned with ``specs``.

        With an observability session open, every simulated cell — inline
        or in a pool worker — runs under its own fresh session; its
        telemetry payload ships back with the result and merges into the
        parent session in spec order (see :mod:`repro.obs.collect`), and
        cache hits replay the payload stored with the cached record.  The
        merged trace is therefore identical for serial and ``--jobs N``
        runs, and a warm cache run differs only by provenance tags.
        """
        from repro.obs.collect import CACHE_REPLAY, merge_telemetry

        started = time.perf_counter()
        octx = _obs_current()
        collect = octx.enabled
        flags = (collect, octx.record_spans, octx.record_messages)
        # Cell indices stay unique (and deterministic) across batches.
        cell_base = self.stats.cells
        with octx.wall_span("executor.run_cells", track="executor",
                            args={"cells": len(specs), "jobs": self.jobs}):
            results: list["BenchResult | None"] = [None] * len(specs)
            telemetries: list["CellTelemetry | None"] = [None] * len(specs)
            pending: list[int] = []
            for i, spec in enumerate(specs):
                record = (self.cache.get_record(spec)
                          if self.cache is not None else None)
                if record is not None:
                    results[i], stored = record
                    if collect and stored is not None:
                        telemetries[i] = stored.tagged(CACHE_REPLAY)
                    self.stats.hits += 1
                else:
                    pending.append(i)
                if progress is not None:
                    progress(spec)
            if len(pending) > 1 and self.jobs > 1:
                from concurrent.futures import ProcessPoolExecutor

                workers = min(self.jobs, len(pending))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    for i, (result, seconds, telemetry) in zip(
                        pending,
                        pool.map(_run_cell_job,
                                 [(specs[i], flags) for i in pending]),
                    ):
                        results[i] = self._record(specs[i], result, seconds,
                                                  telemetry)
                        telemetries[i] = telemetry
            else:
                for i in pending:
                    result, seconds, telemetry = _run_cell_job((specs[i], flags))
                    results[i] = self._record(specs[i], result, seconds,
                                              telemetry)
                    telemetries[i] = telemetry
            if collect:
                # Deterministic merge: spec order, however cells executed.
                for i, telemetry in enumerate(telemetries):
                    if telemetry is None:
                        continue
                    spec = specs[i]
                    merge_telemetry(
                        octx, telemetry, cell=cell_base + i,
                        name=f"{spec.collective}/{spec.algorithm}",
                        args={
                            "msg_bytes": spec.msg_bytes,
                            "pattern": (spec.pattern.name
                                        if spec.pattern is not None
                                        else "no_delay"),
                        },
                    )
            if self.store is not None and specs:
                self._sink(specs, results)
            self.stats.cells += len(specs)
            self.stats.wall_seconds += time.perf_counter() - started
        if collect:
            m = octx.metrics
            m.counter("executor.cells").inc(len(specs))
            m.counter("executor.cache_hit_total").inc(len(specs) - len(pending))
            m.counter("executor.simulated").inc(len(pending))
        return results  # type: ignore[return-value]

    def _sink(self, specs: Sequence[CellSpec],
              results: Sequence["BenchResult | None"]) -> None:
        """Ingest every finished cell of one batch into the tuning store.

        Cache hits are ingested too (the store should be complete even on a
        warm run); content addressing makes re-ingest a no-op.
        """
        from repro.store import harness_hash

        if self._store_provenance is None:
            self._store_provenance = self.store.ensure_provenance(
                run_id=_obs_current().run_id,
                params_hash=harness_hash(specs[0]),
            )
        n = 0
        for result in results:
            if result is None:  # pragma: no cover - defensive
                continue
            _id, inserted = self.store.ingest_result(
                result, provenance_id=self._store_provenance)
            n += inserted
        _obs_current().metrics.counter("executor.store_ingest_total").inc(n)

    def _record(self, spec: CellSpec, result: "BenchResult", seconds: float,
                telemetry: "CellTelemetry | None" = None) -> "BenchResult":
        if self.cache is not None:
            self.cache.put(spec, result, telemetry)
        self.stats.simulated += 1
        self.stats.sim_seconds += seconds
        # Simulated cells only: a cache hit has no simulation duration to
        # observe (see ExecutorStats docstring).
        self.stats.cell_seconds.append(seconds)
        _obs_current().metrics.histogram("executor.cell_seconds").observe(seconds)
        return result


__all__ = [
    "MODEL_VERSION",
    "PatternSpec",
    "CellSpec",
    "run_cell",
    "ResultCache",
    "CacheStats",
    "ExecutorStats",
    "CellExecutor",
]
