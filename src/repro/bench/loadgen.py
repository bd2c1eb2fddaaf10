"""Concurrent load generator for the selection service.

Drives an in-process :class:`~repro.service.SelectionService` with a
deterministic, seeded mix of queries — collectives x communicator sizes x
message sizes x arrival patterns — from N threads, optionally while a
churn thread hot-reloads the store, and reports **exact** p50/p99 latency
(computed from the raw per-query samples, not the service's bucketed
histograms) plus sustained QPS per workload.

Four standard workloads bound the service's performance envelope:

* ``hot_cache`` — a handful of distinct keys, so nearly every query is an
  LRU hit: the concurrency floor.
* ``cold_mix`` — a key space larger than the cache, so queries keep
  resolving through the store tables: the miss path.
* ``batch`` — the same mix through :meth:`query_batch` in fixed-size
  batches: the amortized-lock path.
* ``reload_churn`` — the hot mix while a churn thread calls
  :meth:`reload` at a fixed cadence: tail latency under generation swaps.

``python -m repro.bench.loadgen --store store.db --out fresh.json``
writes a payload for ``benchmarks/gate.py``: ``gate.py
benchmarks/BENCH_service.json fresh.json`` checks it against the
committed baseline (workload coverage is the hard gate there; wall-clock
drift only warns), and ``--update`` records it there.  The mix is
all-valid by construction, so a workload raises :class:`RuntimeError`
when any query fails, and also when the service's own
``service.query_seconds`` histogram did not see every query; the
histogram's :meth:`~repro.obs.metrics.Histogram.quantile` estimates are
reported next to the exact sample percentiles (``hist_p50_us`` /
``hist_p99_us``).
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

#: The default query mix axes (collectives the fallback always knows).
DEFAULT_COLLECTIVES = ("alltoall", "allreduce", "bcast", "reduce")
DEFAULT_COMM_SIZES = (4, 8, 16, 32, 64)
DEFAULT_MSG_BYTES = (8.0, 1024.0, 32768.0, 1048576.0)
DEFAULT_PATTERNS = (None, "no_delay", "ascending", "random")

WORKLOADS = ("hot_cache", "cold_mix", "batch", "reload_churn")


@dataclass
class LoadGenConfig:
    """One load-generator run: the mix, the concurrency, the budget."""

    queries: int = 20000
    threads: int = 4
    seed: int = 0
    batch_size: int = 64
    #: Seconds between reloads in the ``reload_churn`` workload.
    reload_interval: float = 0.05
    collectives: tuple = DEFAULT_COLLECTIVES
    comm_sizes: tuple = DEFAULT_COMM_SIZES
    msg_bytes: tuple = DEFAULT_MSG_BYTES
    patterns: tuple = DEFAULT_PATTERNS

    def __post_init__(self) -> None:
        if self.queries < 1:
            raise ConfigurationError("queries must be >= 1")
        if self.threads < 1:
            raise ConfigurationError("threads must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")


def percentile(samples: list[float], q: float) -> float:
    """Exact linear-interpolated quantile of raw samples (numpy-style)."""
    if not samples:
        raise ValueError("no samples")
    xs = sorted(samples)
    rank = q * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (rank - lo) * (xs[hi] - xs[lo])


def build_mix(config: LoadGenConfig, *, distinct: int | None = None) -> list[dict]:
    """The seeded query list: ``queries`` draws from ``distinct`` keys.

    ``distinct=None`` draws from the full cross product (the cold mix);
    a small ``distinct`` first samples that many keys and then draws all
    queries from them (the hot-cache mix).  Same seed, same list — the
    benchmark is reproducible across runs and machines.
    """
    rng = random.Random(config.seed)
    space = [
        {"collective": c, "comm_size": n, "msg_bytes": m, "pattern": p}
        for c in config.collectives
        for n in config.comm_sizes
        for m in config.msg_bytes
        for p in config.patterns
    ]
    if distinct is not None:
        space = rng.sample(space, min(distinct, len(space)))
    return [dict(rng.choice(space)) for _ in range(config.queries)]


@dataclass
class WorkloadResult:
    """Measured outcome of one workload run."""

    name: str
    queries: int
    elapsed: float
    latencies: list[float] = field(repr=False, default_factory=list)
    reloads: int = 0
    hist_p50: float | None = None
    hist_p99: float | None = None

    @property
    def qps(self) -> float:
        return self.queries / self.elapsed if self.elapsed > 0 else 0.0

    def payload(self) -> dict:
        """The JSON-ready row of this workload in :func:`run_suite`'s payload."""
        us = 1e6
        return {
            "queries": self.queries,
            "reloads": self.reloads,
            "qps": round(self.qps, 1),
            "p50_us": round(percentile(self.latencies, 0.5) * us, 2),
            "p99_us": round(percentile(self.latencies, 0.99) * us, 2),
            "hist_p50_us": (round(self.hist_p50 * us, 2)
                            if self.hist_p50 is not None else None),
            "hist_p99_us": (round(self.hist_p99 * us, 2)
                            if self.hist_p99 is not None else None),
        }


def _run_threads(service, mix: list[dict], threads: int,
                 batch_size: int = 0) -> tuple[list[float], int, float]:
    """Fan ``mix`` out over ``threads``; returns (latencies, errors, secs).

    With ``batch_size > 0`` each thread issues :meth:`query_batch` calls of
    that size and the recorded latency is per *batch* divided across its
    items (whole-batch pacing still shows in QPS).
    """
    shards = [mix[i::threads] for i in range(threads)]
    lat_shards: list[list[float]] = [[] for _ in range(threads)]
    err_counts = [0] * threads
    start_barrier = threading.Barrier(threads + 1)

    def worker(tid: int) -> None:
        shard, lats = shards[tid], lat_shards[tid]
        start_barrier.wait()
        if batch_size:
            for i in range(0, len(shard), batch_size):
                chunk = shard[i:i + batch_size]
                t0 = time.perf_counter()
                replies = service.query_batch(chunk)
                dt = (time.perf_counter() - t0) / len(chunk)
                err_counts[tid] += sum(not r["ok"] for r in replies)
                lats.extend([dt] * len(chunk))
            return
        for q in shard:
            t0 = time.perf_counter()
            try:
                service.query(**q)
            except Exception:  # noqa: BLE001 - counted, not raised
                err_counts[tid] += 1
            lats.append(time.perf_counter() - t0)

    pool = [threading.Thread(target=worker, args=(t,), daemon=True)
            for t in range(threads)]
    for t in pool:
        t.start()
    start_barrier.wait()
    t0 = time.perf_counter()
    for t in pool:
        t.join()
    elapsed = time.perf_counter() - t0
    return [x for shard in lat_shards for x in shard], sum(err_counts), elapsed


def run_workload(service, name: str, config: LoadGenConfig) -> WorkloadResult:
    """Run one named workload (see :data:`WORKLOADS`) against ``service``."""
    if name == "hot_cache":
        mix, batch, churn = build_mix(config, distinct=8), 0, False
    elif name == "cold_mix":
        mix, batch, churn = build_mix(config), 0, False
    elif name == "batch":
        mix, batch, churn = build_mix(config), config.batch_size, False
    elif name == "reload_churn":
        mix, batch, churn = build_mix(config, distinct=8), 0, True
    else:
        raise ConfigurationError(
            f"unknown workload {name!r}; expected one of {WORKLOADS}")

    hist = service.metrics.histogram("service.query_seconds")
    count_before = hist.count
    reloads = 0
    stop_churn = threading.Event()

    def churner() -> None:
        nonlocal reloads
        while not stop_churn.wait(config.reload_interval):
            service.reload()
            reloads += 1

    churn_thread = None
    if churn:
        churn_thread = threading.Thread(target=churner, daemon=True)
        churn_thread.start()
    try:
        latencies, errors, elapsed = _run_threads(
            service, mix, config.threads, batch_size=batch)
    finally:
        if churn_thread is not None:
            stop_churn.set()
            churn_thread.join(timeout=5)

    if errors:
        raise RuntimeError(
            f"workload {name!r}: {errors} of {len(mix)} queries raised; the "
            f"mix is all-valid, so the service misbehaved")
    result = WorkloadResult(name=name, queries=len(mix), elapsed=elapsed,
                            latencies=latencies, reloads=reloads)
    # Cross-check: the service's own histogram saw every query this
    # workload sent (batch items observe individually — satellite of the
    # batch-latency fix), and its bucketed quantiles should track the
    # exact sample percentiles to within a bucket width.
    if hist.count - count_before != len(mix):
        raise RuntimeError(
            f"workload {name!r}: service histogram grew by "
            f"{hist.count - count_before}, expected {len(mix)}")
    result.hist_p50 = hist.quantile(0.5)
    result.hist_p99 = hist.quantile(0.99)
    return result


def run_suite(store, config: LoadGenConfig,
              workloads: tuple = WORKLOADS, *,
              progress=None) -> dict:
    """Run the workload suite against a fresh service per workload.

    ``store`` is a tuning-store path (or anything
    :class:`~repro.service.SelectionService` accepts).  Returns the
    payload that ``benchmarks/gate.py`` checks against
    ``BENCH_service.json``.
    """
    from repro.service import SelectionService

    rows: dict[str, dict] = {}
    for name in workloads:
        with SelectionService(store, reload_interval=0.0) as service:
            result = run_workload(service, name, config)
        rows[name] = result.payload()
        if progress is not None:
            progress(f"{name}: {result.qps:,.0f} q/s, "
                     f"p50 {rows[name]['p50_us']:.1f} us, "
                     f"p99 {rows[name]['p99_us']:.1f} us, "
                     f"{result.reloads} reloads")
    return {
        "_comment": (
            "Selection-service load-generator run; check it with python "
            "benchmarks/gate.py benchmarks/BENCH_service.json <this file> "
            "[--update]"
        ),
        "meta": {
            "queries_per_workload": config.queries,
            "threads": config.threads,
            "seed": config.seed,
            "batch_size": config.batch_size,
            "python": sys.version.split()[0],
        },
        "workloads": rows,
    }


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.loadgen",
        description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True,
                        help="tuning store database to serve from")
    parser.add_argument("--queries", type=int, default=20000,
                        help="queries per workload (default 20000)")
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--batch-size", type=int, default=64,
                        dest="batch_size")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS, metavar="NAME",
                        help=f"subset to run (default: all of {WORKLOADS})")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write the JSON payload here")
    args = parser.parse_args(argv)

    config = LoadGenConfig(queries=args.queries, threads=args.threads,
                           seed=args.seed, batch_size=args.batch_size)
    payload = run_suite(args.store, config, tuple(args.workloads),
                        progress=lambda line: print(line, flush=True))
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


__all__ = [
    "LoadGenConfig",
    "WorkloadResult",
    "WORKLOADS",
    "build_mix",
    "percentile",
    "run_workload",
    "run_suite",
    "main",
]


if __name__ == "__main__":
    sys.exit(main())
