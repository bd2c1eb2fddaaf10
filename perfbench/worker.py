"""Run one workload in a fresh interpreter and print its figures as JSON.

``python3 perfbench/worker.py '<config json>'`` — started by ``run.py``,
never by hand.  The config names the workload, seed, seconds, trace flag,
work directory and mode: ``setup`` stops after set-up (a set-up time
sample), ``run`` goes on to the timed passes.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time counts from here, imports included

import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile (at most p99) with at least ten samples
    beyond it, as ``(value, percentile)``; the maximum below 11 samples."""
    n = len(sorted_values)
    if n < 11:
        return sorted_values[-1], 100.0
    k = min(math.ceil(0.99 * n) - 1, n - 11)
    return sorted_values[k], 100.0 * (k + 1) / n


class Tally:
    """What the run keeps of its passes: each pass's host seconds and
    operation count, the host-speed samples taken around them, the output
    check totals, and per-operation latencies only when asked (the traced
    run's ``workload.op_*`` entries).  Units and replies are checked as
    each pass ends and then dropped, so the worker's peak memory does not
    grow with the number of passes."""

    def __init__(self, keep_latencies: bool) -> None:
        self.keep_latencies = keep_latencies
        self.seconds: list[float] = []
        self.ops: list[int] = []
        self.latencies: list[float] = []
        self.calibrator = Calibrator()
        self.attempted = self.failed = 0
        self.bad: set[str] = set()
        self.errors: list[str] = []

    def add(self, workload, result) -> None:
        attempted, failed, names = workload.check(result.units)
        self.attempted += attempted
        self.failed += failed
        self.bad.update(names)
        self.seconds.append(result.seconds)
        self.ops.append(result.ops)
        if self.keep_latencies:
            self.latencies.extend(result.latencies)

    def mean_pass(self) -> float:
        """The mean pass in host seconds at the calibration's reference
        speed."""
        return statistics.mean(self.seconds) / self.calibrator.slowdown()


def run_passes(workload, seconds: float, tally: Tally) -> None:
    """Whole passes, at least one, while the next one is expected (from
    the last pass's length) to end no more than half a pass after
    ``seconds``.  A run therefore measures about ``seconds`` whatever the
    pass length, and a workload whose pass is longer than that
    (paper_fast) runs exactly one.  Host-speed samples are taken before
    the first pass, between passes at most every ``calibrate.EVERY_S`` and
    after the last; workloads with long passes also take them inside a
    pass, outside its timed seconds."""
    workload.calibrator = tally.calibrator
    started = time.perf_counter()
    last = 0.0
    tally.calibrator.sample()
    while (not tally.seconds
           or time.perf_counter() - started + last / 2 <= seconds):
        try:
            result = workload.run_pass()
        except Exception as exc:  # noqa: BLE001 - reported as a failed pass
            tally.errors.append(f"{type(exc).__name__}: {exc}")
            break
        tally.add(workload, result)
        last = result.seconds
        # Free the pass's cyclic garbage now: left to the collector's own
        # schedule it piles up over passes, and peak memory would grow with
        # the number of passes, that is with the program's speed.
        del result
        gc.collect()
        tally.calibrator.maybe_sample()
    tally.calibrator.sample()


def main() -> int:
    config = json.loads(sys.argv[1])
    from workloads import WORKLOADS

    reference = json.loads((HERE / "reference.json").read_text())
    name = config["workload"]
    workload = WORKLOADS[name](config["seed"], Path(config["workdir"]),
                               reference.get(name, {}))
    workload.setup()
    setup_s = time.perf_counter() - _STARTED
    calibrator = Calibrator()
    calibrator.sample()
    out = {"setup_s": setup_s / calibrator.slowdown()}
    if config["mode"] == "setup":
        workload.close()
        print(json.dumps(out))
        return 0

    budget = float(config["seconds"])
    measured = Tally(keep_latencies=bool(config["trace"]))
    if config["trace"]:
        from tracer import Tracer, install_layers, layer_metrics

        run_passes(workload, budget / 2, measured)
        traced = Tally(keep_latencies=False)
        tracer = Tracer()
        workload.tracer = tracer
        install_layers(tracer)
        if not measured.errors:
            run_passes(workload, budget / 2, traced)
        tracer.uninstall()
        layers = layer_metrics(tracer, max(len(traced.seconds), 1),
                               workload.obs_counters)
        plain_s = measured.mean_pass() if measured.seconds else 0.0
        traced_s = traced.mean_pass() if traced.seconds else 0.0
        layers["tracing.overhead_s"] = (traced_s - plain_s, "s")
        layers["tracing.overhead_ratio"] = (
            (traced_s - plain_s) / plain_s if plain_s else 0.0, "ratio")
        out["layers"] = layers
        tallies = (measured, traced)
    else:
        run_passes(workload, budget, measured)
        tallies = (measured,)
    workload.close()

    errors = [line for t in tallies for line in t.errors]
    attempted = sum(t.attempted for t in tallies) + len(errors)
    failed = sum(t.failed for t in tallies) + len(errors)
    if measured.seconds:
        # The mean pass, at the calibration's reference speed (see
        # calibrate.py): the host's speed phases outlast a pass and often
        # a run, so the raw mean says which phase the run fell in.
        wall_s = measured.mean_pass()
        out.update(
            wall_s=wall_s,
            ops_per_s=statistics.mean(measured.ops) / wall_s,
            ops=sum(measured.ops),
            raw_wall_s=statistics.mean(measured.seconds),
            slowdown=measured.calibrator.slowdown(),
        )
    if measured.latencies:
        # Per-operation latency of the untraced passes: a ledger entry, not
        # an end-to-end metric, because the median of a pass's
        # heterogeneous cells swings with the host's speed phases.
        latencies = sorted(measured.latencies)
        tail_s, tail_pct = tail(latencies)
        out["tail_percentile"] = tail_pct
        out["layers"]["workload.op_p50_us"] = (
            1e6 * statistics.median(latencies), "us")
        out["layers"]["workload.op_tail_us"] = (1e6 * tail_s, "us")
    out.update(
        passes=len(measured.seconds),
        attempted=max(attempted, 1),
        failed=failed,
        mismatched=sorted(set().union(*(t.bad for t in tallies))),
        errors=errors,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
