#!/usr/bin/env python
"""Trace an application's arrival patterns, persist them, and replay them.

Demonstrates the tracing toolchain on the CG proxy (Allreduce-dominant):

1. trace a CG run (one arrival-to-exit span per rank and collective call),
2. write the trace to disk (the obs JSONL stream) and read it back,
3. extract the per-rank average-delay pattern and save it in the paper's
   p-line pattern-file format,
4. replay the extracted pattern in a micro-benchmark and confirm the
   measured arrival spread matches the trace.

Run:  python examples/tracing_and_replay.py
"""

from pathlib import Path

import numpy as np

from repro import obs
from repro.apps import CGProxy
from repro.bench import MicroBenchmark
from repro.obs.analysis import TraceAnalysis
from repro.patterns import read_pattern_file, write_pattern_file
from repro.sim.network import NetworkParams
from repro.sim.noise import NoiseModel
from repro.sim.platform import get_machine

MACHINE = "galileo100"
NODES, CORES = 8, 4


def main() -> None:
    spec = get_machine(MACHINE)
    num_ranks = NODES * CORES

    # --- 1. trace CG inside a session that keeps the spans. -------------
    app = CGProxy(
        platform=spec.platform.scaled(NODES, CORES),
        params=NetworkParams(**spec.network),
        noise=NoiseModel(spec.noise_profile, num_ranks, seed=3),
        iterations=40,
    )
    with obs.session(meta={"app": "cg", "machine": MACHINE}) as octx:
        result, trace = app.trace()
    print(f"CG runtime {result.runtime * 1e3:.2f} ms; traced "
          f"{len(trace.calls('allreduce'))} of {result.collective_calls} calls")

    # --- 2. persist and reload the trace. -------------------------------
    trace_path = Path("cg_run.jsonl")
    obs.export_jsonl(trace_path, octx)
    reloaded = TraceAnalysis.from_file(trace_path)
    print(f"trace file: {trace_path} ({trace_path.stat().st_size} bytes, "
          f"run {reloaded.run_id})")

    # --- 3. extract and persist the arrival pattern. ---------------------
    pattern = reloaded.arrival_pattern("allreduce", name="cg_scenario")
    pattern_path = Path("cg_scenario.pattern")
    write_pattern_file(pattern_path, pattern)
    print(f"pattern file: {pattern_path} (max skew {pattern.max_skew * 1e6:.1f} us)")

    # --- 4. replay it in a micro-benchmark. ------------------------------
    replayed = read_pattern_file(pattern_path)
    bench = MicroBenchmark.from_machine(spec, nodes=NODES, cores_per_node=CORES, nrep=1)
    measured = bench.run("allreduce", "recursive_doubling", 8.0, pattern=replayed)
    observed = measured.timings[0].delays_from_first()
    # delays_from_first() is relative to the earliest arrival, so compare
    # against the min-shifted skews.
    error = np.abs(observed - (replayed.skews - replayed.skews.min())).max()
    print(f"replayed pattern; max |measured - requested| arrival delay: "
          f"{error * 1e9:.1f} ns")
    avg = pattern.skews
    print(f"per-rank average delay range: {avg.min() * 1e6:.2f} .. "
          f"{avg.max() * 1e6:.2f} us")


if __name__ == "__main__":
    main()
