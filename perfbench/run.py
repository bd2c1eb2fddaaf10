"""Performance ledger: one benchmark over the repository's four user paths.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_fast --seed 0 --seconds 22 --trace 0

Each run starts fresh interpreters (``worker.py``): a few that stop after
set-up, whose median set-up time is ``setup_s``, and one that also runs the
timed passes.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer host-time ledger (see README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Outputs are checked against ``reference.json``; regenerate it
with ``python3 perfbench/reference.py`` only when an output change is
intended.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_fast", "tune_store", "serve_mix", "scale_hybrid")
#: Set-up-only interpreters per run; with the measuring one, the
#: ``setup_s`` median is over three fresh set-ups.
SETUP_PROBES = 2
#: Whole-run deadline, below the 180 s a run may take.
DEADLINE_S = 170.0


def worker_env() -> dict[str, str]:
    """The child environment: the checkout's sources, fixed hashing, one
    numeric thread, and none of the ``REPRO_*`` overrides that would turn
    on result caching, a store sink or worker pools."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    return env


def spawn(config: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed before the run started")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        env=worker_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(body: dict, setups: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "wall_s": (body["wall_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (body["ops_per_s"], "1/s"),
        "peak_rss_mb": (body["peak_rss_mb"], "MB"),
        "success_ratio": (1.0 - body["failed"] / body["attempted"], "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    config = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace}
    setups = []
    try:
        for i in range(SETUP_PROBES):
            setups.append(spawn({**config, "mode": "setup",
                                 "workdir": str(workdir / f"probe{i}")},
                                deadline)["setup_s"])
        body = spawn({**config, "mode": "run",
                      "workdir": str(workdir / "run")}, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    setups.append(body["setup_s"])
    for line in body["errors"]:
        print(f"error: {line}", file=sys.stderr)
    if "wall_s" not in body:
        print("error: no pass of the workload completed", file=sys.stderr)
        return 1

    metrics = body["layers"] if args.trace else end_to_end(body, setups)
    if sorted(metrics) != sorted(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 3
    for name in declared:
        value, unit = metrics[name]
        print(f"{name:40s} {value:14.6g} {unit}")
    if body["mismatched"]:
        print(f"output mismatch: {', '.join(body['mismatched'])}",
              file=sys.stderr)
    print(f"[{args.workload}: {body['passes']} measured passes, "
          f"{body['ops']} ops, raw mean pass {body['raw_wall_s']:.4g} s at "
          f"slowdown {body['slowdown']:.3f}, "
          f"setup samples {[round(s, 3) for s in setups]}"
          + (f", op tail = p{body['tail_percentile']:.4g}"
             if "tail_percentile" in body else "") + "]", file=sys.stderr)
    print(json.dumps({
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
