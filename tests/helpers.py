"""Test helpers: run a collective on every rank and collect results, read
flow counters out of a metrics snapshot, and load the benchmark gate."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from repro.collectives import CollArgs, make_input, run_collective
from repro.sim.mpi import RunResult, run_processes
from repro.sim.network import NetworkParams
from repro.sim.platform import Platform


def run_collective_all_ranks(
    collective: str,
    algorithm: str,
    size: int,
    count: int = 8,
    msg_bytes: float | None = None,
    root: int = 0,
    op=None,
    cores_per_node: int = 4,
    params: NetworkParams | None = None,
    segment_bytes: float | None = None,
    inputs: list[np.ndarray] | None = None,
) -> tuple[list, RunResult, CollArgs, list[np.ndarray]]:
    """Run one collective over ``size`` ranks; returns (results, run, args, inputs)."""
    nodes = max(1, (size + cores_per_node - 1) // cores_per_node)
    platform = Platform("test", nodes=nodes, cores_per_node=cores_per_node)
    kwargs = dict(
        count=count,
        msg_bytes=float(msg_bytes if msg_bytes is not None else count * 8),
        root=root,
        segment_bytes=segment_bytes,
    )
    if op is not None:
        kwargs["op"] = op
    args = CollArgs(**kwargs)
    if inputs is None:
        inputs = [make_input(collective, r, size, count) for r in range(size)]

    def prog(ctx):
        result = yield from run_collective(ctx, collective, algorithm, args, inputs[ctx.rank])
        return result

    run = run_processes(platform, prog, params=params, num_ranks=size)
    return run.rank_results, run, args, inputs


def flow_counter(snapshot: dict, name: str) -> float:
    """Sum the ``flow.*`` counter ``name`` over all its label sets."""
    return sum(m["value"] for key, m in snapshot.items()
               if key == name or key.startswith(name + "{"))


#: The repository's ``benchmarks/`` directory (benches, baselines, gate).
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_gate():
    """Import ``benchmarks/gate.py``, a script outside the package."""
    spec = importlib.util.spec_from_file_location("gate", BENCHMARKS / "gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
