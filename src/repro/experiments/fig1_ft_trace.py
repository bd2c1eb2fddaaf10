"""Fig. 1: average per-rank delay across all MPI_Alltoall calls in FT.

The paper traces FT on Galileo100 with 32 x 32 ranks and plots the mean
arrival delay (relative to each call's first-arriving rank) per rank.  We
run the FT proxy on the ``galileo100`` preset, trace every Alltoall, and
report the same series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.ft import FTProxy
from repro.experiments.common import ExperimentConfig
from repro.reporting.ascii import render_series, render_table
from repro.sim.platform import get_machine


@dataclass
class Fig1Result:
    machine: str
    num_ranks: int
    calls_traced: int
    avg_delay_per_rank: np.ndarray = field(repr=False)
    max_skew: float = 0.0
    ft_runtime: float = 0.0


def run(config: ExperimentConfig | None = None) -> Fig1Result:
    config = config or ExperimentConfig(machine="galileo100")
    spec = get_machine(config.machine)
    ft = FTProxy.class_d_scaled(
        spec, nodes=config.nodes, cores_per_node=config.cores_per_node,
        seed=config.seed,
        iterations=5 if config.fast else 20,
    )
    app_result, trace = ft.trace()
    return Fig1Result(
        machine=config.machine,
        num_ranks=config.num_ranks,
        calls_traced=len(trace.calls("alltoall")),
        avg_delay_per_rank=trace.arrival_pattern("alltoall").skews,
        max_skew=trace.imbalance("alltoall")["max_arrival_spread"],
        ft_runtime=app_result.runtime,
    )


def report(result: Fig1Result) -> str:
    delays_us = result.avg_delay_per_rank * 1e6
    lines = [
        f"Fig. 1 — Avg. process delay (skew) across all MPI_Alltoall calls in FT "
        f"({result.machine}, {result.num_ranks} ranks, {result.calls_traced} calls)",
        "",
        render_series(
            delays_us.tolist(),
            title="average delay per rank (us), x = rank",
        ),
        "",
        render_table(
            ["statistic", "value"],
            [
                ["mean delay (us)", f"{delays_us.mean():.2f}"],
                ["median delay (us)", f"{np.median(delays_us):.2f}"],
                ["max avg delay (us)", f"{delays_us.max():.2f}"],
                ["max per-call skew (us)", f"{result.max_skew * 1e6:.2f}"],
                ["delay spread (std/max)", f"{delays_us.std() / max(delays_us.max(), 1e-12):.3f}"],
                ["FT runtime (ms)", f"{result.ft_runtime * 1e3:.2f}"],
            ],
        ),
        "",
        "Paper's observation: the average delay is NOT uniformly distributed"
        " across ranks -> optimization potential.",
    ]
    return "\n".join(lines)
