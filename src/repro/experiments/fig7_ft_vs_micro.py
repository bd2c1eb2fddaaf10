"""Fig. 7: FT runtime vs. the No-delay Alltoall micro-benchmark, per machine.

For each machine analogue the driver (a) runs the FT proxy with each
Alltoall algorithm (several seeds, averaged — the paper averages 10 runs)
and (b) runs the plain No-delay Alltoall micro-benchmark at FT's 32768-byte
message size, through the reuse tier (Fig. 8's No-delay row repeats
them).  The paper's point: the micro-benchmark ranking does not predict
the in-application ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.ft import FT_MSG_BYTES, FTProxy
from repro.bench.executor import CellSpec, reuse_cell
from repro.experiments.common import ExperimentConfig, TABLE2_ALGORITHMS
from repro.reporting.ascii import render_bars
from repro.sim.platform import get_machine

#: The three machines of the paper's Fig. 7.
FIG7_MACHINES = ("hydra", "galileo100", "discoverer")


@dataclass
class Fig7MachineResult:
    machine: str
    ft_runtime: dict[str, float] = field(default_factory=dict)
    micro_delay: dict[str, float] = field(default_factory=dict)

    def ft_best(self) -> str:
        return min(self.ft_runtime, key=self.ft_runtime.get)

    def micro_best(self) -> str:
        return min(self.micro_delay, key=self.micro_delay.get)

    @property
    def rankings_agree(self) -> bool:
        return self.ft_best() == self.micro_best()


@dataclass
class Fig7Result:
    num_ranks: int
    machines: dict[str, Fig7MachineResult] = field(default_factory=dict)


def run(
    config: ExperimentConfig | None = None,
    machines: tuple[str, ...] = FIG7_MACHINES,
    ft_runs: int = 3,
) -> Fig7Result:
    config = config or ExperimentConfig()
    algorithms = TABLE2_ALGORITHMS["alltoall"]
    if config.fast:
        ft_runs = 1
    result = Fig7Result(num_ranks=config.num_ranks)
    for machine in machines:
        spec = get_machine(machine)
        mres = Fig7MachineResult(machine=machine)
        bench = config.make_bench(machine=machine, nrep=max(config.nrep, 2))
        for algo in algorithms:
            runtimes = []
            for run_idx in range(ft_runs):
                ft = FTProxy.class_d_scaled(
                    spec,
                    nodes=config.nodes,
                    cores_per_node=config.cores_per_node,
                    seed=config.seed + run_idx,
                    algorithm=algo,
                    iterations=5 if config.fast else 20,
                )
                runtimes.append(ft.run().runtime)
            mres.ft_runtime[algo] = float(np.mean(runtimes))
            mres.micro_delay[algo] = reuse_cell(CellSpec.from_bench(
                bench, "alltoall", algo, FT_MSG_BYTES)).last_delay
        result.machines[machine] = mres
    return result


def report(result: Fig7Result) -> str:
    lines = [
        f"Fig. 7 — FT runtime vs. No-delay Alltoall micro-benchmark "
        f"({result.num_ranks} ranks, msg = 32768 B)",
    ]
    for machine, mres in result.machines.items():
        lines.append("")
        lines.append(f"--- {machine} ---")
        lines.append(render_bars(
            {a: v * 1e3 for a, v in mres.ft_runtime.items()},
            unit=" ms", title="FT runtime per Alltoall algorithm:",
        ))
        lines.append("")
        lines.append(render_bars(
            {a: v * 1e3 for a, v in mres.micro_delay.items()},
            unit=" ms", title="Alltoall micro-benchmark (No-delay) per algorithm:",
        ))
        agree = "AGREE" if mres.rankings_agree else "DISAGREE"
        lines.append(
            f"micro-benchmark best = {mres.micro_best()}, FT best = {mres.ft_best()} "
            f"-> rankings {agree}"
        )
    return "\n".join(lines)
