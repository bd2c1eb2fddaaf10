"""Fig. 8: normalized Alltoall runtimes under artificial + traced patterns.

Per machine: trace the FT proxy to extract its real arrival pattern (the
FT-Scenario) and the maximum observed skew; generate the eight artificial
patterns with that skew; benchmark every Alltoall algorithm (32768 B) under
No-delay, all artificial patterns, and the FT-Scenario.  Report runtimes
normalized to each row's fastest algorithm plus the per-algorithm *Average*
row — the paper's robustness indicator, which predicts the FT winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.ft import FT_MSG_BYTES, FTProxy
from repro.bench.results import SweepResult
from repro.bench.robustness import average_normalized, normalize_rows
from repro.bench.runner import sweep_shared_skew
from repro.experiments.common import ExperimentConfig, TABLE2_ALGORITHMS
from repro.experiments.fig7_ft_vs_micro import FIG7_MACHINES
from repro.patterns.shapes import NO_DELAY, list_shapes
from repro.reporting.ascii import render_grid
from repro.sim.platform import get_machine

FT_SCENARIO = "ft_scenario"


@dataclass
class Fig8MachineResult:
    machine: str
    traced_max_skew: float
    sweep: SweepResult = field(repr=False, default=None)

    @property
    def table(self) -> dict[str, dict[str, float]]:
        return {p: self.sweep.row(p) for p in self.sweep.patterns}

    @property
    def normalized(self) -> dict[str, dict[str, float]]:
        return normalize_rows(self.table)

    def average_row(self, exclude_ft: bool = True) -> dict[str, float]:
        exclude = (FT_SCENARIO,) if exclude_ft else ()
        return average_normalized(self.table, exclude=exclude)

    def predicted_best(self) -> str:
        """Best by the robustness average (no application knowledge)."""
        avg = self.average_row(exclude_ft=True)
        return min(avg, key=avg.get)

    def scenario_best(self) -> str:
        """Best under the traced application pattern (the oracle)."""
        row = self.sweep.row(FT_SCENARIO)
        return min(row, key=row.get)


@dataclass
class Fig8Result:
    num_ranks: int
    msg_bytes: float
    machines: dict[str, Fig8MachineResult] = field(default_factory=dict)


def run(
    config: ExperimentConfig | None = None,
    machines: tuple[str, ...] = FIG7_MACHINES,
) -> Fig8Result:
    config = config or ExperimentConfig()
    algorithms = TABLE2_ALGORITHMS["alltoall"]
    shapes = list_shapes() if not config.fast else ["ascending", "descending",
                                                    "first_delayed", "last_delayed"]
    result = Fig8Result(num_ranks=config.num_ranks, msg_bytes=FT_MSG_BYTES)
    for machine in machines:
        spec = get_machine(machine)
        # 1. Trace FT on this machine to get its real arrival pattern.
        ft = FTProxy.class_d_scaled(
            spec, nodes=config.nodes, cores_per_node=config.cores_per_node,
            seed=config.seed, iterations=5 if config.fast else 20,
        )
        _, trace = ft.trace()
        scenario = trace.arrival_pattern("alltoall", name=FT_SCENARIO)
        traced_skew = trace.imbalance("alltoall")["max_arrival_spread"]
        # 2. Benchmark under artificial patterns at the traced skew + scenario.
        bench = config.make_bench(machine=machine, nrep=max(config.nrep, 2))
        sweep = sweep_shared_skew(
            bench, "alltoall", algorithms, FT_MSG_BYTES, shapes,
            max_skew=traced_skew, seed=config.seed, extra_patterns=[scenario],
        )
        result.machines[machine] = Fig8MachineResult(
            machine=machine, traced_max_skew=traced_skew, sweep=sweep
        )
    return result


def report(result: Fig8Result) -> str:
    lines = [
        f"Fig. 8 — normalized Alltoall runtimes ({result.num_ranks} ranks, "
        f"msg = {int(result.msg_bytes)} B; skew = max traced FT skew)",
        "cell = d^ / row minimum (absolute d^ in ms in parentheses)",
    ]
    for machine, mres in result.machines.items():
        table = mres.table
        normalized = mres.normalized
        patterns = list(table)
        algorithms = list(next(iter(table.values())))
        grid: dict[str, dict[str, str]] = {}
        for pattern in patterns:
            grid[pattern] = {
                algo: f"{normalized[pattern][algo]:.2f} ({table[pattern][algo] * 1e3:.3f})"
                for algo in algorithms
            }
        avg = mres.average_row(exclude_ft=True)
        grid["Average (excl. FT-Sce.)"] = {a: f"{v:.2f}" for a, v in avg.items()}
        lines.append("")
        lines.append(f"--- {machine} (traced max skew "
                     f"{mres.traced_max_skew * 1e6:.1f} us) ---")
        lines.append(render_grid(
            grid,
            row_order=[NO_DELAY] + [p for p in patterns if p not in (NO_DELAY, FT_SCENARIO)]
            + [FT_SCENARIO, "Average (excl. FT-Sce.)"],
            col_order=algorithms,
            corner="pattern \\ algo",
        ))
        lines.append(
            f"robustness-average pick: {mres.predicted_best()}; "
            f"best under traced FT-Scenario: {mres.scenario_best()}; "
            f"No-delay pick: {mres.sweep.best_algorithm(NO_DELAY)}"
        )
    return "\n".join(lines)
