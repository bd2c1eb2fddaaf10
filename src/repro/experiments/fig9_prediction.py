"""Fig. 9: actual FT runtime vs. projected runtimes (No-delay vs. pattern-average).

The paper profiles FT (mpisee) to extract its computation time, then
projects the total runtime two ways per Alltoall algorithm:

* ``compute + n_calls x d^_no_delay``  — the classic micro-benchmark
  projection, which misses badly for skew-sensitive algorithms;
* ``compute + n_calls x (avg-normalized expected delay)`` — using the mean
  runtime across arrival patterns (excluding the traced FT-Scenario), which
  tracks the actual runtime closely.

Our compute extraction comes from the proxy app's built-in accounting (the
mpisee analogue).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.ft import FT_MSG_BYTES, FTProxy
from repro.bench.runner import sweep_shared_skew
from repro.experiments.common import ExperimentConfig, TABLE2_ALGORITHMS
from repro.experiments.fig8_normalized import FT_SCENARIO
from repro.patterns.shapes import NO_DELAY, list_shapes
from repro.reporting.ascii import render_table
from repro.sim.platform import get_machine


@dataclass
class Fig9Result:
    machine: str
    num_ranks: int
    calls: int
    compute_time: float
    actual: dict[str, float] = field(default_factory=dict)
    predicted_no_delay: dict[str, float] = field(default_factory=dict)
    predicted_average: dict[str, float] = field(default_factory=dict)

    def error(self, predictions: dict[str, float]) -> dict[str, float]:
        """Relative prediction error per algorithm."""
        return {
            algo: abs(predictions[algo] - self.actual[algo]) / self.actual[algo]
            for algo in self.actual
        }

    @property
    def no_delay_mean_error(self) -> float:
        return float(np.mean(list(self.error(self.predicted_no_delay).values())))

    @property
    def average_mean_error(self) -> float:
        return float(np.mean(list(self.error(self.predicted_average).values())))


def run(config: ExperimentConfig | None = None) -> Fig9Result:
    config = config or ExperimentConfig(machine="hydra")
    spec = get_machine(config.machine)
    algorithms = TABLE2_ALGORITHMS["alltoall"]
    iterations = 5 if config.fast else 20
    shapes = list_shapes() if not config.fast else ["ascending", "descending",
                                                    "last_delayed", "random"]

    # --- actual FT runs + profile (compute time, call count, trace). ---
    actual: dict[str, float] = {}
    for algo in algorithms:
        ft = FTProxy.class_d_scaled(
            spec, nodes=config.nodes, cores_per_node=config.cores_per_node,
            seed=config.seed, algorithm=algo, iterations=iterations,
        )
        if algo == algorithms[0]:
            app, trace = ft.trace()
            compute = app.compute_time
            calls = app.collective_calls
        else:
            app = ft.run()
        actual[algo] = app.runtime

    # --- micro-benchmark expectations per algorithm. ---
    scenario = trace.arrival_pattern("alltoall", name=FT_SCENARIO)
    traced_skew = trace.imbalance("alltoall")["max_arrival_spread"]
    bench = config.make_bench(nrep=max(config.nrep, 2))
    sweep = sweep_shared_skew(
        bench, "alltoall", algorithms, FT_MSG_BYTES, shapes,
        max_skew=traced_skew, seed=config.seed, extra_patterns=[scenario],
    )
    result = Fig9Result(
        machine=config.machine, num_ranks=config.num_ranks,
        calls=calls, compute_time=compute, actual=actual,
    )
    patterns_for_avg = [p for p in sweep.patterns if p not in (FT_SCENARIO,)]
    for algo in algorithms:
        d_nodelay = sweep.get(NO_DELAY, algo).last_delay
        d_avg = float(np.mean([sweep.get(p, algo).last_delay for p in patterns_for_avg]))
        result.predicted_no_delay[algo] = compute + calls * d_nodelay
        result.predicted_average[algo] = compute + calls * d_avg
    return result


def report(result: Fig9Result) -> str:
    rows = []
    for algo in result.actual:
        rows.append([
            algo,
            f"{result.actual[algo] * 1e3:.2f}",
            f"{result.predicted_no_delay[algo] * 1e3:.2f}",
            f"{result.predicted_average[algo] * 1e3:.2f}",
            f"{result.error(result.predicted_no_delay)[algo] * 100:.1f}%",
            f"{result.error(result.predicted_average)[algo] * 100:.1f}%",
        ])
    lines = [
        f"Fig. 9 — actual vs. projected FT runtime ({result.machine}, "
        f"{result.num_ranks} ranks, {result.calls} Alltoall calls, "
        f"compute = {result.compute_time * 1e3:.2f} ms)",
        "",
        render_table(
            ["algorithm", "actual (ms)", "proj. No-delay (ms)",
             "proj. Avg (ms)", "err No-delay", "err Avg"],
            rows,
        ),
        "",
        f"mean relative error: No-delay projection {result.no_delay_mean_error * 100:.1f}%, "
        f"pattern-average projection {result.average_mean_error * 100:.1f}%",
    ]
    return "\n".join(lines)
