#!/usr/bin/env python
"""End-to-end arrival-pattern-aware algorithm selection for an FT-like app.

The full Section-V pipeline of the paper:

1. trace the FT proxy and extract its real arrival pattern (the
   "FT-Scenario") and maximum observed skew;
2. micro-benchmark every Alltoall algorithm under the eight artificial
   patterns (scaled to the traced skew) plus the FT-Scenario;
3. apply three selection strategies — classic No-delay tuning, the paper's
   robustness average, and the trace oracle;
4. validate each pick by actually running FT with it;
5. export the robust selection as an Open MPI ``coll_tuned`` dynamic rules
   file you could drop onto a real cluster.

Run:  python examples/algorithm_selection_ft.py
"""

from pathlib import Path

from repro.apps import FTProxy
from repro.apps.ft import FT_MSG_BYTES
from repro.bench import MicroBenchmark, sweep_shared_skew
from repro.patterns import list_shapes
from repro.reporting import render_table
from repro.selection import (
    NoDelaySelector,
    OracleSelector,
    RobustAverageSelector,
    SelectionTable,
    write_ompi_rules_file,
)
from repro.sim.platform import get_machine

MACHINE = "hydra"
NODES, CORES = 8, 4
ALGORITHMS = ["basic_linear", "pairwise", "bruck", "linear_sync"]


def main() -> None:
    spec = get_machine(MACHINE)
    num_ranks = NODES * CORES

    # --- 1. trace the application. -------------------------------------
    print(f"[1/5] tracing FT on '{MACHINE}' ({num_ranks} ranks) ...")
    ft = FTProxy.class_d_scaled(spec, nodes=NODES, cores_per_node=CORES, seed=1)
    _, trace = ft.trace()
    scenario = trace.arrival_pattern("alltoall", name="ft_scenario")
    skew = trace.imbalance("alltoall")["max_arrival_spread"]
    print(f"      traced {len(trace.calls('alltoall'))} Alltoall calls, "
          f"max skew {skew * 1e6:.1f} us")

    # --- 2. benchmark under patterns. ----------------------------------
    print("[2/5] benchmarking Alltoall algorithms under arrival patterns ...")
    bench = MicroBenchmark.from_machine(spec, nodes=NODES, cores_per_node=CORES, nrep=2)
    sweep = sweep_shared_skew(
        bench, "alltoall", ALGORITHMS, FT_MSG_BYTES, list_shapes(),
        max_skew=skew, extra_patterns=[scenario],
    )

    # --- 3. apply the selection strategies. ----------------------------
    strategies = {
        "no_delay (classic tuning)": NoDelaySelector(),
        "robust average (paper)": RobustAverageSelector(exclude=("ft_scenario",)),
        "oracle (traced pattern)": OracleSelector("ft_scenario"),
    }
    picks = {name: strat.select(sweep) for name, strat in strategies.items()}

    # --- 4. validate in the application. -------------------------------
    print("[3/5] validating picks by running FT with each algorithm ...")
    ft_runtimes = {}
    for algo in ALGORITHMS:
        app = FTProxy.class_d_scaled(
            spec, nodes=NODES, cores_per_node=CORES, seed=1, algorithm=algo
        ).run()
        ft_runtimes[algo] = app.runtime
    actual_best = min(ft_runtimes, key=ft_runtimes.get)

    print("[4/5] results:")
    rows = [
        [name, algo, f"{ft_runtimes[algo] * 1e3:.2f}",
         "YES" if algo == actual_best else "no"]
        for name, algo in picks.items()
    ]
    rows.append(["(actual best in FT)", actual_best,
                 f"{ft_runtimes[actual_best] * 1e3:.2f}", "-"])
    print(render_table(
        ["strategy", "picked algorithm", "FT runtime (ms)", "optimal?"], rows
    ))

    # --- 5. export a deployable tuning file. ---------------------------
    table = SelectionTable()
    table.add_sweep(sweep, RobustAverageSelector(exclude=("ft_scenario",)))
    rules_path = Path("ompi_tuned_rules.conf")
    write_ompi_rules_file(rules_path, table)
    print(f"[5/5] wrote Open MPI dynamic rules to {rules_path} "
          f"(coll_tuned_dynamic_rules_filename)")


if __name__ == "__main__":
    main()
