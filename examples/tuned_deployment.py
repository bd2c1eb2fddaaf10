#!/usr/bin/env python
"""The full production loop: tune once, deploy the table, run a real app mix.

1. run a :class:`~repro.bench.campaign.TuningCampaign` (the paper's
   robustness-average strategy) over the collectives and sizes a
   CFD-flavoured application uses,
2. persist the table + an Open MPI ``coll_tuned`` rules file,
3. run a mixed-collective workload three ways — library default rules,
   the freshly tuned table, and the tuned table reloaded from disk — and
   compare end-to-end runtimes.

Run:  python examples/tuned_deployment.py
"""

from pathlib import Path

from repro.bench import MicroBenchmark, TuningCampaign
from repro.reporting import render_table
from repro.selection import SelectionTable
from repro.sim.platform import get_machine
from repro.workloads import CollectivePhase, WorkloadSpec, run_workload

MACHINE = "galileo100"
NODES, CORES = 8, 4

# A CFD-ish timestep: transpose-heavy Alltoall, residual Allreduce,
# occasional control Bcast.
WORKLOAD = WorkloadSpec(
    name="cfd_step",
    phases=(
        CollectivePhase("alltoall", 32768.0, count=16),
        CollectivePhase("allreduce", 8.0, count=8),
        CollectivePhase("bcast", 4096.0, count=16),
    ),
    iterations=10,
    warmup=0,
    compute=1e-3,
)


def main() -> None:
    spec = get_machine(MACHINE)

    print(f"[1/3] tuning campaign on '{MACHINE}' ({NODES * CORES} ranks) ...")
    bench = MicroBenchmark.from_machine(spec, nodes=NODES, cores_per_node=CORES,
                                        nrep=2)
    campaign = TuningCampaign(
        bench=bench,
        collectives=("alltoall", "allreduce", "bcast"),
        msg_sizes=(8, 4096, 32768),
    )
    result = campaign.run(progress=lambda c, s: print(f"      {c} @ {s} B"))
    outdir = Path("tuned_deployment")
    paths = campaign.save(result, outdir)
    print(f"      wrote {paths['rules']}")

    print("[2/3] reloading the deployed table from disk ...")
    deployed = SelectionTable.load_json(paths["table"])

    print("[3/3] running the workload under each decision source ...")
    app_bench = MicroBenchmark.from_machine(spec, nodes=NODES,
                                            cores_per_node=CORES, seed=5)
    rows = []
    for label, table in (("library fixed rules", None),
                         ("tuned (in-memory)", result.table),
                         ("tuned (reloaded from disk)", deployed)):
        out = run_workload(WORKLOAD, app_bench, table=table, cells=False)
        rows.append([
            label,
            out.resolved["alltoall@32768B"],
            f"{out.runtime * 1e3:.2f}",
            out.dominant_phase,
        ])
    print(render_table(
        ["decision source", "alltoall algorithm", "app runtime (ms)",
         "dominant phase"],
        rows,
    ))
    same = rows[1][1:3] == rows[2][1:3]
    print(f"\nreloaded table reproduces the in-memory decisions: "
          f"{'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
