"""Workload zoo and trace-driven replay — scenarios beyond the NAS FT point.

This package turns the single-scenario evaluation of the paper into a
scenario *zoo*:

* :mod:`repro.workloads.spec` — the declarative :class:`WorkloadSpec` model
  (phases, schedules, compute, warmup, overlap modes) and the one rank
  program every runner, and the :mod:`repro.apps` proxies, run.
* :mod:`repro.workloads.zoo` — registered built-in generators (PARAM-style
  sweeps, DLRM embedding alltoallv, DDP buckets, ragged allgatherv, the
  mixed timestep).
* :mod:`repro.workloads.runner` — executes a spec: loop simulation plus
  per-phase cells through the executor/cache/store pipeline.
* :mod:`repro.workloads.replay` — reconstructs a workload + arrival pattern
  from any recorded obs trace.
* :mod:`repro.workloads.contention` — multi-job runs on one fabric with
  per-job link attribution.

Driven by ``repro-mpi workload {list,describe,run,replay,contend}``.
"""

from repro.workloads.spec import (
    OVERLAP_MODES,
    CollectivePhase,
    WorkloadSpec,
    build_plan,
    iteration_body,
    rank_program,
)
from repro.workloads.zoo import (
    WorkloadInfo,
    build_workload,
    get_workload,
    list_workloads,
    register_workload,
)
from repro.workloads.runner import WorkloadRunResult, resolve_algorithm, run_workload
from repro.workloads.replay import (
    load_analysis,
    pattern_from_trace,
    workload_from_trace,
)
from repro.workloads.contention import (
    ContentionResult,
    GroupContext,
    JobResult,
    run_contended,
)

__all__ = [
    "OVERLAP_MODES",
    "CollectivePhase",
    "WorkloadSpec",
    "build_plan",
    "iteration_body",
    "rank_program",
    "WorkloadInfo",
    "register_workload",
    "list_workloads",
    "get_workload",
    "build_workload",
    "WorkloadRunResult",
    "resolve_algorithm",
    "run_workload",
    "load_analysis",
    "pattern_from_trace",
    "workload_from_trace",
    "GroupContext",
    "JobResult",
    "ContentionResult",
    "run_contended",
]
