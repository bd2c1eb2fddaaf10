"""Tuning campaigns: sweep collectives x sizes, build deployable rule tables.

A :class:`TuningCampaign` is the production workflow wrapped around the
paper's methodology (cf. OMPICollTune [Hunold & Steiner, PMBS'22], the
authors' own autotuner):

1. for every requested (collective, message size): benchmark all algorithms
   under the arrival-pattern set,
2. apply a selection strategy per cell (default: the paper's robustness
   average),
3. accumulate a :class:`~repro.selection.table.SelectionTable`,
4. persist everything — raw sweeps (JSON), the table (JSON), and an Open
   MPI ``coll_tuned`` dynamic-rules file ready for deployment.

Campaign cells fan out over a process pool (``jobs``) and reuse a
content-addressed on-disk result cache (``cache_dir``) — see
:mod:`repro.bench.executor`; parallel output is byte-identical to serial.

Exposed on the CLI as ``repro-mpi tune`` (``--jobs``, ``--cache-dir``).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.bench.executor import REUSE, CellExecutor, CellSpec, ExecutorStats
from repro.bench.micro import MicroBenchmark
from repro.bench.results import SweepResult
from repro.collectives.base import get_algorithm, list_algorithms
from repro.obs.context import current as _obs_current
from repro.patterns.generator import generate_pattern
from repro.patterns.shapes import NO_DELAY, list_shapes
from repro.patterns.skew import DEFAULT_SKEW_FACTOR, skew_from_mean_runtime
from repro.utils.units import format_bytes, parse_bytes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.selection.strategies import SelectionStrategy
    from repro.selection.table import SelectionTable

#: Collectives the Open MPI rules exporter can serialize (mirror of
#: repro.selection.ompi_rules.OMPI_COLL_IDS; imported lazily to avoid a
#: bench <-> selection import cycle).
_TUNABLE = (
    "allgather", "allgatherv", "allreduce", "alltoall", "alltoallv",
    "alltoallw", "barrier", "bcast", "exscan", "gather", "gatherv",
    "reduce", "reduce_scatter", "reduce_scatter_block", "scan",
    "scatter", "scatterv",
)

#: Default size sweep: 8 B .. 1 MiB in decade-ish steps.
DEFAULT_SIZES = (8, 128, 1024, 8192, 65536, 1048576)


@dataclass
class CampaignResult:
    """Everything a finished campaign produced."""

    table: "SelectionTable"
    sweeps: dict[tuple[str, float], SweepResult] = field(default_factory=dict)
    winners: dict[tuple[str, float], str] = field(default_factory=dict)
    #: Cache-hit and per-cell timing counters from the executor that ran the
    #: campaign (speedup and hit-rate reporting).
    stats: ExecutorStats | None = None
    #: Ingest counters from the tuning store, when the campaign had one
    #: (``{"new_sweeps": N, "rules_written": N}``).
    store_ingest: dict | None = None
    #: Guideline lint report over the campaign's data, when ``lint_after``
    #: was set (a :class:`repro.lint.LintReport`).
    lint_report: object = None

    def summary_rows(self) -> list[list[str]]:
        return [
            [coll, format_bytes(int(size)), winner]
            for (coll, size), winner in sorted(self.winners.items())
        ]


@dataclass
class TuningCampaign:
    """Configured tuning campaign bound to one benchmark harness."""

    bench: MicroBenchmark
    collectives: Sequence[str] = ("alltoall", "allreduce", "reduce")
    msg_sizes: Sequence[int | str] = DEFAULT_SIZES
    shapes: Sequence[str] = ()
    strategy: "SelectionStrategy | None" = None
    #: Shared-skew factor; defaults to the paper's headline 1.5 so a default
    #: campaign tunes under the same conditions as the headline figures (see
    #: repro.patterns.skew.SKEW_FACTORS / DEFAULT_SKEW_FACTOR).
    skew_factor: float = DEFAULT_SKEW_FACTOR
    seed: int = 0
    #: Worker processes for the cell fan-out (1 = in-process serial).
    jobs: int = 1
    #: Enables the on-disk result cache when set (see repro.bench.executor).
    cache_dir: str | Path | None = None
    #: Tuning store (a repro.store.TuningStore or a path).  When set, the
    #: finished campaign ingests every sweep with its cells, cache hits
    #: included, and every built rule; content addressing makes re-runs
    #: idempotent.
    store: object = None
    #: Lint the campaign's data against the repro.lint guidelines after the
    #: run (and after the store ingest, so findings can mark store cells
    #: suspect via ``store.apply_lint``).  The report lands on
    #: ``CampaignResult.lint_report``; it never fails the campaign.
    lint_after: bool = False

    def __post_init__(self) -> None:
        from repro.selection.strategies import RobustAverageSelector

        if self.strategy is None:
            self.strategy = RobustAverageSelector()
        if not self.collectives:
            raise ConfigurationError("campaign needs at least one collective")
        for coll in self.collectives:
            if coll not in _TUNABLE:
                raise ConfigurationError(
                    f"cannot tune {coll!r}: no Open MPI rules id "
                    f"(choose from {sorted(_TUNABLE)})"
                )
            list_algorithms(coll)  # raises for unknown families
        self._sizes = [parse_bytes(s) for s in self.msg_sizes]
        if not self._sizes:
            raise ConfigurationError("campaign needs at least one message size")
        self._shapes = list(self.shapes) or list_shapes()
        self._store_handle = None
        self._owns_store = False

    def _open_store(self):
        """Open (once) the campaign's tuning store; ``None`` when unset."""
        if self.store is None:
            return None
        if self._store_handle is None:
            from repro.store import open_store

            self._store_handle, self._owns_store = open_store(self.store)
        return self._store_handle

    def close(self) -> None:
        """Release the tuning store if this campaign opened it."""
        if self._store_handle is not None and self._owns_store:
            self._store_handle.close()
        self._store_handle = None

    def make_executor(self) -> CellExecutor:
        """The executor this campaign's cells run through."""
        return CellExecutor(jobs=self.jobs, cache_dir=self.cache_dir)

    def run(self, progress=None, executor: CellExecutor | None = None) -> CampaignResult:
        """Execute the campaign; ``progress(collective, size)`` is called per cell.

        Two-phase fan-out: the No-delay baselines for *every* campaign cell
        run first (they size each cell's shared skew), then all skewed cells
        across the whole grid fan out in one batch.  With ``jobs > 1`` both
        batches spread over a process pool; results merge back in grid order,
        so the output is identical to a serial run.
        """
        from repro.selection.table import SelectionTable

        store = self._open_store()  # a bad store fails before any cell runs
        REUSE.clear()  # a campaign's cost does not depend on earlier runs
        if executor is None:
            executor = self.make_executor()
        table = SelectionTable(strategy_name=self.strategy.name)
        result = CampaignResult(table=table, stats=executor.stats)
        machine = self.bench.machine_name or self.bench.platform.name
        shapes = [s for s in self._shapes if s != NO_DELAY]
        grid = [
            (coll, list_algorithms(coll), size)
            for coll in self.collectives
            for size in self._sizes
        ]
        # Phase 1: No-delay baselines for every (collective, size, algorithm).
        base_specs = []
        for coll, algorithms, size in grid:
            if progress is not None:
                progress(coll, size)
            base_specs.extend(
                CellSpec.from_bench(self.bench, coll, algo, size)
                for algo in algorithms
            )
        octx = _obs_current()
        with octx.wall_span("campaign.baselines", track="campaign",
                            args={"cells": len(base_specs)}):
            base_results = iter(executor.run_cells(base_specs))
        # Size each cell's skew from its baselines; build the skewed batch.
        sweeps: list[SweepResult] = []
        skewed_specs = []
        for coll, algorithms, size in grid:
            sweep = SweepResult(
                collective=coll, msg_bytes=float(size),
                num_ranks=self.bench.num_ranks, machine=machine,
            )
            no_delay_runtimes: dict[str, float] = {}
            for algo in algorithms:
                cell = next(base_results)
                sweep.add(cell)
                no_delay_runtimes[algo] = cell.last_delay
            sweep.skew_by_pattern[NO_DELAY] = 0.0
            skew = skew_from_mean_runtime(no_delay_runtimes, self.skew_factor)
            for shape in shapes:
                pattern = generate_pattern(
                    shape, self.bench.num_ranks, skew, seed=self.seed
                )
                sweep.skew_by_pattern[shape] = skew
                skewed_specs.extend(
                    CellSpec.from_bench(self.bench, coll, algo, size, pattern)
                    for algo in algorithms
                )
            sweeps.append(sweep)
        # Phase 2: every skewed cell across the whole campaign fans out.
        with octx.wall_span("campaign.skewed", track="campaign",
                            args={"cells": len(skewed_specs)}):
            skewed_results = iter(executor.run_cells(skewed_specs))
        for (coll, algorithms, size), sweep in zip(grid, sweeps):
            for _shape in shapes:
                for _algo in algorithms:
                    sweep.add(next(skewed_results))
            winner = table.add_sweep(sweep, self.strategy)
            result.sweeps[(coll, float(size))] = sweep
            result.winners[(coll, float(size))] = winner
        if store is not None:
            from repro.store import harness_hash

            with octx.wall_span("campaign.store_ingest", track="campaign"):
                result.store_ingest = store.ingest_campaign(
                    result,
                    run_id=octx.run_id,
                    params_hash=(harness_hash(base_specs[0])
                                 if base_specs else ""),
                )
        if self.lint_after:
            from repro.lint import lint_store, lint_sweeps

            with octx.wall_span("campaign.lint", track="campaign"):
                if store is not None:
                    result.lint_report = lint_store(store)
                else:
                    result.lint_report = lint_sweeps(result.sweeps.values())
        return result

    def save(self, result: CampaignResult, outdir: str | Path) -> dict[str, Path]:
        """Persist table, raw sweeps, and rules file; returns written paths.

        The table and sweeps keep every cell's true winner.  Open MPI cannot
        be told to run an algorithm without a ``coll_tuned`` id (e.g.
        ``reduce/knomial``), so for such a cell the rules file names the
        strategy's pick among the sweep's algorithms that have one.
        """
        from repro.selection.ompi_rules import write_ompi_rules_file

        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        paths = {
            "table": outdir / "selection_table.json",
            "rules": outdir / "ompi_dynamic_rules.conf",
            "sweeps": outdir / "sweeps.json",
        }
        result.table.save_json(paths["table"])
        payload = {
            f"{coll}:{int(size)}": sweep.to_dict()
            for (coll, size), sweep in result.sweeps.items()
        }
        paths["sweeps"].write_text(json.dumps(payload, indent=2))
        write_ompi_rules_file(paths["rules"], self._ompi_table(result))
        return paths

    def _ompi_table(self, result: CampaignResult) -> "SelectionTable":
        """Copy of ``result.table`` naming only algorithms with an Open MPI id.

        Only cells whose winner has no id are re-selected, over their sweep
        restricted to algorithms that have one; re-selecting every cell
        would let row normalization move winners that export as they are.
        A cell with no exportable algorithm keeps its winner, so the rules
        writer reports it.
        """
        table = copy.deepcopy(result.table)
        for (coll, size), sweep in result.sweeps.items():
            if get_algorithm(coll, result.winners[(coll, size)]).ompi_id is not None:
                continue
            cells = {key: cell for key, cell in sweep.cells.items()
                     if get_algorithm(coll, key[1]).ompi_id is not None}
            if cells:
                table.add_rule(coll, sweep.num_ranks, size,
                               self.strategy.select(replace(sweep, cells=cells)))
        return table


__all__ = ["TuningCampaign", "CampaignResult", "DEFAULT_SIZES"]
