"""Tests for the workload zoo, replay frontend, and contention runner."""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs, workloads
from repro.errors import ConfigurationError
from repro.bench import MicroBenchmark
from repro.bench.executor import CellExecutor, PatternSpec
from repro.collectives import run_collective, CollArgs, make_input
from repro.collectives.tuned import fixed_decision
from repro.obs.analysis import TraceAnalysis
from repro.patterns import generate_pattern
from repro.selection import SelectionTable
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform, get_machine
from repro.workloads import (
    CollectivePhase,
    GroupContext,
    WorkloadSpec,
    build_workload,
    list_workloads,
    register_workload,
    run_contended,
    run_workload,
    workload_from_trace,
)
from repro.workloads.runner import resolve_algorithm

#: A CFD-ish timestep: a transpose-heavy alltoall, a residual allreduce and
#: a control bcast.
MIXED_PHASES = (
    CollectivePhase("alltoall", 32768.0, count=16),
    CollectivePhase("allreduce", 8.0, count=8),
    CollectivePhase("bcast", 1024.0, count=16),
)


@pytest.fixture(scope="module")
def bench():
    return MicroBenchmark.from_machine(
        get_machine("simcluster"), nodes=4, cores_per_node=2, nrep=2
    )


class TestCollectivePhase:
    def test_key_format(self):
        assert CollectivePhase("alltoall", 32768.0).key == "alltoall@32768B"

    def test_vector_needs_counts(self):
        with pytest.raises(ConfigurationError):
            CollectivePhase("alltoallv")

    def test_counts_on_regular_collective_rejected(self):
        with pytest.raises(ConfigurationError):
            CollectivePhase("allreduce", counts=(1, 2, 3))

    def test_vector_key_uses_mean_block_size(self):
        ph = CollectivePhase("allgatherv", counts=(8, 16, 24, 32),
                             item_bytes=8.0)
        assert ph.effective_msg_bytes == pytest.approx(20 * 8.0)
        assert ph.key == "allgatherv@160B"

    def test_round_trip(self):
        for ph in (
            CollectivePhase("allreduce", 4096.0, count=8, op="max"),
            CollectivePhase("alltoallv",
                            counts=((0, 3), (5, 0)), item_bytes=16.0),
            CollectivePhase("allgatherv", counts=(4, 8), algorithm="ring"),
        ):
            assert CollectivePhase.from_dict(ph.to_dict()) == ph


class TestWorkloadSpec:
    def _spec(self):
        return WorkloadSpec(
            name="rt",
            phases=(CollectivePhase("allreduce", 512.0),
                    CollectivePhase("alltoallv",
                                    counts=((0, 2), (3, 0)))),
            iterations=3,
            warmup=1,
            compute=1e-4,
            overlap="split",
            pattern=PatternSpec(name="p", skews=(0.0, 1e-5)),
            description="round-trip fixture",
        )

    def test_round_trip_exact(self):
        spec = self._spec()
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="empty", phases=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad",
                         phases=(CollectivePhase("allreduce", 8.0),),
                         overlap="pipelined")

    def test_mixed_loop_validation(self):
        """A mixed-collective loop needs phases, iterations and sizes >= 0."""
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="mixed", phases=())
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="idle", phases=MIXED_PHASES, iterations=0)
        with pytest.raises(ConfigurationError):
            CollectivePhase("alltoall", -1.0)

    def test_collectives_property(self):
        assert self._spec().collectives == ("allreduce", "alltoallv")


class TestResolveAlgorithm:
    """Priority: explicit phase algorithm -> selection table -> fixed rules."""

    P = 16

    def _table(self, collective, algorithm):
        table = SelectionTable()
        table.add_rule(collective, self.P, 0.0, algorithm)
        return table

    def test_explicit_algorithm_wins(self):
        phase = CollectivePhase("alltoall", 64.0, algorithm="linear_sync")
        table = self._table("alltoall", "pairwise")
        assert resolve_algorithm(phase, self.P, table) == "linear_sync"

    def test_table_overrides_fixed_rules(self):
        phase = CollectivePhase("alltoall", 64.0)
        assert fixed_decision("alltoall", self.P, 64.0) != "pairwise"
        table = self._table("alltoall", "pairwise")
        assert resolve_algorithm(phase, self.P, table) == "pairwise"

    def test_fallback_to_fixed_rules(self):
        phase = CollectivePhase("alltoall", 64.0)
        expected = fixed_decision("alltoall", self.P, 64.0)
        assert resolve_algorithm(phase, self.P) == expected

    def test_table_missing_collective_falls_back(self):
        phase = CollectivePhase("alltoall", 64.0)
        table = self._table("reduce", "binomial")
        expected = fixed_decision("alltoall", self.P, 64.0)
        assert resolve_algorithm(phase, self.P, table) == expected


class TestZoo:
    def test_at_least_four_builtins(self):
        assert len(list_workloads()) >= 4

    def test_every_builtin_builds_and_round_trips(self):
        for info in list_workloads():
            spec = build_workload(info.name, 8, fast=True, seed=3)
            assert spec.name == info.name
            assert WorkloadSpec.from_dict(spec.to_dict()) == spec

    def test_builders_deterministic_in_seed(self):
        a = build_workload("dlrm_embedding", 8, seed=7)
        b = build_workload("dlrm_embedding", 8, seed=7)
        assert a == b

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_workload("param_sweep")(lambda p, fast=False, seed=0: None)

    def test_unknown_workload_names_the_registry(self):
        with pytest.raises(ConfigurationError, match="param_sweep"):
            build_workload("nope", 8)


class TestRunner:
    def test_run_produces_cells_and_phase_times(self, bench):
        spec = build_workload("dlrm_embedding", bench.num_ranks, fast=True)
        result = run_workload(spec, bench)
        assert result.runtime > 0
        assert set(result.resolved) == {ph.key for ph in spec.phases}
        assert set(result.phase_mpi_time) == set(result.resolved)
        assert all(t > 0 for t in result.phase_mpi_time.values())
        assert len(result.cell_results) == len(spec.phases)
        # Vector cells report the mean-block-size coordinate.
        assert result.cell_specs[0].counts is not None
        assert result.dominant_phase in result.resolved

    def test_cells_false_skips_executor(self, bench):
        spec = build_workload("param_sweep", bench.num_ranks, fast=True)
        result = run_workload(spec, bench, cells=False)
        assert result.cell_results == []
        assert result.runtime > 0

    def test_store_ingest(self, bench, tmp_path):
        from repro.store import TuningStore

        spec = build_workload("allgatherv_ragged", bench.num_ranks, fast=True)
        db = tmp_path / "wl.db"
        executor = CellExecutor.from_env(store=str(db))
        try:
            run_workload(spec, bench, executor=executor)
        finally:
            executor.close()
        with TuningStore(db) as store:
            payloads = [p for _h, p, _ph in store.iter_cell_rows()]
        assert any(p["collective"] == "allgatherv" for p in payloads)

    def test_pattern_rank_mismatch_rejected(self, bench):
        spec = build_workload("param_sweep", bench.num_ranks, fast=True)
        with pytest.raises(ConfigurationError):
            run_workload(spec, bench, cells=False,
                         pattern=generate_pattern("bell", 3, 1e-4))

    def test_interleaved_overlaps_compute_with_comm(self, bench):
        phases = (CollectivePhase("allreduce", 16384.0, count=16),)
        base = dict(phases=phases, iterations=3, warmup=0, compute=2e-3)
        seq = run_workload(WorkloadSpec(name="s", overlap="sequential", **base),
                           bench, cells=False)
        inter = run_workload(WorkloadSpec(name="i", overlap="interleaved", **base),
                             bench, cells=False)
        split = run_workload(WorkloadSpec(name="p", overlap="split", **base),
                             bench, cells=False)
        assert inter.runtime < seq.runtime
        # With a single phase, split degenerates to sequential.
        assert split.runtime == pytest.approx(seq.runtime, rel=1e-9)

    def test_accounting_per_phase(self, bench):
        spec = WorkloadSpec(name="mixed", phases=MIXED_PHASES, iterations=3,
                            warmup=0, compute=5e-4)
        result = run_workload(spec, bench, cells=False)
        assert set(result.resolved) == {
            "alltoall@32768B", "allreduce@8B", "bcast@1024B"
        }
        assert set(result.phase_mpi_time) == set(result.resolved)
        # The 32 KiB alltoall dominates the tiny allreduce/bcast.
        assert result.dominant_phase == "alltoall@32768B"

    def test_tuned_table_end_to_end(self):
        """Campaign -> table -> workload resolves from the campaign."""
        from repro.bench import TuningCampaign

        bench = MicroBenchmark.from_machine(get_machine("hydra"), nodes=4,
                                            cores_per_node=4, nrep=1)
        campaign = TuningCampaign(
            bench=bench, collectives=("alltoall",), msg_sizes=(32768,),
            shapes=("first_delayed", "random"),
        )
        campaign_result = campaign.run()
        spec = WorkloadSpec(name="mixed", phases=MIXED_PHASES, iterations=2,
                            warmup=0, compute=1e-3)
        result = run_workload(spec, bench, table=campaign_result.table,
                              cells=False)
        assert result.resolved["alltoall@32768B"] == campaign_result.winners[
            ("alltoall", 32768.0)
        ]

    def test_runs_counter_increments(self, bench):
        spec = build_workload("halo_mix", bench.num_ranks, fast=True)
        with obs.session(meta={"test": "wl"}) as octx:
            run_workload(spec, bench, cells=False)
            snap = octx.metrics.snapshot()
        assert snap['workload.runs{workload="halo_mix"}']["value"] == 1


class TestReplay:
    def _record(self, bench, spec, pattern=None):
        with obs.session(meta={"test": "replay"}, record_spans=True) as octx:
            run_workload(spec, bench, cells=False, pattern=pattern)
            return TraceAnalysis.from_context(octx)

    def test_trace_round_trip_is_deterministic(self, bench):
        """Pinned: trace -> spec reconstruction and its re-run are stable."""
        spec = build_workload("halo_mix", bench.num_ranks, fast=True)
        ana = self._record(bench, spec)
        rebuilt = workload_from_trace(ana, name="halo_replay")
        again = workload_from_trace(ana, name="halo_replay")
        assert rebuilt == again
        # Warmup iterations are recorded calls too, so they replay as
        # measured iterations of the same cycle.
        assert rebuilt.iterations == spec.warmup + spec.iterations
        assert [ph.collective for ph in rebuilt.phases] == [
            ph.collective for ph in spec.phases]
        assert [ph.algorithm for ph in rebuilt.phases] == [
            "pairwise", "recursive_doubling", "binomial"]
        a = run_workload(rebuilt, bench, cells=False)
        b = run_workload(rebuilt, bench, cells=False)
        assert a.runtime == b.runtime
        assert a.phase_mpi_time == b.phase_mpi_time

    def test_recorded_pattern_is_reconstructed(self, bench):
        """Pinned: the replayed spec carries the recorded arrival pattern."""
        pattern = generate_pattern("ascending", bench.num_ranks, 2e-4, seed=5)
        # One measured call: later iterations would re-converge behind the
        # collective's implicit sync and dilute the recorded mean skew.
        spec = WorkloadSpec(
            name="patterned",
            phases=(CollectivePhase("alltoall", 4096.0, count=8),),
            iterations=1, warmup=0,
        )
        ana = self._record(bench, spec, pattern=pattern)
        rebuilt = workload_from_trace(ana)
        assert rebuilt.pattern is not None
        skews = np.asarray(rebuilt.pattern.skews)
        assert skews.max() == pytest.approx(2e-4, abs=5e-6)
        assert np.allclose(np.sort(skews), np.sort(pattern.skews), atol=5e-6)

    def test_vector_phases_replay_with_counts(self, bench):
        spec = build_workload("allgatherv_ragged", bench.num_ranks, fast=True)
        ana = self._record(bench, spec)
        rebuilt = workload_from_trace(ana)
        ph = rebuilt.phases[0]
        assert ph.collective == "allgatherv"
        assert ph.counts is not None
        # Mean block size survives the uniform-counts degeneracy.
        assert ph.effective_msg_bytes == pytest.approx(
            spec.phases[0].effective_msg_bytes, rel=0.1)
        run_workload(rebuilt, bench, cells=False)  # and it executes

    def test_empty_trace_rejected(self):
        from repro.errors import TraceFormatError

        with pytest.raises(TraceFormatError):
            workload_from_trace(TraceAnalysis([], run_id="x"))


class TestGroupContext:
    def test_collective_on_subgroups_is_correct(self, small_platform):
        """Two disjoint groups allreduce concurrently; both sum correctly."""
        p = small_platform.num_ranks
        groups = (tuple(range(0, p, 2)), tuple(range(1, p, 2)))

        def prog(ctx):
            ranks = groups[ctx.rank % 2]
            g = GroupContext(ctx, ranks)
            assert g.size == p // 2 and g.rank == ranks.index(ctx.rank)
            args = CollArgs(count=4, msg_bytes=64.0)
            data = make_input("allreduce", g.rank, g.size, args.count)
            result = yield from run_collective(
                g, "allreduce", "recursive_doubling", args, data)
            return result

        run = run_processes(small_platform, prog)
        expected = sum(make_input("allreduce", r, p // 2, 4)
                       for r in range(p // 2))
        for r, result in enumerate(run.rank_results):
            assert np.array_equal(result, expected), f"rank {r}"

    def test_peer_out_of_group_rejected(self, small_platform):
        from repro.errors import ProtocolError

        def prog(ctx):
            if ctx.rank == 0:
                g = GroupContext(ctx, (0, 1))
                with pytest.raises(ProtocolError):
                    g.isend(5, 8)
            yield ctx.sleep(0.0)

        run_processes(small_platform, prog)


class TestContention:
    def test_two_jobs_attribute_link_wait(self, bench):
        """Acceptance: contended link wait is charged to BOTH job labels."""
        specs = [build_workload("halo_mix", bench.num_ranks // 2, fast=True),
                 build_workload("dlrm_embedding", bench.num_ranks // 2,
                                fast=True)]
        with obs.session(meta={"test": "contend"}, record_links=True):
            result = run_contended(specs, bench)
        assert len(result.jobs) == 2
        assert all(j.runtime > 0 for j in result.jobs)
        assert result.final_time >= max(j.runtime for j in result.jobs)
        activities = result.activities()
        assert any(a.startswith("job0-halo_mix:") for a in activities)
        assert any(a.startswith("job1-dlrm_embedding:") for a in activities)
        waits = result.wait_by_job()
        assert waits.get("job0-halo_mix", 0.0) > 0
        assert waits.get("job1-dlrm_embedding", 0.0) > 0

    def test_jobs_resolve_and_account_per_phase(self, bench):
        specs = [build_workload("param_sweep", bench.num_ranks // 2, fast=True),
                 build_workload("ddp_buckets", bench.num_ranks // 2, fast=True)]
        result = run_contended(specs, bench, labels=("a", "b"))
        for job, spec in zip(result.jobs, specs):
            assert set(job.resolved) == {ph.key for ph in spec.phases}
            assert all(t > 0 for t in job.phase_mpi_time.values())

    def test_validation(self, bench):
        spec = build_workload("param_sweep", 4, fast=True)
        with pytest.raises(ConfigurationError):
            run_contended([spec], bench)
        with pytest.raises(ConfigurationError):
            run_contended([spec, spec], bench, labels=("x", "x"))
