"""Tests for the parallel cell executor and the on-disk result cache."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.bench import (
    CellExecutor,
    CellSpec,
    MicroBenchmark,
    ResultCache,
    TuningCampaign,
    sweep_per_algorithm_skew,
    sweep_shared_skew,
)
from repro.bench.executor import run_cell
from repro.bench.results import BenchResult, SweepResult
from repro.collectives.ops import MAX
from repro.patterns.generator import ArrivalPattern, generate_pattern
from repro.sim.platform import get_machine


@pytest.fixture(scope="module")
def bench():
    return MicroBenchmark.from_machine(
        get_machine("hydra"), nodes=2, cores_per_node=2, nrep=1
    )


def _spec(bench, algo="bruck", msg=256, pattern=None, **kw):
    return CellSpec.from_bench(bench, "alltoall", algo, msg, pattern, **kw)


class TestCellSpec:
    def test_run_matches_direct_bench_run(self, bench):
        pattern = generate_pattern("random", bench.num_ranks, 1e-5, seed=3)
        direct = bench.run("alltoall", "bruck", 256, pattern)
        via_spec = run_cell(_spec(bench, pattern=pattern))
        assert direct.to_dict() == via_spec.to_dict()

    def test_make_bench_is_value_equal(self, bench):
        assert _spec(bench).make_bench() == bench

    def test_reduce_op_and_segment_kwargs_round_trip(self, bench):
        spec = CellSpec.from_bench(
            bench, "reduce", "binomial", 1024, None, op=MAX, segment_bytes=256
        )
        direct = bench.run("reduce", "binomial", 1024, op=MAX, segment_bytes=256)
        assert spec.run().to_dict() == direct.to_dict()

    def test_unknown_run_kwargs_rejected(self, bench):
        with pytest.raises(ConfigurationError):
            _spec(bench, nonsense=1)

    def test_cache_key_is_deterministic(self, bench):
        assert _spec(bench).cache_key() == _spec(bench).cache_key()

    def test_cache_key_covers_the_full_spec(self, bench):
        base = _spec(bench).cache_key()
        assert _spec(bench, algo="pairwise").cache_key() != base
        assert _spec(bench, msg=512).cache_key() != base
        pattern = generate_pattern("random", bench.num_ranks, 1e-5, seed=0)
        assert _spec(bench, pattern=pattern).cache_key() != base

    def test_cache_key_covers_model_version(self, bench, monkeypatch):
        import repro.bench.executor as executor_mod

        base = _spec(bench).cache_key()
        monkeypatch.setattr(executor_mod, "MODEL_VERSION", "0.0.0-test")
        assert _spec(bench).cache_key() != base


# Exact-mode cache keys must stay valid across releases, so the dicts they
# hash are pinned verbatim (cache_key() itself also hashes the version).
_HYDRA_2X2 = {
    "platform": {"name": "hydra", "nodes": 2, "cores_per_node": 2,
                 "nodes_per_group": None},
    "network": {
        "eager_threshold": 4096,
        "group_bandwidth": None,
        "group_latency": None,
        "inter_bandwidth": 12500000000.0,
        "inter_latency": 1.4e-06,
        "intra_bandwidth": 10000000000.0,
        "intra_latency": 6e-07,
        "recv_overhead": 3e-07,
        "rx_serialization": True,
        "send_overhead": 3e-07,
        "shared_node_nic": True,
    },
    "nrep": 1,
    "seed": 0,
    "clock_mode": "perfect",
    "noise_profile": "moderate",
    "count": 64,
    "harmonize_slack": 0.001,
    "machine_name": "hydra",
}
_VECTOR_COUNTS = ((0, 1, 2, 3), (1, 0, 1, 0), (2, 2, 0, 2), (3, 0, 1, 0))


def _pinned_cells(bench):
    """(spec, pinned exact-mode dict) for one regular and one vector cell."""
    pattern = ArrivalPattern("first_delayed", np.array([1e-5, 0.0, 0.0, 0.0]))
    regular = _spec(bench, pattern=pattern)
    vector = CellSpec.from_bench(bench, "alltoallv", "pairwise", 12, None,
                                 counts=_VECTOR_COUNTS, item_bytes=4.0)
    return [
        (regular, {
            **_HYDRA_2X2,
            "collective": "alltoall",
            "algorithm": "bruck",
            "msg_bytes": 256.0,
            "pattern": {"name": "first_delayed",
                        "skews": [1e-05, 0.0, 0.0, 0.0]},
            "op": "sum",
            "segment_bytes": None,
        }),
        (vector, {
            **_HYDRA_2X2,
            "collective": "alltoallv",
            "algorithm": "pairwise",
            "msg_bytes": 12.0,
            "pattern": None,
            "op": "sum",
            "segment_bytes": None,
            "counts": [[0, 1, 2, 3], [1, 0, 1, 0], [2, 2, 0, 2], [3, 0, 1, 0]],
            "item_bytes": 4.0,
        }),
    ]


class TestCellSpecDictPins:
    def test_exact_dicts_are_pinned(self, bench):
        for spec, pinned in _pinned_cells(bench):
            assert spec.to_dict() == pinned

    def test_hybrid_dict_adds_only_the_engine_mode(self, bench):
        for spec, pinned in _pinned_cells(bench):
            hybrid = dataclasses.replace(spec, engine_mode="hybrid")
            assert hybrid.to_dict() == {**pinned, "engine_mode": "hybrid"}


class TestBenchResultRoundTrip:
    def test_exact_json_round_trip(self, bench):
        result = bench.run("alltoall", "bruck", 256)
        rebuilt = BenchResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()
        np.testing.assert_array_equal(rebuilt.timings[0].arrivals,
                                      result.timings[0].arrivals)

    def test_missing_fields_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchResult.from_dict({"collective": "alltoall"})


class TestResultCache:
    def test_put_get_round_trip(self, bench, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(bench)
        assert cache.get(spec) is None
        result = run_cell(spec)
        path = cache.put(spec, result)
        assert path.exists()
        assert cache.get(spec).to_dict() == result.to_dict()

    def test_changed_spec_misses(self, bench, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(bench)
        cache.put(spec, run_cell(spec))
        assert cache.get(_spec(bench, msg=512)) is None

    def test_version_bump_misses(self, bench, tmp_path, monkeypatch):
        import repro.bench.executor as executor_mod

        cache = ResultCache(tmp_path)
        spec = _spec(bench)
        cache.put(spec, run_cell(spec))
        monkeypatch.setattr(executor_mod, "MODEL_VERSION", "0.0.0-test")
        assert cache.get(spec) is None

    def test_corrupt_record_is_a_miss(self, bench, tmp_path):
        cache = ResultCache(tmp_path)
        spec = _spec(bench)
        cache.put(spec, run_cell(spec))
        cache.path_for(spec.cache_key()).write_text("{not json")
        assert cache.get(spec) is None


class TestCellExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CellExecutor(jobs=0)

    def test_parallel_results_in_spec_order(self, bench):
        specs = [_spec(bench, algo=a) for a in ("bruck", "pairwise", "basic_linear")]
        serial = CellExecutor(jobs=1).run_cells(specs)
        parallel = CellExecutor(jobs=2).run_cells(specs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert [r.algorithm for r in parallel] == ["bruck", "pairwise", "basic_linear"]

    def test_stats_counters(self, bench, tmp_path):
        specs = [_spec(bench, algo=a) for a in ("bruck", "pairwise")]
        ex = CellExecutor(jobs=1, cache_dir=tmp_path)
        ex.run_cells(specs)
        assert ex.stats.cells == 2
        assert ex.stats.simulated == 2 and ex.stats.hits == 0
        assert len(ex.stats.cell_seconds) == 2
        warm = CellExecutor(jobs=1, cache_dir=tmp_path)
        warm.run_cells(specs)
        assert warm.stats.hits == 2 and warm.stats.simulated == 0
        assert warm.stats.hit_rate == 1.0
        assert "100% hit rate" in warm.stats.summary()

    def test_from_env_overrides(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "3")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        ex = CellExecutor.from_env()
        assert ex.jobs == 3
        assert ex.cache is not None and ex.cache.cache_dir == tmp_path
        monkeypatch.delenv("REPRO_JOBS")
        monkeypatch.delenv("REPRO_CACHE_DIR")
        ex = CellExecutor.from_env()
        assert ex.jobs == 1 and ex.cache is None


class TestSweepParity:
    def test_shared_skew_parallel_is_byte_identical(self, bench):
        kw = dict(collective="alltoall", algorithms=["bruck", "pairwise"],
                  msg_bytes=256, shapes=["ascending", "random"])
        serial = sweep_shared_skew(bench, **kw)
        parallel = sweep_shared_skew(bench, executor=CellExecutor(jobs=2), **kw)
        assert json.dumps(serial.to_dict()) == json.dumps(parallel.to_dict())

    def test_per_algorithm_skew_parallel_is_byte_identical(self, bench):
        kw = dict(collective="alltoall", algorithms=["bruck", "pairwise"],
                  msg_bytes=256, shapes=["last_delayed"])
        serial = sweep_per_algorithm_skew(bench, **kw)
        parallel = sweep_per_algorithm_skew(bench, executor=CellExecutor(jobs=2), **kw)
        assert json.dumps(serial.to_dict()) == json.dumps(parallel.to_dict())

    def test_sweep_round_trips_through_dict(self, bench):
        sweep = sweep_per_algorithm_skew(
            bench, "alltoall", ["bruck", "pairwise"], 256, ["last_delayed"]
        )
        rebuilt = SweepResult.from_dict(json.loads(json.dumps(sweep.to_dict())))
        assert json.dumps(rebuilt.to_dict()) == json.dumps(sweep.to_dict())
        assert rebuilt.per_algorithm_skews == sweep.per_algorithm_skews


CAMPAIGN_KW = dict(
    collectives=("alltoall",),
    msg_sizes=(64, "1KiB"),
    shapes=("first_delayed", "random"),
)


class TestCampaignParity:
    def test_jobs4_artifacts_byte_identical_to_serial(self, bench, tmp_path):
        serial = TuningCampaign(bench=bench, **CAMPAIGN_KW)
        paths1 = serial.save(serial.run(), tmp_path / "serial")
        parallel = TuningCampaign(bench=bench, jobs=4, **CAMPAIGN_KW)
        paths2 = parallel.save(parallel.run(), tmp_path / "parallel")
        for artifact in ("sweeps", "table", "rules"):
            assert paths1[artifact].read_bytes() == paths2[artifact].read_bytes()

    def test_warm_cache_hits_everything_and_stays_identical(self, bench, tmp_path):
        kw = dict(bench=bench, cache_dir=tmp_path / "cache", **CAMPAIGN_KW)
        cold = TuningCampaign(**kw)
        cold_result = cold.run()
        assert cold_result.stats.hits == 0
        assert cold_result.stats.simulated == cold_result.stats.cells
        paths1 = cold.save(cold_result, tmp_path / "cold")
        warm = TuningCampaign(**kw)
        warm_result = warm.run()
        assert warm_result.stats.hit_rate == 1.0
        assert warm_result.stats.simulated == 0
        paths2 = warm.save(warm_result, tmp_path / "warm")
        assert paths1["sweeps"].read_bytes() == paths2["sweeps"].read_bytes()
        assert paths1["table"].read_bytes() == paths2["table"].read_bytes()

    def test_changed_campaign_spec_misses_cache(self, bench, tmp_path):
        kw = dict(bench=bench, cache_dir=tmp_path / "cache", **CAMPAIGN_KW)
        TuningCampaign(**kw).run()
        changed = TuningCampaign(bench=bench, cache_dir=tmp_path / "cache",
                                 collectives=("alltoall",), msg_sizes=(128,),
                                 shapes=("first_delayed", "random"))
        result = changed.run()
        assert result.stats.hits == 0

    def test_changed_skew_factor_only_reuses_baselines(self, bench, tmp_path):
        kw = dict(bench=bench, cache_dir=tmp_path / "cache", **CAMPAIGN_KW)
        TuningCampaign(**kw).run()
        # A different skew factor changes every skewed pattern but not the
        # No-delay baselines, which are keyed identically and hit.
        result = TuningCampaign(skew_factor=0.5, **kw).run()
        from repro.collectives.base import list_algorithms

        algos = len(list_algorithms("alltoall"))
        assert result.stats.hits == algos * len(CAMPAIGN_KW["msg_sizes"])

    def test_campaign_default_skew_factor_is_headline(self, bench):
        from repro.patterns.skew import DEFAULT_SKEW_FACTOR, SKEW_FACTORS

        assert DEFAULT_SKEW_FACTOR == 1.5 == SKEW_FACTORS[-1]
        assert TuningCampaign(bench=bench, **CAMPAIGN_KW).skew_factor == 1.5
        import inspect

        assert (
            inspect.signature(sweep_shared_skew).parameters["skew_factor"].default
            == DEFAULT_SKEW_FACTOR
        )
