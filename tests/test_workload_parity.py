"""Bit-parity pins for the workload loop: proxies, runner and ext-nonblocking.

The FT and CG proxies, ``run_workload`` and the blocking variant of the
non-blocking extension all run one rank program.  These constants were
captured before they shared it, on noisy presets and fixed seeds, so every
timestamp the move could shift is pinned: runtimes, per-phase MPI seconds and
the per-rank compute totals that Fig. 9 reads.  If a deliberate model change
invalidates them, re-capture with the recipe in each test; do not loosen the
comparisons to approx.

One field is compared to a relative 1e-12: a proxy's ``mpi_time`` is the sum
of its per-phase MPI seconds, and the order of that sum is not part of the
model.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps import CGProxy, FTProxy
from repro.bench import MicroBenchmark
from repro.bench.executor import PatternSpec
from repro.experiments import ext_nonblocking
from repro.experiments.common import ExperimentConfig
from repro.patterns import generate_pattern
from repro.sim.platform import get_machine
from repro.workloads import CollectivePhase, WorkloadSpec, run_workload


def digest_floats(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


# algorithm -> (runtime, compute_time, mpi_time, rank_compute_time digest):
# FTProxy.class_d_scaled on galileo100 2x4, seed 3, 2 iterations.
PINNED_FT = {
    "basic_linear": (0.003167797506617126, 0.0027163521536796844,
                     0.0007471547738271684, "aaf0772190d8822e"),
    "pairwise": (0.003417551358045703, 0.002716352153679684,
                 0.0010005701081128872, "0a8054802a62111a"),
    "bruck": (0.0034845886151885592, 0.002716352153679684,
              0.0010520889366843152, "e82a5e70baa12bcf"),
    "linear_sync": (0.003173473163759985, 0.0027163521536796844,
                    0.0007523998652557414, "4c3ca20cfd84f5ca"),
}


def _assert_app(result, pinned):
    runtime, compute, mpi, compute_digest = pinned
    assert result.runtime == runtime  # exact, not approx
    assert result.compute_time == compute
    assert digest_floats(result.rank_compute_time) == compute_digest
    assert result.mpi_time == pytest.approx(mpi, rel=1e-12)


@pytest.mark.parametrize("algorithm", sorted(PINNED_FT))
def test_ft_proxy_parity(algorithm):
    ft = FTProxy.class_d_scaled(get_machine("galileo100"), nodes=2,
                                cores_per_node=4, seed=3,
                                algorithm=algorithm, iterations=2)
    result = ft.run()
    _assert_app(result, PINNED_FT[algorithm])
    assert result.collective_calls == 4


def test_cg_proxy_parity():
    cg = CGProxy.from_machine(get_machine("hydra"), nodes=2,
                              cores_per_node=4, seed=1, iterations=3)
    _assert_app(cg.run(), (0.003132301879038125, 0.003035050587418887,
                           0.00016835908867926467, "535fb01e7f7dabd7"))


# (workload, noise) -> (blocking, non-blocking) runtime: ext-nonblocking
# --fast on galileo100 2x4, seed 3.  Each variant of a cell runs under its
# own fresh noise model of that seed, so both see the same noise.
PINNED_NONBLOCKING = {
    ("small_allreduce", "none"): (0.0020216246171428573, 0.002),
    ("small_allreduce", "moderate"): (0.002217229267657283,
                                      0.0020766839314898663),
    ("small_allreduce", "noisy"): (0.00268840590447593,
                                   0.002289199108598757),
    ("large_alltoall", "none"): (0.006409196114285719, 0.005999999999999999),
    ("large_alltoall", "moderate"): (0.006786115642971852,
                                     0.006208452123068149),
    ("large_alltoall", "noisy"): (0.007399660090570648,
                                  0.006540132267296224),
}


def test_ext_nonblocking_parity():
    result = ext_nonblocking.run(ExperimentConfig(
        machine="galileo100", nodes=2, cores_per_node=4, seed=3, fast=True))
    assert result.cells == PINNED_NONBLOCKING


# overlap -> (runtime, phase_mpi_time): a three-phase spec with one warmup
# iteration under an ascending pattern (100 us, seed 5), run on a
# galileo100 2x4 bench with seed 3.
PINNED_WORKLOAD = {
    "sequential": (0.0013454471955730853, {
        "alltoall@32768B": 0.00046188779877640745,
        "allreduce@8B": 9.552925714286333e-06,
        "bcast@1024B": 5.346077142858114e-06,
    }),
    "split": (0.0013499787732622435, {
        "alltoall@32768B": 0.00021894153833534533,
        "allreduce@8B": 3.444211353971393e-05,
        "bcast@1024B": 2.841897019595992e-05,
    }),
    "interleaved": (0.0010581726298960726, {
        "alltoall@32768B": 0.00028466082439769405,
        "allreduce@8B": 0.00013559986154055168,
        "bcast@1024B": 2.7119149239954605e-05,
    }),
}


@pytest.mark.parametrize("overlap", sorted(PINNED_WORKLOAD))
def test_run_workload_parity(overlap):
    bench = MicroBenchmark.from_machine(get_machine("galileo100"), nodes=2,
                                        cores_per_node=4, seed=3, nrep=1)
    pattern = generate_pattern("ascending", 8, 1e-4, seed=5)
    spec = WorkloadSpec(
        name=overlap,
        phases=(CollectivePhase("alltoall", 32768.0, count=16),
                CollectivePhase("allreduce", 8.0, count=8),
                CollectivePhase("bcast", 1024.0, count=16)),
        iterations=2, warmup=1, compute=4e-4, overlap=overlap,
        pattern=PatternSpec.from_pattern(pattern),
    )
    result = run_workload(spec, bench, cells=False)
    assert (result.runtime, result.phase_mpi_time) == PINNED_WORKLOAD[overlap]
