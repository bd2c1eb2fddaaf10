"""Large-scale integration smoke tests (64 ranks, every collective family).

These catch scale-dependent schedule bugs (wrap-arounds, non-power-of-two
folds, deep trees) that small-p unit tests can miss, and pin down the
end-to-end pipeline: trace -> pattern -> benchmark -> selection -> export.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.collectives  # noqa: F401
from repro.collectives import list_algorithms, reference_result
from repro.selection import RobustAverageSelector, SelectionTable, write_ompi_rules_file
from tests.helpers import run_collective_all_ranks

LARGE_P = 64


@pytest.mark.parametrize(
    "collective",
    ["bcast", "reduce", "allreduce", "alltoall", "allgather",
     "gather", "scatter", "reduce_scatter", "scan", "exscan"],
)
def test_every_family_correct_at_64_ranks(collective):
    """One representative algorithm per family at 64 ranks."""
    algo = list_algorithms(collective)[0]
    results, run, args, inputs = run_collective_all_ranks(
        collective, algo, LARGE_P, count=LARGE_P * 2, cores_per_node=8
    )
    for rank in (0, 1, 31, 63):
        expected = reference_result(collective, inputs, args, rank)
        got = results[rank]
        if expected is None:
            assert got is None
        else:
            assert np.array_equal(np.asarray(got), expected)


@pytest.mark.parametrize("algo", list_algorithms("alltoall"))
def test_alltoall_all_algorithms_at_64_ranks(algo):
    """The paper's central collective gets full coverage at scale."""
    results, _, args, inputs = run_collective_all_ranks(
        "alltoall", algo, LARGE_P, count=4, cores_per_node=8
    )
    for rank in range(0, LARGE_P, 7):
        expected = reference_result("alltoall", inputs, args, rank)
        assert np.array_equal(results[rank], expected), f"{algo} rank {rank}"


@pytest.mark.parametrize("size", [48, 63])  # non-power-of-two at scale
@pytest.mark.parametrize("algo", ["rabenseifner", "recursive_doubling"])
def test_allreduce_fold_paths_at_scale(size, algo):
    results, _, args, inputs = run_collective_all_ranks(
        "allreduce", algo, size, count=size + 3, cores_per_node=8
    )
    expected = np.sum(np.stack(inputs), axis=0)
    for rank in (0, 1, size // 2, size - 1):
        assert np.array_equal(results[rank], expected)


def test_full_pipeline_trace_to_rules_file(tmp_path):
    """End to end: FT trace -> scenario pattern -> sweep -> table -> OMPI file."""
    from repro.apps import FTProxy
    from repro.bench import MicroBenchmark, sweep_shared_skew
    from repro.sim.platform import get_machine

    spec = get_machine("hydra")
    nodes, cores = 4, 4
    p = nodes * cores
    ft = FTProxy.class_d_scaled(spec, nodes=nodes, cores_per_node=cores,
                                seed=2, iterations=4)
    _, trace = ft.trace()
    scenario = trace.arrival_pattern("alltoall", name="ft_scenario")
    skew = trace.imbalance("alltoall")["max_arrival_spread"]
    assert skew > 0

    bench = MicroBenchmark.from_machine(spec, nodes=nodes, cores_per_node=cores, nrep=1)
    sweep = sweep_shared_skew(
        bench, "alltoall", ["basic_linear", "pairwise", "bruck", "linear_sync"],
        32768, ["first_delayed", "random"], max_skew=skew,
        extra_patterns=[scenario],
    )
    table = SelectionTable()
    winner = table.add_sweep(sweep, RobustAverageSelector(exclude=("ft_scenario",)))
    assert winner in sweep.algorithms
    assert table.lookup("alltoall", p, 32768) == winner

    rules = tmp_path / "rules.conf"
    write_ompi_rules_file(rules, table)
    content = rules.read_text()
    assert content.splitlines()[0] == "1"
    assert "# alltoall" in content
