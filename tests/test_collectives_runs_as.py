"""Every declared wholesale fallback is exact.

``register(..., runs_as=...)`` declares that an algorithm runs another's
schedule unchanged on some (p, args); the executor then simulates one of
the two per sweep group and reuses the run for the other.  Wherever
:func:`schedule_of` says two algorithms match, both are run here and must
give bitwise-equal rank times, equal results and equal event counts.  The
grid crosses every predicate's boundary on both sides: rank counts around
the powers of two and the split thresholds, item counts of one and two,
just below p, at p and at the largest power of two <= p, and message sizes
inside one segment and over several.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collectives import (
    CollArgs,
    get_algorithm,
    list_algorithms,
    list_collectives,
    make_input,
    run_collective,
    schedule_of,
)
from repro.collectives.base import largest_power_of_two_leq
from repro.patterns.generator import generate_pattern
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform

SEGMENT = 1024.0
RANKS = (1, 2, 3, 4, 5, 8)
MSG_BYTES = (SEGMENT / 2, 4 * SEGMENT)

DECLARED = sorted(
    (collective, name)
    for collective in list_collectives()
    for name in list_algorithms(collective)
    if get_algorithm(collective, name).runs_as is not None
)


def _counts(p: int) -> list[int]:
    # 1 and 2 straddle split_binary's two-item threshold.
    return sorted({c for c in (1, 2, p - 1, p, largest_power_of_two_leq(p))
                   if c >= 1})


def _run(collective: str, algorithm: str, p: int, args: CollArgs):
    plat = Platform("runs_as", nodes=p, cores_per_node=1)
    pattern = generate_pattern("random", p, max_skew=30e-6, seed=p)
    inputs = [make_input(collective, r, p, args.count) for r in range(p)]

    def prog(ctx):
        yield ctx.wait_until(pattern.skew_of(ctx.rank))
        return (yield from run_collective(ctx, collective, algorithm, args,
                                          inputs[ctx.rank]))

    return run_processes(plat, prog)


def test_declared_fallbacks():
    assert DECLARED == [
        ("allgather", "neighbor_exchange"),
        ("allgather", "recursive_doubling"),
        ("allreduce", "rabenseifner"),
        ("allreduce", "ring"),
        ("allreduce", "segmented_ring"),
        ("bcast", "scatter_allgather"),
        ("bcast", "split_binary"),
        ("reduce", "rabenseifner"),
    ]


def test_schedule_of_follows_the_chain_and_resolves_aliases():
    tiny = CollArgs(count=2, msg_bytes=SEGMENT)
    assert schedule_of("allreduce", "segmented_ring", 8, tiny) == "recursive_doubling"
    assert schedule_of("allreduce", "ompi_ring_segmented", 8,
                       CollArgs(count=8, msg_bytes=SEGMENT)) == "ring"
    assert schedule_of("allreduce", "rdb", 8, tiny) == "recursive_doubling"
    assert schedule_of("alltoall", "pairwise", 8, tiny) == "pairwise"


@pytest.mark.parametrize("collective,algorithm", DECLARED,
                         ids=["/".join(key) for key in DECLARED])
def test_declared_fallback_runs_the_same_schedule(collective, algorithm):
    sides = set()
    for p in RANKS:
        for count in _counts(p):
            for msg_bytes in MSG_BYTES:
                args = CollArgs(count=count, msg_bytes=msg_bytes, root=p // 2,
                                segment_bytes=SEGMENT)
                twin = schedule_of(collective, algorithm, p, args)
                sides.add(twin == algorithm)
                if twin == algorithm:
                    continue
                mine = _run(collective, algorithm, p, args)
                theirs = _run(collective, twin, p, args)
                where = f"{collective}/{algorithm} as {twin}, p={p}, {args}"
                assert (np.asarray(mine.rank_times).tobytes()
                        == np.asarray(theirs.rank_times).tobytes()), where
                assert mine.events_processed == theirs.events_processed, where
                for a, b in zip(mine.rank_results, theirs.rank_results):
                    assert (a is None and b is None) or np.array_equal(a, b), where
    # The grid reaches both sides of the predicate's boundary.
    assert sides == {True, False}
