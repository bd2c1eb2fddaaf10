"""Observability overhead benchmarks: traced vs. untraced engine runs.

Each pair runs a 64-rank Alltoall — once with no observability session
and once inside a ``record_links=True`` session — in the regime its
engine targets:

* **exact pair** — a 64 KiB-per-peer Alltoall with consistent payloads
  (``count = msg_bytes / 8``), the bandwidth-bound rendezvous regime
  where per-link contention analysis is actually used.  Recording costs
  one ~0.5 µs tuple append per port claim, amortized over the rendezvous
  handshake's event work.  (A latency-bound eager microbenchmark pays
  the same per-claim cost against far less baseline work per message —
  the regime the hybrid engine exists to collapse; see below and
  ``docs/observability.md``.)
* **hybrid pair** — the largest-eager Alltoall (4 KiB messages), the
  bulk-phase regime the flow engine accelerates.  Recording there is one
  vectorized aggregate pass per batch, not per message.

``check_obs_overhead.py`` compares the pair medians and warns when the
enabled-mode overhead exceeds its budget (10%), and diffs both against
the committed ``BENCH_obs.json`` baseline.

The session opens *inside* the timed job so every iteration pays the
full lifecycle (fresh ring, recording, teardown) — the honest cost a
``repro-mpi profile --links`` user sees.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.collectives import CollArgs, run_collective
from repro.sim.flow import FlowConfig
from repro.sim.mpi import run_processes
from repro.sim.platform import Platform

_PLAT = Platform("t", nodes=16, cores_per_node=4)
#: Exact pair: rendezvous-size messages (64 KiB > eager threshold) with
#: payload rows sized to match the wire bytes.
_EXACT_ARGS = CollArgs(count=8192, msg_bytes=float(8 * 8192))
#: Hybrid pair: the largest eager message (the flow engine's linear
#: alltoall plan only covers the eager regime).
_HYBRID_ARGS = CollArgs(count=512, msg_bytes=float(8 * 512))
_HYBRID = FlowConfig(declared_spread=0.0, payloads=False)


def _alltoall_job(args, flow, linked: bool, max_links: int | None = None):
    """A 64-rank linear Alltoall (~4k messages exact; 1 batch hybrid)."""
    p = _PLAT.num_ranks
    data = np.zeros((p, args.count))

    def prog(ctx):
        yield from run_collective(ctx, "alltoall", "basic_linear", args, data)

    if not linked:
        def job():
            return run_processes(_PLAT, prog, flow=flow)
    else:
        def job():
            with obs.session(record_spans=False, record_links=True) as octx:
                result = run_processes(_PLAT, prog, flow=flow)
            assert len(octx.links) > 0
            if max_links is not None:
                # Guard: the run stayed on the flow write-back path
                # (per-batch aggregates), not a silent fallback to exact.
                assert len(octx.links) < max_links
            return result

    return job


def bench_obs_alltoall64_exact_untraced(benchmark):
    """Baseline: exact engine, no observability session."""
    result = benchmark(_alltoall_job(_EXACT_ARGS, None, linked=False))
    assert result.final_time > 0


def bench_obs_alltoall64_exact_linked(benchmark):
    """Exact engine inside a link-recording session — one record per
    port claim (~8k on this cell).  Must stay within 10% of untraced."""
    result = benchmark(_alltoall_job(_EXACT_ARGS, None, linked=True))
    assert result.final_time > 0


def bench_obs_alltoall64_hybrid_untraced(benchmark):
    """Baseline: hybrid flow engine, no observability session."""
    result = benchmark(_alltoall_job(_HYBRID_ARGS, _HYBRID, linked=False))
    assert result.final_time > 0


def bench_obs_alltoall64_hybrid_linked(benchmark):
    """Hybrid flow engine inside a link-recording session — one
    vectorized aggregate pass per batch, not per message."""
    result = benchmark(
        _alltoall_job(_HYBRID_ARGS, _HYBRID, linked=True, max_links=1000))
    assert result.final_time > 0
