"""Trace-driven replay: turn a recorded obs trace back into a workload.

Any trace written by an observability session (JSONL or Perfetto — both
load through :class:`~repro.obs.analysis.TraceAnalysis`) contains, on the
rank tracks, one ``{collective}/{algorithm}`` span per collective call with
its ``msg_bytes`` argument.  This module reconstructs from those spans:

* the *phase sequence* — the per-iteration cycle of collective calls,
* the *arrival pattern* — per-rank mean delay versus first arrival
  (Section V-A of the paper), embedded into the spec as its pattern,

so a measured run becomes a replayable benchmark scenario: feed the
returned :class:`~repro.workloads.spec.WorkloadSpec` to
:func:`~repro.workloads.runner.run_workload` and the phase cells re-measure
under the *recorded* arrival pattern.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.errors import TraceFormatError
from repro.bench.executor import PatternSpec
from repro.collectives import VECTOR_FAMILIES
from repro.obs.analysis import TraceAnalysis, _is_rank_track
from repro.patterns.generator import ArrivalPattern
from repro.workloads.spec import CollectivePhase, WorkloadSpec


def load_analysis(source) -> TraceAnalysis:
    """Coerce a path or an existing analysis into a :class:`TraceAnalysis`."""
    if isinstance(source, TraceAnalysis):
        return source
    return TraceAnalysis.from_file(Path(source))


def pattern_from_trace(source, collective: str | None = None,
                       name: str = "replayed") -> ArrivalPattern:
    """The recorded arrival pattern (per-rank mean delay vs first arrival)."""
    return load_analysis(source).arrival_pattern(collective, name=name)


def _phase_sequence(ana: TraceAnalysis) -> tuple[list[tuple[str, float]], int]:
    """The per-iteration phase cycle and the iteration count.

    Reads the lowest rank's time-ordered collective spans as
    ``(name, msg_bytes)`` tuples and factors the sequence into
    ``cycle × iterations``.  Phases duplicated verbatim inside one
    iteration factor into extra iterations instead — an acceptable
    degeneracy, since the replayed workload runs the same calls either way.
    """
    per_rank: dict[int, list[tuple[float, str, float]]] = {}
    for s in ana.spans:
        track = s["track"]
        if not _is_rank_track(track) or "/" not in s["name"]:
            continue
        raw = (s.get("args") or {}).get("msg_bytes", 0.0)
        try:
            msg_bytes = float(raw)
        except (TypeError, ValueError):
            msg_bytes = math.nan
        if not (math.isfinite(msg_bytes) and msg_bytes >= 0):
            raise TraceFormatError(
                f"span {s['name']!r} on {track}: msg_bytes must be a finite "
                f"size >= 0, got {raw!r}")
        per_rank.setdefault(int(track[5:]), []).append(
            (float(s["start"]), s["name"], msg_bytes))
    if not per_rank:
        raise TraceFormatError("trace contains no collective spans to replay")
    ref = sorted(per_rank[min(per_rank)])
    seq = [(name, msg_bytes) for _start, name, msg_bytes in ref]
    iterations = seq.count(seq[0])
    if iterations == 0 or len(seq) % iterations != 0:
        return seq, 1
    cycle = seq[: len(seq) // iterations]
    if cycle * iterations != seq:
        return seq, 1
    return cycle, iterations


def workload_from_trace(source, name: str | None = None,
                        max_iterations: int | None = None) -> WorkloadSpec:
    """Reconstruct a replayable :class:`WorkloadSpec` from a recorded trace.

    The spec carries the recorded arrival pattern; vector-collective phases
    get a uniform count schedule matching the recorded mean block size
    (per-pair skew is not recoverable from span-level data).
    """
    ana = load_analysis(source)
    cycle, iterations = _phase_sequence(ana)
    pattern = ana.arrival_pattern(name=f"replay:{name or 'trace'}")
    p = pattern.num_ranks
    phases = []
    for span_name, msg_bytes in cycle:
        collective, algorithm = span_name.split("/", 1)
        if collective in VECTOR_FAMILIES:
            items = max(1, int(round(msg_bytes / 8.0)))
            counts = (tuple(tuple(0 if i == j else items for j in range(p))
                            for i in range(p))
                      if collective == "alltoallv"
                      else tuple(items for _ in range(p)))
            phases.append(CollectivePhase(collective, algorithm=algorithm,
                                          counts=counts, item_bytes=8.0))
        else:
            phases.append(CollectivePhase(collective, msg_bytes=msg_bytes,
                                          algorithm=algorithm))
    if max_iterations is not None:
        iterations = min(iterations, max_iterations)
    return WorkloadSpec(
        name=name or "replay",
        phases=tuple(phases),
        iterations=iterations,
        warmup=0,
        compute=0.0,
        overlap="sequential",
        pattern=PatternSpec.from_pattern(pattern),
        description=f"replayed from trace: {len(cycle)} phase(s) x "
                    f"{iterations} iteration(s), {p} ranks",
    )


__all__ = ["load_analysis", "pattern_from_trace", "workload_from_trace"]
