"""Sweep drivers: benchmark algorithm sets across patterns and skew policies.

Two sweeps match the paper's two experimental designs:

* :func:`sweep_shared_skew` (Figs. 4, 5, 8): measure every algorithm in the
  No-delay case, derive one shared maximum skew (``factor x`` the mean
  No-delay runtime — or an explicit value, e.g. the max skew observed in an
  application trace), then expose every algorithm to the same concrete
  pattern per shape.
* :func:`sweep_per_algorithm_skew` (Fig. 6): each algorithm gets patterns
  scaled to its *own* No-delay runtime.

Both sweeps are two-phase: the No-delay baselines fan out first (they size
the skew), then every skewed cell fans out in one batch.  Cells run through
a :class:`~repro.bench.executor.CellExecutor` — pass one to parallelize
across processes and/or reuse an on-disk result cache; the default executor
is serial and caches under ``REPRO_CACHE_DIR`` when that is set.
Results are merged back in deterministic cell order, so a parallel sweep is
byte-identical to a serial one.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ConfigurationError
from repro.bench.executor import CellExecutor, CellSpec
from repro.bench.micro import MicroBenchmark
from repro.bench.results import SweepResult
from repro.obs.context import current as _obs_current
from repro.patterns.generator import ArrivalPattern, generate_pattern
from repro.patterns.shapes import NO_DELAY
from repro.patterns.skew import DEFAULT_SKEW_FACTOR, skew_from_mean_runtime


def _new_sweep(bench: MicroBenchmark, collective: str, msg_bytes: float) -> SweepResult:
    return SweepResult(
        collective=collective,
        msg_bytes=float(msg_bytes),
        num_ranks=bench.num_ranks,
        machine=bench.machine_name or bench.platform.name,
    )


def _no_delay_phase(
    executor: CellExecutor,
    bench: MicroBenchmark,
    sweep: SweepResult,
    collective: str,
    algorithms: Sequence[str],
    msg_bytes: float,
    run_kwargs: dict,
) -> dict[str, float]:
    """Fan out the No-delay baseline for every algorithm; record runtimes."""
    specs = [
        CellSpec.from_bench(bench, collective, algo, msg_bytes, None, **run_kwargs)
        for algo in algorithms
    ]
    no_delay_runtimes: dict[str, float] = {}
    with _obs_current().wall_span(
        "sweep.no_delay_phase", track="sweep",
        args={"collective": collective, "algorithms": len(specs)},
    ):
        results = executor.run_cells(specs)
    for algo, result in zip(algorithms, results):
        sweep.add(result)
        no_delay_runtimes[algo] = result.last_delay
    sweep.skew_by_pattern[NO_DELAY] = 0.0
    return no_delay_runtimes


def _pattern_phase(
    executor: CellExecutor,
    bench: MicroBenchmark,
    sweep: SweepResult,
    collective: str,
    msg_bytes: float,
    cells: Sequence[tuple[ArrivalPattern, str]],
    run_kwargs: dict,
) -> None:
    """Fan out the skewed cells; merge results back in the given order."""
    specs = [
        CellSpec.from_bench(bench, collective, algo, msg_bytes, pattern, **run_kwargs)
        for pattern, algo in cells
    ]
    with _obs_current().wall_span(
        "sweep.pattern_phase", track="sweep",
        args={"collective": collective, "cells": len(specs)},
    ):
        results = executor.run_cells(specs)
    for result in results:
        sweep.add(result)


def sweep_shared_skew(
    bench: MicroBenchmark,
    collective: str,
    algorithms: Sequence[str],
    msg_bytes: float,
    shapes: Sequence[str],
    skew_factor: float = DEFAULT_SKEW_FACTOR,
    max_skew: float | None = None,
    seed: int = 0,
    extra_patterns: Sequence[ArrivalPattern] = (),
    executor: CellExecutor | None = None,
    **run_kwargs,
) -> SweepResult:
    """Benchmark ``algorithms`` under No-delay plus each shape, shared skew.

    ``max_skew`` overrides the mean-runtime policy when given (used for the
    Fig. 8 experiments, where the skew comes from the application trace).
    ``extra_patterns`` appends pre-built patterns such as the FT-Scenario.
    """
    if not algorithms:
        raise ConfigurationError("need at least one algorithm")
    if executor is None:
        executor = CellExecutor.from_env()
    sweep = _new_sweep(bench, collective, msg_bytes)
    # Phase 1: the No-delay baseline for every algorithm.
    no_delay_runtimes = _no_delay_phase(
        executor, bench, sweep, collective, algorithms, msg_bytes, run_kwargs
    )
    # Phase 2: one shared skew for all algorithms.
    skew = (
        float(max_skew)
        if max_skew is not None
        else skew_from_mean_runtime(no_delay_runtimes, skew_factor)
    )
    cells: list[tuple[ArrivalPattern, str]] = []
    for shape in shapes:
        if shape == NO_DELAY:
            continue
        pattern = generate_pattern(shape, bench.num_ranks, skew, seed=seed)
        sweep.skew_by_pattern[shape] = skew
        cells.extend((pattern, algo) for algo in algorithms)
    for pattern in extra_patterns:
        sweep.skew_by_pattern[pattern.name] = pattern.max_skew
        cells.extend((pattern, algo) for algo in algorithms)
    _pattern_phase(executor, bench, sweep, collective, msg_bytes, cells, run_kwargs)
    return sweep


def sweep_per_algorithm_skew(
    bench: MicroBenchmark,
    collective: str,
    algorithms: Sequence[str],
    msg_bytes: float,
    shapes: Sequence[str],
    skew_factor: float = 1.0,
    seed: int = 0,
    executor: CellExecutor | None = None,
    **run_kwargs,
) -> SweepResult:
    """Fig. 6 robustness design: skew scales with each algorithm's own runtime.

    ``skew_factor`` defaults to 1.0 *by design* (unlike the shared-skew
    sweep): the paper gives "an algorithm that requires X ms ... a maximum
    skew of X ms".  Because each algorithm sees its own magnitude, the sweep
    records the full map in ``SweepResult.per_algorithm_skews`` and the
    per-shape mean in ``skew_by_pattern``.
    """
    if not algorithms:
        raise ConfigurationError("need at least one algorithm")
    if executor is None:
        executor = CellExecutor.from_env()
    sweep = _new_sweep(bench, collective, msg_bytes)
    no_delay_runtimes = _no_delay_phase(
        executor, bench, sweep, collective, algorithms, msg_bytes, run_kwargs
    )
    cells: list[tuple[ArrivalPattern, str]] = []
    for shape in shapes:
        if shape == NO_DELAY:
            continue
        skews = {algo: skew_factor * no_delay_runtimes[algo] for algo in algorithms}
        sweep.per_algorithm_skews[shape] = skews
        sweep.skew_by_pattern[shape] = sum(skews.values()) / len(skews)
        for algo in algorithms:
            pattern = generate_pattern(shape, bench.num_ranks, skews[algo], seed=seed)
            cells.append((pattern, algo))
    _pattern_phase(executor, bench, sweep, collective, msg_bytes, cells, run_kwargs)
    return sweep
