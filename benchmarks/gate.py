#!/usr/bin/env python
"""Benchmark gate: check a fresh run against a committed baseline.

Usage::

    python benchmarks/gate.py BASELINE FRESH             # check
    python benchmarks/gate.py BASELINE FRESH --update    # rewrite BASELINE

``FRESH`` is either a pytest-benchmark ``--benchmark-json`` file, whose
values are each bench's median seconds, or a ``python -m
repro.bench.loadgen`` payload, whose values are ``<workload>.qps`` and
``<workload>.p99_us``.  ``BASELINE`` (``BENCH_engine.json``,
``BENCH_service.json``) holds one entry per value::

    {"tolerance": 0.25,
     "entries": {"bench_a": {"value": 0.36},
                 "bench_a_traced": {"value": 0.37, "versus": "bench_a",
                                    "tolerance": 0.10},
                 "hot_cache.qps": {"value": 49328.7, "better": "higher"}}}

``better`` defaults to ``"lower"`` and ``tolerance`` to the file's.

* **Coverage drift is a hard failure.**  A fresh value without an entry,
  or an entry the run did not produce, prints ``::error::`` and exits 1: a
  bench added, renamed or dropped without a baseline update would
  otherwise let coverage rot unnoticed.
* **A slowdown is a soft warning.**  A value worse than its reference by
  more than its tolerance prints ``::warning::`` and exits 0, because
  wall clocks on shared CI runners are too noisy for a hard gate.  The
  reference is the entry's baseline ``value`` or, with ``versus``, the
  fresh value of that other entry in the same run (a traced/untraced
  overhead pair).

``--update`` rewrites every value from the fresh run and keeps each
entry's ``better``, ``tolerance`` and ``versus``; a new name gets the file
defaults (set ``"better": "higher"`` on it by hand where that applies),
and a name the run did not produce is dropped.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_fresh(path: Path) -> dict[str, float]:
    """``{name: value}`` from a pytest-benchmark file or a loadgen payload."""
    data = json.loads(path.read_text())
    if "benchmarks" in data:
        return {b["name"]: float(b["stats"]["median"])
                for b in data["benchmarks"]}
    if "workloads" in data:
        return {f"{name}.{field}": float(row[field])
                for name, row in data["workloads"].items()
                for field in ("qps", "p99_us")}
    raise SystemExit(f"{path}: neither a pytest-benchmark result nor a "
                     f"loadgen payload")


def check(baseline: dict, fresh: dict[str, float]) -> tuple[list[str], list[str]]:
    """Return (hard errors, soft warnings) for ``fresh`` against ``baseline``."""
    entries = baseline["entries"]
    errors = [f"::error::'{name}' has no baseline entry; record it with "
              f"gate.py BASELINE FRESH --update"
              for name in sorted(fresh.keys() - entries.keys())]
    errors += [f"::error::'{name}' is in the baseline but was not run "
               f"(renamed or removed? update the baseline)"
               for name in sorted(entries.keys() - fresh.keys())]
    warnings = []
    for name, entry in sorted(entries.items()):
        versus = entry.get("versus")
        if name not in fresh or (versus is not None and versus not in fresh):
            continue
        now = fresh[name]
        ref = fresh[versus] if versus is not None else float(entry["value"])
        if ref <= 0:
            continue
        tolerance = entry.get("tolerance", baseline["tolerance"])
        higher = entry.get("better", "lower") == "higher"
        worse = (1.0 - now / ref) if higher else (now / ref - 1.0)
        if worse > tolerance:
            against = f"'{versus}' in this run" if versus else "the baseline"
            warnings.append(
                f"::warning::'{name}' is {worse * 100:.0f}% worse than "
                f"{against} ({ref:.6g} -> {now:.6g}, tolerance "
                f"{tolerance * 100:.0f}%)")
    return errors, warnings


def update(baseline: dict, fresh: dict[str, float]) -> dict:
    """``baseline`` with every value taken from ``fresh`` (see module doc)."""
    entries = baseline["entries"]
    return dict(baseline, entries={
        name: dict(entries.get(name, {}), value=round(value, 6))
        for name, value in sorted(fresh.items())})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument("fresh", type=Path,
                        help="pytest-benchmark --benchmark-json file or "
                             "loadgen payload")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline's values from this run")
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())
    fresh = load_fresh(args.fresh)
    if args.update:
        args.baseline.write_text(
            json.dumps(update(baseline, fresh), indent=2, sort_keys=True) + "\n")
        print(f"baseline updated: {args.baseline}")
        return 0

    errors, warnings = check(baseline, fresh)
    for line in errors + warnings:
        print(line)
    print(f"{args.baseline.name}: {len(fresh)} value(s) checked, "
          f"{len(errors)} error(s), {len(warnings)} warning(s)")
    # Coverage drift blocks; wall-clock noise only annotates.
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
