"""Tests for the benchmark gate (``benchmarks/gate.py``) and the committed
baselines it checks."""

from __future__ import annotations

import ast
import json

import pytest

from repro.bench.loadgen import WORKLOADS
from tests.helpers import BENCHMARKS, load_gate

BASE = {
    "_comment": "kept as is",
    "tolerance": 0.25,
    "entries": {
        "bench_a": {"value": 1.0},
        "bench_b": {"value": 1.0, "tolerance": 0.5},
        "bench_a_linked": {"value": 1.0, "versus": "bench_a",
                           "tolerance": 0.1},
        "w.qps": {"value": 100.0, "better": "higher"},
    },
}
CLEAN = {"bench_a": 1.0, "bench_b": 1.0, "bench_a_linked": 1.0, "w.qps": 100.0}


@pytest.fixture(scope="module")
def gate():
    return load_gate()


def _warned(gate, **fresh) -> list[str]:
    errors, warnings = gate.check(BASE, dict(CLEAN, **fresh))
    assert errors == []
    return [w.split("'")[1] for w in warnings]


def test_pytest_benchmark_input_yields_medians(gate, tmp_path):
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"benchmarks": [
        {"name": "bench_a", "stats": {"median": 0.5, "mean": 9.0}},
        {"name": "bench_b", "stats": {"median": 2.0, "mean": 9.0}}]}))
    assert gate.load_fresh(path) == {"bench_a": 0.5, "bench_b": 2.0}


def test_loadgen_input_yields_qps_and_p99(gate, tmp_path):
    path = tmp_path / "fresh.json"
    path.write_text(json.dumps({"workloads": {"w": {
        "qps": 100.0, "p99_us": 7.0, "p50_us": 3.0, "errors": 0}}}))
    assert gate.load_fresh(path) == {"w.qps": 100.0, "w.p99_us": 7.0}


def test_unknown_input_shape_is_refused(gate, tmp_path):
    path = tmp_path / "fresh.json"
    path.write_text("{}")
    with pytest.raises(SystemExit, match="neither"):
        gate.load_fresh(path)


def test_per_entry_tolerance_overrides_the_file_default(gate):
    # 40% slower: beyond the file's 25% for bench_a, within bench_b's 50%.
    assert _warned(gate, bench_a=1.4, bench_a_linked=1.4) == ["bench_a"]
    assert _warned(gate, bench_b=1.4) == []
    assert _warned(gate, bench_b=1.6) == ["bench_b"]


def test_higher_is_better_warns_on_a_drop_only(gate):
    assert _warned(gate, **{"w.qps": 1000.0}) == []
    assert _warned(gate, **{"w.qps": 70.0}) == ["w.qps"]


def test_versus_is_judged_against_the_fresh_sibling(gate):
    # Both 3x the baseline value, but the pair is even: only bench_a warns.
    assert _warned(gate, bench_a=3.0, bench_a_linked=3.0) == ["bench_a"]
    # Faster than its baseline value, yet 19% over its sibling in this run.
    assert _warned(gate, bench_a=0.8, bench_a_linked=0.95) == ["bench_a_linked"]


def test_coverage_drift_in_either_direction_is_an_error(gate):
    errors, _ = gate.check(BASE, dict(CLEAN, bench_new=1.0))
    assert len(errors) == 1 and "bench_new" in errors[0]
    missing = dict(CLEAN)
    del missing["bench_b"]
    errors, _ = gate.check(BASE, missing)
    assert len(errors) == 1 and "bench_b" in errors[0]


def test_update_keeps_fields_adds_and_drops_names(gate):
    fresh = {"bench_a": 2.0, "bench_a_linked": 2.1, "w.qps": 50.0,
             "bench_new": 3.1234567}
    updated = gate.update(BASE, fresh)
    assert updated["_comment"] == BASE["_comment"]
    assert updated["tolerance"] == BASE["tolerance"]
    assert updated["entries"] == {
        "bench_a": {"value": 2.0},
        "bench_a_linked": {"value": 2.1, "versus": "bench_a",
                           "tolerance": 0.1},
        "w.qps": {"value": 50.0, "better": "higher"},
        "bench_new": {"value": 3.123457},
    }
    assert gate.check(updated, fresh) == ([], [])
    assert BASE["entries"]["bench_a"] == {"value": 1.0}  # input untouched


def test_main_exit_codes(gate, tmp_path, capsys):
    baseline = tmp_path / "BENCH.json"
    baseline.write_text(json.dumps(BASE))
    fresh = tmp_path / "fresh.json"

    def run(values, *flags):
        fresh.write_text(json.dumps({"benchmarks": [
            {"name": k, "stats": {"median": v}} for k, v in values.items()]}))
        code = gate.main([str(baseline), str(fresh), *flags])
        return code, capsys.readouterr().out

    code, out = run(CLEAN)
    assert code == 0 and "0 error(s), 0 warning(s)" in out
    code, out = run(dict(CLEAN, bench_a=9.0, bench_a_linked=9.0))
    assert code == 0 and "::warning::'bench_a'" in out
    code, out = run(dict(CLEAN, bench_new=1.0))
    assert code == 1 and "::error::'bench_new'" in out
    code, out = run(dict(CLEAN, bench_new=1.0), "--update")
    assert code == 0 and "bench_new" in json.loads(baseline.read_text())["entries"]
    code, out = run(dict(CLEAN, bench_new=1.0))
    assert code == 0 and "0 error(s), 0 warning(s)" in out


def _bench_functions(filename: str) -> set[str]:
    tree = ast.parse((BENCHMARKS / filename).read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("bench_")}


def test_committed_baselines_cover_exactly_what_runs():
    engine = json.loads((BENCHMARKS / "BENCH_engine.json").read_text())
    service = json.loads((BENCHMARKS / "BENCH_service.json").read_text())
    assert set(engine["entries"]) == (_bench_functions("bench_engine.py")
                                      | _bench_functions("bench_obs.py"))
    assert set(service["entries"]) == {
        f"{w}.{f}" for w in WORKLOADS for f in ("qps", "p99_us")}
    assert {name for name, e in service["entries"].items()
            if e.get("better") == "higher"} == {f"{w}.qps" for w in WORKLOADS}
    for baseline in (engine, service):
        entries = baseline["entries"]
        assert {e["versus"] for e in entries.values() if "versus" in e} <= set(entries)
