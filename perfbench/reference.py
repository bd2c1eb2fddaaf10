"""Regenerate ``reference.json``, the output digests every run checks.

    python3 perfbench/reference.py [workload ...]

Run it only when a change is meant to alter outputs, and say so in that
change.  For ``scale_hybrid`` the reference comes from the exact engine,
so every benchmark run re-checks hybrid-vs-exact parity; ``serve_mix``
records the reply to every key of its query space.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS, worker_env  # noqa: E402


def pass_units(cls, variant: int, workdir: Path) -> dict[str, str]:
    workload = cls(variant, workdir / f"{cls.name}-{variant}", {})
    workload.setup()
    try:
        result = workload.run_pass()
    finally:
        workload.close()
    return {name: value for name, value, _ops in result.units}


def main(names: list[str]) -> int:
    from workloads import PaperFast, ScaleHybrid, ServeMix, TuneStore

    class ExactScale(ScaleHybrid):
        engine_mode = "exact"

    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    workdir = ROOT / ".bench_work" / "reference"
    try:
        for name in names or WORKLOADS:
            print(f"reference: {name}", file=sys.stderr)
            if name == "serve_mix":
                workload = ServeMix(0, workdir / name, {})
                workload.setup()
                reference[name] = {"replies": workload.reference_replies()}
                workload.close()
                continue
            cls = {"paper_fast": PaperFast, "tune_store": TuneStore,
                   "scale_hybrid": ExactScale}[name]
            reference[name] = {f"v{v}": pass_units(cls, v, workdir)
                               for v in range(cls.variants)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same interpreter settings as the benchmark's workers.
        os.execve(sys.executable, [sys.executable, *sys.argv], worker_env())
    sys.exit(main(sys.argv[1:]))
