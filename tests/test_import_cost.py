"""Entry points import only what their path runs.

Importing the simulator or the CLI must not load scipy, the HTTP stack,
XML parsing or the process pool.  Each costs start-up time and resident
memory on every command, workload and service restart, and none of them is
on those paths: scipy is imported inside ``median_ci``, the Prometheus
exposition layer from ``repro.obs.expose``, and the pool only for
``jobs > 1``.  The probe runs in a fresh interpreter and looks only at the
modules each import *newly* loads, so site hooks that preload stdlib
modules do not affect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: Packages that no entry point's import may load.
HEAVY = ("scipy", "http.server", "http.client", "urllib.request", "ssl",
         "xml.sax", "concurrent.futures")

_PROBE = """
import json, sys
before = set(sys.modules)
import repro.sim.engine
engine = set(sys.modules) - before
import repro.cli
cli = set(sys.modules) - before - engine
print(json.dumps({"engine": sorted(engine), "cli": sorted(cli)}))
"""


def _matching(modules: list[str], roots: tuple[str, ...]) -> list[str]:
    return [m for m in modules
            if any(m == r or m.startswith(r + ".") for r in roots)]


@pytest.fixture(scope="module")
def newly_loaded() -> dict[str, list[str]]:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return json.loads(out.stdout)


def test_engine_import_loads_no_heavy_module(newly_loaded):
    assert "repro.sim.engine" in newly_loaded["engine"]
    assert _matching(newly_loaded["engine"], HEAVY + ("socketserver",)) == []


def test_cli_import_loads_no_heavy_module(newly_loaded):
    assert "repro.cli" in newly_loaded["cli"]
    assert _matching(newly_loaded["cli"], HEAVY) == []
