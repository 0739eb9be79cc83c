"""The benchmark's hooks into the library still resolve.

``perfbench/tracer.py`` wraps library names from outside and
``perfbench/workloads.py`` builds every job from them, so renaming or
deleting one (``Mechanism.buyer_surplus``, ``uniform2.integrate_linear``,
``SingleBuyerInstance.build``, ...) breaks the benchmark.  This installs the
tracer and builds each declared workload's seed-1 job list, as a traced
benchmark run does before its first pass.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from disclosure_games import lpmech

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load(monkeypatch, name: str):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracer_installs_and_workload_builds(monkeypatch, workload):
    tracer_module = load(monkeypatch, "tracer")
    workloads = load(monkeypatch, "workloads")
    build_lp = lpmech.build_lp
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        tracer.job = "setup"
        tracer.active = True
        jobs = workloads.build(workload, 1, 0)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert jobs
    assert lpmech.build_lp is build_lp
