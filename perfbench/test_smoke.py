"""Smoke test: a tiny fixed-seed run of every workload, untraced and traced.

    python3 -m pytest perfbench/test_smoke.py -q

Outside the package's ``testpaths``, so the tier-1 suite does not run it.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, trace: int) -> list:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=HERE.parent)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_and_nothing_fails(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert "fail_ratio 0 (0 of" in "\n".join(lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") for line in lines[:-1])
