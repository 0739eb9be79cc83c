"""Smoke test: every demo runs from a copy and prints its headline.

Each demo is copied into a temporary directory first, so the SVGs that
``surplus_of_silence.py`` writes next to itself land there.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

HEADLINES = {
    "connected_or_not.py": "  delta 1/100: connected 1/900 (~0.00111111), free 101/900 (~0.112222),"
    " ratio 101 (~101)",
    "hardness_sweep.py": "  56 solvable, equivalence verified on all (0 exceptions)",
    "posted_menus.py": "  independent recheck: valid=True, revenue 30081/250 (~120.324)",
    "surplus_of_silence.py": "  buyer A 13/128 (~0.101562), buyer B 9/128 (~0.0703125),"
    " total 11/64 (~0.171875)",
    "when_telling_helps.py": "  (25 profiles searched; silence is strictly first)",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(HEADLINES)


@pytest.mark.parametrize("name", sorted(HEADLINES))
def test_demo_runs(name, tmp_path):
    script = tmp_path / name
    shutil.copy(ROOT / "demos" / name, script)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert HEADLINES[name] in done.stdout.splitlines()
    if name == "surplus_of_silence.py":
        for svg in ("winner_regions_silent.svg", "winner_regions_half_silent.svg"):
            assert (tmp_path / svg).read_text().startswith("<svg")
