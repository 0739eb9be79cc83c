"""The mutation check's list still fits the tree.

``mutation/run.py`` runs outside tier-1: it applies each listed one-line
mutant to a copy of the tree and runs the test named beside it.  Here only
the cheap half runs, so that an edited line or a renamed test shows up at
once: every mutant's line occurs exactly once in its file, its edit
changes that line, and the test it names exists.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutation_run", ROOT / "mutation" / "run.py")
RUN = importlib.util.module_from_spec(SPEC)
sys.modules[SPEC.name] = RUN
SPEC.loader.exec_module(RUN)


@pytest.mark.parametrize("mutant", RUN.MUTANTS, ids=lambda m: m.what)
def test_mutant_applies_and_names_a_test(mutant, tmp_path):
    source = ROOT / mutant.path
    target = tmp_path / mutant.path
    target.parent.mkdir(parents=True)
    target.write_text(source.read_text())
    RUN.apply(tmp_path, mutant)
    assert target.read_text() != source.read_text()
    path, *names = mutant.test.split("::")
    text = (ROOT / path).read_text()
    for name in names:
        assert re.search(rf"^\s*(class|def) {re.escape(name)}\b", text, re.M), mutant.test
