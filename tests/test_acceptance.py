"""Runs the full acceptance battery, one test per criterion.

Each criterion enforces its own numeric claims and time budget inside
``run_criterion``; a failure surfaces the offending comparison and any
expected/actual rows gathered before it.
"""

import pytest

from disclosure_games.acceptance import CRITERIA, run_criterion

_IDS = [f"{c.number:02d}-{c.title.replace(' ', '-')}" for c in CRITERIA]


@pytest.mark.parametrize("criterion", CRITERIA, ids=_IDS)
def test_criterion(criterion):
    result = run_criterion(criterion)
    detail = "\n".join(result.rows)
    assert result.passed, (
        f"criterion {criterion.number} ({criterion.title}) failed: "
        f"{result.error}\n{detail}"
    )


def test_registry_is_complete_and_ordered():
    assert [c.number for c in CRITERIA] == list(range(1, 16))
