"""Mutation check: every listed one-line source mutant must be killed.

    python mutation/run.py

Each entry of ``MUTANTS`` names a file, one of its lines as written (without
indentation), that line's mutated form, and the test expected to fail on
the mutant.  The runner first runs every named test on an unmutated copy
of the tree, so that a failure means the mutant and nothing else.  Then,
for each mutant, it copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory, applies the edit and runs the named test with
``pytest -x``.  A mutant is killed when that test fails within
``TIMEOUT_S``.  Exit status 1 when a mutant survives or times out, an edit
does not apply, or the unmutated run fails.  Standard library only, besides the pytest it starts; not part of
tier-1, which only checks that every edit still applies
(``tests/test_mutants.py``).

References: DeMillo, Lipton & Sayward 1978, "Hints on test data
selection" (IEEE Computer); Jia & Harman 2011, "An analysis and survey of
the development of mutation testing" (IEEE TSE).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 300  # per pytest run; a mutant that makes its test hang is not killed


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    line: str  # the line as written, stripped of its indentation
    mutated: str
    test: str  # pytest node id, relative to the repository root
    what: str


MUTANTS = (
    # int kernels
    Mutant(
        "src/disclosure_games/uniform2.py",
        "den = 2 * lcm(*(t.denominator for t in points))",
        "den = lcm(*(t.denominator for t in points))",
        "tests/test_uniform2.py::TestProfileSurplus::test_half_half_rows",
        "an odd profile_grid den",
    ),
    Mutant(
        "src/disclosure_games/geometry.py",
        "return u + quo if rem == 0 else u + Fraction(num, d)",
        "return u + quo",
        "tests/test_uniform2.py::TestGeometryInputs::test_int_polygons_stay_exact",
        "a flooring clip_halfplane crossing",
    ),
    Mutant(
        "src/disclosure_games/game.py",
        "self._scale = self._form.v_scale * self._w_scale if self._form else 1",
        "self._scale = self._w_scale if self._form else 1",
        "tests/test_game.py::TestPostedPriceEntries::test_every_reduction_message",
        "GameEvaluator's scale without its V factor",
    ),
    Mutant(
        "src/disclosure_games/game.py",
        "return [((-t, p), s) for t, p, s in scored]",
        "return [((t, p), s) for t, p, s in scored]",
        "tests/test_game.py::TestSearch::test_no_disclosure_ranks_strictly_first",
        "search_profiles ranks the worst surplus first",
    ),
    Mutant(
        "src/disclosure_games/game.py",
        "key, sums = min(_ranking(evaluator, connected_only), key=itemgetter(0))",
        "key, sums = max(_ranking(evaluator, connected_only), key=itemgetter(0))",
        "tests/test_game.py::TestSearchBest::test_is_the_first_ranked_row",
        "search_best reads the last ranked row",
    ),
    Mutant(
        "src/disclosure_games/game.py",
        "masks = min(tied, key=evaluator._profile)",
        "masks = max(tied, key=evaluator._profile)",
        "tests/test_game.py::TestSearchBest::test_is_the_first_ranked_row",
        "search_best breaks a posted-price surplus tie toward the larger profile",
    ),
    # the posted-price block step, the connected DP's tie rule and the running
    # partition totals
    Mutant(
        "src/disclosure_games/core.py",
        "mass += weight",
        "mass += 0",
        "tests/test_game.py::TestPostedPriceEntries::test_memo_is_best_posted_price_on_every_block",
        "a block mass without the new type's weight",
    ),
    Mutant(
        "src/disclosure_games/dpconnected.py",
        "if best is None or utility >= best:",
        "if best is None or utility > best:",
        "tests/test_dpconnected.py::TestIntegerSearch::test_matches_the_fraction_searches",
        "the connected DP breaks a tie toward the shortest last block",
    ),
    Mutant(
        "src/disclosure_games/core.py",
        "(masks[:k] + (m | bit,) + masks[k + 1 :], total + score[m | bit] - score[m])",
        "(masks[:k] + (m | bit,) + masks[k + 1 :], total + score[m | bit])",
        "tests/test_core.py::TestSetPartitions::test_mask_totals_are_block_score_sums",
        "a running total that adds u(b | t) without taking off u(b)",
    ),
    Mutant(
        "src/disclosure_games/simplex.py",
        "a, f = p // g, f // g",
        "a, f = p // g, f",
        "tests/test_simplex.py::TestPrimitiveRows::test_mechanism_lp_pivots",
        "a pivot update that scales the row by p/gcd(p, f) but not f",
    ),
    # the instance's int form and its readers
    Mutant(
        "src/disclosure_games/core.py",
        "orders = tuple(tuple(sorted(range(len(nums)), key=nums.__getitem__)) for nums in values)",
        "orders = tuple(tuple(sorted(range(len(nums)), key=nums.__getitem__, reverse=True))"
        " for nums in values)",
        "tests/test_core.py::TestIntForm::test_gives_back_every_fraction",
        "IntForm.orders descending",
    ),
    Mutant(
        "src/disclosure_games/core.py",
        "w_scales.append(w)",
        "w_scales.append(prior[0].prob.denominator)",
        "tests/test_core.py::TestIntForm::test_gives_back_every_fraction",
        "IntForm.w_scales from one denominator",
    ),
    Mutant(
        "src/disclosure_games/lpmech.py",
        "sold = [revenue > 0 and v >= price for v, _ in pairs]",
        "sold = [revenue > 0 and v > price for v, _ in pairs]",
        "tests/test_lpmech.py::TestPostedPriceShortcut::test_seeded_corpus",
        "solve_instance's posted price does not sell to the type at the price",
    ),
    Mutant(
        "src/disclosure_games/uniform2.py",
        "return ThresholdSplit(t, *[Fraction(0)] * (4 - len(rows)), *(row.u_a for row in rows))",
        "return ThresholdSplit(t, *[Fraction(0)] * (4 - len(rows)),"
        " *(row.u_a for row in reversed(rows)))",
        "tests/test_uniform2.py::TestThresholdFamily::test_matches_the_quadrant_oracle",
        "threshold_surplus reads the quadrants in reverse",
    ),
    Mutant(
        "src/disclosure_games/core.py",
        "if sum(nums) != w:",
        "if sum(nums) > w:",
        "tests/test_core.py::TestValidationOracle::test_agrees_with_a_fraction_predicate",
        "DiscreteInstance accepts probabilities summing to less than 1",
    ),
    Mutant(
        "src/disclosure_games/core.py",
        "or isinstance(x, (int, Fraction)) and not isinstance(x, bool)):",
        "or isinstance(x, (int, Fraction))):",
        "tests/test_core.py::TestRationals::test_int_and_fraction_subclasses_are_exact",
        "require_exact accepts a bool",
    ),
    Mutant(
        "src/disclosure_games/dpconnected.py",
        "if values[0] <= 0:",
        "if values[0] < 0:",
        "tests/test_raise_sites.py::test_dpconnected",
        "SingleBuyerInstance accepts a value-0 type",
    ),
    # exhaustive searches and the reduction checker
    Mutant(
        "src/disclosure_games/game.py",
        "tuple((1 << b[-1] + 1) - (1 << b[0]) for b in blocks)",
        "tuple((1 << b[-1]) - (1 << b[0]) for b in blocks)",
        "tests/test_dpconnected.py::TestAgainstUnconstrainedSearch::"
        "test_lp_game_agrees_with_posted_price_oracle",
        "the connected posted-price search drops a block's top rank from its mask",
    ),
    Mutant(
        "src/disclosure_games/game.py",
        "placed = total + score[m | last] - score[m]",
        "placed = total + score[m | last]",
        "tests/test_game.py::TestSearchBest::test_is_the_first_ranked_row",
        "search_best places the last type without taking off the block it joins",
    ),
    Mutant(
        "src/disclosure_games/hardness.py",
        "if low[mask & (len(low) - 1)] + high[mask >> h] == half:",
        "if low[mask & (len(low) - 1)] + high[mask >> (h - 1)] == half:",
        "tests/test_hardness.py::TestSubsetBruteForce::test_first_subset_in_mask_order",
        "solve_partition_bruteforce reads the high half table at the wrong shift",
    ),
    Mutant(
        "src/disclosure_games/core.py",
        "blocks.append(block[start][n])",
        "blocks.insert(0, block[start][n])",
        "tests/test_core.py::TestSetPartitions::test_compositions_match_the_counter_loop",
        "compositions puts the last block first",
    ),
    Mutant(
        "src/disclosure_games/hardness.py",
        "if pooled_price != Fraction(pp.total, 2):",
        "if False:",
        "tests/test_hardness.py::TestVerifyReductionCanFail::"
        "test_pooled_price_other_than_half_the_total",
        "verify_reduction accepts any pooled price",
    ),
    Mutant(
        "src/disclosure_games/hardness.py",
        "if witness_surplus < reduced.target:",
        "if False:",
        "tests/test_hardness.py::TestVerifyReductionCanFail::test_witness_mass_below_the_target",
        "verify_reduction accepts a witness below the target",
    ),
    # size guards: a size equal to the guard still runs
    Mutant(
        "src/disclosure_games/hardness.py",
        "if len(pp.sizes) > VERIFY_GUARD:",
        "if len(pp.sizes) >= VERIFY_GUARD:",
        "tests/test_hardness.py::TestGuardBoundaries::test_verify_guard",
        "verify_reduction refuses m equal to its guard",
    ),
    Mutant(
        "src/disclosure_games/hardness.py",
        "if m > SUBSET_GUARD:",
        "if m >= SUBSET_GUARD:",
        "tests/test_hardness.py::TestGuardBoundaries::test_subset_guard",
        "solve_partition_bruteforce refuses m equal to its guard",
    ),
    Mutant(
        "src/disclosure_games/dpconnected.py",
        "if n > BRUTE_FORCE_GUARD:",
        "if n >= BRUTE_FORCE_GUARD:",
        "tests/test_dpconnected.py::TestBruteForceOracle::test_guard_admits_n_equal_to_it",
        "brute_force_connected refuses n equal to its guard",
    ),
)


def apply(tree: Path, mutant: Mutant) -> None:
    """Replace the mutant's one line in ``tree``, keeping its indentation."""
    path = tree / mutant.path
    lines = path.read_text().splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if line.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.path}: {len(hits)} lines read {mutant.line!r}, expected 1")
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + mutant.mutated + "\n"
    path.write_text("".join(lines))


def copy_tree(dest: Path) -> Path:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(source, dest / name)
    return dest


def run_tests(tree: Path, tests: list[str]) -> int | str:
    """pytest's exit status for ``tests`` in ``tree``, importing the tree's own
    source, or "timeout"."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        return "timeout"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        clean = copy_tree(Path(tmp) / "clean")
        status = run_tests(clean, sorted({m.test for m in MUTANTS}))
        if status != 0:
            print(f"unmutated tree: the named tests exit {status}, expected 0")
            return 1
        for k, mutant in enumerate(MUTANTS):
            tree = copy_tree(Path(tmp) / f"mutant-{k}")
            try:
                apply(tree, mutant)
            except ValueError as exc:
                print(f"not applied  {mutant.what}: {exc}")
                bad += 1
                continue
            status = run_tests(tree, [mutant.test])
            # pytest exits 1 when a test failed; other codes are errors
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error {status}")
            bad += status != 1
            print(f"{verdict:12} {mutant.what}  [{mutant.test}]")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
