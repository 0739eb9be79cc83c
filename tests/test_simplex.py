import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from disclosure_games import simplex
from disclosure_games.acceptance import AUCTION_123, MENU_FOUR_TYPES
from disclosure_games.core import GuardExceeded, ValidationError
from disclosure_games.lpmech import build_lp, uniform_grid_instance
from disclosure_games.simplex import ExactSimplex, LpUnbounded

F = Fraction


class TestBasicSolves:
    def test_two_variable_textbook_lp(self):
        # max 3x + 5y  s.t.  x <= 4, 2y <= 12, 3x + 2y <= 18
        lp = ExactSimplex(2)
        lp.add_le({0: 1}, 4)
        lp.add_le({1: 2}, 12)
        lp.add_le({0: 3, 1: 2}, 18)
        res = lp.solve({0: 3, 1: 5})
        assert res.objective == 36
        assert res.values == (F(2), F(6))

    def test_fractional_optimum_is_exact(self):
        # max x + y  s.t.  3x + y <= 1, x + 3y <= 1  -> x = y = 1/4
        lp = ExactSimplex(2)
        lp.add_le({0: 3, 1: 1}, 1)
        lp.add_le({0: 1, 1: 3}, 1)
        res = lp.solve({0: 1, 1: 1})
        assert res.objective == F(1, 2)
        assert res.values == (F(1, 4), F(1, 4))

    def test_zero_objective_returns_a_feasible_point(self):
        # the all-slack start is already optimal: x = 0, no pivot
        lp = ExactSimplex(2)
        lp.add_le({0: 1, 1: 1}, 1)
        lp.add_ge({0: 1, 1: -2}, 0)
        res = lp.solve({})
        assert res.objective == 0
        assert res.values == (F(0), F(0))
        assert res.pivots == 0

    def test_unbounded_raises(self):
        lp = ExactSimplex(2)
        lp.add_le({0: 1, 1: -1}, 1)
        with pytest.raises(LpUnbounded):
            lp.solve({0: 1, 1: 1})

    def test_bad_variable_index_rejected(self):
        lp = ExactSimplex(2)
        with pytest.raises(ValidationError):
            lp.add_le({3: 1}, 1)

    @pytest.mark.parametrize("index", [True, False, 1.5, 1.0, "1", None])
    def test_non_int_variable_index_rejected(self, index):
        lp = ExactSimplex(2)
        with pytest.raises(ValidationError, match=r"variable index must be an int in 0\.\.1"):
            lp.add_le({index: 1}, 1)
        with pytest.raises(ValidationError, match=r"variable index must be an int in 0\.\.1"):
            lp.add_ge({index: 1}, 0)
        lp.add_le({0: 1, 1: 1}, 1)
        with pytest.raises(ValidationError, match=r"variable index must be an int in 0\.\.1"):
            lp.solve({index: 1})
        assert lp.n_constraints == 1

    @pytest.mark.parametrize("coeffs", ["12", b"12", "", [1, 2], (1, 2)])
    def test_string_coefficients_rejected(self, coeffs):
        # coefficients map variable indices to values; no sequence is taken
        lp = ExactSimplex(2)
        with pytest.raises(ValidationError, match="coefficients must be a mapping, got"):
            lp.add_le(coeffs, 1)
        with pytest.raises(ValidationError, match="coefficients must be a mapping, got"):
            lp.add_ge(coeffs, 0)
        assert lp.n_constraints == 0
        lp.add_le({0: 1, 1: 1}, 1)
        with pytest.raises(ValidationError, match="coefficients must be a mapping, got"):
            lp.solve(coeffs)
        with pytest.raises(ValidationError, match="coefficients must be a mapping, got"):
            lp.solve_lexicographic([{0: 1}, coeffs])

    @pytest.mark.parametrize("n_vars", [True, 2.0, 0, -1, "2", None])
    def test_n_vars_must_be_a_positive_int(self, n_vars):
        with pytest.raises(ValidationError, match="n_vars must be an integer >= 1"):
            ExactSimplex(n_vars)

    def test_zero_pivot_cap_allows_no_pivot(self, monkeypatch):
        monkeypatch.setattr(simplex, "PIVOT_CAP", 0)
        lp = ExactSimplex(1)
        lp.add_le({0: 1}, 1)
        assert lp.solve({0: -1}).objective == 0
        with pytest.raises(GuardExceeded):
            lp.solve({0: 1})

    def test_binary_floats_rejected(self):
        lp = ExactSimplex(1)
        with pytest.raises(ValidationError):
            lp.add_le({0: 0.1}, 1)
        with pytest.raises(ValidationError):
            lp.add_ge({0: 1}, 0.5)
        lp.add_le({0: 1}, 1)
        with pytest.raises(ValidationError):
            lp.solve({0: 0.1})

    def test_le_row_violated_at_origin_rejected(self):
        lp = ExactSimplex(2)
        with pytest.raises(ValidationError, match="<= row needs a nonnegative right-hand side, got -1/2"):
            lp.add_le({0: -1, 1: -1}, F(-1, 2))
        lp.add_le({0: -1}, 0)
        assert lp.n_constraints == 1

    def test_ge_row_violated_at_origin_rejected(self):
        lp = ExactSimplex(2)
        with pytest.raises(ValidationError, match=">= row needs a nonpositive right-hand side, got 2"):
            lp.add_ge({0: 1}, 2)
        lp.add_ge({0: 1, 1: -1}, 0)
        assert lp.n_constraints == 1

    def test_pivot_cap_raises_guard(self, monkeypatch):
        monkeypatch.setattr(simplex, "PIVOT_CAP", 1)
        lp = ExactSimplex(3)
        lp.add_le({0: 1}, 1)
        lp.add_le({1: 1}, 1)
        lp.add_le({2: 1}, 1)
        with pytest.raises(GuardExceeded, match="simplex exceeded 1 pivots"):
            lp.solve({0: 1, 1: 1, 2: 1})


class TestDegeneracy:
    def test_beale_cycling_example_terminates(self):
        # the classic cycling instance for naive Dantzig pivoting
        lp = ExactSimplex(4)
        lp.add_le({0: F(1, 4), 1: -60, 2: -F(1, 25), 3: 9}, 0)
        lp.add_le({0: F(1, 2), 1: -90, 2: -F(1, 50), 3: 3}, 0)
        lp.add_le({2: 1}, 1)
        res = lp.solve({0: F(3, 4), 1: -150, 2: F(1, 50), 3: -6})
        assert res.objective == F(1, 20)
        assert res.values == (F(1, 25), F(0), F(1), F(0))

    def test_highly_degenerate_assignment_polytope(self):
        # doubly substochastic 3x3 with many redundant ties
        lp = ExactSimplex(9)
        for i in range(3):
            lp.add_le({3 * i + j: 1 for j in range(3)}, 1)
        for j in range(3):
            lp.add_le({3 * i + j: 1 for i in range(3)}, 1)
        cost = {0: 1, 4: 1, 8: 1}
        res = lp.solve(cost)
        assert res.objective == 3
        assert res.values == tuple(F(int(j in cost)) for j in range(9))


class TestLexicographic:
    def test_second_stage_keeps_first_optimum(self):
        # max x + y on the unit square: whole edge x + y <= ... is optimal only
        # at the corner for stage 1 here, so use a face with slack:
        # stage 1 max x + y on {x <= 1, y <= 1, x + y <= 3/2}: optimal face is
        # the segment between (1/2, 1) and (1, 1/2); stage 2 max y picks (1/2, 1)
        lp = ExactSimplex(2)
        lp.add_le({0: 1}, 1)
        lp.add_le({1: 1}, 1)
        lp.add_le({0: 1, 1: 1}, F(3, 2))
        first, second = lp.solve_lexicographic([{0: 1, 1: 1}, {1: 1}])
        assert first.objective == F(3, 2)
        assert second.objective == 1
        assert second.values == (F(1, 2), F(1))
        assert sum(second.values) == F(3, 2)

    def test_three_stage_lexicographic(self):
        # x + y + z <= 1: stage 1 fills it, stage 2 max z, stage 3 max y
        lp = ExactSimplex(3)
        lp.add_le({0: 1, 1: 1, 2: 1}, 1)
        lp.add_le({2: 1}, F(1, 3))
        stages = lp.solve_lexicographic(
            [{0: 1, 1: 1, 2: 1}, {2: 1}, {1: 1}]
        )
        assert stages[0].objective == 1
        assert stages[1].objective == F(1, 3)
        assert stages[2].objective == F(2, 3)
        assert stages[2].values == (F(0), F(2, 3), F(1, 3))

    def test_stage_two_cannot_leave_the_optimal_face(self):
        # stage 1 max x: unique optimum x = 1 forces y free on [0, 1];
        # stage 2 max y must hold x = 1
        lp = ExactSimplex(2)
        lp.add_le({0: 1}, 1)
        lp.add_le({1: 1}, 1)
        _, second = lp.solve_lexicographic([{0: 1}, {1: 1}])
        assert second.values == (F(1), F(1))


def _random_lp(rng: random.Random):
    n = rng.randint(2, 5)
    m = rng.randint(2, 6)
    lp = ExactSimplex(n)
    rows = []
    for _ in range(m):
        coeffs = {j: F(rng.randint(0, 8)) for j in range(n)}
        coeffs = {j: v for j, v in coeffs.items() if v}
        rhs = F(rng.randint(1, 20))
        lp.add_le(coeffs, rhs)
        rows.append((coeffs, rhs))
    # a box keeps every instance bounded
    for j in range(n):
        lp.add_le({j: 1}, 10)
        rows.append(({j: 1}, F(10)))
    obj = {j: F(rng.randint(-3, 9)) for j in range(n)}
    return lp, rows, obj, n


class TestAgainstScipy:
    def test_random_lps_match_floating_point_solver(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(20240917)
        for _ in range(40):
            lp, rows, obj, n = _random_lp(rng)
            res = lp.solve(obj)
            a_ub = [[float(r.get(j, 0)) for j in range(n)] for r, _ in rows]
            b_ub = [float(b) for _, b in rows]
            c = [-float(obj.get(j, 0)) for j in range(n)]
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(float(res.objective) + ref.fun) < 1e-9
            # the exact point must satisfy every row exactly
            for r, b in rows:
                assert sum(v * res.values[j] for j, v in r.items()) <= b


def _random_origin_lp(rng: random.Random):
    """A small LP whose rows all hold at x = 0, with 1-3 stages.

    Coefficients take both signs and most right-hand sides are zero, so
    many vertices are degenerate and many objectives are unbounded.
    """
    n = rng.randint(1, 5)
    lp = ExactSimplex(n)
    for _ in range(rng.randint(1, 6)):
        coeffs = {
            j: F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
            for j in rng.sample(range(n), rng.randint(1, n))
        }
        rhs = F(rng.choice((0, 0, rng.randint(1, 9))), rng.choice((1, 2)))
        if rng.random() < 0.5:
            lp.add_le(coeffs, rhs)
        else:
            lp.add_ge(coeffs, -rhs)
    stages = [
        {j: rng.randint(-4, 4) for j in range(n)} for _ in range(rng.randint(1, 3))
    ]
    return lp, stages


class TestOriginCorpus:
    """Lexicographic stages, degenerate pivots and unbounded rays on random LPs
    whose rows hold at x = 0: one digest over every outcome (objective,
    values and pivots per stage, or the exception)."""

    DIGEST = "004ffe18bc6e04ef53b9e13a01f1c388ff987a654faa2836a4a0f0a7d955968b"

    def test_outcomes_match_recorded_digest(self):
        rng = random.Random(1300)
        digest = hashlib.sha256()
        unbounded = 0
        for _ in range(1000):
            lp, stages = _random_origin_lp(rng)
            try:
                results = lp.solve_lexicographic(stages)
            except LpUnbounded as exc:
                unbounded += 1
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            for res in results:
                values = ",".join(map(str, res.values))
                digest.update(f"{res.objective}|{values}|{res.pivots}\n".encode())
        assert 300 < unbounded < 700
        assert digest.hexdigest() == self.DIGEST


def _solve_square(a, b):
    """Solve a square system by Fraction Gauss-Jordan elimination; None if singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return [m[r][n] for r in range(n)]


def _vertex_optima(n, rows, stages):
    """Lexicographic optima by enumerating every vertex of a bounded polytope.

    ``rows`` are (coeffs, sense, rhs) with every x_j in [0, 10]; a vertex is a
    feasible point where n linearly independent constraints are tight.  Every
    face of a polytope is the hull of its vertices, so filtering the vertices
    stage by stage gives each lexicographic optimum.  None if infeasible.
    """
    halfspaces = []  # (a, b) meaning a.x <= b
    for coeffs, sense, rhs in rows:
        a = [F(coeffs.get(j, 0)) for j in range(n)]
        if sense in ("<=", "=="):
            halfspaces.append((a, rhs))
        if sense in (">=", "=="):
            halfspaces.append(([-v for v in a], -rhs))
    for j in range(n):
        unit = [F(int(i == j)) for i in range(n)]
        halfspaces.append((unit, F(10)))
        halfspaces.append(([-v for v in unit], F(0)))
    vertices = set()
    for tight in itertools.combinations(halfspaces, n):
        x = _solve_square([a for a, _ in tight], [b for _, b in tight])
        if x is not None and all(
            sum(v * w for v, w in zip(a, x)) <= b for a, b in halfspaces
        ):
            vertices.add(tuple(x))
    if not vertices:
        return None
    optima = []
    for obj in stages:
        score = {x: sum(F(obj.get(j, 0)) * x[j] for j in range(n)) for x in vertices}
        best = max(score.values())
        optima.append(best)
        vertices = {x for x in vertices if score[x] == best}
    return optima


class TestAgainstVertexEnumeration:
    def test_tiny_boxed_lps_match_every_basis_oracle(self):
        rng = random.Random(4242)
        nonzero = 0
        for _ in range(300):
            n = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 3)):
                coeffs = {j: F(rng.randint(-4, 4), rng.choice((1, 2))) for j in range(n)}
                sense = rng.choice(("<=", ">="))
                rhs = F(rng.choice((0, rng.randint(1, 8))))
                rows.append((coeffs, sense, rhs if sense == "<=" else -rhs))
            rows += [({j: 1}, "<=", F(10)) for j in range(n)]
            stages = [
                {j: rng.randint(-3, 3) for j in range(n)} for _ in range(rng.randint(1, 2))
            ]
            lp = ExactSimplex(n)
            add = {"<=": lp.add_le, ">=": lp.add_ge}
            for coeffs, sense, rhs in rows:
                add[sense](coeffs, rhs)
            expected = _vertex_optima(n, rows, stages)
            assert expected is not None  # x = 0 is a vertex
            nonzero += any(expected)
            results = lp.solve_lexicographic(stages)
            assert [res.objective for res in results] == expected
            x = results[-1].values
            for coeffs, sense, rhs in rows:
                lhs = sum(F(v) * x[j] for j, v in coeffs.items())
                assert lhs <= rhs if sense == "<=" else lhs >= rhs
            for res, obj in zip(results, stages):
                assert sum(F(obj.get(j, 0)) * x[j] for j in range(n)) == res.objective
        assert nonzero > 100


def _check_priced_stages(lp: ExactSimplex) -> list:
    """Wrap ``lp._maximize`` so that every stage is checked against reduced
    costs recomputed in Fraction from the final tableau.

    With c the stage objective and B the basis, the reduced cost of column j
    is c_j - sum over rows r of c_B(r) * a_rj, and the objective value is
    sum over r of c_B(r) * b_r, where a_rj and b_r are row r's entries over
    its denominator.  Returns the list of stage optima checked so far.
    """
    checked = []

    def maximize(objective):
        optimum = ExactSimplex._maximize(lp, objective)
        c = {j: F(v) for j, v in objective.items()}
        cols = set(c) | set(lp._goal)
        for row in lp._rows:
            cols |= set(row)
        cost_b = [c.get(col, F(0)) for col in lp._basis]
        for j in cols:
            reduced = c.get(j, F(0))
            for r, row in enumerate(lp._rows):
                if j in row:
                    reduced -= cost_b[r] * F(row[j], lp._den[r])
            assert F(lp._goal.get(j, 0), lp._goal_den) == reduced, j
        value = sum((cb * F(lp._rhs[r], lp._den[r]) for r, cb in enumerate(cost_b)), F(0))
        assert F(lp._value, lp._goal_den) == value == optimum
        checked.append(optimum)
        return optimum

    lp._maximize = maximize
    return checked


class TestPricingOracle:
    """The one-pass pricing leaves the exact reduced costs and value after
    every stage, on mechanism LPs and on the x = 0 corpus."""

    @pytest.mark.parametrize(
        "inst",
        [uniform_grid_instance(5), uniform_grid_instance(4, 3), AUCTION_123, MENU_FOUR_TYPES],
        ids=["grid-5", "grid-4-three-buyers", "auction-123", "menu-four-types"],
    )
    def test_mechanism_lp_stages(self, inst):
        system = build_lp(inst)
        checked = _check_priced_stages(system.lp)
        stages = system.lp.solve_lexicographic(
            [system.revenue_objective, system.surplus_objective]
        )
        assert checked == [stage.objective for stage in stages]

    def test_origin_corpus_slice(self):
        rng = random.Random(1300)
        stages_checked = 0
        for _ in range(300):
            lp, stages = _random_origin_lp(rng)
            checked = _check_priced_stages(lp)
            try:
                results = lp.solve_lexicographic(stages)
            except LpUnbounded:
                continue
            assert checked == [res.objective for res in results]
            stages_checked += len(results)
        assert stages_checked > 150


def _check_primitive_rows(lp: ExactSimplex) -> list:
    """Wrap ``lp._pivot`` so that the whole tableau is checked after every pivot.

    Every row must be primitive: a positive denominator, numerators, right-hand
    side and denominator with gcd 1, its basic column reading the denominator
    (the entry 1) and no stored zero; the reduced-cost row likewise.  A rational
    row has exactly one such form, which is why the row updates may scale by
    p/g and f/g instead of p and f without changing any entry or pivot.
    Returns the entering columns checked so far.
    """
    entered = []

    def pivot(r, col, rs):
        ExactSimplex._pivot(lp, r, col, rs)
        for row, rhs, den, basic in zip(lp._rows, lp._rhs, lp._den, lp._basis):
            assert den > 0
            assert gcd(den, rhs, *row.values()) == 1
            assert row[basic] == den
            assert 0 not in row.values()
        assert lp._goal_den > 0
        assert gcd(lp._goal_den, lp._value, *lp._goal.values()) == 1
        assert 0 not in lp._goal.values()
        entered.append(col)

    lp._pivot = pivot
    return entered


class TestPrimitiveRows:
    """After every pivot each row is in its unique primitive form, on
    mechanism LPs and on the x = 0 corpus."""

    @pytest.mark.parametrize(
        "inst",
        [uniform_grid_instance(5), uniform_grid_instance(4, 3), AUCTION_123, MENU_FOUR_TYPES],
        ids=["grid-5", "grid-4-three-buyers", "auction-123", "menu-four-types"],
    )
    def test_mechanism_lp_pivots(self, inst):
        system = build_lp(inst)
        entered = _check_primitive_rows(system.lp)
        stages = system.lp.solve_lexicographic(
            [system.revenue_objective, system.surplus_objective]
        )
        assert len(entered) == stages[-1].pivots > 0

    def test_origin_corpus_slice(self):
        rng = random.Random(1300)
        pivots = 0
        for _ in range(300):
            lp, stages = _random_origin_lp(rng)
            entered = _check_primitive_rows(lp)
            try:
                lp.solve_lexicographic(stages)
            except LpUnbounded:
                pass
            pivots += len(entered)
        assert pivots > 200
