import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclosure_games import myerson
from disclosure_games.acceptance import AUCTION_123, MENU_FOUR_TYPES
from disclosure_games.core import BuyerType, DiscreteInstance, ValidationError
from disclosure_games.lpmech import solve_instance, uniform_grid_instance
from disclosure_games.myerson import ironed_virtual_values, myerson_optimum

F = Fraction


class TestClosedForm:
    def test_uniform_grids(self):
        assert myerson_optimum(uniform_grid_instance(12)) == myerson.MyersonOptimum(
            F(193, 432), F(235, 1728), False
        )
        assert myerson_optimum(uniform_grid_instance(20)) == myerson.MyersonOptimum(
            F(87, 200), F(237, 1600), False
        )

    def test_regular_prior_keeps_its_virtual_values(self):
        # phi_i = v_i - (v_{i+1} - v_i) P(v > v_i) / p_i
        prior = AUCTION_123.buyers[0]
        assert ironed_virtual_values(prior) == ((F(-2), F(0), F(3)), False)

    def test_irregular_prior_is_ironed(self):
        # raw slopes 10, -6, -1 from the top value down; the hull skips the
        # middle point, so the two low types share the chord's slope -7/2
        third = F(1, 3)
        prior = (BuyerType(third, (F(2),)), BuyerType(third, (F(10),)), BuyerType(third, (F(1),)))
        assert ironed_virtual_values(prior) == ((F(-7, 2), F(10), F(-7, 2)), True)

    def test_auction_123_matches_the_lp(self):
        sol = solve_instance(AUCTION_123)
        assert myerson_optimum(AUCTION_123) == myerson.MyersonOptimum(
            sol.revenue, sol.buyer_surplus, False
        )

    def test_one_good_only(self):
        with pytest.raises(ValidationError, match="exactly one good, got 2"):
            myerson_optimum(MENU_FOUR_TYPES)

    def test_shares_no_code_with_the_lp(self):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(myerson))):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not imported & {"lpmech", "simplex", "joint_types", "joint_prob"}


@st.composite
def one_good_instances(draw):
    buyers = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(1, 4))
        values = draw(st.lists(st.integers(0, 11), min_size=n, max_size=n, unique=True))
        weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        total = sum(weights)
        buyers.append(
            tuple(BuyerType(F(w, total), (F(v),)) for w, v in zip(weights, values))
        )
    return DiscreteInstance(1, tuple(buyers))


class TestAgainstTheLp:
    @settings(deadline=None)
    @given(one_good_instances())
    def test_revenue_equal_and_surplus_bounded(self, inst):
        sol = solve_instance(inst)
        oracle = myerson_optimum(inst)
        assert oracle.revenue == sol.revenue
        if oracle.ironed:
            assert sol.buyer_surplus <= oracle.buyer_surplus
        else:
            assert sol.buyer_surplus == oracle.buyer_surplus
