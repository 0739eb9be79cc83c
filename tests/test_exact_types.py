"""Every number an exact path returns is a ``Fraction``, on int inputs too.

``require_exact`` accepts int values and probabilities, so an instance may
carry ints.  What comes back must still be ``Fraction`` (not ``int``,
``bool`` or ``float``): a posted price, for one, is the winning value's
numerator over the int form's value scale, whatever type the value had.
"""

from fractions import Fraction

import pytest

from disclosure_games.core import BuyerType, DiscreteInstance
from disclosure_games.dpconnected import (
    SingleBuyerInstance,
    brute_force_connected,
    buyer_utility,
    dp_table,
    optimal_connected,
)
from disclosure_games.game import (
    GameEvaluator,
    full_disclosure_profile,
    no_disclosure_profile,
)
from disclosure_games.lpmech import solve_instance
from disclosure_games.uniform2 import threshold_surplus

F = Fraction
HALF = F(1, 2)

# one buyer, one good, int values: the posted-price path
POSTED = DiscreteInstance(1, ((BuyerType(HALF, (5,)), BuyerType(HALF, (2,))),))
# two buyers, one an int-probability point mass: the LP path
LP_ONE_GOOD = DiscreteInstance(
    1, ((BuyerType(HALF, (1,)), BuyerType(HALF, (3,))), (BuyerType(1, (2,)),))
)
# one buyer, two goods: the LP path too
LP_TWO_GOODS = DiscreteInstance(
    2, ((BuyerType(F(1, 3), (1, 4)), BuyerType(F(2, 3), (3, 0))),)
)


def assert_fractions(*numbers):
    for x in numbers:
        assert type(x) is Fraction, repr(x)


def assert_solution_exact(sol):
    mech = sol.mechanism
    assert_fractions(sol.revenue, sol.buyer_surplus)
    assert_fractions(*(x for per_type in mech.q for per_buyer in per_type for x in per_buyer))
    assert_fractions(*(x for per_type in mech.r for x in per_type))


class TestSolveInstance:
    def test_posted_price_path(self):
        sol = solve_instance(POSTED)
        assert sol.mechanism.r == ((F(5),), (F(0),))
        assert_solution_exact(sol)

    @pytest.mark.parametrize("inst", [LP_ONE_GOOD, LP_TWO_GOODS])
    def test_lp_path(self, inst):
        assert_solution_exact(solve_instance(inst))


class TestConnectedDisclosure:
    INST = SingleBuyerInstance((1, 3, 4), (F(1, 4), HALF, F(1, 4)))

    def test_buyer_utility(self):
        inst = SingleBuyerInstance((1, 3), (HALF, HALF))
        assert buyer_utility(inst, (0, 1)) == (F(0), F(3))
        for msg in ((0,), (1,), (0, 1)):
            assert_fractions(*buyer_utility(inst, msg))

    def test_dp_and_brute_force(self):
        assert_fractions(*(utility for utility, _ in dp_table(self.INST)))
        assert_fractions(optimal_connected(self.INST)[1], brute_force_connected(self.INST)[1])


class TestGameEvaluator:
    @pytest.mark.parametrize("inst", [POSTED, LP_ONE_GOOD, LP_TWO_GOODS])
    def test_outcome_fields(self, inst):
        evaluator = GameEvaluator(inst)
        for profile in (no_disclosure_profile(inst), full_disclosure_profile(inst)):
            outcome = evaluator.evaluate(profile)
            assert_fractions(
                outcome.expected_revenue, outcome.total_surplus, *outcome.per_buyer_utility
            )
            for prob, sol in outcome.per_message.values():
                assert_fractions(prob)
                assert_solution_exact(sol)


@pytest.mark.parametrize("t", [0, F(1, 4), "1/2"])
def test_threshold_surplus(t):
    split = threshold_surplus(t)
    assert_fractions(
        split.t,
        split.low_low,
        split.low_high,
        split.high_low,
        split.high_high,
        split.per_buyer,
        split.total,
    )
