import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclosure_games import lpmech
from disclosure_games.acceptance import AUCTION_123, MENU_FOUR_TYPES
from disclosure_games.core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    ValidationError,
    condition_on_messages,
)
from disclosure_games.dpconnected import buyer_utility
from disclosure_games.hardness import PartitionProblem, reduce_to_buyer_opt, sweep_size_lists
from disclosure_games.lpmech import (
    Mechanism,
    build_lp,
    joint_prob,
    joint_types,
    mechanism_to_csv,
    posted_menu_view,
    solve_instance,
    uniform_grid_instance,
    verify_mechanism,
)
from disclosure_games.simplex import ExactSimplex
from disclosure_games.uniform2 import myerson_outcome, segment

F = Fraction

# one buyer, two goods, correlated values: the menu mechanism leaves the
# high type a unit of utility and still beats exact disclosure
TWO_GOODS_CORRELATED = DiscreteInstance.build(
    2, [[("1/2", ["3", "4"]), ("1/2", ["4", "9"])]]
)

# one buyer, two goods, independent values on a 2x2 product support
TWO_GOODS_INDEPENDENT = DiscreteInstance.build(
    2,
    [
        [
            ("3/50", ["56", "38"]),
            ("9/100", ["56", "69"]),
            ("17/50", ["91", "38"]),
            ("51/100", ["91", "69"]),
        ]
    ],
)

# one good, two iid buyers with values 1, 2, 3
TWO_BUYERS_123 = DiscreteInstance.build(
    1,
    [
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
    ],
)


def one_good_corpus(seed: int, count: int) -> list[DiscreteInstance]:
    """One-good instances with 1-3 buyers of 1-5 types, values out of order,
    zeros and one-type buyers."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
        if math.prod(sizes) > 30:
            continue
        buyers = []
        for n in sizes:
            weights = [rng.randint(1, 4) for _ in range(n)]
            values = [F(v, 2) for v in rng.sample(range(0, 16), n)]
            buyers.append(
                tuple(BuyerType(F(w, sum(weights)), (v,)) for w, v in zip(weights, values))
            )
        out.append(DiscreteInstance(1, tuple(buyers)))
    return out


def add_every_ic_row(system, inst: DiscreteInstance) -> None:
    """Add the IC rows for every pair not adjacent in (value, index) order.

    With the rows the build keeps for adjacent pairs, the LP then holds
    every interim IC pair.
    """
    jts = joint_types(inst)
    slot = {jt: t for t, jt in enumerate(jts)}
    for j, prior in enumerate(inst.buyers):
        order = sorted(range(len(prior)), key=lambda i: (prior[i].values, i))
        for a, i in enumerate(order):
            v = prior[i].values[0]
            for b, i2 in enumerate(order):
                if abs(a - b) <= 1:
                    continue
                row = {}
                for t, jt in enumerate(jts):
                    if jt[j] != i:
                        continue
                    d = slot[jt[:j] + (i2,) + jt[j + 1:]]
                    w = joint_prob(inst, jt)
                    row[system.q_index(t, j, 0)] = w * v
                    row[system.q_index(d, j, 0)] = -w * v
                    row[system.r_index(t, j)] = -w
                    row[system.r_index(d, j)] = w
                system.lp.add_ge(row, 0)


def one_buyer_corpus(seed: int, count: int) -> list[DiscreteInstance]:
    """One buyer, one good, 1-6 types in shuffled value order: zeros,
    one-type buyers and (one instance in four) equally spaced, equally
    weighted values, where posted prices tie for revenue."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 6)
        if rng.random() < 0.25:
            base, step = rng.randint(0, 3), rng.randint(1, 3)
            values = [F(base + step * x) for x in range(n)]
            rng.shuffle(values)
            weights = [1] * n
        else:
            values = [F(v, 2) for v in rng.sample(range(0, 16), n)]
            weights = [rng.randint(1, 4) for _ in range(n)]
        prior = tuple(BuyerType(F(w, sum(weights)), (v,)) for w, v in zip(weights, values))
        out.append(DiscreteInstance(1, (prior,)))
    return out


def add_every_supply_and_ir_row(system, inst: DiscreteInstance) -> None:
    """Add the supply and IR rows of every type of a one-buyer, one-good LP."""
    for t, btype in enumerate(inst.buyers[0]):
        q, r = system.q_index(t, 0, 0), system.r_index(t, 0)
        system.lp.add_le({q: 1}, 1)
        system.lp.add_ge({q: btype.values[0], r: -1}, 0)


def rand_instance(rng: random.Random) -> DiscreteInstance:
    goods = rng.randint(1, 2)
    buyers = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(1, 3)
        weights = [rng.randint(1, 5) for _ in range(n)]
        total = sum(weights)
        types = []
        seen = set()
        for w in weights:
            while True:
                vals = tuple(F(rng.randint(0, 12), rng.choice([1, 2, 4])) for _ in range(goods))
                if vals not in seen:
                    seen.add(vals)
                    break
            types.append(BuyerType(F(w, total), vals))
        buyers.append(tuple(types))
    return DiscreteInstance(goods, tuple(buyers))


class TestBuildCounts:
    def test_one_buyer_two_types_one_good(self):
        sys = build_lp(DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/2", ["2"])]]))
        assert sys.n_q_vars == 2
        assert sys.n_r_vars == 2
        assert sys.counts == {"supply": 2, "ir": 2, "ic": 2}

    def test_two_buyers_three_types(self):
        sys = build_lp(TWO_BUYERS_123)
        assert len(sys.joint_types) == 9
        assert sys.n_q_vars == 18
        assert sys.n_r_vars == 18

    def test_one_buyer_two_goods(self):
        sys = build_lp(TWO_GOODS_CORRELATED)
        assert sys.n_q_vars == 4
        assert sys.n_r_vars == 2

    def test_one_good_keeps_adjacent_ic_rows(self):
        sys = build_lp(uniform_grid_instance(20))
        assert sys.counts["ic"] == 76
        assert sys.lp.n_constraints == 1276

    def test_several_goods_keep_every_ic_pair(self):
        assert build_lp(MENU_FOUR_TYPES).counts == {"supply": 8, "ir": 4, "ic": 12}
        assert build_lp(TWO_GOODS_CORRELATED).counts == {"supply": 4, "ir": 2, "ic": 2}

    def test_counts_add_up_to_the_rows_built(self):
        for inst in (uniform_grid_instance(6, 3), AUCTION_123, MENU_FOUR_TYPES,
                     *one_good_corpus(5, 10)):
            sys = build_lp(inst)
            assert sum(sys.counts.values()) == sys.lp.n_constraints

    def test_variable_budget(self, monkeypatch):
        monkeypatch.setattr(lpmech, "VARIABLE_BUDGET", 36)
        assert build_lp(TWO_BUYERS_123).lp.n_vars == 36
        monkeypatch.setattr(lpmech, "VARIABLE_BUDGET", 35)
        with pytest.raises(GuardExceeded, match="needs 36 LP variables, over the budget of 35"):
            build_lp(TWO_BUYERS_123)

    def test_grid_size_must_be_a_positive_integer(self):
        for n, buyers in ((0, 2), (True, 2), ("3", 2), (3, True), (3, 0)):
            with pytest.raises(ValidationError):
                uniform_grid_instance(n, buyers)


class TestPivotSequence:
    """Cumulative pivots after each lexicographic stage, pinned so that a
    change to the pivot arithmetic can show it keeps the same pivots."""

    @pytest.mark.parametrize(
        "inst, pivots",
        [
            (uniform_grid_instance(5), (86, 86)),
            (uniform_grid_instance(4, 3), (222, 222)),
            (AUCTION_123, (41, 44)),
            (MENU_FOUR_TYPES, (13, 13)),
            (reduce_to_buyer_opt(PartitionProblem((2, 2, 4))).instance, (14, 14)),
        ],
        ids=["grid-5", "grid-4-three-buyers", "auction-123", "menu-four-types",
             "reduction-2-2-4"],
    )
    def test_stage_pivots(self, inst, pivots):
        system = build_lp(inst)
        stages = system.lp.solve_lexicographic(
            [system.revenue_objective, system.surplus_objective]
        )
        assert tuple(stage.pivots for stage in stages) == pivots

    def test_grid_five_rows(self):
        assert build_lp(uniform_grid_instance(5)).lp.n_constraints == 91


def fraction_rows_lp(system) -> ExactSimplex:
    """The mechanism LP's rows built in Fraction and fed through add_le/add_ge.

    The reference for ``LpSystem``'s int build: the same supply, IR and IC
    rows, in the same order and key order, as rationals.
    """
    inst = system.instance
    jts = system.joint_types
    m, ell = inst.goods, inst.n_buyers
    q, r = system.q_index, system.r_index
    probs = [joint_prob(inst, jt) for jt in jts]
    lp = ExactSimplex(system.lp.n_vars)
    for t in range(len(jts)):
        for k in range(m):
            lp.add_le({q(t, j, k): 1 for j in range(ell)}, 1)
    for t, jt in enumerate(jts):
        for j in range(ell):
            row = {q(t, j, k): v for k, v in enumerate(inst.buyers[j][jt[j]].values)}
            row[r(t, j)] = F(-1)
            lp.add_ge(row, 0)
    for j in range(ell):
        prior = inst.buyers[j]
        nj = len(prior)
        order = sorted(range(nj), key=lambda i: prior[i].values)
        rank = {i: pos for pos, i in enumerate(order)}
        slots = [[t for t, jt in enumerate(jts) if jt[j] == i] for i in range(nj)]
        for i in range(nj):
            for i2 in range(nj):
                if i2 == i or (m == 1 and abs(rank[i] - rank[i2]) != 1):
                    continue
                row = {}
                for t, d in zip(slots[i], slots[i2]):
                    w = probs[t]
                    for k, v in enumerate(prior[i].values):
                        row[q(t, j, k)] = w * v
                        row[q(d, j, k)] = -w * v
                    row[r(t, j)] = -w
                    row[r(d, j)] = w
                lp.add_ge(row, 0)
    return lp


def coprime_instance(rng: random.Random) -> DiscreteInstance:
    """1-3 buyers, 1-2 goods, 1-4 types; values include 0, and probabilities
    are differences of cut points over coprime denominators."""
    goods = rng.randint(1, 2)
    buyers = []
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1, 4)
        cuts = set()
        while len(cuts) < n - 1:
            d = rng.choice((2, 3, 5, 7, 11, 13))
            cuts.add(F(rng.randint(1, d - 1), d))
        points = [F(0), *sorted(cuts), F(1)]
        vectors = set()
        while len(vectors) < n:
            vectors.add(
                tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3, 5))) for _ in range(goods))
            )
        buyers.append(
            tuple(
                BuyerType(b - a, values)
                for a, b, values in zip(points, points[1:], sorted(vectors))
            )
        )
    return DiscreteInstance(goods, tuple(buyers))


class TestIntegerRows:
    """``LpSystem`` builds its rows as ints; after ``_build`` the tableau must
    equal the one the Fraction rows give through add_le/add_ge, entry for
    entry and in key order, so every pivot is the same."""

    NAMED = [uniform_grid_instance(5), uniform_grid_instance(4, 3), AUCTION_123, MENU_FOUR_TYPES]

    def corpus(self) -> list:
        rng = random.Random(1806)
        return self.NAMED + [coprime_instance(rng) for _ in range(80)]

    def test_same_tableau(self):
        zeros = 0
        for inst in self.corpus():
            system = build_lp(inst)
            reference = fraction_rows_lp(system)
            system.lp._build()
            reference._build()
            assert [list(row.items()) for row in system.lp._rows] == [
                list(row.items()) for row in reference._rows
            ]
            assert system.lp._rhs == reference._rhs
            assert system.lp._den == reference._den
            zeros += any(v == 0 for prior in inst.buyers for t in prior for v in t.values)
        assert zeros > 20

    def test_same_objectives(self):
        # the objectives take each joint type's weight from the int weights;
        # they must equal the joint_prob build entry for entry, in key order
        for inst in self.corpus():
            system = build_lp(inst)
            revenue, surplus = {}, {}
            for t, jt in enumerate(system.joint_types):
                w = joint_prob(inst, jt)
                for j in range(inst.n_buyers):
                    r = system.r_index(t, j)
                    revenue[r] = w
                    surplus[r] = -w
                    for k, v in enumerate(inst.buyers[j][jt[j]].values):
                        surplus[system.q_index(t, j, k)] = w * v
            assert list(system.revenue_objective.items()) == list(revenue.items())
            assert list(system.surplus_objective.items()) == list(surplus.items())
            assert all(
                type(v) is F
                for objective in (system.revenue_objective, system.surplus_objective)
                for v in objective.values()
            )


class TestSingleBuyerMenus:
    def test_correlated_two_goods_menu(self):
        sol = solve_instance(TWO_GOODS_CORRELATED)
        assert sol.revenue == F(15, 2)
        assert sol.buyer_surplus == F(1, 2)
        assert sol.mechanism.interim_utilities() == ((F(0), F(1)),)
        menu = posted_menu_view(sol)
        assert menu.splitlines() == [
            "good 1: price 3",
            "good 1 + good 2: price 12",
        ]

    def test_one_type_is_fully_extracted(self):
        inst = DiscreteInstance.build(1, [[("1", ["5"])]])
        sol = solve_instance(inst)
        assert sol.revenue == 5
        assert sol.buyer_surplus == 0

    def test_independent_two_goods_randomized_menu(self):
        sol = solve_instance(TWO_GOODS_INDEPENDENT)
        assert sol.revenue == F(30081, 250)
        assert sol.buyer_surplus == F(1581, 100)
        # only the highest type keeps any utility, worth exactly 31
        assert sol.mechanism.interim_utilities() == ((F(0), F(0), F(0), F(31)),)
        menu = posted_menu_view(sol)
        assert menu.splitlines() == [
            "good 1 w.p. 31/35 + good 2: price 593/5",
            "good 1 + good 2: price 129",
        ]

    def test_zero_mechanism_renders_empty_menu(self):
        inst = DiscreteInstance.build(1, [[("1", ["5"])]])
        sol = solve_instance(inst)
        zero = Mechanism(
            inst,
            tuple((tuple(F(0) for _ in range(inst.goods)),) for _ in sol.mechanism.q),
            tuple((F(0),) for _ in sol.mechanism.r),
        )
        from disclosure_games.lpmech import LPSolution

        fake = LPSolution(zero, F(0), F(0))
        assert posted_menu_view(fake) == "empty menu\n"


class TestTwoBuyerAuction:
    def test_values_match_hand_calculation(self):
        sol = solve_instance(TWO_BUYERS_123)
        assert sol.revenue == F(9, 4)
        assert sol.buyer_surplus == F(3, 8)
        assert sol.mechanism.unsold_probability(0) == F(1, 16)

    @pytest.mark.parametrize("k", [-1, True, 1, 1.5])
    def test_unsold_probability_rejects_a_malformed_good(self, k):
        # one good: -1 would read it from the end, True would pass as 1
        mech = solve_instance(TWO_BUYERS_123).mechanism
        with pytest.raises(ValidationError, match="good index"):
            mech.unsold_probability(k)

    def test_average_winning_prices(self):
        sol = solve_instance(TWO_BUYERS_123)
        mech = sol.mechanism
        inst = mech.instance
        jts = joint_types(inst)

        def average_price(want_value, exclude_value=None):
            paid = F(0)
            won = F(0)
            for t, jt in enumerate(jts):
                vals = [inst.buyers[j][jt[j]].values[0] for j in range(2)]
                if exclude_value is not None and exclude_value in vals:
                    continue
                from disclosure_games.lpmech import joint_prob

                w = joint_prob(inst, jt)
                for j in range(2):
                    if vals[j] == want_value:
                        paid += w * mech.r[t][j]
                        won += w * mech.q[t][j][0]
            return paid / won

        assert average_price(F(3)) == F(5, 2)
        assert average_price(F(2), exclude_value=F(3)) == F(2)

    def test_table_view_lists_every_joint_type(self):
        sol = solve_instance(TWO_BUYERS_123)
        lines = posted_menu_view(sol).splitlines()
        assert len(lines) == 10  # header + 9 joint types
        assert lines[0].startswith("joint type")


class TestVerification:
    def test_accepts_solver_output(self):
        for inst in (TWO_GOODS_CORRELATED, TWO_GOODS_INDEPENDENT, TWO_BUYERS_123):
            sol = solve_instance(inst)
            report = verify_mechanism(inst, sol.mechanism)
            assert report.valid
            assert report.revenue == sol.revenue
            assert report.buyer_surplus == sol.buyer_surplus

    def test_zero_mechanism_is_valid(self):
        inst = TWO_BUYERS_123
        nt = len(joint_types(inst))
        zero = Mechanism(
            inst,
            tuple(((F(0),), (F(0),)) for _ in range(nt)),
            tuple((F(0), F(0)) for _ in range(nt)),
        )
        report = verify_mechanism(inst, zero)
        assert report.valid
        assert report.revenue == 0

    def test_corrupted_payment_fails_ir(self):
        sol = solve_instance(TWO_GOODS_CORRELATED)
        mech = sol.mechanism
        r = [list(row) for row in mech.r]
        r[0][0] += 1
        bad = Mechanism(mech.instance, mech.q, tuple(tuple(row) for row in r))
        report = verify_mechanism(mech.instance, bad)
        assert not report.valid
        assert "IR" in report.failure

    def test_discounted_price_fails_ic(self):
        # selling the bundle cheaper to type 2 alone makes type 1 want to lie
        inst = TWO_GOODS_CORRELATED
        q = (((F(1), F(0)),), ((F(1), F(1)),))
        r = ((F(3),), (F(5),))
        report = verify_mechanism(inst, Mechanism(inst, q, r))
        assert not report.valid
        assert "IC" in report.failure

    def test_checks_against_the_given_instance(self):
        # solved for values {5, 6}; against values {1, 2} the price 5 breaks IR
        solved = DiscreteInstance.build(1, [[("1/2", ["5"]), ("1/2", ["6"])]])
        other = DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/2", ["2"])]])
        sol = solve_instance(solved)
        assert sol.revenue == 5
        report = verify_mechanism(other, sol.mechanism)
        assert not report.valid
        assert "IR" in report.failure

    def test_dimension_mismatch_raises(self):
        sol = solve_instance(TWO_GOODS_CORRELATED)
        with pytest.raises(ValidationError):
            verify_mechanism(TWO_BUYERS_123, sol.mechanism)

    def test_random_instances_self_consistent(self):
        rng = random.Random(20240411)
        for _ in range(100):
            inst = rand_instance(rng)
            sol = solve_instance(inst)
            report = verify_mechanism(inst, sol.mechanism)
            assert report.valid, report.failure
            assert report.revenue == sol.revenue
            assert report.buyer_surplus == sol.buyer_surplus


class TestSmallestViolations:
    """Each of the verifier's checks rejects a violation of 1/1000 made on
    ``AUCTION_123``'s optimal mechanism, and names the check it failed.

    Joint type 0 is (0, 0), where nothing is sold; 4 is (1, 1), where buyer
    1 pays its value 2 for the good; 8 is (2, 2), where the good is split
    5/6 to buyer 1 and 1/6 to buyer 2.
    """

    @staticmethod
    def perturbed(t, q=None, r=None):
        mech = solve_instance(AUCTION_123).mechanism
        qs = [list(row) for row in mech.q]
        rs = [list(row) for row in mech.r]
        if q is not None:
            qs[t][0] = (q(qs[t][0][0]),)
        if r is not None:
            rs[t][0] = r(rs[t][0])
        return Mechanism(AUCTION_123, tuple(map(tuple, qs)), tuple(map(tuple, rs)))

    def test_the_optimum_is_valid(self):
        assert verify_mechanism(AUCTION_123, self.perturbed(0)).valid

    @pytest.mark.parametrize(
        "t, q, r, failure",
        [
            (0, None, lambda r: F(-1, 1000),
             "negative payment at joint type (0, 0), buyer 1"),
            (0, lambda q: F(-1, 1000), None,
             "negative allocation at joint type (0, 0), buyer 1, good 1"),
            # utility 2 * 1 - (2 + 1/1000) = -1/1000
            (4, None, lambda r: r + F(1, 1000),
             "IR violated at joint type (1, 1) for buyer 1"),
            # 5/6 + 1/1000 + 1/6 = 1 + 1/1000
            (8, lambda q: q + F(1, 1000), None,
             "good 1 oversold at joint type (2, 2)"),
            # Type 3 (value 3, probability 1/2) is indifferent to reporting
            # type 2 at the optimum.  Cutting buyer 1's payment at (1, 1),
            # of weight 1/16, by 1/125 cuts report 2's interim payment by
            # (1/16) / (1/4) * 1/125, and type 3 gains 1/2 of that: 1/1000.
            (4, None, lambda r: r - F(1, 125),
             "IC violated for buyer 1: type 3 gains by reporting 2"),
        ],
    )
    def test_rejects_a_violation_of_one_thousandth(self, t, q, r, failure):
        report = verify_mechanism(AUCTION_123, self.perturbed(t, q, r))
        assert not report.valid
        assert report.failure == failure


class TestAdjacentIcRows:
    """One good: the LP with adjacent-pair IC rows has the optima of the LP
    with every pair, and its mechanism passes the all-pairs verifier."""

    def test_corpus_covers_the_cases(self):
        corpus = one_good_corpus(20261018, 80)
        priors = [prior for inst in corpus for prior in inst.buyers]
        values = [[t.values[0] for t in prior] for prior in priors]
        assert any(v != sorted(v) for v in values)
        assert any(0 in v for v in values)
        assert any(len(v) == 1 for v in values)
        assert any(inst.n_buyers == 3 for inst in corpus)

    def test_same_optima_as_every_pair(self):
        for inst in one_good_corpus(20261018, 80):
            stages = []
            for full in (False, True):
                system = build_lp(inst)
                if full:
                    add_every_ic_row(system, inst)
                objectives = [system.revenue_objective, system.surplus_objective]
                stages.append([s.objective for s in system.lp.solve_lexicographic(objectives)])
            assert stages[0] == stages[1], inst
            sol = solve_instance(inst)
            report = verify_mechanism(inst, sol.mechanism)
            assert report.valid, (report.failure, inst)
            assert [report.revenue, report.buyer_surplus] == stages[1]


def reference_ic_violations(inst: DiscreteInstance, mech: Mechanism):
    """Yield each (buyer, type, report) whose deviation gains, in the order
    the per-joint-type check finds them: buyer, then type, then report.

    The joint-type deviation loop, kept as an oracle for the interim-sum
    check: every deviant utility is summed from the joint types themselves.
    """
    jts = list(itertools.product(*(range(len(prior)) for prior in inst.buyers)))
    slot = {jt: t for t, jt in enumerate(jts)}

    def weight(jt):
        w = F(1)
        for j, i in enumerate(jt):
            w *= inst.buyers[j][i].prob
        return w

    def utility(values, t, j):
        return sum((v * qq for v, qq in zip(values, mech.q[t][j])), F(0)) - mech.r[t][j]

    for j, prior in enumerate(inst.buyers):
        interim = [F(0)] * len(prior)
        gains = {}
        for t, jt in enumerate(jts):
            w = weight(jt)
            i = jt[j]
            interim[i] += w * utility(prior[i].values, t, j)
            for i2 in range(len(prior)):
                if i2 != i:
                    d = slot[jt[:j] + (i2,) + jt[j + 1:]]
                    gains[(i, i2)] = gains.get((i, i2), F(0)) + w * utility(prior[i].values, d, j)
        for (i, i2), dev in gains.items():
            if dev > interim[i]:
                yield j, i, i2


def reference_verify(inst: DiscreteInstance, mech: Mechanism) -> tuple:
    """(valid, failure, revenue, buyer_surplus) by the per-joint-type check."""
    jts = list(itertools.product(*(range(len(prior)) for prior in inst.buyers)))
    revenue = surplus = F(0)
    for t, jt in enumerate(jts):
        for j in range(inst.n_buyers):
            if mech.r[t][j] < 0:
                return False, f"negative payment at joint type {jt}, buyer {j + 1}", None, None
            for k in range(inst.goods):
                if mech.q[t][j][k] < 0:
                    return (
                        False,
                        f"negative allocation at joint type {jt}, buyer {j + 1}, good {k + 1}",
                        None,
                        None,
                    )
        for k in range(inst.goods):
            if sum((mech.q[t][j][k] for j in range(inst.n_buyers)), F(0)) > 1:
                return False, f"good {k + 1} oversold at joint type {jt}", None, None
        w = F(1)
        u = []
        for j, i in enumerate(jt):
            w *= inst.buyers[j][i].prob
            values = inst.buyers[j][i].values
            u.append(sum((v * qq for v, qq in zip(values, mech.q[t][j])), F(0)) - mech.r[t][j])
        for j in range(inst.n_buyers):
            if u[j] < 0:
                return False, f"IR violated at joint type {jt} for buyer {j + 1}", None, None
        revenue += w * sum(mech.r[t], F(0))
        surplus += w * sum(u, F(0))
    for j, i, i2 in reference_ic_violations(inst, mech):
        return (
            False,
            f"IC violated for buyer {j + 1}: type {i + 1} gains by reporting {i2 + 1}",
            None,
            None,
        )
    return True, None, revenue, surplus


def value_order_adjacent(prior, i: int, i2: int) -> bool:
    """Whether types i and i2 are neighbours in (values, index) order."""
    order = sorted(range(len(prior)), key=lambda x: (prior[x].values, x))
    return abs(order.index(i) - order.index(i2)) == 1


def perturbed(inst: DiscreteInstance, mech: Mechanism, rng: random.Random) -> Mechanism:
    """The mechanism with one or two edits: one joint type's payment lowered,
    another's raised, or an allocation moved to another type of its buyer."""
    jts = joint_types(inst)
    q = [[list(qj) for qj in qt] for qt in mech.q]
    r = [list(rt) for rt in mech.r]
    for _ in range(rng.randint(1, 2)):
        t = rng.randrange(len(jts))
        j = rng.randrange(inst.n_buyers)
        kind = rng.choice(("lower", "raise", "move"))
        if kind == "lower":
            r[t][j] = r[t][j] * rng.choice((F(0), F(1, 2), F(3, 4))) - rng.choice((0, 0, 0, 1))
        elif kind == "raise":
            r[t][j] += rng.choice((F(1, 4), F(1), F(2)))
        elif inst.n_types(j) > 1:
            i2 = rng.choice([i for i in range(inst.n_types(j)) if i != jts[t][j]])
            d = jts.index(jts[t][:j] + (i2,) + jts[t][j + 1:])
            k = rng.randrange(inst.goods)
            moved = q[t][j][k] * rng.choice((F(1), F(1, 2)))
            q[t][j][k] -= moved
            q[d][j][k] += moved
    return Mechanism(
        inst,
        tuple(tuple(tuple(qj) for qj in qt) for qt in q),
        tuple(tuple(rt) for rt in r),
    )


def interim_ic_corpus(seed: int) -> list[tuple[DiscreteInstance, Mechanism]]:
    """Solver outputs and seeded perturbations of them: multi-buyer one-good,
    one-buyer multi-good and two-buyer two-good instances, plus a one-buyer,
    two-good menu whose only IC violation is between types two apart in
    value order."""
    rng = random.Random(seed)
    instances = [inst for inst in one_good_corpus(seed, 40) if inst.n_buyers > 1]
    while len(instances) < 80:
        goods, n_buyers = rng.choice(((2, 1), (3, 1), (2, 2)))
        buyers = []
        for _ in range(n_buyers):
            n = rng.randint(2, 4 if n_buyers == 1 else 3)
            weights = [rng.randint(1, 4) for _ in range(n)]
            vals = set()
            while len(vals) < n:
                vals.add(tuple(F(rng.randint(0, 8), rng.choice((1, 2))) for _ in range(goods)))
            buyers.append(
                tuple(BuyerType(F(w, sum(weights)), v) for w, v in zip(weights, sorted(vals)))
            )
        instances.append(DiscreteInstance(goods, tuple(buyers)))
    corpus = []
    for inst in instances:
        mech = solve_instance(inst).mechanism
        corpus.append((inst, mech))
        corpus.extend((inst, perturbed(inst, mech, rng)) for _ in range(6))
    # types in value order (0,4) < (1,0) < (2,0): the first gains only by
    # reporting the third, which sells the bundle for 1
    menu = DiscreteInstance.build(
        2, [[("1/3", ["0", "4"]), ("1/3", ["1", "0"]), ("1/3", ["2", "0"])]]
    )
    q = (((F(0), F(0)),), ((F(1), F(0)),), ((F(1), F(1)),))
    r = ((F(0),), (F(1),), (F(1),))
    corpus.append((menu, Mechanism(menu, q, r)))
    return corpus


class TestInterimIcCheck:
    """``verify_mechanism``'s interim-sum IC check gives the report of the
    per-joint-type deviation loop on every case."""

    @pytest.fixture(scope="class")
    def corpus(self):
        return interim_ic_corpus(20261018)

    def test_same_report_as_the_joint_type_loop(self, corpus):
        for inst, mech in corpus:
            report = verify_mechanism(inst, mech)
            got = (report.valid, report.failure, report.revenue, report.buyer_surplus)
            assert got == reference_verify(inst, mech), inst

    def test_corpus_covers_the_cases(self, corpus):
        failures = [reference_verify(inst, mech)[1] or "" for inst, mech in corpus]
        assert failures.count("") >= 80
        for kind in ("IR violated", "IC violated", "oversold"):
            assert any(kind in f for f in failures), kind
        shapes = {(inst.n_buyers > 1, inst.goods > 1) for inst, _ in corpus}
        assert shapes == {(True, False), (False, True), (True, True)}
        far_only = [
            inst
            for (inst, mech), f in zip(corpus, failures)
            if f.startswith("IC violated")
            and not any(
                value_order_adjacent(inst.buyers[j], i, i2)
                for j, i, i2 in reference_ic_violations(inst, mech)
            )
        ]
        assert far_only


def full_lp_solution(inst: DiscreteInstance) -> tuple:
    """(revenue, surplus, q, r) of the one-buyer, one-good LP with every row."""
    system = build_lp(inst)
    add_every_supply_and_ir_row(system, inst)
    stages = system.lp.solve_lexicographic(
        [system.revenue_objective, system.surplus_objective]
    )
    mech = system.extract_mechanism(stages[-1].values)
    return stages[0].objective, stages[1].objective, mech.q, mech.r


@st.composite
def one_buyer_instances(draw) -> DiscreteInstance:
    """One buyer, one good, values over denominators 1, 2, 3 and 7 in any
    order, zeros included; half of them equally spaced and equally
    weighted, where posted prices tie for revenue."""
    n = draw(st.integers(1, 6))
    den = draw(st.sampled_from((1, 2, 3, 7)))
    if draw(st.booleans()):
        base, step = draw(st.integers(0, 3)), draw(st.integers(1, 3))
        values = draw(st.permutations([F(base + step * x, den) for x in range(n)]))
        weights = [1] * n
    else:
        values = draw(st.lists(
            st.builds(F, st.integers(0, 20), st.sampled_from((1, 2, 3, 7))),
            min_size=n, max_size=n, unique=True,
        ))
        weights = draw(st.one_of(
            st.just([1] * n), st.lists(st.integers(1, 5), min_size=n, max_size=n)
        ))
    total = sum(weights)
    prior = tuple(BuyerType(F(w, total), (v,)) for w, v in zip(weights, values))
    return DiscreteInstance(1, (prior,))


class TestPostedPriceShortcut:
    """One buyer, one good: ``solve_instance`` posts the best price without
    an LP.  The LP with a supply and an IR row at every type is the oracle:
    the same revenue, surplus, q and r, and the all-pairs verifier accepts."""

    @staticmethod
    def assert_matches_lp(inst: DiscreteInstance):
        sol = solve_instance(inst)
        mech = sol.mechanism
        assert (sol.revenue, sol.buyer_surplus, mech.q, mech.r) == full_lp_solution(inst), inst
        report = verify_mechanism(inst, mech)
        assert report.valid, (report.failure, inst)
        assert (report.revenue, report.buyer_surplus) == (sol.revenue, sol.buyer_surplus)
        return sol

    def test_corpus_covers_the_cases(self):
        corpus = one_buyer_corpus(20261018, 200)
        values = [[t.values[0] for t in inst.buyers[0]] for inst in corpus]
        assert any(v != sorted(v) for v in values)
        assert any(0 in v for v in values)
        assert any(len(v) == 1 for v in values)
        tied = 0
        for inst in corpus:
            prior = inst.buyers[0]
            revenues = [
                t.values[0] * sum(u.prob for u in prior if u.values[0] >= t.values[0])
                for t in prior
            ]
            tied += revenues.count(max(revenues)) > 1 and max(revenues) > 0
        assert tied > 5

    def test_seeded_corpus(self):
        for inst in one_buyer_corpus(20261018, 200):
            self.assert_matches_lp(inst)

    @settings(max_examples=200, deadline=None)
    @given(one_buyer_instances())
    def test_random_instances(self, inst):
        self.assert_matches_lp(inst)

    def test_lone_zero_type_is_not_sold(self):
        sol = self.assert_matches_lp(DiscreteInstance.build(1, [[("1", ["0"])]]))
        assert sol.mechanism.q == (((F(0),),),)
        assert sol.mechanism.r == ((F(0),),)

    def test_revenue_ties_go_to_the_lower_price(self):
        # prices 1 and 2 each earn 1 against two equally likely types
        sol = self.assert_matches_lp(
            DiscreteInstance.build(1, [[("1/2", ["2"]), ("1/2", ["1"])]])
        )
        assert (sol.revenue, sol.buyer_surplus) == (F(1), F(1, 2))
        assert sol.mechanism.r == ((F(1),),) * 2

    def test_every_message_of_the_reductions(self):
        for pp in sweep_size_lists(3, 4):
            inst = reduce_to_buyer_opt(pp).instance
            for size in range(1, inst.n + 1):
                for msg in itertools.combinations(range(inst.n), size):
                    cond = condition_on_messages(inst, [msg])
                    sol = self.assert_matches_lp(cond.instance)
                    utility, _ = buyer_utility(inst, msg)
                    assert utility == cond.masses[0] * sol.buyer_surplus


def reference_posted_price(pairs) -> tuple:
    """The Fraction pass ``best_posted_price`` replaced: every candidate's
    (revenue, utility, price) in Fraction, and the largest."""
    candidates = []
    mass = weighted = F(0)
    for value, weight in pairs:
        mass += weight
        weighted += weight * value
        candidates.append((value * mass, weighted - value * mass, value))
    return max(candidates)


def posted_price_corpus(seed: int, count: int) -> list[list[tuple[Fraction, Fraction]]]:
    """(value, weight) lists in decreasing value order, weights unnormalised.

    Half the lists take values over 1, 2, 4 and weights over 3, 5, 9, so the
    two lcms are coprime; the rest share denominators 2, 3, 6.  About a third
    end in a value-0 type, and about a third weight their last positive type
    so that its price ties the best earlier price for revenue.
    """
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        coprime = rng.random() < 0.5
        vdens, wdens = ((1, 2, 4), (3, 5, 9)) if coprime else ((2, 3, 6), (2, 3, 6))
        n = rng.randint(1, 7)
        values = sorted({F(rng.randint(1, 30), rng.choice(vdens)) for _ in range(n)}, reverse=True)
        weights = [F(rng.randint(1, 6), rng.choice(wdens)) for _ in values]
        if len(values) > 1 and rng.random() < 0.35:
            revenues = [v * sum(weights[: k + 1]) for k, v in enumerate(values[:-1])]
            best = max(revenues)
            tie = best / values[-1] - sum(weights[:-1])
            if tie > 0:
                weights[-1] = tie
        if rng.random() < 0.35:
            values.append(F(0))
            weights.append(F(rng.randint(1, 6), rng.choice(wdens)))
        corpus.append(list(zip(values, weights)))
    return corpus


class TestPostedPricePass:
    """``best_posted_price`` on each corpus list as int numerators, the values
    over their lcm V and the weights over theirs, W, returns ints that give
    the Fraction reference's (revenue, utility, price) over V W, V W and V."""

    CORPUS = posted_price_corpus(20261018, 400)

    def test_corpus_covers_the_cases(self):
        zero = coprime = tied = 0
        for pairs in self.CORPUS:
            zero += any(v == 0 for v, _ in pairs)
            v_scale = math.lcm(*(v.denominator for v, _ in pairs))
            w_scale = math.lcm(*(w.denominator for _, w in pairs))
            coprime += v_scale > 1 and w_scale > 1 and math.gcd(v_scale, w_scale) == 1
            mass = F(0)
            revenues = []
            for v, w in pairs:
                mass += w
                revenues.append(v * mass)
            tied += max(revenues) > 0 and revenues.count(max(revenues)) > 1
        assert zero > 50 and coprime > 100 and tied > 50

    def test_matches_the_fraction_reference(self):
        for pairs in self.CORPUS:
            v_scale = math.lcm(*(v.denominator for v, _ in pairs))
            w_scale = math.lcm(*(w.denominator for _, w in pairs))
            nums = [(int(v * v_scale), int(w * w_scale)) for v, w in pairs]
            got = lpmech.best_posted_price(iter(nums))
            assert all(type(x) is int for x in got)
            revenue, utility, price = got
            scale = v_scale * w_scale
            assert (
                Fraction(revenue, scale), Fraction(utility, scale), Fraction(price, v_scale)
            ) == reference_posted_price(pairs), pairs

    def test_no_pairs_rejected(self):
        with pytest.raises(ValidationError, match="at least one"):
            lpmech.best_posted_price([])


class TestRouting:
    """Only one buyer with one good skips the LP."""

    def test_one_buyer_one_good_builds_no_lp(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built an LP")

        monkeypatch.setattr(lpmech, "build_lp", refuse)
        sol = solve_instance(DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/2", ["3"])]]))
        assert (sol.revenue, sol.buyer_surplus) == (F(3, 2), F(0))

    def test_other_instances_build_one_lp(self, monkeypatch):
        built = []

        def counting(inst, *args):
            built.append(inst)
            return build_lp(inst, *args)

        monkeypatch.setattr(lpmech, "build_lp", counting)
        for inst in (TWO_BUYERS_123, MENU_FOUR_TYPES, TWO_GOODS_CORRELATED):
            solve_instance(inst)
        assert built == [TWO_BUYERS_123, MENU_FOUR_TYPES, TWO_GOODS_CORRELATED]

    def test_variable_budget_guards_the_lp(self, monkeypatch):
        monkeypatch.setattr(lpmech, "VARIABLE_BUDGET", 10)
        with pytest.raises(GuardExceeded):
            solve_instance(TWO_BUYERS_123)


@st.composite
def small_instances(draw) -> DiscreteInstance:
    """1-2 buyers, 1-2 goods, 1-3 types; values 0..12 over denominators 1, 2
    and 3, probabilities from weights 1..4."""
    goods = draw(st.integers(1, 2))
    value = st.builds(F, st.integers(0, 12), st.sampled_from((1, 2, 3)))
    buyers = []
    for _ in range(draw(st.integers(1, 2))):
        vectors = draw(
            st.lists(st.tuples(*[value] * goods), min_size=1, max_size=3, unique=True)
        )
        weights = draw(st.lists(st.integers(1, 4), min_size=len(vectors), max_size=len(vectors)))
        total = sum(weights)
        buyers.append(tuple(BuyerType(F(w, total), v) for v, w in zip(vectors, weights)))
    return DiscreteInstance(goods, tuple(buyers))


class TestRelabelling:
    """Renaming one buyer's types, or swapping the buyers, maps the LP onto
    itself, so the revenue optimum and the best surplus on it stay."""

    @settings(max_examples=40, deadline=None)
    @given(small_instances(), st.data())
    def test_relabelling_keeps_revenue_and_surplus(self, inst, data):
        j = data.draw(st.integers(0, inst.n_buyers - 1), label="buyer")
        order = data.draw(st.permutations(range(inst.n_types(j))), label="type order")
        permuted = list(inst.buyers)
        permuted[j] = tuple(inst.buyers[j][i] for i in order)
        base = solve_instance(inst)
        for variant in (
            inst,
            DiscreteInstance(inst.goods, tuple(permuted)),
            DiscreteInstance(inst.goods, inst.buyers[::-1]),
        ):
            sol = solve_instance(variant)
            report = verify_mechanism(variant, sol.mechanism)
            assert report.valid, report.failure
            assert (report.revenue, report.buyer_surplus) == (sol.revenue, sol.buyer_surplus)
            assert (sol.revenue, sol.buyer_surplus) == (base.revenue, base.buyer_surplus)


class TestInvariants:
    def test_scale_invariance(self):
        rng = random.Random(77)
        lam = F(7, 3)
        for _ in range(25):
            inst = rand_instance(rng)
            scaled = DiscreteInstance(
                inst.goods,
                tuple(
                    tuple(BuyerType(t.prob, tuple(lam * v for v in t.values)) for t in prior)
                    for prior in inst.buyers
                ),
            )
            base = solve_instance(inst)
            big = solve_instance(scaled)
            assert big.revenue == lam * base.revenue
            assert big.buyer_surplus == lam * base.buyer_surplus

    def test_single_buyer_single_good_matches_best_posted_price(self):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 5)
            weights = [rng.randint(1, 4) for _ in range(n)]
            total = sum(weights)
            values = rng.sample(range(1, 40), n)
            inst = DiscreteInstance(
                1,
                (
                    tuple(
                        BuyerType(F(w, total), (F(v),))
                        for w, v in zip(weights, sorted(values))
                    ),
                ),
            )
            sol = solve_instance(inst)
            best = max(
                F(v) * sum(t.prob for t in inst.buyers[0] if t.values[0] >= v)
                for t2 in inst.buyers[0]
                for v in [t2.values[0]]
            )
            assert sol.revenue == best

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 40), st.integers(1, 5)),
            min_size=1,
            max_size=6,
            unique_by=lambda vw: vw[0],
        )
    )
    def test_one_buyer_one_good_posts_the_lowest_best_price(self, types):
        # types are (2 * value, weight) in any order; the LP's revenue is the
        # best posted price's, its surplus the lowest such price's utility
        total = sum(w for _, w in types)
        prior = tuple(BuyerType(F(w, total), (F(v, 2),)) for v, w in types)
        inst = DiscreteInstance(1, (prior,))
        best = None
        for price in sorted(t.values[0] for t in prior):
            buyers = [t for t in prior if t.values[0] >= price]
            revenue = price * sum(t.prob for t in buyers)
            utility = sum(t.prob * (t.values[0] - price) for t in buyers)
            if best is None or revenue > best[0]:
                best = (revenue, utility)
        sol = solve_instance(inst)
        assert (sol.revenue, sol.buyer_surplus) == best
        report = verify_mechanism(inst, sol.mechanism)
        assert report.valid, report.failure
        assert (report.revenue, report.buyer_surplus) == best

    def test_grid_allocation_matches_closed_form_winner(self):
        n = 8
        inst = uniform_grid_instance(n)
        sol = solve_instance(inst)
        mech = sol.mechanism
        seg = segment(0, 1)
        agree = 0
        for t, jt in enumerate(joint_types(inst)):
            va = inst.buyers[0][jt[0]].values[0]
            vb = inst.buyers[1][jt[1]].values[0]
            qa, qb = mech.q[t][0][0], mech.q[t][1][0]
            if qa > qb and qa > 0:
                lp_winner = "A"
            elif qb > qa and qb > 0:
                lp_winner = "B"
            else:
                lp_winner = None if qa == 0 else "split"
            closed = myerson_outcome(seg, seg, va, vb).winner
            agree += lp_winner == closed
        assert agree >= F(95, 100) * n * n


class TestAgainstScipy:
    def test_revenue_matches_floating_point_solver(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = random.Random(20261018)
        for _ in range(30):
            inst = rand_instance(rng)
            system = build_lp(inst)
            n = system.lp.n_vars
            a_ub, b_ub = [], []
            # rows are stored in <= form as int numerators over a denominator
            for row, rhs, den in system.lp._constraints:
                a_ub.append([float(F(row.get(j, 0), den)) for j in range(n)])
                b_ub.append(float(F(rhs, den)))
            c = [-float(system.revenue_objective.get(j, 0)) for j in range(n)]
            ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
            assert ref.status == 0
            assert abs(-ref.fun - float(solve_instance(inst).revenue)) < 1e-9


class TestExport:
    def test_csv_shape_and_values(self):
        sol = solve_instance(TWO_BUYERS_123)
        lines = mechanism_to_csv(sol.mechanism).splitlines()
        assert lines[0] == "joint_type,buyer,good,q,r"
        assert len(lines) == 1 + 9 * 2
        # joint type (3,3): both bid 3; winner pays 5/2
        rows = [ln for ln in lines if ln.startswith("3-3,")]
        assert len(rows) == 2
        total_q = sum(F(ln.split(",")[3]) for ln in rows)
        assert total_q == 1
