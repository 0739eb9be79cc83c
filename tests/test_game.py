import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclosure_games import game
from disclosure_games.acceptance import AUCTION_123, MENU_FOUR_TYPES
from disclosure_games.core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    ValidationError,
    condition_on_messages,
    enumerate_set_partitions,
)
from disclosure_games.game import (
    GameEvaluator,
    _allocation_flags,
    connected_partitions,
    evaluate_profile,
    rare_lows_regression,
    full_disclosure_profile,
    no_disclosure_profile,
    search_best,
    search_profiles,
    search_to_csv,
)
from disclosure_games.hardness import PartitionProblem, reduce_to_buyer_opt, sweep_size_lists
from disclosure_games.lpmech import joint_prob, joint_types, solve_instance, verify_mechanism

F = Fraction

TWO_BUYERS_123 = DiscreteInstance.build(
    1,
    [
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
    ],
)

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
                vals = tuple(F(rng.randint(0, 10), rng.choice([1, 2])) for _ in range(goods))
                if vals not in seen:
                    seen.add(vals)
                    break
            types.append(BuyerType(F(w, total), vals))
        buyers.append(tuple(types))
    return DiscreteInstance(goods, tuple(buyers))


class TestEvaluateProfile:
    def test_two_buyer_no_disclosure(self):
        outcome = evaluate_profile(TWO_BUYERS_123, no_disclosure_profile(TWO_BUYERS_123))
        assert outcome.expected_revenue == F(9, 4)
        assert outcome.total_surplus == F(3, 8)
        # the solver resolves the both-bid-3 tie toward buyer 1, so the
        # split is asymmetric even though the total is pinned
        assert outcome.per_buyer_utility == (F(1, 4), F(1, 8))
        assert outcome.unsold_probability(0) == F(1, 16)
        assert not outcome.always_all_sold
        assert not outcome.efficient

    @pytest.mark.parametrize("k", [-1, True, 1, 1.5])
    def test_unsold_probability_rejects_a_malformed_good_before_solving(self, k, monkeypatch):
        inst = game.RARE_LOWS_INSTANCE
        outcome = evaluate_profile(inst, no_disclosure_profile(inst))

        def refuse(*args, **kwargs):
            raise AssertionError("a message was solved for a malformed good index")

        monkeypatch.setattr(game, "solve_instance", refuse)
        monkeypatch.setattr(game, "condition_on_messages", refuse)
        with pytest.raises(ValidationError, match="good index"):
            outcome.unsold_probability(k)
        assert "per_message" not in vars(outcome)

    def test_two_buyer_low_high_split(self):
        profile = (((0,), (1, 2)), ((0,), (1, 2)))
        outcome = evaluate_profile(TWO_BUYERS_123, profile)
        assert outcome.total_surplus == F(1, 8)
        # the upper subgame keeps surplus 2/9 of its conditional mass
        prob, sol = outcome.per_message[((1, 2), (1, 2))]
        assert prob == F(3, 4) * F(3, 4)
        assert sol.revenue == F(8, 3)
        assert sol.buyer_surplus == F(2, 9)
        # a buyer known to have value 1 hands the seller an outside option
        # that pushes the other message's price to 3 and surplus to zero
        prob_lo, sol_lo = outcome.per_message[((0,), (1, 2))]
        assert prob_lo == F(1, 4) * F(3, 4)
        assert sol_lo.buyer_surplus == 0

    def test_bid_three_price_rises_to_eleven_quarters(self):
        profile = (((0,), (1, 2)), ((0,), (1, 2)))
        outcome = evaluate_profile(TWO_BUYERS_123, profile)
        _, sol = outcome.per_message[((1, 2), (1, 2))]
        mech = sol.mechanism
        inst = mech.instance
        paid = F(0)
        won = F(0)
        for t, jt in enumerate(joint_types(inst)):
            w = joint_prob(inst, jt)
            for j in range(2):
                if inst.buyers[j][jt[j]].values[0] == 3:
                    paid += w * mech.r[t][j]
                    won += w * mech.q[t][j][0]
        assert paid / won == F(11, 4)

    def test_full_disclosure_extracts_everything(self):
        rng = random.Random(1412)
        for _ in range(20):
            inst = rand_instance(rng)
            outcome = evaluate_profile(inst, full_disclosure_profile(inst))
            assert outcome.total_surplus == 0

    def test_message_probabilities_sum_to_one(self):
        profile = (((0, 1), (2,)), ((0,), (1,), (2,)))
        outcome = evaluate_profile(TWO_BUYERS_123, profile)
        assert sum(p for p, _ in outcome.per_message.values()) == 1
        assert outcome.total_surplus == sum(outcome.per_buyer_utility)

    def test_profile_length_must_match_buyers(self):
        silent = no_disclosure_profile(TWO_BUYERS_123)
        for profile in (silent * 2, silent[:1], (), 5, None, dict(enumerate(silent))):
            with pytest.raises(ValidationError, match="one partition per buyer"):
                evaluate_profile(TWO_BUYERS_123, profile)

    @pytest.mark.parametrize(
        "profile, buyer",
        [
            ([5, 5], 1),
            ([[5], [5]], 1),
            ([[[0, 1, 2]], 5], 2),
            ([[[0, 1, 2]], [[0, 1], 2]], 2),
            ([[[0, 1, 2]], [{0, 1, 2}]], 2),
        ],
    )
    def test_partitions_and_blocks_must_be_sequences(self, profile, buyer):
        with pytest.raises(
            ValidationError, match=f"^buyer {buyer}: a partition must be a sequence of messages"
        ):
            evaluate_profile(TWO_BUYERS_123, profile)

    def test_merging_equivalent_blocks_changes_nothing(self):
        # buyer A never wins, so any refinement of A's messages induces the
        # same mechanism and the outcomes coincide
        inst = DiscreteInstance.build(
            1, [[("1/2", ["1"]), ("1/2", ["2"])], [("1", ["100"])]]
        )
        split = evaluate_profile(inst, (((0,), (1,)), ((0,),)))
        merged = evaluate_profile(inst, (((0, 1),), ((0,),)))
        assert split.expected_revenue == merged.expected_revenue == 100
        assert split.per_buyer_utility == merged.per_buyer_utility
        assert split.total_surplus == merged.total_surplus
        assert split.always_all_sold == merged.always_all_sold
        assert split.efficient == merged.efficient


class TestConnectedPartitions:
    def test_counts_are_powers_of_two(self):
        for n, inst in [
            (3, TWO_BUYERS_123),
            (4, TWO_GOODS_INDEPENDENT),
        ]:
            parts = connected_partitions(inst, 0)
            assert len(parts) == 2 ** (n - 1)
            assert len(set(parts)) == len(parts)

    def test_blocks_are_contiguous_in_value_order(self):
        # types listed out of value order on purpose
        inst = DiscreteInstance.build(
            1, [[("1/3", ["3"]), ("1/3", ["1"]), ("1/3", ["2"])]]
        )
        parts = connected_partitions(inst, 0)
        assert len(parts) == 4
        values = [t.values[0] for t in inst.buyers[0]]
        for part in parts:
            for block in part:
                vals = sorted(values[i] for i in block)
                lo, hi = values.index(vals[0]), values.index(vals[-1])
                span = [v for v in values if vals[0] <= v <= vals[-1]]
                assert sorted(span) == vals  # no value gap inside a block
        assert ((0,), (1, 2)) in parts  # {3} with {1,2}


class TestSearch:
    def test_no_disclosure_ranks_strictly_first(self):
        results = search_profiles(TWO_BUYERS_123)
        assert len(results) == 25
        best_profile, best = results[0]
        assert best_profile == no_disclosure_profile(TWO_BUYERS_123)
        assert best.total_surplus == F(3, 8)
        assert results[1][1].total_surplus < F(3, 8)

    def test_all_sold_profiles_stay_below_no_disclosure(self):
        results = search_profiles(TWO_GOODS_INDEPENDENT)
        assert len(results) == 15
        outcomes = dict(results)
        none = outcomes[no_disclosure_profile(TWO_GOODS_INDEPENDENT)]
        assert none.total_surplus == F(1581, 100)
        assert not none.always_all_sold
        sold = [
            out
            for prof, out in results
            if prof != no_disclosure_profile(TWO_GOODS_INDEPENDENT)
            and out.always_all_sold
        ]
        assert sold  # full disclosure sells everything, so the set is nonempty
        assert all(out.total_surplus < F(1581, 100) for out in sold)

    def test_connected_only_never_beats_unconstrained(self):
        rng = random.Random(555)
        for _ in range(10):
            inst = rand_instance(rng)
            free = search_profiles(inst)
            conn = search_profiles(inst, connected_only=True)
            assert conn[0][1].total_surplus <= free[0][1].total_surplus

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(game, "SEARCH_GUARD", 3)
        with pytest.raises(GuardExceeded):
            search_profiles(TWO_BUYERS_123)

    @pytest.mark.parametrize("connected_only, count", [(False, 25), (True, 16)])
    def test_guard_is_the_exact_profile_count(self, monkeypatch, connected_only, count):
        monkeypatch.setattr(game, "SEARCH_GUARD", count)
        results = search_profiles(TWO_BUYERS_123, connected_only)
        assert len(results) == count
        monkeypatch.setattr(game, "SEARCH_GUARD", count - 1)
        with pytest.raises(GuardExceeded, match=f"would evaluate {count} > {count - 1} profiles"):
            search_profiles(TWO_BUYERS_123, connected_only)

    @pytest.mark.parametrize(
        "n, connected_only, count", [(12, False, 4_213_597), (21, True, 2**20)]
    )
    def test_guard_fires_before_any_partition_is_listed(
        self, monkeypatch, n, connected_only, count
    ):
        inst = DiscreteInstance.build(1, [[(f"1/{n}", [str(i)]) for i in range(n)]])

        def refuse(*args, **kwargs):
            raise AssertionError("partitions listed before the guard")

        monkeypatch.setattr(game, "enumerate_set_partitions", refuse)
        monkeypatch.setattr(game, "connected_partitions", refuse)
        with pytest.raises(GuardExceeded, match=f"would evaluate {count} > 1000000 profiles"):
            search_profiles(inst, connected_only)

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_search_best_checks_the_guard_first(self, monkeypatch, connected_only):
        def refuse(*args, **kwargs):
            raise AssertionError("partitions listed before the guard")

        monkeypatch.setattr(game, "SEARCH_GUARD", 15)
        monkeypatch.setattr(game, "enumerate_set_partitions", refuse)
        monkeypatch.setattr(game, "connected_partitions", refuse)
        with pytest.raises(GuardExceeded, match=r"would evaluate \d+ > 15 profiles"):
            search_best(TWO_BUYERS_123, connected_only)

    def test_csv_of_no_rows_is_the_header(self):
        assert search_to_csv([]) == "profile,revenue,total_surplus,always_all_sold,efficient\n"

    def test_csv_round_trip_shape(self):
        results = search_profiles(TWO_BUYERS_123)
        text = search_to_csv(results)
        lines = text.splitlines()
        assert len(lines) == 26
        assert lines[0] == "profile,revenue,u1,u2,total_surplus,always_all_sold,efficient"
        assert lines[1].endswith("false,false")
        assert '"[[[1,2,3]],[[1,2,3]]]"' in lines[1]


class TestSearchAgainstEvaluate:
    """``search_profiles`` scores the profiles it generates without the
    checks ``evaluate`` runs; each of its rows must still read exactly what
    the public, validating ``evaluate`` returns for that profile."""

    @pytest.mark.parametrize(
        "inst",
        [
            AUCTION_123,
            MENU_FOUR_TYPES,
            TWO_BUYERS_123,
            *(
                reduce_to_buyer_opt(PartitionProblem(sizes)).instance.to_instance()
                for sizes in ((1, 1), (1, 2, 3), (2, 2, 4))
            ),
        ],
        ids=[
            "auction-123", "menu-four-types", "two-buyers-123",
            "red-1-1", "red-1-2-3", "red-2-2-4",
        ],
    )
    @pytest.mark.parametrize("connected_only", [False, True])
    def test_every_row_is_what_evaluate_returns(self, inst, connected_only):
        evaluator = GameEvaluator(inst)
        for profile, outcome in search_profiles(inst, connected_only):
            want = evaluator.evaluate(profile)
            assert outcome.profile == profile
            for f in dataclasses.fields(outcome):
                if f.compare:
                    got, expected = getattr(outcome, f.name), getattr(want, f.name)
                    assert got == expected and type(got) is type(expected), (profile, f.name)


class TestSearchBest:
    """``search_best`` builds the outcome of one row only; it must be the
    first row of ``search_profiles``, field by field and type by type."""

    @pytest.mark.parametrize("connected_only", [False, True])
    def test_is_the_first_ranked_row(self, connected_only):
        instances = [AUCTION_123, MENU_FOUR_TYPES, TWO_BUYERS_123]
        instances += [
            reduce_to_buyer_opt(pp).instance.to_instance() for pp in sweep_size_lists(4, 6)
        ]
        assert len(instances) == 3 + 109
        for inst in instances:
            profile, outcome = search_best(inst, connected_only)
            want_profile, want = search_profiles(inst, connected_only)[0]
            assert profile == want_profile == outcome.profile
            assert all(type(u) is F for u in outcome.per_buyer_utility)
            for f in dataclasses.fields(outcome):
                if f.compare:
                    got, expected = getattr(outcome, f.name), getattr(want, f.name)
                    assert got == expected and type(got) is type(expected), (profile, f.name)


class TestRareLowsRegression:
    def test_disclosure_strictly_helps(self):
        report = rare_lows_regression()
        assert report.no_disclosure.total_surplus == 0
        assert report.no_disclosure.expected_revenue == F(9999, 10)
        assert report.low_high.total_surplus == F(1, 40000)
        assert report.low_high.total_surplus > 0
        # disclosure also repairs efficiency here
        assert report.low_high.efficient
        assert report.low_high.always_all_sold
        assert not report.no_disclosure.always_all_sold

    def test_low_low_subgame_values(self):
        report = rare_lows_regression()
        assert report.low_low_probability == F(1, 10000)
        sol = report.low_low_solution
        # optimal revenue beats the literal reserve-1 second-price auction
        # (whose revenue is 5/4); what survives is its allocation: the good
        # is always sold to a highest-value buyer, value-1 winners pay
        # exactly 1, and a value-2 buyer keeps positive utility
        assert sol.revenue == F(3, 2)
        assert sol.buyer_surplus == F(1, 4)
        assert sol.mechanism.unsold_probability(0) == 0
        interim = sol.mechanism.interim_utilities()
        assert interim[0][0] == interim[1][0] == 0
        assert interim[0][1] + interim[1][1] == F(1, 2)
        assert max(interim[0][1], interim[1][1]) > 0
        mech = sol.mechanism
        inst = mech.instance
        for t, jt in enumerate(joint_types(inst)):
            for j in range(2):
                if inst.buyers[j][jt[j]].values[0] == 1 and mech.q[t][j][0] > 0:
                    assert mech.r[t][j] == mech.q[t][j][0]


class TestEvaluatorCache:
    def test_search_reuses_message_solves(self):
        evaluator = GameEvaluator(TWO_BUYERS_123)
        evaluator.evaluate(no_disclosure_profile(TWO_BUYERS_123))
        evaluator.evaluate((((0, 1, 2),), ((0,), (1, 2))))
        # 7 nonempty subsets per buyer at most; far fewer actually used
        assert len(evaluator._cache) == 3


def one_buyer_corpus() -> list[DiscreteInstance]:
    """One-buyer, one-good instances: the named edge cases, then seeded ones."""
    corpus = [
        # a value-0 type, whose singleton is an all-zero message
        DiscreteInstance.build(1, [[("1/2", ["0"]), ("1/2", ["3"])]]),
        # prices 1 and 2 both earn 1: the tie goes to the lower price
        DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/2", ["2"])]]),
        # prices 1 and 2 both earn 2/3, with a value-0 type below them
        DiscreteInstance.build(1, [[("1/3", ["0"]), ("1/3", ["1"]), ("1/3", ["2"])]]),
    ]
    rng = random.Random(1212)
    for _ in range(40):
        n = rng.randint(1, 5)
        values = rng.sample(range(0, 9), n)
        weights = [rng.randint(1, 4) for _ in values]
        corpus.append(
            DiscreteInstance.build(
                1, [[(F(w, sum(weights)), [F(v)]) for w, v in zip(weights, values)]]
            )
        )
    return corpus


def every_message(inst: DiscreteInstance):
    n = inst.n_types(0)
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


class TestPostedPriceEntries:
    """One-buyer, one-good entries priced from the prior, against conditioning."""

    @staticmethod
    def conditioned_entry(inst, messages):
        cond = condition_on_messages(inst, messages)
        (prob,) = cond.masses
        sol = solve_instance(cond.instance)
        per_buyer = tuple(prob * u for u in sol.mechanism.per_buyer_surplus())
        return (prob, prob * sol.revenue, per_buyer, *_allocation_flags(sol))

    def assert_entries_match(self, inst):
        evaluator = GameEvaluator(inst)
        for block in every_message(inst):
            messages = (block,)
            prob, sol, rev, utilities, sold, eff = evaluator._solve_messages(messages)
            assert sol is None
            # int numerators: the mass over W, revenue and utility over V W
            w_scale, scale = evaluator._w_scale, evaluator._scale
            assert all(type(x) is int for x in (prob, rev, *utilities))
            got = (
                Fraction(prob, w_scale),
                Fraction(rev, scale),
                tuple(Fraction(u, scale) for u in utilities),
                sold,
                eff,
            )
            assert got == self.conditioned_entry(inst, messages)

    def test_every_reduction_message(self):
        for pp in sweep_size_lists(3, 4):
            self.assert_entries_match(reduce_to_buyer_opt(pp).instance.to_instance())

    def test_seeded_corpus(self):
        corpus = one_buyer_corpus()
        for inst in corpus:
            self.assert_entries_match(inst)
        ties = zero_messages = 0
        for inst in corpus:
            prior = inst.buyers[0]
            for block in every_message(inst):
                values = [prior[i].values[0] for i in block]
                earned = [
                    v * sum(prior[i].prob for i in block if prior[i].values[0] >= v)
                    for v in values
                ]
                ties += max(earned) > 0 and earned.count(max(earned)) > 1
                zero_messages += max(values) == 0
        assert ties and zero_messages

    def test_search_neither_conditions_nor_solves(self, monkeypatch):
        inst = one_buyer_corpus()[2]  # a value-0 type and a revenue tie

        def refuse(*args, **kwargs):
            raise AssertionError("a posted-price message went through the LP path")

        monkeypatch.setattr(game, "condition_on_messages", refuse)
        monkeypatch.setattr(game, "solve_instance", refuse)
        results = search_profiles(inst)
        assert len(results) == 5
        monkeypatch.undo()

        for _, outcome in results:
            for (block,), (prob, sol) in outcome.per_message.items():
                cond = condition_on_messages(inst, (block,))
                want = solve_instance(cond.instance)
                assert prob == cond.masses[0]
                assert (sol.revenue, sol.buyer_surplus) == (want.revenue, want.buyer_surplus)
                assert (sol.mechanism.q, sol.mechanism.r) == (want.mechanism.q, want.mechanism.r)
                assert verify_mechanism(sol.mechanism.instance, sol.mechanism).valid


@st.composite
def one_buyer_one_good(draw) -> DiscreteInstance:
    """1-5 types, distinct values 0-12 over denominators 1-3, weights 1-4."""
    n = draw(st.integers(1, 5))
    values = draw(st.lists(
        st.builds(F, st.integers(0, 12), st.integers(1, 3)), min_size=n, max_size=n, unique=True
    ))
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    prior = tuple(BuyerType(F(w, sum(weights)), (v,)) for w, v in zip(weights, values))
    return DiscreteInstance(1, (prior,))


class TestIntSearchAgainstFractions:
    """One buyer, one good: the int sums and the int ranking of
    ``search_profiles`` against conditioning, one solve per block, sums in
    ``Fraction`` and a sort on ``Fraction`` totals."""

    @staticmethod
    def oracle(inst):
        rows = []
        for part in enumerate_set_partitions(inst.n_types(0)):
            revenue = utility = F(0)
            for block in part:
                cond = condition_on_messages(inst, [block])
                sol = solve_instance(cond.instance)
                revenue += cond.masses[0] * sol.revenue
                utility += cond.masses[0] * sol.buyer_surplus
            rows.append(((part,), revenue, (utility,), utility))
        rows.sort(key=lambda row: (-row[3], row[0]))
        return rows

    @settings(max_examples=40, deadline=None)
    @given(one_buyer_one_good())
    def test_search_matches_the_oracle(self, inst):
        want = self.oracle(inst)
        results = search_profiles(inst)
        got = [
            (profile, out.expected_revenue, out.per_buyer_utility, out.total_surplus)
            for profile, out in results
        ]
        assert got == want
        for _, revenue, (utility,), total in got:
            assert type(revenue) is type(utility) is type(total) is Fraction
        # the int masses come back as the conditioned probabilities
        for messages, (prob, sol) in results[0][1].per_message.items():
            cond = condition_on_messages(inst, messages)
            assert prob == cond.masses[0]
            assert sol.revenue == solve_instance(cond.instance).revenue
        connected = {(part,) for part in connected_partitions(inst, 0)}
        got = [
            (profile, out.expected_revenue, out.per_buyer_utility, out.total_surplus)
            for profile, out in search_profiles(inst, connected_only=True)
        ]
        assert got == [row for row in want if row[0] in connected]

    @settings(max_examples=40, deadline=None)
    @given(one_buyer_one_good())
    def test_surplus_is_at_most_welfare_less_uniform_revenue(self, inst):
        # Any segmentation leaves the seller at least the uniform-price
        # revenue (Bergemann, Brooks & Morris 2015), and welfare is at most E[v].
        prior = inst.buyers[0]
        mean = sum(t.prob * t.values[0] for t in prior)
        uniform = max(
            t.values[0] * sum(s.prob for s in prior if s.values[0] >= t.values[0]) for t in prior
        )
        for _, out in search_profiles(inst):
            assert out.total_surplus <= mean - uniform
            assert out.expected_revenue >= uniform
