import random
from dataclasses import fields
from fractions import Fraction

import pytest

from disclosure_games import dpconnected
from disclosure_games.core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    ValidationError,
    compositions,
)
from disclosure_games.dpconnected import (
    SingleBuyerInstance,
    brute_force_connected,
    buyer_utility,
    dp_table,
    inapproximability_instance,
    optimal_connected,
)
from disclosure_games.game import search_profiles

F = Fraction

GAP_HALF = inapproximability_instance("1/2")


def rand_single_buyer(rng: random.Random, max_n: int = 12) -> SingleBuyerInstance:
    n = rng.randint(1, max_n)
    values = sorted(rng.sample(range(1, 120), n))
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return SingleBuyerInstance(
        tuple(F(v) for v in values), tuple(F(w, total) for w in weights)
    )


def posted_price_oracle(inst: SingleBuyerInstance, msg) -> tuple[F, F]:
    """Try every price in the message; revenue ties go to the lower price."""
    best = None
    for price in sorted(inst.values[i] for i in msg):
        served = [i for i in msg if inst.values[i] >= price]
        revenue = price * sum(inst.probs[i] for i in served)
        utility = sum(inst.probs[i] * (inst.values[i] - price) for i in served)
        if best is None or revenue > best[0]:
            best = (revenue, utility, price)
    return best[1], best[2]


class TestInstanceValidation:
    def test_values_must_increase(self):
        with pytest.raises(ValidationError):
            SingleBuyerInstance((F(2), F(1)), (F(1, 2), F(1, 2)))

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            SingleBuyerInstance((F(1), F(2)), (F(1, 2), F(1, 3)))

    def test_floats_and_booleans_rejected(self):
        with pytest.raises(ValidationError):
            SingleBuyerInstance((1.0, 2.0), (0.5, 0.5))
        with pytest.raises(ValidationError):
            SingleBuyerInstance((True,), (True,))
        with pytest.raises(ValidationError):
            SingleBuyerInstance(("1", "2"), ("1/2", "1/2"))

    def test_build_sorts_by_value(self):
        inst = SingleBuyerInstance.build([("1/2", "5"), ("1/2", "3")])
        assert inst.values == (F(3), F(5))

    def test_build_equals_the_public_route_field_for_field(self):
        """``build`` reorders the validated instance's types and int rows; the
        result must be what the constructor derives from the sorted pairs."""
        rng = random.Random(58)
        for _ in range(200):
            n = rng.randint(1, 8)
            values = rng.sample(sorted({F(k, d) for k in range(1, 30) for d in (1, 2, 7)}), n)
            weights = [rng.randint(1, 9) for _ in range(n)]
            pairs = [(F(w, sum(weights)), v) for w, v in zip(weights, values)]
            rng.shuffle(pairs)
            got = SingleBuyerInstance.build(pairs)
            ranked = sorted(pairs, key=lambda pair: pair[1])
            want = SingleBuyerInstance(tuple(v for _, v in ranked), tuple(p for p, _ in ranked))
            assert type(got) is SingleBuyerInstance
            assert (got.goods, got.buyers, got.ints) == (want.goods, want.buyers, want.ints)

    @pytest.mark.parametrize(
        "buyers, message",
        [
            ([[("1/2", "1"), ("1/2", "0")]], "values must be positive"),
            ([[("1", "1")], [("1", "2")]], "expected exactly one buyer and one good"),
        ],
        ids=["value-zero", "two-buyers"],
    )
    def test_from_instance_refuses(self, buyers, message):
        inst = DiscreteInstance.build(1, buyers)
        with pytest.raises(ValidationError) as info:
            SingleBuyerInstance.from_instance(inst)
        assert str(info.value) == message
        if len(buyers) == 1:
            with pytest.raises(ValidationError, match=f"^{message}$"):
                SingleBuyerInstance.build(buyers[0])

    def test_round_trip_through_discrete_instance(self):
        plain = DiscreteInstance(GAP_HALF.goods, GAP_HALF.buyers)
        assert type(plain) is DiscreteInstance and plain != GAP_HALF  # equality within a class
        back = SingleBuyerInstance.from_instance(plain)
        assert back == GAP_HALF and type(back) is SingleBuyerInstance

    def test_int_form_is_the_instances_and_stays_out_of_eq_hash_repr(self):
        assert GAP_HALF.ints == DiscreteInstance(GAP_HALF.goods, GAP_HALF.buyers).ints
        twin = SingleBuyerInstance(GAP_HALF.values, GAP_HALF.probs)
        assert twin is not GAP_HALF and twin.ints is not GAP_HALF.ints
        assert twin == GAP_HALF and hash(twin) == hash(GAP_HALF) and repr(twin) == repr(GAP_HALF)
        assert "ints" not in repr(GAP_HALF)

    def test_keeps_the_one_discrete_instance_it_validated(self):
        # the refinement is itself the checked instance: no second one inside it
        inst = SingleBuyerInstance.build([("1/3", "2"), ("1/6", "1"), ("1/2", "7/2")])
        assert isinstance(inst, DiscreteInstance)
        assert (inst.goods, inst.n_buyers, inst.n) == (1, 1, 3)
        assert inst.buyers == ((BuyerType(F(1, 6), (F(1),)), BuyerType(F(1, 3), (F(2),)),
                                BuyerType(F(1, 2), (F(7, 2),))),)
        assert (inst.values, inst.probs) == ((F(1), F(2), F(7, 2)), (F(1, 6), F(1, 3), F(1, 2)))
        assert [f.name for f in fields(inst)] == ["goods", "buyers", "ints"]
        assert repr(inst) == (
            "SingleBuyerInstance(goods=1, buyers=((BuyerType(prob=Fraction(1, 6), "
            "values=(Fraction(1, 1),)), BuyerType(prob=Fraction(1, 3), values=(Fraction(2, 1),)), "
            "BuyerType(prob=Fraction(1, 2), values=(Fraction(7, 2),))),))"
        )


class TestBuyerUtility:
    def test_pooling_the_two_low_types_extracts_everything(self):
        utility, price = buyer_utility(GAP_HALF, [0, 1])
        assert price == 2  # revenue 10/9 beats 8/9 at price 1
        assert utility == 0

    def test_singleton_is_fully_extracted(self):
        for i in range(3):
            utility, price = buyer_utility(GAP_HALF, [i])
            assert utility == 0
            assert price == GAP_HALF.values[i]

    def test_pooling_the_extremes_pays_off(self):
        utility, price = buyer_utility(GAP_HALF, [0, 2])
        assert price == 1
        assert utility == F(1, 9) * (F(5, 2) - 1)  # only the top type keeps margin
        assert utility == F(1, 6)  # (1+delta)/9 at delta = 1/2

    def test_revenue_ties_break_toward_the_lower_price(self):
        inst = SingleBuyerInstance((F(1), F(2)), (F(1, 2), F(1, 2)))
        utility, price = buyer_utility(inst, [0, 1])
        assert price == 1  # both prices earn 1; the lower one leaves surplus
        assert utility == F(1, 2)

    def test_empty_message_rejected(self):
        with pytest.raises(ValidationError):
            buyer_utility(GAP_HALF, [])

    def test_repeated_index_rejected(self):
        with pytest.raises(ValidationError):
            buyer_utility(GAP_HALF, [0, 0, 2])

    @pytest.mark.parametrize("msg", [[True], [False, 1], [1.0], ["0"], [0, None]])
    def test_non_int_index_rejected(self, msg):
        # bool is an int subclass, but True is not type 2
        with pytest.raises(ValidationError, match="message indices must be integers"):
            buyer_utility(GAP_HALF, msg)

    @pytest.mark.parametrize("msg", [None, 1, {0, 1}])
    def test_non_sequence_message_rejected(self, msg):
        # the check condition_on_messages makes, so a set is refused here too
        with pytest.raises(ValidationError, match="a message must be a sequence of type indices"):
            buyer_utility(GAP_HALF, msg)

    def test_lowest_price_bounds_utility(self):
        rng = random.Random(321)
        for _ in range(50):
            inst = rand_single_buyer(rng, max_n=8)
            size = rng.randint(1, inst.n)
            msg = sorted(rng.sample(range(inst.n), size))
            utility, _ = buyer_utility(inst, msg)
            lowest = min(inst.values[i] for i in msg)
            cap = sum(inst.probs[i] * (inst.values[i] - lowest) for i in msg)
            assert 0 <= utility <= cap

    def test_matches_every_candidate_price(self):
        rng = random.Random(606)
        # equal probabilities on equally spaced values make revenue ties common
        ties = [
            SingleBuyerInstance(
                tuple(F(step * (k + 1)) for k in range(n)), (F(1, n),) * n
            )
            for n in range(1, 9)
            for step in (1, 2, 3)
        ]
        randoms = [rand_single_buyer(rng, max_n=9) for _ in range(60)]
        for inst in ties + randoms:
            for _ in range(8):
                msg = rng.sample(range(inst.n), rng.randint(1, inst.n))
                assert buyer_utility(inst, msg) == posted_price_oracle(inst, msg)


class TestDynamicProgram:
    def test_gap_instance_optimum_is_delta_ninths(self):
        partition, utility = optimal_connected(GAP_HALF)
        assert utility == F(1, 18)
        assert partition in (((0,), (1, 2)), ((0, 1, 2),))

    def test_single_type(self):
        inst = SingleBuyerInstance((F(7),), (F(1),))
        partition, utility = optimal_connected(inst)
        assert partition == ((0,),)
        assert utility == 0

    def test_two_equiprobable_values_pool(self):
        inst = SingleBuyerInstance((F(1), F(2)), (F(1, 2), F(1, 2)))
        partition, utility = optimal_connected(inst)
        assert partition == ((0, 1),)
        assert utility == F(1, 2)

    def test_prefix_utilities_never_decrease(self):
        rng = random.Random(88)
        for _ in range(30):
            inst = rand_single_buyer(rng, max_n=9)
            table = dp_table(inst)
            utilities = [u for u, _ in table]
            assert all(a <= b for a, b in zip(utilities, utilities[1:]))

    def test_partition_covers_types_in_order(self):
        rng = random.Random(17)
        for _ in range(20):
            inst = rand_single_buyer(rng, max_n=10)
            partition, utility = optimal_connected(inst)
            flat = [i for block in partition for i in block]
            assert flat == list(range(inst.n))
            total = sum(buyer_utility(inst, b)[0] for b in partition)
            assert total == utility


class TestBruteForceOracle:
    def test_four_compositions_for_three_types(self):
        partition, utility = brute_force_connected(GAP_HALF)
        assert utility == F(1, 18)

    def test_guard(self, monkeypatch):
        inst = rand_single_buyer(random.Random(5), max_n=12)
        monkeypatch.setattr(dpconnected, "BRUTE_FORCE_GUARD", inst.n - 1)
        with pytest.raises(GuardExceeded, match=f"compositions of {inst.n} types is over the guard"):
            brute_force_connected(inst)

    def test_guard_admits_n_equal_to_it(self, monkeypatch):
        monkeypatch.setattr(dpconnected, "BRUTE_FORCE_GUARD", GAP_HALF.n)
        assert brute_force_connected(GAP_HALF)[1] == F(1, 18)
        four = SingleBuyerInstance((F(1), F(2), F(3), F(4)), (F(1, 4),) * 4)
        with pytest.raises(GuardExceeded, match="8 compositions of 4 types is over the guard"):
            brute_force_connected(four)

    def test_matches_dp_on_random_instances(self):
        rng = random.Random(20240601)
        for _ in range(200):
            inst = rand_single_buyer(rng, max_n=12)
            _, dp_value = optimal_connected(inst)
            _, bf_value = brute_force_connected(inst)
            assert dp_value == bf_value


class TestAgainstUnconstrainedSearch:
    def test_connected_never_beats_arbitrary_messages(self):
        rng = random.Random(4242)
        for _ in range(15):
            inst = rand_single_buyer(rng, max_n=5)
            _, connected_value = optimal_connected(inst)
            results = search_profiles(inst)
            assert connected_value <= results[0][1].total_surplus

    def test_lp_game_agrees_with_posted_price_oracle(self):
        # each message's LP mechanism collapses to the oracle's posted price
        rng = random.Random(31337)
        for _ in range(15):
            inst = rand_single_buyer(rng, max_n=6)
            results = search_profiles(inst, connected_only=True)
            best_lp = results[0][1].total_surplus
            _, dp_value = optimal_connected(inst)
            assert best_lp == dp_value


def fraction_search(inst: SingleBuyerInstance):
    """The DP table, the brute force and the block utilities, in Fraction.

    The reference the int searches must match entry for entry: the same
    recursion and tie rules, with every sum and comparison in Fraction.
    """
    n = inst.n
    scores = {
        tuple(range(j, i)): buyer_utility(inst, tuple(range(j, i)))[0]
        for i in range(1, n + 1)
        for j in range(i)
    }
    table = [(F(0), ())]
    for i in range(1, n + 1):
        best = None
        for j in range(i):
            block = tuple(range(j, i))
            utility = table[j][0] + scores[block]
            if best is None or utility > best[0]:
                best = (utility, table[j][1] + (block,))
        table.append(best)
    brute = None
    for blocks in compositions(n):
        total = sum((scores[b] for b in blocks), F(0))
        if brute is None or total > brute[1]:
            brute = (blocks, total)
    return tuple(table), brute, scores


class TestIntegerSearch:
    """The int DP and brute force return what the Fraction searches return:
    the same utilities and, among tied partitions, the same blocks."""

    def test_matches_the_fraction_searches(self):
        rng = random.Random(1809)
        # equal probabilities on equally spaced values tie many compositions
        ties = [
            SingleBuyerInstance(tuple(F(step * (k + 1)) for k in range(n)), (F(1, n),) * n)
            for n in range(1, 10)
            for step in (1, 2, F(1, 3))
        ]
        randoms = [rand_single_buyer(rng, max_n=10) for _ in range(40)]
        tied = 0
        for inst in ties + randoms:
            table, brute, scores = fraction_search(inst)
            assert dp_table(inst) == table
            assert brute_force_connected(inst) == brute
            blocks, best = brute
            optima = [
                c for c in compositions(inst.n) if sum((scores[b] for b in c), F(0)) == best
            ]
            assert optima[0] == blocks
            tied += len(optima) > 1
        assert tied >= 10


def seeded_instance(n: int, seed: int) -> SingleBuyerInstance:
    rng = random.Random(seed)
    values = sorted(rng.sample(range(1, 10 * n), n))
    weights = [rng.randint(1, 6) for _ in range(n)]
    return SingleBuyerInstance(tuple(map(F, values)), tuple(F(w, sum(weights)) for w in weights))


def equally_spaced_instance(n: int) -> SingleBuyerInstance:
    # equal probabilities on equally spaced values tie many last blocks
    return SingleBuyerInstance(tuple(F(k + 1) for k in range(n)), (F(1, n),) * n)


class TestBellman:
    """Past the brute force's guard the DP table is checked by its Bellman
    inequalities, every block priced on its own by ``buyer_utility``:
    entry i is at least entry j plus block j..i-1 for every j < i, with
    equality at the start of the returned partition's last block and at no
    smaller j (the tie rule)."""

    @pytest.mark.parametrize(
        "inst",
        [
            seeded_instance(40, 4040),
            seeded_instance(120, 120120),
            equally_spaced_instance(40),
            equally_spaced_instance(120),
        ],
        ids=["seeded-40", "seeded-120", "spaced-40", "spaced-120"],
    )
    def test_every_entry_is_its_best_extension(self, inst):
        assert inst.n > dpconnected.BRUTE_FORCE_GUARD
        table = dp_table(inst)
        assert table[0] == (0, ())
        for i in range(1, inst.n + 1):
            utility, partition = table[i]
            start = partition[-1][0]
            assert partition == table[start][1] + (tuple(range(start, i)),)
            reach = [table[j][0] + buyer_utility(inst, range(j, i))[0] for j in range(i)]
            assert all(r <= utility for r in reach)
            assert reach.index(utility) == start
