import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclosure_games.acceptance import AUCTION_123
from disclosure_games.core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    IntervalPartition,
    ValidationError,
    bell_number,
    compositions,
    condition_on_messages,
    enumerate_set_partitions,
    format_rational,
    mask_members,
    parse_instance,
    parse_partition_profile,
    parse_rational,
    require_exact,
    serialize_instance,
    serialize_partition_profile,
    set_partition_masks,
    validate_partition,
)
from disclosure_games.dpconnected import SingleBuyerInstance


class ExactInt(int):
    """An int subclass, as an ``IntEnum`` member is: exact, so accepted."""


class ExactFraction(Fraction):
    """A Fraction subclass: exact, so accepted."""


class TestRationals:
    def test_basic_forms(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("7") == Fraction(7)
        assert parse_rational("-2") == Fraction(-2)
        assert parse_rational("118.6") == Fraction(593, 5)
        assert parse_rational(5) == Fraction(5)
        assert parse_rational(Fraction(2, 6)) == Fraction(1, 3)

    def test_rejects_garbage(self):
        for bad in ("", "1/0", "a/b", "1.2.3", "1e3", None, [1], True, False):
            with pytest.raises(ValidationError):
                parse_rational(bad)

    def test_rejects_floats(self):
        with pytest.raises(ValidationError):
            parse_rational(0.5)

    def test_int_and_fraction_subclasses_are_exact(self):
        # bool is an int subclass too, and stays out
        three, five, half = ExactInt(3), ExactInt(5), ExactFraction(1, 2)
        assert parse_rational(half) is half
        assert parse_rational(three) == 3 and type(parse_rational(three)) is Fraction
        for x in (three, half):
            require_exact(x, "x")
        with pytest.raises(ValidationError, match="^x must be an int or a Fraction, got True$"):
            require_exact(True, "x")
        inst = DiscreteInstance(1, ((BuyerType(half, (three,)), BuyerType(half, (five,))),))
        assert inst == DiscreteInstance.build(1, [[("1/2", "3"), ("1/2", "5")]])
        single = SingleBuyerInstance((three, five), (half, half))
        assert single == SingleBuyerInstance.build([("1/2", "3"), ("1/2", "5")])
        bp = IntervalPartition((ExactInt(0), half, ExactInt(1)))
        assert bp.blocks() == ((0, Fraction(1, 2)), (Fraction(1, 2), 1))

    def test_format(self):
        assert format_rational(Fraction(3, 4)) == "3/4"
        assert format_rational(Fraction(8, 4)) == "2"
        assert format_rational(Fraction(-1, 3)) == "-1/3"

    @given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
    def test_format_parse_round_trip(self, num, den):
        q = Fraction(num, den)
        assert parse_rational(format_rational(q)) == q


INSTANCE_DOC = """{
  "goods": 1,
  "buyers": [
    [
      {"prob": "1/3", "values": ["1"]},
      {"prob": "5/9", "values": ["2"]},
      {"prob": "1/9", "values": ["5/2"]}
    ]
  ]
}"""


class TestInstanceDocuments:
    def test_parse(self):
        inst = parse_instance(INSTANCE_DOC)
        assert inst.goods == 1
        assert inst.n_buyers == 1
        assert inst.buyers[0][2].prob == Fraction(1, 9)
        assert inst.buyers[0][2].values == (Fraction(5, 2),)

    def test_round_trip_is_bit_identical(self):
        text = serialize_instance(parse_instance(INSTANCE_DOC))
        assert serialize_instance(parse_instance(text)) == text

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum"):
            DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/3", ["2"])]])

    def test_value_count_must_match_goods(self):
        with pytest.raises(ValidationError, match="values"):
            DiscreteInstance.build(2, [[("1", ["1"])]])

    def test_rejects_extra_keys(self):
        with pytest.raises(ValidationError):
            parse_instance('{"goods": 1, "buyers": [], "extra": 0}')

    def test_rejects_negative_prob(self):
        with pytest.raises(ValidationError):
            DiscreteInstance.build(1, [[("-1/2", ["1"]), ("3/2", ["2"])]])

    def test_rejects_inexact_probs_and_values(self):
        for prob, value in ((True, True), (1, True), (0.5, 1), (1, 1.0), ("1", 1)):
            with pytest.raises(ValidationError):
                DiscreteInstance(1, ((BuyerType(prob, (value,)),),))
        assert DiscreteInstance(1, ((BuyerType(1, (2,)),),)).buyers[0][0].values == (2,)

    def test_rejects_malformed_shapes(self):
        for buyers in (((BuyerType(1, 5),),), ((5,),), 5, [(BuyerType(1, (5,)),)]):
            with pytest.raises(ValidationError):
                DiscreteInstance(1, buyers)

    def test_rejects_duplicate_value_vectors(self):
        with pytest.raises(ValidationError, match="duplicate"):
            DiscreteInstance.build(1, [[("1/2", ["1"]), ("1/2", ["1"])]])


RATIONAL = st.one_of(
    st.integers(0, 20), st.fractions(min_value=0, max_value=20, max_denominator=12)
)


@st.composite
def exact_instances(draw):
    """1-3 buyers, 1-2 goods, values and probabilities given as ints or Fractions."""
    goods = draw(st.integers(1, 2))
    buyers = []
    for _ in range(draw(st.integers(1, 3))):
        vectors = draw(
            st.lists(st.tuples(*[RATIONAL] * goods), min_size=1, max_size=4, unique=True)
        )
        weights = draw(st.lists(st.integers(1, 9), min_size=len(vectors), max_size=len(vectors)))
        probs = [1] if len(vectors) == 1 else [Fraction(w, sum(weights)) for w in weights]
        buyers.append(tuple(BuyerType(p, v) for p, v in zip(probs, vectors)))
    return DiscreteInstance(goods, tuple(buyers))


class TestIntForm:
    """``DiscreteInstance.ints``: one integer form per instance, built with it."""

    def test_cache_leaves_equality_hash_and_repr_alone(self):
        inst = DiscreteInstance.build(2, [[("1/3", ["1/2", "2"]), ("2/3", ["3", "1/7"])]])
        twin = DiscreteInstance.build(2, [[("1/3", ["1/2", "2"]), ("2/3", ["3", "1/7"])]])
        before = (inst == twin, hash(inst), repr(inst))
        form = inst.ints
        assert vars(inst)["ints"] is form and inst.ints is form
        # both hold a form of their own from construction, and an instance
        # whose form differs still compares, hashes and prints the same
        assert vars(twin)["ints"] == form and vars(twin)["ints"] is not form
        object.__setattr__(twin, "ints", None)
        assert (inst == twin, hash(twin), repr(twin)) == before
        assert "ints" not in repr(inst)
        object.__setattr__(twin, "ints", form)
        assert (inst == twin, hash(inst), repr(inst)) == before
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)

    @settings(deadline=None)
    @given(exact_instances())
    def test_gives_back_every_fraction(self, inst):
        form = inst.ints
        assert type(form.v_scale) is int and form.v_scale > 0
        value_nums = []
        for j, prior in enumerate(inst.buyers):
            w_scale = form.w_scales[j]
            assert type(w_scale) is int and w_scale > 0
            for i, t in enumerate(prior):
                assert type(form.probs[j][i]) is int
                assert Fraction(form.probs[j][i], w_scale) == t.prob
                for k, v in enumerate(t.values):
                    assert type(form.values[j][i][k]) is int
                    assert Fraction(form.values[j][i][k], form.v_scale) == v
                    value_nums.append(form.values[j][i][k])
            # a common multiple is the lcm exactly when no factor divides out
            assert math.gcd(w_scale, *form.probs[j]) == 1
            exact = [tuple(map(Fraction, t.values)) for t in prior]
            assert form.orders[j] == tuple(sorted(range(len(prior)), key=exact.__getitem__))
        assert math.gcd(form.v_scale, *value_nums) == 1


@st.composite
def near_valid_priors(draw):
    """(goods, buyers) for 1-3 buyers, each valid or one step off:
    probabilities summing to 1 +- 1/k, a zero or negative probability, a
    negative value or duplicate value vectors; ints mixed with Fractions."""
    goods = draw(st.integers(1, 2))
    buyers = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 4))
        vectors = draw(st.lists(st.tuples(*[RATIONAL] * goods), min_size=n, max_size=n))
        weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        probs = [Fraction(w, sum(weights)) for w in weights]
        step = draw(st.sampled_from(["none"] * 4 + ["sum", "zero", "negative", "value", "twin"]))
        if step == "sum":
            probs[0] += draw(st.sampled_from([-1, 1])) * Fraction(1, draw(st.integers(2, 40)))
        elif step in ("zero", "negative") and n > 1:
            moved = probs[0] * (1 if step == "zero" else 2)
            probs[0] -= moved
            probs[1] += moved
        elif step == "value":
            vectors[-1] = (-draw(RATIONAL) - Fraction(1, 7),) + vectors[-1][1:]
        elif step == "twin" and n > 1:
            vectors[-1] = vectors[0]
        if draw(st.booleans()):  # ints where the number is whole
            probs = [int(p) if p.denominator == 1 else p for p in probs]
            vectors = [tuple(int(v) if v.denominator == 1 else v for v in vec) for vec in vectors]
        buyers.append(tuple(BuyerType(p, vec) for p, vec in zip(probs, vectors)))
    return goods, tuple(buyers)


def first_fault(buyers) -> str | None:
    """The message of the first check a near-valid instance fails, found in
    plain ``Fraction`` arithmetic, or None when it is valid."""
    for j, prior in enumerate(buyers, 1):
        total = Fraction(0)
        for i, t in enumerate(prior, 1):
            if Fraction(t.prob) <= 0:
                return f"buyer {j} type {i}: prob must be positive"
            if any(Fraction(v) < 0 for v in t.values):
                return f"buyer {j} type {i}: values must be nonnegative"
            total += t.prob
        if total != 1:
            return f"buyer {j}: type probabilities sum to {total}, expected 1"
        if len({tuple(map(Fraction, t.values)) for t in prior}) != len(prior):
            return f"buyer {j}: duplicate type value vectors"
    return None


class TestValidationOracle:
    """``DiscreteInstance`` checks on its int form; a predicate on plain
    ``Fraction``s must accept and reject the same instances, with the same
    message."""

    @settings(deadline=None, max_examples=300)
    @given(near_valid_priors())
    def test_agrees_with_a_fraction_predicate(self, case):
        goods, buyers = case
        message = first_fault(buyers)
        if message is None:
            assert DiscreteInstance(goods, buyers).buyers == buyers
        else:
            with pytest.raises(ValidationError) as info:
                DiscreteInstance(goods, buyers)
            assert str(info.value) == message


class TestSetPartitions:
    def test_counts_match_bell_numbers(self):
        for n in range(8):
            assert len(list(enumerate_set_partitions(n))) == bell_number(n)

    def test_bell_values(self):
        assert [bell_number(n) for n in range(9)] == [1, 1, 2, 5, 15, 52, 203, 877, 4140]

    def test_bell_number_rejects_non_sizes(self):
        # True would otherwise count as 1 element and 2.5 fail inside range()
        for n in (True, 2.5, -1):
            with pytest.raises(ValidationError, match="nonnegative integer"):
                bell_number(n)

    def test_canonical_form(self):
        for part in enumerate_set_partitions(5):
            assert list(part) == sorted(part)
            for block in part:
                assert list(block) == sorted(block)

    def test_partitions_are_distinct_and_cover(self):
        seen = set(enumerate_set_partitions(4))
        assert len(seen) == 15
        for part in seen:
            assert sorted(i for b in part for i in b) == [0, 1, 2, 3]

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            list(enumerate_set_partitions(13))
        with pytest.raises(GuardExceeded, match="13 > 12 elements"):
            set_partition_masks([1 << i for i in range(13)])

    def test_same_tuples_in_the_same_order_as_the_recursive_generator(self):
        def recursive(n):
            # reference: the recursive generator the mask enumerator replaced
            if n == 0:
                yield ()
                return

            def rec(i, blocks):
                if i == n:
                    yield tuple(tuple(b) for b in blocks)
                    return
                for b in blocks:
                    b.append(i)
                    yield from rec(i + 1, blocks)
                    b.pop()
                blocks.append([i])
                yield from rec(i + 1, blocks)
                blocks.pop()

            yield from rec(1, [[0]])

        for n in range(10):
            assert list(enumerate_set_partitions(n)) == list(recursive(n)), n

    def test_mask_totals_are_block_score_sums(self):
        # elements on shuffled bits, a random score per mask: every total is
        # the sum over its blocks, blocks come in order of their least
        # element, and the partitions read back are enumerate_set_partitions'
        rng = random.Random(45)
        for n in range(7):
            bits = [1 << r for r in rng.sample(range(n), n)]
            score = [0] + [rng.randint(-50, 50) for _ in range(1, 2**n)]
            members = mask_members(bits)
            got = list(set_partition_masks(bits, score))
            assert [tuple(members[m] for m in masks) for masks, _ in got] == list(
                enumerate_set_partitions(n)
            )
            for masks, total in got:
                assert total == sum(score[m] for m in masks)
            assert all(total == 0 for _, total in set_partition_masks(bits))

    def test_mask_members_lists_each_masks_positions(self):
        bits = [4, 1, 8, 2]
        members = mask_members(bits)
        assert len(members) == 16
        for mask, held in enumerate(members):
            assert held == tuple(i for i, bit in enumerate(bits) if mask & bit)

    def test_sizes_must_be_nonnegative_integers(self):
        for enumerate_blocks in (enumerate_set_partitions, compositions):
            assert list(enumerate_blocks(0)) == [()]
            for n in (-1, True, False, 2.0, "3", None):
                with pytest.raises(ValidationError):
                    list(enumerate_blocks(n))
        assert list(compositions(3)) == [
            ((0, 1, 2),), ((0,), (1, 2)), ((0, 1), (2,)), ((0,), (1,), (2,))
        ]

    def test_compositions_match_the_counter_loop(self):
        def counter_loop(n):
            # reference: test every bit of every counter, build every block
            if n == 0:
                yield ()
                return
            for cuts in range(2 ** (n - 1)):
                blocks = []
                start = 0
                for pos in range(1, n):
                    if cuts >> (pos - 1) & 1:
                        blocks.append(tuple(range(start, pos)))
                        start = pos
                blocks.append(tuple(range(start, n)))
                yield tuple(blocks)

        for n in range(13):
            comps = list(compositions(n))
            assert comps == list(counter_loop(n))
            # comps holds every block alive, so distinct objects have distinct ids
            assert len({id(block) for c in comps for block in c}) <= n * (n + 1) // 2

    def test_validate_rejects_overlap_and_gaps(self):
        with pytest.raises(ValidationError):
            validate_partition([[0, 1], [1, 2]], 3)
        with pytest.raises(ValidationError):
            validate_partition([[0], [2]], 3)
        with pytest.raises(ValidationError):
            validate_partition([[0], []], 1)
        with pytest.raises(ValidationError):
            validate_partition([[True], [0]], 2)


class TestConditioning:
    def test_renormalizes(self):
        inst = parse_instance(INSTANCE_DOC)
        cond = condition_on_messages(inst, [[0, 1]])
        assert cond.masses == (Fraction(8, 9),)
        probs = [t.prob for t in cond.instance.buyers[0]]
        assert probs == [Fraction(3, 8), Fraction(5, 8)]

    def test_rejects_empty_message(self):
        inst = parse_instance(INSTANCE_DOC)
        with pytest.raises(ValidationError):
            condition_on_messages(inst, [[]])

    def test_rejects_out_of_range(self):
        inst = parse_instance(INSTANCE_DOC)
        with pytest.raises(ValidationError):
            condition_on_messages(inst, [[0, 3]])

    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, Fraction(1)])
    def test_rejects_non_int_indices(self, bad):
        inst = DiscreteInstance.build(
            1, [[("1/2", ["1"]), ("1/2", ["2"])], [("1/3", ["1"]), ("2/3", ["3"])]]
        )
        with pytest.raises(ValidationError, match=r"^buyer 1: message indices must be integers"):
            condition_on_messages(inst, [(bad,), (0,)])
        with pytest.raises(ValidationError, match=r"^buyer 2: message indices must be integers"):
            condition_on_messages(inst, [(0, 1), (0, bad)])
        assert condition_on_messages(inst, [(1,), (0, 1)]).masses == (Fraction(1, 2), Fraction(1))

    @pytest.mark.parametrize(
        "messages, error",
        [
            ([1, (0,)], r"^buyer 1: a message must be a sequence of type indices, got 1$"),
            ([(0,), None], r"^buyer 2: a message must be a sequence of type indices, got None$"),
            ([(0,), {0, 1}], r"^buyer 2: a message must be a sequence of type indices, got \{0, 1\}$"),
            (None, r"^need one message per buyer \(2\), got None$"),
            (7, r"^need one message per buyer \(2\), got 7$"),
            ({0: (0,), 1: (1,)}, r"^need one message per buyer \(2\), got \{"),
        ],
        ids=["int-message", "none-message", "set-message", "none-list", "int-list", "dict-list"],
    )
    def test_rejects_messages_that_are_not_sequences(self, messages, error):
        with pytest.raises(ValidationError, match=error):
            condition_on_messages(AUCTION_123, messages)


class TestPartitionDocuments:
    def test_parse_one_based(self):
        inst = parse_instance(INSTANCE_DOC)
        profile = parse_partition_profile("[[[1, 3], [2]]]", inst)
        assert profile == (((0, 2), (1,)),)

    def test_round_trip(self):
        inst = parse_instance(INSTANCE_DOC)
        text = serialize_partition_profile(parse_partition_profile("[[[1], [2, 3]]]", inst))
        assert parse_partition_profile(text, inst) == (((0,), (1, 2)),)

    def test_wrong_buyer_count(self):
        inst = parse_instance(INSTANCE_DOC)
        with pytest.raises(ValidationError):
            parse_partition_profile("[[[1, 2, 3]], [[1]]]", inst)


class TestIntervalPartition:
    def test_from_string(self):
        p = IntervalPartition.from_string("0,1/2,1")
        assert p.blocks() == ((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValidationError):
            IntervalPartition.from_string("0,1/2,1/2,1")
        with pytest.raises(ValidationError):
            IntervalPartition.from_string("0,2/3,1/3,1")
        with pytest.raises(ValidationError):
            IntervalPartition.from_string("1/4,1")

    def test_inexact_breakpoints_rejected(self):
        for bp in ((0.0, 0.5, 1.0), (0, True), (0, "1/2", 1)):
            with pytest.raises(ValidationError):
                IntervalPartition(bp)
        p = IntervalPartition.from_string("0,1/2,1")
        for x in (0.5, True):
            with pytest.raises(ValidationError):
                p.block_containing(x)
        assert p.block_containing("1/2") == (0, Fraction(1, 2))

    def test_empty_fields_rejected(self):
        for text in ("0,,1/2,1", "0,1/2,1,", ",0,1", "0, ,1"):
            with pytest.raises(ValidationError):
                IntervalPartition.from_string(text)

    def test_membership_is_half_open_with_zero_in_first(self):
        p = IntervalPartition.from_string("0,1/2,1")
        assert p.block_containing(Fraction(0)) == (Fraction(0), Fraction(1, 2))
        assert p.block_containing(Fraction(1, 2)) == (Fraction(0), Fraction(1, 2))
        assert p.block_containing(Fraction(3, 4)) == (Fraction(1, 2), Fraction(1))
        assert p.block_containing(Fraction(1)) == (Fraction(1, 2), Fraction(1))

    @given(st.integers(0, 2**20))
    def test_every_point_has_one_block(self, k):
        p = IntervalPartition.from_string("0,1/8,1/3,3/4,1")
        x = Fraction(k, 2**20)
        lo, hi = p.block_containing(x)
        assert lo <= x <= hi
