import random
from fractions import Fraction

import pytest

from disclosure_games import hardness
from disclosure_games.core import GuardExceeded, ValidationError
from disclosure_games.dpconnected import SingleBuyerInstance
from disclosure_games.hardness import (
    PartitionProblem,
    reduce_to_buyer_opt,
    solve_partition_bruteforce,
    sweep_size_lists,
    verify_reduction,
)

F = Fraction


class TestPartitionProblem:
    def test_odd_total_rejected(self):
        with pytest.raises(ValidationError, match="odd"):
            PartitionProblem((1, 2))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError):
            PartitionProblem((0, 2))
        with pytest.raises(ValidationError):
            PartitionProblem((True, True))

    def test_total(self):
        assert PartitionProblem((2, 2, 4)).total == 8


class TestReduce:
    def test_two_unit_sizes(self):
        red = reduce_to_buyer_opt(PartitionProblem((1, 1)))
        assert red.instance.values == (F(1), F(9, 5), F(11, 6))
        assert red.instance.probs == (F(1, 3), F(1, 3), F(1, 3))
        assert red.target == F(1, 4)

    def test_sizes_2_2_4(self):
        red = reduce_to_buyer_opt(PartitionProblem((2, 2, 4)))
        assert red.instance.values == (F(4), F(39, 5), F(47, 6), F(55, 7))
        assert red.instance.probs == (F(1, 3), F(1, 6), F(1, 6), F(1, 3))
        assert red.target == F(5, 4)

    def test_high_values_sit_just_below_the_total(self):
        for sizes in [(1, 1), (2, 4), (1, 2, 3), (6, 6, 6, 6)]:
            pp = PartitionProblem(sizes)
            red = reduce_to_buyer_opt(pp)
            s = pp.total
            highs = red.instance.values[1:]
            assert all(s - F(1, 4) < v < s for v in highs)
            assert red.instance.values[0] == F(s, 2)


class TestIntRoute:
    """``reduce_to_buyer_opt`` builds its instance on the int form; that form
    must be the one the public constructor derives from the same
    rationals, field for field (``ints`` is outside equality)."""

    @staticmethod
    def public_route(pp):
        s, m = pp.total, len(pp.sizes)
        values = (F(s, 2), *(F(s * (4 + i) - 1, 4 + i) for i in range(1, m + 1)))
        probs = (F(1, 3), *(F(2 * size, 3 * s) for size in pp.sizes))
        return SingleBuyerInstance(values, probs)

    def test_every_problem_up_to_m_6_and_the_ci_lists(self):
        problems = list(sweep_size_lists(6, 8))
        problems += [PartitionProblem(tuple(range(1, 9))), PartitionProblem((1,) * 7 + (21,))]
        assert len(problems) == 1520
        for pp in problems:
            got, want = reduce_to_buyer_opt(pp).instance, self.public_route(pp)
            assert type(got) is SingleBuyerInstance
            assert (got.goods, got.buyers, got.ints) == (want.goods, want.buyers, want.ints), pp

    def test_probability_scale_is_in_lowest_terms(self):
        # S = 8: probabilities 1/3, 1/6, 1/6, 1/3 over W = 6, not 3S = 24
        form = reduce_to_buyer_opt(PartitionProblem((2, 2, 4))).instance.ints
        assert (form.w_scales, form.probs) == ((6,), ((2, 1, 1, 2),))
        assert form.v_scale == 5 * 6 * 7


class TestSubsetBruteForce:
    def test_equal_pair(self):
        assert solve_partition_bruteforce(PartitionProblem((1, 1))) == (0,)

    def test_unsolvable_pair(self):
        assert solve_partition_bruteforce(PartitionProblem((3, 5))) is None

    def test_2_2_4(self):
        subset = solve_partition_bruteforce(PartitionProblem((2, 2, 4)))
        assert subset in ((0, 1), (2,))

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            solve_partition_bruteforce(PartitionProblem((2,) * 25))

    def test_first_subset_in_mask_order(self):
        # against the plain loop over every mask, on sorted and unsorted lists
        problems = list(sweep_size_lists(5, 5))
        rng = random.Random(11)
        while len(problems) < 400:
            sizes = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 10)))
            if sum(sizes) % 2 == 0:
                problems.append(PartitionProblem(sizes))
        for pp in problems:
            m, half = len(pp.sizes), pp.total // 2
            subsets = (tuple(i for i in range(m) if mask >> i & 1) for mask in range(1, 2**m))
            want = next((s for s in subsets if sum(pp.sizes[i] for i in s) == half), None)
            assert solve_partition_bruteforce(pp) == want, pp.sizes


class TestVerifyReduction:
    def test_solvable_pair(self):
        report = verify_reduction(PartitionProblem((1, 1)))
        assert report.equivalent
        assert report.subset == (0,)
        assert report.best_outcome.total_surplus >= F(1, 4)
        assert report.pooled_price == 1
        assert report.witness_surplus == F(4, 15)

    def test_unsolvable_pair_stays_below_target(self):
        report = verify_reduction(PartitionProblem((3, 5)))
        assert report.equivalent
        assert report.subset is None
        assert report.witness_profile is None
        assert report.best_outcome.total_surplus == F(19, 20)
        assert report.best_outcome.total_surplus < report.reduced.target

    def test_2_2_4_pools_at_half_the_total(self):
        report = verify_reduction(PartitionProblem((2, 2, 4)))
        assert report.equivalent
        assert report.pooled_price == 4
        assert report.witness_surplus >= F(5, 4)

    def test_guard(self):
        with pytest.raises(GuardExceeded):
            verify_reduction(PartitionProblem((2,) * 9))


class TestGuardBoundaries:
    """Each size guard admits a size equal to it and refuses one more,
    with the constant patched small so that both sides run fast."""

    def test_subset_guard(self, monkeypatch):
        monkeypatch.setattr(hardness, "SUBSET_GUARD", 3)
        assert solve_partition_bruteforce(PartitionProblem((1, 1, 2))) == (0, 1)
        with pytest.raises(GuardExceeded, match="2\\^4 subsets is over the guard of 2\\^3"):
            solve_partition_bruteforce(PartitionProblem((1, 1, 1, 1)))

    def test_verify_guard(self, monkeypatch):
        monkeypatch.setattr(hardness, "VERIFY_GUARD", 2)
        assert verify_reduction(PartitionProblem((1, 1))).equivalent
        with pytest.raises(GuardExceeded, match="partitions of 4 types; refusing m > 2"):
            verify_reduction(PartitionProblem((1, 1, 2)))


class TestVerifyReductionCanFail:
    """Each witness check in ``verify_reduction`` says no on its own: the
    search and the subset brute force still agree, and only the pooled
    message's best response is replaced."""

    PROBLEM = PartitionProblem((2, 2, 4))

    def patch_pooled_response(self, monkeypatch, respond):
        real = hardness.buyer_utility
        monkeypatch.setattr(
            hardness, "buyer_utility", lambda inst, msg: respond(*real(inst, msg))
        )

    def test_pooled_price_other_than_half_the_total(self, monkeypatch):
        self.patch_pooled_response(monkeypatch, lambda mass, price: (mass, price + F(1, 1000)))
        report = verify_reduction(self.PROBLEM)
        assert report.pooled_price == 4 + F(1, 1000)
        assert report.witness_surplus >= report.reduced.target
        assert report.equivalent is False

    def test_witness_mass_below_the_target(self, monkeypatch):
        target = reduce_to_buyer_opt(self.PROBLEM).target
        self.patch_pooled_response(monkeypatch, lambda mass, price: (target - F(1, 10**9), price))
        report = verify_reduction(self.PROBLEM)
        assert report.pooled_price == 4
        assert report.equivalent is False

    def test_witness_mass_at_the_target_passes(self, monkeypatch):
        target = reduce_to_buyer_opt(self.PROBLEM).target
        self.patch_pooled_response(monkeypatch, lambda mass, price: (target, price))
        assert verify_reduction(self.PROBLEM).equivalent is True


class TestSweep:
    def test_sweep_counts(self):
        problems = list(sweep_size_lists(max_m=2, max_entry=4))
        # m=1: sizes 2, 4; m=2: (1,1),(1,3),(2,2),(2,4),(3,3),(4,4)
        assert [p.sizes for p in problems] == [
            (2,),
            (4,),
            (1, 1),
            (1, 3),
            (2, 2),
            (2, 4),
            (3, 3),
            (4, 4),
        ]

    def test_small_sweep_equivalence(self):
        for pp in sweep_size_lists(max_m=3, max_entry=4):
            report = verify_reduction(pp)
            assert report.equivalent, pp
