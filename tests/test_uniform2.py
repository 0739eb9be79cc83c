import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disclosure_games.core import IntervalPartition, ValidationError
from disclosure_games.geometry import (
    clip_halfplane,
    integrate_linear,
    polygon_area,
    rectangle,
)
from disclosure_games.uniform2 import (
    UniformSegment,
    Witness,
    cell_region,
    efficiency_witness,
    full_disclosure_vs_silent_limit,
    inverse_virtual,
    myerson_outcome,
    pair_surplus,
    profile_grid,
    profile_surplus,
    segment,
    surplus_to_csv,
    threshold_surplus,
    virtual_value,
    winner_region,
    zeno_partition,
)

F = Fraction
SILENT = IntervalPartition.from_string("0,1")
HALF = IntervalPartition.from_string("0,1/2,1")


def rand_fraction(rng, lo=F(0), hi=F(1), den=2**24):
    return lo + (hi - lo) * F(rng.randrange(den + 1), den)


def rand_partition(rng, max_blocks=4):
    k = rng.randint(1, max_blocks)
    cuts = sorted({F(rng.randrange(1, 64), 64) for _ in range(k - 1)})
    return IntervalPartition(tuple([F(0)] + cuts + [F(1)]))


MIXED_DENOMINATORS = (3, 7, 10, 2**30)


def rand_mixed_partition(rng):
    """0-6 cuts, each over a denominator drawn from MIXED_DENOMINATORS."""
    cuts = set()
    for _ in range(rng.randint(0, 6)):
        den = rng.choice(MIXED_DENOMINATORS)
        cuts.add(F(rng.randrange(1, den), den))
    return IntervalPartition(tuple([F(0)] + sorted(cuts) + [F(1)]))


def _mixed_cut():
    return st.sampled_from(MIXED_DENOMINATORS).flatmap(
        lambda den: st.integers(1, den - 1).map(lambda num: F(num, den))
    )


PARTITIONS = st.one_of(
    st.lists(_mixed_cut(), max_size=6).map(
        lambda cuts: IntervalPartition(tuple([F(0)] + sorted(set(cuts)) + [F(1)]))
    ),
    st.integers(0, 30).map(zeno_partition),
)


class TestVirtualValues:
    def test_formula(self):
        seg = segment("1/2", "1")
        assert virtual_value(F(3, 4), seg) == F(1, 2)
        assert inverse_virtual(F(1, 2), seg) == F(3, 4)

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            seg = segment(0, rand_fraction(rng, F(1, 8), F(1)))
            v = rand_fraction(rng, seg.a, seg.b)
            assert inverse_virtual(virtual_value(v, seg), seg) == v

    def test_reserve_is_half_the_top(self):
        assert inverse_virtual(F(0), segment(0, 1)) == F(1, 2)
        assert inverse_virtual(F(0), segment("1/4", "3/4")) == F(3, 8)


class TestMyersonOutcome:
    def test_mixed_quadrant_point(self):
        out = myerson_outcome(segment(0, "1/2"), segment("1/2", 1), F(3, 8), F(9, 16))
        assert out.winner == "A"
        assert out.payment == F(5, 16)

    def test_tie_goes_to_a(self):
        out = myerson_outcome(segment(0, 1), segment(0, 1), F(3, 4), F(3, 4))
        assert out.winner == "A"
        assert out.payment == F(3, 4)

    def test_no_sale_below_both_reserves(self):
        out = myerson_outcome(segment(0, 1), segment(0, 1), F(1, 4), F(1, 3))
        assert out.winner is None

    def test_payment_clamps_at_segment_bottom(self):
        # B's virtual value is negative, A's reserve b/2 sits below a
        out = myerson_outcome(segment("3/4", 1), segment(0, "1/2"), F(7, 8), F(1, 8))
        assert out.winner == "A"
        assert out.payment == F(3, 4)

    def test_point_mass_acts_as_reserve(self):
        pm = segment("1/2", "1/2")
        u = segment(0, 1)
        win = myerson_outcome(pm, u, F(1, 2), F(7, 8))
        assert win.winner == "B" and win.payment == F(3, 4)
        lose = myerson_outcome(pm, u, F(1, 2), F(5, 8))
        assert lose.winner == "A" and lose.payment == F(1, 2)
        # exact tie: sale goes to the continuous buyer
        tie = myerson_outcome(pm, u, F(1, 2), F(3, 4))
        assert tie.winner == "B" and tie.payment == F(3, 4)

    def test_two_point_masses_extract_fully(self):
        out = myerson_outcome(segment("1/3", "1/3"), segment("2/3", "2/3"), F(1, 3), F(2, 3))
        assert out.winner == "B" and out.payment == F(2, 3)

    @pytest.mark.parametrize(
        "a, b, winner, payment",
        [("2/3", "1/3", "A", "2/3"), ("1/3", "2/3", "B", "2/3"), ("1/2", "1/2", "A", "1/2")],
        ids=["a-above", "a-below", "tie-to-a"],
    )
    def test_two_point_masses_sell_to_the_higher_value(self, a, b, winner, payment):
        # each buyer's value is known, so the seller sells at it; a tie goes to A
        out = myerson_outcome(segment(a, a), segment(b, b), F(a), F(b))
        assert (out.winner, out.payment) == (winner, F(payment))

    def test_winner_never_pays_above_value(self):
        rng = random.Random(11)
        for _ in range(300):
            a, b = sorted(rand_fraction(rng, den=64) for _ in range(2))
            c, d = sorted(rand_fraction(rng, den=64) for _ in range(2))
            sa, sb = UniformSegment(a, b), UniformSegment(c, d)
            va, vb = rand_fraction(rng, a, b), rand_fraction(rng, c, d)
            out = myerson_outcome(sa, sb, va, vb)
            if out.winner == "A":
                assert out.payment <= va and virtual_value(va, sa) >= 0 or sa.is_point_mass
                assert out.payment <= va
            elif out.winner == "B":
                assert out.payment <= vb

    def test_value_outside_segment_rejected(self):
        with pytest.raises(ValidationError):
            myerson_outcome(segment(0, "1/2"), segment(0, 1), F(3, 4), F(1, 2))
        for v in (0.25, True):
            with pytest.raises(ValidationError):
                myerson_outcome(segment(0, "1/2"), segment(0, 1), v, F(1, 2))

    def test_inexact_segments_rejected(self):
        for a, b in ((0.1, 0.5), (0, True), (F(0), "1/2")):
            with pytest.raises(ValidationError):
                UniformSegment(a, b)
        for a, b in ((0.1, 0.5), (0, True)):
            with pytest.raises(ValidationError):
                segment(a, b)
        assert segment("1/10", 1) == UniformSegment(F(1, 10), F(1))


class TestPairSurplus:
    def test_silent_pair(self):
        assert pair_surplus(segment(0, 1), segment(0, 1)) == (F(1, 12), F(1, 12))

    def test_low_low(self):
        assert pair_surplus(segment(0, "1/2"), segment(0, "1/2")) == (F(1, 24), F(1, 24))

    def test_high_high(self):
        assert pair_surplus(segment("1/2", 1), segment("1/2", 1)) == (F(1, 12), F(1, 12))

    def test_mixed_quadrant_conditionals(self):
        ua, ub = pair_surplus(segment(0, "1/2"), segment("1/2", 1))
        assert (ua, ub) == (F(1, 96), F(19, 96))
        # mirrored pair swaps the roles
        ua2, ub2 = pair_surplus(segment("1/2", 1), segment(0, "1/2"))
        assert (ua2, ub2) == (F(19, 96), F(1, 96))

    def test_point_mass_pairs(self):
        assert pair_surplus(segment("1/3", "1/3"), segment("3/4", "3/4")) == (F(0), F(0))
        # point at 0 vs U[0,1]: threshold 1/2, utility (1-1/2)^2/2 = 1/8
        assert pair_surplus(segment(0, 0), segment(0, 1)) == (F(0), F(1, 8))
        # point above the top virtual value: no surplus either side
        assert pair_surplus(segment(1, 1), segment(0, 1)) == (F(0), F(0))

    def test_degenerate_threshold_clamps_at_bottom(self):
        # point at 0 vs U[3/4, 1]: every type wins and pays 3/4
        assert pair_surplus(segment(0, 0), segment("3/4", 1)) == (F(0), F(1, 8))

    def test_matches_polygon_integrals(self):
        # the polygon path is the independent reference for the closed form
        def polygon_surplus(sa, sb):
            scale = sa.length * sb.length
            ua = integrate_linear(winner_region(sa, sb, "A"), sa.b, -1, 0) / scale
            ub = integrate_linear(winner_region(sa, sb, "B"), sb.b, 0, -1) / scale
            return ua, ub

        pairs = []
        for n in (2, 4, 8):
            segs = [segment(F(i, n), F(j, n)) for i in range(n) for j in range(i + 1, n + 1)]
            pairs += [(sa, sb) for sa in segs for sb in segs]
        rng = random.Random(41)
        for _ in range(2000):
            a, b, c, d = (rand_fraction(rng, den=rng.choice((3, 7, 10, 2**30))) for _ in range(4))
            if a != b and c != d:
                pairs.append((segment(min(a, b), max(a, b)), segment(min(c, d), max(c, d))))
        for sa, sb in pairs:
            assert pair_surplus(sa, sb) == polygon_surplus(sa, sb), (sa, sb)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.fractions(0, 1, max_denominator=64), min_size=4, max_size=4),
        st.booleans(),
        st.booleans(),
        st.fractions(F(1, 1000), 1000, max_denominator=1000),
    )
    def test_scaling_both_segments_scales_utilities(self, ends, point_a, point_b, s):
        a, b, c, d = ends
        sa = segment(min(a, b), min(a, b) if point_a else max(a, b))
        sb = segment(min(c, d), min(c, d) if point_b else max(c, d))
        scaled = pair_surplus(segment(s * sa.a, s * sa.b), segment(s * sb.a, s * sb.b))
        assert scaled == tuple(s * u for u in pair_surplus(sa, sb))


class TestWinnerRegions:
    def test_regions_tile_the_rectangle(self):
        rng = random.Random(23)
        for _ in range(40):
            a, b = sorted(rand_fraction(rng, den=32) for _ in range(2))
            c, d = sorted(rand_fraction(rng, den=32) for _ in range(2))
            if a == b or c == d:
                continue
            sa, sb = UniformSegment(a, b), UniformSegment(c, d)
            areas = sum(polygon_area(winner_region(sa, sb, w)) for w in ("A", "B", None))
            assert areas == (b - a) * (d - c)

    def test_no_disclosure_geometry(self):
        sa = sb = segment(0, 1)
        assert polygon_area(winner_region(sa, sb, None)) == F(1, 4)
        assert polygon_area(winner_region(sa, sb, "A")) == F(3, 8)
        assert polygon_area(winner_region(sa, sb, "B")) == F(3, 8)

    def test_membership_matches_outcomes(self):
        rng = random.Random(29)
        cases = [(segment(0, "1/2"), segment("1/4", 1))]
        while len(cases) < 13:
            a, b, c, d = (rand_fraction(rng, den=rng.choice((3, 7, 10, 97))) for _ in range(4))
            if a != b and c != d:
                cases.append((segment(min(a, b), max(a, b)), segment(min(c, d), max(c, d))))
        for sa, sb in cases:
            regions = {w: winner_region(sa, sb, w) for w in ("A", "B", None)}
            for _ in range(100):
                va = rand_fraction(rng, sa.a, sa.b, den=rng.choice((7, 128, 1000)))
                vb = rand_fraction(rng, sb.a, sb.b, den=rng.choice((7, 128, 1000)))
                out = myerson_outcome(sa, sb, va, vb)
                poly = regions[out.winner]
                # winner's region must contain the point (boundary included)
                assert _contains(poly, va, vb), (sa, sb, va, vb)

    def test_grid_cells_have_int_vertices_and_tile(self):
        # the figure's path: every winner-region vertex of a profile_grid
        # cell is an int, and over den it is winner_region's Fraction vertex
        rng = random.Random(43)
        for _ in range(30):
            pa, pb = rand_mixed_partition(rng), rand_mixed_partition(rng)
            den, xs, ys = profile_grid(pa, pb)
            assert den % 2 == 0 and all(t % 2 == 0 for t in xs + ys)
            assert [F(t, den) for t in xs] == list(pa.breakpoints)
            assert [F(t, den) for t in ys] == list(pb.breakpoints)
            for (a, b), (lo_a, hi_a) in zip(zip(xs, xs[1:]), pa.blocks()):
                for (c, d), (lo_b, hi_b) in zip(zip(ys, ys[1:]), pb.blocks()):
                    sa, sb = UniformSegment(lo_a, hi_a), UniformSegment(lo_b, hi_b)
                    area = 0
                    for w in ("A", "B", None):
                        poly = cell_region(a, b, c, d, w)
                        assert all(type(v) is int for pt in poly for v in pt), poly
                        scaled = [(F(x, den), F(y, den)) for x, y in poly]
                        assert scaled == winner_region(sa, sb, w)
                        area += polygon_area(poly)
                    assert area == (b - a) * (d - c)


def _contains(poly, x, y):
    n = len(poly)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        (x0, y0), (x1, y1) = poly[i], poly[(i + 1) % n]
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if cross == 0:
            continue
        s = 1 if cross > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


class TestGeometryInputs:
    def test_floats_and_booleans_rejected(self):
        square = rectangle(0, 1, 0, 1)
        for bad in (0.1, True):
            with pytest.raises(ValidationError):
                rectangle(0, bad, 0, 1)
            with pytest.raises(ValidationError):
                clip_halfplane(square, 1, 0, bad)
            with pytest.raises(ValidationError):
                integrate_linear(square, bad, 0, 0)

    def test_float_and_boolean_coordinates_rejected(self):
        for bad in (0.5, True):
            for poly in ([(0, 0), (1, bad), (0, 1)], [(bad, 0)]):
                with pytest.raises(ValidationError):
                    clip_halfplane(poly, 1, 0, 0)
                with pytest.raises(ValidationError):
                    polygon_area(poly)
                with pytest.raises(ValidationError):
                    integrate_linear(poly, 1, 0, 0)

    def test_exact_inputs_accepted(self):
        assert rectangle(0, "1/10", 0, 1)[1] == (F(1, 10), F(0))
        half = clip_halfplane(rectangle(0, 1, 0, 1), F(-1), 0, "-1/2")
        assert all(type(v) is F for pt in half for v in pt)
        assert polygon_area(half) == F(1, 2)
        assert integrate_linear(half, 0, 1, 0) == F(1, 8)

    def test_int_polygons_stay_exact(self):
        triangle = [(0, 0), (1, 0), (0, 1)]
        for value in (integrate_linear(triangle, 1, 0, 0), polygon_area(triangle)):
            assert value == F(1, 2) and type(value) is F
        assert integrate_linear(triangle, 0, 1, 0) == F(1, 6)
        square = [(0, 0), (4, 0), (4, 4), (0, 4)]
        # an exact crossing stays an int, an inexact one becomes a Fraction
        assert clip_halfplane(square, 2, 0, 4) == [(2, 0), (4, 0), (4, 4), (2, 4)]
        third = clip_halfplane(square, 3, 0, 4)
        assert third == [(F(4, 3), 0), (4, 0), (4, 4), (F(4, 3), 4)]
        types = [tuple(map(type, pt)) for pt in third]
        assert types == [(F, int), (int, int), (int, int), (F, int)]


class TestProfileSurplus:
    def test_half_half_rows(self):
        rep = profile_surplus(HALF, HALF)
        assert rep.total == F(1, 6)
        by_pair = {(row.seg_a.a, row.seg_b.a): row.total for row in rep.rows}
        assert by_pair[(F(0), F(0))] == F(1, 48)
        assert by_pair[(F(1, 2), F(1, 2))] == F(1, 24)
        assert by_pair[(F(0), F(1, 2))] == F(5, 96)
        assert by_pair[(F(1, 2), F(0))] == F(5, 96)

    def test_rows_sum_to_totals(self):
        rng = random.Random(31)
        for _ in range(20):
            pa, pb = rand_partition(rng), rand_partition(rng)
            rep = profile_surplus(pa, pb)
            assert sum(r.u_a for r in rep.rows) == rep.u_a
            assert sum(r.u_b for r in rep.rows) == rep.u_b
            assert sum(r.prob for r in rep.rows) == 1

    @settings(max_examples=100, deadline=None)
    @given(PARTITIONS, PARTITIONS)
    def test_rows_match_pair_surplus(self, pa, pb):
        rep = profile_surplus(pa, pb)
        blocks = [(a, b, c, d) for a, b in pa.blocks() for c, d in pb.blocks()]
        assert [(r.seg_a.a, r.seg_a.b, r.seg_b.a, r.seg_b.b) for r in rep.rows] == blocks
        for row in rep.rows:
            ua, ub = pair_surplus(row.seg_a, row.seg_b)
            assert row.prob == row.seg_a.length * row.seg_b.length
            assert (row.u_a, row.u_b) == (row.prob * ua, row.prob * ub)
        assert sum(r.u_a for r in rep.rows) == rep.u_a
        assert sum(r.u_b for r in rep.rows) == rep.u_b

    def test_no_disclosure(self):
        rep = profile_surplus(SILENT, SILENT)
        assert (rep.u_a, rep.u_b) == (F(1, 12), F(1, 12))

    def test_half_vs_silent(self):
        rep = profile_surplus(HALF, SILENT)
        assert rep.u_a == F(13, 128)
        assert rep.u_b == F(9, 128)
        assert rep.total == F(11, 64)


def quadrant_oracle(t: Fraction) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Buyer A's four quadrants under {[0, t], [t, 1]}, low-low, low-high,
    high-low, high-high: each block pair's conditional ``pair_surplus``
    times the pair's probability, with the one block [0, 1] at t = 0."""
    if t == 0:
        whole = UniformSegment(F(0), F(1))
        return F(0), F(0), F(0), pair_surplus(whole, whole)[0]
    blocks = ((UniformSegment(F(0), t), t), (UniformSegment(t, F(1)), 1 - t))
    return tuple(
        p_own * p_other * pair_surplus(own, other)[0]
        for own, p_own in blocks
        for other, p_other in blocks
    )


class TestThresholdFamily:
    @pytest.mark.parametrize("den", [3, 7, 10, 97, 1000, 999983, 2**40 + 1])
    def test_matches_the_quadrant_oracle(self, den):
        rng = random.Random(den)
        thresholds = [F(rng.randint(1, den // 2), den) for _ in range(6)]
        if den == 3:
            thresholds += [F(0), F(1, 2)]
        for t in thresholds:
            split = threshold_surplus(t)
            quadrants = (split.low_low, split.low_high, split.high_low, split.high_high)
            assert split.t == t
            assert quadrants == quadrant_oracle(t), t

    def test_quarter_threshold_low_low(self):
        split = threshold_surplus(F(1, 4))
        assert split.low_low == F(1, 768)

    @pytest.mark.parametrize("t", [F(0), F(1, 8), F(1, 4), F(1, 3), F(5, 12), F(1, 2)])
    def test_closed_forms(self, t):
        split = threshold_surplus(t)
        assert split.low_low == t**3 / 12
        assert split.high_high == F(1, 12) - t / 8
        assert split.high_low == t / 8 - t**2 / 16 + t**3 / 48
        assert split.low_high == t**2 / 16 - 5 * t**3 / 48
        assert split.per_buyer == F(1, 12)
        assert split.total == F(1, 6)

    def test_random_thresholds_keep_the_invariant_total(self):
        rng = random.Random(37)
        for _ in range(25):
            t = rand_fraction(rng, F(0), F(1, 2), den=240)
            assert threshold_surplus(t).total == F(1, 6)

    def test_outside_range_rejected(self):
        with pytest.raises(ValidationError):
            threshold_surplus(F(2, 3))
        for t in (0.25, True):
            with pytest.raises(ValidationError):
                threshold_surplus(t)

    def test_matches_profile_surplus(self):
        t = F(1, 3)
        split = threshold_surplus(t)
        split_at_t = IntervalPartition((F(0), t, F(1)))
        rep = profile_surplus(split_at_t, split_at_t)
        assert rep.u_a == split.per_buyer
        assert rep.total == split.total


class TestZeno:
    def test_breakpoints(self):
        assert zeno_partition(0).breakpoints == (F(0), F(1))
        assert zeno_partition(2).breakpoints == (F(0), F(1, 4), F(1, 2), F(1))
        assert len(zeno_partition(12).breakpoints) == 14

    def test_depth_must_be_a_nonnegative_integer(self):
        for depth in (-1, True, "2"):
            with pytest.raises(ValidationError):
                zeno_partition(depth)

    def test_depth_one_is_the_half_split(self):
        assert zeno_partition(1).breakpoints == HALF.breakpoints

    def test_own_surplus_grows_against_a_silent_buyer(self):
        # repeated halving refines toward the discloser-optimal partition,
        # so the discloser's utility rises with depth (it does not shrink
        # toward the exact-disclosure limit, which a uniform mesh reaches)
        values = [profile_surplus(zeno_partition(k), SILENT).u_a for k in range(1, 7)]
        assert values[0] == F(13, 128)
        assert values[1] == F(325, 3072)
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_symmetric_zeno_approaches_the_limit(self):
        target = F(23, 147)
        gaps = []
        for k in (2, 4, 6):
            p = zeno_partition(k)
            gaps.append(abs(profile_surplus(p, p).total - target))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < F(1, 1000)


def test_full_disclosure_vs_silent_limit():
    assert full_disclosure_vs_silent_limit() == (F(0), F(1, 24))


def test_uniform_mesh_refinement_approaches_the_limit():
    # past the two-block optimum, finer equal-width disclosure against a
    # silent buyer drains the discloser's utility toward the (0, 1/24) limit
    ua_seq, ub_seq = [], []
    for k in (1, 2, 3, 4, 5):
        blocks = 2**k
        pa = IntervalPartition(tuple(F(i, blocks) for i in range(blocks + 1)))
        rep = profile_surplus(pa, SILENT)
        ua_seq.append(rep.u_a)
        ub_seq.append(rep.u_b)
    assert all(x > y for x, y in zip(ua_seq, ua_seq[1:]))
    assert all(x > y for x, y in zip(ub_seq, ub_seq[1:]))
    assert ua_seq[-1] < F(1, 64)
    assert abs(ub_seq[-1] - F(1, 24)) < F(1, 500)


class TestEfficiencyWitness:
    def test_half_vs_silent_case(self):
        w = efficiency_witness(HALF, SILENT)
        assert isinstance(w, Witness)
        assert (w.v_a, w.v_b) == (F(1, 2), F(5, 8))
        assert w.kind == "lower_value_wins"
        assert w.outcome.winner == "A"

    def test_silent_profile_has_a_no_sale_point(self):
        w = efficiency_witness(SILENT, SILENT)
        assert w.kind == "no_sale"
        assert (w.v_a, w.v_b) == (F(1, 4), F(0))

    def test_fully_disclosing_is_efficient(self):
        assert efficiency_witness(None, None) == "fully disclosing"

    def test_exact_discloser_against_silent(self):
        w = efficiency_witness(None, SILENT)
        assert w.kind == "lower_value_wins"
        assert w.seg_a.is_point_mass

    def test_random_profiles_always_yield_confirmed_witnesses(self):
        rng = random.Random(41)
        kinds = set()
        for _ in range(150):
            w = efficiency_witness(rand_partition(rng), rand_partition(rng))
            assert isinstance(w, Witness)  # _classify already replayed it
            kinds.add(w.kind)
        assert "lower_value_wins" in kinds

    def test_finely_partitioned_opponent_hits_the_low_block_case(self):
        pa = IntervalPartition.from_string("0,7/8,1")
        pb = IntervalPartition.from_string("0,1/2,13/16,1")
        w = efficiency_witness(pa, pb)
        assert w.kind == "lower_value_wins"
        assert w.outcome.winner == "B"
        assert w.v_b < w.v_a


class TestMonteCarloAgreement:
    def test_mixed_pair_agrees_within_four_sigma(self):
        sa, sb = segment(0, "1/2"), segment("1/2", 1)
        exact_a, exact_b = pair_surplus(sa, sb)
        rng = random.Random(12345)
        n = 40_000
        tot_a = tot_b = 0.0
        sq_a = sq_b = 0.0
        for _ in range(n):
            va = rand_fraction(rng, sa.a, sa.b, den=2**32)
            vb = rand_fraction(rng, sb.a, sb.b, den=2**32)
            out = myerson_outcome(sa, sb, va, vb)
            ua = float(va - out.payment) if out.winner == "A" else 0.0
            ub = float(vb - out.payment) if out.winner == "B" else 0.0
            tot_a += ua
            tot_b += ub
            sq_a += ua * ua
            sq_b += ub * ub
        for tot, sq, exact in ((tot_a, sq_a, exact_a), (tot_b, sq_b, exact_b)):
            mean = tot / n
            var = max(sq / n - mean * mean, 1e-12)
            se = (var / n) ** 0.5
            assert abs(mean - float(exact)) <= 4 * se


class TestCsvExport:
    def test_columns_and_row_count(self):
        pa = IntervalPartition.from_string("0,1/2,1")
        text = surplus_to_csv(profile_surplus(pa, SILENT))
        lines = text.splitlines()
        assert lines[0] == "a,b,c,d,prob,uA,uB"
        assert len(lines) == 3
        assert lines[1] == "0,1/2,0,1,1/2,7/384,19/384"

    def test_utility_columns_sum_to_totals(self):
        pa = IntervalPartition.from_string("0,1/4,2/3,1")
        pb = IntervalPartition.from_string("0,1/2,1")
        out = profile_surplus(pa, pb)
        rows = surplus_to_csv(out).splitlines()[1:]
        ua = sum(F(r.split(",")[5]) for r in rows)
        ub = sum(F(r.split(",")[6]) for r in rows)
        assert (ua, ub) == (out.u_a, out.u_b)

    def test_zeno_twelve_bytes_are_pinned(self):
        # whole-table digest: no change to the exact arithmetic may move a byte
        text = surplus_to_csv(profile_surplus(zeno_partition(12), zeno_partition(12)))
        data = text.encode()
        assert len(data) == 9516
        assert hashlib.sha256(data).hexdigest() == (
            "5bad8df7610f3f208bf5a6656526af0532be70bd7a77ae89d2fcbf374760921a"
        )
