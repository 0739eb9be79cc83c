"""Two buyers with values uniform on [0, 1] who disclose interval messages.

After both buyers reveal which interval of an agreed partition their value
lies in, the seller of a single good best-responds with the revenue-optimal
auction for the disclosed posteriors.  For a uniform posterior on [a, b]
that auction is characterized by the virtual value 2v - b: the good goes to
the buyer with the highest nonnegative virtual value, who pays the lowest
value that would still have won.  Buyer surplus is a one-dimensional closed
form per block pair, so every number here is an exact rational.  The
polygonal win regions draw the figures and serve as the tests' oracle.

A partition pair shares one integer grid (``profile_grid``): every
breakpoint of both partitions is an even int numerator over one scale, so
the block-pair surplus sums and the winner-region vertices are ints on it,
and a ``Fraction`` is built only for what is returned.

A partition block may degenerate to a single point (a buyer who disclosed
exactly); such a buyer acts as a deterministic outside option for the
seller, never earns surplus, and at an exact tie the sale goes to the
continuous buyer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .core import (
    IntervalPartition,
    ValidationError,
    format_rational,
    parse_rational,
    require_exact,
)
from .geometry import clip_halfplane, integrate_linear, rectangle


@dataclass(frozen=True)
class UniformSegment:
    """A uniform posterior on [a, b], possibly a point mass when a == b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        require_exact(self.a, "segment endpoint")
        require_exact(self.b, "segment endpoint")
        if not 0 <= self.a <= self.b:
            raise ValidationError(
                f"segment [{format_rational(self.a)}, {format_rational(self.b)}] is not ordered"
            )

    @property
    def is_point_mass(self) -> bool:
        return self.a == self.b

    @property
    def length(self) -> Fraction:
        return self.b - self.a

    def __str__(self) -> str:
        return f"[{format_rational(self.a)}, {format_rational(self.b)}]"


def segment(a, b) -> UniformSegment:
    return UniformSegment(parse_rational(a), parse_rational(b))


def virtual_value(v: Fraction, seg: UniformSegment) -> Fraction:
    """Marginal revenue of a uniform posterior on [a, b]: 2v - b."""
    return 2 * parse_rational(v) - seg.b


def inverse_virtual(x: Fraction, seg: UniformSegment) -> Fraction:
    """Value whose virtual value is x, i.e. (x + b) / 2."""
    return (parse_rational(x) + seg.b) / 2


@dataclass(frozen=True)
class AuctionOutcome:
    winner: Optional[str]  # "A", "B", or None for no sale
    payment: Fraction


def _check_in(seg: UniformSegment, v: Fraction, label: str) -> Fraction:
    v = parse_rational(v)
    if not seg.a <= v <= seg.b:
        raise ValidationError(f"{label}={format_rational(v)} outside segment {seg}")
    return v


def myerson_outcome(
    seg_a: UniformSegment, seg_b: UniformSegment, v_a, v_b
) -> AuctionOutcome:
    """Winner and payment of the seller's optimal auction at one value profile.

    The winner pays the lowest value in their own segment that still wins,
    so payments never drop below the segment's lower end.  Against a point
    mass the continuous buyer wins exactly when their virtual value reaches
    the point value, ties included.
    """
    v_a = _check_in(seg_a, v_a, "v_a")
    v_b = _check_in(seg_b, v_b, "v_b")

    if seg_a.is_point_mass and seg_b.is_point_mass:
        if v_a >= v_b:
            return AuctionOutcome("A", v_a)
        return AuctionOutcome("B", v_b)
    if seg_a.is_point_mass:
        if virtual_value(v_b, seg_b) >= v_a:
            return AuctionOutcome("B", max(seg_b.a, inverse_virtual(v_a, seg_b)))
        return AuctionOutcome("A", v_a)
    if seg_b.is_point_mass:
        if virtual_value(v_a, seg_a) >= v_b:
            return AuctionOutcome("A", max(seg_a.a, inverse_virtual(v_b, seg_a)))
        return AuctionOutcome("B", v_b)

    phi_a = virtual_value(v_a, seg_a)
    phi_b = virtual_value(v_b, seg_b)
    if phi_a >= 0 and phi_a >= phi_b:
        return AuctionOutcome("A", max(seg_a.a, inverse_virtual(max(Fraction(0), phi_b), seg_a)))
    if phi_b >= 0:
        return AuctionOutcome("B", max(seg_b.a, inverse_virtual(max(Fraction(0), phi_a), seg_b)))
    return AuctionOutcome(None, Fraction(0))


def winner_region(seg_a: UniformSegment, seg_b: UniformSegment, winner) -> list:
    """Polygon of value profiles (v_a, v_b) where ``winner`` gets the good.

    Both segments must be nondegenerate.  The regions for "A", "B", and
    None tile the value rectangle (boundaries overlap on measure zero).
    """
    if seg_a.is_point_mass or seg_b.is_point_mass:
        raise ValidationError("win regions are only defined for nondegenerate segments")
    ends = (seg_a.a, seg_a.b, seg_b.a, seg_b.b)
    return cell_region(*(parse_rational(v) for v in ends), winner)


def cell_region(a, b, c, d, winner) -> list:
    """``winner``'s region of the cell [a, b] x [c, d], clipped by two half-planes.

    Ints stay ints: on a ``profile_grid`` cell, where b and d are even, the
    lines x = b/2, y = d/2 and x - y = (b - d)/2 cross the cell's edges and
    each other at int points, so every vertex is an int.
    """
    rect = [(a, c), (b, c), (b, d), (a, d)]
    if winner == "A":
        # 2*v_a - b >= 0 and 2*v_a - b >= 2*v_b - d
        return clip_halfplane(clip_halfplane(rect, 2, 0, b), 2, -2, b - d)
    if winner == "B":
        return clip_halfplane(clip_halfplane(rect, 0, 2, d), -2, 2, d - b)
    if winner is None:
        return clip_halfplane(clip_halfplane(rect, -2, 0, -b), 0, -2, -d)
    raise ValidationError(f"winner must be 'A', 'B', or None, got {winner!r}")


def pair_surplus(seg_a: UniformSegment, seg_b: UniformSegment) -> tuple[Fraction, Fraction]:
    """Expected buyer utilities conditional on the two disclosed segments.

    For a winner on [a, b] the expected payment telescopes against the
    virtual value, leaving utility b - v integrated over the win region.
    At each own value the winning opponent values form an interval, so
    that integral is one-dimensional and settles in closed form (see
    ``_own_utility``); ties have measure zero.  Point masses earn zero; the
    continuous opponent's win region is then a one-dimensional threshold
    handled directly.
    """
    if seg_a.is_point_mass and seg_b.is_point_mass:
        return Fraction(0), Fraction(0)
    if seg_a.is_point_mass:
        return Fraction(0), _point_vs_uniform(seg_a.a, seg_b)
    if seg_b.is_point_mass:
        return _point_vs_uniform(seg_b.a, seg_a), Fraction(0)
    # Measure values in units of 1/den, den even, so every cut point below
    # is an integer; each utility is then one int over a shared denominator.
    ends = (seg_a.a, seg_a.b, seg_b.a, seg_b.b)
    den = 2 * lcm(*(v.denominator for v in ends))
    a, b, c, d = (v.numerator * (den // v.denominator) for v in ends)
    scale = 6 * den * (b - a) * (d - c)
    return Fraction(_own_utility(a, b, c, d), scale), Fraction(_own_utility(c, d, a, b), scale)


def _own_utility(a: int, b: int, c: int, d: int) -> int:
    """Six times the integral of (b - x) over own values x winning against [c, d].

    Own values x on [a, b] win where x >= b/2 and the opponent's value on
    [c, d] is at most x - (b - d)/2: a y-interval of length
    clamp(x - k, 0, w) with k = c + (b - d)/2 and w = d - c.  Over
    [max(a, b/2), b] that is a ramp piece on [k, k + w] and a flat piece of
    height w above k + w = (b + d)/2.  Needs b and d even.
    """
    lo = max(a, b // 2)
    k = c + (b - d) // 2
    top = (b + d) // 2
    total = 0
    s, e = max(lo, k), min(b, top)
    if s < e:
        total += (e - s) * (3 * (b + k) * (e + s) - 6 * b * k - 2 * (e * e + e * s + s * s))
    s = max(lo, top)
    if s < b:
        total += 3 * (d - c) * (b - s) ** 2
    return total


def _point_vs_uniform(point: Fraction, seg: UniformSegment) -> Fraction:
    # critical type: lowest value in the segment beating the outside option
    threshold = max(seg.a, inverse_virtual(point, seg))
    if threshold >= seg.b:
        return Fraction(0)
    return (seg.b - threshold) ** 2 / (2 * seg.length)


# ---------------------------------------------------------------------------
# partition profiles


@dataclass(frozen=True)
class SurplusRow:
    """One block pair's probability-weighted contribution to buyer surplus."""

    seg_a: UniformSegment
    seg_b: UniformSegment
    prob: Fraction
    u_a: Fraction
    u_b: Fraction

    @property
    def total(self) -> Fraction:
        return self.u_a + self.u_b


@dataclass(frozen=True)
class ProfileSurplus:
    rows: tuple[SurplusRow, ...]
    u_a: Fraction
    u_b: Fraction

    @property
    def total(self) -> Fraction:
        return self.u_a + self.u_b


def profile_grid(
    pa: IntervalPartition, pb: IntervalPartition
) -> tuple[int, list[int], list[int]]:
    """One integer grid for a partition pair: (den, A's ticks, B's ticks).

    den is twice the lcm of every breakpoint denominator of both
    partitions, and each partition's breakpoints become int numerators over
    den, all even.
    """
    points = pa.breakpoints + pb.breakpoints
    den = 2 * lcm(*(t.denominator for t in points))

    def ticks(p: IntervalPartition) -> list[int]:
        return [t.numerator * (den // t.denominator) for t in p.breakpoints]

    return den, ticks(pa), ticks(pb)


def profile_surplus(pa: IntervalPartition, pb: IntervalPartition) -> ProfileSurplus:
    """Ex-ante buyer surplus of a disclosure profile, block pair by block pair.

    Row utilities are unconditional contributions (block-pair probability
    already applied), so the row columns sum exactly to the totals.  On the
    pair's ``profile_grid`` a row's probability is (b - a)(d - c) / den^2
    and its utilities are ``_own_utility`` / (6 den^3): the probability
    cancels the scale ``pair_surplus`` divides by, so every sum is an int.
    """
    den, xs, ys = profile_grid(pa, pb)
    segs_b = [UniformSegment(lo, hi) for lo, hi in pb.blocks()]
    area = den * den
    scale = 6 * den * area
    rows = []
    total_a = total_b = 0
    for (lo_a, hi_a), a, b in zip(pa.blocks(), xs, xs[1:]):
        seg_a = UniformSegment(lo_a, hi_a)
        for seg_b, c, d in zip(segs_b, ys, ys[1:]):
            ua = _own_utility(a, b, c, d)
            ub = _own_utility(c, d, a, b)
            rows.append(
                SurplusRow(
                    seg_a,
                    seg_b,
                    Fraction((b - a) * (d - c), area),
                    Fraction(ua, scale),
                    Fraction(ub, scale),
                )
            )
            total_a += ua
            total_b += ub
    return ProfileSurplus(tuple(rows), Fraction(total_a, scale), Fraction(total_b, scale))


def surplus_to_csv(out: ProfileSurplus) -> str:
    """One CSV row per block pair: endpoints, pair probability, utilities."""
    lines = ["a,b,c,d,prob,uA,uB"]
    for row in out.rows:
        lines.append(
            ",".join(
                format_rational(x)
                for x in (
                    row.seg_a.a,
                    row.seg_a.b,
                    row.seg_b.a,
                    row.seg_b.b,
                    row.prob,
                    row.u_a,
                    row.u_b,
                )
            )
        )
    return "\n".join(lines) + "\n"


def zeno_partition(depth: int) -> IntervalPartition:
    """Breakpoints 0 < 2^-depth < ... < 1/2 < 1: repeated halving toward zero."""
    if type(depth) is not int or depth < 0:
        raise ValidationError("depth must be a nonnegative integer")
    if depth > 64:
        raise ValidationError("depth beyond 64 is numerically pointless")
    points = [Fraction(0)] + [Fraction(1, 2**k) for k in range(depth, -1, -1)]
    return IntervalPartition(tuple(points))


@dataclass(frozen=True)
class ThresholdSplit:
    """Per-quadrant contributions to one buyer's surplus under a threshold t.

    Both buyers use the partition {[0, t], [t, 1]}; quadrants are named by
    (own block, other's block).  ``per_buyer`` is the four-way sum and
    ``total`` counts both buyers.
    """

    t: Fraction
    low_low: Fraction
    low_high: Fraction
    high_low: Fraction
    high_high: Fraction

    @property
    def per_buyer(self) -> Fraction:
        return self.low_low + self.low_high + self.high_low + self.high_high

    @property
    def total(self) -> Fraction:
        return 2 * self.per_buyer


def threshold_surplus(t) -> ThresholdSplit:
    """Quadrant breakdown for the symmetric one-threshold profile, t in [0, 1/2].

    A view of ``profile_surplus`` on {[0, t], [t, 1]}: buyer A's ``u_a`` on
    its rows, which come low-low, low-high, high-low, high-high.  At t = 0
    the one block is the high one, so the low quadrants are 0.
    """
    t = parse_rational(t)
    if not 0 <= t <= Fraction(1, 2):
        raise ValidationError("threshold breakdown is defined for t in [0, 1/2]")
    split = IntervalPartition((0, t, 1) if t else (0, 1))
    rows = profile_surplus(split, split).rows
    return ThresholdSplit(t, *[Fraction(0)] * (4 - len(rows)), *(row.u_a for row in rows))


def full_disclosure_vs_silent_limit() -> tuple[Fraction, Fraction]:
    """Utilities when buyer A discloses exactly and buyer B stays silent.

    A known value acts as a reserve the silent buyer must clear, so A earns
    nothing and B's utility integrates (1 - v_b) over the region where
    2*v_b - 1 >= v_a, a triangle.
    """
    region = clip_halfplane(rectangle(0, 1, 0, 1), -1, 2, 1)
    return Fraction(0), integrate_linear(region, 1, 0, -1)


# ---------------------------------------------------------------------------
# inefficiency witnesses


@dataclass(frozen=True)
class Witness:
    """A value profile where the seller's best response misallocates the good.

    ``kind`` is "no_sale" (positive value, no trade) or "lower_value_wins";
    ``outcome`` is the replayed auction outcome on the witnessed blocks.
    """

    v_a: Fraction
    v_b: Fraction
    seg_a: UniformSegment
    seg_b: UniformSegment
    outcome: AuctionOutcome
    kind: str


def _segment_at(partition: Optional[IntervalPartition], x: Fraction) -> UniformSegment:
    if partition is None:
        return UniformSegment(x, x)
    lo, hi = partition.block_containing(x)
    return UniformSegment(lo, hi)


def _classify(pa, pb, v_a: Fraction, v_b: Fraction) -> Witness:
    seg_a = _segment_at(pa, v_a)
    seg_b = _segment_at(pb, v_b)
    out = myerson_outcome(seg_a, seg_b, v_a, v_b)
    if out.winner is None:
        if max(v_a, v_b) <= 0:
            raise AssertionError("witness replay found no inefficiency")
        kind = "no_sale"
    else:
        won, lost = (v_a, v_b) if out.winner == "A" else (v_b, v_a)
        if won >= lost:
            raise AssertionError("witness replay found no inefficiency")
        kind = "lower_value_wins"
    return Witness(v_a, v_b, seg_a, seg_b, out, kind)


def efficiency_witness(pa: Optional[IntervalPartition], pb: Optional[IntervalPartition]):
    """Construct a value profile proving the profile's outcome inefficient.

    Takes the top block [a, b] of a partition with nondegenerate blocks
    (either buyer; None stands for disclosing exactly, whose blocks are all
    points) and probes x = (max(0, 2a - b) + a) / 2 in the other buyer's
    partition.  Case analysis on the containing block [c, d] yields either
    a no-sale profile or one where the lower-valued buyer wins.  Returns
    the string "fully disclosing" when both buyers disclose exactly, since
    exact disclosure is the one efficient profile.
    """
    if pa is None and pb is None:
        return "fully disclosing"
    if pa is not None:
        own, other, a_owns = pa, pb, True
    else:
        own, other, a_owns = pb, pa, False

    a, b = own.blocks()[-1]
    x = (max(Fraction(0), 2 * a - b) + a) / 2

    if x == 0:
        v_own, v_other = b / 4, Fraction(0)
    else:
        block = other.block_containing(x) if other is not None else (x, x)
        c, d = block
        if d <= a:
            eps = min((x - (2 * a - b)) / 2, b - a) / 2
            v_own, v_other = a + eps, (x + d) / 2
        elif d < b:
            v_own, v_other = d + (b - d) / 4, d
        else:  # d == b: step into the neighbor block below [a, b]
            a2, b2 = own.block_containing((x + a) / 2)
            v_own, v_other = b2, b2 + (d - b2) / 4

    v_a, v_b = (v_own, v_other) if a_owns else (v_other, v_own)
    return _classify(pa, pb, v_a, v_b)
