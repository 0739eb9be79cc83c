"""Executable battery of the package's headline numeric claims.

Each criterion is a self-contained check with a time budget.  Exact
claims use rational equality; the two statistical items state their
tolerance (a three-sigma band, an agreement ratio) explicitly.  The
registry drives both ``tests/test_acceptance.py`` and the ``suite``
subcommand of the command line interface.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .core import SILENT, BuyerType, DiscreteInstance, IntervalPartition, format_rational
from .dpconnected import (
    SingleBuyerInstance,
    brute_force_connected,
    inapproximability_instance,
    optimal_connected,
)
from .game import (
    evaluate_profile,
    no_disclosure_profile,
    rare_lows_regression,
    search_best,
    search_profiles,
)
from .hardness import sweep_size_lists, verify_reduction
from .lpmech import (
    joint_prob,
    joint_types,
    posted_menu_view,
    solve_instance,
    uniform_grid_instance,
    verify_mechanism,
)
from .myerson import myerson_optimum
from .uniform2 import (
    UniformSegment,
    efficiency_witness,
    full_disclosure_vs_silent_limit,
    myerson_outcome,
    pair_surplus,
    profile_surplus,
    threshold_surplus,
    zeno_partition,
)

F = Fraction

HALF = IntervalPartition.from_string("0,1/2,1")

MENU_TWO_TYPES = DiscreteInstance.build(
    2, [[("1/2", ["3", "4"]), ("1/2", ["4", "9"])]]
)
MENU_FOUR_TYPES = DiscreteInstance.build(
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
AUCTION_123 = DiscreteInstance.build(
    1,
    [
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
        [("1/4", ["1"]), ("1/4", ["2"]), ("1/2", ["3"])],
    ],
)


def _expect(rows: list[str], label: str, got, want) -> None:
    """Record an expected/actual pair and fail loudly on mismatch."""
    if isinstance(want, Fraction) and isinstance(got, Fraction):
        shown_want, shown_got = format_rational(want), format_rational(got)
    else:
        shown_want, shown_got = str(want), str(got)
    rows.append(f"{label}: expected {shown_want}, got {shown_got}")
    if got != want:
        raise AssertionError(f"{label}: expected {shown_want}, got {shown_got}")


def _expect_true(rows: list[str], label: str, condition: bool) -> None:
    rows.append(f"{label}: {'holds' if condition else 'FAILS'}")
    if not condition:
        raise AssertionError(f"{label} does not hold")


# ---------------------------------------------------------------------------
# criteria


def _silent_pair() -> list[str]:
    rows: list[str] = []
    out = profile_surplus(SILENT, SILENT)
    _expect(rows, "silent/silent total surplus", out.total, F(1, 6))
    _expect(rows, "buyer A share", out.u_a, F(1, 12))
    _expect(rows, "buyer B share", out.u_b, F(1, 12))
    return rows


def _half_half_quadrants() -> list[str]:
    rows: list[str] = []
    out = profile_surplus(HALF, HALF)
    mixed = [
        r
        for r in out.rows
        if (r.seg_a.a, r.seg_a.b, r.seg_b.a) == (F(0), F(1, 2), F(1, 2))
    ]
    _expect(rows, "mixed low/high quadrants", len(mixed), 1)
    _expect(rows, "mixed quadrant contribution", mixed[0].total, F(5, 96))
    _expect(rows, "half/half total surplus", out.total, F(1, 6))
    return rows


def _half_versus_silent() -> list[str]:
    rows: list[str] = []
    out = profile_surplus(HALF, SILENT)
    _expect(rows, "disclosing buyer utility", out.u_a, F(13, 128))
    _expect(rows, "silent buyer utility", out.u_b, F(9, 128))
    _expect(rows, "total surplus", out.total, F(11, 64))
    return rows


def _threshold_family() -> list[str]:
    rows: list[str] = []
    for t in (F(1, 10), F(1, 4), F(2, 5), F(1, 2)):
        split = threshold_surplus(t)
        name = format_rational(t)
        _expect(rows, f"t={name} total", split.total, F(1, 6))
        _expect(rows, f"t={name} low/low", split.low_low, t**3 / 12)
        _expect(rows, f"t={name} low/high", split.low_high, t**2 / 16 - 5 * t**3 / 48)
        _expect(rows, f"t={name} high/low", split.high_low, t / 8 - t**2 / 16 + t**3 / 48)
        _expect(rows, f"t={name} high/high", split.high_high, F(1, 12) - t / 8)
    return rows


def _halving_cascade() -> list[str]:
    rows: list[str] = []
    z = zeno_partition(12)
    total = profile_surplus(z, z).total
    gap = abs(total - F(23, 147))
    rows.append(
        f"depth-12 total {format_rational(total)} "
        f"(~{float(total):.6f}), limit 23/147 (~{float(F(23, 147)):.6f})"
    )
    _expect_true(rows, "within 1e-4 of the limit", gap <= F(1, 10000))
    return rows


def _exact_versus_silent() -> list[str]:
    rows: list[str] = []
    u_a, u_b = full_disclosure_vs_silent_limit()
    _expect(rows, "exactly disclosing buyer", u_a, F(0))
    _expect(rows, "silent buyer", u_b, F(1, 24))
    return rows


def _menu_two_types() -> list[str]:
    rows: list[str] = []
    sol = solve_instance(MENU_TWO_TYPES)
    _expect(rows, "buyer surplus", sol.buyer_surplus, F(1, 2))
    _expect(rows, "revenue", sol.revenue, F(15, 2))
    menu = posted_menu_view(sol)
    _expect_true(rows, "menu row: good 1 at price 3", "good 1: price 3" in menu)
    _expect_true(
        rows, "menu row: bundle at price 12", "good 1 + good 2: price 12" in menu
    )
    return rows


def _menu_four_types() -> list[str]:
    rows: list[str] = []
    sol = solve_instance(MENU_FOUR_TYPES)
    _expect(rows, "revenue", sol.revenue, F(30081, 250))
    _expect(rows, "buyer surplus", sol.buyer_surplus, F(1581, 100))
    menu = posted_menu_view(sol)
    _expect_true(
        rows,
        "menu row: randomized good 1 plus good 2 at 593/5",
        "good 1 w.p. 31/35 + good 2: price 593/5" in menu,
    )
    _expect_true(
        rows, "menu row: bundle at price 129", "good 1 + good 2: price 129" in menu
    )
    interim = sol.mechanism.interim_utilities()[0]
    _expect(rows, "interim utilities by type", interim, (F(0), F(0), F(0), F(31)))

    results = search_profiles(MENU_FOUR_TYPES)
    _expect(rows, "partition profiles searched", len(results), 15)
    silent = no_disclosure_profile(MENU_FOUR_TYPES)
    best = sol.buyer_surplus
    checked = 0
    for profile, outcome in results:
        if profile == silent:
            continue
        if outcome.always_all_sold:
            checked += 1
            if outcome.total_surplus >= best:
                raise AssertionError(
                    f"profile {profile} sells everything yet reaches "
                    f"{format_rational(outcome.total_surplus)}"
                )
    rows.append(f"always-all-sold alternatives strictly below {format_rational(best)}: "
                f"{checked} checked")
    return rows


def _winning_prices(mech, want_value: Fraction, exclude_value=None) -> Fraction:
    """Probability-averaged per-unit price paid by winners of a given value."""
    inst = mech.instance
    paid = F(0)
    won = F(0)
    for t, jt in enumerate(joint_types(inst)):
        vals = [inst.buyers[j][jt[j]].values[0] for j in range(inst.n_buyers)]
        if exclude_value is not None and exclude_value in vals:
            continue
        w = joint_prob(inst, jt)
        for j in range(inst.n_buyers):
            if vals[j] == want_value:
                paid += w * mech.r[t][j]
                won += w * mech.q[t][j][0]
    return paid / won


def _auction_disclosure_search() -> list[str]:
    rows: list[str] = []
    silent = no_disclosure_profile(AUCTION_123)
    base = evaluate_profile(AUCTION_123, silent)
    _expect(rows, "no-disclosure surplus", base.total_surplus, F(3, 8))
    mech = next(iter(base.per_message.values()))[1].mechanism
    _expect(rows, "average price paid by value-3 winners", _winning_prices(mech, F(3)), F(5, 2))
    _expect(
        rows,
        "average price paid by value-2 winners absent a 3",
        _winning_prices(mech, F(2), exclude_value=F(3)),
        F(2),
    )

    split = (((0,), (1, 2)), ((0,), (1, 2)))
    out = evaluate_profile(AUCTION_123, split)
    _expect(rows, "both-split-{1}{2,3} surplus", out.total_surplus, F(1, 8))
    high_pair = out.per_message[((1, 2), (1, 2))][1].mechanism
    _expect(rows, "price paid by value-3 winners after a high message",
            _winning_prices(high_pair, F(3)), F(11, 4))

    ranked = search_profiles(AUCTION_123)
    _expect(rows, "profiles ranked", len(ranked), 25)
    _expect(rows, "top profile", ranked[0][0], silent)
    _expect_true(
        rows,
        "strictly ahead of the runner-up",
        ranked[0][1].total_surplus > ranked[1][1].total_surplus,
    )
    return rows


def _connected_gap_family() -> list[str]:
    rows: list[str] = []
    ratios = []
    for delta in (F(1, 2), F(1, 10), F(1, 100)):
        inst = inapproximability_instance(delta)
        _, connected = optimal_connected(inst)
        free = search_best(inst.to_instance())[1].total_surplus
        name = format_rational(delta)
        _expect(rows, f"delta={name} connected optimum", connected, delta / 9)
        _expect(rows, f"delta={name} unconstrained optimum", free, (1 + delta) / 9)
        ratio = free / connected
        _expect(rows, f"delta={name} ratio", ratio, (1 + delta) / delta)
        ratios.append(ratio)
    _expect_true(rows, "ratio at least 3 and growing", F(3) <= ratios[0] < ratios[1] < ratios[2])
    return rows


def _interval_dp_oracle() -> list[str]:
    rows: list[str] = []
    rng = random.Random(20250214)
    for k in range(220):
        n = rng.randint(1, 12)
        values = sorted(rng.sample(range(1, 150), n))
        weights = [rng.randint(1, 6) for _ in range(n)]
        total = sum(weights)
        inst = SingleBuyerInstance(
            tuple(F(v) for v in values), tuple(F(w, total) for w in weights)
        )
        _, fast = optimal_connected(inst)
        _, slow = brute_force_connected(inst)
        if fast != slow:
            raise AssertionError(
                f"instance {k}: dynamic program found {format_rational(fast)}, "
                f"brute force found {format_rational(slow)}"
            )
    rows.append("dynamic program matches brute force on 220 random instances, n <= 12")
    return rows


def _reduction_sweep() -> list[str]:
    rows: list[str] = []
    problems = list(sweep_size_lists(4, 6))
    solvable = 0
    for pp in problems:
        report = verify_reduction(pp)
        if not report.equivalent:
            raise AssertionError(f"size list {pp.sizes} breaks the equivalence")
        solvable += report.subset is not None
    rows.append(
        f"{len(problems)} size lists (m <= 4, entries <= 6, even sum), "
        f"{solvable} solvable, equivalence holds on all"
    )
    return rows


def _rand_partition(rng: random.Random) -> IntervalPartition:
    denom = 2 ** rng.randint(3, 7)
    cuts = sorted(rng.sample(range(1, denom), rng.randint(0, 4)))
    points = [F(0)] + [F(c, denom) for c in cuts] + [F(1)]
    return IntervalPartition(tuple(points))


def _witness_replay() -> list[str]:
    rows: list[str] = []
    rng = random.Random(97)
    kinds = {"no_sale": 0, "lower_value_wins": 0}
    for _ in range(100):
        pa, pb = _rand_partition(rng), _rand_partition(rng)
        w = efficiency_witness(pa, pb)
        out = myerson_outcome(w.seg_a, w.seg_b, w.v_a, w.v_b)
        if out.winner is None:
            if max(w.v_a, w.v_b) <= 0:
                raise AssertionError(f"no-sale witness with no positive value: {w}")
        else:
            won, lost = (w.v_a, w.v_b) if out.winner == "A" else (w.v_b, w.v_a)
            if won >= lost:
                raise AssertionError(f"witness winner already had the top value: {w}")
        kinds[w.kind] += 1
    rows.append(
        f"100 witnesses replayed: {kinds['no_sale']} no-sale, "
        f"{kinds['lower_value_wins']} lower-value-wins"
    )
    return rows


def _rare_lows() -> list[str]:
    rows: list[str] = []
    report = rare_lows_regression()
    _expect(rows, "no-disclosure surplus", report.no_disclosure.total_surplus, F(0))
    _expect(rows, "no-disclosure revenue", report.no_disclosure.expected_revenue, F(9999, 10))
    _expect(rows, "low/high disclosure surplus", report.low_high.total_surplus, F(1, 40000))
    _expect_true(rows, "disclosure strictly helps", report.low_high.total_surplus > 0)
    _expect(rows, "both-low probability", report.low_low_probability, F(1, 10000))

    sol = report.low_low_solution
    mech = sol.mechanism
    _expect(rows, "both-low subgame revenue", sol.revenue, F(3, 2))
    _expect(rows, "both-low good always sold", mech.unsold_probability(0), F(0))
    _expect_true(rows, "both-low allocation efficient", report.low_high.efficient)
    interim = mech.interim_utilities()
    _expect(rows, "value-1 types fully extracted",
            (interim[0][0], interim[1][0]), (F(0), F(0)))
    _expect(rows, "value-2 utility mass", interim[0][1] + interim[1][1], F(1, 2))
    inst = mech.instance
    for t, jt in enumerate(joint_types(inst)):
        for j in range(2):
            if inst.buyers[j][jt[j]].values[0] == 1 and mech.q[t][j][0] > 0:
                if mech.r[t][j] != mech.q[t][j][0]:
                    raise AssertionError("a value-1 winner pays a per-unit price other than 1")
    rows.append("value-1 winners pay exactly their value, as under a unit reserve")
    return rows


def _simulate_pair(seg_a, seg_b, samples: int, rng: random.Random):
    """Float re-simulation of one block pair's conditional buyer utilities."""
    a, b = float(seg_a.a), float(seg_a.b)
    c, d = float(seg_b.a), float(seg_b.b)
    sum_a = sum_b = sq_a = sq_b = 0.0
    for _ in range(samples):
        va = a + (b - a) * rng.random()
        vb = c + (d - c) * rng.random()
        phi_a = 2 * va - b
        phi_b = 2 * vb - d
        ua = ub = 0.0
        if phi_a >= 0 and phi_a >= phi_b:
            ua = va - max(a, (max(0.0, phi_b) + b) / 2)
        elif phi_b >= 0:
            ub = vb - max(c, (max(0.0, phi_a) + d) / 2)
        sum_a += ua
        sum_b += ub
        sq_a += ua * ua
        sq_b += ub * ub
    mean_a, mean_b = sum_a / samples, sum_b / samples
    sd_a = math.sqrt(max(0.0, sq_a / samples - mean_a**2) / samples)
    sd_b = math.sqrt(max(0.0, sq_b / samples - mean_b**2) / samples)
    return mean_a, mean_b, sd_a, sd_b


def _property_battery() -> list[str]:
    rows: list[str] = []
    rng = random.Random(718281828)

    cases = [
        (UniformSegment(F(0), F(1)), UniformSegment(F(0), F(1)), 600_000),
        (UniformSegment(F(0), F(1, 2)), UniformSegment(F(1, 2), F(1)), 400_000),
    ]
    for seg_a, seg_b, samples in cases:
        exact_a, exact_b = pair_surplus(seg_a, seg_b)
        mean_a, mean_b, sd_a, sd_b = _simulate_pair(seg_a, seg_b, samples, rng)
        for side, mean, sd, exact in (
            ("A", mean_a, sd_a, exact_a),
            ("B", mean_b, sd_b, exact_b),
        ):
            gap = abs(mean - float(exact))
            band = 3 * sd + 1e-12
            rows.append(
                f"{seg_a} x {seg_b} buyer {side}: simulated {mean:.6f}, "
                f"exact {format_rational(exact)} (~{float(exact):.6f}), "
                f"3-sigma band {band:.6f}"
            )
            if gap > band:
                raise AssertionError(
                    f"Monte-Carlo mean {mean} strays {gap} from "
                    f"{format_rational(exact)}; band was {band}"
                )

    lam = F(7, 3)
    for _ in range(20):
        inst = _rand_lp_instance(rng)
        scaled = DiscreteInstance(
            inst.goods,
            tuple(
                tuple(BuyerType(bt.prob, tuple(lam * v for v in bt.values)) for bt in prior)
                for prior in inst.buyers
            ),
        )
        base = solve_instance(inst)
        big = solve_instance(scaled)
        if big.revenue != lam * base.revenue or big.buyer_surplus != lam * base.buyer_surplus:
            raise AssertionError(f"scaling by {lam} moved the optimum on {inst}")
    rows.append("revenue and surplus scale linearly under value scaling (20 instances)")

    for _ in range(60):
        inst = _rand_lp_instance(rng)
        sol = solve_instance(inst)
        report = verify_mechanism(inst, sol.mechanism)
        if not report.valid:
            raise AssertionError(f"solver output failed verification: {report.failure}")
        if report.revenue != sol.revenue or report.buyer_surplus != sol.buyer_surplus:
            raise AssertionError("verifier recomputed different totals than the solver")
    rows.append("verifier accepts and reconfirms 60 solved instances")

    grid = uniform_grid_instance(20)
    sol = solve_instance(grid)
    mech = sol.mechanism
    full = UniformSegment(F(0), F(1))
    agree = 0
    jts = joint_types(grid)
    for t, jt in enumerate(jts):
        va = grid.buyers[0][jt[0]].values[0]
        vb = grid.buyers[1][jt[1]].values[0]
        closed = myerson_outcome(full, full, va, vb).winner
        qa, qb = mech.q[t][0][0], mech.q[t][1][0]
        if qa + qb == 0:
            lp_winner = None
        elif qa == 1:
            lp_winner = "A"
        elif qb == 1:
            lp_winner = "B"
        else:
            lp_winner = "split"
        agree += lp_winner == closed
    share = F(agree, len(jts))
    rows.append(
        f"grid-20 winner agreement {agree}/{len(jts)} (~{float(share):.3f})"
    )
    if share < F(95, 100):
        raise AssertionError(f"winner agreement {format_rational(share)} below 95%")
    oracle = myerson_optimum(grid)
    _expect_true(
        rows,
        f"grid-20 revenue {format_rational(sol.revenue)} and surplus "
        f"{format_rational(sol.buyer_surplus)} equal the Myerson oracle exactly",
        not oracle.ironed
        and (sol.revenue, sol.buyer_surplus)
        == (oracle.revenue, oracle.buyer_surplus)
        == (F(87, 200), F(237, 1600)),
    )
    return rows


def _rand_lp_instance(rng: random.Random) -> DiscreteInstance:
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
                vals = tuple(
                    F(rng.randint(0, 12), rng.choice([1, 2, 4])) for _ in range(goods)
                )
                if vals not in seen:
                    seen.add(vals)
                    break
            types.append(BuyerType(F(w, total), vals))
        buyers.append(tuple(types))
    return DiscreteInstance(goods, tuple(buyers))


@dataclass(frozen=True)
class Criterion:
    number: int
    title: str
    budget_seconds: float
    run: Callable[[], list[str]]


CRITERIA: tuple[Criterion, ...] = (
    Criterion(1, "silent pair baseline surplus", 1, _silent_pair),
    Criterion(2, "half/half quadrant split", 1, _half_half_quadrants),
    Criterion(3, "half against silent asymmetry", 1, _half_versus_silent),
    Criterion(4, "threshold family closed forms", 1, _threshold_family),
    Criterion(5, "halving cascade at depth 12", 5, _halving_cascade),
    Criterion(6, "exact disclosure against silence", 1, _exact_versus_silent),
    Criterion(7, "posted menu, two types", 1, _menu_two_types),
    Criterion(8, "posted menu, four types", 30, _menu_four_types),
    Criterion(9, "auction disclosure search", 60, _auction_disclosure_search),
    Criterion(10, "connected versus unconstrained gap", 10, _connected_gap_family),
    Criterion(11, "interval DP against brute force", 60, _interval_dp_oracle),
    Criterion(12, "even-split reduction sweep", 120, _reduction_sweep),
    Criterion(13, "inefficiency witness replay", 10, _witness_replay),
    Criterion(14, "rare low values disclosure regression", 5, _rare_lows),
    Criterion(15, "statistical and structural battery", 300, _property_battery),
)


@dataclass(frozen=True)
class CriterionResult:
    criterion: Criterion
    passed: bool
    elapsed: float
    rows: tuple[str, ...]
    error: Optional[str] = None


def run_criterion(criterion: Criterion) -> CriterionResult:
    start = time.perf_counter()
    try:
        rows = criterion.run()
    except AssertionError as exc:
        elapsed = time.perf_counter() - start
        return CriterionResult(criterion, False, elapsed, (), str(exc))
    elapsed = time.perf_counter() - start
    if elapsed > criterion.budget_seconds:
        return CriterionResult(
            criterion,
            False,
            elapsed,
            tuple(rows),
            f"took {elapsed:.1f}s, budget {criterion.budget_seconds:g}s",
        )
    return CriterionResult(criterion, True, elapsed, tuple(rows))


def run_suite() -> list[CriterionResult]:
    return [run_criterion(c) for c in CRITERIA]
