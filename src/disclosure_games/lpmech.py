"""Revenue-optimal selling mechanisms for discrete instances, by exact LP.

The seller knows the joint type distribution and picks, for every joint
type, allocation probabilities q (per buyer and good) and a payment r per
buyer.  The LP maximizes expected revenue subject to supply limits,
ex-post individual rationality, and interim incentive compatibility, then
runs a second lexicographic stage that maximizes total buyer surplus among
the revenue-optimal mechanisms.  Everything is exact rational arithmetic,
so results like a surplus of 2/9 are literal fractions, not
approximations.

One buyer with one good takes a closed form instead of the LP: the
optimum is a posted price (Riley & Zeckhauser 1983, "Optimal selling
strategies"), and ``best_posted_price`` finds it in one pass from the top
value down.  The revenue-optimal face is the mixtures of revenue-maximal
prices, and the surplus stage picks the lowest of them, so a revenue tie
goes to the lower price; every type valued at least the price buys at
it, and when every value is 0 (revenue 0) nothing is sold, as in the LP's
solution.  Only the LP path is checked against ``VARIABLE_BUDGET``.

With one good, IC between types adjacent in value order, in both
directions, implies IC between every pair (Myerson 1981, "Optimal Auction
Design"); a buyer's types have distinct values, so the LP keeps only
those rows: the same feasible set, hence the same optima, from a smaller
LP.  Several goods keep every pair.  ``verify_mechanism`` checks every
supply, IR and IC row regardless.

The LP's rows reach the simplex as primitive int numerators: ``LpSystem``
builds each row from the instance's int form (``DiscreteInstance.ints``)
as ints over one positive denominator, and the simplex stores it divided
by the gcd, with no ``Fraction`` per coefficient.  The objectives take
each joint type's weight from the same ints; they, the mechanism and its
aggregates stay rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from typing import Iterable, Optional, Sequence

from .core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    ValidationError,
    format_rational,
    require_good,
)
from .simplex import ExactSimplex

VARIABLE_BUDGET = 50_000


def joint_types(inst: DiscreteInstance) -> tuple[tuple[int, ...], ...]:
    """All joint type index vectors, lexicographic."""
    return tuple(itertools.product(*(range(inst.n_types(j)) for j in range(inst.n_buyers))))


def joint_prob(inst: DiscreteInstance, jt: Sequence[int]) -> Fraction:
    p = Fraction(1)
    for j, i in enumerate(jt):
        p *= inst.buyers[j][i].prob
    return p


@dataclass(frozen=True)
class Mechanism:
    """Allocations and payments over the joint type space.

    ``q[t][j][k]`` is the probability buyer j receives good k at joint type
    index t (indices follow ``joint_types(instance)``), ``r[t][j]`` the
    payment buyer j makes there.
    """

    instance: DiscreteInstance
    q: tuple[tuple[tuple[Fraction, ...], ...], ...]
    r: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def _table(self) -> tuple[tuple[tuple[int, ...], Fraction, tuple[Fraction, ...]], ...]:
        """Per joint type: the type vector, its prior weight, each buyer's ex-post utility.

        Built on the first aggregate call, so a malformed mechanism still
        reaches ``verify_mechanism``'s own dimension checks.
        """
        inst = self.instance
        rows = []
        for t, jt in enumerate(joint_types(inst)):
            utilities = tuple(
                sum((v * qq for v, qq in zip(inst.buyers[j][i].values, self.q[t][j])), Fraction(0))
                - self.r[t][j]
                for j, i in enumerate(jt)
            )
            rows.append((jt, joint_prob(inst, jt), utilities))
        return tuple(rows)

    def revenue(self) -> Fraction:
        return sum(
            (w * sum(r, Fraction(0)) for (_, w, _), r in zip(self._table, self.r)),
            Fraction(0),
        )

    def buyer_surplus(self) -> Fraction:
        return sum((w * sum(u, Fraction(0)) for _, w, u in self._table), Fraction(0))

    def per_buyer_surplus(self) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * self.instance.n_buyers
        for _, w, u in self._table:
            for j, uj in enumerate(u):
                out[j] += w * uj
        return tuple(out)

    def interim_utilities(self) -> tuple[tuple[Fraction, ...], ...]:
        """Expected utility of each buyer type, conditioned on being that type."""
        buyers = self.instance.buyers
        out = [[Fraction(0)] * len(prior) for prior in buyers]
        for jt, w, u in self._table:
            for j, i in enumerate(jt):
                out[j][i] += w / buyers[j][i].prob * u[j]
        return tuple(tuple(per_type) for per_type in out)

    def unsold_probability(self, k: int) -> Fraction:
        """Prior probability that good k stays with the seller."""
        require_good(k, self.instance.goods)
        return sum(
            (w * (1 - sum((qj[k] for qj in q), Fraction(0)))
             for (_, w, _), q in zip(self._table, self.q)),
            Fraction(0),
        )


@dataclass(frozen=True)
class LPSolution:
    mechanism: Mechanism
    revenue: Fraction
    buyer_surplus: Fraction


class LpSystem:
    """The seller's LP for one instance: variables q and r, revenue objective.

    Variables are laid out as all q (joint type, then buyer, then good)
    followed by all r (joint type, then buyer).  Supply rows cover every
    (joint type, good) and IR rows every (joint type, buyer).  Interim IC
    rows cover every ordered pair of a buyer's types, except that with one
    good they cover only pairs adjacent in value order, both ways (Myerson
    1981).  ``counts`` holds the rows built per kind, so callers can
    sanity-check the build against hand counts.

    Rows are built from the instance's int form (``DiscreteInstance.ints``):
    a joint type's weight is the product of its probability numerators, and
    the value order is ``orders``.  Each row goes to the simplex as int
    numerators over one positive denominator in <= form, a >= row negated,
    and is stored divided by its gcd: the rational row's one primitive
    form, the same entries, key order and pivots as rows built in
    ``Fraction``.
    """

    def __init__(self, inst: DiscreteInstance):
        self.instance = inst
        self.joint_types = joint_types(inst)
        nt = len(self.joint_types)
        ell = inst.n_buyers
        m = inst.goods
        n_vars = nt * (ell * m + ell)
        if n_vars > VARIABLE_BUDGET:
            raise GuardExceeded(
                f"instance needs {n_vars} LP variables, over the budget of {VARIABLE_BUDGET}"
            )
        self._m = m
        self._ell = ell
        self.n_q_vars = nt * ell * m
        self.n_r_vars = nt * ell
        self.lp = ExactSimplex(n_vars)
        self._build_rows()

    def q_index(self, t: int, j: int, k: int) -> int:
        return (t * self._ell + j) * self._m + k

    def r_index(self, t: int, j: int) -> int:
        return self.n_q_vars + t * self._ell + j

    def _build_rows(self):
        inst = self.instance
        m, ell = self._m, self._ell
        nt = len(self.joint_types)
        lp = self.lp
        # joint type weights: weights[t] over w_scale; values: nums over v_scale
        form = inst.ints
        v_scale, nums, prob_nums = form.v_scale, form.values, form.probs
        w_scale = prod(form.w_scales)
        weights = [prod(prob_nums[j][i] for j, i in enumerate(jt)) for jt in self.joint_types]
        # rows go in as int numerators over one positive denominator, in
        # <= form (a >= row negated); the simplex stores them primitive
        # supply: each good goes to at most one buyer
        for t in range(nt):
            for k in range(m):
                lp._add_row({self.q_index(t, j, k): 1 for j in range(ell)}, 1, 1)
        # ex-post IR: no type ever pays more than the value it receives; the
        # same pass over (joint type, buyer) prices revenue and surplus
        revenue: dict[int, Fraction] = {}
        surplus: dict[int, Fraction] = {}
        for t, (jt, wt) in enumerate(zip(self.joint_types, weights)):
            w = Fraction(wt, w_scale)
            for j in range(ell):
                values = inst.buyers[j][jt[j]].values
                r = self.r_index(t, j)
                row = {self.q_index(t, j, k): -v for k, v in enumerate(nums[j][jt[j]]) if v}
                row[r] = v_scale
                lp._add_row(row, 0, v_scale)
                revenue[r] = w
                surplus[r] = -w
                for k, v in enumerate(values):
                    surplus[self.q_index(t, j, k)] = w * v
        self.revenue_objective = revenue
        self.surplus_objective = surplus
        # interim IC: truth beats any single-type misreport in expectation.
        # slots[i] lists buyer j's joint types at type i in product order, so
        # zip pairs each truthful profile with the one where j reports i2.
        # One good: adjacent pairs in value order only (a buyer's values are
        # distinct, so the order is strict).
        den = w_scale * v_scale
        n_ic = 0
        for j in range(ell):
            nj = inst.n_types(j)
            rank = {i: r for r, i in enumerate(form.orders[j])}
            slots: list[list[int]] = [[] for _ in range(nj)]
            for t, jt in enumerate(self.joint_types):
                slots[jt[j]].append(t)
            for i in range(nj):
                values = nums[j][i]
                for i2 in range(nj):
                    if i2 == i or (m == 1 and abs(rank[i] - rank[i2]) != 1):
                        continue
                    row = {}
                    for t, d in zip(slots[i], slots[i2]):
                        w = weights[t]
                        for k, v in enumerate(values):
                            if v:
                                row[self.q_index(t, j, k)] = -w * v
                                row[self.q_index(d, j, k)] = w * v
                        row[self.r_index(t, j)] = w * v_scale
                        row[self.r_index(d, j)] = -w * v_scale
                    lp._add_row(row, 0, den)
                    n_ic += 1
        self.counts = {"supply": nt * m, "ir": nt * ell, "ic": n_ic}

    def extract_mechanism(self, values: Sequence[Fraction]) -> Mechanism:
        q = tuple(
            tuple(
                tuple(values[self.q_index(t, j, k)] for k in range(self._m))
                for j in range(self._ell)
            )
            for t in range(len(self.joint_types))
        )
        r = tuple(
            tuple(values[self.r_index(t, j)] for j in range(self._ell))
            for t in range(len(self.joint_types))
        )
        return Mechanism(self.instance, q, r)


def build_lp(inst: DiscreteInstance) -> LpSystem:
    return LpSystem(inst)


def uniform_grid_instance(n: int, buyers: int = 2) -> DiscreteInstance:
    """I.i.d. buyers, one good, values at the n midpoints of a uniform [0, 1] grid.

    Discretizes a U[0, 1] buyer into n equally likely values (2i+1)/(2n);
    used to cross-check the LP against the closed-form auction outcome.
    """
    if type(n) is not int or n < 1 or type(buyers) is not int:
        raise ValidationError("grid needs a positive integer number of points and of buyers")
    prior = tuple(
        BuyerType(Fraction(1, n), (Fraction(2 * i + 1, 2 * n),)) for i in range(n)
    )
    return DiscreteInstance(1, (prior,) * buyers)


def best_posted_price(pairs: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """The seller's best posted price against (value, weight) pairs.

    The pairs are int numerators in decreasing value order, the values over
    one scale V and the weights over one scale W, as ``DiscreteInstance.ints``
    gives them.  One pass keeps the mass and the value-weighted mass at or
    above each candidate price and returns the largest (revenue, utility,
    value) triple, revenue and utility over V W and the value over V: a
    revenue tie goes to the lower price, which serves more mass of positive
    value and so leaves strictly more utility.  Both scales are positive,
    so the ints order the candidates as their fractions do; callers divide.
    """
    candidates = []
    mass = weighted = 0
    for v, w in pairs:
        mass += w
        weighted += w * v
        candidates.append((v * mass, weighted - v * mass, v))
    if not candidates:
        raise ValidationError("a posted price needs at least one (value, weight) pair")
    return max(candidates)


def solve_instance(inst: DiscreteInstance) -> LPSolution:
    """The revenue-optimal mechanism, buyer surplus maximal among those.

    One buyer with one good takes the closed form: the best posted price
    (``best_posted_price``), with a revenue tie going to the lower price, as
    the LP's second stage does.  Every type valued at least the price buys
    at it; when the revenue is 0 (every value is 0) nothing is sold.  Every
    other instance solves the two-stage exact LP.
    """
    if inst.n_buyers == 1 and inst.goods == 1:
        form = inst.ints
        pairs = [(v, w) for (v,), w in zip(form.values[0], form.probs[0])]
        revenue, utility, price = best_posted_price(pairs[i] for i in reversed(form.orders[0]))
        sold = [revenue > 0 and v >= price for v, _ in pairs]
        scale = form.v_scale * form.w_scales[0]
        paid = Fraction(price, form.v_scale)
        q = tuple(((Fraction(int(s)),),) for s in sold)
        r = tuple((paid if s else Fraction(0),) for s in sold)
        return LPSolution(Mechanism(inst, q, r), Fraction(revenue, scale), Fraction(utility, scale))
    system = build_lp(inst)
    stage1, stage2 = system.lp.solve_lexicographic(
        [system.revenue_objective, system.surplus_objective]
    )
    mech = system.extract_mechanism(stage2.values)
    revenue = mech.revenue()
    if revenue != stage1.objective:
        raise AssertionError(
            "stage 2 drifted off the revenue optimum: "
            f"{format_rational(revenue)} != {format_rational(stage1.objective)}"
        )
    return LPSolution(mechanism=mech, revenue=revenue, buyer_surplus=stage2.objective)


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    failure: Optional[str]
    revenue: Optional[Fraction]
    buyer_surplus: Optional[Fraction]


def verify_mechanism(inst: DiscreteInstance, mech: Mechanism) -> VerificationReport:
    """Re-check a mechanism against every constraint by direct evaluation.

    Independent of the solver on purpose: it loops over supply, IR, and all
    IC pairs and reports the first violation it finds, or the exact revenue
    and buyer surplus if there is none.  Every utility, the revenue and the
    surplus come from ``inst`` and the mechanism's q and r alone, never from
    the mechanism's own aggregates, which read ``mech.instance``.

    Buyers are independent, so interim IC reduces to per-type sums (Myerson
    1981): with Q_j(i2) and R_j(i2) the allocation and payment buyer j gets
    by reporting i2, averaged over the others' types, type i gains
    p_j(i) (v_i . Q_j(i2) - R_j(i2)) in expectation by that report.  One
    pass builds Q and R; then every ordered pair (i, i2), i ascending and
    i2 ascending within it, is compared with type i's truthful utility.
    """
    jts = joint_types(inst)
    if mech.instance is not inst and joint_types(mech.instance) != jts:
        raise ValidationError("mechanism dimensions do not match the instance")
    if len(mech.q) != len(jts) or len(mech.r) != len(jts):
        raise ValidationError("mechanism dimensions do not match the instance")
    for t, jt in enumerate(jts):
        if len(mech.q[t]) != inst.n_buyers or len(mech.r[t]) != inst.n_buyers:
            raise ValidationError("mechanism dimensions do not match the instance")
        for j in range(inst.n_buyers):
            if len(mech.q[t][j]) != inst.goods:
                raise ValidationError("mechanism dimensions do not match the instance")

    def fail(msg: str) -> VerificationReport:
        return VerificationReport(False, msg, None, None)

    def utility(values: Sequence[Fraction], t: int, j: int) -> Fraction:
        return sum((v * qq for v, qq in zip(values, mech.q[t][j])), Fraction(0)) - mech.r[t][j]

    weights = []
    truthful = []
    revenue = Fraction(0)
    surplus = Fraction(0)
    for t, jt in enumerate(jts):
        for j in range(inst.n_buyers):
            if mech.r[t][j] < 0:
                return fail(f"negative payment at joint type {jt}, buyer {j + 1}")
            for k in range(inst.goods):
                if mech.q[t][j][k] < 0:
                    return fail(
                        f"negative allocation at joint type {jt}, buyer {j + 1}, good {k + 1}"
                    )
        for k in range(inst.goods):
            total = sum((mech.q[t][j][k] for j in range(inst.n_buyers)), Fraction(0))
            if total > 1:
                return fail(f"good {k + 1} oversold at joint type {jt}")
        u = tuple(utility(inst.buyers[j][i].values, t, j) for j, i in enumerate(jt))
        for j in range(inst.n_buyers):
            if u[j] < 0:
                return fail(f"IR violated at joint type {jt} for buyer {j + 1}")
        w = joint_prob(inst, jt)
        weights.append(w)
        truthful.append(u)
        revenue += w * sum(mech.r[t], Fraction(0))
        surplus += w * sum(u, Fraction(0))
    for j in range(inst.n_buyers):
        prior = inst.buyers[j]
        nj = len(prior)
        interim = [Fraction(0)] * nj
        alloc = [[Fraction(0)] * inst.goods for _ in range(nj)]
        pay = [Fraction(0)] * nj
        for t, jt in enumerate(jts):
            i = jt[j]
            interim[i] += weights[t] * truthful[t][j]
            w = weights[t] / prior[i].prob
            pay[i] += w * mech.r[t][j]
            qs = alloc[i]
            for k, qq in enumerate(mech.q[t][j]):
                qs[k] += w * qq
        for i in range(nj):
            p, values = prior[i].prob, prior[i].values
            for i2 in range(nj):
                if i2 == i:
                    continue
                deviant = sum((v * qq for v, qq in zip(values, alloc[i2])), Fraction(0)) - pay[i2]
                if p * deviant > interim[i]:
                    return fail(
                        f"IC violated for buyer {j + 1}: type {i + 1} gains by reporting {i2 + 1}"
                    )
    return VerificationReport(True, None, revenue, surplus)


def posted_menu_view(sol: LPSolution) -> str:
    """Human-readable summary of a solved mechanism.

    Single buyer: the menu the seller could post, one row per distinct
    (allocation, price) pair actually used, skipping the stay-out row.
    Several buyers: one table line per joint type.
    """
    mech = sol.mechanism
    inst = mech.instance
    jts = joint_types(inst)
    if inst.n_buyers == 1:
        rows: dict[tuple, tuple] = {}
        for t in range(len(jts)):
            key = (mech.q[t][0], mech.r[t][0])
            rows.setdefault(key, key)
        lines = []
        for qrow, price in sorted(rows.values(), key=lambda kr: (kr[1], kr[0])):
            if price == 0 and all(x == 0 for x in qrow):
                continue
            parts = []
            for k, prob in enumerate(qrow):
                if prob == 1:
                    parts.append(f"good {k + 1}")
                elif prob != 0:
                    parts.append(f"good {k + 1} w.p. {format_rational(prob)}")
            bundle = " + ".join(parts) if parts else "nothing"
            lines.append(f"{bundle}: price {format_rational(price)}")
        if not lines:
            return "empty menu\n"
        return "\n".join(lines) + "\n"
    header = "joint type | " + " | ".join(
        f"buyer {j + 1} (q; r)" for j in range(inst.n_buyers)
    )
    lines = [header]
    for t, jt in enumerate(jts):
        cells = []
        for j in range(inst.n_buyers):
            qs = ",".join(format_rational(x) for x in mech.q[t][j])
            cells.append(f"{qs}; {format_rational(mech.r[t][j])}")
        label = "(" + ",".join(str(i + 1) for i in jt) + ")"
        lines.append(f"{label} | " + " | ".join(cells))
    return "\n".join(lines) + "\n"


def mechanism_to_csv(mech: Mechanism) -> str:
    """CSV export: one row per (joint type, buyer, good) with exact rationals."""
    inst = mech.instance
    lines = ["joint_type,buyer,good,q,r"]
    for t, jt in enumerate(joint_types(inst)):
        label = "-".join(str(i + 1) for i in jt)
        for j in range(inst.n_buyers):
            for k in range(inst.goods):
                lines.append(
                    f"{label},{j + 1},{k + 1},"
                    f"{format_rational(mech.q[t][j][k])},{format_rational(mech.r[t][j])}"
                )
    return "\n".join(lines) + "\n"
