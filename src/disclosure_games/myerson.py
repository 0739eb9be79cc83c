"""Exact discrete Myerson auction for one good and independent buyers.

A closed form that checks the mechanism LP on one-good instances and shares
none of its code: it imports neither ``lpmech`` nor ``simplex`` and loops
over joint types itself.

For each buyer, sort the types by value and draw the revenue curve in
quantile space, through (0, 0) and the points (P(v >= v_i), v_i P(v >= v_i)).
The slopes of its upper concave hull are the ironed virtual values phi
(Myerson 1981, "Optimal Auction Design", section 6; the discrete form is
in Elkind 2007, "Designing and learning optimal finite support auctions").
The optimal revenue is the expectation over joint types of
max(0, max over buyers of phi).

Buyer surplus: the LP's second stage keeps that revenue and maximizes
surplus, so it sells whenever the top phi is at least 0 and, among the
buyers tied at the top phi, can give the good to the highest value.  That
welfare minus the revenue bounds the surplus of every revenue-optimal
mechanism from above.  When no prior needs ironing the allocation is
monotone, so the bound is attained and the surplus is exact; on an ironed
prior the allocation must be constant across an ironed interval, and the
LP may fall short of the bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Sequence

from .core import BuyerType, DiscreteInstance, ValidationError


@dataclass(frozen=True)
class MyersonOptimum:
    """Optimal revenue, the surplus bound, and whether any prior needed ironing.

    ``buyer_surplus`` equals the LP's surplus when ``ironed`` is false and
    is an upper bound on it otherwise.
    """

    revenue: Fraction
    buyer_surplus: Fraction
    ironed: bool


def ironed_virtual_values(prior: Sequence[BuyerType]) -> tuple[tuple[Fraction, ...], bool]:
    """The ironed virtual value of each type, by type index, and whether ironing changed one.

    ``prior`` is one buyer's types for one good.  The revenue curve's
    points run from quantile 0 up, that is from the top value down; the
    segment ending at a type's quantile belongs to that type, and its
    ironed virtual value is the slope of the hull over that segment.
    """
    order = sorted(range(len(prior)), key=lambda i: prior[i].values[0], reverse=True)
    points = [(Fraction(0), Fraction(0))]
    quantile = Fraction(0)
    for i in order:
        quantile += prior[i].prob
        points.append((quantile, prior[i].values[0] * quantile))
    hull = [0]
    for c in range(1, len(points)):
        # drop the last hull point while it lies on or below the chord to c
        while len(hull) >= 2:
            (ax, ay), (bx, by) = points[hull[-2]], points[hull[-1]]
            cx, cy = points[c]
            if (bx - ax) * (cy - ay) < (by - ay) * (cx - ax):
                break
            hull.pop()
        hull.append(c)
    phi: list[Fraction] = [Fraction(0)] * len(prior)
    ironed = False
    for a, b in zip(hull, hull[1:]):
        (ax, ay), (bx, by) = points[a], points[b]
        slope = (by - ay) / (bx - ax)
        for s in range(a, b):
            (sx, sy), (tx, ty) = points[s], points[s + 1]
            ironed = ironed or (ty - sy) / (tx - sx) != slope
            phi[order[s]] = slope
    return tuple(phi), ironed


def myerson_optimum(inst: DiscreteInstance) -> MyersonOptimum:
    """Optimal revenue and buyer surplus of a one-good instance, by the closed form."""
    if inst.goods != 1:
        raise ValidationError(f"the Myerson oracle needs exactly one good, got {inst.goods}")
    per_buyer = [ironed_virtual_values(prior) for prior in inst.buyers]
    phis = [phi for phi, _ in per_buyer]
    ironed = any(buyer_ironed for _, buyer_ironed in per_buyer)
    revenue = Fraction(0)
    welfare = Fraction(0)
    for jt in itertools.product(*(range(len(prior)) for prior in inst.buyers)):
        w = prod(inst.buyers[j][i].prob for j, i in enumerate(jt))
        top = max(phis[j][i] for j, i in enumerate(jt))
        if top < 0:
            continue
        revenue += w * top
        welfare += w * max(
            inst.buyers[j][i].values[0] for j, i in enumerate(jt) if phis[j][i] == top
        )
    return MyersonOptimum(revenue, welfare - revenue, ironed)
