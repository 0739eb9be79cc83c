"""Optimal connected disclosure for one buyer and one good.

A buyer with finitely many increasing values reveals an interval of types;
the seller best-responds with a posted price.  The buyer-optimal connected
partition solves by dynamic programming over prefixes: the best partition
of types 1..i extends the best partition of some prefix 1..j by the block
{j+1..i}.  Utilities are carried as unconditional probability mass, so
block utilities add without renormalizing.

A brute force over all 2^(n-1) compositions serves as the correctness
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    SetPartition,
    ValidationError,
    compositions,
    parse_rational,
)

BRUTE_FORCE_GUARD = 20


@dataclass(frozen=True)
class SingleBuyerInstance:
    """Strictly increasing positive values with positive probabilities summing to 1."""

    values: tuple[Fraction, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or len(self.values) != len(self.probs):
            raise ValidationError("need matching nonempty values and probabilities")
        if self.values[0] <= 0:
            raise ValidationError("values must be positive")
        if any(a >= b for a, b in zip(self.values, self.values[1:])):
            raise ValidationError("values must be strictly increasing")
        if any(p <= 0 for p in self.probs):
            raise ValidationError("probabilities must be positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValidationError("probabilities must sum to 1")

    @property
    def n(self) -> int:
        return len(self.values)

    @staticmethod
    def build(pairs: Sequence[tuple]) -> "SingleBuyerInstance":
        """From (prob, value) pairs in any rational notation, sorted by value."""
        parsed = sorted(
            ((parse_rational(v), parse_rational(p)) for p, v in pairs),
        )
        return SingleBuyerInstance(
            tuple(v for v, _ in parsed), tuple(p for _, p in parsed)
        )

    @staticmethod
    def from_instance(inst: DiscreteInstance) -> "SingleBuyerInstance":
        if inst.n_buyers != 1 or inst.goods != 1:
            raise ValidationError("expected exactly one buyer and one good")
        pairs = sorted((t.values[0], t.prob) for t in inst.buyers[0])
        return SingleBuyerInstance(
            tuple(v for v, _ in pairs), tuple(p for _, p in pairs)
        )

    def to_instance(self) -> DiscreteInstance:
        return DiscreteInstance(
            1, (tuple(BuyerType(p, (v,)) for v, p in zip(self.values, self.probs)),)
        )


def buyer_utility(inst: SingleBuyerInstance, msg: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Utility mass and price when the seller best-responds to one message.

    The seller posts the revenue-maximal price among the message's values;
    revenue ties go to the lower price, which is the buyer-favorable
    choice.  The returned utility is unconditional mass (scaled by the
    message's prior probability), so utilities of disjoint messages add.
    """
    idx = sorted(set(msg))
    if not idx:
        raise ValidationError("empty message")
    if idx[0] < 0 or idx[-1] >= inst.n:
        raise ValidationError("message index out of range")
    best = None
    for j in idx:
        price = inst.values[j]
        served = [i for i in idx if inst.values[i] >= price]
        revenue = price * sum((inst.probs[i] for i in served), Fraction(0))
        utility = sum((inst.probs[i] * (inst.values[i] - price) for i in served), Fraction(0))
        if best is None or revenue > best[0] or (revenue == best[0] and utility > best[1]):
            best = (revenue, utility, price)
    return best[1], best[2]


@dataclass(frozen=True)
class DPTable:
    """Prefix table: entry i is the best (utility, partition) for types 1..i."""

    entries: tuple[tuple[Fraction, SetPartition], ...]


def dp_table(inst: SingleBuyerInstance) -> DPTable:
    entries: list[tuple[Fraction, SetPartition]] = [(Fraction(0), ())]
    for i in range(1, inst.n + 1):
        best = None
        for j in range(i):
            block = tuple(range(j, i))
            utility = entries[j][0] + buyer_utility(inst, block)[0]
            if best is None or utility > best[0]:
                best = (utility, entries[j][1] + (block,))
        entries.append(best)
    return DPTable(tuple(entries))


def optimal_connected(inst: SingleBuyerInstance) -> tuple[SetPartition, Fraction]:
    table = dp_table(inst)
    utility, partition = table.entries[inst.n]
    return partition, utility


def brute_force_connected(
    inst: SingleBuyerInstance, guard: int = BRUTE_FORCE_GUARD
) -> tuple[SetPartition, Fraction]:
    """Try every composition of the n types into consecutive blocks."""
    n = inst.n
    if n > guard:
        raise GuardExceeded(f"{2 ** (n - 1)} compositions of {n} types is over the guard")
    best = None
    for blocks in compositions(n):
        total = sum((buyer_utility(inst, b)[0] for b in blocks), Fraction(0))
        if best is None or total > best[1]:
            best = (blocks, total)
    return best


def inapproximability_instance(delta) -> SingleBuyerInstance:
    """Three types 1, 2, 2+delta for which connected messages lose badly.

    The best connected partition earns delta/9 while pooling the extreme
    types earns (1+delta)/9, so the gap grows without bound as delta
    shrinks.
    """
    delta = parse_rational(delta)
    if not 0 < delta < 2:
        raise ValidationError("delta must lie in (0, 2)")
    return SingleBuyerInstance(
        (Fraction(1), Fraction(2), Fraction(2) + delta),
        (Fraction(1, 3), Fraction(5, 9), Fraction(1, 9)),
    )
