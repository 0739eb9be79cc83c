"""Optimal connected disclosure for one buyer and one good.

A buyer with finitely many increasing values reveals an interval of types;
the seller best-responds with a posted price.  The buyer-optimal connected
partition solves by dynamic programming over prefixes: the best partition
of types 1..i extends the best partition of some prefix 1..j by the block
{j+1..i}.  Utilities are carried as unconditional probability mass, so
block utilities add without renormalizing.

A ``SingleBuyerInstance`` is a ``DiscreteInstance`` with one buyer and one
good whose types come in strictly increasing order of positive value: it
validates as any instance does, deriving the int form
(``DiscreteInstance.ints``), then checks its own conditions on those ints.
Sums are int numerators over V W, the product of the form's scales.  For
each i the DP walks j down from i - 1 to 0, extending one running block
{j+1..i} by type j+1 in one ``core.add_lowest_type`` step, the game
layer's block step: O(n^2) int work, and no block priced by a scan.  The
brute force over all 2^(n-1) compositions prices each block on its own
through ``buyer_utility`` (``lpmech.best_posted_price``, the one-buyer,
one-good route of ``lpmech.solve_instance``) with its own sum and
first-composition tie rule, so it checks the step, the recursion and the
tie order; the two share only the instance's size and int form.  Tests
check ``buyer_utility`` against every candidate price, and the DP table
by its Bellman inequalities past the brute force's guard.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import (
    BuyerType,
    DiscreteInstance,
    GuardExceeded,
    SetPartition,
    ValidationError,
    add_lowest_type,
    compositions,
    message_indices,
    parse_rational,
)
from .lpmech import best_posted_price

BRUTE_FORCE_GUARD = 20


class SingleBuyerInstance(DiscreteInstance):
    """A one-buyer, one-good ``DiscreteInstance`` whose types come in strictly
    increasing order of positive value, built from its values and
    probabilities."""

    def __init__(self, values: Sequence[Fraction], probs: Sequence[Fraction]):
        if not values or len(values) != len(probs):
            raise ValidationError("need matching nonempty values and probabilities")
        super().__init__(1, (tuple(BuyerType(p, (v,)) for v, p in zip(values, probs)),))

    def __post_init__(self):
        super().__post_init__()  # checks exactness and probabilities
        values = [vector[0] for vector in self.ints.values[0]]  # over V > 0: same order
        if values[0] <= 0:
            raise ValidationError("values must be positive")
        if any(a >= b for a, b in zip(values, values[1:])):
            raise ValidationError("values must be strictly increasing")

    @property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(t.values[0] for t in self.buyers[0])

    @property
    def probs(self) -> tuple[Fraction, ...]:
        return tuple(t.prob for t in self.buyers[0])

    @property
    def n(self) -> int:
        return len(self.buyers[0])

    @staticmethod
    def build(pairs: Sequence[tuple]) -> "SingleBuyerInstance":
        """From (prob, value) pairs in any rational notation, sorted by value."""
        return SingleBuyerInstance.from_instance(DiscreteInstance.build(1, [pairs]))

    @staticmethod
    def from_instance(inst: DiscreteInstance) -> "SingleBuyerInstance":
        if inst.n_buyers != 1 or inst.goods != 1:
            raise ValidationError("expected exactly one buyer and one good")
        prior, order = inst.buyers[0], inst.ints.orders[0]
        return SingleBuyerInstance(
            tuple(prior[i].values[0] for i in order), tuple(prior[i].prob for i in order)
        )


def buyer_utility(inst: SingleBuyerInstance, msg: Sequence[int]) -> tuple[Fraction, Fraction]:
    """Utility mass and price when the seller best-responds to one message.

    The seller posts the revenue-maximal price among the message's values
    (``lpmech.best_posted_price`` on the int form, from the top value down);
    revenue ties go to the lower price.  The returned utility is
    unconditional mass (scaled by the message's prior probability), so
    utilities of disjoint messages add.
    """
    idx = message_indices(msg, inst.n)
    form = inst.ints
    values, probs = form.values[0], form.probs[0]
    _, utility, price = best_posted_price((values[i][0], probs[i]) for i in reversed(idx))
    return Fraction(utility, form.v_scale * form.w_scales[0]), Fraction(price, form.v_scale)


def _block_utilities(inst: SingleBuyerInstance) -> tuple[dict[tuple[int, ...], int], int]:
    """Utility mass of every connected block {j..i-1}, keyed by the block.

    Returns int numerators over one positive scale, V W of the int form,
    so sums of blocks add and compare as ints.
    """
    scale = inst.ints.v_scale * inst.ints.w_scales[0]
    blocks = [tuple(range(j, i)) for i in range(1, inst.n + 1) for j in range(i)]
    scores = {block: int(buyer_utility(inst, block)[0] * scale) for block in blocks}
    return scores, scale


def dp_table(inst: SingleBuyerInstance) -> tuple[tuple[Fraction, SetPartition], ...]:
    """Prefix table: entry i is the best (utility, partition) for types 1..i;
    a tie goes to the least start j, so the downward walk takes ``>=``."""
    form = inst.ints
    pairs = [(v[0], p) for v, p in zip(form.values[0], form.probs[0])]
    utilities, partitions = [0], [()]
    for i in range(1, inst.n + 1):
        block, best = (0, 0, None), None
        for j in range(i - 1, -1, -1):
            block = add_lowest_type(block, *pairs[j])
            utility = utilities[j] + block[2][1]
            if best is None or utility >= best:
                best, start = utility, j
        utilities.append(best)
        partitions.append(partitions[start] + (tuple(range(start, i)),))
    scale = form.v_scale * form.w_scales[0]
    return tuple((Fraction(u, scale), p) for u, p in zip(utilities, partitions))


def optimal_connected(inst: SingleBuyerInstance) -> tuple[SetPartition, Fraction]:
    utility, partition = dp_table(inst)[inst.n]
    return partition, utility


def brute_force_connected(inst: SingleBuyerInstance) -> tuple[SetPartition, Fraction]:
    """Try every composition of the n types into consecutive blocks.

    Sums each composition's int block scores itself; the first composition
    with the largest sum wins.
    """
    n = inst.n
    if n > BRUTE_FORCE_GUARD:
        raise GuardExceeded(f"{2 ** (n - 1)} compositions of {n} types is over the guard")
    scores, scale = _block_utilities(inst)
    best = None
    for blocks in compositions(n):
        total = sum(map(scores.__getitem__, blocks))
        if best is None or total > best[1]:
            best = (blocks, total)
    return best[0], Fraction(best[1], scale)


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
