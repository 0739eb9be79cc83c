"""PARTITION reduces to buyer-optimal disclosure: instance map and checker.

Splitting integers s_1..s_m into two equal halves is encoded as a
one-buyer disclosure game with m+1 types: one "high" type per size, worth
nearly the full sum S, and a pool type worth S/2.  Pooling the pool type
with a subset I of high types makes the seller price at S/2 exactly when
I sums to S/2, which leaves the high types in I enough margin to clear
the target surplus U = S/6 - 1/12; no disclosure scheme reaches U
otherwise.  The reduced instance is built on its int form, the one
validation would derive from the rationals, and checked there: nothing
reads its ``Fraction``s back.  The checker runs both brute forces
(subset sum and full profile search) and compares.  The profile search
(``game.search_best``) prices each block of the m+1 types once, in one
step from the block without its lowest-valued type, ranks the set
partitions on int totals, placing the last type inline, and builds
block masks for ties only, rendered by a bit scan, and the outcome of
the best one only.  The oracle side, the subset search and the pooled
witness priced by ``dpconnected.buyer_utility``, runs none of that
code; a tier-1 test traces both sides to check it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .core import BuyerType, GuardExceeded, IntForm, SetPartition, ValidationError
from .dpconnected import SingleBuyerInstance, buyer_utility
# search_profiles is not called here; perfbench/tracer.py wraps
# hardness.search_profiles, so the import stays until the benchmark reads
# solver stats instead of wrapped names (ROADMAP item 2b removes it).
from .game import GameOutcome, search_best, search_profiles

SUBSET_GUARD = 24
VERIFY_GUARD = 8


@dataclass(frozen=True)
class PartitionProblem:
    """Positive integer sizes with an even total."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not self.sizes:
            raise ValidationError("need at least one size")
        if any(type(s) is not int or s < 1 for s in self.sizes):
            raise ValidationError("sizes must be positive integers")
        if self.total % 2 != 0:
            raise ValidationError(f"sizes sum to {self.total}, which is odd")

    @property
    def total(self) -> int:
        return sum(self.sizes)


@dataclass(frozen=True)
class BuyerOptInstance:
    """Reduced single-buyer game plus the surplus target.

    Type 0 is the pool type (value S/2, probability 1/3); type i+1 encodes
    size i with value S - 1/(4+i+1) and probability 2*s_i/(3S).
    """

    instance: SingleBuyerInstance
    target: Fraction

    @property
    def pool_index(self) -> int:
        return 0

    def size_type(self, i: int) -> int:
        return i + 1


def reduce_to_buyer_opt(pp: PartitionProblem) -> BuyerOptInstance:
    """Built on its int form and checked there: S - 1/d = (Sd - 1)/d is in
    lowest terms, so V = lcm(5, ..., 4 + m), and W = 3S/gcd(S, 2s_1, ..., 2s_m)."""
    s, dens = pp.total, range(5, 5 + len(pp.sizes))
    v, g = lcm(*dens), gcd(s, *(2 * size for size in pp.sizes))
    # one Fraction each: S - 1/(4+i) = (S(4+i) - 1)/(4+i), S/6 - 1/12 = (2S - 1)/12
    prior = (BuyerType(Fraction(1, 3), (Fraction(s, 2),)),) + tuple(
        BuyerType(Fraction(2 * size, 3 * s), (Fraction(s * d - 1, d),))
        for size, d in zip(pp.sizes, dens)
    )
    values = ((s // 2 * v,),) + tuple(((s * d - 1) * (v // d),) for d in dens)
    probs = (s // g,) + tuple(2 * size // g for size in pp.sizes)
    inst = SingleBuyerInstance._from_form(
        (prior,), IntForm(v, (values,), (3 * s // g,), (probs,), (tuple(range(len(prior))),))
    )
    inst._check_form()
    return BuyerOptInstance(inst, Fraction(2 * s - 1, 12))


def solve_partition_bruteforce(pp: PartitionProblem) -> Optional[tuple[int, ...]]:
    """First subset (by bitmask order) summing to half the total, or None.

    A mask's bits below h = ceil(m/2) and from h up are summed in two
    tables of at most 2^h subset sums, never in one of 2^m.
    """
    m = len(pp.sizes)
    if m > SUBSET_GUARD:
        raise GuardExceeded(f"2^{m} subsets is over the guard of 2^{SUBSET_GUARD}")
    h, half = (m + 1) // 2, pp.total // 2
    low, high = [0], [0]  # the subset sums of sizes[:h] and of sizes[h:], by mask
    for i, size in enumerate(pp.sizes):
        sums = low if i < h else high
        sums += [total + size for total in sums]
    for mask in range(1, 2**m):
        if low[mask & (len(low) - 1)] + high[mask >> h] == half:
            return tuple(i for i in range(m) if mask >> i & 1)
    return None


@dataclass(frozen=True)
class ReductionReport:
    problem: PartitionProblem
    reduced: BuyerOptInstance
    subset: Optional[tuple[int, ...]]
    best_profile: tuple[SetPartition, ...]
    best_outcome: GameOutcome
    equivalent: bool
    witness_profile: Optional[tuple[SetPartition, ...]]
    witness_surplus: Optional[Fraction]
    pooled_price: Optional[Fraction]


def verify_reduction(pp: PartitionProblem) -> ReductionReport:
    """Check both directions of the reduction on one problem.

    The profile search over the reduced instance must clear the target
    exactly when the subset brute force succeeds; on solvable problems the
    pooled witness profile is evaluated as well, and the seller's best
    response to the pooled message must be the price S/2.
    """
    if len(pp.sizes) > VERIFY_GUARD:
        raise GuardExceeded(
            f"verification enumerates partitions of {len(pp.sizes) + 1} types; "
            f"refusing m > {VERIFY_GUARD}"
        )
    reduced = reduce_to_buyer_opt(pp)
    subset = solve_partition_bruteforce(pp)
    best_profile, best_outcome = search_best(reduced.instance)
    reaches = best_outcome.total_surplus >= reduced.target
    equivalent = reaches == (subset is not None)
    witness_profile = witness_surplus = pooled_price = None
    if subset is not None:
        pooled = (reduced.pool_index,) + tuple(reduced.size_type(i) for i in subset)
        rest = [(reduced.size_type(i),) for i in range(len(pp.sizes)) if i not in subset]
        witness_profile = ((tuple(sorted(pooled)),) + tuple(rest),)
        # singleton messages are fully extracted, so the pooled one holds all the surplus
        witness_surplus, pooled_price = buyer_utility(reduced.instance, pooled)
        if pooled_price != Fraction(pp.total, 2):
            equivalent = False
        if witness_surplus < reduced.target:
            equivalent = False
    return ReductionReport(
        problem=pp,
        reduced=reduced,
        subset=subset,
        best_profile=best_profile,
        best_outcome=best_outcome,
        equivalent=equivalent,
        witness_profile=witness_profile,
        witness_surplus=witness_surplus,
        pooled_price=pooled_price,
    )


def sweep_size_lists(max_m: int = 4, max_entry: int = 6):
    """All size multisets with at most max_m entries, entries <= max_entry, even sum."""
    for m in range(1, max_m + 1):
        for sizes in itertools.combinations_with_replacement(range(1, max_entry + 1), m):
            if sum(sizes) % 2 == 0:
                yield PartitionProblem(sizes)
