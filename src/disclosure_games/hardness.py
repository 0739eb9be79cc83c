"""PARTITION reduces to buyer-optimal disclosure: instance map and checker.

Splitting integers s_1..s_m into two equal halves is encoded as a
one-buyer disclosure game with m+1 types: one "high" type per size, worth
nearly the full sum S, and a pool type worth S/2.  Pooling the pool type
with a subset I of high types makes the seller price at S/2 exactly when
I sums to S/2, which leaves the high types in I enough margin to clear
the target surplus U = S/6 - 1/12; no disclosure scheme reaches U
otherwise.  The checker runs both brute forces (subset sum and full
profile search) and compares; the profile search ranks every profile but
builds the outcome of the best one only (``game.search_best``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import GuardExceeded, SetPartition, ValidationError
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
    s = pp.total
    values = [Fraction(s, 2)]
    probs = [Fraction(1, 3)]
    for i, size in enumerate(pp.sizes, start=1):
        values.append(s - Fraction(1, 4 + i))
        probs.append(Fraction(2 * size, 3 * s))
    inst = SingleBuyerInstance(tuple(values), tuple(probs))
    return BuyerOptInstance(inst, Fraction(s, 6) - Fraction(1, 12))


def solve_partition_bruteforce(pp: PartitionProblem) -> Optional[tuple[int, ...]]:
    """First subset (by bitmask order) summing to half the total, or None."""
    m = len(pp.sizes)
    if m > SUBSET_GUARD:
        raise GuardExceeded(f"2^{m} subsets is over the guard of 2^{SUBSET_GUARD}")
    half = pp.total // 2
    for mask in range(1, 2**m):
        picked = [i for i in range(m) if mask >> i & 1]
        if sum(pp.sizes[i] for i in picked) == half:
            return tuple(picked)
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
    best_profile, best_outcome = search_best(reduced.instance.to_instance())
    reaches = best_outcome.total_surplus >= reduced.target
    equivalent = reaches == (subset is not None)
    witness_profile = None
    witness_surplus = None
    pooled_price = None
    if subset is not None:
        pooled = (reduced.pool_index,) + tuple(reduced.size_type(i) for i in subset)
        rest = [
            (reduced.size_type(i),)
            for i in range(len(pp.sizes))
            if i not in subset
        ]
        witness_profile = ((tuple(sorted(pooled)),) + tuple(rest),)
        mass, pooled_price = buyer_utility(reduced.instance, pooled)
        witness_surplus = mass  # singleton messages are fully extracted
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
