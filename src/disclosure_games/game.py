"""Disclosure games over discrete instances.

Buyers first publicly reveal which block of their partition their type
lies in; the seller then runs the revenue-optimal mechanism for the
disclosed posterior (ties among revenue-optimal mechanisms resolved in
the buyers' favor, matching lpmech's second stage).  This module
evaluates a partition profile from one cached entry per tuple of
messages, aggregated with exact block probabilities, and searches all
partition profiles for the buyer-optimal one.

With one buyer and one good, a message's entry comes straight from the
prior: ``lpmech.best_posted_price`` on the message's unnormalised weights
returns its mass times the conditioned revenue and utility, at the same
price, since scaling every candidate's revenue and utility by the mass
keeps their order.  On the instance's int form (``DiscreteInstance.ints``:
values over V, probabilities over W) these entries are int numerators:
the mass over W, revenue and utility over V W.  A profile sums them as
ints and builds its three ``Fraction``s at the end, and
``search_profiles`` ranks on int numerators over the lcm of the totals'
denominators.  Every other instance conditions on the messages and
solves the exact LP (``lpmech.solve_instance``).  ``GameOutcome``'s
``per_message`` solutions are built on first read; a directly priced
message then goes through ``solve_instance`` like the rest.

Message tuples repeat across profiles, so an evaluator instance caches
its entries; a full search over an instance touches each distinct
message tuple once.  ``GameEvaluator.evaluate`` checks and canonicalises
the profile it is given, then scores it; ``search_profiles`` generates
canonical profiles itself and scores them directly, through the same
scoring loop, without the check.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from .core import (
    DiscreteInstance,
    GuardExceeded,
    SetPartition,
    ValidationError,
    bell_number,
    canonical_partition,
    compositions,
    condition_on_messages,
    enumerate_set_partitions,
    format_rational,
    is_sequence,
    require_good,
    validate_partition,
)
from .lpmech import LPSolution, best_posted_price, joint_types, solve_instance

SEARCH_GUARD = 10**6


@dataclass(frozen=True)
class GameOutcome:
    """Aggregate result of one partition profile.

    ``efficient`` means every good is always fully sold to a buyer of
    maximal value for it.  ``per_message`` maps each tuple of messages (one
    block per buyer) to its probability and the conditioned solution; it is
    built on first read, from the evaluator's cache, so a directly priced
    message is solved only when something asks for its mechanism.
    """

    expected_revenue: Fraction
    per_buyer_utility: tuple[Fraction, ...]
    total_surplus: Fraction
    always_all_sold: bool
    efficient: bool
    profile: tuple[SetPartition, ...]
    evaluator: GameEvaluator = field(repr=False, compare=False)

    @cached_property
    def per_message(self) -> Mapping[tuple, tuple[Fraction, LPSolution]]:
        return {
            messages: self.evaluator._solution(messages)
            for messages in itertools.product(*self.profile)
        }

    def unsold_probability(self, k: int) -> Fraction:
        require_good(k, self.evaluator.instance.goods)
        return sum(
            (prob * sol.mechanism.unsold_probability(k)
             for prob, sol in self.per_message.values()),
            Fraction(0),
        )


def _allocation_flags(sol: LPSolution) -> tuple[bool, bool]:
    inst = sol.mechanism.instance
    mech = sol.mechanism
    all_sold = True
    efficient = True
    for t, jt in enumerate(joint_types(inst)):
        for k in range(inst.goods):
            total = sum((mech.q[t][j][k] for j in range(inst.n_buyers)), Fraction(0))
            if total != 1:
                all_sold = False
                efficient = False
                continue
            best = max(inst.buyers[j][jt[j]].values[k] for j in range(inst.n_buyers))
            for j in range(inst.n_buyers):
                if mech.q[t][j][k] > 0 and inst.buyers[j][jt[j]].values[k] < best:
                    efficient = False
    return all_sold, efficient


class GameEvaluator:
    """Evaluates partition profiles for one instance, caching one entry per message tuple."""

    def __init__(self, inst: DiscreteInstance):
        self.instance = inst
        # messages -> (prob, solution or None until first read, prob * revenue,
        # prob * each buyer's surplus, all sold, efficient).  Posted-price
        # entries hold ints: prob over _w_scale, revenue and surplus over
        # _scale.  LP entries hold Fractions and _scale is 1, so evaluate
        # sums both kinds the same way and divides by _scale once.
        self._cache: dict[tuple, tuple] = {}
        self._form = inst.ints if inst.n_buyers == 1 and inst.goods == 1 else None
        self._w_scale = self._form.w_scales[0] if self._form else 1
        self._scale = self._form.v_scale * self._w_scale if self._form else 1

    def _solve_messages(self, messages: tuple[tuple[int, ...], ...]):
        hit = self._cache.get(messages)
        if hit is not None:
            return hit
        if self._form is not None:
            entry = self._posted_price_entry(messages[0])
        else:
            cond = condition_on_messages(self.instance, messages)
            prob = Fraction(1)
            for mass in cond.masses:
                prob *= mass
            sol = solve_instance(cond.instance)
            per_buyer = tuple(prob * u for u in sol.mechanism.per_buyer_surplus())
            entry = (prob, sol, prob * sol.revenue, per_buyer, *_allocation_flags(sol))
        self._cache[messages] = entry
        return entry

    def _posted_price_entry(self, block: tuple[int, ...]) -> tuple:
        # On the unnormalised int weights the pass returns mass * revenue
        # and mass * utility at the conditioned price, over V W.  With one
        # buyer every sale goes to the only bidder, so "efficient" is "all
        # sold".
        form = self._form
        values, probs = form.values[0], form.probs[0]
        pairs = [(values[i][0], probs[i]) for i in reversed(form.orders[0]) if i in block]
        revenue, utility, price = best_posted_price(pairs)
        sold = revenue > 0 and pairs[-1][0] >= price
        return (sum(w for _, w in pairs), None, revenue, (utility,), sold, sold)

    def _solution(self, messages: tuple[tuple[int, ...], ...]) -> tuple[Fraction, LPSolution]:
        """A message tuple's probability and conditioned solution."""
        entry = self._solve_messages(messages)
        prob, sol = entry[0], entry[1]
        if sol is None:
            prob = Fraction(prob, self._w_scale)
            sol = solve_instance(condition_on_messages(self.instance, messages).instance)
            self._cache[messages] = (prob, sol, *entry[2:])
        return prob, sol

    def evaluate(self, profile: Sequence[Sequence[Sequence[int]]]) -> GameOutcome:
        inst = self.instance
        if not is_sequence(profile) or len(profile) != inst.n_buyers:
            raise ValidationError(f"need one partition per buyer ({inst.n_buyers}), got {profile!r}")
        for j, part in enumerate(profile, 1):
            if not is_sequence(part) or not all(map(is_sequence, part)):
                raise ValidationError(
                    f"buyer {j}: a partition must be a sequence of messages, got {part!r}"
                )
        return self._score(
            tuple(validate_partition(part, inst.n_types(j)) for j, part in enumerate(profile))
        )

    def _score(self, profile: tuple[SetPartition, ...]) -> GameOutcome:
        """Score a profile already in canonical form, one partition per buyer, unchecked."""
        revenue = 0
        per_buyer = [0] * self.instance.n_buyers
        always_all_sold = True
        efficient = True
        for messages in itertools.product(*profile):
            _, _, rev, utilities, sold, eff = self._solve_messages(messages)
            revenue += rev
            for j, u in enumerate(utilities):
                per_buyer[j] += u
            always_all_sold &= sold
            efficient &= eff
        scale = self._scale
        return GameOutcome(
            expected_revenue=Fraction(revenue, scale),
            per_buyer_utility=tuple(Fraction(u, scale) for u in per_buyer),
            total_surplus=Fraction(sum(per_buyer), scale),
            always_all_sold=always_all_sold,
            efficient=efficient,
            profile=profile,
            evaluator=self,
        )


def evaluate_profile(inst: DiscreteInstance, profile) -> GameOutcome:
    return GameEvaluator(inst).evaluate(profile)


def no_disclosure_profile(inst: DiscreteInstance) -> tuple[SetPartition, ...]:
    return tuple((tuple(range(inst.n_types(j))),) for j in range(inst.n_buyers))


def full_disclosure_profile(inst: DiscreteInstance) -> tuple[SetPartition, ...]:
    return tuple(
        tuple((i,) for i in range(inst.n_types(j))) for j in range(inst.n_buyers)
    )


def connected_partitions(inst: DiscreteInstance, j: int) -> list[SetPartition]:
    """Partitions of buyer j's types into blocks contiguous in value order.

    Types are ordered by their value vectors (lexicographically for several
    goods); a partition is connected when each block is a run of that
    order.  There are 2^(n-1) of them.
    """
    order = inst.ints.orders[j]
    return [
        canonical_partition([order[i] for i in block] for block in blocks)
        for blocks in compositions(len(order))
    ]


def search_profiles(
    inst: DiscreteInstance, connected_only: bool = False
) -> list[tuple[tuple[SetPartition, ...], GameOutcome]]:
    """Evaluate every partition profile, best buyer surplus first.

    Exact-rational surplus ties are broken toward the canonically smaller
    profile, so rankings are reproducible.  The profile count, a product of
    Bell numbers (2^(n-1) per buyer when ``connected_only``), is checked
    against ``SEARCH_GUARD`` before any partition is listed.
    """
    count = 1
    for j in range(inst.n_buyers):
        n = inst.n_types(j)
        count *= 2 ** (n - 1) if connected_only else bell_number(n)
    if count > SEARCH_GUARD:
        raise GuardExceeded(f"profile search would evaluate {count} > {SEARCH_GUARD} profiles")
    per_buyer = [
        connected_partitions(inst, j) if connected_only else enumerate_set_partitions(inst.n_types(j))
        for j in range(inst.n_buyers)
    ]
    evaluator = GameEvaluator(inst)
    results = [
        (profile, evaluator._score(profile))
        for profile in itertools.product(*per_buyer)
    ]
    # Rank on the totals as int numerators over their lcm: the scale is
    # positive and every key exact, so the order is the Fractions' order.
    scale = lcm(*(outcome.total_surplus.denominator for _, outcome in results))
    results.sort(
        key=lambda pr: (
            -pr[1].total_surplus.numerator * (scale // pr[1].total_surplus.denominator),
            pr[0],
        )
    )
    return results


def search_to_csv(results: Sequence[tuple[tuple[SetPartition, ...], GameOutcome]]) -> str:
    if not results:
        return "profile,revenue,total_surplus,always_all_sold,efficient\n"
    n_buyers = len(results[0][1].per_buyer_utility)
    cols = ["profile", "revenue"]
    cols += [f"u{j + 1}" for j in range(n_buyers)]
    cols += ["total_surplus", "always_all_sold", "efficient"]
    lines = [",".join(cols)]
    for profile, outcome in results:
        doc = json.dumps(
            [[[i + 1 for i in block] for block in part] for part in profile],
            separators=(",", ":"),
        )
        cells = ['"' + doc.replace('"', '""') + '"', format_rational(outcome.expected_revenue)]
        cells += [format_rational(u) for u in outcome.per_buyer_utility]
        cells += [
            format_rational(outcome.total_surplus),
            str(outcome.always_all_sold).lower(),
            str(outcome.efficient).lower(),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# Two i.i.d. buyers who are almost surely worth 1000, but with a small
# chance have value 1 or 2: disclosure of "low or high" strictly helps.
RARE_LOWS_INSTANCE = DiscreteInstance.build(
    1,
    [
        [("1/200", ["1"]), ("1/200", ["2"]), ("99/100", ["1000"])],
        [("1/200", ["1"]), ("1/200", ["2"]), ("99/100", ["1000"])],
    ],
)

LOW_HIGH_PROFILE = (((0, 1), (2,)), ((0, 1), (2,)))


@dataclass(frozen=True)
class RareLowsReport:
    instance: DiscreteInstance
    no_disclosure: GameOutcome
    low_high: GameOutcome
    low_low_probability: Fraction
    low_low_solution: LPSolution


def rare_lows_regression() -> RareLowsReport:
    """Evaluate the built-in low/high example where disclosure strictly helps.

    With no disclosure the seller prices at 1000 and buyer surplus is zero;
    when both buyers disclose "low", the subgame always sells to a
    highest-value buyer, and a low buyer of value 2 retains positive
    utility.
    """
    evaluator = GameEvaluator(RARE_LOWS_INSTANCE)
    none = evaluator.evaluate(no_disclosure_profile(RARE_LOWS_INSTANCE))
    low_high = evaluator.evaluate(LOW_HIGH_PROFILE)
    low_low_key = ((0, 1), (0, 1))
    prob, sol = low_high.per_message[low_low_key]
    return RareLowsReport(
        instance=RARE_LOWS_INSTANCE,
        no_disclosure=none,
        low_high=low_high,
        low_low_probability=prob,
        low_low_solution=sol,
    )
