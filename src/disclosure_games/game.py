"""Disclosure games over discrete instances.

Buyers first publicly reveal which block of their partition their type
lies in; the seller then runs the revenue-optimal mechanism for the
disclosed posterior (ties among revenue-optimal mechanisms resolved in
the buyers' favor, matching lpmech's second stage).  This module
evaluates a partition profile from one cached entry per tuple of
messages, aggregated with exact block probabilities, and searches all
partition profiles for the buyer-optimal one.

Every message is a block mask: each of buyer j's types holds one bit, by
its rank in ``DiscreteInstance.ints.orders[j]`` (value order,
lexicographic for several goods), so a profile is one tuple of block
masks per buyer and a message tuple one mask per buyer.  Two block
pricers sit behind those keys.  With one buyer and one good, a memo of
blocks on the instance's int form (values over V, probabilities over W)
prices each mask in one step from the block without its lowest-valued
type (``core.add_lowest_type``): its mass over W and its best posted
price's revenue and utility over V W, summed as ints.  Every other
instance renders each message tuple's masks to type indices, conditions
on them and solves the exact LP (``lpmech.solve_instance``), caching one
``Fraction`` entry per mask tuple.  A profile's three ``Fraction``s are
built only with its ``GameOutcome``, whose ``per_message`` solutions are
built on first read; a posted-price message's probability comes off the
memo and its mechanism is solved through ``solve_instance`` on each such
read.

Message tuples repeat across profiles, so an evaluator memoises its
entries; a full search touches each distinct message tuple once.
``GameEvaluator.evaluate`` checks and canonicalises the profile it is
given, turns it into masks and scores it.  A search walks every buyer's
partitions as tuples of block masks (``core.set_partition_masks``, or for
a connected search the compositions of the value ranks), scores each
profile of their product once, and ranks it on (-total surplus,
canonical profile) with the total exact.  It builds a ``GameOutcome``
only for a row that is read: ``search_profiles`` builds every row,
``search_best`` the best one alone.  With one buyer and one good, a full
``search_best`` scores each block once and builds masks only for ties.
Masks read back as type indices by a bit scan (``_scan``); only
``_ranking``, past the search guard, reads a table of all 2^n masks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .core import (
    DiscreteInstance,
    GuardExceeded,
    SetPartition,
    ValidationError,
    add_lowest_type,
    bell_number,
    compositions,
    condition_on_messages,
    format_rational,
    is_sequence,
    mask_members,
    require_good,
    set_partition_masks,
    validate_partition,
)
from .lpmech import LPSolution, joint_types, solve_instance

SEARCH_GUARD = 10**6


@dataclass(frozen=True)
class GameOutcome:
    """Aggregate result of one partition profile.

    ``efficient`` means every good is always fully sold to a buyer of
    maximal value for it.  ``per_message`` maps each tuple of messages (one
    block per buyer) to its probability and the conditioned solution; it is
    built on first read, from the evaluator, so a directly priced message
    is solved only when something asks for its mechanism.
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


def _scan(bits: Sequence[int], mask: int) -> tuple[int, ...]:
    """A block mask's sorted type indices, by a scan of the buyer's bits
    (``GameEvaluator._bits``): O(n), and no table of all 2^n masks."""
    return tuple(i for i, b in enumerate(bits) if mask & b)


class GameEvaluator:
    """Evaluates partition profiles for one instance, caching one entry per message tuple."""

    def __init__(self, inst: DiscreteInstance):
        self.instance = inst
        form = inst.ints
        # bit r of buyer j's masks is the type of r-th lowest value vector
        # (lexicographic for several goods), so a one-good block's
        # lowest-valued type is its mask's lowest set bit
        self._bits = []
        for order in form.orders:
            bits = [0] * len(order)
            for r, i in enumerate(order):
                bits[i] = 1 << r
            self._bits.append(bits)
        # block masks, one per buyer -> (prob, solution, prob * revenue, prob *
        # each buyer's surplus, all sold, efficient) in Fractions, on the LP
        # path alone.  With one buyer and one good each message is a block of
        # the memo below instead, in ints: mass over _w_scale, the rest over
        # _scale.  Both scales are 1 on the LP path.
        self._cache: dict[tuple[int, ...], tuple] = {}
        self._form = form if inst.n_buyers == 1 and inst.goods == 1 else None
        self._w_scale = self._form.w_scales[0] if self._form else 1
        self._scale = self._form.v_scale * self._w_scale if self._form else 1
        if self._form is not None:
            order, values, probs = form.orders[0], form.values[0], form.probs[0]
            self._ranked = [(values[i][0], probs[i]) for i in order]
            # block mask -> (mass over W, value-weighted mass over V W, best
            # (revenue, utility, price) or None for the empty block)
            self._blocks: dict[int, tuple] = {0: (0, 0, None)}

    def _entry(self, masks: tuple[int, ...]):
        """The LP entry of a message tuple, one block mask per buyer, memoised."""
        hit = self._cache.get(masks)
        if hit is not None:
            return hit
        cond = condition_on_messages(self.instance, tuple(map(_scan, self._bits, masks)))
        prob = Fraction(1)
        for mass in cond.masses:
            prob *= mass
        sol = solve_instance(cond.instance)
        per_buyer = tuple(prob * u for u in sol.mechanism.per_buyer_surplus())
        entry = (prob, sol, prob * sol.revenue, per_buyer, *_allocation_flags(sol))
        self._cache[masks] = entry
        return entry

    def _block(self, mask: int) -> tuple[int, int, tuple[int, int, int]]:
        """A one-buyer, one-good block's ``core.add_lowest_type`` triple,
        memoised by mask: one step from the block without its lowest-valued
        type, B & (B - 1), memoised first."""
        blocks = self._blocks
        chain = []
        rest = mask
        while rest not in blocks:
            chain.append(rest)
            rest &= rest - 1
        self._price(reversed(chain))
        return blocks[mask]

    def _price(self, masks: Iterable[int]) -> None:
        """Memoise each block in ``masks``, in order, in one step each: a
        block's B' must be memoised already or come earlier in ``masks``."""
        blocks, ranked = self._blocks, self._ranked
        for mask in masks:
            low = mask & -mask
            blocks[mask] = add_lowest_type(blocks[mask ^ low], *ranked[low.bit_length() - 1])

    def _block_scores(self) -> list:
        """One buyer, one good: every block's utility over ``_scale``, by mask
        (0 the empty block), all 2^n - 1 blocks priced."""
        full = range(1, 1 << len(self._bits[0]))
        self._price(full)
        return [0] + [self._blocks[m][2][1] for m in full]

    @cached_property
    def _members(self) -> list[list[tuple[int, ...]]]:
        """Per buyer, each block mask's sorted type indices, indexed by mask:
        2^n entries a buyer, so built for searches alone, after their guard."""
        return [mask_members(bits) for bits in self._bits]

    def _profile(self, masks: tuple[tuple[int, ...], ...]) -> tuple[SetPartition, ...]:
        """The canonical profile of block masks, one tuple per buyer."""
        # a list, not a generator: this runs once per ranked row
        return tuple([
            tuple(sorted(map(members.__getitem__, part)))
            for members, part in zip(self._members, masks)
        ])

    def _masks(self, profile: Iterable[Sequence[Sequence[int]]]) -> tuple[tuple[int, ...], ...]:
        """The block masks of a profile of type indices, one tuple per buyer."""
        return tuple(
            tuple(sum(map(bits.__getitem__, block)) for block in part)
            for bits, part in zip(self._bits, profile)
        )

    def _solution(self, messages: tuple[tuple[int, ...], ...]) -> tuple[Fraction, LPSolution]:
        """A message tuple's probability and conditioned solution.  A
        posted-price message's probability is its mass in the block memo, and
        its mechanism is solved on each read: only reports read it."""
        # each buyer's message as a partition of one block
        masks = tuple(m for (m,) in self._masks(zip(messages)))
        if self._form is None:
            return self._entry(masks)[:2]
        prob = Fraction(self._block(masks[0])[0], self._w_scale)
        return prob, solve_instance(condition_on_messages(self.instance, messages).instance)

    def evaluate(self, profile: Sequence[Sequence[Sequence[int]]]) -> GameOutcome:
        inst = self.instance
        if not is_sequence(profile) or len(profile) != inst.n_buyers:
            raise ValidationError(f"need one partition per buyer ({inst.n_buyers}), got {profile!r}")
        for j, part in enumerate(profile, 1):
            if not is_sequence(part) or not all(map(is_sequence, part)):
                raise ValidationError(
                    f"buyer {j}: a partition must be a sequence of messages, got {part!r}"
                )
        profile = tuple(
            validate_partition(part, inst.n_types(j)) for j, part in enumerate(profile)
        )
        return self._outcome(profile, self._sums(self._masks(profile)))

    def _sums(self, masks: tuple[tuple[int, ...], ...]) -> tuple:
        """A profile's sums over its messages, from its block masks (one
        tuple per buyer), over ``_scale``: (revenue, each buyer's utility,
        total surplus, all sold, efficient)."""
        if self._form is not None:
            blocks, block, ranked = self._blocks, self._block, self._ranked
            revenue = utility = 0
            sold = True
            for mask in masks[0]:
                _, _, (rev, util, price) = blocks.get(mask) or block(mask)
                revenue += rev
                utility += util
                # all sold (with one buyer, efficient too) when priced at its lowest value
                sold = sold and rev > 0 and price == ranked[(mask & -mask).bit_length() - 1][0]
            return revenue, (utility,), utility, sold, sold
        # the inline get saves a call per cached message: this loop is a search's hot path
        cache, entry = self._cache, self._entry
        revenue = 0
        per_buyer = [0] * len(masks)
        always_all_sold = True
        efficient = True
        for key in itertools.product(*masks):
            _, _, rev, utilities, sold, eff = cache.get(key) or entry(key)
            revenue += rev
            for j, u in enumerate(utilities):
                per_buyer[j] += u
            always_all_sold &= sold
            efficient &= eff
        return revenue, per_buyer, sum(per_buyer), always_all_sold, efficient

    def _outcome(self, profile: tuple[SetPartition, ...], sums: tuple) -> GameOutcome:
        """The ``GameOutcome`` of a profile and its ``_sums``."""
        revenue, per_buyer, total, always_all_sold, efficient = sums
        scale = self._scale
        return GameOutcome(
            expected_revenue=Fraction(revenue, scale),
            per_buyer_utility=tuple(Fraction(u, scale) for u in per_buyer),
            total_surplus=Fraction(total, scale),
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


def _search_evaluator(inst: DiscreteInstance, connected_only: bool) -> GameEvaluator:
    """A fresh evaluator for a profile search, after the profile count, a
    product of Bell numbers (2^(n-1) per buyer when ``connected_only``), is
    checked against ``SEARCH_GUARD``: before any partition is listed."""
    count = 1
    for j in range(inst.n_buyers):
        n = inst.n_types(j)
        count *= 2 ** (n - 1) if connected_only else bell_number(n)
    if count > SEARCH_GUARD:
        raise GuardExceeded(f"profile search would evaluate {count} > {SEARCH_GUARD} profiles")
    return GameEvaluator(inst)


def _ranking(evaluator: GameEvaluator, connected_only: bool) -> list[tuple[tuple, tuple]]:
    """Score every partition profile once and key it for ranking.

    Returns one (key, sums) row per profile, unordered.  The key is
    (-total surplus, profile) with the total exact, so the best surplus
    comes first and exact ties go to the canonically smaller profile: a
    total order, whatever order the profiles were generated in.  Each
    buyer's partitions are tuples of block masks: its set partitions
    (``set_partition_masks``) or, when ``connected_only``, the compositions
    of its value ranks; a profile is one from each buyer.
    """
    per_buyer = [
        [
            # value ranks j..i-1, a run of compositions, are the mask (1 << i) - (1 << j)
            tuple((1 << b[-1] + 1) - (1 << b[0]) for b in blocks)
            for blocks in compositions(len(bits))
        ]
        if connected_only
        else [masks for masks, _ in set_partition_masks(bits)]
        for bits in evaluator._bits
    ]
    sums, profile = evaluator._sums, evaluator._profile
    return [
        ((-(s := sums(masks))[2], profile(masks)), s) for masks in itertools.product(*per_buyer)
    ]


def search_profiles(
    inst: DiscreteInstance, connected_only: bool = False
) -> list[tuple[tuple[SetPartition, ...], GameOutcome]]:
    """Evaluate every partition profile, best buyer surplus first.

    Exact surplus ties are broken toward the canonically smaller profile,
    so rankings are reproducible (see ``_ranking``; ``SEARCH_GUARD`` is
    checked first).  Every row's ``GameOutcome`` is built; a caller that
    reads only the best row should call ``search_best``.
    """
    evaluator = _search_evaluator(inst, connected_only)
    rows = _ranking(evaluator, connected_only)
    rows.sort(key=itemgetter(0))
    return [(key[1], evaluator._outcome(key[1], sums)) for key, sums in rows]


def search_best(
    inst: DiscreteInstance, connected_only: bool = False
) -> tuple[tuple[SetPartition, ...], GameOutcome]:
    """``search_profiles(inst, connected_only)[0]``, building one ``GameOutcome``.

    A full posted-price search scores each block once (``_block_scores``)
    and places the last type inline, in ``set_partition_masks``' order, into
    each partition of the others, so it builds Bell(n - 1) mask tuples and
    the ties at the best total, not Bell(n); it renders the ties by
    ``_scan``, building no member table.  Other searches take the least
    row of ``_ranking``.
    """
    evaluator = _search_evaluator(inst, connected_only)
    if evaluator._form is None or connected_only:
        key, sums = min(_ranking(evaluator, connected_only), key=itemgetter(0))
        return key[1], evaluator._outcome(key[1], sums)
    best, tied = -1, []  # a total is a sum of utilities, never negative
    score = evaluator._block_scores()
    *bits, last = evaluator._bits[0]
    for masks, total in set_partition_masks(bits, score):
        for k, m in enumerate(masks + (0,)):
            placed = total + score[m | last] - score[m]
            if placed >= best:
                if placed > best:
                    best, tied = placed, []
                tied.append(masks[:k] + (m | last,) + masks[k + 1 :])
    bits = evaluator._bits[0]
    part, masks = min((tuple(sorted(_scan(bits, m) for m in t)), t) for t in tied)
    return (part,), evaluator._outcome((part,), evaluator._sums((masks,)))


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
