"""Shared data model: exact rationals, discrete type spaces, partitions.

Everything downstream works over exact rational arithmetic
(``fractions.Fraction``); floating point appears only in display helpers.
Discrete instances describe buyers with finitely many types, each type a
probability and one value per good.  Messages are subsets of a buyer's
types; a partition profile assigns every buyer a partition of their types
into messages.  Interval partitions play the same role for a buyer whose
value is uniform on [0, 1].
"""

from __future__ import annotations

import json
import re
from collections import abc
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence

SET_PARTITION_GUARD = 12


class ValidationError(ValueError):
    """Malformed input: bad rational, inconsistent instance, bad partition."""


class GuardExceeded(RuntimeError):
    """A resource guard (enumeration size, variable budget) was hit."""


# ---------------------------------------------------------------------------
# rationals

_RATIONAL_RE = re.compile(r"^\s*[+-]?\d+\s*(/\s*\d+\s*)?$|^\s*[+-]?\d*\.\d+\s*$")


def parse_rational(text) -> Fraction:
    """Parse "num/den", integer, or decimal notation into a Fraction.

    Fractions, ints, and anything Fraction itself accepts exactly
    (e.g. "118.6" -> 593/5) are allowed; floats are rejected since they
    carry binary rounding the caller probably does not intend, and
    booleans since JSON true is not a number.
    """
    if type(text) is Fraction:  # exact types first: the ABC checks below are slow
        return text
    if type(text) is int:
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise ValidationError(f"refusing boolean {text!r}; pass a string or Fraction")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        raise ValidationError(f"refusing float {text!r}; pass a string or Fraction")
    if not isinstance(text, str) or not _RATIONAL_RE.match(text):
        raise ValidationError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational literal: {text!r}") from exc


def require_exact(x, what: str) -> None:
    """Reject anything but an int or a Fraction, subclasses included: floats
    round, and bool is an int subclass that JSON true should not pass as."""
    if not (type(x) is Fraction or type(x) is int
            or isinstance(x, (int, Fraction)) and not isinstance(x, bool)):
        raise ValidationError(f"{what} must be an int or a Fraction, got {x!r}")


def require_good(k, goods: int) -> None:
    """Reject a good index that is not an int in 0..goods-1 (bool included)."""
    if type(k) is not int or not 0 <= k < goods:
        raise ValidationError(f"good index must be an int in 0..{goods - 1}, got {k!r}")


def format_rational(q: Fraction) -> str:
    """Canonical string form: "num/den" in lowest terms, "num" for integers."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def approx(q: Fraction) -> str:
    """Display helper: exact fraction annotated with a six-digit decimal approximation."""
    return f"{format_rational(q)} (~{float(q):.6g})"


# ---------------------------------------------------------------------------
# discrete instances


@dataclass(frozen=True)
class BuyerType:
    prob: Fraction
    values: tuple[Fraction, ...]


@dataclass(frozen=True)
class IntForm:
    """A ``DiscreteInstance`` on int numerators; see ``DiscreteInstance``."""

    v_scale: int
    values: tuple[tuple[tuple[int, ...], ...], ...]
    w_scales: tuple[int, ...]
    probs: tuple[tuple[int, ...], ...]
    orders: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DiscreteInstance:
    """Finitely many goods and buyers; each buyer an independent discrete prior.

    ``buyers[j][i]`` is type i of buyer j.  Type probabilities are positive
    and sum to one per buyer; every type carries one nonnegative value per
    good.

    ``ints``, a field outside ``__init__``, equality, hashing and ``repr``,
    is the instance on int numerators, derived in the pass that validates
    it; the value and probability checks run on those ints
    (``_check_form``).  ``v_scale`` is the lcm of every value denominator
    and ``values[j][i][k]`` the value of buyer j's type i for good k over
    it; ``w_scales[j]`` is the lcm of buyer j's probability denominators
    and ``probs[j][i]`` type i's probability over it, so a joint type's
    weight is the product of its numerators over the product of the
    scales.  ``orders[j]`` lists buyer j's types by value vector,
    lexicographic for several goods: the scales are positive, so the ints
    keep the rationals' order.  A caller that already holds the form
    builds the instance with ``_from_form``, which derives nothing.
    """

    goods: int
    buyers: tuple[tuple[BuyerType, ...], ...]
    ints: IntForm = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # bool is an int subclass, but JSON true is not a count of goods
        if type(self.goods) is not int or self.goods < 1:
            raise ValidationError(f"goods must be a positive integer, got {self.goods!r}")
        if not isinstance(self.buyers, tuple):
            raise ValidationError(f"buyers must be a tuple of type tuples, got {self.buyers!r}")
        if not self.buyers:
            raise ValidationError("instance needs at least one buyer")
        values, w_scales, probs = [], [], []
        for j, prior in enumerate(self.buyers, 1):
            if not isinstance(prior, tuple):
                raise ValidationError(f"buyer {j} must be a tuple of BuyerType, got {prior!r}")
            if not prior:
                raise ValidationError(f"buyer {j} has no types")
            for i, t in enumerate(prior, 1):
                if not isinstance(t, BuyerType) or not isinstance(t.values, tuple):
                    raise ValidationError(
                        f"buyer {j} type {i} must be a BuyerType with a tuple of values, got {t!r}"
                    )
                for x in (t.prob, *t.values):
                    if type(x) is not Fraction and type(x) is not int:  # else skip the f-string
                        require_exact(x, f"buyer {j} type {i}: probability or value")
            w = lcm(*(t.prob.denominator for t in prior))
            nums = tuple(t.prob.numerator * (w // t.prob.denominator) for t in prior)
            u = lcm(*(v.denominator for t in prior for v in t.values))  # buyer j's own value lcm
            vecs = tuple(tuple(v.numerator * (u // v.denominator) for v in t.values) for t in prior)
            values.append((u, vecs))
            w_scales.append(w)
            probs.append(nums)
        v_scale = lcm(*(u for u, _ in values))
        values = tuple(
            vecs if u == v_scale else tuple(tuple(x * (v_scale // u) for x in vec) for vec in vecs)
            for u, vecs in values
        )
        orders = tuple(tuple(sorted(range(len(nums)), key=nums.__getitem__)) for nums in values)
        form = IntForm(v_scale, values, tuple(w_scales), tuple(probs), orders)
        object.__setattr__(self, "ints", form)
        self._check_form()

    @classmethod
    def _from_form(cls, buyers: tuple[tuple[BuyerType, ...], ...], form: IntForm):
        """``cls`` on ``buyers`` and the form ``__post_init__`` would derive from
        them, unchecked: ``_check_form`` is the caller's, as is the form."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "goods", len(buyers[0][0].values))
        object.__setattr__(inst, "buyers", buyers)
        object.__setattr__(inst, "ints", form)
        return inst

    def _check_form(self) -> None:
        """The checks past exactness, on ``ints``, buyer by buyer, in the order
        of their messages."""
        form = self.ints
        for j, (w, nums, vecs) in enumerate(zip(form.w_scales, form.probs, form.values), 1):
            for i, (p, vec) in enumerate(zip(nums, vecs), 1):
                if p <= 0:
                    raise ValidationError(f"buyer {j} type {i}: prob must be positive")
                if len(vec) != self.goods:
                    raise ValidationError(
                        f"buyer {j} type {i}: expected {self.goods} values, got {len(vec)}"
                    )
                if min(vec) < 0:  # vec has goods >= 1 entries
                    raise ValidationError(f"buyer {j} type {i}: values must be nonnegative")
            if sum(nums) != w:
                total = format_rational(Fraction(sum(nums), w))
                raise ValidationError(f"buyer {j}: type probabilities sum to {total}, expected 1")
            if len(set(vecs)) != len(vecs):
                raise ValidationError(f"buyer {j}: duplicate type value vectors")

    @property
    def n_buyers(self) -> int:
        return len(self.buyers)

    def n_types(self, j: int) -> int:
        return len(self.buyers[j])

    @staticmethod
    def build(goods: int, buyers: Sequence[Sequence[tuple]]) -> "DiscreteInstance":
        """Convenience constructor from (prob, values) pairs in any rational notation."""
        built = []
        for prior in buyers:
            row = []
            for prob, values in prior:
                vals = values if isinstance(values, (list, tuple)) else [values]
                row.append(BuyerType(parse_rational(prob), tuple(parse_rational(v) for v in vals)))
            built.append(tuple(row))
        return DiscreteInstance(goods, tuple(built))


def parse_instance(text: str) -> DiscreteInstance:
    """Parse the JSON instance document.

    Layout: {"goods": m, "buyers": [[{"prob": "...", "values": ["...", ...]}, ...], ...]}
    with rationals given as "num/den", integer, or decimal strings.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"goods", "buyers"}:
        raise ValidationError('instance document must have exactly the keys "goods" and "buyers"')
    goods = doc["goods"]
    if not isinstance(goods, int):
        raise ValidationError('"goods" must be an integer')
    if not isinstance(doc["buyers"], list):
        raise ValidationError('"buyers" must be an array')
    buyers = []
    for j, prior in enumerate(doc["buyers"], 1):
        if not isinstance(prior, list):
            raise ValidationError(f"buyer {j} must be an array of types")
        row = []
        for i, entry in enumerate(prior, 1):
            if not isinstance(entry, dict) or set(entry) != {"prob", "values"}:
                raise ValidationError(
                    f'buyer {j} type {i} must be an object with keys "prob" and "values"'
                )
            if not isinstance(entry["values"], list):
                raise ValidationError(f'buyer {j} type {i}: "values" must be an array')
            row.append(
                BuyerType(
                    parse_rational(entry["prob"]),
                    tuple(parse_rational(v) for v in entry["values"]),
                )
            )
        buyers.append(tuple(row))
    return DiscreteInstance(goods, tuple(buyers))


def serialize_instance(inst: DiscreteInstance) -> str:
    """Canonical JSON for an instance; parse/serialize round-trips bit-identically."""
    doc = {
        "goods": inst.goods,
        "buyers": [
            [
                {"prob": format_rational(t.prob), "values": [format_rational(v) for v in t.values]}
                for t in prior
            ]
            for prior in inst.buyers
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# set partitions of type indices

SetPartition = tuple[tuple[int, ...], ...]


def canonical_partition(blocks: Iterable[Iterable[int]]) -> SetPartition:
    """Sort indices inside blocks and blocks by least element."""
    norm = tuple(sorted(tuple(sorted(b)) for b in blocks))
    return norm


def _check_blocks(partition: Sequence[Sequence[int]], ids: range) -> None:
    """Raise unless the blocks split ``ids`` exactly, naming indices as written."""
    seen = set()
    for block in partition:
        if not block:
            raise ValidationError("partition contains an empty message")
        for i in block:
            if type(i) is not int or i not in ids:
                raise ValidationError(f"type index {i!r} out of range {ids.start}..{ids.stop - 1}")
            if i in seen:
                raise ValidationError(f"type index {i} appears in two messages")
            seen.add(i)
    if len(seen) != len(ids):
        missing = sorted(set(ids) - seen)
        raise ValidationError(f"partition misses type indices {missing}")


def validate_partition(partition: Sequence[Sequence[int]], n: int) -> SetPartition:
    _check_blocks(partition, range(n))
    return canonical_partition(partition)


def _require_size(n: int) -> None:
    # bool is an int subclass, but True is not a number of elements
    if type(n) is not int or n < 0:
        raise ValidationError(f"n must be a nonnegative integer, got {n!r}")


def bell_number(n: int) -> int:
    """Number of set partitions of an n-element set (Bell triangle)."""
    _require_size(n)
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


def _join(level, bit: int, score: Sequence[int]):
    """Every way to add the element ``bit`` to each (block masks, total) of
    ``level``: into each block in turn, then as a block of its own (the
    appended 0 mask).  The total moves by score[b | bit] - score[b]."""
    return (
        (masks[:k] + (m | bit,) + masks[k + 1 :], total + score[m | bit] - score[m])
        for masks, total in level
        for k, m in enumerate(masks + (0,))
    )


def set_partition_masks(
    bits: Sequence[int], score: Sequence[int] | None = None
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Every set partition of the elements with the given distinct one-bit
    masks, as an iterator of (block masks, total) in canonical order.

    A block is the OR of its elements' bits, and blocks come in the order
    their least element appears in ``bits``.  ``total`` is the sum of
    ``score[b]`` over the blocks b, for a table indexed by mask with
    ``score[0] == 0`` (all zero when omitted); it is kept while each
    partition is built, so placing an element costs one step.  Canonical
    order: element k goes into each block made by elements 0..k-1 in turn,
    then into a block of its own, and earlier elements vary slowest.  The
    partitions of the first k elements are built as a list from those of
    k - 1, on the call, and the last element's are made as the iterator is
    read, so at most the partitions of len(bits) - 1 elements are held.
    Guarded on the call, because the count is the Bell number (B(12) is
    about 4.2 million; anything beyond that is a mistake, not a workload);
    no elements have one partition, the empty one.  The game layer's
    searches walk these masks, and ``mask_members`` reads them as type
    indices.
    """
    if len(bits) > SET_PARTITION_GUARD:
        raise GuardExceeded(
            f"refusing to enumerate set partitions of {len(bits)} > {SET_PARTITION_GUARD} elements"
        )
    if score is None:
        score = bytes(sum(bits) + 1)
    level = [((), 0)]
    for bit in bits[:-1]:
        level = list(_join(level, bit, score))
    return _join(level, bits[-1], score) if bits else iter(level)


def mask_members(bits: Sequence[int]) -> list[tuple[int, ...]]:
    """For each mask over the given distinct one-bit masks, the sorted
    positions in ``bits`` of the elements it holds, indexed by mask."""
    members = [()] * (sum(bits) + 1)
    filled = [0]
    for i, bit in enumerate(bits):
        for m in filled[:]:
            members[m | bit] = members[m] + (i,)
            filled.append(m | bit)
    return members


def add_lowest_type(block: tuple, value: int, weight: int) -> tuple[int, int, tuple[int, int, int]]:
    """A one-buyer, one-good block's (mass, value-weighted mass, best
    (revenue, utility, price)), (0, 0, None) when empty, with a type of
    (value, weight) added below all its values.  The block keeps its mass
    at every higher price, so the type adds one candidate, v at the new
    mass M: the best is the larger of the old one and (v M, S - v M, v), S
    the new weighted mass; one step of ``lpmech.best_posted_price``'s
    running maximum (a revenue tie goes to the lower price).  Ints over W
    (mass), V (price) and V W (the rest)."""
    mass, weighted, best = block
    mass += weight
    weighted += weight * value
    candidate = (value * mass, weighted - value * mass, value)
    return mass, weighted, candidate if best is None or candidate > best else best


def compositions(n: int) -> Iterator[SetPartition]:
    """Yield every split of 0..n-1 into consecutive blocks, 2^(n-1) in all
    (n = 0 has one, the empty split).

    Bit pos-1 of the counter cuts before element pos.  The order is fixed
    because the brute-force oracles break ties toward the first composition.
    Each of the n(n+1)/2 blocks j..i-1 is built once per call, and every
    composition is a tuple of references to those blocks; the counter loop
    visits only the set bits of each counter value.
    """
    _require_size(n)
    if n == 0:
        yield ()
        return
    # block[j][i] is the run j..i-1, for i > j
    block = [
        [()] * (j + 1) + [tuple(range(j, i)) for i in range(j + 1, n + 1)] for j in range(n)
    ]
    for cuts in range(2 ** (n - 1)):
        blocks = []
        start = 0
        while cuts:
            low = cuts & -cuts
            pos = low.bit_length()
            blocks.append(block[start][pos])
            start = pos
            cuts ^= low
        blocks.append(block[start][n])
        yield tuple(blocks)


def parse_partition_profile(text: str, inst: DiscreteInstance) -> tuple[SetPartition, ...]:
    """Parse the JSON partition document (1-based indices) against an instance."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"partition document is not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or len(doc) != inst.n_buyers:
        raise ValidationError(f"partition document must list one partition per buyer ({inst.n_buyers})")
    profile = []
    for j, part in enumerate(doc):
        if not isinstance(part, list) or not all(isinstance(b, list) for b in part):
            raise ValidationError(f"buyer {j + 1}: partition must be an array of arrays of indices")
        if not all(type(i) is int for b in part for i in b):
            raise ValidationError(f"buyer {j + 1}: partition indices must be integers")
        try:
            _check_blocks(part, range(1, inst.n_types(j) + 1))
        except ValidationError as exc:
            raise ValidationError(f"buyer {j + 1}: {exc}") from None
        profile.append(canonical_partition([i - 1 for i in b] for b in part))
    return tuple(profile)


def serialize_partition_profile(profile: Sequence[SetPartition]) -> str:
    doc = [[[i + 1 for i in block] for block in part] for part in profile]
    return json.dumps(doc) + "\n"


# ---------------------------------------------------------------------------
# conditioning on messages


@dataclass(frozen=True)
class ConditionedInstance:
    """An instance restricted to one message per buyer, with renormalized priors.

    ``masses[j]`` is the prior probability of buyer j's message.
    """

    instance: DiscreteInstance
    masses: tuple[Fraction, ...]


def is_sequence(x) -> bool:
    """``isinstance(x, abc.Sequence)``, sparing a tuple or list the slow ABC check."""
    return type(x) is tuple or type(x) is list or isinstance(x, abc.Sequence)


def message_indices(msg: Sequence[int], n: int) -> tuple[int, ...]:
    """The sorted type indices of a message over n types, or ``ValidationError``.

    A message is a sequence of distinct int indices in 0..n-1, not empty.
    """
    if not is_sequence(msg):
        raise ValidationError(f"a message must be a sequence of type indices, got {msg!r}")
    for i in msg:
        # bool is an int subclass, but True is not a type index
        if type(i) is not int:
            raise ValidationError(f"message indices must be integers, got {i!r}")
    idx = tuple(sorted(set(msg)))
    if not idx:
        raise ValidationError("empty message")
    if len(idx) != len(msg):
        raise ValidationError("message repeats a type index")
    if idx[0] < 0 or idx[-1] >= n:
        raise ValidationError("message index out of range")
    return idx


def condition_on_messages(inst: DiscreteInstance, messages: Sequence[Sequence[int]]) -> ConditionedInstance:
    """Restrict each buyer to a message (subset of type indices) and renormalize."""
    if not is_sequence(messages) or len(messages) != inst.n_buyers:
        raise ValidationError(f"need one message per buyer ({inst.n_buyers}), got {messages!r}")
    buyers = []
    masses = []
    for j, msg in enumerate(messages):
        prior = inst.buyers[j]
        try:
            idx = message_indices(msg, len(prior))
        except ValidationError as exc:
            raise ValidationError(f"buyer {j + 1}: {exc}") from None
        mass = sum((prior[i].prob for i in idx), Fraction(0))
        buyers.append(tuple(BuyerType(prior[i].prob / mass, prior[i].values) for i in idx))
        masses.append(mass)
    return ConditionedInstance(DiscreteInstance(inst.goods, tuple(buyers)), tuple(masses))


# ---------------------------------------------------------------------------
# interval partitions of [0, 1]


@dataclass(frozen=True)
class IntervalPartition:
    """Partition of [0, 1] into intervals via strictly increasing breakpoints.

    Breakpoints run 0 = t0 < t1 < ... < tK = 1; block k is the interval
    [t_{k-1}, t_k].  For point membership blocks are treated as half-open
    (t_{k-1}, t_k], with 0 belonging to the first block, so every value has
    exactly one block.
    """

    breakpoints: tuple[Fraction, ...]

    def __post_init__(self):
        bp = self.breakpoints
        for t in bp:
            require_exact(t, "breakpoint")
        if len(bp) < 2:
            raise ValidationError("interval partition needs at least two breakpoints")
        if bp[0] != 0 or bp[-1] != 1:
            raise ValidationError("breakpoints must start at 0 and end at 1")
        if any(a >= b for a, b in zip(bp, bp[1:])):
            raise ValidationError("breakpoints must be strictly increasing")

    @staticmethod
    def from_string(text: str) -> "IntervalPartition":
        """Parse comma-separated breakpoints such as "0,1/2,1"; no field may be empty."""
        return IntervalPartition(tuple(parse_rational(p) for p in text.split(",")))

    def blocks(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(zip(self.breakpoints, self.breakpoints[1:]))

    def block_containing(self, x: Fraction) -> tuple[Fraction, Fraction]:
        x = parse_rational(x)
        if not 0 <= x <= 1:
            raise ValidationError(f"value {format_rational(x)} outside [0, 1]")
        for lo, hi in self.blocks():
            if x <= hi and (x > lo or lo == 0):
                return (lo, hi)
        raise AssertionError("unreachable: blocks cover [0, 1]")


SILENT = IntervalPartition((Fraction(0), Fraction(1)))
