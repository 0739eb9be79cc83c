"""Bounded-exhaustive census: every instance of five small spaces, hashed.

    PYTHONPATH=src python tests/census.py

Each space lists every instance of a small finite family instead of
sampling one (Boyapati, Khurshid & Marinov 2002, "Korat: automated testing
based on Java predicates", ISSTA).  For each instance the census hashes:

- every row of ``search_profiles``, full and ``connected_only``: the
  profile, the revenue, each buyer's utility and both flags;
- the probability and the vertex (q, r) of every message tuple of the
  full- and no-disclosure profiles.

The fifth space is the two-uniform-buyer layer: every interval partition
of [0, 1] with breakpoints on the 1/d grid, plus ``None`` (disclosing
exactly), for each buyer.  For each ordered pair the census hashes every
``profile_surplus`` row (both segments, the probability and both
utilities; pairs of two partitions only) and the ``efficiency_witness``
result (both values, the kind, the replayed winner and payment).
``PINNED_UNIFORM`` holds, per d, the counts (partitions, pairs, rows,
witnesses) and one sha256.

``PINNED`` holds, per space, the counts (instances, rows, vertices) and
one sha256.  A change that moves a digest has changed an exact answer;
one that moves a count has changed the space.  Tier-1 runs a fixed slice
and the uniform space at d = 6 (``tests/test_census.py``); run as a
script, this checks the whole census, the uniform space at d = 6 and 8
included, and exits 1 on any difference.
"""

from __future__ import annotations

import hashlib
import itertools
import sys
from fractions import Fraction

from disclosure_games.core import DiscreteInstance, IntervalPartition
from disclosure_games.game import (
    evaluate_profile,
    full_disclosure_profile,
    no_disclosure_profile,
    search_profiles,
)
from disclosure_games.uniform2 import efficiency_witness, profile_surplus

F = Fraction
PROBS = (F(1, 3), F(1, 2), F(2, 3))


def space_a() -> list[DiscreteInstance]:
    """One good, two buyers, each with two values from {0, 1, 2, 3} held with
    probabilities (p, 1 - p), p in {1/3, 1/2, 2/3}: 324 instances."""
    priors = [
        [(p, [F(lo)]), (1 - p, [F(hi)])]
        for lo, hi in itertools.combinations(range(4), 2)
        for p in PROBS
    ]
    return [DiscreteInstance.build(1, list(pair)) for pair in itertools.product(priors, repeat=2)]


def space_b() -> list[DiscreteInstance]:
    """One buyer, two goods, three equally likely types from {1, 2, 3}^2:
    84 instances."""
    cells = list(itertools.product(range(1, 4), repeat=2))
    return [
        DiscreteInstance.build(2, [[(F(1, 3), [F(v) for v in t]) for t in types]])
        for types in itertools.combinations(cells, 3)
    ]


def space_c() -> list[DiscreteInstance]:
    """Two buyers, two goods, two types each, zero values included; some
    buyers list their types out of value order: 9 instances."""
    priors = [
        [(F(1, 2), [F(0), F(2)]), (F(1, 2), [F(2), F(1)])],
        [(F(1, 3), [F(3), F(0)]), (F(2, 3), [F(1), F(1)])],
        [(F(1, 4), [F(2), F(2)]), (F(3, 4), [F(0), F(3)])],
    ]
    return [DiscreteInstance.build(2, list(pair)) for pair in itertools.product(priors, repeat=2)]


def space_d() -> list[DiscreteInstance]:
    """One buyer, one good (the posted-price path): three values from
    {0, ..., 4} held with probabilities 1/6, 1/3, 1/2 in every order: 60
    instances."""
    weights = (F(1, 6), F(1, 3), F(1, 2))
    return [
        DiscreteInstance.build(1, [[(w, [F(v)]) for w, v in zip(order, values)]])
        for values in itertools.combinations(range(5), 3)
        for order in itertools.permutations(weights)
    ]


SPACES = {"A": space_a, "B": space_b, "C": space_c, "D": space_d}

# space -> (instances, rows, vertices, sha256 of the census)
PINNED = {
    "A": (324, 2592, 1620, "6a17ad865040a18e0611932cd864ae2e126725b594f6090ad95636628025992d"),
    "B": (84, 756, 336, "e321dcf92357a6b1dde65b3b0d9cfcb6b26ba2ac4cd659084320f4eab7fd8f88"),
    "C": (9, 72, 45, "5f1e0ace25e4b1ec22cba003d0cd02eb5f7f62c1c190f76cd8db9c3d745c8024"),
    "D": (60, 540, 240, "7f19797b6c6f303e3ce55b9978db2dbbdcb225bc63f8470ea2f31ba48d81c610"),
}

# tier-1's slice: every k-th instance of each space, from the first; all of
# space C, the only one whose two buyers can rank their types differently
SLICE_STRIDE = {"A": 4, "B": 4, "C": 1, "D": 4}
# space -> (instances, rows, vertices, sha256) of the slice
PINNED_SLICE = {
    "A": (81, 648, 405, "b05ac2dff40a8350d0acfe175537d4ea5a9bdf8ca48530bc8f1cfb436665cbeb"),
    "B": (21, 189, 84, "19f235649521c67d71c88f4f3f863358214dc0e6440b4cc10d36ed40b7d350cd"),
    "C": PINNED["C"],
    "D": (15, 135, 60, "6507d0269845a7a6aea204f7a226e6f63179c901fbeb6bdd515407cdfa764bf9"),
}


# d -> (partitions, pairs, rows, witnesses, sha256) of the uniform space
PINNED_UNIFORM = {
    6: (33, 1089, 12544, 1089, "fa6ae0bb23f1c0f269a38dbf9763301c0a0578f33d02300bc1481ecae8394f2b"),
    8: (129, 16641, 331776, 16641, "03df366852c3bdffa3bb83569763439d4ce942f542900ec4822dd377b66b27a4"),
}


def text(x) -> str:
    """An exact, version-independent rendering of nested tuples of numbers."""
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(map(text, x)) + ")"
    return str(x)


def census(instances) -> tuple[int, int, int, str]:
    """(instances, rows, vertices, sha256) over the given instances."""
    digest = hashlib.sha256()
    n_instances = n_rows = n_vertices = 0
    for inst in instances:
        n_instances += 1
        digest.update(b"instance\n")
        for connected_only in (False, True):
            for profile, out in search_profiles(inst, connected_only):
                n_rows += 1
                row = (
                    connected_only, profile, out.expected_revenue, out.per_buyer_utility,
                    out.always_all_sold, out.efficient,
                )
                digest.update(f"row {text(row)}\n".encode())
        for profile in (full_disclosure_profile(inst), no_disclosure_profile(inst)):
            for messages, (prob, sol) in evaluate_profile(inst, profile).per_message.items():
                n_vertices += 1
                vertex = (messages, prob, sol.mechanism.q, sol.mechanism.r)
                digest.update(f"vertex {text(vertex)}\n".encode())
    return n_instances, n_rows, n_vertices, digest.hexdigest()


def grid_partitions(d: int) -> list:
    """``None`` and every interval partition with breakpoints on the 1/d
    grid, the interior breakpoints k/d read off the bits of a mask:
    2^(d-1) + 1 entries."""
    inner = range(1, d)
    return [None] + [
        IntervalPartition((F(0), *(F(k, d) for k in inner if mask >> (k - 1) & 1), F(1)))
        for mask in range(2 ** (d - 1))
    ]


def uniform_census(d: int) -> tuple[int, int, int, int, str]:
    """(partitions, pairs, rows, witnesses, sha256) of the uniform space on
    the 1/d grid."""
    digest = hashlib.sha256()
    partitions = grid_partitions(d)
    n_pairs = n_rows = n_witnesses = 0
    for pa, pb in itertools.product(partitions, repeat=2):
        n_pairs += 1
        digest.update(b"pair\n")
        if pa is not None and pb is not None:
            for row in profile_surplus(pa, pb).rows:
                n_rows += 1
                cells = (
                    row.seg_a.a, row.seg_a.b, row.seg_b.a, row.seg_b.b, row.prob, row.u_a, row.u_b,
                )
                digest.update(f"row {text(cells)}\n".encode())
        w = efficiency_witness(pa, pb)
        if not isinstance(w, str):
            w = (w.v_a, w.v_b, w.kind, w.outcome.winner, w.outcome.payment)
        n_witnesses += 1
        digest.update(f"witness {text(w)}\n".encode())
    return len(partitions), n_pairs, n_rows, n_witnesses, digest.hexdigest()


def main() -> int:
    bad = 0
    for name, build in SPACES.items():
        got = census(build())
        ok = got == PINNED.get(name)
        bad += not ok
        print(f"{'ok' if ok else 'MOVED':6} space {name}: {got}")
    for d, pinned in PINNED_UNIFORM.items():
        got = uniform_census(d)
        ok = got == pinned
        bad += not ok
        print(f"{'ok' if ok else 'MOVED':6} uniform d = {d}: {got}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
