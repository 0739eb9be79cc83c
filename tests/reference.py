"""Reference generators and oracles shared by several test modules.

They are written apart from the code they check: the set partitions
come from a recursive generator, not from ``core.set_partition_masks``,
and the one-buyer ranking conditions and solves every block.
"""

from fractions import Fraction

from disclosure_games.core import condition_on_messages
from disclosure_games.lpmech import solve_instance


def set_partitions(n: int):
    """Every set partition of 0..n-1 as sorted tuples of sorted blocks, in
    canonical order: element i joins each block made by 0..i-1 in turn,
    then a block of its own, and earlier elements vary slowest."""
    if n == 0:
        yield ()
        return

    def rec(i, blocks):
        if i == n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[0]])


def ranked_by_conditioning(inst):
    """One buyer: every profile as (profile, revenue, (utility,), total),
    each block conditioned on and solved, summed in ``Fraction`` and ranked
    on (-total, profile)."""
    rows = []
    for part in set_partitions(inst.n_types(0)):
        revenue = utility = Fraction(0)
        for block in part:
            cond = condition_on_messages(inst, [block])
            sol = solve_instance(cond.instance)
            revenue += cond.masses[0] * sol.revenue
            utility += cond.masses[0] * sol.buyer_surplus
        rows.append(((part,), revenue, (utility,), utility))
    rows.sort(key=lambda row: (-row[3], row[0]))
    return rows
