"""How much do buyers lose by only pooling adjacent values?

A single buyer may group value types into messages.  Restricting the
groups to runs of adjacent values ("connected" partitions) admits a
fast dynamic program, but the restriction has a real price: on a
three-type family with a tiny top gap delta, connected pooling earns
delta/9 while free pooling earns (1+delta)/9, a ratio that blows up as
delta shrinks.
"""

import random
from fractions import Fraction

from disclosure_games import (
    brute_force_connected,
    inapproximability_instance,
    optimal_connected,
    search_best,
)
from disclosure_games.core import approx
from disclosure_games.dpconnected import SingleBuyerInstance


def main():
    print("values 1, 2, 2+delta with probabilities 1/3, 5/9, 1/9:")
    for text in ("1/2", "1/10", "1/100"):
        delta = Fraction(text)
        inst = inapproximability_instance(delta)
        _, connected = optimal_connected(inst)
        free = search_best(inst)[1].total_surplus
        print(f"  delta {text:>5}: connected {approx(connected)}, "
              f"free {approx(free)}, ratio {approx(free / connected)}")
    print("  pooling the top value with the bottom one is what free")
    print("  partitions exploit; adjacency forbids exactly that move.")
    print()

    rng = random.Random(7)
    print("sanity: the dynamic program against cut-set brute force")
    for _ in range(5):
        n = rng.randint(2, 9)
        values = sorted(rng.sample(range(1, 60), n))
        weights = [rng.randint(1, 4) for _ in range(n)]
        total = sum(weights)
        inst = SingleBuyerInstance(
            tuple(Fraction(v) for v in values),
            tuple(Fraction(w, total) for w in weights),
        )
        part, fast = optimal_connected(inst)
        _, slow = brute_force_connected(inst)
        blocks = " | ".join(
            "{" + ", ".join(str(inst.values[i]) for i in block) + "}" for block in part
        )
        mark = "agrees" if fast == slow else "DISAGREES"
        print(f"  n={n}: best {approx(fast)} via {blocks} ({mark})")


if __name__ == "__main__":
    main()
