"""Oracle independence, checked at run time.

An oracle checks a computation only if it does not run the code it
checks.  Imports miss what an oracle reaches through a shared helper, so
here both sides run under ``sys.setprofile`` and every ``src/`` function
each executes is recorded.  The functions both sides ran must lie in the
pair's allow-list, each entry with its reason.
"""

import sys
from pathlib import Path

import pytest

from disclosure_games import core
from disclosure_games.acceptance import AUCTION_123
from disclosure_games.dpconnected import (
    SingleBuyerInstance,
    brute_force_connected,
    buyer_utility,
    optimal_connected,
)
from disclosure_games.game import search_best
from disclosure_games.hardness import (
    PartitionProblem,
    reduce_to_buyer_opt,
    solve_partition_bruteforce,
)
from disclosure_games.lpmech import solve_instance, uniform_grid_instance
from disclosure_games.myerson import myerson_optimum

SRC = Path(core.__file__).resolve().parent


def executed(run) -> set[str]:
    """The ``src/`` functions ``run()`` calls, as "module.Class.function"
    (the class read off ``self``, so names agree from Python 3.10 on)."""
    seen = set()
    in_src = {}

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name.startswith("<"):
            return  # comprehensions and generator expressions
        where = in_src.get(code.co_filename)
        if where is None:
            path = Path(code.co_filename).resolve()
            where = in_src[code.co_filename] = path.stem if path.parent == SRC else ""
        if where:
            owner = frame.f_locals.get("self") if "self" in code.co_varnames[:1] else None
            cls = f"{type(owner).__name__}." if owner is not None else ""
            seen.add(f"{where}.{cls}{code.co_name}")

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen


# verify_reduction's two sides: the profile search over the reduced game,
# and the subset brute force with the pooled witness priced by buyer_utility
REDUCTION_ALLOWED: dict[str, str] = {}


def test_reduction_search_and_its_oracle_share_nothing():
    pp = PartitionProblem((1, 2, 3, 4, 6))
    # a reduction of its own for each side, each built and validated before the trace
    searched = reduce_to_buyer_opt(pp).instance
    search = executed(lambda: search_best(searched))

    reduced = reduce_to_buyer_opt(pp)

    def oracle():
        subset = solve_partition_bruteforce(pp)
        pooled = (reduced.pool_index,) + tuple(reduced.size_type(i) for i in subset)
        buyer_utility(reduced.instance, pooled)

    checked = executed(oracle)
    shared = search & checked
    assert shared <= set(REDUCTION_ALLOWED), sorted(shared - set(REDUCTION_ALLOWED))
    # the trace saw each side's own pricing: the block memo and the mask
    # enumerator on the search side, best_posted_price on the oracle side
    assert {"game.GameEvaluator._price", "core.set_partition_masks"} <= search - checked
    assert {"lpmech.best_posted_price", "hardness.solve_partition_bruteforce"} <= checked - search


# the connected-partition DP, which extends one running block per step,
# and the brute force over compositions, which prices every block on its
# own through buyer_utility
CONNECTED_ALLOWED = {
    "dpconnected.SingleBuyerInstance.n": (
        "the number of types, len(buyers[0]): it sizes both searches and prices nothing"
    ),
}


def test_connected_dp_and_its_brute_force_share_only_the_instance():
    pairs = [("1/8", v) for v in (3, 1, 4, 15, 9, 2, 6, 5)]
    # an instance of its own for each side, each built and validated before the trace
    for_dp, for_brute = SingleBuyerInstance.build(pairs), SingleBuyerInstance.build(pairs)
    dp = executed(lambda: optimal_connected(for_dp))
    brute = executed(lambda: brute_force_connected(for_brute))
    shared = dp & brute
    assert shared <= set(CONNECTED_ALLOWED), sorted(shared - set(CONNECTED_ALLOWED))
    # the DP prices by the one-step extension only, never by a scan; the
    # brute force prices every block through the posted-price pass
    assert "core.add_lowest_type" in dp - brute
    assert {"dpconnected.buyer_utility", "lpmech.best_posted_price"} <= brute - dp


# the closed-form Myerson auction against the mechanism LP, on two-buyer,
# one-good instances: the closed form loops over joint types itself
MYERSON_ALLOWED: dict[str, str] = {}


@pytest.mark.parametrize(
    "inst", [AUCTION_123, uniform_grid_instance(4)], ids=["auction-123", "grid-4"]
)
def test_myerson_closed_form_and_the_lp_share_nothing(inst):
    closed = executed(lambda: myerson_optimum(inst))
    lp = executed(lambda: solve_instance(inst))
    shared = closed & lp
    assert shared <= set(MYERSON_ALLOWED), sorted(shared - set(MYERSON_ALLOWED))
    assert "myerson.ironed_virtual_values" in closed - lp
    assert {"lpmech.build_lp", "simplex.ExactSimplex.solve_lexicographic"} <= lp - closed
