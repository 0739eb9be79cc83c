"""Oracle independence, checked at run time.

An oracle checks a computation only if it does not run the code it
checks.  Imports miss what an oracle reaches through a shared helper, so
here both sides run under ``sys.setprofile`` and every ``src/`` function
each executes is recorded.  The functions both sides ran must lie in the
pair's allow-list, each entry with its reason.
"""

import sys
from pathlib import Path

from disclosure_games import core
from disclosure_games.dpconnected import buyer_utility
from disclosure_games.game import search_best
from disclosure_games.hardness import (
    PartitionProblem,
    reduce_to_buyer_opt,
    solve_partition_bruteforce,
)

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
REDUCTION_ALLOWED = {
    "core.DiscreteInstance.ints": (
        "the instance's exact int form, a change of representation that "
        "prices nothing; TestIntForm reads every Fraction back from it"
    ),
}


def test_reduction_search_and_its_oracle_share_only_the_int_form():
    pp = PartitionProblem((1, 2, 3, 4, 6))
    # a reduction of its own for each side, so each builds its int form
    searched = reduce_to_buyer_opt(pp).instance.to_instance()
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
