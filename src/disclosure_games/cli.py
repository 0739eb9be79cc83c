"""Command line front end for the disclosure-game solvers.

Every subcommand prints a deterministic report to stdout (same command
line, same bytes) with each decimal shown next to its exact fraction.
CSV tables and SVG figures go to the path given by --out.  Exit codes:
0 success, 1 bad input, 2 a checked claim failed, 3 a resource guard
tripped.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction
from typing import Optional

from .acceptance import run_suite
from .core import (
    GuardExceeded,
    IntervalPartition,
    ValidationError,
    approx,
    format_rational,
    parse_instance,
    parse_partition_profile,
    parse_rational,
    serialize_instance,
    serialize_partition_profile,
)
from .dpconnected import SingleBuyerInstance, buyer_utility, dp_table
from .game import evaluate_profile, search_profiles, search_to_csv
from .hardness import PartitionProblem, reduce_to_buyer_opt, verify_reduction
from .lpmech import mechanism_to_csv, posted_menu_view, solve_instance, verify_mechanism
from .simplex import LpUnbounded
from .svgplot import allocation_svg
from .uniform2 import (
    efficiency_witness,
    profile_surplus,
    surplus_to_csv,
    threshold_surplus,
    zeno_partition,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage through the package's own exit code."""

    def error(self, message):
        raise ValidationError(message)


def _partition(text: str) -> IntervalPartition:
    return IntervalPartition.from_string(text)


def _partition_or_exact(text: str) -> Optional[IntervalPartition]:
    if text == "exact":
        return None
    return IntervalPartition.from_string(text)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _write_artifact(path: str, text: str) -> str:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc
    return f"wrote {path}"


def _load_instance(path: str):
    return parse_instance(_read_text(path))


def _blocks_text(part: IntervalPartition) -> str:
    return " ".join(f"[{format_rational(a)}, {format_rational(b)}]" for a, b in part.blocks())


def _message_text(block) -> str:
    return "{" + ", ".join(str(i + 1) for i in block) + "}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_eval_uniform(args) -> int:
    pa, pb = _partition(args.a), _partition(args.b)
    out = profile_surplus(pa, pb)
    print(f"partition A: {_blocks_text(pa)}")
    print(f"partition B: {_blocks_text(pb)}")
    if args.per_case:
        print("block A | block B | prob | uA | uB | total")
        for row in out.rows:
            print(
                f"{row.seg_a} | {row.seg_b} | {format_rational(row.prob)} | "
                f"{format_rational(row.u_a)} | {format_rational(row.u_b)} | "
                f"{format_rational(row.total)}"
            )
    print(f"buyer A utility: {approx(out.u_a)}")
    print(f"buyer B utility: {approx(out.u_b)}")
    print(f"total surplus: {approx(out.total)}")
    if args.out:
        print(_write_artifact(args.out, surplus_to_csv(out)))
    return 0


def cmd_zeno(args) -> int:
    pa = zeno_partition(args.depth)
    pb = pa if args.b is None else _partition(args.b)
    out = profile_surplus(pa, pb)
    print(f"cascade depth {args.depth}: {len(pa.blocks())} blocks")
    print(f"buyer A utility: {approx(out.u_a)}")
    print(f"buyer B utility: {approx(out.u_b)}")
    print(f"total surplus: {approx(out.total)}")
    if args.b is None:
        gap = abs(out.total - Fraction(23, 147))
        print(f"distance to the symmetric limit 23/147: {approx(gap)}")
    if args.out:
        print(_write_artifact(args.out, surplus_to_csv(out)))
    return 0


def cmd_threshold(args) -> int:
    split = threshold_surplus(parse_rational(args.t))
    print(f"threshold t = {format_rational(split.t)}")
    print(f"low/low quadrant: {approx(split.low_low)}")
    print(f"low/high quadrant: {approx(split.low_high)}")
    print(f"high/low quadrant: {approx(split.high_low)}")
    print(f"high/high quadrant: {approx(split.high_high)}")
    print(f"per buyer: {approx(split.per_buyer)}")
    print(f"total surplus: {approx(split.total)}")
    return 0


def cmd_lp_solve(args) -> int:
    inst = _load_instance(args.instance)
    sol = solve_instance(inst)
    print(f"instance: {inst.goods} good(s), "
          f"{', '.join(str(inst.n_types(j)) for j in range(inst.n_buyers))} type(s) per buyer")
    print(f"revenue: {approx(sol.revenue)}")
    print(f"buyer surplus: {approx(sol.buyer_surplus)}")
    for j, per_type in enumerate(sol.mechanism.interim_utilities()):
        for i, u in enumerate(per_type):
            print(f"buyer {j + 1} type {i + 1} utility: {approx(u)}")
    if args.menu:
        print("menu:")
        for line in posted_menu_view(sol).rstrip("\n").splitlines():
            print(f"  {line}")
    if args.verify:
        report = verify_mechanism(inst, sol.mechanism)
        if not report.valid:
            raise AssertionError(f"mechanism failed verification: {report.failure}")
        print("verification: feasible, individually rational, incentive compatible")
    if args.out:
        print(_write_artifact(args.out, mechanism_to_csv(sol.mechanism)))
    return 0


def _profile_text(args_profile: str) -> str:
    if args_profile.startswith("@"):
        return _read_text(args_profile[1:])
    return args_profile


def cmd_game_eval(args) -> int:
    inst = _load_instance(args.instance)
    profile = parse_partition_profile(_profile_text(args.profile), inst)
    out = evaluate_profile(inst, profile)
    print(f"profile: {serialize_partition_profile(profile).strip()}")
    if args.per_message:
        for messages, (prob, sol) in out.per_message.items():
            shown = ", ".join(_message_text(b) for b in messages)
            print(
                f"messages ({shown}): prob {format_rational(prob)}, "
                f"revenue {format_rational(sol.revenue)}, "
                f"surplus {format_rational(sol.buyer_surplus)}"
            )
    print(f"expected revenue: {approx(out.expected_revenue)}")
    for j, u in enumerate(out.per_buyer_utility):
        print(f"buyer {j + 1} utility: {approx(u)}")
    print(f"total surplus: {approx(out.total_surplus)}")
    for k in range(inst.goods):
        print(f"good {k + 1} unsold probability: {approx(out.unsold_probability(k))}")
    print(f"always all sold: {str(out.always_all_sold).lower()}")
    print(f"efficient: {str(out.efficient).lower()}")
    return 0


def cmd_search(args) -> int:
    if args.top < 0:
        raise ValidationError(f"--top must be nonnegative, got {args.top}")
    inst = _load_instance(args.instance)
    results = search_profiles(inst, connected_only=args.connected_only)
    kind = "connected" if args.connected_only else "all"
    print(f"searched {len(results)} profiles ({kind})")
    for rank, (profile, out) in enumerate(results[: args.top], start=1):
        print(
            f"rank {rank}: total {approx(out.total_surplus)}, "
            f"revenue {format_rational(out.expected_revenue)}, "
            f"profile {serialize_partition_profile(profile).strip()}"
        )
    if args.out:
        print(_write_artifact(args.out, search_to_csv(results)))
    return 0


def cmd_dp(args) -> int:
    inst = SingleBuyerInstance.from_instance(_load_instance(args.instance))
    table = dp_table(inst)
    utility, partition = table[inst.n]
    if args.table:
        for i, (best, _) in enumerate(table):
            print(f"best over first {i} type(s): {format_rational(best)}")
    for block in partition:
        values = ", ".join(format_rational(inst.values[i]) for i in block)
        mass, price = buyer_utility(inst, block)
        print(f"message {{{values}}}: price {format_rational(price)}, "
              f"utility {format_rational(mass)}")
    print(f"optimal connected utility: {approx(utility)}")
    return 0


def _sizes(text: str) -> PartitionProblem:
    # int() alone would also take "1_0", "+3" and non-ASCII digits
    fields = text.split(",")
    if not all(re.fullmatch(r"\s*[0-9]+\s*", f) for f in fields):
        raise ValidationError(f"sizes must be a comma list of integers: {text!r}")
    return PartitionProblem(tuple(int(f) for f in fields))


def cmd_reduce(args) -> int:
    pp = _sizes(args.sizes)
    red = reduce_to_buyer_opt(pp)
    inst = red.instance
    print(f"sizes {list(pp.sizes)}, sum {pp.total}")
    print(f"surplus target: {approx(red.target)}")
    for i in range(inst.n):
        tag = "pool" if i == red.pool_index else f"size {pp.sizes[i - 1]}"
        print(f"type {i + 1} ({tag}): value {format_rational(inst.values[i])}, "
              f"prob {format_rational(inst.probs[i])}")
    if args.out:
        print(_write_artifact(args.out, serialize_instance(inst)))
    return 0


def cmd_verify_reduction(args) -> int:
    report = verify_reduction(_sizes(args.sizes))
    pp = report.problem
    print(f"sizes {list(pp.sizes)}, target {approx(report.reduced.target)}")
    if report.subset is None:
        print("even split: none")
    else:
        half = [pp.sizes[i] for i in report.subset]
        print(f"even split: {half} against the rest")
    print(f"best disclosure surplus: {approx(report.best_outcome.total_surplus)}")
    if report.witness_surplus is not None:
        print(f"pooled witness surplus: {approx(report.witness_surplus)} "
              f"at price {format_rational(report.pooled_price)}")
    if not report.equivalent:
        raise AssertionError(f"sizes {list(pp.sizes)} break the reduction equivalence")
    print("equivalence: surplus target reached exactly when an even split exists")
    return 0


def cmd_efficiency_witness(args) -> int:
    pa = _partition_or_exact(args.a)
    pb = _partition_or_exact(args.b)
    witness = efficiency_witness(pa, pb)
    if isinstance(witness, str):
        print("both buyers disclose exactly: allocation is efficient, no witness")
        return 0
    print(f"witness values: v_a = {approx(witness.v_a)}, v_b = {approx(witness.v_b)}")
    print(f"disclosed blocks: A in {witness.seg_a}, B in {witness.seg_b}")
    winner = witness.outcome.winner or "nobody"
    print(f"seller's best response: {winner} wins at price {approx(witness.outcome.payment)}")
    print(f"inefficiency: {witness.kind.replace('_', ' ')}")
    return 0


def cmd_plot(args) -> int:
    pa, pb = _partition(args.a), _partition(args.b)
    svg = allocation_svg(pa, pb)
    print(f"cells: {len(pa.blocks()) * len(pb.blocks())}, "
          f"regions drawn: {svg.count('<polygon')}")
    print(_write_artifact(args.out, svg))
    return 0


def cmd_suite(args) -> int:
    results = run_suite()
    failed = [res for res in results if not res.passed]
    for res in results:
        print(f"item {res.criterion.number}: {res.elapsed:.1f}s of "
              f"{res.criterion.budget_seconds:g}s", file=sys.stderr)
        mark = "ok  " if res.passed else "FAIL"
        print(f"{mark} {res.criterion.number:2d} {res.criterion.title}")
        if args.expected:
            for row in res.rows:
                print(f"       {row}")
        if res.error:
            print(f"       {res.error}")
    print(f"{len(results) - len(failed)} passed, {len(failed)} failed"
          if failed else f"{len(results)} passed")
    if failed:
        first = failed[0].criterion
        print(f"first failure: item {first.number} ({first.title})", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="disclosure-games", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")

    p = sub.add_parser("eval-uniform", help="surplus of an interval-partition pair")
    p.add_argument("--a", required=True, help="breakpoints for buyer A, e.g. 0,1/2,1")
    p.add_argument("--b", required=True, help="breakpoints for buyer B")
    p.add_argument("--per-case", action="store_true", dest="per_case",
                   help="print one row per block pair")
    p.add_argument("--out", help="write the block-pair table as CSV")
    p.set_defaults(func=cmd_eval_uniform)

    p = sub.add_parser("zeno", help="halving-cascade partitions toward zero")
    p.add_argument("--depth", type=int, required=True, help="number of halvings")
    p.add_argument("--b", help="breakpoints for buyer B (default: the same cascade)")
    p.add_argument("--out", help="write the block-pair table as CSV")
    p.set_defaults(func=cmd_zeno)

    p = sub.add_parser("threshold", help="symmetric one-threshold profile breakdown")
    p.add_argument("--t", required=True, help="threshold in [0, 1/2], e.g. 1/4")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("lp-solve", help="revenue-optimal mechanism for an instance file")
    p.add_argument("--instance", required=True, help="path to an instance JSON file")
    p.add_argument("--menu", action="store_true", help="print the posted menu view")
    p.add_argument("--verify", action="store_true",
                   help="recheck feasibility, rationality, and incentives")
    p.add_argument("--out", help="write the mechanism as CSV")
    p.set_defaults(func=cmd_lp_solve)

    p = sub.add_parser("game-eval", help="evaluate one partition profile")
    p.add_argument("--instance", required=True, help="path to an instance JSON file")
    p.add_argument("--profile", required=True,
                   help="1-based partition JSON, inline or @path")
    p.add_argument("--per-message", action="store_true", dest="per_message",
                   help="print each message pair's conditioned solution")
    p.set_defaults(func=cmd_game_eval)

    p = sub.add_parser("search", help="rank every partition profile by buyer surplus")
    p.add_argument("--instance", required=True, help="path to an instance JSON file")
    p.add_argument("--connected-only", action="store_true", dest="connected_only",
                   help="restrict to partitions contiguous in value order")
    p.add_argument("--top", type=int, default=10, help="rows to print (default 10)")
    p.add_argument("--out", help="write the full ranking as CSV")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("dp", help="optimal connected partition for one buyer")
    p.add_argument("--instance", required=True,
                   help="path to a single-buyer, single-good instance JSON file")
    p.add_argument("--table", action="store_true", help="print the prefix table")
    p.set_defaults(func=cmd_dp)

    p = sub.add_parser("reduce", help="turn an even-split problem into a buyer game")
    p.add_argument("--sizes", required=True, help="comma list of sizes, e.g. 2,2,4")
    p.add_argument("--out", help="write the reduced instance as JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify-reduction",
                       help="check the even-split reduction on one size list")
    p.add_argument("--sizes", required=True, help="comma list of sizes, e.g. 2,2,4")
    p.set_defaults(func=cmd_verify_reduction)

    p = sub.add_parser("efficiency-witness",
                       help="value profile where the best response misallocates")
    p.add_argument("--a", required=True, help='breakpoints for buyer A, or "exact"')
    p.add_argument("--b", required=True, help='breakpoints for buyer B, or "exact"')
    p.set_defaults(func=cmd_efficiency_witness)

    p = sub.add_parser("plot", help="SVG of winner regions on the value square")
    p.add_argument("--a", required=True, help="breakpoints for buyer A")
    p.add_argument("--b", required=True, help="breakpoints for buyer B")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--expected", action="store_true",
                   help="echo expected against computed values per item")
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            raise ValidationError("a subcommand is required (see --help)")
        print("# disclosure-games " + " ".join(argv))
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, LpUnbounded) as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"resource guard exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
