"""Workload definitions: seeded inputs, jobs, and each job's exact-answer checks.

A workload is a fixed list of jobs.  Each job calls the library through
module attributes (``lpmech.solve_instance``, not a name bound at import),
so the tracer's wrappers see every call.  A job has

- ``run``: the timed library calls;
- ``answer``: the exact values the reference file records for it;
- ``oracle``: independent checks that need no reference.

Seeded inputs come from a pool that ``input_seed`` generates and whose
answers ``reference.json`` records; ``seed`` picks which pool items a run
uses and the job order.  The named instances, the grid LPs, the zeno pairs
and the reduction sweep do not depend on either seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from disclosure_games import core, dpconnected, game, hardness, lpmech, svgplot, uniform2

WORKLOADS = ("mech-lp", "disclosure-search", "uniform-dp")

# Run seconds per pass: a run makes round(seconds / PASS_SECONDS) passes
# over its job list, so every commit measures the same work for the same
# --seconds.  Chosen so that a 30-second run makes 7, 2 and 7 passes; see
# README.md for why those counts.
PASS_SECONDS = {"mech-lp": 4.3, "disclosure-search": 13.0, "uniform-dp": 4.3}

# (buyers, grid points) of the one-good uniform grid LPs.
GRIDS = ((2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (3, 4), (3, 5))

# Named instances of the acceptance battery, as instance documents.
AUCTION_123 = json.dumps({
    "goods": 1,
    "buyers": [
        [{"prob": "1/4", "values": ["1"]}, {"prob": "1/4", "values": ["2"]},
         {"prob": "1/2", "values": ["3"]}],
    ] * 2,
})
MENU_FOUR_TYPES = json.dumps({
    "goods": 2,
    "buyers": [[
        {"prob": "3/50", "values": ["56", "38"]},
        {"prob": "9/100", "values": ["56", "69"]},
        {"prob": "17/50", "values": ["91", "38"]},
        {"prob": "51/100", "values": ["91", "69"]},
    ]],
})

# Zeno-k interval-partition pairs; depth 0 is the silent partition.
ZENO_PAIRS = ((8, 8), (12, 12), (16, 16), (24, 24), (12, 0))

# Seeded categories: (pool size, items per pass).
POOLS = {
    "disclosure-search": {"menu5": (6, 1), "menu6": (8, 1), "pair3": (8, 1)},
    "uniform-dp": {"dyadic": (16, 12), "svg": (8, 4), "witness": (8, 6), "dp": (8, 4)},
    "mech-lp": {},
}

WITNESS_BATCH = 50
BELL = (1, 1, 2, 5, 15, 52, 203, 877)

fmt = core.format_rational


@dataclass(frozen=True)
class Job:
    key: str
    run: Callable[[], object]
    answer: Callable[[object], dict]
    oracle: Callable[[object], list]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _item_rng(category: str, input_seed: int, index: int) -> random.Random:
    return random.Random(f"perfbench:{category}:{input_seed}:{index}")


# ---------------------------------------------------------------------------
# mech-lp


def _grid_job(buyers: int, n: int) -> Job:
    inst = lpmech.uniform_grid_instance(n, buyers)

    def run():
        sol = lpmech.solve_instance(inst)
        return sol, lpmech.verify_mechanism(inst, sol.mechanism)

    def answer(out):
        sol, _ = out
        return {"revenue": fmt(sol.revenue), "buyer_surplus": fmt(sol.buyer_surplus)}

    def oracle(out):
        sol, report = out
        return _report_problems(report, sol)

    return Job(f"grid-{buyers}x{n}", run, answer, oracle)


def _report_problems(report, sol) -> list:
    if not report.valid:
        return [f"verify_mechanism rejects the solution: {report.failure}"]
    problems = []
    if report.revenue != sol.revenue:
        problems.append(f"recomputed revenue {fmt(report.revenue)} != {fmt(sol.revenue)}")
    if report.buyer_surplus != sol.buyer_surplus:
        problems.append(
            f"recomputed surplus {fmt(report.buyer_surplus)} != {fmt(sol.buyer_surplus)}"
        )
    return problems


# ---------------------------------------------------------------------------
# disclosure-search


def _menu_doc(rng: random.Random, buyers: int, types: int, hi: int) -> str:
    """Instance document: two goods, distinct integer value vectors, integer weights."""
    doc = []
    for _ in range(buyers):
        vectors = set()
        while len(vectors) < types:
            vectors.add((rng.randint(1, hi), rng.randint(1, hi)))
        weights = [rng.randint(1, 9) for _ in range(types)]
        total = sum(weights)
        doc.append([
            {"prob": f"{w}/{total}", "values": [str(v) for v in vec]}
            for w, vec in zip(weights, sorted(vectors))
        ])
    return json.dumps({"goods": 2, "buyers": doc})


_MENU_SHAPES = {"menu5": (1, 5, 99), "menu6": (1, 6, 99), "pair3": (2, 3, 12)}


def _search_job(key: str, doc: str) -> Job:
    inst = core.parse_instance(doc)

    def run():
        return game.search_profiles(inst)

    def answer(results):
        top_profile, top = results[0]
        return {
            "profiles": len(results),
            "top_profile": [[list(block) for block in part] for part in top_profile],
            "top_total_surplus": fmt(top.total_surplus),
            "total_surplus_sha256": digest(fmt(o.total_surplus) for _, o in results),
        }

    def oracle(results):
        problems = []
        want = 1
        for j in range(inst.n_buyers):
            want *= BELL[inst.n_types(j)]
        if len(results) != want:
            problems.append(f"{len(results)} profiles ranked, expected {want}")
        column = [o.total_surplus for _, o in results]
        if any(a < b for a, b in zip(column, column[1:])):
            problems.append("total-surplus column is not non-increasing")
        top = results[0][1]
        mass = revenue = surplus = Fraction(0)
        for prob, sol in top.per_message.values():
            mech = sol.mechanism
            problems += _report_problems(lpmech.verify_mechanism(mech.instance, mech), sol)
            mass += prob
            revenue += prob * sol.revenue
            surplus += prob * sol.buyer_surplus
        if mass != 1:
            problems.append(f"top profile's message probabilities sum to {fmt(mass)}")
        if revenue != top.expected_revenue or surplus != top.total_surplus:
            problems.append("top profile's totals differ from its verified messages")
        return problems

    return Job(key, run, answer, oracle)


def _has_half_subset(sizes) -> bool:
    half = sum(sizes) // 2
    return any(
        sum(combo) == half
        for r in range(1, len(sizes) + 1)
        for combo in itertools.combinations(sizes, r)
    )


def _reduction_job(pp) -> Job:
    def run():
        return hardness.verify_reduction(pp)

    def answer(report):
        return {
            "equivalent": report.equivalent,
            "solvable": report.subset is not None,
            "best_total_surplus": fmt(report.best_outcome.total_surplus),
        }

    def oracle(report):
        problems = []
        if not report.equivalent:
            problems.append("reduction reports non-equivalence")
        solvable = _has_half_subset(pp.sizes)
        if (report.subset is not None) != solvable:
            problems.append(f"subset search says {report.subset}, brute force says {solvable}")
        if (report.best_outcome.total_surplus >= report.reduced.target) != solvable:
            problems.append("best disclosure surplus disagrees with the subset brute force")
        return problems

    return Job("sweep-" + "-".join(map(str, pp.sizes)), run, answer, oracle)


# ---------------------------------------------------------------------------
# uniform-dp


def _dyadic_text(rng: random.Random, blocks: int, depth: int) -> str:
    denom = 2**depth
    cuts = sorted(rng.sample(range(1, denom), blocks - 1))
    return ",".join(["0"] + [f"{c}/{denom}" for c in cuts] + ["1"])


def _surplus_job(key: str, pa, pb, symmetric: bool) -> Job:
    def run():
        return uniform2.profile_surplus(pa, pb)

    def answer(out):
        return {"u_a": fmt(out.u_a), "u_b": fmt(out.u_b)}

    def oracle(out):
        problems = []
        if sum((r.u_a for r in out.rows), Fraction(0)) != out.u_a:
            problems.append("rows do not sum to buyer A's total")
        if sum((r.u_b for r in out.rows), Fraction(0)) != out.u_b:
            problems.append("rows do not sum to buyer B's total")
        if sum((r.prob for r in out.rows), Fraction(0)) != 1:
            problems.append("block-pair probabilities do not sum to 1")
        if symmetric and out.u_a != out.u_b:
            problems.append("identical partitions give unequal utilities")
        return problems

    return Job(key, run, answer, oracle)


def _svg_job(key: str, pa, pb) -> Job:
    def run():
        return svgplot.allocation_svg(pa, pb)

    def answer(text):
        return {"bytes": len(text), "sha256": digest([text])}

    def oracle(text):
        root = ET.fromstring(text)
        cells = (len(pa.breakpoints) - 1) * (len(pb.breakpoints) - 1)
        polygons = sum(1 for el in root.iter() if el.tag.endswith("polygon"))
        return [] if polygons >= cells else [f"{polygons} polygons for {cells} cells"]

    return Job(key, run, answer, oracle)


def _witness_job(key: str, pairs) -> Job:
    def run():
        return [uniform2.efficiency_witness(pa, pb) for pa, pb in pairs]

    def answer(witnesses):
        return {"sha256": digest(f"{fmt(w.v_a)},{fmt(w.v_b)},{w.kind}" for w in witnesses)}

    def oracle(witnesses):
        problems = []
        for w in witnesses:
            out = uniform2.myerson_outcome(w.seg_a, w.seg_b, w.v_a, w.v_b)
            if out.winner is None:
                ok = max(w.v_a, w.v_b) > 0
            else:
                won, lost = (w.v_a, w.v_b) if out.winner == "A" else (w.v_b, w.v_a)
                ok = won < lost
            if not ok:
                problems.append(f"witness ({fmt(w.v_a)}, {fmt(w.v_b)}) replays as efficient")
        return problems

    return Job(key, run, answer, oracle)


def _dp_job(key: str, inst) -> Job:
    def run():
        return (
            dpconnected.optimal_connected(inst),
            dpconnected.brute_force_connected(inst),
        )

    def answer(out):
        return {"utility": fmt(out[0][1])}

    def oracle(out):
        (_, fast), (_, slow) = out
        return [] if fast == slow else [f"DP {fmt(fast)} != brute force {fmt(slow)}"]

    return Job(key, run, answer, oracle)


# ---------------------------------------------------------------------------
# pools and job lists


def _pool_item(category: str, input_seed: int, index: int) -> Job:
    rng = _item_rng(category, input_seed, index)
    key = f"{category}-{index}"
    if category in _MENU_SHAPES:
        buyers, types, hi = _MENU_SHAPES[category]
        return _search_job(key, _menu_doc(rng, buyers, types, hi))
    if category == "dyadic":
        pa, pb = (core.IntervalPartition.from_string(_dyadic_text(rng, 10, 7)) for _ in "ab")
        return _surplus_job(key, pa, pb, symmetric=False)
    if category == "svg":
        pa, pb = (core.IntervalPartition.from_string(_dyadic_text(rng, 6, 6)) for _ in "ab")
        return _svg_job(key, pa, pb)
    if category == "witness":
        pairs = []
        for _ in range(WITNESS_BATCH):
            pa, pb = (
                core.IntervalPartition.from_string(
                    _dyadic_text(rng, rng.randint(1, 5), rng.randint(3, 7))
                )
                for _ in "ab"
            )
            pairs.append((pa, pb))
        return _witness_job(key, pairs)
    if category == "dp":
        values = sorted(rng.sample(range(1, 150), 12))
        weights = [rng.randint(1, 6) for _ in values]
        total = sum(weights)
        inst = dpconnected.SingleBuyerInstance.build(
            [(f"{w}/{total}", str(v)) for w, v in zip(weights, values)]
        )
        return _dp_job(key, inst)
    raise ValueError(f"unknown category {category!r}")


def _fixed_jobs(workload: str) -> list:
    if workload == "mech-lp":
        return [_grid_job(b, n) for b, n in GRIDS]
    if workload == "disclosure-search":
        jobs = [
            _search_job("auction-123", AUCTION_123),
            _search_job("menu-four-types", MENU_FOUR_TYPES),
        ]
        return jobs + [_reduction_job(pp) for pp in hardness.sweep_size_lists(4, 6)]
    if workload == "uniform-dp":
        return [
            _surplus_job(
                f"zeno-{a}x{b}", uniform2.zeno_partition(a), uniform2.zeno_partition(b), a == b
            )
            for a, b in ZENO_PAIRS
        ]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, input_seed: int) -> list:
    """The run's job list: fixed jobs plus seed-chosen pool items, in seeded order."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    jobs = _fixed_jobs(workload)
    for category, (size, per_pass) in POOLS[workload].items():
        for index in sorted(rng.sample(range(size), per_pass)):
            jobs.append(_pool_item(category, input_seed, index))
    rng.shuffle(jobs)
    return jobs


def build_all(workload: str, input_seed: int) -> list:
    """Every job any seed can select: what the reference file must cover."""
    jobs = _fixed_jobs(workload)
    for category, (size, _) in POOLS[workload].items():
        jobs += [_pool_item(category, input_seed, i) for i in range(size)]
    return jobs


def check(job: Job, result, reference: dict) -> list:
    """Problems with one job's result: reference mismatches, then oracle findings."""
    problems = []
    got = job.answer(result)
    want = reference.get(job.key)
    if want is None:
        problems.append(f"{job.key}: no reference answer")
    elif got != want:
        problems.append(f"{job.key}: answer {got} differs from the reference {want}")
    problems += [f"{job.key}: {p}" for p in job.oracle(result)]
    return problems
