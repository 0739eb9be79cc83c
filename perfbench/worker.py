"""One workload run in a fresh interpreter; ``run.py`` starts it.

Prints a ``{"event": "ready", ...}`` line when set-up is done (imports,
input generation and parsing, reference load), with the host-speed factor
for set-up and the sampler's share of it, so the parent can time set-up
from process start; then, unless ``--setup-only``, a final JSON line with
the measurements.  Nothing else goes to standard output.

Jobs run back to back (a closed loop with one client) in a fixed seeded
order, pass after pass.  Only the job's library calls are timed; its
answer checks run between jobs, untimed and untraced.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# No pass starts that would end past min(OVERRUN * seconds, HARD_LIMIT_S),
# which bounds a run on a slow host at the cost of fewer passes.
OVERRUN = 1.4
HARD_LIMIT_S = 140.0


def emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def load_reference(path: Path, workload: str, input_seed: int) -> dict:
    doc = json.loads(path.read_text())
    if doc["input_seed"] != input_seed:
        raise SystemExit(
            f"error: {path} holds answers for input seed {doc['input_seed']}, "
            f"not {input_seed}; write one with perfbench/record.py"
        )
    return doc["answers"][workload]


def tail(times: list) -> tuple:
    """(percentile, value) of the highest percentile with 10 jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


class Runner:
    def __init__(self, check, tracer, sampler):
        self.check = check
        self.tracer = tracer
        self.sampler = sampler
        self.serial = 0
        self.factor = {}
        self.failures = []
        self.attempted = 0

    def run_pass(self, jobs, traced: bool) -> list:
        """Run the jobs once; return (key, raw seconds, reference-speed seconds) per job."""
        from disclosure_games import lpmech

        # a fresh interpreter starts with an empty joint-type cache; so does each pass
        cache_clear = getattr(lpmech.joint_types, "cache_clear", None)
        if cache_clear is not None:
            cache_clear()
        tracer, sampler = self.tracer, self.sampler
        clock = time.perf_counter
        times = []
        for job in jobs:
            self.serial += 1
            self.attempted += 1
            if traced:
                tracer.job = self.serial
                tracer.active = True
            mark = sampler.mark()
            start = clock()
            try:
                result = job.run()
                error = None
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{job.key}: {type(exc).__name__}: {exc}"
            elapsed = clock() - start
            end = sampler.mark()
            own = max(0.0, elapsed - (end[1] - mark[1]))  # less the sampler's time
            factor = sampler.factor(mark, end)
            if tracer is not None:
                tracer.active = False
            self.factor[self.serial] = factor
            times.append((job.key, own, own * factor))
            if error is None:
                try:
                    problems = self.check(job, result)
                except Exception as exc:
                    problems = [f"{job.key}: check raised {type(exc).__name__}: {exc}"]
                del result
            else:
                problems = [error]
            if problems:
                self.failures.append(problems)
                for line in problems:
                    print(f"FAIL {line}", file=sys.stderr)
        return times


def layer_metrics(spans, counts, factor) -> dict:
    """Per-layer calls, self times (reference-speed seconds) and work counts."""
    from tracer import self_times

    calls: dict = {}
    self_s: dict = {}
    for (name, _, _, _, job), own in zip(spans, self_times(spans)):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own * factor.get(job, factor["setup"])
    out = {}
    for name in (
        "simplex.solve",
        "lpmech.build_lp",
        "lpmech.aggregate",
        "lpmech.verify_mechanism",
        "game.evaluate",
        "core.condition_on_messages",
        "uniform2.pair_surplus",
        "geometry.clip_halfplane",
        "geometry.integrate_linear",
    ):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "game.search_profiles",
        "hardness.verify_reduction",
        "core.parse_instance",
        "svgplot.allocation_svg",
        "dpconnected.optimal_connected",
        "dpconnected.brute_force_connected",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in (
        "simplex.pivots_stage1",
        "simplex.pivots_stage2",
        "simplex.value_bits_max",
        "lpmech.rows",
        "lpmech.ic_rows",
        "lpmech.vars",
        "game.profiles",
        "game.lookups",
        "game.solves",
        "dpconnected.buyer_utility.calls",
    ):
        out[name] = counts.get(name, 0)
    return out


def write_spans(path: Path, segments) -> None:
    """One CSV row per span; ``parent`` indexes rows of the same segment."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write("segment,index,parent,job,name,start_s,end_s\n")
        for label, (spans, _) in segments:
            for i, (name, start, end, parent, job) in enumerate(spans):
                fh.write(f"{label},{i},{parent},{job},{name},{start:.7f},{end:.7f}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--spans-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with hostspeed.Sampler() as sampler:
        return run(args, sampler)


def run(args, sampler) -> int:
    run_start = time.perf_counter()
    if not (ROOT / "src" / "disclosure_games").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.job = "setup"
        tracer.active = True
    jobs = workloads.build(args.workload, args.seed, args.input_seed)
    reference = load_reference(args.reference, args.workload, args.input_seed)
    if tracer is not None:
        tracer.active = False
    setup_factor = sampler.factor((0, 0.0), sampler.mark())
    emit({"event": "ready", "sampler_s": sampler.spent, "factor": setup_factor})
    if args.setup_only:
        return 0

    nominal = workloads.PASS_SECONDS[args.workload]
    if args.seconds < nominal:
        # shorter than one pass (smoke tests): a prefix of the job list
        jobs = jobs[: max(1, round(len(jobs) * args.seconds / nominal))]
    passes = max(1, round(args.seconds / nominal))
    if tracer is None:
        plan = [False] * passes
    else:  # alternate untraced and traced passes to measure the overhead
        plan = [False, True] * max(1, passes // 2)
    budget = min(OVERRUN * args.seconds, HARD_LIMIT_S)

    runner = Runner(lambda job, result: workloads.check(job, result, reference), tracer, sampler)
    runner.factor["setup"] = setup_factor
    segments = [("setup", tracer.take())] if tracer is not None else []
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    job_times = []
    for i, traced in enumerate(plan):
        # at least one pass of each kind runs
        last = raw_walls[plan[i - 1]][-1] if i else 0.0
        if i >= len(set(plan)) and time.perf_counter() - run_start + last > budget:
            print(f"warning: stopped after {i} of {len(plan)} passes", file=sys.stderr)
            break
        pass_start = time.perf_counter()
        times = runner.run_pass(jobs, traced)
        raw_walls[traced].append(time.perf_counter() - pass_start)
        walls[traced].append(sum(norm for _, _, norm in times))
        if traced:
            segments.append((f"pass{i + 1}", tracer.take()))
        else:
            job_times += times

    out = {
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "passes": len(walls[False]) + len(walls[True]),
        "jobs_per_pass": len(jobs),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rational_type": _rational_type(),
        "kernel_s_median": statistics.median(sampler.readings),
    }
    if job_times:
        per_job = {}
        for key, raw, norm in job_times:
            per_job.setdefault(key, []).append([raw, norm])
        job_times = [norm for _, _, norm in job_times]
        pct, tail_s = tail(job_times)
        out.update(
            wall_s=statistics.median(walls[False]),
            wall_raw_s=statistics.median(raw_walls[False]),
            job_p50_s=statistics.median(job_times),
            job_tail_s=tail_s,
            job_tail_pct=pct,
            job_count=len(job_times),
            job_seconds=per_job,
        )
    if tracer is not None:
        tracer.uninstall()
        setup = layer_metrics(*segments[0][1], runner.factor)
        passes = [layer_metrics(*seg, runner.factor) for _, seg in segments[1:]]
        layers = {
            name: value + statistics.median_low(p[name] for p in passes)
            for name, value in setup.items()
        }
        layers["simplex.value_bits_max"] = max(
            m["simplex.value_bits_max"] for m in [setup] + passes
        )
        lookups, solves = layers["game.lookups"], layers["game.solves"]
        layers["game.hit_ratio"] = (lookups - solves) / lookups if lookups else 0.0
        traced_wall = statistics.median(walls[True])
        layers["trace.overhead_s"] = traced_wall - statistics.median(walls[False])
        out["layers"] = layers
        out["traced_wall_s"] = traced_wall
        if args.spans_out is not None:
            write_spans(args.spans_out, segments)
    emit(out)
    return 0


def _rational_type() -> str:
    from disclosure_games import simplex

    num = getattr(simplex, "_NUM", None)
    return "none" if num is None else f"{num.__module__}.{num.__qualname__}"


if __name__ == "__main__":
    sys.exit(main())
