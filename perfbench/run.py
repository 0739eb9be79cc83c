"""Benchmark entry point for the disclosure-games toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--input-seed M] [--reference PATH]

Workloads: mech-lp, disclosure-search, uniform-dp (see perfbench/README.md).
Each run starts fresh interpreters one at a time (never two at once):
several that only set up, to time set-up, then one that sets up and runs
the job list.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric with its unit and the environment.  With ``--trace 1``
the metrics are the per-layer ones and the spans go to
``perfbench/out/``.  Times are in reference-speed seconds (see
``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


class WorkerFailed(RuntimeError):
    pass


def start_worker(args, extra, deadline):
    """Start one worker; return (process, set-up seconds at reference speed).

    Set-up runs from process start to the worker's ready line; the worker
    reports its sampler's time and its host-speed factor for that span.
    """
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--input-seed", str(args.input_seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--reference", str(args.reference),
    ] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    ready = json.loads(line or "{}")
    if ready.get("event") != "ready":
        finish(proc, deadline)
        raise WorkerFailed(f"worker did not start (exit code {proc.returncode})")
    return proc, (elapsed - ready["sampler_s"]) * ready["factor"]


def finish(proc, deadline) -> str:
    """Wait for the worker within the deadline; return its last stdout line."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker overran the deadline and was stopped") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def environment(args, rational_type: str) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    try:
        lines = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    if len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "rational_type": rational_type,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "seed": args.seed,
        "input_seed": args.input_seed,
        "reference_speed_kernel_s": REFERENCE_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="disclosure-games benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--input-seed",
        type=int,
        default=0,
        help="generates the input pool; the committed reference covers 0",
    )
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-input{args.input_seed}-trace{args.trace}"

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args, ["--setup-only"], deadline)
                finish(proc, deadline)
                setups.append(setup)
        extra = ["--spans-out", str(OUT / f"spans-{tag}.csv")] if args.trace else []
        proc, setup = start_worker(args, extra, deadline)
        setups.append(setup)
        result = json.loads(finish(proc, deadline))
    except (WorkerFailed, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args, result["rational_type"])
    if args.trace:
        metrics = dict(result["layers"])
    else:
        result["setup_s"] = statistics.median(setups)
        result["setup_samples_s"] = setups
        metrics = {name: result[name] for name in END_TO_END_UNITS}
    record = {"workload": args.workload, "trace": args.trace, "env": env, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for key, value in env.items():
        print(f"# {key}: {value}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"# passes: {result['passes']} of {result['jobs_per_pass']} jobs")
    if args.trace:
        print(f"# traced pass {result['traced_wall_s']:.4f} s, "
              f"overhead {metrics['trace.overhead_s']:.4f} s")
    else:
        print(f"# raw (unscaled) pass wall time {result['wall_raw_s']:.4f} s")
        print(f"# job_tail_s is p{result['job_tail_pct']:.1f} of {result['job_count']} jobs")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    units = {}
    for name, value in metrics.items():
        units[name] = END_TO_END_UNITS.get(name) or layer_unit(name)
        base = f" (of {metrics['game.lookups']} lookups)" if name == "game.hit_ratio" else ""
        print(f"{name} {value:.6g} {units[name]}{base}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits_max"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
