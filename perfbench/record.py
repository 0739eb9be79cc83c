"""Record the reference answers for every job any seed can select.

    python3 perfbench/record.py [--input-seed N] [--out PATH]

Every job is run once and must pass its oracle checks before its answer is
written.  ``perfbench/reference.json`` holds the answers for input seed 0
at the commit that defined the benchmark.  To check a change on inputs it
never saw, record another input seed at the parent commit, then pass the
same ``--input-seed`` and ``--reference`` to ``run.py`` at the change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Record benchmark reference answers.")
    parser.add_argument("--input-seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    answers = {}
    bad = 0
    for workload in workloads.WORKLOADS:
        answers[workload] = {}
        for job in workloads.build_all(workload, args.input_seed):
            result = job.run()
            problems = job.oracle(result)
            for line in problems:
                print(f"FAIL {job.key}: {line}", file=sys.stderr)
            bad += bool(problems)
            answers[workload][job.key] = job.answer(result)
    if bad:
        print(f"error: {bad} jobs failed their oracle checks; nothing written", file=sys.stderr)
        return 1
    doc = {"input_seed": args.input_seed, "answers": answers}
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, answers.values()))} answers to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
