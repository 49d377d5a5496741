"""Try a workload's checks on many seeds, untimed.

    python3 perfbench/sweep.py --workload sampling --first 0 --count 40

The timed runs keep the random streams at one seed (see ``run.STREAM_SEED``),
so this is where the checks meet new seeds: each seed's jobs get the
streams the benchmark derives from it, and every check that misses is
printed with its numbers.  The last line counts the seeds on which every
check held.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=40)
    args = parser.parse_args(argv)
    try:
        workload = run.load_workload(args.workload, traced=False)
    except LookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    clean = 0
    for seed in range(args.first, args.first + args.count):
        seeds = [run.job_seed(seed, index) for index in range(len(workload.jobs))]
        problems: dict = {}
        outcomes: list = []
        run.run_round(workload, seeds, {j.name: [] for j in workload.jobs}, {j.name: [] for j in workload.jobs},
                      problems, outcomes)
        clean += not problems
        detail = "; ".join(f"{name}: {', '.join(found)}" for name, found in problems.items())
        print(f"seed {seed}: {outcomes.count('ok')} of {len(outcomes)} jobs held" + (f" -- {detail}" if detail else ""),
              flush=True)
    print(f"{args.workload}: every check held on {clean} of {args.count} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
