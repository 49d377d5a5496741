"""Do two sets of benchmark runs of the same code agree within the bounds?

    python3 perfbench/agree.py --runs 10 [--workloads sampling,battery]

Runs the command of ``BENCHMARK.json`` ``--runs`` times per workload in
each of two sets, each run with its own seed (seeds ``1..runs`` in the
first set and ``runs+1..2*runs`` in the second), serially, from the root
of the checkout.  For every end-to-end metric and workload it prints each
set's median and spread (the distance between the first and third
quartiles as a share of the median) and the shift of the second set's
median from the first's, in either direction.  A pair agrees when both
spreads and the size of the shift are within the metric's bound, and the
share of failed operations is the same in both sets.  The per-run results
go to ``.perfbench_out/agree.json``; the exit status is 0 when all agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(command: list, workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default all")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    results = {name: [] for name in names}
    for s in range(2):
        for name in names:
            runs = []
            for i in range(args.runs):
                seed = s * args.runs + i + 1
                out = one_run(bench["command"], name, seed, bench["run_seconds"])
                runs.append(out)
                print(f"set {s} {name} seed {seed}: " + json.dumps(out), file=sys.stderr, flush=True)
            results[name].append(runs)

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "agree.json").write_text(json.dumps(results, indent=1))

    all_agree = True
    print(f"{'workload':<14}{'metric':<13}" + "".join(f"{'median' + str(s):>11}{'spread' + str(s):>9}" for s in (1, 2)) + f"{'shift':>9}{'bound':>7}  verdict")
    for name in names:
        first, second = results[name]
        shares = {sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in (first, second)}
        if len(shares) != 1 or not all(r["correct"] for r in first + second):
            all_agree = False
            print(f"{name}: failed shares {sorted(shares)} or an incorrect run")
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            cells, ok, medians = "", True, []
            for runs in (first, second):
                values = [r["metrics"][key]["value"] for r in runs]
                medians.append(statistics.median(values))
                width = spread(values)
                ok = ok and width <= bound
                cells += f"{medians[-1]:>11.4f}{width:>9.3f}"
            shift = (medians[1] - medians[0]) / medians[0]
            ok = ok and abs(shift) <= bound
            all_agree = all_agree and ok
            print(f"{name:<14}{key:<13}{cells}{shift:>9.3f}{bound:>7.2f}  {'agree' if ok else 'DISAGREE'}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
