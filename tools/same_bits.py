"""Check that the working tree prints the same reports as a git revision.

    python3 tools/same_bits.py REV

REV is exported with ``git archive`` into a temporary directory. A fixed
list of cascadelab commands then runs there and in this working tree,
each as ``python -m cascadelab.cli`` with ``PYTHONPATH`` set to the
side's ``src/``. A report's ``generated_at`` line is dropped, and the
rest of standard output is hashed with SHA-256; a usage error leaves
standard output empty, so it compares by exit status. The script prints each
command's exit status and hash on both sides. Where two reports differ,
it also prints each changed field's path, both values and |delta|, so a
change that moves numbers on purpose shows how far. It exits with
status 1 if any command differs. The temporary directory is removed at
the end, and also when the script is stopped by SIGTERM or SIGINT: each
command runs in its own session, and a stop ends that command's whole
process group, its pool workers included.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INTERP = [
    "--N", "4", "--b", "30", "--mixture", "[[2, 0.5]]", "--h", "0.3",
    "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]", "--replicas", "60",
]
# a three-level wedge table with order-4 monomial columns
_INTERP_K3 = [
    "--N", "4", "--b", "10", "--mixture", "[[2, 0.5], [4, 0.3]]", "--h", "0.3",
    "--m", "[0.3, 0.6, 0.8]", "--q", "[0.2, 0.5, 0.7]", "--replicas", "40",
]
# (name, worker count, arguments)
COMMANDS = [
    ("verify-all smoke, 1 worker", "1", ["verify-all", "--preset", "smoke"]),
    ("verify-all smoke, 2 workers", "2", ["verify-all", "--preset", "smoke"]),
    # desk's 40-node restricted chain is the largest tensor a report reads
    ("verify-all desk, 2 workers", "2", ["verify-all", "--preset", "desk"]),
    ("pd two_point", "1", ["pd", "--m", "[0.6]", "--mark-family", "two_point",
                           "--statistic", "mean_mark", "--replicas", "100"]),
    ("pd lognormal", "1", ["pd", "--m", "[0.4]", "--mark-family", "lognormal",
                           "--statistic", "pair_sum", "--replicas", "100"]),
    # with the two rows above, every mark family and statistic branch of
    # the point-process kernels
    ("pd lognormal mean_mark", "1", ["pd", "--m", "[0.5]", "--mark-family", "lognormal",
                                     "--statistic", "mean_mark", "--replicas", "100"]),
    ("pd two_point max_weight", "1", ["pd", "--m", "[0.3]", "--mark-family", "two_point",
                                      "--statistic", "max_weight", "--replicas", "100"]),
    ("pd constant pair_sum", "1", ["pd", "--m", "[0.7]", "--mark-family", "constant",
                                   "--statistic", "pair_sum", "--replicas", "100"]),
    ("cascade --b 200", "1", ["cascade", "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]",
                              "--b", "200", "--replicas", "60"]),
    ("bound", "1", ["bound", "--mixture", "[[2, 0.42]]", "--m", "[0.5, 1.0]",
                    "--q", "[0.3, 0.7]"]),
    # k = 3 at the default 40 nodes: one root node's grid is 64,000 points
    ("bound k = 3", "1", ["bound", "--m", "[0.3, 0.6, 1.0]", "--q", "[0.2, 0.5, 0.8]"]),
    ("optimize --k 2", "1", ["optimize", "--mixture", "[[2, 0.42]]", "--k", "2",
                             "--nodes", "12"]),
    ("optimize p = 1", "1", ["optimize", "--mixture", "[[1, 0.7]]", "--k", "1", "--h", "0.3",
                             "--nodes", "16"]),
    ("optimize zero mixture", "1", ["optimize", "--mixture", "[[2, 0.0]]", "--k", "2",
                                    "--nodes", "12"]),
    ("optimize --k 3", "1", ["optimize", "--mixture", "[[2, 1.06]]", "--k", "3",
                             "--nodes", "12"]),
    ("sk-exact", "1", ["sk-exact", "--N", "8", "--mixture", "[[2, 0.85]]", "--k", "1",
                       "--replicas", "200"]),
] + [
    (f"interpolate {check}", "1", ["interpolate", "--check", check, *_INTERP])
    for check in ("phi", "derivative", "overlap", "error-term")
] + [
    (f"interpolate {check} k = 3", "1", ["interpolate", "--check", check, *_INTERP_K3])
    for check in ("derivative", "overlap")
] + [
    # one depth read through the all-depth error-term read
    ("interpolate error-term r = 2", "1",
     ["interpolate", "--check", "error-term", *_INTERP, "--r", "[2]"]),
] + [
    # Usage errors: stdout is empty, so these compare by exit status, and
    # a change to which inputs are refused shows up.
    ("usage: pd m = 1.5", "1", ["pd", "--m", "[0.5, 1.5]"]),
    ("usage: interpolate --check bogus", "1", ["interpolate", "--check", "bogus"]),
    ("usage: bound --k", "1", ["bound", "--k", "2"]),
    ("usage: cascade --tolerance -1", "1", ["cascade", "--tolerance", "-1"]),
    ("usage: bound mixture power 2.5", "1", ["bound", "--mixture", "[[2.5, 1.0]]", "--m", "[1.0]"]),
    ("usage: bound mixture overflow", "1", ["bound", "--mixture", "[[2, 1e155]]", "--m", "[1.0]",
                                            "--q", "[0.5]"]),
    ("usage: bound --scan-q1 count 1e999", "1", ["bound", "--scan-q1", "[0.1, 0.5, 1e999]",
                                                 "--csv-out", "s.csv"]),
    ("usage: bound k = 3 --nodes 108", "1", ["bound", "--m", "[0.3, 0.6, 1.0]",
                                            "--q", "[0.2, 0.5, 0.8]", "--nodes", "108"]),
    ("usage: interpolate --check derivative --t 1", "1",
     ["interpolate", "--check", "derivative", "--t", "1"]),
]


def run_report(tree: Path, workers: str, args: list) -> tuple:
    """(exit status, standard output) of one command on one side."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), CASCADELAB_WORKERS=workers)
    with subprocess.Popen(
        [sys.executable, "-m", "cascadelab.cli", *args],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate()
        except BaseException:
            # stopped: end the command and its pool workers, then unwind
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGTERM)
            proc.wait()
            raise
    return proc.returncode, stdout


def digest(stdout: str) -> str:
    """SHA-256 of a report without its generated_at line."""
    kept = [
        line for line in stdout.splitlines(keepends=True)
        if not line.lstrip().startswith('"generated_at":')
    ]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _same(a, b) -> bool:
    """Equal JSON values of one type; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    return a == b or isinstance(a, float) and math.isnan(a) and math.isnan(b)


def _label(a, b, index: int):
    """A list item's name when both sides are records of one name, else its index."""
    name = a.get("name") if isinstance(a, dict) else None
    return name if name is not None and isinstance(b, dict) and b.get("name") == name else index


def changed_fields(theirs, ours, path: str = "") -> list:
    """(path, theirs, ours) for each leaf of two JSON values that differs.

    A list item that is a record is named by its ``name``; a key present
    on one side only shows ``None`` on the other.
    """
    if isinstance(theirs, dict) and isinstance(ours, dict):
        out = []
        for key in sorted(theirs.keys() | ours.keys()):
            sub = f"{path}.{key}" if path else key
            out += changed_fields(theirs.get(key), ours.get(key), sub)
        return out
    if isinstance(theirs, list) and isinstance(ours, list) and len(theirs) == len(ours):
        out = []
        for i, (a, b) in enumerate(zip(theirs, ours)):
            out += changed_fields(a, b, f"{path}[{_label(a, b, i)}]")
        return out
    return [] if _same(theirs, ours) else [(path, theirs, ours)]


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def print_changes(theirs: str, ours: str) -> None:
    """Print the fields in which two JSON reports differ, with |delta|."""
    try:
        a, b = json.loads(theirs), json.loads(ours)
    except json.JSONDecodeError:
        return
    for report in (a, b):
        if isinstance(report, dict):
            report.pop("generated_at", None)
    for path, x, y in changed_fields(a, b):
        delta = f"{abs(y - x):.3g}" if _number(x) and _number(y) else "-"
        print(f"    {path}: {x!r} -> {y!r}  |delta| {delta}")


def compare(rev: str, rev_tree: Path) -> int:
    """Run every command on both sides; the number that differ."""
    differ = 0
    for name, workers, args in COMMANDS:
        theirs = run_report(rev_tree, workers, args)
        ours = run_report(ROOT, workers, args)
        their_key = (theirs[0], digest(theirs[1]))
        our_key = (ours[0], digest(ours[1]))
        same = their_key == our_key
        differ += not same
        print(f"{name}: {'same' if same else 'DIFFERENT'}")
        print(f"  {rev}: exit {their_key[0]} sha256 {their_key[1]}")
        print(f"  working tree: exit {our_key[0]} sha256 {our_key[1]}")
        if not same:
            print_changes(theirs[1], ours[1])
        sys.stdout.flush()
    return differ


def _stop(signum, frame):
    """Unwind on SIGTERM or SIGINT, so the running command and the temporary directory go."""
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="the git revision to compare against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        rev_tree = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive.stdout, check=True)
        differ = compare(rev, rev_tree)
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
