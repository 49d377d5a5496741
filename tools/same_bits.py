"""Check that the working tree prints the same reports as a git revision.

    python3 tools/same_bits.py REV

REV is checked out with ``git worktree add`` into a temporary directory.
A fixed list of cascadelab commands then runs there and in this working
tree, each as ``python -m cascadelab.cli`` with ``PYTHONPATH`` set to the
side's ``src/``. A report's ``generated_at`` line is dropped, and the
rest of standard output is hashed with SHA-256; a usage error leaves
standard output empty, so it compares by exit status. The script prints each
command's exit status and hash on both sides, and exits with status 1
if any command differs. The worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_INTERP = [
    "--N", "4", "--b", "30", "--mixture", "[[2, 0.5]]", "--h", "0.3",
    "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]", "--replicas", "60",
]
# (name, worker count, arguments)
COMMANDS = [
    ("verify-all smoke, 1 worker", "1", ["verify-all", "--preset", "smoke"]),
    ("verify-all smoke, 2 workers", "2", ["verify-all", "--preset", "smoke"]),
    ("pd two_point", "1", ["pd", "--m", "[0.6]", "--mark-family", "two_point",
                           "--statistic", "mean_mark", "--replicas", "100"]),
    ("pd lognormal", "1", ["pd", "--m", "[0.4]", "--mark-family", "lognormal",
                           "--statistic", "pair_sum", "--replicas", "100"]),
    ("cascade --b 200", "1", ["cascade", "--m", "[0.4, 0.8]", "--q", "[0.3, 0.6]",
                              "--b", "200", "--replicas", "60"]),
    ("bound", "1", ["bound", "--mixture", "[[2, 0.42]]", "--m", "[0.5, 1.0]",
                    "--q", "[0.3, 0.7]"]),
    ("optimize --k 2", "1", ["optimize", "--mixture", "[[2, 0.42]]", "--k", "2",
                             "--nodes", "12"]),
    ("sk-exact", "1", ["sk-exact", "--N", "8", "--mixture", "[[2, 0.85]]", "--k", "1",
                       "--replicas", "200"]),
] + [
    (f"interpolate {check}", "1", ["interpolate", "--check", check, *_INTERP])
    for check in ("phi", "derivative", "overlap", "error-term")
] + [
    # Usage errors: stdout is empty, so these compare by exit status, and
    # a change to which inputs are refused shows up.
    ("usage: pd m = 1.5", "1", ["pd", "--m", "[0.5, 1.5]"]),
    ("usage: interpolate --check bogus", "1", ["interpolate", "--check", "bogus"]),
    ("usage: bound --k", "1", ["bound", "--k", "2"]),
    ("usage: cascade --tolerance -1", "1", ["cascade", "--tolerance", "-1"]),
    ("usage: bound mixture power 2.5", "1", ["bound", "--mixture", "[[2.5, 1.0]]", "--m", "[1.0]"]),
    ("usage: bound --scan-q1 count 1e999", "1", ["bound", "--scan-q1", "[0.1, 0.5, 1e999]",
                                                 "--csv-out", "s.csv"]),
    ("usage: interpolate --step 0", "1", ["interpolate", "--check", "derivative", "--step", "0"]),
]


def report_digest(tree: Path, workers: str, args: list) -> tuple:
    """(exit status, SHA-256 of stdout without its generated_at line)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), CASCADELAB_WORKERS=workers)
    proc = subprocess.run(
        [sys.executable, "-m", "cascadelab.cli", *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    kept = [
        line for line in proc.stdout.splitlines(keepends=True)
        if not line.lstrip().startswith('"generated_at":')
    ]
    return proc.returncode, hashlib.sha256("".join(kept).encode()).hexdigest()


def compare(rev: str, rev_tree: Path) -> int:
    """Run every command on both sides; the number that differ."""
    differ = 0
    for name, workers, args in COMMANDS:
        theirs = report_digest(rev_tree, workers, args)
        ours = report_digest(ROOT, workers, args)
        same = theirs == ours
        differ += not same
        print(f"{name}: {'same' if same else 'DIFFERENT'}")
        print(f"  {rev}: exit {theirs[0]} sha256 {theirs[1]}")
        print(f"  working tree: exit {ours[0]} sha256 {ours[1]}", flush=True)
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="the git revision to compare against")
    rev = parser.parse_args(argv).rev
    with tempfile.TemporaryDirectory(prefix="same-bits-") as tmp:
        rev_tree = Path(tmp) / "tree"
        subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(rev_tree), rev],
            check=True,
        )
        try:
            differ = compare(rev, rev_tree)
        finally:
            subprocess.run(
                ["git", "-C", str(ROOT), "worktree", "remove", "--force", str(rev_tree)],
                check=True,
            )
    print(f"{differ} of {len(COMMANDS)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
