"""Time the guard commands: the `ospq` commands at the k^n <= 10^5 size guard.

`rep` and `decompose` also run at (16, 2), the largest n the guard admits
(65,536 states), where the relation patterns come from the largest catalog
and the decomposition has the most root vectors, 240.

    python3 scripts/guard_commands.py [SRC ...]

Run from anywhere.  Each SRC is a `src/` directory to import the program
from (default: this checkout's), so trees can be compared in one run.  Each
command runs REPEATS times on every tree, each time in a child process with
its standard output discarded.  Within a repeat the trees run in turn, and
the tree that goes first rotates between repeats, so drift on a shared
machine falls on every tree alike.  For each command and tree the script
prints one JSON line: the tree, the argv, the exit code, the median wall
seconds and the median peak resident set size in MB of the children
(ru_maxrss from os.wait4), each with its [min, max] over the repeats.  When
a command's exit codes differ between repeats, "exit" lists them all and a
last line names the tree and the command.  It records and gates nothing: a
command that exits 1 is reported like any other.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# runs per command, so that each line shows the spread between runs beside
# its median: one run cannot tell a change of a few percent from that spread
REPEATS = 3

# the longest crossing word normal-order --contract accepts, a1-...a9- a1+...a9+
WORD = " ".join([f"a{i}-" for i in range(1, 10)] + [f"a{i}+" for i in range(1, 10)])

COMMANDS = (
    ("verify", "--n", "5"),
    *(("rep", "--n", str(n), "--k", str(k))
      for n, k in ((16, 2), (5, 10), (4, 17), (3, 46), (2, 316), (1, 3000))),
    *(("decompose", "--n", str(n), "--k", str(k)) for n, k in ((16, 2), (5, 10), (1, 100000))),
    ("normal-order", "--contract", WORD),
)


def run(args: tuple[str, ...], src: Path = SRC) -> dict:
    """Run `ospq <args>` in a child that imports the program from src, and
    measure it."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    argv = [sys.executable, "-m", "ospq.cli", *args]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": ["ospq", *args],
        "exit": child.returncode,
        "wall_s": round(wall, 3),
        "max_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
    }


def summarize(runs: list[dict]) -> dict:
    """One row for the repeats of one command: medians with [min, max]."""
    exits = [r["exit"] for r in runs]
    row = {"argv": runs[0]["argv"], "exit": exits[0] if len(set(exits)) == 1 else exits}
    for key in ("wall_s", "max_rss_mb"):
        values = [r[key] for r in runs]
        row[key] = statistics.median(values)
        row[f"{key}_range"] = [min(values), max(values)]
    return row


def main(trees: list[Path]) -> None:
    differ = []
    for args in COMMANDS:
        runs: list[list[dict]] = [[] for _ in trees]
        for repeat in range(REPEATS):
            for t in range(len(trees)):
                tree = (t + repeat) % len(trees)
                runs[tree].append(run(args, trees[tree]))
        for tree, tree_runs in zip(trees, runs):
            row = {"tree": str(tree), **summarize(tree_runs)}
            print(json.dumps(row), flush=True)
            if isinstance(row["exit"], list):
                differ.append(f"{tree}: {' '.join(row['argv'])}")
    for argv in differ:
        print(f"exit codes differ between repeats: {argv}")


if __name__ == "__main__":
    main([Path(arg).resolve() for arg in sys.argv[1:]] or [SRC])
