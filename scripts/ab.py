#!/usr/bin/env python3
"""Interleaved A/B timing of the working tree's kronrec against a base, in one process.

    python3 scripts/ab.py --base <git rev or directory> [--workload NAME ...] [--seed N] [-k K]
    python3 scripts/ab.py --base <git rev or directory> --stress [-k K]

kronbench runs each repeat in its own worker at its own time, so a slow
spell of a shared host lands on one side of a parent/change pair.  Here both
sides run the same task list in one process, task by task: a slow spell
meets both.  The base's src/kronrec comes out of `git archive` of the rev
into a temporary directory, or from <directory>/src/kronrec; the change is
this checkout's src/kronrec.  kronrec uses only relative imports, so both
load under their own package names.  The tasks are kronbench's for the
workload and seed at its smallest size (the cycles that hold 100 tasks),
after one warm-up task per subcommand from one more cycle, as in
kronbench/run.py.  Each task runs k times per side through cli.main,
alternating which side goes first, and each side keeps its best time.

Per subcommand, per workload and overall it prints the summed ratio (the
change's summed best latency over the base's), the median per-task ratio
and the count of tasks the change ran faster.  --stress runs the fixed
list STRESS instead of the task lists, the same way with no warm-up, and
prints one row per input.  The exit status is 1 when any task's exit code
or stdout differs between the sides, 2 when the base cannot be read.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import math
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the stress sizes of every subcommand, raw symbols of the swapping Toeplitz
# elimination, which kronbench's autocorrelation symbols never reach,
# (x - 1)^8, which the square-free check modulo a prime leaves to Yun, and
# non-monic index rows: for monic A the modulus a_d^(m-d) is 1 and the
# integral basis' HNF has nothing to do
STRESS = (
    "critical-eps --m 10 --grid-n 2 --allow-large-grid -1,-1,1",
    "critical-eps --m 8 --grid-n 2 --allow-large-grid -1,1",
    "certify-nondense --m 36 --eps 1/2 3,-2,-9,-3,9",
    "certify-nondense --m 400 --eps 3/5 -1,-1,1",
    "lyons --s 1 --ell-max 300 3,-2,-9,-3,9",
    "basis --p 3 --m 120 3,-2,-9,-3,9",
    "gram-growth --ell-max 400 -1,-1,1",
    "witness --m 2000 -1,-1,1",
    "index --m 400 -1,-1,1",
    "index --m 120 3,-2,-9,-3,9",
    "index --m 200 -1,0,1,3",
    "trench --autocorrelate --n 400 -1,-1,1",
    "trench --r 1 --n 400 -2,5,-1",
    "trench --r 2 --n 300 1,-3,7,2,-1",
    "trench --r 1 --n 200 1,1,1",
    "mahler 1,-8,28,-56,70,-56,28,-8,1",
)


def load_workloads():
    """kronbench/workloads.py, read without writing bytecode under kronbench/."""
    path = ROOT / "kronbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("kronbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def kronbench_tasks(workloads, workload: str, seed: int):
    """(warm-up, tasks): kronbench's task list for the workload and seed at its smallest size."""
    width = len(workloads.cycle(workload))
    # run.py never runs fewer cycles than hold 100 tasks, ten beyond the 90th percentile
    every = workloads.tasks(workload, seed, math.ceil(100 / width) + 1)
    warmup = {}
    for name, argv in every[:width]:
        warmup.setdefault(name, argv)
    return list(warmup.items()), every[width:]


def load_cli(name: str, package: Path):
    """The cli module of the kronrec package at `package`, imported as package `name`."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv) -> tuple[float, tuple]:
    """(seconds, (exit code, stdout)) of one task."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # a crash is an outcome both sides must share
            code = repr(exc)
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue())


def compare(base, change, tasks, k: int):
    """Per task (slot name, base best, change best, same outcome), sides alternating first."""
    results = []
    for i, (name, argv) in enumerate(tasks):
        best = {}
        outcome = {}
        for rep in range(k):
            sides = (("base", base), ("change", change))
            for side, cli in sides if (i + rep) % 2 == 0 else sides[::-1]:
                elapsed, got = run(cli, argv)
                best[side] = min(best.get(side, math.inf), elapsed)
                outcome.setdefault(side, got)
        results.append((name, best["base"], best["change"], outcome["base"] == outcome["change"]))
    return results


def summary(label: str, rows) -> str:
    base = sum(r[1] for r in rows)
    change = sum(r[2] for r in rows)
    median = statistics.median(r[2] / r[1] for r in rows)
    faster = sum(r[2] < r[1] for r in rows)
    return (
        f"{label:<24} {len(rows):>5} {1e3 * base:>10.1f} {1e3 * change:>10.1f}"
        f" {change / base:>7.3f} {median:>7.3f} {faster:>6}"
    )


def base_package(base: str, scratch: Path) -> Path:
    """src/kronrec of the base: a directory's own, or a git rev's, archived into scratch."""
    if Path(base).is_dir():
        package = Path(base) / "src" / "kronrec"
    else:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", base, "src/kronrec"], capture_output=True
        )
        if archive.returncode:
            raise FileNotFoundError(f"neither a directory nor a git rev: {archive.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(scratch, **safe)
        package = scratch / "src" / "kronrec"
    if not (package / "cli.py").is_file():
        raise FileNotFoundError(f"no kronrec sources at {package}")
    return package


def main(argv=None) -> int:
    sys.dont_write_bytecode = True  # nothing is written under kronbench/ or the base
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git rev or directory of the base checkout")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-k", type=int, default=7, help="runs per task and side (default 7)")
    parser.add_argument("--stress", action="store_true", help="run the fixed list STRESS instead")
    args = parser.parse_args(argv)
    if args.k < 1:
        parser.error("-k must be at least 1")

    with tempfile.TemporaryDirectory() as scratch:
        try:
            package = base_package(args.base, Path(scratch))
        except OSError as exc:
            print(f"ab: cannot read the base {args.base!r}: {exc}", file=sys.stderr)
            return 2
        base = load_cli("kronrec_ab_base", package)
        change = load_cli("kronrec_ab_change", ROOT / "src" / "kronrec")
        return report(workloads, base, change, args)


def report(workloads, base, change, args) -> int:
    print(f"base {args.base}, change {ROOT}, {'stress' if args.stress else f'seed {args.seed}'}, k {args.k}")
    columns = ("tasks", 5), ("base ms", 10), ("change ms", 10), ("sum", 7), ("median", 7), ("faster", 6)
    print(f"{'workload/subcommand':<24}" + "".join(f" {name:>{width}}" for name, width in columns))
    if args.stress:
        tasks = [line.split() for line in STRESS]
        results = compare(base, change, [(argv[0], argv) for argv in tasks], args.k)
        for argv, r in zip(tasks, results):
            print(f"{summary(f'stress/{argv[0]}', [r])}  {' '.join(argv[1:])}")
        return outcome(results, [f"stress task {i}: {' '.join(argv)}" for i, argv in enumerate(tasks)])
    everything, labels = [], []
    for workload in args.workload or workloads.WORKLOADS:
        warmup, tasks = kronbench_tasks(workloads, workload, args.seed)
        for _, argv in warmup:
            run(base, argv)
            run(change, argv)
        results = compare(base, change, tasks, args.k)
        for name in dict.fromkeys(r[0] for r in results):
            print(summary(f"{workload}/{name}", [r for r in results if r[0] == name]))
        print(summary(f"{workload}/all", results))
        everything += results
        labels += [f"{workload} task {i}: {' '.join(argv)}" for i, (_, argv) in enumerate(tasks)]
    return outcome(everything, labels)


def outcome(results, labels) -> int:
    """Print the overall row and whether every task's outcome agreed; the exit status."""
    print(summary("all", results))
    differ = [label for label, r in zip(labels, results) if not r[3]]
    if differ:
        print(f"outcome differs on {len(differ)} of {len(results)} tasks, first {differ[0]}")
        return 1
    print(f"outcome equal on all {len(results)} tasks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
