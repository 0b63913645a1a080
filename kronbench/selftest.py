"""Self-test of the benchmark itself.

    python3 kronbench/selftest.py [--seed N] [--seconds S]

Two checks, for every workload:
  1. Two traced runs of one seed report identical deterministic counts:
     every *.calls, det_exact.ops, det_exact.max_n, *.repeat_ratio and
     covered_ratio, and the same CLI stdout digest.
  2. Another seed draws other inputs, and the same seed the same inputs.
Exits 1 and names what differs when a check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
DETERMINISTIC_SUFFIXES = (".calls", ".ops", ".max_n", ".repeat_ratio", ".covered_ratio")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ]
    proc = subprocess.run(
        argv, cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600
    )
    *_, info_line, result_line = proc.stdout.splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def deterministic(result: dict) -> dict:
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if name.endswith(DETERMINISTIC_SUFFIXES)
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    problems = []
    for workload in workloads.WORKLOADS:
        same = workloads.tasks(workload, args.seed, 1)
        if same != workloads.tasks(workload, args.seed, 1):
            problems.append(f"{workload}: one seed drew two different task lists")
        if same == workloads.tasks(workload, args.seed + 1, 1):
            problems.append(f"{workload}: seeds {args.seed} and {args.seed + 1} drew the same inputs")

        (info_a, first), (info_b, second) = (
            traced_run(workload, args.seed, args.seconds) for _ in range(2)
        )
        for result in (first, second):
            if not result["correct"]:
                problems.append(f"{workload}: traced run failed {result['failed']} tasks")
        counts_a, counts_b = deterministic(first), deterministic(second)
        differ = sorted(k for k in counts_a if counts_a[k] != counts_b.get(k))
        if differ or not counts_a:
            problems.append(f"{workload}: counts differ between runs: {differ}")
        if info_a["stdout_sha256"] != info_b["stdout_sha256"]:
            problems.append(f"{workload}: stdout digest differs between runs")
        print(f"{workload}: {len(counts_a)} deterministic counts, {len(differ)} differ")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
