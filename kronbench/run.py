"""kronrec benchmark: one closed-loop client issuing CLI queries in process.

    python3 kronbench/run.py --workload {gram,witness,decide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; kronrec is imported from `src/`.
One client, one thread: each task is an argv passed to `kronrec.cli.main`,
and the next task starts only after the previous one returns.  Tasks come
from `workloads.tasks`: the number of slot cycles that take about
S/REPEATS seconds on the reference machine (2 vCPUs, CPython 3.11, mpmath
on its pure-Python backend), and never fewer than leave ten tasks beyond
the 90th percentile, after a warm-up of one task per subcommand drawn
from one more cycle.  The task list is therefore fixed by workload, seed
and S, and so are the stdout digest and every traced count.  Each report
is checked after its timed span (see `checks.py`).  A nonzero exit code,
an exception or a failed check counts as a failed task; `correct` is false
only when a report fails its check, since kronrec may refuse (exit 1)
rather than answer uncertified.

--trace 0 runs the task list REPEATS times, one after the other, each
time in a fresh worker process (so no repeat can reuse another's work).
The host is shared and its speed drifts (see `reference.py`), so every
wall time is scaled to the reference machine's speed: each task's latency,
and each set-up probe, is multiplied by NOMINAL_S over the median time of
the reference kernel run next to it.  A task's latency is then the best of
its repeats, which drops the slow spells shorter than the gap between
repeats.  The first repeat checks every report; the later ones must print
the same stdout.  It reports the end-to-end metrics, all times scaled:
  setup_s      median wall time of a fresh interpreter running
               `import kronrec.cli`: one unmeasured warm-up, then
               SETUP_REPEATS probes spread before, between and after
               the repeats
  task_s.p50   median per-task latency
  task_s.p90   90th-percentile latency; runs are sized for at least ten
               tasks beyond it (the count is printed with it)
  tasks_per_s  tasks per second of summed per-task latency
  ok_ratio     share of attempted tasks that passed (1 - failed_ratio)
  peak_rss_mb  peak resident set of the worker processes (getrusage)
The info line gives the unscaled figures and the measured slowdown too.

--trace 1 runs the same tasks twice in this process, untraced then traced
(`tracer.py`), and reports the per-layer metrics plus trace.overhead_ratio,
the untraced tasks_per_s over the traced one, both scaled as above.  Spans are written, gzipped,
to kronbench/out/ when the run ends.

Before the result, one `{"info": ...}` line gives the environment, sample
counts, failed_ratio, the failures, the SHA-256 of the concatenated CLI
stdout, and the median latency of each slot (untraced) or the largest
self-time shares (traced).  The last line is the result object; both are
also saved to kronbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from reference import HALF_WINDOW, NOMINAL_S, Reference, slowdown

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# seconds one slot cycle takes on the reference machine
NOMINAL_CYCLE_S = {"gram": 2.1, "witness": 0.6, "decide": 0.5}
REPEATS = 2
MIN_BEYOND_P90 = 10
SETUP_REPEATS = 12
# a hung repeat is killed in time for the whole run to end within 180 s
WORKER_TIMEOUT_S = 150 / REPEATS


def setup_probe() -> float:
    """Wall time of one fresh interpreter running `import kronrec.cli`."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import kronrec.cli"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code, str(SRC)], cwd=ROOT, check=True, stdout=subprocess.DEVNULL
    )
    return time.perf_counter() - start


def run_tasks(cli, tasks, tracer=None, check=True, before=None):
    """Run every task in order; returns (latencies, failures, stdout digest).

    A failure's kind is "exit" for a nonzero exit code (kronrec's structured
    refusal), "crash" for an exception out of main, and "wrong" for a report
    that fails its check.  With check false, reports are not checked.
    `before()` runs ahead of each task, untimed.
    """
    latencies = []
    failures = []
    digest = hashlib.sha256()
    for task_id, (name, argv) in enumerate(tasks):
        if before is not None:
            before()
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.start_task(task_id)
            tracer.recording = True
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(argv))
            except Exception as exc:  # a crash is a failed task, not a failed run
                code = exc
            latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.recording = False
        text = out.getvalue()
        digest.update(text.encode())
        kind = "wrong"
        if isinstance(code, Exception):
            kind, reason = "crash", repr(code)
        elif code != 0:
            kind, reason = "exit", f"exit {code}: {(text + err.getvalue()).strip()[-300:]}"
        elif not check:
            reason = None
        else:
            try:
                reason = checks.check(name, argv, json.loads(text))
            except Exception as exc:  # a malformed report fails the task
                reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append({"task": task_id, "kind": kind, "argv": argv, "reason": reason})
    return latencies, failures, digest.hexdigest()


def environment() -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def percentile(values, q):
    """Nearest-rank percentile: floor(len * (1 - q)) samples lie beyond it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def task_list(workload: str, seed: int, seconds: float):
    """(cycles, cycle width, warm-up tasks, measured tasks) for one repeat."""
    width = len(workloads.cycle(workload))
    cycles = max(
        # a tenth of the tasks lie beyond the 90th percentile
        math.ceil(MIN_BEYOND_P90 * 10 / width),
        round(seconds / (REPEATS * NOMINAL_CYCLE_S[workload])),
    )
    every = workloads.tasks(workload, seed, cycles + 1)
    # the first cycle only supplies the warm-up: its cheapest task of each
    # subcommand, since slots are in rising cost
    warmup, names = [], set()
    for name, argv in every[:width]:
        if name not in names:
            names.add(name)
            warmup.append((name, argv))
    return cycles, width, warmup, every[width:]


def worker(repeat, warmup, tasks) -> int:
    """One repeat: run the tasks in this fresh process, print the raw record.

    Only the first repeat checks the reports; the others must print the
    same stdout, which the parent verifies through the digest.
    """
    import kronrec.cli as cli

    run_tasks(cli, warmup)
    reference_s = []
    with Reference() as ref:
        latencies, failures, digest = run_tasks(
            cli, tasks, check=repeat == 0, before=lambda: reference_s.append(ref.time())
        )
    record = {
        "latencies": latencies,
        "reference_s": reference_s,
        "failures": failures,
        "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(record))
    return 0


def run_worker(args, repeat) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--worker", str(repeat),
    ]
    start = time.perf_counter()
    proc = subprocess.run(
        argv, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    record["wall_s"] = time.perf_counter() - start
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "kronrec" / "cli.py").is_file():
        print(f"kronbench: no kronrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cycles, width, warmup, tasks = task_list(args.workload, args.seed, args.seconds)
    if args.worker is not None:
        return worker(args.worker, warmup, tasks)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "cycles": cycles,
        "tasks": len(tasks),
    }
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        # set-up probes go before, between and after the repeats, so that
        # they meet the same machine-speed swings as the tasks do
        setup_raw, setup_times, records = [], [], []
        with Reference() as ref:
            setup_probe()
            per_gap = SETUP_REPEATS // (REPEATS + 1)
            for gap in range(REPEATS + 1):
                count = per_gap if gap < REPEATS else SETUP_REPEATS - REPEATS * per_gap
                for _ in range(count):
                    around = [ref.time() for _ in range(2 * HALF_WINDOW + 1)]
                    setup_raw.append(setup_probe())
                    setup_times.append(setup_raw[-1] / slowdown(around, HALF_WINDOW))
                if gap < REPEATS:
                    records.append(run_worker(args, gap))
        for record in records:
            ref_s = record["reference_s"]
            record["scaled"] = [t / slowdown(ref_s, i) for i, t in enumerate(record["latencies"])]
        latencies = [min(best) for best in zip(*(r["scaled"] for r in records))]
        raw = [min(best) for best in zip(*(r["latencies"] for r in records))]
        failures = []
        for repeat, record in enumerate(records):
            failures += [dict(f, repeat=repeat) for f in record["failures"]]
        digest = records[0]["digest"]
        if any(r["digest"] != digest for r in records):
            reason = "repeats printed different stdout"
            failures.append({"task": None, "kind": "wrong", "argv": None, "reason": reason})
        attempted = len(tasks) * REPEATS
        p90 = percentile(latencies, 0.9)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "task_s.p50": (statistics.median(latencies), "s"),
            "task_s.p90": (p90, "s"),
            "tasks_per_s": (len(tasks) / sum(latencies), "1/s"),
            "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MB"),
        }
        info["repeats"] = REPEATS
        info["repeat_wall_s"] = [round(r["wall_s"], 2) for r in records]
        info["reference_slowdown"] = [
            round(statistics.median(r["reference_s"]) / NOMINAL_S, 4) for r in records
        ]
        info["unscaled"] = {
            "setup_s": statistics.median(setup_raw),
            "task_s.p50": statistics.median(raw),
            "task_s.p90": percentile(raw, 0.9),
            "tasks_per_s": len(tasks) / sum(raw),
        }
        info["task_s.p90_samples_beyond"] = sum(1 for t in latencies if t > p90)
        info["slot_p50_s"] = [
            round(statistics.median(latencies[i::width]), 5) for i in range(width)
        ]
        info["setup_repeats"] = SETUP_REPEATS
    else:
        import kronrec.cli as cli
        from tracer import Tracer

        run_tasks(cli, warmup)
        ref_untraced, ref_traced = [], []
        with Reference() as ref:
            untraced, failures, digest = run_tasks(
                cli, tasks, before=lambda: ref_untraced.append(ref.time())
            )
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_failures, traced_digest = run_tasks(
                    cli, tasks, tracer, before=lambda: ref_traced.append(ref.time())
                )
            finally:
                tracer.uninstall()
        failures += traced_failures
        if traced_digest != digest:
            failures.append(
                {"task": None, "kind": "wrong", "argv": None, "reason": "traced stdout differs"}
            )
        attempted = len(tasks) * 2
        metrics = tracer.metrics()
        untraced_s = sum(t / slowdown(ref_untraced, i) for i, t in enumerate(untraced))
        traced_s = sum(t / slowdown(ref_traced, i) for i, t in enumerate(traced))
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        total = sum(traced)
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:6]
        info["self_share"] = {name: round(s / total, 4) for name, s in top}
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz"
        tracer.write_spans(spans_path)
        info["spans"] = {"count": len(tracer.spans), "file": str(spans_path.relative_to(ROOT))}

    info["failed_ratio"] = len(failures) / attempted
    info["failures"] = failures[:5]
    info["stdout_sha256"] = digest
    result = {
        "correct": not any(f["kind"] == "wrong" for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
