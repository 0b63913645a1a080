"""Every benchmark task answers, and its report passes the benchmark's own check.

The benchmark counts a task that exits nonzero, raises, or fails its check
in `kronbench/checks.py` against `ok_ratio`; this runs one cycle of each
workload's slots at three seeds through `cli.main`, so a change that would
lower `ok_ratio` fails here first.  The traced run (`run.py --trace 1`) fails
when the tracer cannot rebind a layer or when traced stdout differs from
untraced stdout, so one cycle per workload also runs under `tracer.Tracer`.
The benchmark's modules are loaded from their files without writing
bytecode next to them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from kronrec import cli

KRONBENCH = Path(__file__).resolve().parent.parent / "kronbench"


@pytest.fixture(scope="module")
def bench():
    modules = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        for name in ("workloads", "checks", "tracer"):
            spec = importlib.util.spec_from_file_location(f"_kronbench_{name}", KRONBENCH / f"{name}.py")
            modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    return modules


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["gram", "witness", "decide"])
def test_one_cycle_passes_the_benchmark_checks(bench, capsys, workload, seed):
    for name, argv in bench["workloads"].tasks(workload, seed, 1):
        capsys.readouterr()
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        assert bench["checks"].check(name, argv, json.loads(out)) is None, argv


def _run(capsys, tasks):
    """(name, argv, exit code, stdout) per task, each through `cli.main`."""
    runs = []
    for name, argv in tasks:
        capsys.readouterr()
        code = cli.main(list(argv))
        runs.append((name, argv, code, capsys.readouterr().out))
    return runs


@pytest.mark.parametrize("workload", ["gram", "witness", "decide"])
def test_one_traced_cycle_prints_the_untraced_stdout(bench, capsys, workload):
    tasks = list(bench["workloads"].tasks(workload, 1, 1))
    untraced = _run(capsys, tasks)
    tracer = bench["tracer"].Tracer()
    try:
        tracer.install()
        tracer.recording = True
        traced = _run(capsys, tasks)
    finally:
        tracer.uninstall()
    assert traced == untraced
    for name, argv, code, out in traced:
        assert code == 0, (argv, out)
        assert bench["checks"].check(name, argv, json.loads(out)) is None, argv
