"""Every benchmark task answers, and its report passes the benchmark's own check.

The benchmark counts a task that exits nonzero, raises, or fails its check
in `kronbench/checks.py` against `ok_ratio`; this runs one cycle of each
workload's slots at three seeds through `cli.main`, so a change that would
lower `ok_ratio` fails here first.  The benchmark's modules are loaded from
their files without writing bytecode next to them.
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
        for name in ("workloads", "checks"):
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
