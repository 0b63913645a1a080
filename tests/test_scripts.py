"""In-process smoke runs of the experiment scripts and of the README's library example."""

import importlib.util
import re
import runpy
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_threshold_sweep_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["threshold_sweep.py", "-2,1", "--m-max", "4"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "threshold_sweep.py"), run_name="__main__")
    assert exit_info.value.code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    table = {row[0]: row[1:] for row in rows if row and row[0].isdigit()}
    # x - 2 on a grid of 4: exact thresholds 1/3, 2/5, 4/9; refuted at 2/5 from m = 4
    assert table == {
        "2": ["0.333333", "0.500000", "1.360000", "no"],
        "3": ["0.400000", "0.500000", "1.184000", "no"],
        "4": ["0.444444", "0.500000", "0.985600", "yes"],
    }


def test_worked_example_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["worked_example.py"])
    runpy.run_path(str(SCRIPTS / "worked_example.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "9x^4 - 3x^3 - 9x^2 - 2x + 3" in out.splitlines()[0]
    # the lattice index is |a_d|^(m - d) = 9^(m - 4)
    assert "m = 6: lattice index 81 = 9^2" in out


def test_lyons_convergence_table(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["lyons_convergence.py", "-1,-1,1", "--ell-max", "12"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / "lyons_convergence.py"), run_name="__main__")
    assert exit_info.value.code == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # two tables, each with a row at ell = 5 and ell = 10
    growth, coords = (rows[i : i + 2] for i in (4, 8))
    assert [row[0] for row in growth + coords] == ["5", "10", "5", "10"]
    # D_l / D_{l-1} of x^2 - x - 1 closes in on M^2, the golden ratio squared
    assert float(growth[1][2]) < float(growth[0][2]) < 1e-2
    assert abs(float(coords[1][1]) - (5**0.5 - 1) / 2) < 1e-4


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # the value the block's last comment states
    assert capsys.readouterr().out.splitlines()[-1] == "True 163456/390625"


def _ab(monkeypatch):
    """scripts/ab.py as a module, its task lists cut to one warm-up task and four timed tasks."""
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)  # main sets it
    spec = importlib.util.spec_from_file_location("ab_script", SCRIPTS / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    full = ab.kronbench_tasks

    def few(workloads, workload, seed):
        warmup, tasks = full(workloads, workload, seed)
        return warmup[:1], tasks[:4]

    monkeypatch.setattr(ab, "kronbench_tasks", few)
    return ab


def test_ab_against_the_working_tree_itself(monkeypatch, capsys):
    ab = _ab(monkeypatch)
    assert ab.main(["--base", str(ROOT), "--workload", "decide", "-k", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"base {ROOT}, change {ROOT}, seed 1, k 1"
    assert lines[1].split() == [
        "workload/subcommand", "tasks", "base", "ms", "change", "ms", "sum", "median", "faster"
    ]
    row = r"\S+ +\d+ +\d+\.\d +\d+\.\d +\d+\.\d{3} +\d+\.\d{3} +\d+"
    assert all(re.fullmatch(row, line) for line in lines[2:-1])
    assert lines[-3].split()[:2] == ["decide/all", "4"] and lines[-2].split()[:2] == ["all", "4"]
    assert lines[-1] == "outcome equal on all 4 tasks"


def test_ab_exits_1_when_the_base_prints_differently(monkeypatch, capsys, tmp_path):
    ab = _ab(monkeypatch)
    shutil.copytree(ROOT / "src" / "kronrec", tmp_path / "src" / "kronrec")
    cli = tmp_path / "src" / "kronrec" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert 'SCHEMA = "kronrec/1"' in text
    cli.write_text(text.replace('SCHEMA = "kronrec/1"', 'SCHEMA = "kronrec/0"'), encoding="utf-8")
    assert ab.main(["--base", str(tmp_path), "--workload", "decide", "-k", "1"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("outcome differs on 4 of 4 tasks, first decide task 0: ")


def test_ab_stress_runs_its_fixed_list(monkeypatch, capsys):
    ab = _ab(monkeypatch)
    monkeypatch.setattr(ab, "STRESS", ("index --m 6 -1,-1,1", "trench --r 1 --n 6 1,1,1"))
    assert ab.main(["--base", str(ROOT), "--stress", "-k", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"base {ROOT}, change {ROOT}, stress, k 1"
    row = r"stress/\S+ +1 +\d+\.\d +\d+\.\d +\d+\.\d{3} +\d+\.\d{3} +[01]  (.*)"
    assert [re.fullmatch(row, line)[1] for line in lines[2:4]] == ["--m 6 -1,-1,1", "--r 1 --n 6 1,1,1"]
    assert lines[4].split()[:2] == ["all", "2"]
    assert lines[5:] == ["outcome equal on all 2 tasks"]
