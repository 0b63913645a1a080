"""In-process smoke runs of the experiment scripts and of the README's library example."""

import runpy
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
