"""In-process smoke runs of the experiment scripts."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
