"""Byte-level guard on the inputs whose roots certify at the first precision level.

The digests were recorded before the root engine took the first certifying
precision level as its answer.  The four witnesses and the quartic have a
conjugate pair (+-i) that matches only within the Aberth tolerance.  The
last two polynomials have root sets whose radii moved by an ulp with that
rule while their printed bounds did not.  A change in which level the
engine accepts shows here first.
"""

import hashlib
import shlex

import pytest

from kronrec import poly_core
from kronrec.cli import main

GOLDEN_ROOTS = [
    ("witness --m 14 --seed 72241 -2,4,-3,-1,-2,-2,2,3,3", "af5c8f6e9f71a495e170a95332c0715a48f64979889f69b91f62891f3cc46947"),
    ("witness --m 13 --seed 664553 1,-1,-1,3,-2,4", "a5cf24dec9621ae1b6446522dfe37ae0702657887d65f8f8115c3b8cb03f1415"),
    ("witness --m 16 --seed 681978 -1,3,2,2,1,-1,-2", "18b1fa8b674836501e7079a1c500de484eec7aec7975faad91d2fa92439f6326"),
    ("witness --m 14 --seed 957655 2,-4,2,2,4,4,3,-2,-1", "c43287a40fa9884f1515c398c9304dad7937afdb080027ecd986a36609174e64"),
    ("bound -1,-2,3,-2,4", "3ddda93944e889a817a767704efd6bb925691db876c0da055a4fc9fb10aea334"),
    ("mahler -1,-2,3,-2,4", "fd959b53e536379bcd5f7e14c36c45e5c11738f2366127982ffa8e460ed96ec5"),
    ("mahler 1,-4,2,-2,1,2", "42a9d4bda7746c7c3021951d93c8288b5739a34a43f3f51f4e189a7799e6b501"),
    ("bound -1,-3,0,-3,1", "31e3647b8049da47509f86be5302426f33f7c10aaa477fcca9a3ff32906907a9"),
]


@pytest.mark.parametrize("command, digest", GOLDEN_ROOTS, ids=[c for c, _ in GOLDEN_ROOTS])
def test_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command, dps_expected",
    [
        ("witness --m 13 --seed 664553 1,-1,-1,3,-2,4", [30]),
        ("bound -1,-2,3,-2,4", [30, 30]),
    ],
)
def test_first_certifying_level_is_final(capsys, monkeypatch, command, dps_expected):
    """A +-i pair that certifies at 30 digits runs no higher precision level."""
    real = poly_core._aberth
    dps_seen = []

    def recording(cs, dps):
        dps_seen.append(dps)
        return real(cs, dps)

    monkeypatch.setattr(poly_core, "_aberth", recording)
    assert main(shlex.split(command)) == 0
    capsys.readouterr()
    assert dps_seen == dps_expected
