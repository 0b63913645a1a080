"""Byte-level guard on `certify-nondense` reports.

Each entry pins the SHA-256 of the stdout that one `certify-nondense`
invocation prints.  The volume's minor sum runs over the minors of the
integral lattice basis on its own; no enumeration is shared with the
zonotope facets.  A change that moves a single bit of the exact volume, its
float or the verdict fails here.  They cover degrees 1 to 4, windows from
m = d + 1 to m = 16, both verdicts, non-monic polynomials, |a_0| > 1 and a
decimal --eps.  A change that alters the mathematics on purpose re-records
the affected digests and says why.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("certify-nondense --m 2 --eps 1/2 -2,1", "468e4ff16a80d5624f4cd03a2a2ea4311cfe4c0c4ce75a5f5c170d5609547b30"),
    ("certify-nondense --m 8 --eps 2/5 -2,1", "4bd68e6c2992e1cbdafe9232553919feb495ccbd88491aa2d2ed8bd1c82dd6b5"),
    ("certify-nondense --m 16 --eps 1/3 3,-2", "bba584b05656a96cfdebd9e660b74b163c045d778af7a8edf1b5127e7efc0f84"),
    ("certify-nondense --m 3 --eps 1/2 -1,-1,1", "3d70bf1e0422e8de12351cd5d199675e12a2173fc79cbe1682783f7de80f1854"),
    ("certify-nondense --m 12 --eps 1/2 -1,-1,1", "e026fa70aad3c1565d2b3cb5a58b0212822701cb97199c1157e1c4e2bbb9c597"),
    ("certify-nondense --m 4 --eps 0.3 2,-3,5", "e434eea0b3ded3f454dc15ec9eb23b49eecb9e5e63aad3c9983c11767cd11b7a"),
    ("certify-nondense --m 16 --eps 1/10 2,-3,5", "a095da950e6ddc41cadb9728f5d978dce52a5617fdf19f77c8e9296b6a750801"),
    ("certify-nondense --m 9 --eps 1/10 2,-1,3,2", "aeaf3dcdf78db558b62faab821ca20ac673a5e4065d09f1007fdd94e5c420a17"),
    ("certify-nondense --m 12 --eps 1/4 1,-3,0,1", "dac43aa8d75e9fe99c15a590b745c06bdd7f1ed55162a598fd365530081d7900"),
    ("certify-nondense --m 7 --eps 0.45 2,-1,3,2", "b803d96f8497e5c0821ba5530b883bab5262daea91e8a22507054585be2fb41d"),
    ("certify-nondense --m 5 --eps 1/20 3,-2,-9,-3,9", "55966d0040c466b28107f450b2feedac009bcf171396ed5862b904df84cecd40"),
    ("certify-nondense --m 14 --eps 0.05 3,-2,-9,-3,9", "871adf6696ae44cb95f937d026c17cc538cd1cff1dced40d116d20753566f103"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_certify_nondense_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
