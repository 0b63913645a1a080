"""Byte-level guard on `certify-nondense` reports.

Each entry pins the SHA-256 of the stdout that one `certify-nondense`
invocation prints.  The volume's minor sums read the minors of the integral
lattice basis from density._minor_levels, the one Laplace enumeration that
also gives the zonotope facets their minors.  A change that moves a single
bit of the exact volume, its float or the verdict fails here.  They cover
degrees 1 to 4, windows from m = d + 1 to m = 16, both verdicts, non-monic
polynomials, |a_0| > 1 and a decimal --eps.  A change that alters the
mathematics on purpose re-records the affected digests and says why.  Seven
digests were re-recorded when the integral basis became the unique Hermite
normal form: for 0 < p < d the sum of |p x p minors| depends on the basis,
so `volume_bound` moved (larger for `-1,-1,1` at m = 12 and `2,-3,5`,
smaller for the other five) and no verdict changed.
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
    ("certify-nondense --m 12 --eps 1/2 -1,-1,1", "1ce0e59618441925d166629e375b052bd68337216896669e0114ba17a8a00578"),
    ("certify-nondense --m 4 --eps 0.3 2,-3,5", "a209a75f26ee90aab6435077b70fc8b9dc5115bc55f85a4dbece87c5ebece631"),
    ("certify-nondense --m 16 --eps 1/10 2,-3,5", "a095da950e6ddc41cadb9728f5d978dce52a5617fdf19f77c8e9296b6a750801"),
    ("certify-nondense --m 9 --eps 1/10 2,-1,3,2", "18d4d20741e90c9d10e2454a090181426bb00a2f688d07270fae693f2355a215"),
    ("certify-nondense --m 12 --eps 1/4 1,-3,0,1", "c7d671597744dae839303389bfa746147fa6dcc1a4e82f0ab033b7611520a8e5"),
    ("certify-nondense --m 7 --eps 0.45 2,-1,3,2", "0c9e4bba0608b180178155e57acd71d9d3e6c47543eb06d893e2c473666a8363"),
    ("certify-nondense --m 5 --eps 1/20 3,-2,-9,-3,9", "20ee0aa06e66929973f167e4c6149122fb336697302ac483a8646e53fc2f4b45"),
    ("certify-nondense --m 14 --eps 0.05 3,-2,-9,-3,9", "f84a967da34c6dcf4b02490b00a855f3fee187c9f6df7aea7cb1a077b71c67be"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_certify_nondense_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
