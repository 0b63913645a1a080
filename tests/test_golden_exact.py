"""Byte-level guard on the exact lattice and Toeplitz reports.

Each entry pins the SHA-256 of the stdout that one invocation prints.  The
digests were recorded before the recurrence basis moved onto one integer
table a_d^(m-d) N and the Toeplitz rows onto the symbol's integer multiple,
so a change that moves one bit of an index, a canonical basis, a Gram
determinant, a Lyons ratio or a Trench determinant fails here.  They cover
non-monic polynomials with |a_d| > 1, both pivot rules, raw rational
symbols, a symbol wider than its matrix and a one-sided symbol.  A change
that alters the mathematics on purpose re-records the affected digests and
says why.  The `index` digest was re-recorded when the Hermite normal form
became unique (entries above a pivot in [0, pivot)): only the entries of
`z_basis` above its pivots moved; `index` and `matches` did not.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("index --m 9 3,-2,-9,-3,9", "d30ff8b31031baed3cd82152a19e6919f121ae5d9d5f48ad02ce40ebc7c195bd"),
    ("basis --p 3 --m 10 3,-2,-9,-3,9", "8bfa77be6f5b40bb5960757314a33dd3e0591d83fe731933d45bf18d34c50fd2"),
    ("basis --p 2 --m 9 --pivot-rule positive 4,-6,1,2", "202d31c929173041ecd18b8f424b3865923aada0057ee7b43c604fba2f8f79cd"),
    ("gram-growth --ell-max 12 3,-2,5", "edc18f897628fc6ea3bff50956180292be883e508d8ba07d527114a205fc500b"),
    ("lyons --s 1,2 --ell-max 8 3,-2,-9,-3,9", "de0c4f9fbf61cae0e8304a3f30600501be965c9024cb6e55e3ba0516dd14be32"),
    ("trench --n 6 --r 2 1/2,-1,3,2/3", "8c9535df6337b1ca3267a6149affc5e8c6fbf66d3487b5ec0ffdc411bbe0326d"),
    ("trench --n 2 --r 3 1,2,3,4,5", "294d372dda60d989b1669834b7ddff470a07a012055a66512d32cdcb080f91a5"),
    ("trench --n 7 --r 0 3,1/2,-2", "4f71565f34873126a62a8c45c094c2a04cbd6e3137ee869d255332233c82d239"),
    # a leading minor vanishes: symmetric symbols hand over to the swapping determinant
    ("trench --r 1 --n 6 1,1,1", "35094e40756c7608838538671d2a577938df8610b734d5561c6c6244d68e40b1"),
    ("trench --r 1 --n 7 1,0,1", "98aa9a17dfb6bc81f1b634537305ddaff8f59225256a55bd0725ecbbe799c92d"),
    ("trench --r 1 --n 5 2,0,3", "66fc1c92f8de7b887403a2098966b0ed53699ce9296bcf771039d0000481e57e"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_exact_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
