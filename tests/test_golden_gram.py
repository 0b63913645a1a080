"""Byte-level guard on the Toeplitz and Gram reports at benchmark sizes.

Each entry pins the SHA-256 of the stdout that one invocation prints, at the
orders the gram benchmark runs: gram-growth at ell = 40 to 60 on B of degree
1 to 3, lyons at ell = 14 with one and two adjoined basis vectors, and the
direct Trench column at n = 80 on a cubic with no rational root.  The
digests were recorded on the dense Bareiss elimination, before it learnt to
skip the zeros of banded matrices, so a change to the elimination that moves
one bit of a Gram determinant, a ratio or a Toeplitz determinant fails here.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("gram-growth --ell-max 60 -4,7", "82e2d383a76f8116c90490d1dbc2c037f38f9f29c27343158dfa6b11751637c3"),
    ("gram-growth --ell-max 40 -2,1,3", "2bf565f0152e2ba40a74667b8ed7917c58a0a4d7c8c185597a28a9d032b00833"),
    ("gram-growth --ell-max 45 1,-2,1,2", "8bc146668dd10f8987ff6e273db07a9a8c8987f5455ccc362f09ff5453b7e71a"),
    ("lyons --s 1 --ell-max 14 2,-1,1,2", "fd01940f998df013046e2a67d3497cfb2e409056197f10775e8477f2aed5f0ab"),
    ("lyons --s 1,2 --ell-max 14 -1,2,2", "aafee5bbc29a844bdd3a9447620c1707dfb9f338362df1400fb436a9e8a9df38"),
    ("trench --autocorrelate --n 80 2,1,-1,1", "9b22b8c63a61ce93e585c0bb58e1a391c6d00ba05f186a1032a67defc4833367"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_gram_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
