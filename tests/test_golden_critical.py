"""Byte-level guard on `critical-eps` reports.

Each entry pins the SHA-256 of the stdout that one `critical-eps` invocation
prints.  The digests were recorded before the covering search became one
least-gauge search shared by `is_covered` and `critical_epsilon`, so a change
that moves the exact grid threshold, its margin-capped upper bound or the
report's wording fails here.  They cover degree 1 with |a_0| = 1 and
|a_0| > 1, degrees 2 to 4, grids of 2, 4 and 8 points per level and two
--allow-large-grid runs at l = 5.  A change that alters the mathematics on
purpose re-records the affected digests and says why: the five whose
polynomial has irrational roots were re-recorded when the double-precision
root engine replaced the mpmath ladder, which moved the last bits of the
Mahler-theorem cap that `upper` reads.  The seven on 1,3, -1,3, 3,-2, -2,5,
1,0,0,1 and 2,1,-1, whose polynomial or reversal has a nonzero rational
root, were re-recorded when rational roots joined that engine: a root
reached exactly has radius 0 instead of a two-ulp conversion slack, so only
`upper` moved, down by a few ulps.

DECIDE_SHAPED pins invocations shaped like the benchmark's decide slots,
recorded before the grid search moved to integer scores over one common
denominator: degree 1 at m = 4 with sum |a_i| = 13 (the costliest slot),
degrees 2 and 3 at m = 4 and degree 2 at m = 3, all on a grid of 4, and the
DomainError report of a grid whose first target's offset box exceeds
COVERING_OFFSET_GUARD (x - 1 at l = 7, grid of 2).
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("critical-eps --m 4 --grid-n 4 1,3", "134068940c54ca28bb38d008fd6b5d7e6a0e7e2c412a0d5b7c86196e87cf2c66"),
    ("critical-eps --m 4 --grid-n 8 -1,3", "ef5ca9bd4c461df48f675ad6bc165a463bc5ae30e0ada9e45929c03ff343db74"),
    ("critical-eps --m 5 --grid-n 4 3,-2", "5ec651d21d3cf2e9be25c5030ce8722b392d9b142993686abdd1d3b2d3f25791"),
    ("critical-eps --m 4 --grid-n 2 -2,5", "2f18e79188a287b1c3a85f3327334f0a46ceeba1a5da030359497cef0dbc2f98"),
    ("critical-eps --m 5 --grid-n 4 -1,-1,1", "4b9f46e017733377df6b1d95ff16454160c89eb45fda2d5c30343465616e3454"),
    ("critical-eps --m 4 --grid-n 8 -1,-1,1", "59b07627cabe930c9518cc43a90c949e68c4104f08f4a40954f0030a97df2e76"),
    ("critical-eps --m 5 --grid-n 2 1,0,0,1", "d31e9ce1b2286383d0f03f0329a620aff4dbb748a1c5eba7146cc787ba89ef07"),
    ("critical-eps --m 6 --grid-n 4 2,-1,3,1", "d3b5dc41bf9dce4f1c7daf7a74bc7de9cd6144066e47841a1cfde1c7986b10d4"),
    ("critical-eps --m 6 --grid-n 4 3,-2,-9,-3,9", "f10d65849d45ce4be6e98641b670a6453a9d6d2b8e470ea44b384e3bbffbf83f"),
    ("critical-eps --m 7 --grid-n 2 --allow-large-grid -1,-1,1", "00f0dd837ae97609ab68cb38a66b4aaccda7b40267f13f42e3b4aa121244a7ac"),
    ("critical-eps --m 6 --grid-n 2 --allow-large-grid 3,-2", "9a690abc13ee719a9bc46f900df4e4721a686eaeda30068051f9af4415cd4733"),
    ("critical-eps --m 4 --grid-n 8 --tol 1/10 2,1,-1", "91fda48ec7dc54f113c602b567cff5f02bd9274c399090b09b83abe3b922e7d7"),
]

DECIDE_SHAPED = [
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -2,11", 0, "2d9abc59a9bfe6c9a4ac65f684d6b6bf019442448d147c72b1d53925ec7656ae"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 5,-8", 0, "9aeb2f73734097f52173c6096459bb5d4187840e916d85479d0366cb03f6d600"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -4,2,1", 0, "5ab9f434d58091b70fc5f3bf3c020b5d1781b89fe0b6990bf7789d13f94b9dcb"),
    ("critical-eps --m 3 --grid-n 4 --tol 1/1000 -2,5,-1", 0, "6cd8f7138a957b1332a65211d31e45498c5ce0af629fbb77d2e3bfed44e87fb8"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -2,3,-1,-1", 0, "1590955cf041985043d1ca494353ba9b6533dda72397a104d669f8df6a72a04c"),
    ("critical-eps --m 8 --grid-n 2 --allow-large-grid -1,1", 1, "bbde6eefd4c46e6e824f704bbe5861adef9a4ff9a62391e6731de5d588211034"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_critical_eps_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command, code, digest", DECIDE_SHAPED, ids=[c for c, _, _ in DECIDE_SHAPED])
def test_decide_shaped_stdout_digest(capsys, command, code, digest):
    assert main(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
