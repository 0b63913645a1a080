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
`upper` moved, down by a few ulps.  The ten whose `upper` is the cap (1,3,
-1,3, -2,5, both -1,-1,1 runs at m = 5 and 7, 1,0,0,1, 2,-1,3,1,
3,-2,-9,-3,9 and the decide-shaped -2,11 and 5,-8) were re-recorded when
the cap began to read the reversal's refined product from A's own roots
instead of certifying the reversal's: only `upper` moved, down by a few
ulps.  A failing digest prints the report it hashed.

DECIDE_SHAPED pins invocations shaped like the benchmark's decide slots,
recorded before the grid search moved to integer scores over one common
denominator: degree 1 at m = 4 with sum |a_i| = 13 (the costliest slot),
degrees 2 and 3 at m = 4 and degree 2 at m = 3, all on a grid of 4, and
x - 1 at l = 7 on a grid of 2.  That last one pinned a DomainError report
while its first target's offset box exceeded a per-box offset guard, since
replaced by the covering budget; it was re-recorded, as the answer 1/2,
when the boxes began to stop at the certified cap that every answer
already lies under.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("critical-eps --m 4 --grid-n 4 1,3", "e034e0215dc78f2bfde16ce0246bbd672eca2195cd447434491a41a14170a383"),
    ("critical-eps --m 4 --grid-n 8 -1,3", "3f6382ef1ad2b15dfa3ab3f9547e3c7180e7590f6fc61b38e3a0b59d1e5ce211"),
    ("critical-eps --m 5 --grid-n 4 3,-2", "5ec651d21d3cf2e9be25c5030ce8722b392d9b142993686abdd1d3b2d3f25791"),
    ("critical-eps --m 4 --grid-n 2 -2,5", "e1b611289d0e0d829cd94187af74bd3ec118ee20992fb380cd037cc8d173328b"),
    ("critical-eps --m 5 --grid-n 4 -1,-1,1", "68f3dca2000f035d752a5a314588cc896606675b5017545549b754d0c88036b4"),
    ("critical-eps --m 4 --grid-n 8 -1,-1,1", "59b07627cabe930c9518cc43a90c949e68c4104f08f4a40954f0030a97df2e76"),
    ("critical-eps --m 5 --grid-n 2 1,0,0,1", "aac94bc858438bf853eeea80a4ffbc230893b95e9de3b7996b8300b1ab600b40"),
    ("critical-eps --m 6 --grid-n 4 2,-1,3,1", "4dc53821c5d00d470951c58640d5f4072de3d85b580607796a48d3be27cdf7b1"),
    ("critical-eps --m 6 --grid-n 4 3,-2,-9,-3,9", "610f823c32b0f9514494c60715a0fac9d79908afcf05cced3b928ce9bab885a0"),
    ("critical-eps --m 7 --grid-n 2 --allow-large-grid -1,-1,1", "3208a2e277d6580eed479d72f6a34ac55829c5b52c1c1daaa0b159b92068f4bb"),
    ("critical-eps --m 6 --grid-n 2 --allow-large-grid 3,-2", "9a690abc13ee719a9bc46f900df4e4721a686eaeda30068051f9af4415cd4733"),
    ("critical-eps --m 4 --grid-n 8 --tol 1/10 2,1,-1", "91fda48ec7dc54f113c602b567cff5f02bd9274c399090b09b83abe3b922e7d7"),
]

DECIDE_SHAPED = [
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -2,11", 0, "2af27f84b8d2cbcba1f8214118a31ba395aa0fb6a185a0d3e99e3132f74b7172"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 5,-8", 0, "68c2991b05a09751fb75b22f971d95a30c8ea8dd84e7aea4816ace8f560e0968"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -4,2,1", 0, "5ab9f434d58091b70fc5f3bf3c020b5d1781b89fe0b6990bf7789d13f94b9dcb"),
    ("critical-eps --m 3 --grid-n 4 --tol 1/1000 -2,5,-1", 0, "6cd8f7138a957b1332a65211d31e45498c5ce0af629fbb77d2e3bfed44e87fb8"),
    ("critical-eps --m 4 --grid-n 4 --tol 1/1000 -2,3,-1,-1", 0, "1590955cf041985043d1ca494353ba9b6533dda72397a104d669f8df6a72a04c"),
    ("critical-eps --m 8 --grid-n 2 --allow-large-grid -1,1", 0, "605f3208742bfb709dc919430c821bebd100005fda2b0b614ccf3d3f971cc8b9"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_critical_eps_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("command, code, digest", DECIDE_SHAPED, ids=[c for c, _, _ in DECIDE_SHAPED])
def test_decide_shaped_stdout_digest(capsys, command, code, digest):
    assert main(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out
