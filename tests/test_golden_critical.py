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
Mahler-theorem cap that `upper` reads.
"""

import hashlib
import shlex

import pytest

from kronrec.cli import main

GOLDEN = [
    ("critical-eps --m 4 --grid-n 4 1,3", "d8d53124360e04a72385a6622f23a8a857611c66c5bd2ca8f9daa30621e345c7"),
    ("critical-eps --m 4 --grid-n 8 -1,3", "8d9a07161369d9c79ca5def27eb4454df792a72b86a0d6cf52fd8f4630a88a93"),
    ("critical-eps --m 5 --grid-n 4 3,-2", "290d9466393e6f70a9461020c1f8d6d4dbf892e241363cb9a592f2547d21c4ab"),
    ("critical-eps --m 4 --grid-n 2 -2,5", "49d46e1114743c885375ffbd2c08e8184df719cdcae019dc3407e2d04ead35af"),
    ("critical-eps --m 5 --grid-n 4 -1,-1,1", "4b9f46e017733377df6b1d95ff16454160c89eb45fda2d5c30343465616e3454"),
    ("critical-eps --m 4 --grid-n 8 -1,-1,1", "59b07627cabe930c9518cc43a90c949e68c4104f08f4a40954f0030a97df2e76"),
    ("critical-eps --m 5 --grid-n 2 1,0,0,1", "beb1f2750ee475685a034c62f09ca29809b443a1f9c1fa6a7d407ab7f71eabab"),
    ("critical-eps --m 6 --grid-n 4 2,-1,3,1", "d3b5dc41bf9dce4f1c7daf7a74bc7de9cd6144066e47841a1cfde1c7986b10d4"),
    ("critical-eps --m 6 --grid-n 4 3,-2,-9,-3,9", "f10d65849d45ce4be6e98641b670a6453a9d6d2b8e470ea44b384e3bbffbf83f"),
    ("critical-eps --m 7 --grid-n 2 --allow-large-grid -1,-1,1", "00f0dd837ae97609ab68cb38a66b4aaccda7b40267f13f42e3b4aa121244a7ac"),
    ("critical-eps --m 6 --grid-n 2 --allow-large-grid 3,-2", "791233a6a908c085c86c559817d0072f5521886eff92fb127b7c1a3b2cf68784"),
    ("critical-eps --m 4 --grid-n 8 --tol 1/10 2,1,-1", "7de145b4706323bc06d20450df23a7fde402b76a37b7d3fef4ee806245e9fd35"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_critical_eps_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
