"""Byte-level guard on inputs with the roots +-i beside irrational ones.

Every CLI polynomial here has the factor x^2 + 1.  The root engine reaches +-i
exactly, so their disks have radius 0.  The four witness digests were
recorded under the mpmath precision ladder and held when the
double-precision engine with an exact certificate replaced it.  The mahler
and bound digests were re-recorded then, because the radii of the
irrational roots and the last bits of the enclosures moved.  A change in
where the engine's centres settle or how it rounds its radii shows here
first.  `mahler 1,-4,2,-2,1,2` has the rational root 1 too; its digest
was re-recorded again when rational roots joined the engine and that root's
radius went from a two-ulp conversion slack to 0.  The two bound digests
were re-recorded when eps_refined began to read the reversal's refined
product |a_d| * prod max(1, |alpha| - 1) from A's own roots instead of
certifying the reversal's: only eps_refined moved, in its last bits.  A
failing digest prints the report it hashed.

`test_roots_digest` pins `roots` itself, bit for bit, on seeded random
polynomials shaped like the benchmark's witness and mahler inputs, some
with repeated factors or the root 0.  `test_benchmark_roots_digest` pins it
on every polynomial the benchmark's three workloads draw at seed 1; the
benchmark's `workloads.py` is loaded from its file without writing bytecode
next to it.
"""

import hashlib
import importlib.util
import math
import random
import shlex
import sys
from pathlib import Path

import pytest

from kronrec.cli import main
from kronrec.errors import DomainError, RootCertificationError
from kronrec.poly_core import IntPolynomial, parse_polynomial, roots

KRONBENCH = Path(__file__).resolve().parent.parent / "kronbench"

GOLDEN_ROOTS = [
    ("witness --m 14 --seed 72241 -2,4,-3,-1,-2,-2,2,3,3", "af5c8f6e9f71a495e170a95332c0715a48f64979889f69b91f62891f3cc46947"),
    ("witness --m 13 --seed 664553 1,-1,-1,3,-2,4", "a5cf24dec9621ae1b6446522dfe37ae0702657887d65f8f8115c3b8cb03f1415"),
    ("witness --m 16 --seed 681978 -1,3,2,2,1,-1,-2", "18b1fa8b674836501e7079a1c500de484eec7aec7975faad91d2fa92439f6326"),
    ("witness --m 14 --seed 957655 2,-4,2,2,4,4,3,-2,-1", "c43287a40fa9884f1515c398c9304dad7937afdb080027ecd986a36609174e64"),
    ("bound -1,-2,3,-2,4", "3a669b9ffef10c34bbe0497e188c1908b23e4275688f297c2f4b3ed5d1bf82df"),
    ("mahler -1,-2,3,-2,4", "3a232445ba4aea87bd0b74eb5fe6ca8056527c2d5fe0b97af997043bc2c67e72"),
    ("mahler 1,-4,2,-2,1,2", "e4b5ee23fb661d6ae51c474eaf00c196b577e5aeac1d315fe5df4a92cba0c177"),
    ("bound -1,-3,0,-3,1", "a0f7529db763e2ecda9335324dd9482497aa28f5ab1d6a3933d11689efbbdf4a"),
]


@pytest.mark.parametrize("command, digest", GOLDEN_ROOTS, ids=[c for c, _ in GOLDEN_ROOTS])
def test_stdout_digest(capsys, command, digest):
    code = main(shlex.split(command))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_poly(rng, degree, bound):
    """Primitive, nonzero constant and leading coefficients, as in the witness workload."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if cs[0] and cs[-1] and math.gcd(*cs) == 1:
            return cs


def _golden_polys():
    """Six random polynomials of each degree 2-12 with |a_i| <= 4, then
    sixteen f^2 g of degree up to 12, half with the root 0 once or twice."""
    rng = random.Random("golden-roots")
    out = [_random_poly(rng, degree, 4) for degree in range(2, 13) for _ in range(6)]
    for _ in range(16):
        f = _random_poly(rng, rng.randint(1, 3), 4)
        g = _random_poly(rng, rng.randint(1, 4), 4)
        cs = _mul(_mul(f, f), g)
        if rng.random() < 0.5:
            cs = [0] * rng.randint(1, 2) + cs
        out.append(cs)
    return out


def _roots_digest(polys):
    """SHA-256 over each polynomial and the hex of each centre, radius and
    multiplicity of its roots, or the error it raised."""
    h = hashlib.sha256()
    for cs in polys:
        h.update(repr(cs).encode())
        try:
            rs = roots(IntPolynomial(tuple(cs))).roots
        except (DomainError, RootCertificationError) as exc:
            h.update(f"error {exc}".encode())
            continue
        for e in rs:
            h.update(f"{e.value.real.hex()} {e.value.imag.hex()} {e.radius.hex()} {e.multiplicity};".encode())
    return h.hexdigest()


def test_roots_digest():
    """Every bit of each centre and radius, and each multiplicity, of `roots`
    on 82 seeded polynomials; a failure would be pinned by its message."""
    assert _roots_digest(_golden_polys()) == "e0b68a58bb97cdcd607ada9093ac0e5adf2de6b8edb1aa8dce686af2455d56ab"


def benchmark_polys(workload):
    """The polynomial of each task in the first eight cycles of the
    workload's seed-1 task stream.  Eight cycles hold the task list of the
    shortest benchmark run of each workload: the warm-up cycle and the
    fewest cycles that leave ten tasks beyond the 90th percentile."""
    spec = importlib.util.spec_from_file_location("_kronbench_workloads", KRONBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return [list(parse_polynomial(argv[-1]).coeffs) for _, argv in module.tasks(workload, 1, 8)]


BENCHMARK_ROOTS = {
    "gram": "b770190485cb450123794bfd54cef99460be73bd6839a1f44411c099e007a99b",
    "witness": "9da170c4b3aabee40c1685ab5e150f97746688f971a953e275050f1ea6e82b69",
    "decide": "4a38805c6d0204d608cce3eaa25f8175626c32db3583d6fb1f03bca43ab7ab99",
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_ROOTS))
def test_benchmark_roots_digest(workload):
    """`roots` bit for bit on the 120 to 144 polynomials of one benchmark workload."""
    assert _roots_digest(benchmark_polys(workload)) == BENCHMARK_ROOTS[workload]
