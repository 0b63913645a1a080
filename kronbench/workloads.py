"""Seeded task streams for the three benchmark workloads.

A workload is a fixed cycle of slots.  A slot fixes the subcommand and the
size class (degree, matrix order, lattice length, Trench path); the seed
draws everything else, above all a fresh polynomial for every task: no
polynomial occurs twice in one task list, so no two tasks share work.
Keeping the size classes in the cycle and the coefficients in the seed
keeps the mix of costs the same from seed to seed while the inputs differ.
The smallest classes, degree-1 critical-eps with sum |a_i| = 13 and
degree-2 with 7 and 8, hold 48, 136 and 152 polynomials: enough for the
cycles of a run of up to 35 seconds plus the first cycle, which only
supplies the warm-up.

A task is (slot name, argv); kronrec sees only the argv.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

WORKLOADS = ("gram", "witness", "decide")


def _coeff_text(cs) -> str:
    return ",".join(str(c) for c in cs)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def _has_rational_root(cs) -> bool:
    for p in _divisors(cs[0]):
        for q in _divisors(cs[-1]):
            for x in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * x**i for i, c in enumerate(cs)) == 0:
                    return True
    return False


def _random_poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Primitive, ascending, nonzero constant and leading coefficients."""
    while True:
        cs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
        if cs[0] and cs[-1] and math.gcd(*cs) == 1:
            return cs


def _split_poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    """Product of primitive integer linear factors a + b x, |a|, b <= bound:
    every root rational (exact Trench path)."""
    cs = [1]
    for _ in range(degree):
        a, b = 0, 0
        while a == 0 or math.gcd(a, b) != 1:
            a, b = rng.randint(-bound, bound), rng.randint(1, bound)
        nxt = [0] * (len(cs) + 1)
        for i, c in enumerate(cs):
            nxt[i] += a * c
            nxt[i + 1] += b * c
        cs = nxt
    return cs


def _irrational_poly(rng: random.Random, degree: int, bound: int) -> list[int]:
    """No rational root at all (numeric Trench path)."""
    while True:
        cs = _random_poly(rng, degree, bound)
        if not _has_rational_root(cs):
            return cs


# ----- gram: Toeplitz/Gram studies on B of degree 1..3 -----

# (subcommand, degree, size, path); path "rational" or "numeric".  Slots are
# in rising cost.  The median and the 90th percentile each fall inside one
# size class, never on a gap between two: the three middle slots are one
# class, and so are the two below the top slot, which stands apart.
GRAM_CYCLE = (
    ("trench", 2, 40, "rational"),
    ("trench", 3, 50, "rational"),
    ("trench", 1, 60, "rational"),
    ("trench", 2, 60, "numeric"),
    ("gram-growth", 2, 30, "numeric"),
    ("lyons", 1, 12, "rational"),
    ("trench", 3, 80, "numeric"),
    ("gram-growth", 2, 40, "rational"),
    ("gram-growth", 2, 40, "rational"),
    ("gram-growth", 2, 40, "rational"),
    ("gram-growth", 3, 40, "numeric"),
    ("lyons", 2, 14, "numeric"),
    ("lyons", 3, 14, "numeric"),
    ("gram-growth", 3, 45, "numeric"),
    ("gram-growth", 3, 45, "numeric"),
    ("gram-growth", 1, 60, "rational"),
)


# coefficient bounds per (degree, path): the smallest giving enough distinct B
_GRAM_BOUNDS = {
    (1, "rational"): 9,
    (2, "rational"): 3,
    (3, "rational"): 2,
    (2, "numeric"): 3,
    (3, "numeric"): 2,
}


def _gram_task(rng, slot):
    cmd, degree, size, path = slot
    make = _split_poly if path == "rational" else _irrational_poly
    poly = _coeff_text(make(rng, degree, _GRAM_BOUNDS[degree, path]))
    if cmd == "gram-growth":
        return ["gram-growth", "--ell-max", str(size), poly]
    if cmd == "lyons":
        return ["lyons", "--s", "1", "--ell-max", str(size), poly]
    return ["trench", "--autocorrelate", "--n", str(size), poly]


# ----- witness: density queries on primitive A of degree 2..10 -----

# (subcommand, degree, extra): extra is m - d for witness, the variant for
# mahler.  Rising cost; the two top slots are one size class, so the 90th
# percentile falls inside it rather than on a gap between two classes.
WITNESS_CYCLE = (
    ("mahler", 3, "plain"),
    ("witness", 2, 4),
    ("mahler", 4, "conjugate"),
    ("witness", 3, 6),
    ("bound", 2, None),
    ("mahler", 6, "half_scaled"),
    ("witness", 5, 8),
    ("mahler", 7, "plain"),
    ("bound", 4, None),
    ("witness", 6, 10),
    ("mahler", 9, "conjugate"),
    ("mahler", 10, "double_scaled"),
    ("bound", 5, None),
    ("witness", 8, 6),
    ("witness", 8, 6),
)


def _witness_task(rng, slot):
    cmd, degree, extra = slot
    poly = _coeff_text(_random_poly(rng, degree, 4))
    if cmd == "bound":
        return ["bound", poly]
    if cmd == "witness":
        m = degree + extra
        return ["witness", "--m", str(m), "--seed", str(rng.randrange(10**6)), poly]
    return ["mahler", "--variant", extra, poly]


# ----- decide: covering decisions and lattice structure -----

# (subcommand, degree, m, extra): extra is (grid_n, sum |a_i|) for
# critical-eps, whose covering cost grows with sum |a_i|, and p for basis.
# Rising cost.  index costs two to four times more when |a_0| > 1, so its
# slots straddle the middle; the three middle slots are one critical-eps
# class whose cost varies little, so the median falls inside it.  The three
# top slots are another such class, for the 90th percentile; degree 1 (the
# linear sweep) sits just below them.
DECIDE_CYCLE = (
    ("basis", 3, 12, 2),
    ("basis", 4, 16, 3),
    ("basis", 5, 14, 5),
    ("certify-nondense", 2, 16, None),
    ("basis", 4, 24, 2),
    ("index", 2, 60, None),
    ("index", 3, 50, None),
    ("critical-eps", 2, 3, (4, 8)),
    ("critical-eps", 2, 3, (4, 8)),
    ("critical-eps", 2, 3, (4, 8)),
    ("index", 4, 40, None),
    ("certify-nondense", 3, 12, None),
    ("critical-eps", 3, 4, (4, 7)),
    ("certify-nondense", 4, 10, None),
    ("critical-eps", 1, 4, (4, 13)),
    ("critical-eps", 2, 4, (4, 7)),
    ("critical-eps", 2, 4, (4, 7)),
    ("critical-eps", 2, 4, (4, 7)),
)


def _l1_poly(rng: random.Random, degree: int, norm: int) -> list[int]:
    """Primitive, nonzero constant and leading coefficients, sum |a_i| = norm."""
    while True:
        cs = _random_poly(rng, degree, norm - degree)
        if sum(abs(c) for c in cs) == norm:
            return cs


def _decide_task(rng, slot):
    cmd, degree, m, extra = slot
    if cmd == "critical-eps":
        grid_n, norm = extra
        poly = _coeff_text(_l1_poly(rng, degree, norm))
        return ["critical-eps", "--m", str(m), "--grid-n", str(grid_n), "--tol", "1/1000", poly]
    poly = _coeff_text(_random_poly(rng, degree, 3 if cmd != "basis" else 12))
    if cmd == "certify-nondense":
        eps = Fraction(rng.randint(1, 9), 10)
        return ["certify-nondense", "--m", str(m), "--eps", str(eps), poly]
    if cmd == "index":
        return ["index", "--m", str(m), poly]
    return ["basis", "--p", str(extra), "--m", str(m), poly]


_CYCLES = {
    "gram": (GRAM_CYCLE, _gram_task),
    "witness": (WITNESS_CYCLE, _witness_task),
    "decide": (DECIDE_CYCLE, _decide_task),
}


def cycle(workload: str):
    """The workload's slots, one cycle."""
    return _CYCLES[workload][0]


def tasks(workload: str, seed: int, cycles: int):
    """The task list: `cycles` passes over the workload's slots, inputs from `seed`."""
    slots, make = _CYCLES[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    out = []
    for _ in range(cycles):
        for slot in slots:
            for _ in range(1000):
                argv = make(rng, slot)
                if argv[-1] not in seen:
                    break
            else:
                raise ValueError(f"{workload}: slot {slot} ran out of fresh polynomials")
            seen.add(argv[-1])
            out.append((slot[0], argv))
    return out
