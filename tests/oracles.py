"""Slow independent routes kept as test oracles for the package's fast ones."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from kronrec.density import is_covered
from kronrec.exact_linalg import det_exact
from kronrec.poly_core import IntPolynomial, _decompose


def snf(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smith normal form: elementary divisors d_1 | d_2 | ..., zeros trailing.

    The independent route to the lattice index, which the package takes from
    determinants and the Hermite normal form.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), len(a[0])
    n = min(nr, nc)
    k = 0
    while k < n:
        piv = None
        for i in range(k, nr):
            for j in range(k, nc):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
        dirty = False
        for i in range(k + 1, nr):
            q = a[i][k] // a[k][k]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            if a[i][k] != 0:
                dirty = True
        for j in range(k + 1, nc):
            q = a[k][j] // a[k][k]
            if q:
                for row in a:
                    row[j] -= q * row[k]
            if a[k][j] != 0:
                dirty = True
        if dirty:
            continue
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, nc):
                if a[i][j] % a[k][k] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
            continue
        k += 1
    diag = [abs(a[i][i]) for i in range(k)] + [0] * (n - k)
    return tuple(diag)


def bisect_grid_threshold(poly, m: int, grid_n: int, tol: Fraction) -> tuple[Fraction, Fraction]:
    """Bracket (lo, hi] of the smallest eps covering every class of a residue grid.

    The search route to density.critical_epsilon's exact threshold: covering
    is monotone in eps and eps = 1 covers every class (the cube alone reaches
    an integer point), so bisection on the public is_covered probe keeps some
    class uncovered at lo and all of them covered at hi, until hi - lo <= tol.
    """
    targets = [
        tuple(Fraction(j, grid_n) for j in js)
        for js in itertools.product(range(grid_n), repeat=m - poly.degree)
    ]

    def all_covered(e: Fraction) -> bool:
        return all(is_covered(poly, m, e, t) for t in targets)

    lo, hi = Fraction(0), Fraction(1)
    if not all_covered(hi):
        raise AssertionError("eps = 1 must cover every residue class")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if all_covered(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def trench_vandermonde(symbol, n: int) -> tuple[Fraction, tuple[tuple[Fraction, int], ...]]:
    """D_{n-1} from Trench's closed form at the symbol's roots, which must be rational.

    The root route to toeplitz.trench_data: D_{n-1} = (-1)^(n s) c_s^n G_n / G_0,
    where G_k is the confluent Vandermonde determinant of the roots of
    x^r C(x) at the exponents 0..r-1 and k+r..k+r+s-1, a root of multiplicity
    mu contributing its value row and mu - 1 derivative rows.  Returns the
    determinant and the roots with their multiplicities.
    """
    r, s = symbol.r, symbol.s
    den = math.lcm(*(c.denominator for c in symbol.coeffs))
    _, rational, leftover = _decompose(IntPolynomial(tuple(int(c * den) for c in symbol.coeffs)))
    if leftover:
        raise ValueError("the confluent Vandermonde route needs every root rational")

    def confluent(k: int) -> Fraction:
        exponents = list(range(r)) + list(range(k + r, k + r + s))
        return det_exact([
            [math.perm(e, j) * xi ** (e - j) if e >= j else 0 for e in exponents]
            for xi, mult in rational
            for j in range(mult)
        ])

    g0 = confluent(0)
    if g0 == 0:
        raise AssertionError("confluent Vandermonde of distinct roots vanished")
    c_s = symbol.coefficient(s)
    return (-1) ** (n * s) * c_s**n * confluent(n) / g0, tuple(rational)
