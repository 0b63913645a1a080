"""Slow independent routes kept as test oracles for the package's fast ones,
and exact checkers of the paper's minor and biorthonormal identities."""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import mpmath as mp

from kronrec import density
from kronrec.density import (
    COVERING_OFFSET_GUARD,
    GRID_DIMENSION_GUARD,
    CriticalEpsilonEstimate,
    _covered_linear,
    _zonotope_facets,
    epsilon_bound,
    is_covered,
)
from kronrec.errors import CertificateError, DomainError, RootCertificationError, SingularMatrixError
from kronrec.exact_linalg import (
    PADIC_INFINITY,
    _clear_row_denominators,
    _hnf,
    _int_valuation,
    clear_denominators,
    coerce_rational,
    det_exact,
    identity_matrix,
    integer_kernel,
    is_prime,
    solve_exact,
)
from kronrec.cli import _float, _rat
from kronrec.lattice_structure import (
    NewtonPolygon,
    SegmentCertificate,
    check_basis_certificate,
    newton_polygon,
    scaled_basis_N,
)
from kronrec.intervals import Interval, interval_min
from kronrec.poly_core import (
    IntPolynomial,
    MahlerMeasure,
    _aberth,
    _dyadic,
    _exact_values,
    _modulus_interval,
    _radii,
    _sqrt_up,
    roots,
)
from kronrec.recurrence_matrices import _check_coeffs, band_rows, extend_rows, recurrence_extend


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    if len(a[0]) != len(b):
        raise DomainError("dimension mismatch in mat_mul")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def solve_fractions(a_rows: Sequence[Sequence], b_rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """The solution X of A X = B as Fractions: solve_exact's (D X, D) divided out."""
    dx, det = solve_exact(a_rows, b_rows)
    return [[Fraction(v, det) for v in row] for row in dx]


def clear_rows(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """(rows, dens): each exact row of the matrix cleared to (ints, den) by clear_denominators."""
    cleared = [clear_denominators(row) for row in matrix]
    return [ints for ints, _ in cleared], [den for _, den in cleared]


def check_fraction_rows(poly: IntPolynomial, polygon, s: int, m: int, matrix: Sequence[Sequence]):
    """check_basis_certificate on a matrix of exact rows, cleared by clear_rows first."""
    return check_basis_certificate(poly, polygon, s, m, *clear_rows(matrix))


def p_adic_valuation(x, p: int):
    """v_p of an int or Fraction; v_p(0) is PADIC_INFINITY.

    It checks p for primality on every call, so the program's Newton polygon
    and basis certificate check p once and take _int_valuation per entry.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"p must be a prime integer, got {p!r}")
    if isinstance(x, int):
        return _int_valuation(abs(x), p) if x else PADIC_INFINITY
    if not isinstance(x, Fraction):
        raise DomainError(f"valuation needs int or Fraction, got {type(x).__name__}")
    if x == 0:
        return PADIC_INFINITY
    return _int_valuation(abs(x.numerator), p) - _int_valuation(x.denominator, p)


def _fstrip(cs: list[Fraction]) -> list[Fraction]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _fderiv(cs: Sequence[Fraction]) -> list[Fraction]:
    return _fstrip([i * c for i, c in enumerate(cs)][1:] or [Fraction(0)])


def _fdivmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    """(quotient, remainder) of stripped polynomials over the rationals."""
    rem = list(num)
    q = [Fraction(0)] * max(1, len(rem) - len(den) + 1)
    while len(rem) >= len(den) and rem != [0]:
        shift = len(rem) - len(den)
        coef = rem[-1] / den[-1]
        q[shift] += coef
        for i, dc in enumerate(den):
            rem[shift + i] -= coef * dc
        rem = _fstrip(rem)
    return _fstrip(q), rem


def _fgcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm."""
    a = _fstrip(list(a))
    b = _fstrip(list(b))
    while b != [Fraction(0)]:
        _, r = _fdivmod(a, b)
        a, b = b, r
    return a if a == [0] else [c / a[-1] for c in a]


def _primitive_int(cs: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators and content; normalize the leading coefficient positive."""
    ints, _ = clear_denominators(cs)
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(v // g for v in ints)


def fraction_squarefree(poly: IntPolynomial) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Yun's square-free decomposition over the rationals, with monic Euclidean gcds.

    The Fraction route to poly_core.squarefree_factors, which runs Yun's
    algorithm on integer coefficient lists; both return primitive factors
    with a positive leading coefficient in the same order.
    """
    if poly.degree == 0:
        return ()
    f = _fstrip([Fraction(c) for c in poly.coeffs])
    fp = _fderiv(f)
    g = _fgcd(f, fp)
    if len(g) == 1:
        return ((_primitive_int(f), 1),)
    b, _ = _fdivmod(f, g)
    c, _ = _fdivmod(fp, g)
    d = _fstrip([ci - bi for ci, bi in zip_longest(c, _fderiv(b), fillvalue=Fraction(0))])
    out = []
    i = 1
    while len(b) > 1:
        a = _fgcd(b, d)
        if len(a) > 1:
            out.append((_primitive_int(a), i))
        b, _ = _fdivmod(b, a)
        cnext, _ = _fdivmod(d, a)
        d = _fstrip([ci - bi for ci, bi in zip_longest(cnext, _fderiv(b), fillvalue=Fraction(0))])
        i += 1
    return tuple(out)


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, in no particular order."""
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in small]


def rational_decompose(poly: IntPolynomial):
    """Exact root structure of a nonzero integer polynomial of degree >= 1.

    The rational root test that poly_core.roots dropped when every factor
    went to the certified Aberth route.  Returns (zero_multiplicity,
    rationals, leftovers): the nonzero rational roots as [(root,
    multiplicity)], exact, and the square-free primitive factors without a
    rational root that carry the others as [(coeffs, multiplicity)].  The
    divisor search costs about sqrt(|a_0|) + sqrt(|a_d|) per factor.
    """
    zero_mult = next(i for i, c in enumerate(poly.coeffs) if c != 0)
    rationals: list[tuple[Fraction, int]] = []
    leftovers: list[tuple[tuple[int, ...], int]] = []
    for fac, mult in fraction_squarefree(IntPolynomial(poly.coeffs[zero_mult:])):
        work = [Fraction(c) for c in fac]
        num_divs = _divisors(fac[0])
        den_divs = _divisors(fac[-1])
        candidates = sorted({Fraction(s * p, q) for p in num_divs for q in den_divs for s in (1, -1)})
        for cand in candidates:
            if len(work) < 2:
                break
            if sum(c * cand**i for i, c in enumerate(work)) == 0:
                work, _ = _fdivmod(work, [-cand, Fraction(1)])
                rationals.append((cand, mult))
        if len(work) > 1:
            leftovers.append((_primitive_int(work), mult))
    return zero_mult, rationals, leftovers


def dense_bareiss(a: list[list[int]], steps: int) -> int | None:
    """exact_linalg._bareiss before it skipped zeros: every row below the pivot, every step.

    Fraction-free elimination of the first `steps` columns of `a`, in place,
    updating each row below the pivot across its whole tail at every step:
    O(n^3) work on every matrix, banded or not.  Returns the number of row
    swaps, or None when a column has no pivot.
    """
    n = len(a)
    swaps = 0
    prev = 1
    for k in range(steps):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return None
            a[k], a[swap] = a[swap], a[k]
            swaps += 1
        pivot = a[k][k]
        pivot_tail = a[k][k + 1 :]
        for i in range(k + 1, n):
            row = a[i]
            f = row[k]
            row[k + 1 :] = [(x * pivot - f * y) // prev for x, y in zip(row[k + 1 :], pivot_tail)]
        prev = pivot
    return swaps


def leading_minors(rows: Sequence[Sequence]) -> list[int] | list[Fraction]:
    """Leading principal minors D_1..D_n from the pivots of one dense Bareiss pass.

    The reference route to exact_linalg._symmetric_band_minors: the dense
    rows go through zero_skipping_bareiss, both triangles of any square
    matrix, with no symmetry assumed.  Each D_k is an int when every row is
    integral (each minor of an integer matrix is an integer, read straight
    off its pivot), and a Fraction otherwise.  Rows are never swapped, so
    the pass stops with SingularMatrixError when some D_k with k < n
    vanishes; D_n itself may be zero.
    """
    n = len(rows)
    if {*map(len, rows)} - {n}:
        raise DomainError("leading minors need a square matrix")
    ints, scales = _clear_row_denominators(rows)
    a = [list(r) for r in ints]
    if a and zero_skipping_bareiss(a, n - 1) != 0:
        raise SingularMatrixError("a leading principal minor vanished")
    pivots = [row[k] for k, row in enumerate(a)]
    if {*scales} <= {1}:
        return pivots
    # D_k is the k-th pivot over the product of the first k row scales
    prefix = itertools.accumulate(scales, operator.mul)
    return [Fraction(p) if scale == 1 else Fraction(p, scale) for p, scale in zip(pivots, prefix)]


def _row_end(row: list[int]) -> int:
    """One past the last nonzero entry of row; 0 for a zero row."""
    return next(itertools.compress(range(len(row), 0, -1), reversed(row)), 0)


def zero_skipping_bareiss(a: list[list[int]], steps: int) -> int | None:
    """exact_linalg._bareiss before it stored row spans: dense rows, zeros skipped.

    Fraction-free elimination of the first `steps` columns of `a`, in place.

    Step k replaces each row below the pivot p_k = a[k][k] by
    (row * p_k - row[k] * pivot row) / p_{k-1}, with p_{-1} = 1; the
    division is exact, since every intermediate entry is a minor of the
    input.  While no rows are swapped, p_k is the (k+1)-th leading principal
    minor (Bareiss, Math. Comp. 22, 1968).  A zero pivot is swapped for the
    first nonzero entry below it.  Entries left of the diagonal are not
    cleared: callers read only the upper triangle.  Returns the number of
    row swaps, or None when a column has no pivot.

    The pass skips zeros, so a banded matrix of order L and half-bandwidth
    d costs O(L d^2) arithmetic operations, not O(L^3); but every step still
    visits every row below the pivot, and every row's end is found by a scan
    of the dense row, so the bookkeeping stays O(L^2).  A row whose entry in the pivot
    column is 0 is left as it is: the update would only scale it by
    p_k / p_{k-1}, so a row last updated at step t holds the dense pass's
    values divided by p_{k-1} / p_t.  Both are minors, so the owed factor is
    paid exactly when it falls due: folded into the row's next update, which
    divides by p_t in place of p_{k-1}; in one pass when the row becomes the
    pivot row; and at the end for the rows past `steps`, since pivot rows
    are final.  Each row also keeps the end of its nonzero entries, and an
    update stops at the further of its own end and the pivot row's: zeros
    past both stay zero.
    """
    n = len(a)
    ends = [len(r) if r[-1] else _row_end(r) for r in a]  # row i is 0 from column ends[i] on
    lags = [1] * n  # lags[i] = p_t, t the last step that updated row i (p_{-1} = 1)
    swaps = 0
    prev = 1
    for k in range(steps):
        row = a[k]
        if row[k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return None
            a[k], a[swap] = a[swap], row
            ends[k], ends[swap] = ends[swap], ends[k]
            lags[k], lags[swap] = lags[swap], lags[k]
            swaps += 1
            row = a[k]
        end = ends[k]
        lag = lags[k]
        if lag != prev:
            row[k:end] = [x * prev // lag for x in row[k:end]]
        pivot = row[k]
        pivot_tail = row[k + 1 :]
        for i in range(k + 1, n):
            r = a[i]
            f = r[k]
            if f:
                hi = ends[i]
                if hi < end:
                    hi = ends[i] = end
                lag = lags[i]
                r[k + 1 : hi] = [(x * pivot - f * y) // lag for x, y in zip(r[k + 1 : hi], pivot_tail)]
                lags[i] = pivot
        prev = pivot
    for i in range(steps, n):
        lag = lags[i]
        if lag != prev:
            r, end = a[i], ends[i]
            r[steps:end] = [x * prev // lag for x in r[steps:end]]
    return swaps


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


def hnf_two_matrices(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF (H, U) with U*A = H, tracking U as a second matrix.

    The bookkeeping route to exact_linalg.hnf, which carries U as identity
    columns appended to A: every row operation here is applied to both
    matrices, so the two routes must agree entry for entry.
    """
    h = [list(r) for r in rows]
    nr, nc = len(h), len(h[0])
    u = identity_matrix(nr)

    def row_sub(dst: int, src: int, q: int) -> None:
        if q == 0:
            return
        h[dst] = [a - q * b for a, b in zip(h[dst], h[src])]
        u[dst] = [a - q * b for a, b in zip(u[dst], u[src])]

    pr = 0
    for col in range(nc):
        if pr >= nr:
            break
        while True:
            nz = [r for r in range(pr, nr) if h[r][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(h[r][col]))
            base = nz[0]
            for r in nz[1:]:
                row_sub(r, base, h[r][col] // h[base][col])
        nz = [r for r in range(pr, nr) if h[r][col] != 0]
        if not nz:
            continue
        r0 = nz[0]
        if r0 != pr:
            h[pr], h[r0] = h[r0], h[pr]
            u[pr], u[r0] = u[r0], u[pr]
        if h[pr][col] < 0:
            h[pr] = [-x for x in h[pr]]
            u[pr] = [-x for x in u[pr]]
        for r in range(pr):
            row_sub(r, pr, h[r][col] // h[pr][col])
        pr += 1
    return h, u


def kernel_two_matrices(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """exact_linalg.integer_kernel's construction on hnf_two_matrices."""
    h, u = hnf_two_matrices(list(zip(*rows)))
    kernel_rows = [u[r] for r in range(len(h)) if not any(h[r])]
    if not kernel_rows:
        return []
    return [row for row in hnf_two_matrices(kernel_rows)[0] if any(row)]


def band_kernel_basis(poly: IntPolynomial, m: int) -> list[list[int]]:
    """HNF Z-basis of the length-m integral recurrences as the band rows' saturated kernel.

    The m-dimensional route to lattice_structure.integral_basis, which works
    in dimension d on the congruences of a_d^(m-d) N: an HNF of the
    m x (m - d) transpose of [A]_(m-d) with its m x m transform, then a
    second HNF of the kernel rows.  At m = d the lattice is all of Z^d.
    """
    d = poly.degree
    if m == d:
        return identity_matrix(d)
    return integer_kernel(band_rows(list(poly.coeffs), m - d))


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


def _fraction_offset_box(vv: Sequence[Fraction], reach: Fraction) -> list[range]:
    """Integer offsets k with every |vv_i + k_i| <= reach, one range per level, in Fractions.

    The box density._gauge_search builds in integers.  It is guarded through
    the module attribute density._guard_offsets, so a test that patches the
    guard records these boxes too.
    """
    return density._guard_offsets(
        [range(math.ceil(-reach - vi), math.floor(reach - vi) + 1) for vi in vv]
    )


def _fraction_gauge(facets, v: Sequence[Fraction], k: Sequence[int]) -> Fraction:
    """max_c |c . (v + k)| / s_c over the facets (c, s_c), as a Fraction."""
    return max(abs(sum(ci * (vi + ki) for ci, vi, ki in zip(c, v, k))) / s for c, s in facets)


def _fraction_gauge_below(facets, v: Sequence[Fraction], k: Sequence[int], g) -> Fraction:
    """min(g, _fraction_gauge(facets, v, k)), scoring the facets in order until one reaches g."""
    worst = Fraction(0)
    for c, s in facets:
        worst = max(worst, abs(sum(ci * (vi + ki) for ci, vi, ki in zip(c, v, k))) / s)
        if worst >= g:
            return g
    return worst


def covered_by_fraction_gauge(poly: IntPolynomial, m: int, eps, v) -> bool:
    """density.is_covered by its Fraction route: every offset scored in Fractions.

    The input checks and the degree-1 sweep are is_covered's.  Otherwise the
    nearest offset -round(v) is scored first; unless its gauge is at most
    eps/2, every offset of the box |v + k|_inf <= (eps/2) sum|a_i| is scored
    in turn, until one is covered.
    """
    d = poly.degree
    if m <= d:
        raise DomainError("covering needs m > deg A")
    if poly.constant_coefficient == 0:
        raise DomainError("covering needs a nonzero constant coefficient")
    ell = m - d
    half = coerce_rational(eps) / 2
    if half < 0:
        raise DomainError("eps must be nonnegative")
    raw = list(v) if isinstance(v, (list, tuple)) else [v]
    if len(raw) != ell:
        raise DomainError(f"v must have length m - deg A = {ell}")
    vv = [coerce_rational(x) % 1 for x in raw]
    if d == 1:
        return _covered_linear(poly.coeffs[0], poly.coeffs[1], ell, half, vv)
    facets = _zonotope_facets(poly, m)
    if _fraction_gauge(facets, vv, [-round(vi) for vi in vv]) <= half:
        return True
    box = _fraction_offset_box(vv, half * poly.coefficient_sum_abs())
    return any(_fraction_gauge(facets, vv, k) <= half for k in itertools.product(*box))


def critical_epsilon_per_target(
    poly: IntPolynomial,
    m: int,
    grid_n: int = 8,
    bisection_tol=Fraction(1, 1000),
    allow_large_grid: bool = False,
) -> CriticalEpsilonEstimate:
    """density.critical_epsilon by its Fraction route, one gauge search per target.

    Each grid target is a vector v of Fractions.  Its nearest offset -round(v)
    is scored first; unless that gauge g is covered at the running threshold,
    every offset of the box |v + k|_inf <= min(g, ceiling) sum|a_i| is scored
    in turn, until one is covered; an offset's facets are scored in their
    given order only until one reaches the least gauge g found so far.  Every
    gauge max_c |c . (v + k)| / s_c is a Fraction, and the cap is the public
    epsilon_bound's eps_refined.hi; a gauge above cap/2 raises, so ceiling is
    cap/2 rounded down to the gauges' denominator grid_n lcm(s_c).  The
    guards, the error messages and the report fields are
    density.critical_epsilon's.
    """
    d = poly.degree
    ell = m - d
    if ell < 1:
        raise DomainError("critical epsilon needs m > deg A")
    if grid_n < 1:
        raise DomainError("grid_n must be positive")
    if ell > GRID_DIMENSION_GUARD and not allow_large_grid:
        raise DomainError(
            f"grid dimension {ell} exceeds the guard {GRID_DIMENSION_GUARD}; "
            "pass allow_large_grid=True to override"
        )
    targets = grid_n**ell
    if targets > COVERING_OFFSET_GUARD:
        raise DomainError(
            f"the grid has {targets} targets, grid_n^{ell}, above the guard {COVERING_OFFSET_GUARD}"
        )
    if coerce_rational(bisection_tol) <= 0:
        raise DomainError("bisection_tol must be positive")
    cap = Fraction(epsilon_bound(poly).eps_refined.hi)
    facets = _zonotope_facets(poly, m)
    width = poly.coefficient_sum_abs()
    den = grid_n * math.lcm(*(s for _, s in facets))
    ceiling = Fraction(math.floor(cap * den / 2), den)

    order = sorted(
        itertools.product(range(grid_n), repeat=ell),
        key=lambda js: -sum(min(j, grid_n - j) for j in js),
    )
    tau = Fraction(0)
    for js in order:
        v = [Fraction(j, grid_n) for j in js]
        g = _fraction_gauge(facets, v, [-round(vi) for vi in v])
        if g > tau / 2:
            for k in itertools.product(*_fraction_offset_box(v, min(g, ceiling) * width)):
                g = _fraction_gauge_below(facets, v, k, g)
                if g <= tau / 2:
                    break
        tau = max(tau, 2 * g)
        if tau > cap:
            raise CertificateError(
                f"grid threshold exceeds the certified threshold {float(cap):.6g}"
            )
    margin = Fraction(ell, grid_n)
    notes = (
        f"exact threshold over a {grid_n}^{ell} residue grid from the zonotope "
        f"facets; upper adds the grid margin {margin} and is capped at the "
        f"certified torus-wide threshold {float(cap):.6g}"
    )
    return CriticalEpsilonEstimate(
        upper=min(tau + margin, cap),
        estimate=tau,
        method_notes=notes,
    )


def degree_one_threshold(poly: IntPolynomial, m: int) -> Fraction:
    """The conjectured exact threshold eps*(A, m) of a primitive A = a_1 x + a_0, a_0 != 0.

    With P = max(|a_0|, |a_1|) and Q = min(|a_0|, |a_1|) it is
    (P^(m-1) - Q^(m-1)) / (P^m - Q^m), and (m - 1)/m when P = Q = 1; it
    rises with m to 1/P = 1/M(A).  Not a proven result: the formula fits
    every degree-1 grid threshold observed, and the tests pin that agreement.
    """
    a0, a1 = poly.coeffs
    p, q = max(abs(a0), abs(a1)), min(abs(a0), abs(a1))
    if p == 1:
        return Fraction(m - 1, m)
    return Fraction(p ** (m - 1) - q ** (m - 1), p**m - q**m)


def in_powers(poly: IntPolynomial, k: int) -> IntPolynomial:
    """B(x^k): the coefficients of B spread k apart.

    Its recurrence runs separately on each residue class mod k, so the grid
    threshold decouples: tau_n(B(x^k), m) = tau_n(B, ceil(m / k)), observed
    numerically, not proven here.
    """
    coeffs = [0] * (poly.degree * k + 1)
    coeffs[::k] = poly.coeffs
    return IntPolynomial(tuple(coeffs))


def product_by_interval_mul(root_set, factor) -> Interval:
    """ComplexRootSet._product by Interval.mul, one Interval per step.

    The Interval route to the fold, which carries the two ends as floats
    through the same operations and builds one Interval at the end.
    """
    acc = Interval.from_int(abs(root_set.poly.leading_coefficient))
    for enc in root_set.roots:
        f = factor(_modulus_interval(enc))
        for _ in range(enc.multiplicity):
            acc = acc.mul(f)
    if not math.isfinite(acc.hi):
        raise DomainError("the root product overflows a float")
    return acc


def refined_threshold_two_root_sets(poly: IntPolynomial) -> Interval:
    """eps_refined by the route `density._refined_threshold` replaced.

    The reversal x^d A(1/x) gets a certified root set of its own, and its
    refined product max(|beta|, 1 - |beta|) is folded over those roots beta
    instead of being read as |a_d| prod max(1, |alpha| - 1) from A's.
    """
    own = roots(poly).refined_product().recip()
    return interval_min(own, roots(IntPolynomial(poly.coeffs[::-1])).refined_product().recip())


def mahler_conjugate_two_root_sets(poly: IntPolynomial) -> MahlerMeasure:
    """The "conjugate" Mahler variant as the plain measure folded over the reversal's own roots."""
    return roots(IntPolynomial(poly.coeffs[::-1])).mahler("conjugate")


def _congruence_coordinates(columns, lead: int, d: int) -> list[list[int]]:
    """HNF rows of {y in Z^d : y t = 0 mod lead for each column t}, one step per column."""
    fence = [abs(lead)] + [0] * d
    coords = identity_matrix(d)
    for col in columns:
        rows = [[sum(a * b for a, b in zip(y, col)) % abs(lead)] + y for y in coords]
        coords = [row[1:] for row in _hnf(rows + [fence], d + 1)[1 : d + 1]]
    return coords


def _z_basis_by_product(coords, table, lead: int) -> tuple[tuple, int]:
    """(z_basis, index) with the rows y T / lead: one product, each entry divided exactly."""
    scaled = mat_mul(coords, table)
    if any(x % lead for row in scaled for x in row):
        raise CertificateError("Z-basis rows are not integer combinations of N")
    z_basis = tuple(tuple(x // lead for x in row) for row in scaled)
    return z_basis, math.prod(row[i] for i, row in enumerate(coords))


def integral_basis_by_columns(poly: IntPolynomial, m: int) -> tuple[tuple, int]:
    """(z_basis, index) of the length-m integral recurrences, one congruence per column.

    The column-by-column route to lattice_structure.integral_basis, which
    imposes only the last window's congruences: here every column t >= d of
    T = a_d^(m-d) N adds the HNF step {y : y t = 0 mod a_d^(m-d)}, m - d steps.
    """
    d = poly.degree
    table, lead = scaled_basis_N(poly, m)
    return _z_basis_by_product(
        _congruence_coordinates(list(zip(*table))[d:], lead, d), table, lead
    )


def integral_basis_by_product(poly: IntPolynomial, m: int) -> tuple[tuple, int]:
    """(z_basis, index) of the length-m integral recurrences, the rows read off y T.

    The product route to lattice_structure.integral_basis, which extends each
    HNF coordinate row y along the recurrence, dividing by a_d once per step.
    Here the same last-window congruences give the y, and the rows are
    y T / a_d^(m-d): one d x m product with T = a_d^(m-d) N, each entry
    divided exactly.
    """
    d = poly.degree
    table, lead = scaled_basis_N(poly, m)
    window = zip(*(row[max(d, m - d) :] for row in table))
    return _z_basis_by_product(_congruence_coordinates(window, lead, d), table, lead)


def recurrence_extend_fractions(poly: IntPolynomial, init: Sequence, m: int) -> tuple[Fraction, ...]:
    """The d seed values extended to m entries along sum_j a_j v_{i+j} = 0, one Fraction per step.

    The Fraction route to recurrence_matrices.recurrence_extend, which clears
    the seeds' denominators once and extends in integers: here each entry is
    -(a_0 v_i + ... + a_(d-1) v_(i+d-1)) / a_d in Fractions.
    """
    d = poly.degree
    if d < 1 or len(init) != d or m < d:
        raise DomainError("recurrence extension needs 1 <= deg A = len(init) <= m")
    entries = [coerce_rational(x) for x in init]
    a = poly.coeffs
    for i in range(m - d):
        acc = Fraction(0)
        for j in range(d):
            acc += a[j] * entries[i + j]
        entries.append(-acc / a[d])
    return tuple(entries)


def canonical_rows_by_solve(poly: IntPolynomial, p: int, m: int, pivot_rule: str = "nonnegative"):
    """The rows of lattice_structure.canonical_basis_M, each selector solved against all of N.

    The full-solve route to canonical_basis_M, which solves each selector
    T_xi against T's first d columns only and extends the rows along the
    recurrence: here N_xi^-1 N is solved with all m columns of N on the right,
    and N's rows come from recurrence_extend_fractions.
    """
    d = poly.degree
    polygon = newton_polygon(poly, p)
    s = polygon.pivot_index(pivot_rule)
    walls = [v[0] for v in polygon.vertices]
    basis = [recurrence_extend_fractions(poly, [int(i == j) for j in range(d)], m) for i in range(d)]
    rows = []
    for k in range(1, polygon.segment_count + 1):
        w = walls[k] if k < s else walls[k - 1]
        cols = list(range(w)) + list(range(m - d + w, m))
        q = solve_fractions([[row[c] for c in cols] for row in basis], basis)
        rows.extend(tuple(row) for row in q[walls[k - 1] : walls[k]])
    return tuple(rows)


def canonical_basis_by_fraction_rows(poly: IntPolynomial, p: int, m: int, pivot_rule: str = "nonnegative"):
    """(matrix, valuations, segments) of canonical_basis_M through Fraction rows.

    The Fraction route to canonical_basis_M, which builds each row once as
    ints over one positive denominator and certifies those: here each
    selector's d seed rows from solve_exact, divided out into Fractions, are
    extended by recurrence_extend into Fraction rows, and check_fraction_rows
    clears them again for check_basis_certificate.
    """
    d = poly.degree
    polygon = newton_polygon(poly, p)
    s = polygon.pivot_index(pivot_rule)
    walls = [v[0] for v in polygon.vertices]
    table, _ = scaled_basis_N(poly, m)
    matrix = []
    for k in range(1, polygon.segment_count + 1):
        w = walls[k] if k < s else walls[k - 1]
        cols = list(range(w)) + list(range(m - d + w, m))
        seeds = solve_fractions([[row[c] for c in cols] for row in table], [row[:d] for row in table])
        matrix.extend(recurrence_extend(poly, row, m) for row in seeds[walls[k - 1] : walls[k]])
    return (tuple(matrix), *check_fraction_rows(poly, polygon, s, m, matrix))


def zonotope_facets_by_band_minors(poly, m: int) -> list[tuple[tuple[int, ...], int]]:
    """Facet normals c and supports s_c of the zonotope band(A) [-1, 1]^m.

    The column route to density._zonotope_facets, which reads the same facets
    from the recurrence lattice's d x d minors.  Each normal is the signed
    (l-1)-minor vector of l-1 columns g_j of the band matrix (l = m - deg A),
    made primitive with a positive leading entry; s_c = sum_j |c . g_j|, the
    coefficient 1-norm of C * A for C = sum c_i x^i.  It takes C(m, l-1) l
    minors of order l - 1.
    """
    a = poly.coeffs
    ell = m - poly.degree
    cols = [[a[j - i] if 0 <= j - i < len(a) else 0 for i in range(ell)] for j in range(m)]
    facets: dict[tuple[int, ...], int] = {}
    for chosen in itertools.combinations(cols, ell - 1):
        c = [
            (-1) ** i * int(det_exact([[col[r] for col in chosen] for r in range(ell) if r != i]))
            for i in range(ell)
        ]
        g = math.gcd(*c)
        if g == 0:
            continue
        if next(x for x in c if x != 0) < 0:
            g = -g
        c = tuple(x // g for x in c)
        if c not in facets:
            facets[c] = sum(abs(sum(x * y for x, y in zip(c, col))) for col in cols)
    return list(facets.items())


def minors_by_elimination(rows: Sequence[Sequence[int]], top: int) -> list[dict]:
    """Every p x p minor of an integer matrix for p = 0..top, one det_exact call each.

    The elimination route to density._minor_levels, which extends each column
    tuple by one column and expands along it from the level below.  Here
    each level is {(row tuple, column tuple): minor}, level 0 being {((), ()): 1}.
    """
    width = len(rows[0]) if rows else 0
    return [
        {
            (rs, cs): int(det_exact([[rows[r][c] for c in cs] for r in rs]))
            for rs in itertools.combinations(range(len(rows)), p)
            for cs in itertools.combinations(range(width), p)
        }
        for p in range(top + 1)
    ]


def minor_levels_by_rows(rows: Sequence[Sequence[int]], top: int):
    """density._minor_levels' levels, each minor expanded along its last row.

    The row route to density._minor_levels, which expands along the last
    column instead, a row set's list at a time.  Here each column tuple finds
    its p smaller minors' positions in level p - 1 once, and every row set
    sums its p signed products for that tuple in a Python generator.
    """
    cols, level = [()], {(): [1]}
    yield cols, level
    for p in range(1, top + 1):
        where = {cs: k for k, cs in enumerate(cols)}
        cols = list(itertools.combinations(range(len(rows[0]) if rows else 0), p))
        prev = level
        level = {rs: [0] * len(cols) for rs in itertools.combinations(range(len(rows)), p)}
        row_sets = [(out, prev[rs[:-1]], rows[rs[-1]]) for rs, out in level.items()]
        for k, cs in enumerate(cols):
            # the expansion's terms: column, sign, position of the other columns
            terms = [
                (c, (-1) ** (p - 1 + i), where[cs[:i] + cs[i + 1 :]]) for i, c in enumerate(cs)
            ]
            for out, head, last in row_sets:
                out[k] = sum(sign * last[c] * head[j] for c, sign, j in terms)
        yield cols, level


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
    _, rational, leftover = rational_decompose(IntPolynomial(tuple(int(c * den) for c in symbol.coeffs)))
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
    c_s = symbol.coeffs[-1]
    return (-1) ** (n * s) * c_s**n * confluent(n) / g0, tuple(rational)


def trench_det_fractions(symbol, n: int) -> Fraction:
    """Trench's closed form with its last step in Fractions.

    The Fraction route to toeplitz._trench_pair, which returns the closed
    form as an unreduced integer pair whose denominator carries the sign
    of c_s^(n (s - 1)): here (-1)^(n s) c_s^(n (1 - s)) det[H_{n-i+j}] / den^n
    is one Fraction expression, c_s raised to a negative power for s >= 2.
    """
    if n < 1:
        raise DomainError("the closed form needs n >= 1")
    r, s = symbol.r, symbol.s
    c, den = clear_denominators(symbol.coeffs)
    c_s, minor = c[-1], 1
    if s:
        weights = [x * c_s ** (r + s - 1 - j) for j, x in enumerate(c[:-1])] + [1]
        h = [0] * (r + s - 1) + [1]
        extend_rows(weights, [h], n + r + 2 * s - 1)
        minor = det_exact([[h[n - i + j + r + s - 1] for j in range(s)] for i in range(s)])
    return (-1) ** (n * s) * Fraction(c_s) ** (n * (1 - s)) * minor / den**n


def quotients_by_fractions(nums: Sequence[int], dens: Sequence[int]) -> tuple[list, list, float]:
    """The report values of the int pairs (nums[i], dens[i]) through one Fraction each.

    The Fraction route to cli._quotient, which renders each pair from one gcd
    and one int true division: here each pair becomes Fraction(n, d), rendered
    by cli._rat and cli._float, and the largest step between the last 11
    values, lyons's max_tail_fluctuation, is a Fraction subtraction.
    """
    values = list(map(Fraction, nums, dens))
    tail = values[-11:]
    steps = [abs(_float(b - a)) for a, b in zip(tail, tail[1:])]
    return [_rat(v) for v in values], [_float(v) for v in values], max(steps, default=0.0)


def lyons_ratios_bordered(poly: IntPolynomial, indices, ell_max: int) -> list[Fraction]:
    """The bordered route to toeplitz.lyons_ratios: Gram matrices of order k + L.

    The Gram matrix of e_S above the band rows [A]_L, from its dot products:
    its leading minors past the first k are the numerators, and its trailing
    L x L block, G(A_0..A_{L-1}), gives the denominators.
    """
    chosen = sorted(set(indices))
    rows = band_rows(list(poly.coeffs), ell_max)
    e_rows = [[int(c == i - 1) for c in range(len(rows[0]))] for i in chosen]
    vectors = e_rows + rows
    gram = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    k = len(chosen)
    numerators = leading_minors(gram)[k:]
    denominators = leading_minors([row[k:] for row in gram[k:]])
    return list(map(Fraction, numerators, denominators))


def aberth_mp(cs: tuple[int, ...], dps: int):
    """Aberth-Ehrlich iteration on a square-free integer polynomial at dps digits.

    The mpmath route that poly_core's double-precision engine replaced.
    Starts from the same circle and returns (centres, radii) as mpmath
    numbers, with Weierstrass radii in rounded mp arithmetic, points whose
    disk touches the real axis snapped onto it, and complex centres paired
    into exact conjugates; None when the radii cannot be formed or the
    pairing fails.
    """
    n = len(cs) - 1
    with mp.workdps(dps):
        coeffs = [mp.mpf(c) for c in reversed(cs)]
        dcoeffs = [mp.mpf(i * cs[i]) for i in range(n, 0, -1)]
        radius0 = 1.0 + max(abs(c) for c in cs[:-1]) / abs(cs[-1])
        zs = [
            mp.mpc(mp.cos(0.4 + 2 * mp.pi * k / n), mp.sin(0.4 + 2 * mp.pi * k / n)) * radius0 * 0.75
            for k in range(n)
        ]
        tol = mp.mpf(10) ** (-(dps - 6))
        for _ in range(40 + 12 * n):
            worst = mp.mpf(0)
            new = list(zs)
            for i, z in enumerate(zs):
                pz, pdz = mp.polyval(coeffs, z), mp.polyval(dcoeffs, z)
                if pdz == 0:
                    new[i] = z + tol * (1 + abs(z))
                    worst = mp.mpf(1)
                    continue
                newton = pz / pdz
                s = sum((1 / ((z - w) or tol * (1 + abs(z))) for j, w in enumerate(zs) if j != i), mp.mpc(0))
                denom = 1 - newton * s
                step = newton if denom == 0 else newton / denom
                new[i] = z - step
                worst = max(worst, abs(step) / (1 + abs(z)))
            zs = new
            if worst < tol:
                break

        def weierstrass_radii(points):
            rads = []
            for i, z in enumerate(points):
                prod = coeffs[0] * mp.fprod(z - w for j, w in enumerate(points) if j != i)
                if prod == 0:
                    return None
                rads.append(n * abs(mp.polyval(coeffs, z) / prod))
            return rads

        rads = weierstrass_radii(zs)
        if rads is None:
            return None
        zs = [mp.mpc(z.real, 0) if abs(z.imag) <= r else z for z, r in zip(zs, rads)]
        if len(set(zs)) != n:
            return None
        rads = weierstrass_radii(zs)
        if rads is None:
            return None
        # copy each upper root onto its nearest lower partner
        order = sorted(range(n), key=lambda i: (zs[i].real, zs[i].imag))
        uppers = [i for i in order if zs[i].imag > 0]
        lowers = [i for i in order if zs[i].imag < 0]
        if len(uppers) != len(lowers):
            return None
        for i in uppers:
            mirror = mp.conj(zs[i])
            best = min(lowers, key=lambda j: abs(zs[j] - mirror))
            if abs(zs[best] - mirror) > rads[i] + rads[best] + tol * (1 + abs(zs[i])):
                return None
            lowers.remove(best)
            zs[best] = mirror
            rads[best] = rads[i]
    return zs, rads


def ladder_roots(cs: tuple[int, ...], target: float = 1e-12) -> list[tuple[complex, float]]:
    """Float disks from the first precision level, doubling from 30 digits, that certifies.

    A level certifies when every float disk (mp radius plus conversion slack)
    is within target and the disks are pairwise disjoint in floats.
    """
    dps = 30
    while dps <= 1600:
        got = aberth_mp(cs, dps)
        if got is not None:
            out = []
            for z, r in zip(*got):
                zc = complex(float(z.real), float(z.imag))
                slack = 2.0 * (math.ulp(abs(zc.real)) + math.ulp(abs(zc.imag))) + 1e-300
                out.append((zc, float(r) * (1 + 1e-9) + slack))
            if all(r <= target for _, r in out) and all(
                abs(zi - zj) > ri + rj for (zi, ri), (zj, rj) in itertools.combinations(out, 2)
            ):
                return out
        dps *= 2
    raise AssertionError(f"the precision ladder could not certify {cs}")


def weierstrass_radii(cs: tuple[int, ...], zs: Sequence[complex]) -> list[float]:
    """Weierstrass radii n |p(z_i)| / (|a_n| prod_{j!=i} |z_i - z_j|), rounded up.

    poly_core's exact radius route taken alone: with W = S z the radius is
    n |S^n p(z_i)| / |a_n S prod_{j!=i} (W_i - W_j)|, all Gaussian integers.
    Coinciding points get radius inf.
    """
    s, ws, ps, _ = _exact_values(cs, zs, newton=False)
    return _radii(cs, s, ws, ps, range(len(ws)))


def _two_pass_radii(cs: tuple[int, ...], zs: Sequence[complex]) -> list[float]:
    """Weierstrass radii from a fresh exact evaluation, with p' computed and discarded."""
    s, ws, ps, _ = _exact_values(cs, zs)
    n = len(cs) - 1
    out = []
    for i, ((pr, pi), (x, y)) in enumerate(zip(ps, ws)):
        qr, qi = cs[-1] * s, 0
        for j, (u, v) in enumerate(ws):
            if j != i:
                qr, qi = qr * (x - u) - qi * (y - v), qr * (y - v) + qi * (x - u)
        out.append(_sqrt_up(n * n * (pr * pr + pi * pi), qr * qr + qi * qi))
    return out


def _aberth_step_sliced(zs: Sequence[complex], newtons) -> tuple[list[complex], float]:
    """`poly_core._aberth_step` with each point's sum over a fresh list of the others."""
    out, worst = [], 0.0
    for i, (z, nw) in enumerate(zip(zs, newtons)):
        try:
            s = sum(1 / (z - w) for w in zs[:i] + zs[i + 1 :])
            out.append(z + 1 / s if nw is None else z - nw / (1 - nw * s))
        except ZeroDivisionError:
            out.append(z)
        worst = max(worst, abs(out[-1] - z) / abs(z) if z else math.inf)
    return out, worst


def disks_disjoint_all_pairs(disks: Sequence[tuple[complex, float]]) -> bool:
    """The test that `poly_core._disks_disjoint` replaced: every pair exactly, over one power of two."""
    ints, _ = _dyadic([x for z, r in disks for x in (z.real, z.imag, r)])
    cells = list(zip(ints[::3], ints[1::3], ints[2::3]))
    return all(
        (x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2
        for i, (x, y, r) in enumerate(cells)
        for u, v, t in cells[i + 1 :]
    )


def _horner(coeffs: Sequence, x):
    """sum coeffs[i] x^i for ascending coeffs; works for int, Fraction, float and complex."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def aberth_off_axis_polish(cs: tuple[int, ...]) -> list[complex]:
    """The Aberth iteration that `poly_core._aberth` replaced.

    The same start, sweeps and stop rules, but p and p' come from two
    separate double Horner passes, and the exact polish sweeps run at the
    iterates as they are: a real root's centre stays off the axis by about
    1e-46 to 1e-77, so the exact values are taken over a power of two up to
    2^300.  `_certified_simple_roots` snaps such centres only afterwards.
    """
    n = len(cs) - 1
    fcs = [float(c) for c in cs]
    try:
        fdcs = [float(i * c) for i, c in enumerate(cs)][1:]
    except OverflowError:
        fdcs = [math.inf]
    radius0 = 1.0 + max(abs(c) for c in fcs[:-1]) / abs(fcs[-1])
    zs = [cmath.rect(0.75 * radius0, 0.4 + 2 * math.pi * k / n) for k in range(n)]
    for _ in range(40 + 12 * n):
        vals = [(_horner(fcs, z), _horner(fdcs, z)) for z in zs]
        finite = all(cmath.isfinite(p) and cmath.isfinite(dp) for p, dp in vals)
        newtons = [p / dp if dp else None for p, dp in vals] if finite else _exact_values(cs, zs)[3]
        zs, move = _aberth_step_sliced(zs, newtons)
        if move <= 1e-12:
            break
    for _ in range(8):
        zs, move = _aberth_step_sliced(zs, _exact_values(cs, zs)[3])
        if move <= 4 * sys.float_info.epsilon:
            break
    return zs


def certified_simple_roots_two_pass(cs: tuple[int, ...], aberth=_aberth) -> list[tuple[complex, float]]:
    """The two-pass route that `poly_core._certified_simple_roots` replaced.

    Radii are evaluated exactly at the centres from `aberth`, the centres
    are snapped and mirrored, and p is evaluated afresh at the final
    centres, at their own power-of-two scale, for the final radii.  With
    `aberth_off_axis_polish` this is the whole route before the real-axis
    polish.
    """
    zs = aberth(cs)
    radii = _two_pass_radii(cs, zs)
    zs = [complex(z.real, 0.0) if abs(z.imag) <= r else z for z, r in zip(zs, radii)]
    uppers = [z for z in zs if z.imag > 0]
    reals = [z for z in zs if z.imag == 0]
    zs = reals + uppers + [z.conjugate() for z in uppers]
    disks = list(zip(zs, _two_pass_radii(cs, zs)))
    if len(zs) != len(cs) - 1 or any(r > 1e-12 * max(1.0, abs(z)) for z, r in disks):
        raise RootCertificationError(f"could not certify the roots of a degree-{len(cs) - 1} factor")
    return disks


def _fail(clause: str) -> None:
    raise CertificateError(f"canonical basis certificate violated: {clause}")


def check_basis_certificate_fractions(
    poly: IntPolynomial,
    polygon: NewtonPolygon,
    s: int,
    m: int,
    matrix: Sequence[Sequence[Fraction]],
) -> tuple[tuple[tuple, ...], tuple[SegmentCertificate, ...]]:
    """lattice_structure.check_basis_certificate on Fractions, clause by clause.

    Re-derives every certificate clause on the rational entries: one
    p_adic_valuation per entry, Fraction window sums and Fraction floors.
    Raises the same CertificateError messages on the same first clause.
    """
    p = polygon.p
    d = poly.degree
    r = polygon.segment_count
    walls = [v[0] for v in polygon.vertices]
    vals = tuple(tuple(p_adic_valuation(x, p) for x in row) for row in matrix)

    a = poly.coeffs
    for i, row in enumerate(matrix):
        for t in range(m - d):
            if sum(a[j] * row[t + j] for j in range(d + 1)) != 0:
                _fail(f"row {i + 1} is not a recurrence vector")
    for i, vrow in enumerate(vals):
        for j, v in enumerate(vrow):
            if v is not PADIC_INFINITY and v < 0:
                _fail(f"entry ({i + 1},{j + 1}) is not p-integral")

    segments = []
    for k in range(1, r + 1):
        lo, hi = walls[k - 1], walls[k]
        sigma = polygon.slopes[k - 1]
        length = polygon.lengths[k - 1]
        # block triangularity of the two d-column flanks
        for i in range(lo, hi):
            for j in range(walls[k - 1]):
                if matrix[i][j] != 0:
                    _fail(f"left block below the diagonal is nonzero in segment {k}")
            for j in range(m - d + walls[k], m):
                if matrix[i][j] != 0:
                    _fail(f"right block above the diagonal is nonzero in segment {k}")
        b_block = [[matrix[i][j] for j in range(lo, hi)] for i in range(lo, hi)]
        c_block = [[matrix[i][m - d + j] for j in range(lo, hi)] for i in range(lo, hi)]
        ident = [[Fraction(int(x == y)) for y in range(hi - lo)] for x in range(hi - lo)]
        b_is_id = b_block == ident
        c_is_id = c_block == ident
        expected = int(sigma * length * (m - d)) if k >= s else int(-sigma * length * (m - d))
        if k < s:
            if not b_is_id:
                _fail(f"segment {k} before the pivot must have an identity left block")
            det_val = p_adic_valuation(det_exact(c_block), p)
        else:
            if not c_is_id:
                _fail(f"segment {k} at or after the pivot must have an identity right block")
            det_val = p_adic_valuation(det_exact(b_block), p)
        if det_val != expected:
            _fail(
                f"segment {k} determinant valuation {det_val} differs from expected {expected}"
            )
        # row-walk valuation floors away from the anchored identity diagonal
        for i in range(lo, hi):
            if k < s:
                for t in range(1, m - i):
                    floor_needed = -sigma * t
                    if vals[i][i + t] < floor_needed:
                        _fail(f"row {i + 1} violates the rightward valuation floor at offset {t}")
            else:
                anchor = m - d + i
                for t in range(1, anchor + 1):
                    floor_needed = sigma * t
                    if vals[i][anchor - t] < floor_needed:
                        _fail(f"row {i + 1} violates the leftward valuation floor at offset {t}")
        segments.append(
            SegmentCertificate(
                index=k,
                slope=sigma,
                length=length,
                row_start=lo + 1,
                row_stop=hi,
                left_is_identity=b_is_id,
                right_is_identity=c_is_id,
                det_valuation=int(det_val),
                expected_det_valuation=expected,
            )
        )
    return vals, tuple(segments)


def tri_rows(coeffs: Sequence, m: int) -> list[list]:
    """Rows of {A}_m: m x m lower triangular, a_d on the diagonal."""
    cs = _check_coeffs(coeffs)
    d = len(cs) - 1
    if m < d:
        raise DomainError("tri matrix needs m >= deg A")
    zero = cs[0] * 0
    return [[cs[d - i + j] if 0 <= d - i + j <= d and j <= i else zero for j in range(m)] for i in range(m)]


def _conv(b: Sequence[Fraction], c: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(b) + len(c) - 1)
    for i, xb in enumerate(b):
        for j, xc in enumerate(c):
            out[i + j] += xb * xc
    return out


def verify_factorization(poly: IntPolynomial, b_coeffs: Sequence, c_coeffs: Sequence, ell: int) -> bool:
    """Check A = B*C together with both banded matrix identities.

    Verifies the coefficient identity, [A]_l = [B]_l [C]_{l+s}, and
    {A}_m = {B}_m {C}_m at m = l + d.  The three checks are independent
    routes and all must agree.
    """
    if ell < 1:
        raise DomainError("ell must be >= 1")
    b = [Fraction(x) for x in _check_coeffs(b_coeffs)]
    c = [Fraction(x) for x in _check_coeffs(c_coeffs)]
    a = [Fraction(x) for x in poly.coeffs]
    s = len(b) - 1
    d = poly.degree
    if _conv(b, c) != a:
        return False

    if mat_mul(band_rows(b, ell), band_rows(c, ell + s)) != band_rows(a, ell):
        return False
    m = ell + d
    return mat_mul(tri_rows(b, m), tri_rows(c, m)) == tri_rows(a, m)


# ----- the paper's lemma identities -----


@dataclass(frozen=True)
class MinorIdentityResult:
    det_selector_minor: Fraction
    det_banded_minor: int
    holds: bool


def minor_identity(poly: IntPolynomial, w: int, m: int) -> MinorIdentityResult:
    """Compare det N_xi against the banded coefficient minor det(a_{w+i-j}).

    The identity is det N_xi = +- a_d^{-(m-d)} det U with U the (m-d) x (m-d)
    banded matrix U_{ij} = a_{w+i-j}; holds reports the unsigned comparison.
    """
    d = poly.degree
    if d < 1 or m < d:
        raise DomainError("minor identity needs 1 <= deg A <= m")
    if not 0 <= w <= d:
        raise DomainError("w must lie between 0 and deg A")
    table, lead = scaled_basis_N(poly, m)
    cols = list(range(w)) + list(range(m - d + w, m))
    # det N_xi = det T_xi / (a_d^(m-d))^d
    det_n = det_exact([[row[c] for c in cols] for row in table]) / lead**d
    size = m - d
    a = poly.coeffs
    u = [[a[w + i - j] if 0 <= w + i - j <= d else 0 for j in range(size)] for i in range(size)]
    det_u = int(det_exact(u))  # the empty determinant at m = d is 1
    holds = abs(det_n * lead) == abs(det_u)
    return MinorIdentityResult(det_selector_minor=det_n, det_banded_minor=det_u, holds=holds)


def biorthonormal_check(u: Sequence[Sequence], v: Sequence[Sequence]) -> bool:
    """Verify the two Gram identities for a biorthonormal pair, exactly.

    Requires <u_i, v_j> = delta_ij (raises otherwise).  Then checks
    G(u) G(v) = I and the complementary-minor identity

        det G(u_1..u_k) = det G(u) * det G(v_{k+1}..v_n)   for all k;

    the det G(u) factor is 1 exactly when the u-parallelepiped has volume 1,
    which recovers the unscaled form of the identity.
    """
    us = [[coerce_rational(x) for x in row] for row in u]
    vs = [[coerce_rational(x) for x in row] for row in v]
    n = len(us)
    if n == 0 or len(vs) != n:
        raise DomainError("need two equal-size nonempty families")
    if any(len(row) != n for row in itertools.chain(us, vs)):
        raise DomainError("biorthonormal families must be bases, so n vectors of length n")
    for i in range(n):
        for j in range(n):
            pairing = sum(a * b for a, b in zip(us[i], vs[j]))
            if pairing != int(i == j):
                raise DomainError(
                    f"families are not biorthonormal: <u_{i + 1}, v_{j + 1}> = {pairing}"
                )
    gram_u = [[sum(a * b for a, b in zip(x, y)) for y in us] for x in us]
    gram_v = [[sum(a * b for a, b in zip(x, y)) for y in vs] for x in vs]
    product = mat_mul(gram_u, gram_v)
    for i in range(n):
        for j in range(n):
            if product[i][j] != int(i == j):
                raise CertificateError("G(u) G(v) = I failed in exact arithmetic")
    # head[k] = det G(u_1..u_k); tail[k] = det G(v_{k+1}..v_n), the trailing
    # minors of G(v) read as leading minors of its row-and-column reversal
    head = [Fraction(1)] + leading_minors(gram_u)
    tail = leading_minors([row[::-1] for row in reversed(gram_v)])[::-1] + [Fraction(1)]
    det_u = head[n]
    for k in range(n + 1):
        if head[k] != det_u * tail[k]:
            raise CertificateError(
                f"complementary-minor identity failed at k = {k}"
            )
    return True
