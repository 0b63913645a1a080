"""Density thresholds on the torus for linear-recurrence orbit sets.

The set under study is Q = {v in R^m : the band matrix of A maps v into
Z^(m-d)}, taken modulo 1.  Four executables cover its density behaviour:

  epsilon_bound       certified enclosures of the eps thresholds obtained
                      from scaled Mahler measures and the refined root
                      product max(|alpha|, 1-|alpha|), all from one root set
  factor_real/witness the constructive two-stage perturbation moving any
                      target into Q while staying inside the eps/2 cube
  is_covered          exact decision of whether the eps-cube's image, the
                      zonotope band(A) (eps/2) [-1, 1]^m, covers one residue
                      class: its least gauge over integer offsets, searched
                      from the facets the recurrence lattice's minors give
                      by Gale duality in a box capped by the caller's
                      ceiling, is at most eps/2; critical_epsilon reads the
                      exact grid threshold from the same search
  certify_non_density exact zonotope volume of the cube-plus-lattice
                      parallelepiped; below 1 it refutes eps-density

Floats passed for eps or targets are taken at their exact binary value; the
command line converts decimal text like "0.4" to 2/5 before calling in.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import CertificateError, DomainError
from .exact_linalg import clear_denominators, clear_floats, coerce_rational
from .intervals import Interval, interval_min
from .lattice_structure import integral_basis, scaled_basis_N
from .poly_core import ComplexRootSet, IntPolynomial, roots

__all__ = [
    "DensityBound",
    "RealFactorization",
    "DensityWitness",
    "CriticalEpsilonEstimate",
    "NonDensityCertificate",
    "epsilon_bound",
    "factor_real",
    "witness",
    "is_covered",
    "critical_epsilon",
    "certify_non_density",
]

GRID_DIMENSION_GUARD = 4
WITNESS_RESIDUAL_TOL = 1e-6
# integer offsets one covering probe may try (the test suite's largest tries
# ~5e4), and grid targets, grid_n^l, one critical_epsilon call may list
COVERING_OFFSET_GUARD = 10**6
# entries of certify_non_density's minor table, sum_p C(d, p) C(m, p), and the count
# (m - d) C(m - 1, d) for the facets, above both their minor table and their C(m, d + 1) supports
MINOR_SUM_GUARD = 10**5


# ----- certified threshold enclosures -----


class DensityBound(NamedTuple):
    eps_half_scaled: Interval
    eps_double_scaled: Interval
    eps_stated: Interval
    eps_refined: Interval
    eps_coarse: Interval


def _refined_threshold(poly: IntPolynomial) -> tuple[ComplexRootSet, Interval]:
    """A's certified root set and eps_refined, after the density bounds' input checks.

    eps_refined reciprocates A's refined product and its reversal's
    (coordinate reversal preserves the orbit set and the cube), keeping the
    smaller; both are folds over the one root set of A.
    """
    if poly.constant_coefficient == 0:
        raise DomainError("density bounds need a nonzero constant coefficient")
    if not poly.is_primitive:
        raise DomainError("density bounds need a primitive polynomial")
    if poly.degree < 1:
        raise DomainError("Mahler measure variants need degree >= 1")
    own = roots(poly)
    return own, interval_min(own.refined_product().recip(), own.reversal_refined_product().recip())


def epsilon_bound(poly: IntPolynomial) -> DensityBound:
    """Certified enclosures of the density thresholds.

    eps_half_scaled and eps_double_scaled are the reciprocals of the two
    scaled measures; eps_stated is their minimum.  eps_refined reciprocates
    the product of max(|alpha|, 1-|alpha|) over A or its reversal, keeping
    the smaller (_refined_threshold, which critical_epsilon reads alone).
    eps_coarse = 2^floor(d/2) / M(A).  All five come from one certified root
    set of A: the reversal's product is |a_d| * prod max(1, |alpha| - 1).
    """
    own, refined = _refined_threshold(poly)
    half = own.mahler("half_scaled").interval.recip()
    dbl = own.mahler("double_scaled").interval.recip()
    plain = own.mahler("plain").interval
    coarse = plain.recip().scale(float(2 ** (poly.degree // 2)))
    return DensityBound(
        eps_half_scaled=half,
        eps_double_scaled=dbl,
        eps_stated=interval_min(half, dbl),
        eps_refined=refined,
        eps_coarse=coarse,
    )


# ----- constructive factorization and witness -----


class RealFactorization(NamedTuple):
    b_coeffs: tuple[float, ...]
    c_coeffs: tuple[float, ...]
    eps: float


def _expand_from_roots(lead: complex, root_list: list[complex]) -> list[complex]:
    cs = [lead]
    for root in root_list:
        nxt = [-root * cs[0]]
        for i in range(1, len(cs)):
            nxt.append(cs[i - 1] - root * cs[i])
        nxt.append(cs[-1])
        cs = nxt
    return cs


def factor_real(poly: IntPolynomial) -> RealFactorization:
    """Split A = B * C by root size: |gamma| <= 1/2 goes to the monic C.

    A root goes to C iff its certified disk lies in |z| <= 1/2, decided
    exactly on the binary values of its centre and radius; one whose disk
    straddles 1/2 is sent to B, which never needs smallness.
    delta = 1/|b_0| and eps = delta * prod 1/(1-|gamma|).
    """
    if poly.degree < 1:
        raise DomainError("factorization needs degree >= 1")
    if poly.constant_coefficient == 0:
        raise DomainError("factorization needs a nonzero constant coefficient")
    rs = roots(poly)
    b_roots: list[complex] = []
    c_roots: list[complex] = []
    for enc in rs.roots:
        # over 2 den: |z| <= 1/2 - r  iff  den - 2 r >= 0 and |2 z|^2 <= (den - 2 r)^2
        (x, y, r), den = clear_floats((enc.value.real, enc.value.imag, enc.radius))
        slack = den - 2 * r
        bucket = c_roots if slack >= 0 and 4 * (x * x + y * y) <= slack * slack else b_roots
        bucket.extend([enc.value] * enc.multiplicity)
    b_cs = _expand_from_roots(complex(poly.leading_coefficient), b_roots)
    c_cs = _expand_from_roots(complex(1.0), c_roots)
    b_coeffs = tuple(z.real for z in b_cs)
    c_coeffs = tuple(z.real for z in c_cs)
    eps = 1.0 / abs(b_coeffs[0])
    for gamma in c_roots:
        eps /= 1.0 - abs(gamma)
    return RealFactorization(b_coeffs=b_coeffs, c_coeffs=c_coeffs, eps=eps)


class DensityWitness(NamedTuple):
    target: tuple[float, ...]
    w: tuple[float, ...]
    k: tuple[int, ...]
    residual: float
    eps_used: float
    eps_constructive: float


def _band_times(a: Sequence[int], x: Sequence[float], ell: int) -> list[float]:
    """The ell rows of band(A) x, each summed left to right from 0, as sum() did
    before Python 3.12 compensated float sums: the witness's bytes stay put."""
    rows = [0] * ell
    for j, aj in enumerate(a):
        rows = [r + aj * xj for r, xj in zip(rows, x[j:])]
    return rows


def witness(
    poly: IntPolynomial,
    m: int,
    target: Sequence[float],
    eps: float | None = None,
) -> DensityWitness:
    """Perturbation w with |w|_inf <= eps/2 carrying target into Q.

    Two stages.  First, working down the rows of the band matrix of B, each
    w'_i is the unique value in [-delta/2, delta/2] fixing row i modulo 1
    (the row coefficient of w'_i is b_0 and b_0 * delta = 1, free trailing
    coordinates pinned to 0).  Second, w solves the triangular system
    {C}_m w = (0,...,0, w') by forward substitution, which amplifies the
    sup-norm by at most prod 1/(1-|gamma|).  k is recovered by rounding,
    and the residual reported from an independent matrix multiply.  Before
    returning, the exact values of the returned floats are checked in
    rationals: |w|_inf <= eps/2, and every row of band(A)(target + w) lies
    within WITNESS_RESIDUAL_TOL of its k_i; a failure raises
    CertificateError.  A non-finite target entry or eps, an eps past the
    float range, or a row of band(A) times the target that overflows a
    float, raises DomainError.
    """
    d = poly.degree
    if m <= d:
        raise DomainError("witness needs m > deg A")
    tvec = [float(x) for x in target]
    if len(tvec) != m:
        raise DomainError(f"target must have length m = {m}")
    if not all(map(math.isfinite, tvec)):
        raise DomainError("target entries must be finite")
    try:
        finite = eps is None or math.isfinite(eps)
    except OverflowError as exc:  # an int or Fraction past the float range
        raise DomainError("eps must lie within the float range") from exc
    if not finite:
        raise DomainError("eps must be finite")
    fact = factor_real(poly)
    if eps is None:
        eps = fact.eps
    if eps < fact.eps - 1e-9:
        raise DomainError(
            f"eps = {eps} is below the constructive bound {fact.eps}"
        )
    a = poly.coeffs
    ell = m - d
    rows = _band_times(a, tvec, ell)
    if not all(map(math.isfinite, rows)):
        raise DomainError("a row of band(A) times the target overflows a float")
    v = [-x % 1.0 for x in rows]

    b = fact.b_coeffs
    s = len(b) - 1
    wprime = [0.0] * (ell + s)
    for i in range(ell - 1, -1, -1):
        tail = map(operator.mul, b[1:], wprime[i + 1 : i + s + 1])
        y = v[i] - functools.reduce(operator.add, tail, 0)
        y -= math.floor(y)
        if y >= 0.5:
            y -= 1.0
        wprime[i] = y / b[0]

    c = fact.c_coeffs
    t = len(c) - 1
    z = [0.0] * t + wprime
    w = [0.0] * m
    for i in range(m):
        acc = z[i]
        for j in range(max(0, i - t), i):
            acc -= c[t - i + j] * w[j]
        w[i] = acc

    k = []
    residual = 0.0
    for row_val in _band_times(a, [x + y for x, y in zip(tvec, w)], ell):
        ki = round(row_val)
        k.append(int(ki))
        residual = max(residual, abs(row_val - ki))

    # the certificate, exact on the binary values of the floats returned:
    # each is an integer over their common power-of-two denominator den, so
    # |w|_inf and the largest row miss are taken in integers, then one
    # Fraction each
    tw, den = clear_floats((*tvec, *w))
    sup = Fraction(max(abs(x) for x in tw[m:]), den)
    rows_den = (sum(a[j] * (tw[i + j] + tw[m + i + j]) for j in range(d + 1)) for i in range(ell))
    miss = Fraction(max(abs(row - ki * den) for row, ki in zip(rows_den, k)), den)
    if sup > Fraction(eps) / 2 or miss > WITNESS_RESIDUAL_TOL:
        raise CertificateError(
            f"witness fails its exact check: |w|_inf = {float(sup):.6g} against eps/2 = "
            f"{eps / 2:.6g}, row residual {float(miss):.3e} against {WITNESS_RESIDUAL_TOL:.3e}"
        )
    return DensityWitness(
        target=tuple(tvec),
        w=tuple(w),
        k=tuple(k),
        residual=residual,
        eps_used=float(eps),
        eps_constructive=fact.eps,
    )


# ----- exact covering decision -----


def _merge_intervals(parts: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    parts.sort()
    merged = [parts[0]]
    for lo, hi in parts[1:]:
        if lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _covered_linear(a0: int, a1: int, ell: int, half: Fraction, v: list[Fraction]) -> bool:
    """Degree-1 covering by a sweep of feasible w-interval unions.

    Each step maps the union by -a0/a1, so where |a1| > |a0| the pieces would
    shrink and multiply; the sweep then runs on the reversal w_i -> w_(m-1-i),
    which takes the band of a0 + a1 x to that of a1 + a0 x, rows reversed.
    """
    if abs(a1) > abs(a0):
        a0, a1, v = a1, a0, v[::-1]
    feasible = [(-half, half)]
    for i in range(ell):
        nxt: list[tuple[Fraction, Fraction]] = []
        for lo, hi in feasible:
            img_lo, img_hi = sorted((a0 * lo, a0 * hi))
            reach = abs(a1) * half
            for k in range(math.ceil(img_lo - reach - v[i]), math.floor(img_hi + reach - v[i]) + 1):
                c1 = (v[i] + k - a0 * lo) / a1
                c2 = (v[i] + k - a0 * hi) / a1
                n_lo = max(min(c1, c2), -half)
                n_hi = min(max(c1, c2), half)
                if n_lo <= n_hi:
                    nxt.append((n_lo, n_hi))
        if not nxt:
            return False
        feasible = _merge_intervals(nxt)
    return True


def _minor_levels(rows: Sequence[Sequence[int]], top: int):
    """Levels p = 0..top of the p x p minors of an integer matrix, as pairs
    (cols, {row tuple: [minor for each column tuple in cols]}), cols being the
    p-column tuples in itertools.combinations order.  That order lists level p
    as each level p - 1 tuple C in turn, extended by every column c past its
    end, and level p expands along that last column (Laplace):

        minor(R, C + (c,)) = sum_i (-1)^(p-1+i) rows[r_i][c] minor(R - r_i, C).

    Two flat index arrays give, for each entry of level p, the position of its
    C in level p - 1 and its column c, so a row set's whole list is p map
    passes over them: no elimination and no Python loop per minor.
    """
    width = len(rows[0]) if rows else 0
    cols, level = [()], {(): [1]}
    yield cols, level
    for p in range(1, top + 1):
        # entry e extends the tuple at position prefix[e] of level p - 1 by column added[e]
        starts = [cs[-1] + 1 if cs else 0 for cs in cols]
        counts = [width - s for s in starts]
        prefix = list(
            itertools.chain.from_iterable(map(itertools.repeat, range(len(cols)), counts))
        )
        added = list(itertools.chain.from_iterable(map(range, starts, itertools.repeat(width))))
        cols = list(itertools.combinations(range(width), p))
        prev, level = level, {}
        for rs in itertools.combinations(range(len(rows)), p):
            # the last row's term has sign +, and the signs alternate going up
            last, below = rows[rs[-1]], prev[rs[:-1]]
            acc = map(operator.mul, map(last.__getitem__, added), map(below.__getitem__, prefix))
            for i in range(p - 2, -1, -1):
                row, below = rows[rs[i]], prev[rs[:i] + rs[i + 1 :]]
                term = map(
                    operator.mul, map(row.__getitem__, added), map(below.__getitem__, prefix)
                )
                acc = map(operator.sub if (p - 1 - i) % 2 else operator.add, acc, term)
            level[rs] = list(acc)
        yield cols, level


# (primitive facet normal c, support s_c) pairs of a zonotope
_Facets = list[tuple[tuple[int, ...], int]]


def _zonotope_facets(poly: IntPolynomial, m: int) -> _Facets:
    """Facet normals c and supports s_c of the zonotope band(A) [-1, 1]^m.

    By Gale duality (Ziegler, Lectures on Polytopes, Lecture 6) a facet's row
    U = C A = c^T band(A) spans, on its d + 1 support columns S, the kernel of
    the recurrence lattice basis basis_N (column j: x^j mod A, e_j for j < d).
    On the k columns j >= d of S, U is the signed (k-1)-minor vector of their
    rows outside S, and C = sum U_j (x^j div A), made primitive with a positive
    leading entry; s_c = ||C A||_1.  Those minors come from one _minor_levels
    table of T = a_d^l basis_N's columns d.. (l = m - d), orders up to
    min(d, l - 1), each order a few map passes per row set; a support reads
    its minors at their column tuples' positions.  More than MINOR_SUM_GUARD,
    (m - d) C(m - 1, d), raise DomainError first.
    """
    a, d = poly.coeffs, poly.degree
    ell = m - d
    minors = ell * math.comb(m - 1, d)
    if minors > MINOR_SUM_GUARD:
        raise DomainError(
            f"the zonotope facets would take {minors} minors, above the guard {MINOR_SUM_GUARD}"
        )
    # column j: a_d^l (x^j mod A), which is column j of T = a_d^l basis_N, then
    # a_d^l (x^j div A), whose x^i coefficient is T[d-1][j-1-i] / a_d; both integral for j < m
    table, lead = scaled_basis_N(poly, m)
    cols = [
        [row[j] for row in table]
        + [table[d - 1][j - 1 - i] // a[d] if j - i >= d else 0 for i in range(ell)]
        for j in range(m)
    ]
    levels = list(_minor_levels([row[d:] for row in table], min(d, ell - 1)))
    where = [{cs: k for k, cs in enumerate(level[0])} for level in levels]
    facets: dict[tuple[int, ...], int] = {}
    for s in itertools.combinations(range(m), d + 1):
        top, free = tuple(j - d for j in s if j >= d), tuple(r for r in range(d) if r not in s)
        below, at = levels[len(free)][1][free], where[len(free)]
        u = [(-1) ** i * below[at[top[:i] + top[i + 1 :]]] for i in range(len(top))]
        # z = sum u_j cols[d + j]: minus U below x^d, then C
        z = [sum(t) for t in zip(*([uj * x for x in cols[d + j]] for j, uj in zip(top, u)))]
        if any(z[d:]):
            g = math.gcd(*z[d:]) if next(filter(None, z[d:])) > 0 else -math.gcd(*z[d:])
            support = abs(lead) * sum(map(abs, u)) + sum(map(abs, z[:d]))
            facets.setdefault(tuple(x // g for x in z[d:]), support // abs(g))
    return list(facets.items())


def _guard_offsets(ranges: list[range]) -> list[range]:
    offsets = math.prod(map(len, ranges))
    if offsets > COVERING_OFFSET_GUARD:
        raise DomainError(
            f"covering would try {offsets} integer offsets, above the guard {COVERING_OFFSET_GUARD}"
        )
    return ranges


def _gauge(poly: IntPolynomial, m: int) -> tuple[int, _Facets, int]:
    """(unit, rows, width): unit = lcm(s_c), rows (c, unit // s_c), so |c . x| / s_c is
    |c . x| (unit // s_c) / unit, and width = sum |a_i|, so |x|_inf <= width gauge(x)."""
    facets = _zonotope_facets(poly, m)
    unit = math.lcm(*(s for _, s in facets))
    return unit, [(c, unit // s) for c, s in facets], poly.coefficient_sum_abs()


def _gauge_search(gauge, qv: Sequence[int], q: int, near: Sequence[int], goal: int, ceiling) -> int:
    """Numerator over den = q unit of the least gauge of the target qv / q, down to goal.

    With gauge (unit, rows, width) from _gauge, the score of an offset k is
    den times its gauge, max_c |c . (qv + q k)| (unit // s_c).  The nearest
    offset near is scored first, best being its score; then every offset that
    could score at most min(best, ceiling), ceiling being the caller's bound
    on any score it needs: the box |qv / q + k|_inf <= min(best, ceiling)
    width / den, guarded and walked in lexicographic order.  An offset is
    scored only while it beats the best so far on every facet, and the search
    returns at the first score at or below goal.  The facet that rejects an
    offset is tried first on the next, which tends to fail on the same facet;
    no score depends on that order.
    """
    unit, rows, width = gauge
    t = [x + q * k for x, k in zip(qv, near)]
    best = max((abs(sum(map(operator.mul, c, t))) * w for c, w in rows), default=0)
    if best > goal:
        den, reach = q * unit, math.floor(min(best, ceiling) * width)
        box = [range(-((reach + x * unit) // den), (reach - x * unit) // den + 1) for x in qv]
        scored = [(c, sum(map(operator.mul, c, qv)), w) for c, w in rows]
        for k in itertools.product(*_guard_offsets(box)):
            worst = 0
            for i, (c, cv, w) in enumerate(scored):
                x = abs(cv + q * sum(map(operator.mul, c, k))) * w
                if x >= best:
                    scored[0], scored[i] = scored[i], scored[0]
                    break
                if x > worst:
                    worst = x
            else:
                best = worst
                if best <= goal:
                    break
    return best


def _covered_by_facets(poly: IntPolynomial, m: int, half: Fraction, vv: list[Fraction]) -> bool:
    """is_covered past degree 1: the integer least-gauge search, eps/2 its ceiling and stop."""
    qv, q = clear_denominators(vv)
    gauge = _gauge(poly, m)
    ceiling = half * q * gauge[0]
    goal = math.floor(ceiling)
    return _gauge_search(gauge, qv, q, [-round(x) for x in vv], goal, ceiling) <= goal


def is_covered(poly: IntPolynomial, m: int, eps, v) -> bool:
    """Exact decision: does some w in [-eps/2, eps/2]^m give band(A) w = v + k?

    The image of the cube is the zonotope (eps/2) Z with Z = band(A) [-1, 1]^m,
    so v + k is reached exactly when its gauge max_c |c . (v + k)| / s_c over
    the facet normals c of Z and their supports s_c is at most eps/2
    (_covered_by_facets).  Degree 1 sweeps feasible interval unions instead,
    w_1 to w_m, or w_m to w_1 when |a_1| > |a_0| (_covered_linear).  The cube is
    closed, so boundary contact counts as covered.  The nearest offset
    -round(v) is scored first, and a target it covers returns True at once.
    Otherwise every offset with |v + k|_inf <= (eps/2) sum|a_i| is a
    candidate, and more than COVERING_OFFSET_GUARD of them raise DomainError.
    More than MINOR_SUM_GUARD minors for the facets, (m - d) C(m - 1, d),
    raise DomainError before any offset is scored.
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
    return _covered_by_facets(poly, m, half, vv)


# ----- exact grid threshold -----


class CriticalEpsilonEstimate(NamedTuple):
    upper: Fraction
    estimate: Fraction
    method_notes: str


def critical_epsilon(
    poly: IntPolynomial,
    m: int,
    grid_n: int = 8,
    bisection_tol=Fraction(1, 1000),
    allow_large_grid: bool = False,
) -> CriticalEpsilonEstimate:
    """Exact smallest eps covering a grid of residue classes.

    The threshold is 2 max over grid targets v of the least gauge of v: the
    min over integer offsets k of max over the zonotope's facets c of
    |c . (v + k)| / s_c, read from one facet list for every degree.  Targets
    far from an integer go first, and each target gets one gauge search
    that stops as soon as it is covered at the running threshold, so only
    targets that raise it are searched to their exact minimum.  The
    threshold does not depend on that order, but which offset boxes get
    built does, and so which box can trip COVERING_OFFSET_GUARD and the
    offset count its refusal names.  Every score is an integer over one
    denominator grid_n lcm(s_c), so target js / grid_n costs c . js per
    facet: its nearest offset -round(j / grid_n) (half to even) is
    -(2j > grid_n) per residue j, and its stop is the numerator of half the
    running threshold; no Fraction is built in the loop.
    estimate is that threshold.  The reported upper bound adds the declared
    grid margin (m - d)/grid_n for targets between grid points, capped at
    the certified refined threshold cap which covers the whole torus.  A grid
    threshold above cap raises CertificateError, so each offset box stops at
    the score floor(cap grid_n lcm(s_c) / 2) (_gauge_search), and a score
    above it raises.  More than COVERING_OFFSET_GUARD grid targets raise
    DomainError first.
    bisection_tol is validated only and no longer affects the result.
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
    cap = Fraction(_refined_threshold(poly)[1].hi)
    gauge = _gauge(poly, m)
    # every gauge is an integer over den; target js is the integer vector js over grid_n
    den = grid_n * gauge[0]
    ceiling = cap.numerator * den // (2 * cap.denominator)

    # far-from-integer targets first, so the threshold rises early and most
    # later targets are skipped
    order = sorted(
        itertools.product(range(grid_n), repeat=ell),
        key=lambda js: -sum(min(j, grid_n - j) for j in js),
    )
    best = 0
    for js in order:
        score = _gauge_search(gauge, js, grid_n, [-(2 * j > grid_n) for j in js], best, ceiling)
        if score > ceiling:
            # the box stops at the ceiling, so score need not be this target's least
            raise CertificateError(f"grid threshold exceeds the certified threshold {float(cap):.6g}")
        best = max(best, score)
    tau = Fraction(2 * best, den)
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


# ----- volume-based refutation -----


class NonDensityCertificate(NamedTuple):
    volume_bound: Fraction
    certified: bool


def certify_non_density(poly: IntPolynomial, m: int, eps) -> NonDensityCertificate:
    """Exact volume of the zonotope spanned by the eps-cube and lattice rows.

    Q can only be eps-dense if lattice translates of the cube-lattice
    parallelepiped cover R^m, which forces its volume to be at least 1; a
    volume below 1 therefore refutes density.  The volume is the standard
    minor expansion over the m + d generators, computed exactly: choosing p
    lattice rows contributes eps^(m-p) times S_p, the integer sum of absolute
    p x p minors over column choices: level p of _minor_levels on the integral
    basis, which extends each level p - 1 column tuple by one column and
    expands along it.  More than MINOR_SUM_GUARD minors, C(m + d, d), raise
    DomainError before any is taken.
    """
    e = coerce_rational(eps)
    if not 0 < e <= 1:
        raise DomainError("eps must lie in (0, 1]")
    d = poly.degree
    if m <= d:
        raise DomainError("certification needs m > deg A")
    minors = sum(math.comb(d, p) * math.comb(m, p) for p in range(d + 1))
    if minors > MINOR_SUM_GUARD:
        raise DomainError(
            f"certification would sum {minors} minors, above the guard {MINOR_SUM_GUARD}"
        )
    omega = integral_basis(poly, m).z_basis
    levels = enumerate(_minor_levels(omega, d))
    total = sum(
        e ** (m - p) * sum(map(abs, itertools.chain.from_iterable(level.values())))
        for p, (_, level) in levels
    )
    return NonDensityCertificate(volume_bound=total, certified=total < 1)
