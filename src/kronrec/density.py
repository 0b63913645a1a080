"""Density thresholds on the torus for linear-recurrence orbit sets.

The set under study is Q = {v in R^m : the band matrix of A maps v into
Z^(m-d)}, taken modulo 1.  Four executables cover its density behaviour:

  epsilon_bound       certified enclosures of the eps thresholds obtained
                      from scaled Mahler measures and the refined root
                      product max(|alpha|, 1-|alpha|)
  factor_real/witness the constructive two-stage perturbation moving any
                      target into Q while staying inside the eps/2 cube
  is_covered          exact decision of whether the eps-cube's image, the
                      zonotope band(A) (eps/2) [-1, 1]^m, covers one residue
                      class: its least gauge over integer offsets, searched
                      from the zonotope's facets in integer arithmetic, is
                      at most eps/2; critical_epsilon reads the exact grid
                      threshold from the same search
  certify_non_density exact zonotope volume of the cube-plus-lattice
                      parallelepiped; below 1 it refutes eps-density

Floats passed for eps or targets are taken at their exact binary value; the
command line converts decimal text like "0.4" to 2/5 before calling in.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateError, DomainError
from .exact_linalg import coerce_rational, det_exact
from .intervals import Interval, interval_min
from .lattice_structure import integral_basis
from .poly_core import IntPolynomial, conjugate, roots

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
# integer offsets one covering probe may try; the test suite's largest tries ~5e4
COVERING_OFFSET_GUARD = 10**6
# minors certify_non_density may sum, sum_p C(d, p) C(m, p), and minors the
# zonotope facets may take, C(m, l-1) l
MINOR_SUM_GUARD = 10**5


# ----- certified threshold enclosures -----


@dataclass(frozen=True)
class DensityBound:
    poly: IntPolynomial
    eps_half_scaled: Interval
    eps_double_scaled: Interval
    eps_stated: Interval
    eps_refined: Interval
    eps_coarse: Interval


def epsilon_bound(poly: IntPolynomial) -> DensityBound:
    """Certified enclosures of the density thresholds.

    eps_half_scaled and eps_double_scaled are the reciprocals of the two
    scaled measures; eps_stated is their minimum.  eps_refined reciprocates
    the product of max(|alpha|, 1-|alpha|) and is evaluated on both the
    polynomial and its reversal (coordinate reversal preserves the orbit set
    and the cube), keeping the smaller.  eps_coarse = 2^floor(d/2) / M(A).
    All five come from one certified root set of A and one of its reversal.
    """
    if poly.constant_coefficient == 0:
        raise DomainError("density bounds need a nonzero constant coefficient")
    if not poly.is_primitive:
        raise DomainError("density bounds need a primitive polynomial")
    if poly.degree < 1:
        raise DomainError("Mahler measure variants need degree >= 1")
    own = roots(poly)
    reversal = roots(conjugate(poly))
    half = own.mahler("half_scaled").interval.recip()
    dbl = own.mahler("double_scaled").interval.recip()
    refined = interval_min(own.refined_product().recip(), reversal.refined_product().recip())
    plain = own.mahler("plain").interval
    coarse = plain.recip().scale(float(2 ** (poly.degree // 2)))
    return DensityBound(
        poly=poly,
        eps_half_scaled=half,
        eps_double_scaled=dbl,
        eps_stated=interval_min(half, dbl),
        eps_refined=refined,
        eps_coarse=coarse,
    )


# ----- constructive factorization and witness -----


@dataclass(frozen=True)
class RealFactorization:
    poly: IntPolynomial
    b_coeffs: tuple[float, ...]
    c_coeffs: tuple[float, ...]
    delta: float
    eps: float

    @property
    def b_degree(self) -> int:
        return len(self.b_coeffs) - 1

    @property
    def c_degree(self) -> int:
        return len(self.c_coeffs) - 1


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

    A root whose certified enclosure straddles 1/2 is sent to B, which never
    needs smallness.  delta = 1/|b_0| and eps = delta * prod 1/(1-|gamma|).
    """
    if poly.degree < 1:
        raise DomainError("factorization needs degree >= 1")
    if poly.constant_coefficient == 0:
        raise DomainError("factorization needs a nonzero constant coefficient")
    rs = roots(poly)
    b_roots: list[complex] = []
    c_roots: list[complex] = []
    for enc in rs.roots:
        modulus_hi = abs(enc.value) + enc.radius
        bucket = c_roots if modulus_hi <= 0.5 else b_roots
        bucket.extend([enc.value] * enc.multiplicity)
    b_cs = _expand_from_roots(complex(poly.leading_coefficient), b_roots)
    c_cs = _expand_from_roots(complex(1.0), c_roots)
    b_coeffs = tuple(z.real for z in b_cs)
    c_coeffs = tuple(z.real for z in c_cs)
    delta = 1.0 / abs(b_coeffs[0])
    eps = delta
    for gamma in c_roots:
        eps /= 1.0 - abs(gamma)
    return RealFactorization(
        poly=poly, b_coeffs=b_coeffs, c_coeffs=c_coeffs, delta=delta, eps=eps
    )


@dataclass(frozen=True)
class DensityWitness:
    poly: IntPolynomial
    m: int
    target: tuple[float, ...]
    w: tuple[float, ...]
    k: tuple[int, ...]
    residual: float
    eps_used: float
    eps_constructive: float


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
    CertificateError.  A non-finite target entry, or a row of band(A) times
    the target that overflows a float, raises DomainError.
    """
    d = poly.degree
    if m <= d:
        raise DomainError("witness needs m > deg A")
    tvec = [float(x) for x in target]
    if len(tvec) != m:
        raise DomainError(f"target must have length m = {m}")
    if not all(map(math.isfinite, tvec)):
        raise DomainError("target entries must be finite")
    fact = factor_real(poly)
    if eps is None:
        eps = fact.eps
    if eps < fact.eps - 1e-9:
        raise DomainError(
            f"eps = {eps} is below the constructive bound {fact.eps}"
        )
    a = poly.coeffs
    ell = m - d
    rows = [sum(a[j] * tvec[i + j] for j in range(d + 1)) for i in range(ell)]
    if not all(map(math.isfinite, rows)):
        raise DomainError("a row of band(A) times the target overflows a float")
    v = [-x % 1.0 for x in rows]

    b = fact.b_coeffs
    s = len(b) - 1
    wprime = [0.0] * (ell + s)
    for i in range(ell - 1, -1, -1):
        y = v[i] - sum(b[kk] * wprime[i + kk] for kk in range(1, s + 1))
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
    for i in range(ell):
        row_val = sum(a[j] * (tvec[i + j] + w[i + j]) for j in range(d + 1))
        ki = round(row_val)
        k.append(int(ki))
        residual = max(residual, abs(row_val - ki))

    # the certificate, exact on the binary values of the floats returned:
    # each is an integer over their common power-of-two denominator den
    pairs = [x.as_integer_ratio() for x in (*tvec, *w)]
    den = max(q for _, q in pairs)
    tw = [n * (den // q) for n, q in pairs]
    sup = Fraction(max(abs(x) for x in tw[m:]), den)
    miss = max(
        Fraction(abs(sum(a[j] * (tw[i + j] + tw[m + i + j]) for j in range(d + 1)) - ki * den), den)
        for i, ki in enumerate(k)
    )
    if sup > Fraction(eps) / 2 or miss > WITNESS_RESIDUAL_TOL:
        raise CertificateError(
            f"witness fails its exact check: |w|_inf = {float(sup):.6g} against eps/2 = "
            f"{eps / 2:.6g}, row residual {float(miss):.3e} against {WITNESS_RESIDUAL_TOL:.3e}"
        )
    return DensityWitness(
        poly=poly,
        m=m,
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
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _covered_linear(a0: int, a1: int, ell: int, half: Fraction, v: list[Fraction]) -> bool:
    """Degree-1 covering by a sweep of feasible w-interval unions."""
    feasible = [(-half, half)]
    for i in range(ell):
        nxt: list[tuple[Fraction, Fraction]] = []
        for lo, hi in feasible:
            img_lo, img_hi = sorted((a0 * lo, a0 * hi))
            img_lo -= abs(a1) * half
            img_hi += abs(a1) * half
            k_lo = math.ceil(img_lo - v[i])
            k_hi = math.floor(img_hi - v[i])
            for k in range(k_lo, k_hi + 1):
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


# (primitive facet normal c, support s_c) pairs of a zonotope
_Facets = list[tuple[tuple[int, ...], int]]


def _zonotope_facets(poly: IntPolynomial, m: int) -> _Facets:
    """Facet normals c and supports s_c of the zonotope band(A) [-1, 1]^m.

    Each normal is the signed (l-1)-minor vector of l-1 columns g_j of the
    band matrix (l = m - deg A), made primitive with a positive leading entry;
    s_c = sum_j |c . g_j|, the coefficient 1-norm of C * A for C = sum c_i x^i.
    More than MINOR_SUM_GUARD minors, C(m, l-1) * l, raise DomainError before
    any is taken.
    """
    a = poly.coeffs
    ell = m - poly.degree
    minors = math.comb(m, ell - 1) * ell
    if minors > MINOR_SUM_GUARD:
        raise DomainError(
            f"the zonotope facets would take {minors} minors, above the guard {MINOR_SUM_GUARD}"
        )
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


def _offset_box(vv: list[Fraction], reach: Fraction) -> list[range]:
    """Integer offsets k with every |vv_i + k_i| <= reach, one range per level."""
    ranges = [range(math.ceil(-reach - vi), math.floor(reach - vi) + 1) for vi in vv]
    offsets = math.prod(len(r) for r in ranges)
    if offsets > COVERING_OFFSET_GUARD:
        raise DomainError(
            f"covering would try {offsets} integer offsets, above the guard {COVERING_OFFSET_GUARD}"
        )
    return ranges


def _least_gauge(facets: _Facets, vv: list[Fraction], stop: Fraction, box) -> Fraction:
    """min over offsets k of the gauge max_c |c . (vv + k)| / s_c, down to stop.

    The nearest offset -round(vv) is scored first, then every offset of
    box(g), g being the nearest one's gauge.  Scores are integers over the common denominator
    q * lcm(s_c) (q that of vv); an offset is scored only while it beats the
    best so far on every facet, and the search returns at the first score at
    or below stop.  A result above stop is the least gauge over those
    offsets; one at or below stop only bounds it.
    """
    q = math.lcm(*(vi.denominator for vi in vv))
    unit = math.lcm(*(s for _, s in facets))
    qv = [vi.numerator * (q // vi.denominator) for vi in vv]
    rows = [(c, sum(ci * x for ci, x in zip(c, qv)), unit // s) for c, s in facets]
    goal = math.floor(stop * q * unit)

    def score(k, best):
        worst = 0
        for c, cv, weight in rows:
            x = abs(cv + q * sum(ci * ki for ci, ki in zip(c, k))) * weight
            if x >= best:
                return best
            worst = max(worst, x)
        return worst

    best = score([-round(vi) for vi in vv], math.inf)
    if best > goal:
        for k in itertools.product(*box(Fraction(best, q * unit))):
            best = score(k, best)
            if best <= goal:
                break
    return Fraction(best, q * unit)


def is_covered(poly: IntPolynomial, m: int, eps, v) -> bool:
    """Exact decision: does some w in [-eps/2, eps/2]^m give band(A) w = v + k?

    The image of the cube is the zonotope (eps/2) Z with Z = band(A) [-1, 1]^m,
    so v + k is reached exactly when its gauge max_c |c . (v + k)| / s_c over
    the facet normals c of Z and their supports s_c is at most eps/2.  The
    least gauge is searched, in integer arithmetic, over the offsets k with
    |k + v|_inf <= (eps/2) sum|a_i|.  Degree 1 instead sweeps the levels
    directly, carrying a union of feasible intervals, which stays polynomial
    in m.  The cube is closed, so boundary contact counts as covered.  More
    than COVERING_OFFSET_GUARD offsets, or more than MINOR_SUM_GUARD minors
    for the facets, raise DomainError.
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
    box = _offset_box(vv, half * poly.coefficient_sum_abs())
    return _least_gauge(facets, vv, half, lambda g: box) <= half


# ----- exact grid threshold -----


@dataclass(frozen=True)
class CriticalEpsilonEstimate:
    poly: IntPolynomial
    m: int
    lower: Fraction
    upper: Fraction
    estimate: Fraction
    grid_resolution: int
    bisection_tol: Fraction
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
    targets that raise it are searched to their exact minimum.  lower and
    estimate are that threshold.  The reported upper bound adds the
    declared grid margin (m - d)/grid_n for targets between grid points,
    capped at the certified refined threshold which covers the whole torus;
    a grid threshold above that cap raises CertificateError.  bisection_tol
    is validated and echoed but no longer affects the result.
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
    tol = coerce_rational(bisection_tol)
    if tol <= 0:
        raise DomainError("bisection_tol must be positive")
    cap = Fraction(epsilon_bound(poly).eps_refined.hi)
    facets = _zonotope_facets(poly, m)
    width = poly.coefficient_sum_abs()

    # far-from-integer targets first, so the threshold rises early and most
    # later targets are skipped
    order = sorted(
        itertools.product(range(grid_n), repeat=ell),
        key=lambda js: -sum(min(j, grid_n - j) for j in js),
    )
    tau = Fraction(0)
    for js in order:
        vv = [Fraction(j, grid_n) for j in js]
        # an offset beating the nearest one's gauge g has |vv + k|_inf <= g * width
        gauge = _least_gauge(facets, vv, tau / 2, lambda g: _offset_box(vv, g * width))
        tau = max(tau, 2 * gauge)
        if tau > cap:
            raise CertificateError(
                f"grid threshold {tau} exceeds the certified threshold {float(cap):.6g}"
            )
    margin = Fraction(ell, grid_n)
    notes = (
        f"exact threshold over a {grid_n}^{ell} residue grid from the zonotope "
        f"facets; upper adds the grid margin {margin} and is capped at the "
        f"certified torus-wide threshold {float(cap):.6g}"
    )
    return CriticalEpsilonEstimate(
        poly=poly,
        m=m,
        lower=tau,
        upper=min(tau + margin, cap),
        estimate=tau,
        grid_resolution=grid_n,
        bisection_tol=tol,
        method_notes=notes,
    )


# ----- volume-based refutation -----


@dataclass(frozen=True)
class NonDensityCertificate:
    poly: IntPolynomial
    m: int
    eps: Fraction
    volume_bound: Fraction
    certified: bool


def certify_non_density(poly: IntPolynomial, m: int, eps) -> NonDensityCertificate:
    """Exact volume of the zonotope spanned by the eps-cube and lattice rows.

    Q can only be eps-dense if lattice translates of the cube-lattice
    parallelepiped cover R^m, which forces its volume to be at least 1; a
    volume below 1 therefore refutes density.  The volume is the standard
    minor expansion over the m + d generators, computed as exact rationals:
    choosing p lattice rows contributes eps^(m-p) times the sum of absolute
    p x p minors over column choices.  More than MINOR_SUM_GUARD minors raise
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
    total = Fraction(0)
    for p_size in range(d + 1):
        minor_sum = Fraction(0)
        for rows in itertools.combinations(range(d), p_size):
            for cols in itertools.combinations(range(m), p_size):
                if p_size == 0:
                    minor_sum += 1
                    continue
                sub = [[omega[r][c] for c in cols] for r in rows]
                minor_sum += abs(det_exact(sub))
        total += e ** (m - p_size) * minor_sum
    return NonDensityCertificate(
        poly=poly, m=m, eps=e, volume_bound=total, certified=total < 1
    )
