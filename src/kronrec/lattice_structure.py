"""The lattice of fixed-length integral recurrences and its canonical p-adic basis.

Vectors of length m whose windows of width d+1 are annihilated by the
coefficients of A form a rank-d lattice, each vector its first d entries
extended by recurrence_matrices.extend_rows.  Over the rationals it is spanned
by the rows of N (seeded with e_i, read from the integer table T = a_d^(m-d) N);
over the integers by the HNF of {y : y T = 0 mod a_d^(m-d)}, rows extended and
Gram-Toeplitz certified, where by Gauss's lemma only T's last d columns need
the congruence; over the p-adic integers by a canonical basis M built segment
by segment from the Newton polygon of A at p, each selector solved for d seeds
per row, and each selector is invertible: its determinant is a Schur function
of A's roots with one lowest-valuation monomial at a Newton-polygon vertex.
canonical_basis_M re-derives every clause of its block certificate (shape,
identity blocks, determinant valuations, row-walk valuation floors,
p-integrality) and fails if one breaks; the check shares no code with the
extension.  canonical_basis_M builds each row once as ints over one positive
denominator, from the integer solve (D X, D), certifies those int rows
through the public check_basis_certificate, and makes the record's Fractions
last.  integral_basis compares its Gram determinant with Trench's closed
form as an int pair.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import CertificateError, DomainError
from .exact_linalg import (
    PADIC_INFINITY,
    _check_int_matrix,
    _hnf,
    _int_valuation,
    det_exact,
    identity_matrix,
    is_prime,
    solve_exact,
)
from .poly_core import IntPolynomial
from .recurrence_matrices import extend_rows
from .toeplitz import LaurentSymbol, _trench_pair, gram_det

__all__ = [
    "NewtonPolygon",
    "SegmentCertificate",
    "CanonicalBasisM",
    "LatticeBases",
    "PIVOT_RULES",
    "newton_polygon",
    "basis_N",
    "scaled_basis_N",
    "canonical_basis_M",
    "check_basis_certificate",
    "integral_basis",
]

PIVOT_RULES = ("nonnegative", "positive")


class NewtonPolygon(NamedTuple):
    p: int
    points: tuple[tuple[int, int], ...]
    vertices: tuple[tuple[int, int], ...]
    slopes: tuple[Fraction, ...]
    lengths: tuple[int, ...]

    @property
    def segment_count(self) -> int:
        return len(self.slopes)

    @property
    def s(self) -> int:
        return self.pivot_index("nonnegative")

    def pivot_index(self, rule: str = "nonnegative") -> int:
        """First segment index k (1-based) whose slope passes the rule; r+1 if none."""
        if rule not in PIVOT_RULES:
            raise DomainError(f"pivot rule must be one of {PIVOT_RULES}")
        for k, sigma in enumerate(self.slopes, start=1):
            passes = sigma >= 0 if rule == "nonnegative" else sigma > 0
            if passes:
                return k
        return len(self.slopes) + 1


def newton_polygon(poly: IntPolynomial, p: int) -> NewtonPolygon:
    """Lower convex hull of the points (i, v_p(a_i)) over nonzero coefficients.

    Slopes are strictly increasing; vertices are the extreme points only
    (points interior to a segment are not vertices).
    """
    if not isinstance(p, int) or not is_prime(p):
        raise DomainError(f"p must be prime, got {p!r}")
    if poly.degree < 1:
        raise DomainError("Newton polygon needs degree >= 1")
    if poly.constant_coefficient == 0:
        raise DomainError("Newton polygon here needs a nonzero constant coefficient")
    pts = [(i, _int_valuation(abs(c), p)) for i, c in enumerate(poly.coeffs) if c != 0]

    def slope(left, right):
        return Fraction(right[1] - left[1], right[0] - left[0])

    hull: list[tuple[int, int]] = []
    for pt in pts:
        # pop while the middle point is on or above the chord: slopes must
        # strictly increase along the lower hull
        while len(hull) >= 2 and slope(hull[-2], hull[-1]) >= slope(hull[-1], pt):
            hull.pop()
        hull.append(pt)
    edges = list(zip(hull, hull[1:]))
    slopes = tuple(slope(left, right) for left, right in edges)
    lengths = tuple(right[0] - left[0] for left, right in edges)
    return NewtonPolygon(p, tuple(pts), tuple(hull), slopes, lengths)


def scaled_basis_N(poly: IntPolynomial, m: int) -> tuple[list[list[int]], int]:
    """(T, lead): lead = a_d^(m-d) and T = lead * basis_N(poly, m), built in integers.

    Entry t + d of N owes a_d^(t+1), so every division is exact; extend_rows checks each.
    """
    a, d = poly.coeffs, poly.degree
    if d < 1 or m < d:
        raise DomainError("basis_N needs 1 <= deg A <= m")
    lead = a[d] ** (m - d)
    table = [[lead * (i == j) for j in range(d)] for i in range(d)]
    extend_rows(a, table, m)
    return table, lead


def basis_N(poly: IntPolynomial, m: int) -> list[list[Fraction]]:
    """Rational basis of the recurrence kernel: row i seeds e_i and extends."""
    table, lead = scaled_basis_N(poly, m)
    return [[Fraction(x, lead) for x in row] for row in table]


class SegmentCertificate(NamedTuple):
    index: int
    slope: Fraction
    length: int
    row_start: int
    row_stop: int
    left_is_identity: bool
    right_is_identity: bool
    det_valuation: int
    expected_det_valuation: int


class CanonicalBasisM(NamedTuple):
    pivot_segment: int
    polygon: NewtonPolygon
    matrix: tuple[tuple[Fraction, ...], ...]
    valuations: tuple[tuple, ...]
    segments: tuple[SegmentCertificate, ...]


def _fail(clause: str) -> None:
    raise CertificateError(f"canonical basis certificate violated: {clause}")


def _is_scaled_identity(block: Sequence[Sequence[int]], dens: Sequence[int]) -> bool:
    """Whether row i of the block is dens[i] times e_i."""
    return all(
        x == den * (i == j) for i, (row, den) in enumerate(zip(block, dens)) for j, x in enumerate(row)
    )


def check_basis_certificate(
    poly: IntPolynomial,
    polygon: NewtonPolygon,
    s: int,
    m: int,
    rows: Sequence[Sequence[int]],
    dens: Sequence[int],
) -> tuple[tuple[tuple, ...], tuple[SegmentCertificate, ...]]:
    """Re-derive every certificate clause for a claimed canonical basis, row i = rows[i] / dens[i].

    Raises CertificateError on the first violated clause, shape first; returns
    the valuation table and the per-segment block report when all clauses hold.
    Exposed separately so the uniqueness of the basis can be probed: any
    p-unit row perturbation must break at least one clause.  Non-int entries,
    and dens that are not ints >= 1, raise DomainError.  Every clause is
    checked in integers: a window sum scales by den; an entry's valuation is
    v_p(n) - v_p(den); an identity block reads ints[j] == den [i == j]; a
    block determinant scales by the product of its rows' den; and a floor
    val >= sigma t reads val * sigma.den >= sigma.num * t.  None of these
    moves when a row and its den share a factor.
    """
    if not is_prime(polygon.p):
        raise DomainError(f"p must be a prime integer, got {polygon.p!r}")
    if len(rows) != poly.degree or len(dens) != poly.degree or any(len(row) != m for row in rows):
        _fail("deg A rows of m entries")
    _check_int_matrix(rows)
    if not all(isinstance(den, int) and den >= 1 for den in dens):
        raise DomainError("certificate denominators must be ints >= 1")
    p = polygon.p
    d = poly.degree
    r = polygon.segment_count
    walls = [v[0] for v in polygon.vertices]
    den_vals = [_int_valuation(den, p) for den in dens]
    vals = tuple(
        tuple(_int_valuation(abs(x), p) - dv if x else PADIC_INFINITY for x in row)
        for row, dv in zip(rows, den_vals)
    )

    a = poly.coeffs
    for i, row in enumerate(rows):
        for t in range(m - d):
            if sum(map(operator.mul, a, row[t : t + d + 1])) != 0:
                _fail(f"row {i + 1} is not a recurrence vector")
    for i, (vrow, dv) in enumerate(zip(vals, den_vals)):
        # no valuation in a row falls below -v_p(den)
        if dv:
            for j, v in enumerate(vrow):
                if v < 0:
                    _fail(f"entry ({i + 1},{j + 1}) is not p-integral")

    segments = []
    for k in range(1, r + 1):
        lo, hi = walls[k - 1], walls[k]
        sigma = polygon.slopes[k - 1]
        num, q = sigma.numerator, sigma.denominator
        length = polygon.lengths[k - 1]
        # block triangularity of the two d-column flanks
        for i in range(lo, hi):
            if any(rows[i][:lo]):
                _fail(f"left block below the diagonal is nonzero in segment {k}")
            if any(rows[i][m - d + hi : m]):
                _fail(f"right block above the diagonal is nonzero in segment {k}")
        b_block = [rows[i][lo:hi] for i in range(lo, hi)]
        c_block = [rows[i][m - d + lo : m - d + hi] for i in range(lo, hi)]
        b_is_id = _is_scaled_identity(b_block, dens[lo:hi])
        c_is_id = _is_scaled_identity(c_block, dens[lo:hi])
        expected = int(sigma * length * (m - d)) if k >= s else int(-sigma * length * (m - d))
        if k < s:
            if not b_is_id:
                _fail(f"segment {k} before the pivot must have an identity left block")
            det = det_exact(c_block).numerator
        else:
            if not c_is_id:
                _fail(f"segment {k} at or after the pivot must have an identity right block")
            det = det_exact(b_block).numerator
        det_val = _int_valuation(abs(det), p) - sum(den_vals[lo:hi]) if det else PADIC_INFINITY
        if det_val != expected:
            _fail(
                f"segment {k} determinant valuation {det_val} differs from expected {expected}"
            )
        # row-walk valuation floors away from the anchored identity diagonal
        for i in range(lo, hi):
            vrow = vals[i]
            if k < s:
                for t in range(1, m - i):
                    v = vrow[i + t]
                    if v is not PADIC_INFINITY and v * q < -num * t:
                        _fail(f"row {i + 1} violates the rightward valuation floor at offset {t}")
            else:
                anchor = m - d + i
                for t in range(1, anchor + 1):
                    v = vrow[anchor - t]
                    if v is not PADIC_INFINITY and v * q < num * t:
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
                det_valuation=det_val,
                expected_det_valuation=expected,
            )
        )
    return vals, tuple(segments)


def canonical_basis_M(
    poly: IntPolynomial,
    p: int,
    m: int,
    pivot_rule: str = "nonnegative",
) -> CanonicalBasisM:
    """Canonical p-adic basis of the length-m recurrence lattice, with certificate.

    One column-selector per Newton polygon segment: segments before the pivot
    use the right vertex of the segment, later segments the left one.  Rows
    w_{k-1}+1 .. w_k of the re-normalized rational basis become the rows of M.
    Every clause of the block certificate is re-checked on the result.

    Every selector is invertible if its wall w is a Newton-polygon vertex and
    m >= d.  Column j of N is x^j mod A, so up to sign det T_xi is a_d^(d(m-d))
    times the Schur function s_((m-d)^(d-w)) of A's roots (the bialternant
    formula, Macdonald I.3, as in toeplitz.trench_data).  A root fills at most
    m - d boxes of that rectangle, and at a vertex the d - w roots right of w
    have strictly smaller p-adic valuation than the rest, so the one tableau
    filled with them (coefficient 1) has the least valuation and nothing
    cancels it: v_p(det T_xi) = (m-d)((d-1) v_p(a_d) + v_p(a_w)), finite.  Off
    a vertex a minor can vanish: 1 + x + x^2 at w = 1, m = 4 selects columns
    0 and 3, and x^3 = 1 mod A.
    """
    d = poly.degree
    if not poly.is_primitive:
        raise DomainError("canonical basis needs a primitive polynomial")
    if poly.constant_coefficient == 0:
        raise DomainError("canonical basis needs a nonzero constant coefficient")
    if m < d:
        raise DomainError("canonical basis needs m >= deg A")
    polygon = newton_polygon(poly, p)
    s = polygon.pivot_index(pivot_rule)
    r = polygon.segment_count
    walls = [v[0] for v in polygon.vertices]  # w_0 = 0 < w_1 < ... < w_r = d
    # N_xi^-1 N = T_xi^-1 T: the scale a_d^(m-d) cancels
    table, lead = scaled_basis_N(poly, m)

    @functools.cache
    def seeds_for(w: int) -> tuple[list[list[int]], int]:
        # row i of T_xi^-1 T is a recurrence vector seeded by row i of T_xi^-1 (lead I)
        cols = list(range(w)) + list(range(m - d + w, m))
        return solve_exact([[row[c] for c in cols] for row in table], [row[:d] for row in table])

    # each row once, as ints over one positive den: a row of DX over D in lowest terms,
    # scaled by |lead|, extends exactly (entry t + d owes den a_d^(t+1)); one gcd reduces it
    rows, dens = [], []
    scale = abs(lead)
    for k in range(1, r + 1):
        w = walls[k] if k < s else walls[k - 1]
        dx, det = seeds_for(w)
        for seed in dx[walls[k - 1] : walls[k]]:
            g = math.gcd(det, *seed) if det > 0 else -math.gcd(det, *seed)
            row, den = [x // g * scale for x in seed], det // g * scale
            extend_rows(poly.coeffs, [row], m)
            g = math.gcd(den, *row)
            rows.append([x // g for x in row])
            dens.append(den // g)

    vals, segments = check_basis_certificate(poly, polygon, s, m, rows, dens)

    return CanonicalBasisM(
        pivot_segment=s,
        polygon=polygon,
        matrix=tuple(tuple(Fraction(x, den) for x in row) for row, den in zip(rows, dens)),
        valuations=vals,
        segments=segments,
    )


class LatticeBases(NamedTuple):
    z_basis: tuple[tuple[int, ...], ...]
    index: int


def integral_basis(poly: IntPolynomial, m: int) -> LatticeBases:
    """HNF Z-basis of the saturated integral lattice, and its index in the Z-span of N.

    N starts with an identity block, so z -> z[:d] maps the integral lattice
    onto L_y = {y in Z^d : y T = 0 mod a_d^(m-d)}; its canonical HNF, built one
    column congruence at a time, gives the HNF Z-basis rows z = y N, each y
    extended along the recurrence, and its diagonal product is the index.
    Certificate: extend_rows checks every division by a_d along the way, and the Gram
    determinant is the Toeplitz determinant of A(x)A(1/x) (Trench's closed
    form), which a basis of a sublattice of index k misses by k^2.

    Only the columns max(d, m - d) .. m - 1 need their congruence, min(d, m - d)
    HNF steps: a rational recurrence vector z whose first d and last d entries
    are integers is integral.  Proof: with Z = sum z_k x^k and A~ = x^d A(1/x),
    the x^(t+d) coefficient of A~ Z is the window sum at t, which vanishes, so
    A~ Z = P + x^m Q with deg P, deg Q < d; P uses only z_0 .. z_(d-1) and Q
    only z_(m-d) .. z_(m-1), with integer weights, so A~ Z is integral, and A~
    is primitive, so Z is integral by Gauss's lemma.  The exact divisions by a_d
    along the recurrence re-derive this at run time.
    """
    d = poly.degree
    if poly.constant_coefficient == 0:
        raise DomainError("integral basis needs a nonzero constant coefficient")
    if not poly.is_primitive:
        raise DomainError("integral basis needs a primitive polynomial")
    if d < 1 or m < d:
        raise DomainError("integral basis needs m >= deg A >= 1")
    table, lead = scaled_basis_N(poly, m)
    # for each column t of the last window past T's identity block, rows 1..d of
    # the HNF of [y t mod |lead| | y] and the fence [|lead| | 0] are the HNF of the y
    # that also pass y t = 0 mod |lead|; each such lattice contains |lead| Z^d, so
    # no y-fences.  The rows are integral by construction, and no transform is needed
    fence = [abs(lead)] + [0] * d
    coords = identity_matrix(d)
    for col in zip(*(row[max(d, m - d) :] for row in table)):
        rows = [[sum(a * b for a, b in zip(y, col)) % abs(lead)] + y for y in coords]
        coords = [row[1:] for row in _hnf(rows + [fence], d + 1)[1 : d + 1]]
    # a remainder mod a_d would make z = y N non-integral (y not in L_y): extend_rows raises
    z_rows = [list(y) for y in coords]
    extend_rows(poly.coeffs, z_rows, m)
    # A is primitive, so the band rows [A]_(m-d) span the orthogonal lattice over
    # Z, and a basis of the whole lattice has their Gram determinant: the closed
    # form's pair (num, den) against the integer Gram determinant, cross-multiplied
    if m > d:
        num, den = _trench_pair(LaurentSymbol.from_polynomial(poly), m - d)
        if gram_det(z_rows).determinant.numerator * den != num:
            raise CertificateError("Z-basis does not span the whole integral lattice")
    return LatticeBases(
        z_basis=tuple(tuple(row) for row in z_rows),
        index=math.prod(row[i] for i, row in enumerate(coords)),
    )
