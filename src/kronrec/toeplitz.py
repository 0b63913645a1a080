"""Banded Toeplitz determinants and the Gram machinery around them.

The Gram matrix of the rows of a band matrix [B]_l is the l x l Toeplitz
matrix of the Laurent symbol B(x)B(1/x), which puts two independent
evaluation routes side by side: a brute-force determinant of the Toeplitz
matrix, and the closed form

    D_{n-1}(C) = (-1)^(n s) c_s^n G_n / G_0

driven by confluent Vandermonde determinants at the symbol's roots.  The
closed form runs exactly over the rationals whenever every root is rational
and otherwise in escalating multiprecision with per-root row scaling.  On
top of the determinants sit Gram-ratio convergence studies (growth of
D_l / D_{l-1} toward the squared Mahler measure, and the bounded ratios
obtained by adjoining standard basis vectors) and the biorthonormal-pair
identities used to control them.

Symbols are kept rational-real: every coefficient is stored as a Fraction,
which covers all symbols of the form B(x)B(1/x) for rational B.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .errors import CertificateError, DomainError, KronrecError, SingularMatrixError
from .exact_linalg import coerce_rational, det_exact, leading_minors, mat_mul
from .poly_core import IntPolynomial, _aberth, _decompose, mahler_measure, working_dps
from .intervals import Interval
from .recurrence_matrices import band_rows

__all__ = [
    "LaurentSymbol",
    "TrenchData",
    "GramResult",
    "GrowthReport",
    "toeplitz_det_direct",
    "trench_data",
    "trench_det",
    "gram_det",
    "gram_growth",
    "lyons_ratio",
    "lyons_ratios",
    "biorthonormal_check",
]

_MAX_TRENCH_DPS = 1600


@dataclass(frozen=True)
class LaurentSymbol:
    """c_{-r} .. c_s of sum c_j x^j, ascending, with both ends nonzero."""

    coeffs: tuple[Fraction, ...]
    r: int
    s: int

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "coeffs", tuple(coerce_rational(c) for c in self.coeffs)
        )
        if self.r < 0 or self.s < 0:
            raise DomainError("band widths must be nonnegative")
        if len(self.coeffs) != self.r + self.s + 1:
            raise DomainError("coefficient count must equal r + s + 1")
        if self.coeffs[0] == 0 or self.coeffs[-1] == 0:
            raise DomainError("outermost symbol coefficients must be nonzero")

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, r: int) -> "LaurentSymbol":
        cs = tuple(coeffs)
        return cls(cs, r, len(cs) - 1 - r)

    @classmethod
    def from_polynomial(cls, poly) -> "LaurentSymbol":
        """Autocorrelation symbol B(x)B(1/x); r = s = deg B."""
        if isinstance(poly, IntPolynomial):
            b = [Fraction(c) for c in poly.coeffs]
        else:
            b = [coerce_rational(c) for c in poly]
            if not b or b[-1] == 0:
                raise DomainError("need a nonempty coefficient list, lead nonzero")
        d = len(b) - 1
        cs = []
        for j in range(-d, d + 1):
            cs.append(sum(b[j + k] * b[k] for k in range(max(0, -j), min(d, d - j) + 1)))
        # powers of x in B do not change B(x)B(1/x); trim the zero fringe
        width = d
        while width > 0 and cs[0] == 0:
            cs = cs[1:-1]
            width -= 1
        return cls(tuple(cs), width, width)

    def coefficient(self, j: int) -> Fraction:
        if -self.r <= j <= self.s:
            return self.coeffs[j + self.r]
        return Fraction(0)

    @property
    def is_hermitian(self) -> bool:
        return all(self.coefficient(-j) == self.coefficient(j) for j in range(self.s + 1))


def _toeplitz_rows(symbol: LaurentSymbol, size: int) -> list[list[Fraction]]:
    return [[symbol.coefficient(k - j) for k in range(size)] for j in range(size)]


def toeplitz_det_direct(symbol: LaurentSymbol, n: int) -> Fraction:
    """Exact determinant of the (n+1) x (n+1) matrix with entry (j,k) = c_{k-j}."""
    if n < 0:
        raise DomainError("matrix size index n must be >= 0")
    return det_exact(_toeplitz_rows(symbol, n + 1))


# ----- Trench's closed form -----


@dataclass(frozen=True)
class TrenchData:
    symbol: LaurentSymbol
    n: int
    roots: tuple[tuple[complex, int], ...]
    g0: object
    gn: object
    determinant: object
    exact: bool
    dps_used: int | None

    @property
    def matrix_size(self) -> int:
        return self.n


def _derivative_row(exponents: Sequence[int], xi, j: int, one):
    row = []
    for e in exponents:
        ff = 1
        for t in range(j):
            ff *= e - t
        row.append(one * 0 if ff == 0 else ff * xi ** (e - j) * one)
    return row


def _gamma_exponents(r: int, s: int, n: int) -> list[int]:
    return list(range(r)) + list(range(n + r, n + r + s))


def trench_data(symbol: LaurentSymbol, n: int) -> TrenchData:
    """D_{n-1} via the closed form; exact when all symbol roots are rational.

    The roots of x^r C(x) come from poly_core's exact decomposition: rational
    roots exactly, the rest from its Aberth iteration at the working
    precision, each level warm-started from the previous level's centres.
    The numeric path scales each root block by max(1, |xi|) powers so the
    two confluent Vandermonde determinants stay in range, and escalates the
    working precision when the Aberth step fails or G_0 vanishes, until two
    consecutive levels agree.
    """
    if n < 1:
        raise DomainError("the closed form needs n >= 1")
    r, s = symbol.r, symbol.s
    if r + s == 0:
        return TrenchData(symbol, n, (), Fraction(1), Fraction(1),
                          symbol.coefficient(0) ** n, True, None)
    denom = math.lcm(*(c.denominator for c in symbol.coeffs))
    _, rational, leftover = _decompose(IntPolynomial(tuple(int(c * denom) for c in symbol.coeffs)))
    exps_n = _gamma_exponents(r, s, n)
    exps_0 = _gamma_exponents(r, s, 0)
    c_s = symbol.coefficient(s)

    if not leftover:
        one = Fraction(1)
        rows_n, rows_0 = [], []
        for xi, mult in rational:
            for j in range(mult):
                rows_n.append(_derivative_row(exps_n, xi, j, one))
                rows_0.append(_derivative_row(exps_0, xi, j, one))
        g0 = det_exact(rows_0)
        if g0 == 0:
            raise CertificateError("confluent Vandermonde of distinct roots vanished")
        gn = det_exact(rows_n)
        det = (-1) ** (n * s) * c_s**n * gn / g0
        roots = tuple((complex(xi), mult) for xi, mult in rational)
        return TrenchData(symbol, n, roots, g0, gn, det, True, None)

    dps = working_dps(60)
    previous = None
    centres = [None] * len(leftover)
    while dps <= _MAX_TRENCH_DPS:
        with mpmath.workdps(dps):
            found = [_aberth(fac, dps, start) for (fac, _), start in zip(leftover, centres)]
            if any(got is None for got in found):
                dps *= 2
                previous = None
                continue
            centres = [got[0] for got in found]
            root_blocks: list[tuple[object, int]] = [
                (mpmath.mpf(xi.numerator) / xi.denominator, mult)
                for xi, mult in rational
            ]
            for zs, (_, mult) in zip(centres, leftover):
                root_blocks.extend((z, mult) for z in zs)
            rows_n, rows_0 = [], []
            scale_base = mpmath.mpf(c_s.numerator) / c_s.denominator
            for xi, mult in root_blocks:
                sigma = max(mpmath.mpf(1), abs(xi))
                scale_base *= sigma**mult
                for j in range(mult):
                    row_n = _derivative_row(exps_n, xi, j, mpmath.mpf(1))
                    row_0 = _derivative_row(exps_0, xi, j, mpmath.mpf(1))
                    rows_n.append([x / sigma ** (n + r + s - 1) for x in row_n])
                    rows_0.append([x / sigma ** (r + s - 1) for x in row_0])
            g0 = mpmath.det(mpmath.matrix(rows_0))
            if abs(g0) < mpmath.mpf(10) ** (-(dps // 2)):
                dps *= 2
                previous = None
                continue
            gn = mpmath.det(mpmath.matrix(rows_n))
            value = (-1) ** (n * s) * scale_base**n * gn / g0
            if abs(value.imag) > mpmath.mpf(10) ** (-(dps // 3)) * (1 + abs(value.real)):
                dps *= 2
                previous = None
                continue
            value = value.real
            if previous is not None:
                agree = abs(value - previous) <= mpmath.mpf(10) ** (-13) * max(
                    mpmath.mpf(1), abs(value)
                )
                if agree:
                    roots = tuple(
                        (complex(xi), mult) for xi, mult in root_blocks
                    )
                    return TrenchData(
                        symbol, n, roots, complex(g0), complex(gn),
                        float(value), False, dps,
                    )
            previous = value
        dps *= 2
    raise KronrecError(
        "Trench evaluation did not stabilize below the precision ceiling"
    )


def trench_det(symbol: LaurentSymbol, n: int):
    """The value D_{n-1}(C) of the closed form (exact Fraction or float)."""
    return trench_data(symbol, n).determinant


# ----- Gram determinants and their ratios -----


@dataclass(frozen=True)
class GramResult:
    determinant: Fraction
    count: int


def _gram_matrix(vectors: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Exact <v_i, v_j>, with the dot products taken on integer multiples of each vector."""
    scaled = []
    for vec in vectors:
        den = math.lcm(*(x.denominator for x in vec))
        scaled.append(([x.numerator * (den // x.denominator) for x in vec], den))
    n = len(scaled)
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i, (u, du) in enumerate(scaled):
        for j in range(i, n):
            v, dv = scaled[j]
            gram[i][j] = gram[j][i] = Fraction(sum(map(operator.mul, u, v)), du * dv)
    return gram


def gram_det(vectors: Sequence[Sequence]) -> GramResult:
    """Exact Gram determinant det(<u_i, u_j>); the empty family gives 1."""
    vs = [[coerce_rational(x) for x in vec] for vec in vectors]
    if not vs:
        return GramResult(Fraction(1), 0)
    width = len(vs[0])
    if any(len(vec) != width for vec in vs):
        raise DomainError("Gram vectors must share one length")
    return GramResult(det_exact(_gram_matrix(vs)), len(vs))


def lyons_ratios(poly: IntPolynomial, indices, ell_max: int) -> list[Fraction]:
    """det G(e_{s in S}, B_1..B_l) / det G(B_1..B_l) for l = 1..ell_max, monic B = A / a_d.

    Adjoining standard basis vectors perturbs finitely many entries of the
    Toeplitz Gram matrix, and the resulting ratio converges as l grows; the
    limit is probed numerically, never asserted.  With the e_S rows first,
    every numerator is a leading principal minor of G(e_S, B_1..B_L) and
    every denominator one of G(B_1..B_L), so two elimination passes give
    all ell_max ratios.
    """
    d = poly.degree
    if d < 1:
        raise DomainError("the ratio needs deg A >= 1")
    if ell_max < 1:
        raise DomainError("the ratio needs l >= 1")
    chosen = sorted(set(int(i) for i in indices))
    if any(i < 1 or i > d for i in chosen):
        raise DomainError(f"basis indices must sit in 1..{d}")
    lead = poly.leading_coefficient
    rows = band_rows([Fraction(c, lead) for c in poly.coeffs], ell_max)
    width = ell_max + d
    e_rows = [[int(c == i - 1) for c in range(width)] for i in chosen]
    numerators = leading_minors(_gram_matrix(e_rows + rows))[len(chosen) :]
    denominators = leading_minors(_gram_matrix(rows))
    return [num / den for num, den in zip(numerators, denominators)]


def lyons_ratio(poly: IntPolynomial, indices, ell: int) -> Fraction:
    """The last of lyons_ratios(poly, indices, ell): the ratio at l = ell."""
    return lyons_ratios(poly, indices, ell)[-1]


@dataclass(frozen=True)
class GrowthReport:
    poly: IntPolynomial
    ell_max: int
    determinants: tuple[Fraction, ...]
    ratios: tuple[Fraction, ...]
    mahler_squared: Interval


def gram_growth(poly: IntPolynomial, ell_max: int) -> GrowthReport:
    """det G(B_1..B_l) for l = 1..ell_max and the successive ratios.

    The determinants are the leading principal minors of the ell_max-square
    Toeplitz matrix of B(x)B(1/x), read off one elimination pass.  The
    ratios approach the squared Mahler measure of B when no root sits
    on the unit circle; the certified enclosure of that limit rides along.
    """
    if poly.degree < 1:
        raise DomainError("growth study needs deg B >= 1")
    if ell_max < 1:
        raise DomainError("growth study needs ell_max >= 1")
    symbol = LaurentSymbol.from_polynomial(poly)
    try:
        dets = tuple(leading_minors(_toeplitz_rows(symbol, ell_max)))
    except SingularMatrixError as exc:
        raise CertificateError("a Gram determinant of independent rows vanished") from exc
    ratios = tuple(dets[i + 1] / dets[i] for i in range(len(dets) - 1))
    m = mahler_measure(poly).interval
    return GrowthReport(
        poly=poly,
        ell_max=ell_max,
        determinants=dets,
        ratios=ratios,
        mahler_squared=m.mul(m),
    )


# ----- biorthonormal pairs -----


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
    gram_u = _gram_matrix(us)
    gram_v = _gram_matrix(vs)
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
