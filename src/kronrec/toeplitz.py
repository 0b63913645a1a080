"""Banded Toeplitz determinants and the Gram machinery around them.

The Gram matrix of the rows of a band matrix [B]_l is the l x l Toeplitz
matrix of the Laurent symbol B(x)B(1/x), which puts two independent
evaluation routes side by side: a brute-force determinant of the Toeplitz
matrix, and Trench's closed form

    D_{n-1}(C) = (-1)^(n s) c_s^n G_n / G_0.

G_n / G_0 is the Schur function s_{(n^s)} of the roots of x^r C(x) (the
bialternant formula), which Jacobi-Trudi writes as an s x s determinant of
complete homogeneous sums h_t.  Those sums obey a linear recurrence in the
symbol's own coefficients, so the closed form runs in integer arithmetic for
every rational symbol and never needs the roots (Macdonald, Symmetric
Functions and Hall Polynomials, I.3; Boettcher and Grudsky, Spectral
Properties of Banded Toeplitz Matrices, the Baxter-Schmidt formula).  On
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

from .errors import CertificateError, DomainError, SingularMatrixError
from .exact_linalg import coerce_rational, det_exact, leading_minors, mat_mul
from .poly_core import IntPolynomial, mahler_measure
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
    determinant: Fraction

    @property
    def matrix_size(self) -> int:
        return self.n

    @property
    def exact(self) -> bool:
        # the closed form has one route, in exact arithmetic
        return True


def trench_data(symbol: LaurentSymbol, n: int) -> TrenchData:
    """D_{n-1} from Trench's closed form, exactly, without the symbol's roots.

    With the symbol scaled to integers c_{-r}..c_s by den, the lcm of its
    denominators, H_0 = 1 and H_t = -sum_{i=1}^{min(t, r+s)} c_{s-i} c_s^(i-1)
    H_{t-i} give H_t = c_s^t h_t, the complete homogeneous sums of the roots
    of x^r C(x).  Jacobi-Trudi writes G_n / G_0 = s_{(n^s)} = det[h_{n-i+j}],
    so D_{n-1} = (-1)^(n s) c_s^(n (1-s)) det[H_{n-i+j}]_{i,j=1..s} / den^n,
    with H_t = 0 for t < 0 and the empty determinant 1.
    """
    if n < 1:
        raise DomainError("the closed form needs n >= 1")
    r, s = symbol.r, symbol.s
    den = math.lcm(*(c.denominator for c in symbol.coeffs))
    c = [int(x * den) for x in symbol.coeffs]  # c[j + r] is den * c_j
    c_s = c[-1]
    weights = [c[-1 - i] * c_s ** (i - 1) for i in range(1, r + s + 1)]
    h = [1]  # h[t] is H_t
    for t in range(1, n + s):
        h.append(-sum(w * h[t - i] for i, w in enumerate(weights[:t], 1)))
    minor = det_exact([[h[n - i + j] if n - i + j >= 0 else 0 for j in range(s)] for i in range(s)])
    det = (-1) ** (n * s) * Fraction(c_s) ** (n * (1 - s)) * minor / den**n
    return TrenchData(symbol, n, det)


def trench_det(symbol: LaurentSymbol, n: int) -> Fraction:
    """The value D_{n-1}(C) of the closed form."""
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
