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
top of the determinants sit Gram-ratio convergence studies, both read off
the Toeplitz matrix G_l of B(x)B(1/x): growth of D_l / D_{l-1} toward the
squared Mahler measure, and the bounded ratios obtained by adjoining
standard basis vectors e_S to the rows B_r.  Adjoining them leaves the
Schur complement G_l - E_l^T E_l of the identity block, where E_l holds
<e_i, B_r> = b_{i-1-r}; that vanishes for r >= i, and i <= deg B, so only
the leading deg B x deg B corner of G_l changes.

Symbols are kept rational-real: every coefficient is stored as a Fraction,
which covers all symbols of the form B(x)B(1/x) for rational B; the exact
routes scale them to integers once and slice every Toeplitz row from those.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import CertificateError, DomainError, SingularMatrixError
from .exact_linalg import clear_denominators, coerce_rational, det_exact, leading_minors
from .poly_core import IntPolynomial, mahler_measure
from .intervals import Interval

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
    def from_polynomial(cls, poly: IntPolynomial) -> "LaurentSymbol":
        """Autocorrelation symbol B(x)B(1/x); r = s = deg B."""
        b = poly.coeffs  # integer sums; __post_init__ makes them Fractions
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


def _toeplitz_rows(symbol: LaurentSymbol, size: int) -> tuple[list[list[int]], int]:
    """(rows, den): den the lcm of the symbol's denominators, rows[j][k] = den * c_{k-j}."""
    c, den = clear_denominators(symbol.coeffs)
    padded = [0] * (size - 1) + c + [0] * (size - 1)
    start = size - 1 + symbol.r  # padded[start + k - j] is den * c_{k-j}
    return [padded[start - j : start - j + size] for j in range(size)], den


def toeplitz_det_direct(symbol: LaurentSymbol, n: int) -> Fraction:
    """Exact determinant of the (n+1) x (n+1) matrix with entry (j,k) = c_{k-j}."""
    if n < 0:
        raise DomainError("matrix size index n must be >= 0")
    rows, den = _toeplitz_rows(symbol, n + 1)
    return det_exact(rows) / den ** (n + 1)


# ----- Trench's closed form -----


@dataclass(frozen=True)
class TrenchData:
    determinant: Fraction

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
    c, den = clear_denominators(symbol.coeffs)  # c[j + r] is den * c_j
    c_s = c[-1]
    weights = [c[-1 - i] * c_s ** (i - 1) for i in range(1, r + s + 1)]
    h = [1]  # h[t] is H_t
    for t in range(1, n + s):
        h.append(-sum(w * h[t - i] for i, w in enumerate(weights[:t], 1)))
    minor = det_exact([[h[n - i + j] if n - i + j >= 0 else 0 for j in range(s)] for i in range(s)])
    det = (-1) ** (n * s) * Fraction(c_s) ** (n * (1 - s)) * minor / den**n
    return TrenchData(det)


def trench_det(symbol: LaurentSymbol, n: int) -> Fraction:
    """The value D_{n-1}(C) of the closed form."""
    return trench_data(symbol, n).determinant


# ----- Gram determinants and their ratios -----


@dataclass(frozen=True)
class GramResult:
    determinant: Fraction


def gram_det(vectors: Sequence[Sequence]) -> GramResult:
    """Exact Gram determinant det(<u_i, u_j>); the empty family gives 1.

    Int entries stay ints, so an integer family is eliminated in integers.
    """
    vs = [[x if type(x) is int else coerce_rational(x) for x in vec] for vec in vectors]
    if not vs:
        return GramResult(Fraction(1))
    width = len(vs[0])
    if any(len(vec) != width for vec in vs):
        raise DomainError("Gram vectors must share one length")
    return GramResult(det_exact([[sum(map(operator.mul, u, v)) for v in vs] for u in vs]))


def lyons_ratios(poly: IntPolynomial, indices, ell_max: int) -> list[Fraction]:
    """det G(e_{s in S}, B_1..B_l) / det G(B_1..B_l) for l = 1..ell_max, monic B = A / a_d.

    Adjoining standard basis vectors perturbs finitely many entries of the
    Toeplitz Gram matrix, and the ratio converges as l grows; the limit is
    probed numerically, never asserted.  Both minors hold l rows of B, so
    a_d^(-2l) cancels and both are taken on A's integer rows A_0..A_{l-1}.
    Their Gram matrix G_l is the Toeplitz matrix of A(x)A(1/x) that
    gram_growth eliminates, and its leading minors are the denominators.
    With the e_S rows first, a numerator is the Schur complement

        det [[I_k, E_l], [E_l^T, G_l]] = det(G_l - E_l^T E_l),

    with E_l[i][r] = <e_i, A_r> = a_{i-1-r}.  That vanishes for r >= i, and
    i <= d, so E_l^T E_l lives in the leading d x d corner: one more pass
    over G_L with that corner corrected gives every numerator.  No minor
    vanishes, so no row is swapped: the rows projected off e_S stay
    independent, their last l columns a triangle with diagonal a_d.
    """
    d = poly.degree
    if d < 1:
        raise DomainError("the ratio needs deg A >= 1")
    if ell_max < 1:
        raise DomainError("the ratio needs l >= 1")
    chosen = sorted(set(int(i) for i in indices))
    if any(i < 1 or i > d for i in chosen):
        raise DomainError(f"basis indices must sit in 1..{d}")
    a = poly.coeffs
    if a[0] == 0:
        raise DomainError("coefficient sequence needs a nonzero constant entry")
    # A is integral, so its symbol's rows need no scale: den = 1
    rows, _ = _toeplitz_rows(LaurentSymbol.from_polynomial(poly), ell_max)
    denominators = leading_minors(rows)  # eliminates a copy: rows stays as built
    corner = min(d, ell_max)
    for r in range(corner):
        for c in range(corner):
            rows[r][c] -= sum(a[i - 1 - r] * a[i - 1 - c] for i in chosen if i > max(r, c))
    return [num / den for num, den in zip(leading_minors(rows), denominators)]


def lyons_ratio(poly: IntPolynomial, indices, ell: int) -> Fraction:
    """The last of lyons_ratios(poly, indices, ell): the ratio at l = ell."""
    return lyons_ratios(poly, indices, ell)[-1]


@dataclass(frozen=True)
class GrowthReport:
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
    # B is integral, so its symbol's rows need no scale: den = 1
    rows, _ = _toeplitz_rows(LaurentSymbol.from_polynomial(poly), ell_max)
    try:
        dets = tuple(leading_minors(rows))
    except SingularMatrixError as exc:
        raise CertificateError("a Gram determinant of independent rows vanished") from exc
    ratios = tuple(dets[i + 1] / dets[i] for i in range(len(dets) - 1))
    m = mahler_measure(poly).interval
    return GrowthReport(
        determinants=dets,
        ratios=ratios,
        mahler_squared=m.mul(m),
    )
