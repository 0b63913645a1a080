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
A row is a band slice: the at most r + s + 1 entries from its first band
column to its last, with its start column beside it, and the slices go as
they are to exact_linalg's private span determinant, so a matrix of order
L is built and eliminated in O(L (r + s)^2) steps with no zero outside the
band ever stored.  A palindromic symbol, B(x)B(1/x) among them, gives a
symmetric matrix, whose leading minors come from the upper band alone: the
Gram studies pass the integer autocorrelation c_0..c_d of B once for every
row, and the direct determinant does the same unless a leading minor
vanishes, when it hands over to the swapping elimination.  Both Gram
studies check, in integers, that their ratios never increase, and
gram_growth that the certified M(B)^2 lies below its last ratio.  Their
results stay int minors, and so does Trench's closed form, an unreduced
int pair: a Fraction is built once per value, only where trench_det,
lyons_ratios or GrowthReport.ratios hand one out, and the command line
writes its reports from the ints.
"""

from __future__ import annotations

import operator
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import CertificateError, DomainError, SingularMatrixError
from .exact_linalg import _det_spans, _symmetric_band_minors, clear_denominators, coerce_rational, det_exact
from .poly_core import IntPolynomial, mahler_measure
from .intervals import Interval
from .recurrence_matrices import extend_rows

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


class _LaurentSymbolFields(NamedTuple):
    coeffs: tuple[Fraction, ...]
    r: int
    s: int


class LaurentSymbol(_LaurentSymbolFields):
    """c_{-r} .. c_s of sum c_j x^j, ascending, with both ends nonzero."""

    __slots__ = ()

    def __new__(cls, coeffs: Sequence, r: int, s: int) -> "LaurentSymbol":
        coeffs = tuple(coerce_rational(c) for c in coeffs)
        if r < 0 or s < 0:
            raise DomainError("band widths must be nonnegative")
        if len(coeffs) != r + s + 1:
            raise DomainError("coefficient count must equal r + s + 1")
        if coeffs[0] == 0 or coeffs[-1] == 0:
            raise DomainError("outermost symbol coefficients must be nonzero")
        return super().__new__(cls, coeffs, r, s)

    @classmethod
    def from_coefficients(cls, coeffs: Sequence, r: int) -> "LaurentSymbol":
        cs = tuple(coeffs)
        return cls(cs, r, len(cs) - 1 - r)

    @classmethod
    def from_polynomial(cls, poly: IntPolynomial) -> "LaurentSymbol":
        """Autocorrelation symbol B(x)B(1/x); r = s = deg B."""
        c = _autocorrelation(poly)  # integer sums; __new__ makes them Fractions
        return cls((*c[:0:-1], *c), len(c) - 1, len(c) - 1)


def _autocorrelation(poly: IntPolynomial) -> list[int]:
    """c_0..c_w of B(x)B(1/x) = sum_t c_|t| x^t, with c_t = sum_k b_k b_(k+t).

    Powers of x in B do not change the symbol, so the list stops at its
    last nonzero entry: w is deg B less the order of B at 0.
    """
    b = poly.coeffs
    c = [sum(map(operator.mul, b, b[t:])) for t in range(len(b))]
    while not c[-1]:
        c.pop()
    return c


def _toeplitz_rows(c: list[int], r: int, size: int) -> tuple[list[list[int]], list[int]]:
    """(rows, starts): the row spans of the size x size matrix with entry (j, k) = c[k - j + r].

    c is a symbol's coefficients c_{-r}..c_s, cleared to ints.  Row j is its
    band slice: the columns k from starts[j] = max(j - r, 0) up to
    min(j + s, size - 1), the only ones where c_{k-j} can be nonzero.
    """
    starts = [max(j - r, 0) for j in range(size)]
    return [c[s - j + r : size - j + r] for j, s in enumerate(starts)], starts


def toeplitz_det_direct(symbol: LaurentSymbol, n: int) -> Fraction:
    """Exact determinant of the (n+1) x (n+1) matrix with entry (j,k) = c_{k-j}.

    A palindromic symbol gives a symmetric matrix, eliminated on its upper
    band; any other, or a vanishing leading minor there, takes the swapping
    pass over the band's row spans.
    """
    if n < 0:
        raise DomainError("matrix size index n must be >= 0")
    c, den = clear_denominators(symbol.coeffs)  # c[i] is den * c_{i-r}
    r = symbol.r
    if r == symbol.s and c == c[::-1]:
        try:
            return Fraction(_symmetric_band_minors([c[r:]] * (n + 1))[-1], den ** (n + 1))
        except SingularMatrixError:
            pass
    return Fraction(_det_spans(*_toeplitz_rows(c, r, n + 1)), den ** (n + 1))


# ----- Trench's closed form -----


class TrenchData(NamedTuple):
    determinant: Fraction

    @property
    def exact(self) -> bool:
        # the closed form has one route, in exact arithmetic
        return True


def _trench_pair(symbol: LaurentSymbol, n: int) -> tuple[int, int]:
    """D_{n-1} from Trench's closed form as an integer pair (num, den), den != 0.

    With the symbol scaled to integers c_{-r}..c_s by den, the lcm of its
    denominators, extend_rows runs H_t = -sum_{i=1}^{r+s} c_{s-i} c_s^(i-1)
    H_{t-i} from the seeds H_(1-r-s)..H_0 = 0, ..., 0, 1 to H_t = c_s^t h_t, the
    complete homogeneous sums of the roots of x^r C(x).  Jacobi-Trudi writes
    G_n / G_0 = s_{(n^s)} = det[h_{n-i+j}], so D_{n-1} = (-1)^(n s)
    c_s^(n (1-s)) det[H_{n-i+j}]_{i,j=1..s} / den^n, the empty determinant 1.
    For s >= 1 the power of c_s goes into the denominator, which then carries
    its sign; nothing is reduced.
    """
    if n < 1:
        raise DomainError("the closed form needs n >= 1")
    r, s = symbol.r, symbol.s
    c, den = clear_denominators(symbol.coeffs)  # c[j + r] is den * c_j
    c_s = c[-1]
    if not s:  # the minor is empty and no H_t is read
        return c_s**n, den**n
    weights = [x * c_s ** (r + s - 1 - j) for j, x in enumerate(c[:-1])] + [1]
    h = [0] * (r + s - 1) + [1]  # h[t + r + s - 1] is H_t
    extend_rows(weights, [h], n + r + 2 * s - 1)
    minor = det_exact([[h[n - i + j + r + s - 1] for j in range(s)] for i in range(s)]).numerator
    return (-1) ** (n * s) * minor, c_s ** (n * (s - 1)) * den**n


def trench_det(symbol: LaurentSymbol, n: int) -> Fraction:
    """The value D_{n-1}(C) of the closed form, exactly, without the symbol's roots."""
    return Fraction(*_trench_pair(symbol, n))


def trench_data(symbol: LaurentSymbol, n: int) -> TrenchData:
    """D_{n-1} from Trench's closed form (see _trench_pair)."""
    return TrenchData(trench_det(symbol, n))


# ----- Gram determinants and their ratios -----


class GramResult(NamedTuple):
    determinant: Fraction


def gram_det(vectors: Sequence[Sequence]) -> GramResult:
    """Exact Gram determinant det(<u_i, u_j>); the empty family gives 1.

    Int entries stay ints, so an integer family is eliminated in integers.
    """
    vs = [[x if type(x) is int else coerce_rational(x) for x in vec] for vec in vectors]
    if len({*map(len, vs)}) > 1:
        raise DomainError("Gram vectors must share one length")
    return GramResult(det_exact([[sum(map(operator.mul, u, v)) for v in vs] for u in vs]))


def _lyons_minors(poly: IntPolynomial, indices, ell_max: int) -> tuple[list[int], list[int]]:
    """(numerators, denominators) of det G(e_{s in S}, B_1..B_l) / det G(B_1..B_l), l = 1..ell_max.

    B = A / a_d is monic.  Adjoining standard basis vectors perturbs
    finitely many entries of the Toeplitz Gram matrix, and the ratio
    converges as l grows; the limit is probed numerically, never asserted.  Both minors hold l rows of B, so
    a_d^(-2l) cancels and both are taken on A's integer rows A_0..A_{l-1}.
    Their Gram matrix G_l is the Toeplitz matrix of A(x)A(1/x) that
    gram_growth eliminates, and its leading minors are the denominators.
    With the e_S rows first, a numerator is the Schur complement

        det [[I_k, E_l], [E_l^T, G_l]] = det(G_l - E_l^T E_l),

    with E_l[i][r] = <e_i, A_r> = a_{i-1-r}.  That vanishes for r >= i, and
    i <= d, so E_l^T E_l lives in the leading d x d corner: one more pass
    over G_L with the upper triangle of that corner corrected gives every
    numerator.  No minor vanishes, so no row is swapped: the rows projected
    off e_S stay independent, their last l columns a triangle with diagonal
    a_d.  Each ratio is the squared volume of e_S projected off a growing
    span, so the ratios never increase; that is checked in integers.  An
    empty S, whose ratio is 1 for every A, is refused like an index outside
    1..d.  The minors are ints, and the report writes them without a Fraction.
    """
    d = poly.degree
    if d < 1:
        raise DomainError("the ratio needs deg A >= 1")
    if ell_max < 1:
        raise DomainError("the ratio needs l >= 1")
    picked = set(indices)
    if not picked:
        raise DomainError("the ratio needs a nonempty basis index set")
    if not all(isinstance(i, int) and 1 <= i <= d for i in picked):
        raise DomainError(f"basis indices must be integers in 1..{d}")
    chosen = sorted(map(int, picked))
    a = poly.coeffs
    if a[0] == 0:
        raise DomainError("coefficient sequence needs a nonzero constant entry")
    # a_0 != 0, so the band is d wide and row r holds columns r..r + d
    band = _autocorrelation(poly)
    rows = [band] * ell_max
    denominators = _symmetric_band_minors(rows)
    corner = min(d, ell_max)
    for r in range(corner):
        row = rows[r] = list(band)
        for c in range(r, corner):
            row[c - r] -= sum(a[i - 1 - r] * a[i - 1 - c] for i in chosen if i > c)
    numerators = _symmetric_band_minors(rows)
    # num_{l+1} / den_{l+1} <= num_l / den_l, the denominators being positive
    steps = zip(numerators, denominators, numerators[1:], denominators[1:])
    if any(n1 * d0 > n0 * d1 for n0, d0, n1, d1 in steps):
        raise CertificateError("a Lyons ratio rose above the one before it")
    return numerators, denominators


def lyons_ratios(poly: IntPolynomial, indices, ell_max: int) -> list[Fraction]:
    """The ratios of _lyons_minors for l = 1..ell_max, each int pair normalised once."""
    return list(map(Fraction, *_lyons_minors(poly, indices, ell_max)))


def lyons_ratio(poly: IntPolynomial, indices, ell: int) -> Fraction:
    """The last of lyons_ratios(poly, indices, ell): the ratio at l = ell."""
    return lyons_ratios(poly, indices, ell)[-1]


class _GrowthReportFields(NamedTuple):
    determinants: tuple[int, ...]
    mahler_squared: Interval


class GrowthReport(_GrowthReportFields):
    # no __slots__: the cached ratios live in the instance __dict__
    @cached_property
    def ratios(self) -> tuple[Fraction, ...]:
        """D_{l+1} / D_l for l = 1..L-1, each int pair normalised once, on the first read."""
        dets = self.determinants
        return tuple(map(Fraction, dets[1:], dets))


def gram_growth(poly: IntPolynomial, ell_max: int) -> GrowthReport:
    """det G(B_1..B_l) for l = 1..ell_max, whose successive ratios the report derives.

    The determinants are ints, the leading principal minors of the
    ell_max-square Toeplitz matrix of B(x)B(1/x), read off one elimination
    pass over its upper band; the ratios D_{l+1}/D_l are Fractions built
    from them on first read.  Every D_l is positive, so the pass never
    swaps: b_d != 0 ends row l of [B]_l at column l + d, so the rows are
    independent and their Gram matrix is positive definite.  Each ratio is
    the squared distance of B_{l+1} from span(B_1..B_l), which only falls as
    the span grows, and Szego's first limit theorem makes the limit the
    squared Mahler measure of B; the certified enclosure of that limit rides
    along.  Both facts are checked in integers: D_{l-1} D_{l+1} <= D_l^2
    with D_0 = 1, and the enclosure's lower end, a float and so an integer
    over a power of two, is at most the last ratio D_L / D_{L-1}.
    """
    if poly.degree < 1:
        raise DomainError("growth study needs deg B >= 1")
    if ell_max < 1:
        raise DomainError("growth study needs ell_max >= 1")
    dets = tuple(_symmetric_band_minors([_autocorrelation(poly)] * ell_max))
    minors = (1, *dets)
    if any(a * c > b * b for a, b, c in zip(minors, dets, dets[1:])):
        raise CertificateError("a Gram ratio D_{l+1}/D_l rose above the one before it")
    m = mahler_measure(poly).interval
    squared = m.mul(m)
    # lo / den against D_L / D_{L-1}, D_{L-1} > 0; Interval.mul rounds an
    # overflowed lower end down to the largest float, so lo is finite
    lo, den = squared.lo.as_integer_ratio()
    if lo * minors[-2] > dets[-1] * den:
        raise CertificateError("the certified M(B)^2 exceeds the last Gram ratio")
    return GrowthReport(determinants=dets, mahler_squared=squared)
