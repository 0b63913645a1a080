"""Band and triangular matrices attached to a linear recurrence.

For A = a_0 + a_1 x + ... + a_d x^d the band matrix [A]_l is the l x (l+d)
matrix whose row i carries a_0..a_d starting at column i; its rows express
the recurrence applied at shifts 0..l-1.  The square {A}_m is lower
triangular with a_d on the diagonal and [A]_{m-d} as its last m-d rows.
Both constructions also run on rational coefficient sequences internally,
which is what the factorization identities [A]_l = [B]_l [C]_{l+s} and
{A}_m = {B}_m {C}_m need.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .exact_linalg import mat_mul
from .poly_core import IntPolynomial

__all__ = [
    "RecurrenceVector",
    "recurrence_extend",
    "verify_factorization",
    "band_rows",
    "tri_rows",
]


def _check_coeffs(coeffs: Sequence) -> list:
    cs = list(coeffs)
    if len(cs) < 1 or cs[-1] == 0:
        raise DomainError("coefficient sequence needs a nonzero leading entry")
    if cs[0] == 0:
        raise DomainError("coefficient sequence needs a nonzero constant entry")
    return cs


def band_rows(coeffs: Sequence, ell: int) -> list[list]:
    """Rows of [A]_l for any coefficient sequence; l x (l + deg)."""
    cs = _check_coeffs(coeffs)
    if ell < 1:
        raise DomainError("band matrix needs ell >= 1")
    d = len(cs) - 1
    zero = cs[0] * 0
    return [[cs[j - i] if 0 <= j - i <= d else zero for j in range(ell + d)] for i in range(ell)]


def tri_rows(coeffs: Sequence, m: int) -> list[list]:
    """Rows of {A}_m: m x m lower triangular, a_d on the diagonal."""
    cs = _check_coeffs(coeffs)
    d = len(cs) - 1
    if m < d:
        raise DomainError("tri matrix needs m >= deg A")
    zero = cs[0] * 0
    return [[cs[d - i + j] if 0 <= d - i + j <= d and j <= i else zero for j in range(m)] for i in range(m)]


@dataclass(frozen=True)
class RecurrenceVector:
    poly: IntPolynomial
    entries: tuple[Fraction, ...]


def recurrence_extend(poly: IntPolynomial, init: Sequence, m: int) -> RecurrenceVector:
    """Extend d seed values to length m along sum_j a_j v_{i+j} = 0.

    Denominators of the exact rational entries divide a_d^(m-d).
    """
    d = poly.degree
    if d < 1:
        raise DomainError("recurrence extension needs degree >= 1")
    if len(init) != d:
        raise DomainError(f"need exactly {d} seed values, got {len(init)}")
    if m < d:
        raise DomainError("m must be at least the degree")
    entries = [Fraction(x) for x in init]
    a = poly.coeffs
    for i in range(m - d):
        acc = Fraction(0)
        for j in range(d):
            acc += a[j] * entries[i + j]
        entries.append(-acc / a[d])
    return RecurrenceVector(poly, tuple(entries))


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
