"""Band matrices and the one integer extender of a linear recurrence.

For A = a_0 + a_1 x + ... + a_d x^d the band matrix [A]_l is the l x (l+d)
matrix whose row i carries a_0..a_d starting at column i; its rows express
the recurrence applied at shifts 0..l-1, and the construction runs on any
coefficient sequence, rational ones included.  extend_rows is the one loop
that runs the recurrence: z_(t+d) = -(a_0 z_t + ... + a_(d-1) z_(t+d-1)) / a_d, for
tables, bases, Trench sums and recurrence_extend; a remainder raises CertificateError.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import CertificateError, DomainError
from .exact_linalg import clear_denominators, coerce_rational
from .poly_core import IntPolynomial

__all__ = ["extend_rows", "recurrence_extend", "band_rows"]


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


def extend_rows(coeffs: Sequence[int], rows: list[list[int]], m: int) -> None:
    """Extend integer rows of d seeds in place to m entries; CertificateError at a remainder."""
    *low, lead = coeffs
    d = len(low)
    for i, z in enumerate(rows, start=1):
        for t in range(m - d):
            q, r = divmod(-sum(map(operator.mul, low, z[t : t + d])), lead)
            if r:
                raise CertificateError(f"entry ({i},{t + d + 1}) of the recurrence is not an integer")
            z.append(q)


def recurrence_extend(poly: IntPolynomial, init: Iterable, m: int) -> tuple[Fraction, ...]:
    """The d seed values extended to m entries along sum_j a_j v_{i+j} = 0.

    Seeds are read once from any iterable by coerce_rational, so a non-finite
    or non-numeric one raises DomainError.  For seeds over den, denominators
    of the entries divide den * a_d^(m-d), which scales the seeds for extend_rows.
    """
    d = poly.degree
    if d < 1:
        raise DomainError("recurrence extension needs degree >= 1")
    seeds = list(init)
    if len(seeds) != d:
        raise DomainError(f"need exactly {d} seed values, got {len(seeds)}")
    if m < d:
        raise DomainError("m must be at least the degree")
    ints, den = clear_denominators([coerce_rational(x) for x in seeds])
    scale = poly.leading_coefficient ** (m - d)
    row = [x * scale for x in ints]
    extend_rows(poly.coeffs, [row], m)  # v_(t+d) has a denominator dividing den * a_d^(t+1)
    return tuple(Fraction(x, den * scale) for x in row)
