"""The input refusals of the public routines: each error's type and message.

Every entry calls one routine on an input it must refuse and names the
exception class and the exact message it raises.
"""

import json
from fractions import Fraction

import pytest

from kronrec.cli import main
from kronrec.density import witness
from kronrec.errors import DomainError
from kronrec.exact_linalg import hnf, solve_exact
from kronrec.intervals import Interval
from kronrec.lattice_structure import (
    basis_N,
    check_basis_certificate,
    integral_basis,
    newton_polygon,
    scaled_basis_N,
)
from kronrec.poly_core import IntPolynomial, mahler_measure, refined_product_interval, roots
from kronrec.recurrence_matrices import band_rows, recurrence_extend
from kronrec.toeplitz import lyons_ratios

CONSTANT = IntPolynomial((3,))
QUARTIC = IntPolynomial((3, -2, -9, -3, 9))
# every coefficient lies within the float range, but M, about 1.99e308, does not
F = 15 * 10**307
OVERFLOWING = IntPolynomial((-F, -F, 0, F))


def _certificate_at_p4():
    polygon = newton_polygon(QUARTIC, 3)._replace(p=4)
    return check_basis_certificate(QUARTIC, polygon, 1, 6, [[Fraction(0)] * 6] * 4)


REFUSALS = [
    ("integral_basis zero constant", lambda: integral_basis(IntPolynomial((0, 1, 1)), 4),
     DomainError, "integral basis needs a nonzero constant coefficient"),
    ("integral_basis not primitive", lambda: integral_basis(IntPolynomial((2, 4)), 3),
     DomainError, "integral basis needs a primitive polynomial"),
    ("integral_basis m < d", lambda: integral_basis(QUARTIC, 3),
     DomainError, "integral basis needs m >= deg A >= 1"),
    ("newton_polygon degree 0", lambda: newton_polygon(CONSTANT, 3),
     DomainError, "Newton polygon needs degree >= 1"),
    ("lyons_ratios degree 0", lambda: lyons_ratios(CONSTANT, [1], 3),
     DomainError, "the ratio needs deg A >= 1"),
    ("lyons_ratios empty index set", lambda: lyons_ratios(QUARTIC, [], 3),
     DomainError, "the ratio needs a nonempty basis index set"),
    ("scaled_basis_N m < d", lambda: scaled_basis_N(QUARTIC, 3),
     DomainError, "basis_N needs 1 <= deg A <= m"),
    ("basis_N m < d", lambda: basis_N(QUARTIC, 3),
     DomainError, "basis_N needs 1 <= deg A <= m"),
    ("check_basis_certificate p = 4", _certificate_at_p4,
     DomainError, "p must be a prime integer, got 4"),
    ("recurrence_extend degree 0", lambda: recurrence_extend(CONSTANT, [], 3),
     DomainError, "recurrence extension needs degree >= 1"),
    ("recurrence_extend m < d", lambda: recurrence_extend(QUARTIC, [1, 0, 0, 0], 3),
     DomainError, "m must be at least the degree"),
    ("band_rows zero leading entry", lambda: band_rows([1, 2, 0], 3),
     DomainError, "coefficient sequence needs a nonzero leading entry"),
    ("band_rows ell = 0", lambda: band_rows([1, 2], 0),
     DomainError, "band matrix needs ell >= 1"),
    ("hnf empty", lambda: hnf([]), DomainError, "matrix needs at least one row"),
    ("hnf ragged", lambda: hnf([[1, 2], [3]]), DomainError, "ragged matrix"),
    ("hnf float", lambda: hnf([[1, 2.0]]), DomainError, "integer matrix expected, got float"),
    ("hnf no column", lambda: hnf([[]]), DomainError, "matrix needs at least one column"),
    ("solve_exact not square", lambda: solve_exact([[1, 2]], [[1]]),
     DomainError, "solve needs a square A"),
    ("solve_exact B rows", lambda: solve_exact([[1]], [[1], [2]]),
     DomainError, "B row count must match A"),
    ("solve_exact ragged B", lambda: solve_exact([[1, 0], [0, 1]], [[1, 2], [3]]),
     DomainError, "ragged B"),
    ("Interval.from_center negative radius", lambda: Interval.from_center(0.0, -1.0),
     ValueError, "radius must be nonnegative"),
    ("Interval.recip of [0, 1]", lambda: Interval(0.0, 1.0).recip(),
     ValueError, "reciprocal needs a strictly positive interval"),
    ("refined_product_interval degree 0", lambda: refined_product_interval(CONSTANT),
     DomainError, "needs degree >= 1"),
    ("witness eps past the float range", lambda: witness(QUARTIC, 5, (0.1,) * 5, eps=10**400),
     DomainError, "eps must lie within the float range"),
    ("mahler_measure root product past the float range", lambda: mahler_measure(OVERFLOWING),
     DomainError, "the root product overflows a float"),
]


@pytest.mark.parametrize("call, error, message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_input_is_refused(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_mahler_cli_reports_the_overflowing_root_product(capsys):
    assert main(["mahler", ",".join(map(str, OVERFLOWING.coeffs))]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {
        "error": {"message": "the root product overflows a float", "type": "DomainError"},
        "schema": "kronrec/1",
    }


def test_roots_of_a_constant_is_empty():
    found = roots(CONSTANT)
    assert found.poly == CONSTANT
    assert found.roots == ()
