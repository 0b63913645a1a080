"""Band/triangular recurrence matrices and their factorization identities."""

import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kronrec.errors import CertificateError, DomainError
from kronrec.exact_linalg import identity_matrix, integer_kernel, solve_exact
from kronrec.poly_core import IntPolynomial
from kronrec.recurrence_matrices import band_rows, extend_rows, recurrence_extend
from oracles import recurrence_extend_fractions, tri_rows, verify_factorization


def poly(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


@st.composite
def recurrence_polys(draw, max_degree=3):
    degree = draw(st.integers(1, max_degree))
    coeffs = [draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1)))]
    coeffs += [draw(st.integers(-9, 9)) for _ in range(degree - 1)]
    coeffs.append(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))))
    return IntPolynomial(tuple(coeffs))


def test_band_matrix_hand_example():
    assert band_rows(poly(-2, 1).coeffs, 2) == [[-2, 1, 0], [0, -2, 1]]


def test_band_matrix_requires_nonzero_constant():
    with pytest.raises(DomainError):
        band_rows(poly(0, 0, 1).coeffs, 2)


def test_tri_matrix_hand_example():
    assert tri_rows(poly(-2, 1).coeffs, 3) == [[1, 0, 0], [-2, 1, 0], [0, -2, 1]]


def test_tri_matrix_embeds_band_in_last_rows():
    a = poly(3, -2, -9, -3, 9)
    m = 7
    tm = tri_rows(a.coeffs, m)
    assert tm[a.degree :] == band_rows(a.coeffs, m - a.degree)
    for i in range(m):
        assert tm[i][i] == a.leading_coefficient
        for j in range(i + 1, m):
            assert tm[i][j] == 0


def test_recurrence_extend_hand_values():
    assert recurrence_extend(poly(-2, 1), (1,), 4) == (1, 2, 4, 8)
    assert recurrence_extend(poly(-3, 2), (1,), 3) == (
        Fraction(1),
        Fraction(3, 2),
        Fraction(9, 4),
    )
    got = recurrence_extend(poly(3, -2, -9, -3, 9), (1, 0, 0, 0), 5)
    assert got == (1, 0, 0, 0, Fraction(-1, 3))


def test_recurrence_extend_validates_seed_length():
    with pytest.raises(DomainError):
        recurrence_extend(poly(-2, 1), (1, 0), 4)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), None, "abc", "1/0"])
def test_recurrence_extend_rejects_bad_seeds_with_domain_error(bad):
    with pytest.raises(DomainError):
        recurrence_extend(poly(-1, -1, 1), (1, bad), 4)
    # a numeric string is read exactly, like any other coerced rational
    assert recurrence_extend(poly(-2, 1), ("1/3",), 2) == (Fraction(1, 3), Fraction(2, 3))


def test_recurrence_extend_reads_any_iterable_once():
    seeds = (Fraction(1, 3), 2, "-5/7")
    a = poly(3, -2, -9, 9)
    assert recurrence_extend(a, iter(seeds), 8) == recurrence_extend(a, seeds, 8)
    with pytest.raises(DomainError):
        recurrence_extend(a, iter(seeds[:2]), 8)
    with pytest.raises(DomainError):
        recurrence_extend(a, (x for x in (1, None, 0)), 8)


@st.composite
def extension_cases(draw):
    """A of degree 1-5 with |a_d| <= 12, seeds with denominators up to 12, and m = d..60."""
    a = draw(recurrence_polys(max_degree=5))
    lead = draw(st.integers(1, 12)) * draw(st.sampled_from((1, -1)))
    a = IntPolynomial(a.coeffs[:-1] + (lead,))
    seeds = [Fraction(draw(st.integers(-20, 20)), draw(st.integers(1, 12))) for _ in range(a.degree)]
    return a, seeds, draw(st.integers(a.degree, 60))


@seed(20261030)
@settings(deadline=None, max_examples=150)
@given(extension_cases())
@example((poly(-1, 2), [Fraction(1)], 60))  # 2x - 1: every step halves
@example((poly(5, 0, 0, 0, 0, -12), [Fraction(1, 11)] * 5, 5))  # m = d: no step
def test_recurrence_extend_equals_the_fraction_route(case):
    a, seeds, m = case
    assert recurrence_extend(a, seeds, m) == recurrence_extend_fractions(a, seeds, m)


def test_extend_rows_stops_at_the_first_remainder():
    # 2x - 1 from seed 1: z_1 = 1/2 is no integer
    row = [1]
    with pytest.raises(CertificateError, match=r"entry \(1,2\) of the recurrence is not an integer"):
        extend_rows((-1, 2), [row], 4)
    assert row == [1]
    rows = [[4], [2]]
    with pytest.raises(CertificateError, match=r"entry \(2,3\)"):
        extend_rows((-1, 2), rows, 3)
    assert rows == [[4, 2, 1], [2, 1]]  # the first row ends; the second stops at 1/2
    rows = [[1, 0], [0, 1]]
    assert extend_rows((-1, -1, 1), rows, 6) is None
    assert rows == [[1, 0, 1, 1, 2, 3], [0, 1, 1, 2, 3, 5]]


@st.composite
def non_unit_extensions(draw):
    d = draw(st.integers(1, 4))
    low = [draw(st.integers(-12, 12)) for _ in range(d)]
    lead = draw(st.integers(2, 12)) * draw(st.sampled_from((1, -1)))
    seeds = st.lists(st.integers(-(10**6), 10**6), min_size=d, max_size=d)
    return (*low, lead), draw(st.lists(seeds, min_size=1, max_size=4)), draw(st.integers(d, d + 12))


@seed(20261020)
@settings(deadline=None, max_examples=200)
@given(non_unit_extensions())
@example(((-1, 2), [[4], [2]], 3))  # the second row meets 1/2
@example(((-1, 2), [[128], [0]], 8))  # 2x - 1: every halving is exact
def test_extend_rows_extends_every_row_or_raises(case):
    """A row comes back with m entries or the extender raises at the entry
    whose division leaves a remainder: the rows before it are whole, that row
    stops there, the rows after it are untouched, and no row is left short
    without an error."""
    coeffs, seeds, m = case
    *low, lead = coeffs
    d = len(low)
    rows = [list(z) for z in seeds]
    try:
        extend_rows(coeffs, rows, m)
    except CertificateError as exc:
        named = re.fullmatch(r"entry \((\d+),(\d+)\) of the recurrence is not an integer", str(exc))
        i, j = map(int, named.groups())
        assert all(len(z) == m for z in rows[: i - 1])
        assert d < j <= m and len(rows[i - 1]) == j - 1
        assert sum(map(operator.mul, low, rows[i - 1][j - 1 - d :])) % lead
        assert rows[i:] == seeds[i:]
    else:
        assert all(len(z) == m for z in rows)
    for z, start in zip(rows, seeds):
        assert z[:d] == start
        assert all(sum(map(operator.mul, coeffs, z[t : t + d + 1])) == 0 for t in range(len(z) - d))


@settings(deadline=None, max_examples=50)
@given(recurrence_polys(), st.integers(0, 4))
def test_recurrence_rows_annihilated_by_band(a, extra):
    d = a.degree
    m = d + 1 + extra
    seed = [Fraction(i == 0) for i in range(d)]
    vec = recurrence_extend(a, seed, m)
    for i in range(m - d):
        assert sum(a.coeffs[j] * vec[i + j] for j in range(d + 1)) == 0
    for x in vec:
        assert a.leading_coefficient ** (m - d) % x.denominator == 0


@settings(deadline=None, max_examples=50)
@given(recurrence_polys(), st.integers(1, 4))
def test_kernel_rows_are_recurrences(a, ell):
    basis = integer_kernel(band_rows(a.coeffs, ell))
    assert len(basis) == a.degree
    m = ell + a.degree
    for row in basis:
        rebuilt = recurrence_extend(a, row[: a.degree], m)
        assert rebuilt == tuple(Fraction(x) for x in row)


@settings(deadline=None, max_examples=50)
@given(
    recurrence_polys(),
    st.integers(1, 4),
    st.lists(st.integers(-5, 5), min_size=8, max_size=8),
)
def test_band_matrix_acts_as_power_series_multiplication(a, ell, fpad):
    # G = A * F: the band matrix applied to reversed f-coefficients yields
    # the reversed g-coefficients in degrees d..d+ell-1
    d = a.degree
    f = fpad[: d + ell]
    g = [0] * (d + ell + d)
    for i, ca in enumerate(a.coeffs):
        for j, cf in enumerate(f):
            g[i + j] += ca * cf
    rev_f = list(reversed(f))
    out = [sum(x * y for x, y in zip(row, rev_f)) for row in band_rows(a.coeffs, ell)]
    want = [g[d + ell - 1 - i] for i in range(ell)]
    assert out == want


def test_verify_factorization_hand_case():
    # 4x^2 - 9x + 2 = (4x - 8)(x - 1/4)
    a = poly(2, -9, 4)
    assert verify_factorization(a, (-8, 4), (Fraction(-1, 4), 1), 3)
    # wrong factor pair fails the product route
    assert not verify_factorization(a, (-8, 4), (Fraction(1, 4), 1), 3)


def test_verify_factorization_rejects_zero_constant():
    with pytest.raises(DomainError):
        verify_factorization(poly(0, 0, 1), (0, 1), (0, 1), 2)


def test_verify_factorization_trivial_cofactor():
    a = poly(2, -5, 2)
    assert verify_factorization(a, (2, -5, 2), (1,), 2)


def test_tri_inverse_of_linear_factor_is_geometric():
    gamma = Fraction(1, 3)
    m = 4
    rows = [
        [Fraction(1) if i == j else (-gamma if j == i - 1 else Fraction(0)) for j in range(m)]
        for i in range(m)
    ]
    inv = solve_exact(rows, identity_matrix(m))
    for i in range(m):
        for j in range(m):
            want = gamma ** (i - j) if i >= j else Fraction(0)
            assert inv[i][j] == want
