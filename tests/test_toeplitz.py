"""Oracle comparisons and hand values for the Toeplitz/Gram machinery."""

import argparse
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from kronrec import toeplitz
from kronrec.errors import CertificateError, DomainError, SingularMatrixError
from kronrec.exact_linalg import _symmetric_band_minors, identity_matrix, solve_exact
from kronrec.poly_core import IntPolynomial, MahlerMeasure, roots
from kronrec.recurrence_matrices import band_rows
from kronrec.cli import _cmd_gram_growth, _cmd_lyons
from kronrec.toeplitz import (
    LaurentSymbol,
    _lyons_minors,
    _toeplitz_rows,
    _trench_pair,
    gram_det,
    gram_growth,
    lyons_ratio,
    lyons_ratios,
    toeplitz_det_direct,
    trench_data,
    trench_det,
)

from oracles import (
    aberth_mp,
    biorthonormal_check,
    dense_bareiss,
    leading_minors,
    lyons_ratios_bordered,
    mat_mul,
    quotients_by_fractions,
    rational_decompose,
    trench_det_fractions,
    trench_vandermonde,
    tri_rows,
)

TRIDIAG = LaurentSymbol.from_coefficients((-2, 5, -2), 1)
SHIFT2 = IntPolynomial((-2, 1))
FIB = IntPolynomial((-1, -1, 1))


@st.composite
def raw_symbols(draw, max_width=6):
    r = draw(st.integers(0, max_width))
    s = draw(st.integers(0, max_width))
    entry = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    ends = entry.filter(lambda x: x != 0)
    inner = [draw(entry) for _ in range(r + s - 1)]
    coeffs = [draw(ends)] + inner + [draw(ends)] if r + s else [draw(ends)]
    return LaurentSymbol.from_coefficients(coeffs, r)


@st.composite
def nonzero_lead_polys(draw, max_degree=3, bound=5):
    degree = draw(st.integers(1, max_degree))
    coeffs = [draw(st.integers(-bound, bound)) for _ in range(degree)]
    coeffs.append(draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1))))
    return IntPolynomial(tuple(coeffs))


# --- LaurentSymbol ---


def test_symbol_shape_and_lookup():
    assert TRIDIAG.r == 1 and TRIDIAG.s == 1
    assert TRIDIAG.coeffs[TRIDIAG.r] == 5  # c_0
    assert TRIDIAG.coeffs[0] == -2  # c_{-r}
    assert TRIDIAG.coeffs == TRIDIAG.coeffs[::-1]


def test_symbol_from_polynomial_autocorrelation():
    sym = LaurentSymbol.from_polynomial(SHIFT2)
    assert sym.coeffs == (Fraction(-2), Fraction(5), Fraction(-2))
    lead = LaurentSymbol.from_polynomial(IntPolynomial((-3, 2)))
    assert lead.coeffs == (Fraction(-6), Fraction(13), Fraction(-6))
    assert lead.coeffs == lead.coeffs[::-1]


def test_symbol_trims_power_of_x():
    # x * (x - 2) has the same autocorrelation as x - 2
    sym = LaurentSymbol.from_polynomial(IntPolynomial((0, -2, 1)))
    assert sym.coeffs == (Fraction(-2), Fraction(5), Fraction(-2))
    assert sym.r == sym.s == 1
    lone = LaurentSymbol.from_polynomial(IntPolynomial((0, 1)))
    assert lone.coeffs == (Fraction(1),)


def test_symbol_rejects():
    with pytest.raises(DomainError):
        LaurentSymbol((Fraction(0), Fraction(1), Fraction(2)), 1, 1)
    with pytest.raises(DomainError):
        LaurentSymbol((Fraction(1), Fraction(2)), 1, 1)
    with pytest.raises(DomainError):
        LaurentSymbol((Fraction(1),), -1, 0)


# --- direct determinants ---


def test_direct_hand_values():
    assert toeplitz_det_direct(TRIDIAG, 1) == 21
    assert toeplitz_det_direct(TRIDIAG, 2) == 85
    ident = LaurentSymbol.from_coefficients((1,), 0)
    for n in range(5):
        assert toeplitz_det_direct(ident, n) == 1


def test_direct_tridiagonal_recurrence():
    dets = [toeplitz_det_direct(TRIDIAG, n) for n in range(8)]
    for k in range(2, 8):
        assert dets[k] == 5 * dets[k - 1] - 4 * dets[k - 2]


def test_direct_rejects_negative_size():
    with pytest.raises(DomainError):
        toeplitz_det_direct(TRIDIAG, -1)


# --- Trench closed form ---


def test_trench_matches_direct_hand_values():
    assert trench_det(TRIDIAG, 2) == Fraction(21)
    assert trench_det(TRIDIAG, 3) == Fraction(85)
    data = trench_data(TRIDIAG, 2)
    assert data.exact is True
    det, roots = trench_vandermonde(TRIDIAG, 2)
    assert det == 21
    assert sum(mult for _, mult in roots) == 2


def test_trench_double_roots_use_derivative_rows():
    sym = LaurentSymbol.from_polynomial(IntPolynomial((4, -4, 1)))  # (x-2)^2
    det, roots = trench_vandermonde(sym, 4)
    assert {mult for _, mult in roots} == {2}
    assert det == toeplitz_det_direct(sym, 3)
    assert trench_det(sym, 4) == det


def test_trench_numeric_path_agrees():
    """Irrational symbol roots, once evaluated numerically, are exact too."""
    sym = LaurentSymbol.from_polynomial(FIB)
    data = trench_data(sym, 5)
    assert data.exact is True
    assert data.determinant == toeplitz_det_direct(sym, 4)


# B = 1 + x^2 and 1 + x + x^2 put double symbol roots on the unit circle,
# -1 - 2x + 3x^2 - 2x^3 + 4x^4 has the roots +-i; the last two have none there
NUMERIC_B = [(1, 0, 1), (1, 1, 1), (-1, -2, 3, -2, 4), (-1, -1, 1), (3, -2, -9, -3, 9)]


def _symbol_polynomial(sym):
    denom = math.lcm(*(c.denominator for c in sym.coeffs))
    return IntPolynomial(tuple(int(c * denom) for c in sym.coeffs))


@pytest.mark.parametrize("coeffs", NUMERIC_B)
def test_trench_aberth_centres_match_polyroots(coeffs):
    """The mpmath ladder oracle and the root engine on the irrational factors
    of Trench symbols, both against mpmath.polyroots."""
    sym = LaurentSymbol.from_polynomial(IntPolynomial(coeffs))
    _, _, leftover = rational_decompose(_symbol_polynomial(sym))
    assert leftover
    for fac, _ in leftover:
        disks = roots(IntPolynomial(fac)).roots
        for dps in (60, 120):
            centres, _ = aberth_mp(fac, dps)
            with mpmath.workdps(dps):
                oracle = mpmath.polyroots(
                    [mpmath.mpf(c) for c in reversed(fac)], maxsteps=200, extraprec=dps
                )
                assert len(centres) == len(oracle) == len(disks)
                tol = mpmath.mpf(10) ** (10 - dps)
                for z in centres:
                    assert min(abs(z - w) for w in oracle) <= tol
                for w in oracle:
                    assert sum(abs(mpmath.mpc(e.value) - w) <= e.radius + tol for e in disks) == 1


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("coeffs", NUMERIC_B[:3])
def test_trench_numeric_matches_direct_on_unit_circle_roots(coeffs, n):
    sym = LaurentSymbol.from_polynomial(IntPolynomial(coeffs))
    assert trench_det(sym, n) == toeplitz_det_direct(sym, n - 1)


def test_trench_scalar_symbol():
    sym = LaurentSymbol.from_coefficients((3,), 0)
    assert trench_det(sym, 2) == 9
    assert toeplitz_det_direct(sym, 1) == 9


def test_trench_rejects_zero_size():
    with pytest.raises(DomainError):
        trench_det(TRIDIAG, 0)


@settings(max_examples=40, deadline=None)
@given(nonzero_lead_polys(), st.integers(1, 6))
def test_trench_equals_direct(poly, n):
    sym = LaurentSymbol.from_polynomial(poly)
    assert trench_det(sym, n) == toeplitz_det_direct(sym, n - 1)


def _random_symbol(rng, r, s):
    """Fraction coefficients c_{-r}..c_s with both ends nonzero."""
    cs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(r + s + 1)]
    for end in (0, -1):
        while cs[end] == 0:
            cs[end] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return LaurentSymbol(tuple(cs), r, s)


def _split_symbol(rng, r, roots):
    """lead * prod (x - q) over the given nonzero rational roots, read as c_{-r}..c_s."""
    cs = [Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))]
    for q in roots:
        cs = [a - q * b for a, b in zip([Fraction(0)] + cs, cs + [Fraction(0)])]
    return LaurentSymbol.from_coefficients(cs, r)


def test_trench_equals_direct_on_raw_symbols():
    rng = random.Random(20091)
    seen = set()
    for _ in range(300):
        r, s = rng.randint(0, 3), rng.randint(0, 3)
        if rng.random() < 0.25 and r + s >= 2:
            q = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
            rest = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(r + s - 2)]
            sym = _split_symbol(rng, r, [q, q, *rest])
            seen.add("repeated root")
        else:
            sym = _random_symbol(rng, r, s)
        if any(c.denominator > 1 for c in sym.coeffs):
            seen.add("fraction")
        seen.update(label for label, hit in (("r != s", r != s), ("r = 0", r == 0 < s),
                                              ("s = 0", s == 0 < r)) if hit)
        for n in range(1, 7):
            assert trench_det(sym, n) == toeplitz_det_direct(sym, n - 1), (sym, n)
            if n < s:
                seen.add("n < s")
    assert seen == {"repeated root", "fraction", "r != s", "r = 0", "s = 0", "n < s"}


@pytest.mark.parametrize(
    "coeffs, r",
    [((Fraction(1, 2), 0, 3), 2), ((5,), 0), ((-2, Fraction(1, 3)), 1), ((1, -1, 0, Fraction(-7, 2)), 3)],
)
def test_trench_builds_no_recurrence_when_s_is_0(monkeypatch, coeffs, r):
    """With s = 0 the Jacobi-Trudi minor is empty and no H_t is read, so none
    is built; the Toeplitz matrix is triangular, with c_0 on its diagonal."""

    def no_extension(*args):
        raise AssertionError("H_t extended for s = 0")

    sym = LaurentSymbol.from_coefficients(coeffs, r)
    assert sym.s == 0
    monkeypatch.setattr(toeplitz, "extend_rows", no_extension)
    for n in (1, 2, 3, 7, 16):
        assert trench_det(sym, n) == toeplitz_det_direct(sym, n - 1) == Fraction(coeffs[-1]) ** n


def test_trench_equals_confluent_vandermonde_on_split_symbols():
    rng = random.Random(5)
    doubles = 0
    for _ in range(120):
        distinct = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
        roots = distinct + distinct[: rng.randint(0, len(distinct))]
        sym = _split_symbol(rng, rng.randint(0, len(roots)), roots)
        for n in (1, 2, 3, 7):
            want, got_roots = trench_vandermonde(sym, n)
            assert trench_det(sym, n) == want, (sym, n)
        doubles += any(mult > 1 for _, mult in got_roots)
    assert doubles > 10


# --- Gram determinants ---


def test_gram_hand_values():
    assert gram_det([(1, 0, 0), (0, 1, 0)]).determinant == 1
    assert gram_det([(1, 2, 4)]).determinant == 21
    assert gram_det([]).determinant == 1


def test_gram_matrix_of_integral_vectors_is_integral(monkeypatch):
    seen = []
    det_exact = toeplitz.det_exact
    monkeypatch.setattr(toeplitz, "det_exact", lambda rows: seen.append(rows) or det_exact(rows))
    gram_det(band_rows([2, -1, 3], 4))
    gram = seen.pop()
    assert {type(x) for row in gram for x in row} == {int}
    assert gram[0][:3] == [14, -5, 6]
    assert gram_det([[1, 2], [Fraction(1, 2), 1]]).determinant == 0
    mixed = seen.pop()
    assert mixed == [[5, Fraction(5, 2)], [Fraction(5, 2), Fraction(5, 4)]]
    assert [[type(x) for x in row] for row in mixed] == [[int, Fraction], [Fraction, Fraction]]


def test_gram_rejects_ragged():
    with pytest.raises(DomainError):
        gram_det([(1, 2), (1, 2, 3)])


def test_gram_toeplitz_bridge_for_band_rows():
    """The Gram matrix of [B]_l rows is the Toeplitz matrix of B(x)B(1/x)."""
    for poly in (SHIFT2, FIB, IntPolynomial((-3, 2))):
        sym = LaurentSymbol.from_polynomial(poly)
        for ell in range(1, 9):
            g = gram_det(band_rows(poly.coeffs, ell)).determinant
            assert g == toeplitz_det_direct(sym, ell - 1)


def test_gram_det_of_integer_family_equals_its_fraction_family():
    rng = random.Random(16)
    for _ in range(20):
        n, width = rng.randint(1, 5), rng.randint(1, 7)
        ints = [[rng.randint(-9, 9) for _ in range(width)] for _ in range(n)]
        fracs = [[Fraction(x) for x in row] for row in ints]
        assert gram_det(ints) == gram_det(fracs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=1,
        max_size=3,
    )
)
def test_gram_determinant_nonnegative(vectors):
    assert gram_det(vectors).determinant >= 0


# --- Lyons ratios ---


def test_lyons_hand_values():
    assert lyons_ratio(SHIFT2, {1}, 1) == Fraction(1, 5)
    assert lyons_ratio(SHIFT2, {1}, 2) == Fraction(1, 21)


def test_lyons_numerator_is_unimodular_for_full_set():
    # adjoining e_1 completes the monic band rows to a volume-1 parallelepiped
    for ell in (1, 2, 3, 4):
        denom = gram_det(band_rows(SHIFT2.coeffs, ell)).determinant
        assert lyons_ratio(SHIFT2, {1}, ell) == Fraction(1, 1) / denom


def test_lyons_ratios_match_per_size_gram_quotients():
    worked = IntPolynomial((3, -2, -9, -3, 9))
    lead = worked.leading_coefficient
    monic = [Fraction(c, lead) for c in worked.coeffs]
    ell_max = 8
    for chosen in ((1,), (1, 3)):
        got = lyons_ratios(worked, chosen, ell_max)
        assert len(got) == ell_max
        for ell in range(1, ell_max + 1):
            rows = band_rows(monic, ell)
            e_rows = [[int(c == i - 1) for c in range(ell + 4)] for i in chosen]
            want = gram_det(e_rows + rows).determinant / gram_det(rows).determinant
            assert got[ell - 1] == want
            assert lyons_ratio(worked, chosen, ell) == want


def test_lyons_rejects():
    with pytest.raises(DomainError):
        lyons_ratio(SHIFT2, {2}, 1)
    with pytest.raises(DomainError):
        lyons_ratio(SHIFT2, {0}, 1)
    with pytest.raises(DomainError):
        lyons_ratio(SHIFT2, {1}, 0)
    with pytest.raises(DomainError):
        lyons_ratios(SHIFT2, {5}, 0)
    # the ratio of an empty S is 1 for every A, so it says nothing about A
    with pytest.raises(DomainError):
        lyons_ratio(SHIFT2, (), 3)


def test_lyons_rejects_a_non_integral_index():
    with pytest.raises(DomainError, match="integers"):
        lyons_ratios(SHIFT2, [1.5], 3)
    with pytest.raises(DomainError, match="integers"):
        lyons_ratios(SHIFT2, ["1"], 3)
    # ints and bools are accepted
    assert lyons_ratios(SHIFT2, [True], 3) == lyons_ratios(SHIFT2, [1], 3)


def test_lyons_rejects_a_zero_constant_coefficient():
    with pytest.raises(DomainError, match="^coefficient sequence needs a nonzero constant entry$"):
        lyons_ratios(IntPolynomial((0, 1, 1)), {1}, 3)


@st.composite
def lyons_cases(draw):
    """Non-monic A of degree 1-5, l <= 40, and S {1}, {d}, {1..d} or random and nonempty."""
    d = draw(st.integers(1, 5))
    lead = draw(st.integers(2, 9)) * draw(st.sampled_from((1, -1)))
    constant = draw(st.integers(-9, 9).filter(bool))
    coeffs = (constant, *(draw(st.integers(-9, 9)) for _ in range(d - 1)), lead)
    chosen = draw(
        st.sampled_from([(1,), (d,), tuple(range(1, d + 1))])
        | st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True).map(tuple)
    )
    return IntPolynomial(coeffs), chosen, draw(st.integers(1, 40))


@seed(20261019)
@settings(deadline=None, max_examples=50)
@given(lyons_cases())
# l_max < d: the corrected corner is l_max x l_max
@example((IntPolynomial((3, -2, -9, -3, 9)), (1, 2, 3, 4), 2))
@example((IntPolynomial((3, -2, -9, -3, 9)), (4,), 3))
@example((IntPolynomial((-1, 4, 0, 0, 2, -5)), (1, 3, 5), 1))
@example((IntPolynomial((1, 2, 3)), (2,), 1))
def test_lyons_ratios_match_the_bordered_route(case):
    poly, chosen, ell_max = case
    assert lyons_ratios(poly, chosen, ell_max) == lyons_ratios_bordered(poly, chosen, ell_max)


def test_lyons_hand_value_below_the_degree():
    # G(A_0) = 1 + 4 + 9 and e_1, e_2 take a_0^2 + a_1^2 off it
    assert lyons_ratios(IntPolynomial((1, 2, 3)), {1, 2}, 1) == [Fraction(9, 14)]


def test_lyons_eliminates_two_matrices_of_order_ell_max(monkeypatch):
    orders = []

    def counted(rows):
        orders.append(len(rows))
        return _symmetric_band_minors(rows)

    monkeypatch.setattr(toeplitz, "_symmetric_band_minors", counted)
    lyons_ratios(IntPolynomial((3, -2, -9, -3, 9)), {1, 2, 3, 4}, 12)
    assert orders == [12, 12]


def test_lyons_ratio_converges():
    vals = [lyons_ratio(FIB, {1}, ell) for ell in range(10, 16)]
    diffs = [abs(float(vals[i + 1] - vals[i])) for i in range(len(vals) - 1)]
    assert max(diffs) < 1e-3
    assert diffs[-1] <= diffs[0]


# --- growth of the determinants ---


def test_growth_closed_form_for_shift():
    report = gram_growth(SHIFT2, 6)
    assert report.determinants == tuple(
        Fraction(4 ** (ell + 1) - 1, 3) for ell in range(1, 7)
    )
    for idx, ratio in enumerate(report.ratios, start=2):
        assert ratio == Fraction(4 ** (idx + 1) - 1, 4**idx - 1)
    assert report.mahler_squared.lo <= 4.0 <= report.mahler_squared.hi


def test_growth_ratio_approaches_squared_measure():
    report = gram_growth(IntPolynomial((-3, 2)), 12)
    assert abs(float(report.ratios[-1]) - 9.0) < 0.09
    assert report.mahler_squared.lo <= 9.0 <= report.mahler_squared.hi


def test_growth_determinants_match_direct_at_every_size():
    # (2x - 1)(x - 3) has only rational roots; x^2 - x - 1 has none
    for poly in (IntPolynomial((3, -7, 2)), FIB):
        sym = LaurentSymbol.from_polynomial(poly)
        report = gram_growth(poly, 40)
        assert report.determinants == tuple(
            toeplitz_det_direct(sym, n) for n in range(40)
        )


def test_growth_closed_form_for_shift_at_the_stress_size():
    # G(B_1..B_l) for B = x - 2 is the tridiagonal Toeplitz matrix of 5 - 2x - 2/x
    report = gram_growth(SHIFT2, 400)
    assert report.determinants == tuple(Fraction(4 ** (ell + 1) - 1, 3) for ell in range(1, 401))


def test_toeplitz_rows_store_only_the_band_at_the_stress_size():
    for symbol in (TRIDIAG, LaurentSymbol.from_polynomial(IntPolynomial((3, -2, -9, -3, 9)))):
        rows, starts, _ = _toeplitz_rows(symbol, 400)
        r, s = symbol.r, symbol.s
        assert max(map(len, rows)) == r + s + 1
        assert starts == [max(j - r, 0) for j in range(400)]


def test_growth_certifies_falling_ratios_above_the_measure(monkeypatch):
    minors = toeplitz._symmetric_band_minors
    # D_0 D_2 = 21 < 25 = D_1^2, but D_1 D_3 = 500 > 441 = D_2^2
    monkeypatch.setattr(toeplitz, "_symmetric_band_minors", lambda rows: [5, 21, 100])
    with pytest.raises(CertificateError, match="rose"):
        gram_growth(SHIFT2, 3)
    monkeypatch.setattr(toeplitz, "_symmetric_band_minors", minors)
    # M(x - 2) = 2 claimed as 3 +- 0: 9 lies above the last ratio 85/21
    monkeypatch.setattr(toeplitz, "mahler_measure", lambda poly: MahlerMeasure(3.0, 0.0))
    with pytest.raises(CertificateError, match="M\\(B\\)\\^2"):
        gram_growth(SHIFT2, 3)


def test_lyons_certifies_falling_ratios(monkeypatch):
    # denominators 1, 1 and numerators 1, 2: the ratio rises from 1 to 2
    passes = iter([[1, 1], [1, 2]])
    monkeypatch.setattr(toeplitz, "_symmetric_band_minors", lambda rows: next(passes))
    with pytest.raises(CertificateError, match="rose"):
        lyons_ratios(FIB, {1}, 2)


def test_growth_rejects():
    with pytest.raises(DomainError):
        gram_growth(SHIFT2, 0)
    with pytest.raises(DomainError):
        gram_growth(IntPolynomial((7,)), 3)


# --- vanishing leading minors of raw symbols ---

# c_0 = 0, so D_1 = 0, and the first three are not symmetric; (1, 1, 1) has
# D_1 = 1 and D_2 = 0, and it and (1, 0, 1) are, so their direct determinant
# hands over from the symmetric pass to the swapping one
VANISHING_MINOR = [
    LaurentSymbol.from_coefficients((2, 0, 3), 1),
    LaurentSymbol.from_coefficients((1, -2, 0, 3, 5), 2),
    LaurentSymbol.from_coefficients((3, 0, Fraction(1, 2), 2), 1),
    LaurentSymbol.from_coefficients((1, 1, 1), 1),
    LaurentSymbol.from_coefficients((1, 0, 1), 1),
]


def _symbol_id(symbol):
    return ",".join(map(str, symbol.coeffs))


def test_direct_eliminates_a_palindromic_symbol_on_its_upper_band(monkeypatch):
    half = LaurentSymbol.from_coefficients((Fraction(1, 2), -3, 7, -3, Fraction(1, 2)), 2)
    # (1, 1, 1) has D_2 = 0, so the swapping pass takes over
    cases = [(symbol, n) for symbol in (TRIDIAG, half) for n in range(12)] + [(VANISHING_MINOR[3], 5)]
    want = [trench_det(symbol, n + 1) for symbol, n in cases]  # its s x s minor is a det_exact
    swapping = []
    det = toeplitz.det_exact
    monkeypatch.setattr(toeplitz, "det_exact", lambda *a: swapping.append(a) or det(*a))
    assert [toeplitz_det_direct(symbol, n) for symbol, n in cases] == want
    assert want[5] == (4**7 - 1) // 3
    assert len(swapping) == 1


@pytest.mark.parametrize("symbol", VANISHING_MINOR, ids=_symbol_id)
def test_direct_swaps_past_a_vanishing_leading_minor(symbol):
    for n in range(2, 40):
        rows, starts, den = _toeplitz_rows(symbol, n + 1)
        with pytest.raises(SingularMatrixError):
            leading_minors(rows, starts)  # so the determinant's pass must swap rows
        rows = [[0] * s + row + [0] * (n + 1 - s - len(row)) for row, s in zip(rows, starts)]
        swaps = dense_bareiss(rows, n)
        oracle = 0 if swaps is None else Fraction((-1) ** swaps * rows[-1][-1], den ** (n + 1))
        assert toeplitz_det_direct(symbol, n) == trench_det(symbol, n + 1) == oracle, n


@seed(20261025)
@settings(max_examples=150, deadline=None)
@given(nonzero_lead_polys(max_degree=5, bound=9), st.integers(1, 40), st.sets(st.integers(1, 5), min_size=1))
# non-monic with b_0 = 0, which only gram_growth takes, and non-monic with b_0 != 0
@example(IntPolynomial((0, 0, 3, -1, 0, 2)), 40, {1, 5})
@example(IntPolynomial((5, -4, 0, 1, 3, -7)), 40, {2, 3, 5})
def test_every_gram_and_lyons_minor_is_positive(poly, ell_max, indices):
    """b_d != 0 ends row l of [B]_l at column l + d, so the rows are
    independent, with e_S adjoined too, and every Gram minor is positive:
    the band pass never meets a vanishing one."""
    assert all(det > 0 for det in gram_growth(poly, ell_max).determinants)
    if poly.coeffs[0]:  # _lyons_minors refuses b_0 = 0
        nums, dens = _lyons_minors(poly, {min(i, poly.degree) for i in indices}, ell_max)
        assert all(minor > 0 for minor in nums + dens)


# --- biorthonormal pairs ---


def test_biorthonormal_standard_basis():
    e = [[int(i == j) for j in range(3)] for i in range(3)]
    assert biorthonormal_check(e, e) is True


def test_biorthonormal_triangular_pair():
    u = tri_rows((-2, 1), 3)
    v = list(zip(*solve_exact(u, identity_matrix(len(u)))))
    assert biorthonormal_check(u, v) is True


def test_biorthonormal_scaled_pair_needs_volume_factor():
    # volumes 4 and 1/4: the unscaled minor identity would fail here
    assert biorthonormal_check([(2,)], [(Fraction(1, 2),)]) is True


def test_biorthonormal_rejects_mismatched():
    with pytest.raises(DomainError):
        biorthonormal_check([(1, 0), (0, 1)], [(1, 0), (1, 1)])
    with pytest.raises(DomainError):
        biorthonormal_check([(1, 0)], [(1, 0), (0, 1)])
    with pytest.raises(DomainError):
        biorthonormal_check([], [])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 4),
    st.data(),
)
def test_biorthonormal_random_unimodular(n, data):
    lower = [
        [1 if i == j else (data.draw(st.integers(-3, 3)) if i > j else 0) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [1 if i == j else (data.draw(st.integers(-3, 3)) if i < j else 0) for j in range(n)]
        for i in range(n)
    ]
    u = mat_mul(lower, upper)
    v = list(zip(*solve_exact(u, identity_matrix(len(u)))))
    assert biorthonormal_check(u, v) is True


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(raw_symbols(), st.integers(1, 8))
def test_integer_toeplitz_rows_over_den_are_the_symbol(symbol, size):
    # r or s reaches the matrix size in a share of the draws
    rows, starts, den = _toeplitz_rows(symbol, size)
    assert den == math.lcm(*(c.denominator for c in symbol.coeffs))
    assert all(type(x) is int for row in rows for x in row)
    r, s = symbol.r, symbol.s
    assert all(len(row) <= r + s + 1 and start + len(row) <= size for row, start in zip(rows, starts))
    dense = [[0] * start + row + [0] * (size - start - len(row)) for row, start in zip(rows, starts)]
    assert [[Fraction(x, den) for x in row] for row in dense] == [
        [symbol.coeffs[k - j + r] if -r <= k - j <= s else 0 for k in range(size)]
        for j in range(size)
    ]


# --- integer pairs against their Fraction routes ---


@seed(20261022)
@settings(max_examples=200, deadline=None)
@given(raw_symbols(max_width=4), st.integers(1, 9))
# s = 0; r != s with a symbol over den 6; a negative c_s with n (s - 1) = 3 odd
@example(LaurentSymbol.from_coefficients((Fraction(1, 2), 0, 3), 2), 4)
@example(LaurentSymbol.from_coefficients((Fraction(1, 2), Fraction(-5, 3), 1, -2), 1), 3)
@example(LaurentSymbol.from_coefficients((3, 1, 4, -2), 1), 3)
def test_trench_pair_is_the_fraction_closed_form(symbol, n):
    num, den = _trench_pair(symbol, n)
    assert type(num) is int and type(den) is int and den != 0
    expected = trench_det_fractions(symbol, n)
    assert Fraction(num, den) == expected
    assert trench_det(symbol, n) == trench_data(symbol, n).determinant == expected
    assert type(trench_det(symbol, n)) is Fraction


def test_trench_pair_denominator_carries_the_sign_of_c_s():
    # c_s = -2, s = 2, n = 3: c_s^(n (s - 1)) = -8 sits in the denominator
    symbol = LaurentSymbol.from_coefficients((3, 1, 4, -2), 1)
    num, den = _trench_pair(symbol, 3)
    assert den == -8
    assert Fraction(num, den) == toeplitz_det_direct(symbol, 2) == trench_det_fractions(symbol, 3)
    # s = 0: c_s^n over den^n, nothing in the minor
    assert _trench_pair(LaurentSymbol.from_coefficients((Fraction(1, 2), 0, 3), 2), 4) == (81 * 16, 16)


def _growth_args(ell_max, indices=None):
    return argparse.Namespace(ell_max=ell_max, indices=indices)


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(nonzero_lead_polys(max_degree=3, bound=9), st.integers(1, 30))
def test_growth_report_writes_the_fraction_ratios(poly, ell_max):
    report = gram_growth(poly, ell_max)
    dets = report.determinants
    rats, floats, _ = quotients_by_fractions(dets[1:], dets[:-1])
    written = _cmd_gram_growth(_growth_args(ell_max), poly)
    assert written["ratios"] == rats and written["ratios_float"] == floats
    assert report.ratios == tuple(map(Fraction, dets[1:], dets))
    assert report.ratios is report.ratios  # built once per record


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(nonzero_lead_polys(max_degree=3, bound=9), st.integers(1, 30), st.data())
def test_lyons_report_writes_the_fraction_ratios(poly, ell_max, data):
    assume(poly.coeffs[0] != 0)
    indices = data.draw(st.sets(st.integers(1, poly.degree), min_size=1))
    nums, dens = _lyons_minors(poly, indices, ell_max)
    assert lyons_ratios(poly, indices, ell_max) == list(map(Fraction, nums, dens))
    rats, floats, fluctuation = quotients_by_fractions(nums, dens)
    text = ",".join(map(str, sorted(indices)))
    written = _cmd_lyons(_growth_args(ell_max, text), poly)
    assert written["values"] == rats and written["values_float"] == floats
    assert written["max_tail_fluctuation"] == fluctuation


def test_growth_compares_an_overflowed_measure_square_in_integers():
    # M(1 + 10^155 x)^2 = 10^310 overflows; Interval.mul rounds its lower end down
    # to the largest float, which the integer check compares exactly with the last ratio
    report = gram_growth(IntPolynomial((1, 10**155)), 3)
    assert report.mahler_squared == (sys.float_info.max, math.inf)
    assert report.ratios[-1] > sys.float_info.max
