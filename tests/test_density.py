"""Hand-checked values and invariants for the torus density toolkit."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kronrec import density, poly_core
from kronrec.density import (
    COVERING_OFFSET_GUARD,
    MINOR_SUM_GUARD,
    _covered_general,
    _covered_linear,
    _zonotope_facets,
    certify_non_density,
    critical_epsilon,
    epsilon_bound,
    factor_real,
    is_covered,
    witness,
)
from kronrec.errors import CertificateError, DomainError, KronrecError
from kronrec.intervals import Interval, interval_min
from kronrec.lattice_structure import basis_N
from kronrec.poly_core import IntPolynomial, conjugate, mahler_measure, refined_product_interval
from kronrec.recurrence_matrices import band_rows
from oracles import bisect_grid_threshold

SHIFT2 = IntPolynomial((-2, 1))  # x - 2
GOLDEN = IntPolynomial((-1, -1, 1))  # x^2 - x - 1
CYCLO = IntPolynomial((1, 1))  # x + 1
WORKED = IntPolynomial((3, -2, -9, -3, 9))


@st.composite
def primitive_polys(draw, max_degree=3, bound=9, min_degree=1):
    degree = draw(st.integers(min_degree, max_degree))
    while True:
        coeffs = [draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1)))]
        coeffs += [draw(st.integers(-bound, bound)) for _ in range(degree - 1)]
        coeffs.append(draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1))))
        cand = IntPolynomial(tuple(coeffs))
        if cand.is_primitive:
            return cand


# --- epsilon_bound ---


def test_bounds_shift_by_two():
    b = epsilon_bound(SHIFT2)
    assert b.eps_half_scaled.contains(0.5)
    assert b.eps_double_scaled.contains(1.0)
    assert b.eps_stated.contains(0.5)
    assert b.eps_refined.contains(0.5)
    assert b.eps_coarse.contains(0.5)
    for iv in (b.eps_stated, b.eps_refined, b.eps_coarse):
        assert iv.halfwidth < 1e-9


def test_bounds_fibonacci_polynomial():
    b = epsilon_bound(GOLDEN)
    phi = (1 + math.sqrt(5)) / 2
    assert b.eps_stated.contains(1.0)
    assert b.eps_refined.contains(1.0)
    assert b.eps_coarse.contains(2 / phi)


def test_bounds_at_root_of_unity():
    b = epsilon_bound(CYCLO)
    for iv in (b.eps_half_scaled, b.eps_double_scaled, b.eps_stated,
               b.eps_refined, b.eps_coarse):
        assert iv.contains(1.0)
        assert iv.halfwidth < 1e-9


def test_refined_bound_uses_coefficient_reversal():
    # 2x - 1 has its only root at 1/2 where the direct product bottoms out at 1,
    # but the reversed polynomial -x + 2 gives the sharper 1/2
    poly = IntPolynomial((-1, 2))
    direct = refined_product_interval(poly).recip()
    b = epsilon_bound(poly)
    assert direct.contains(1.0)
    assert b.eps_refined.contains(0.5)
    assert b.eps_refined.halfwidth < 1e-9


@pytest.mark.parametrize(
    "coeffs", [(-1, 2), (-1, -1, 1), (3, -2, -9, -3, 9), (-1, -2, 3, -2, 4), (1, 0, 2, 0, 1)]
)
def test_bound_takes_two_root_sets_and_matches_public_route(monkeypatch, coeffs):
    poly = IntPolynomial(coeffs)
    calls = []

    def counting_roots(p, *args, **kwargs):
        calls.append(p.coeffs)
        return poly_core.roots(p, *args, **kwargs)

    monkeypatch.setattr(density, "roots", counting_roots)
    b = epsilon_bound(poly)
    assert calls == [poly.coeffs, conjugate(poly).coeffs]
    monkeypatch.undo()

    half = mahler_measure(poly, "half_scaled").interval.recip()
    dbl = mahler_measure(poly, "double_scaled").interval.recip()
    assert b.eps_half_scaled == half
    assert b.eps_double_scaled == dbl
    assert b.eps_stated == interval_min(half, dbl)
    assert b.eps_refined == interval_min(
        refined_product_interval(poly).recip(), refined_product_interval(conjugate(poly)).recip()
    )
    assert b.eps_coarse == mahler_measure(poly).interval.recip().scale(float(2 ** (poly.degree // 2)))


def test_bounds_reject_bad_inputs():
    with pytest.raises(DomainError):
        epsilon_bound(IntPolynomial((0, 1)))
    with pytest.raises(DomainError):
        epsilon_bound(IntPolynomial((-2, 2)))
    with pytest.raises(DomainError):
        epsilon_bound(IntPolynomial((1,)))


@settings(max_examples=60, deadline=None)
@given(primitive_polys())
def test_bound_chain_orderings(poly):
    """eps_stated <= eps_coarse and eps_refined <= eps_half_scaled."""
    b = epsilon_bound(poly)
    assert b.eps_stated.lo <= b.eps_coarse.hi + 1e-9
    assert b.eps_refined.lo <= b.eps_half_scaled.hi + 1e-9
    for iv in (b.eps_half_scaled, b.eps_double_scaled, b.eps_stated,
               b.eps_refined, b.eps_coarse):
        assert iv.lo > 0


# --- factor_real ---


def test_factor_hand_example():
    fact = factor_real(IntPolynomial((2, -9, 4)))
    assert fact.b_coeffs == pytest.approx((-8.0, 4.0), abs=1e-9)
    assert fact.c_coeffs == pytest.approx((-0.25, 1.0), abs=1e-9)
    assert fact.delta == pytest.approx(0.125, abs=1e-12)
    assert fact.eps == pytest.approx(1 / 6, abs=1e-12)
    assert fact.b_degree == 1 and fact.c_degree == 1


def test_factor_all_roots_small():
    # (4x - 1)^2: both roots at 1/4, so B degenerates to the constant 16
    fact = factor_real(IntPolynomial((1, -8, 16)))
    assert fact.b_degree == 0
    assert fact.b_coeffs == pytest.approx((16.0,), abs=1e-8)
    assert fact.c_coeffs == pytest.approx((0.0625, -0.5, 1.0), abs=1e-8)
    assert fact.delta == pytest.approx(1 / 16, abs=1e-12)
    assert fact.eps == pytest.approx((1 / 16) * (4 / 3) ** 2, abs=1e-10)


def test_factor_root_on_split_circle_goes_large():
    # the root of 2x - 1 sits exactly at 1/2; its enclosure pokes above,
    # so it must land in B and C stays trivial
    fact = factor_real(IntPolynomial((-1, 2)))
    assert fact.c_coeffs == (1.0,)
    assert fact.b_coeffs == pytest.approx((-1.0, 2.0), abs=1e-9)
    assert fact.delta == pytest.approx(1.0)
    assert fact.eps == pytest.approx(1.0)


def test_factor_rejects():
    with pytest.raises(DomainError):
        factor_real(IntPolynomial((0, 1)))
    with pytest.raises(DomainError):
        factor_real(IntPolynomial((5,)))


@settings(max_examples=50, deadline=None)
@given(primitive_polys())
def test_factor_product_reconstructs(poly):
    fact = factor_real(poly)
    prod = [0.0] * (fact.b_degree + fact.c_degree + 1)
    for i, bi in enumerate(fact.b_coeffs):
        for j, cj in enumerate(fact.c_coeffs):
            prod[i + j] += bi * cj
    scale = max(1.0, max(abs(c) for c in poly.coeffs))
    assert len(prod) == poly.degree + 1
    for got, want in zip(prod, poly.coeffs):
        assert abs(got - want) <= 1e-7 * scale


# --- witness ---


def test_witness_hand_example():
    wit = witness(SHIFT2, 3, (0.3, 0.9, 0.1))
    assert wit.w == pytest.approx((0.225, 0.15, 0.0), abs=1e-12)
    assert wit.k == (0, -2)
    assert wit.residual <= 1e-12


def test_witness_zero_target_is_fixed():
    wit = witness(SHIFT2, 4, (0.0, 0.0, 0.0, 0.0))
    assert wit.w == (0.0, 0.0, 0.0, 0.0)
    assert wit.k == (0, 0, 0)
    assert wit.residual == 0.0


def test_witness_rejects():
    with pytest.raises(DomainError):
        witness(SHIFT2, 3, (0.1, 0.2), eps=None)  # wrong length
    with pytest.raises(DomainError):
        witness(SHIFT2, 1, (0.1,))  # m too small
    with pytest.raises(DomainError):
        witness(SHIFT2, 3, (0.1, 0.2, 0.3), eps=0.1)  # below the bound


def test_witness_accepts_larger_eps():
    wit = witness(SHIFT2, 3, (0.3, 0.9, 0.1), eps=2.0)
    assert wit.eps_used == 2.0
    assert wit.eps_constructive == factor_real(SHIFT2).eps
    assert max(abs(x) for x in wit.w) <= 0.25 + 1e-12


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(
    primitive_polys(),
    st.integers(1, 5),
    st.data(),
)
def test_witness_soundness(poly, extra, data):
    """w stays inside the half-eps cube and lands the rows on integers."""
    m = poly.degree + extra
    target = tuple(
        data.draw(st.floats(-2, 2, allow_nan=False, allow_infinity=False))
        for _ in range(m)
    )
    fact = factor_real(poly)
    wit = witness(poly, m, target)
    assert max(abs(x) for x in wit.w) <= fact.eps / 2 + 1e-9
    rows = band_rows(poly.coeffs, m - poly.degree)
    for row, ki in zip(rows, wit.k):
        val = sum(float(r) * (t + w) for r, t, w in zip(row, target, wit.w))
        assert abs(val - ki) <= 1e-6


# --- is_covered ---


def test_covered_boundary_touch():
    assert is_covered(SHIFT2, 2, Fraction(1, 3), Fraction(1, 2)) is True


def test_covered_below_threshold():
    assert is_covered(SHIFT2, 2, 0.3, 0.5) is False
    assert is_covered(SHIFT2, 2, Fraction(3, 10), Fraction(1, 2)) is False


def test_covered_zero_class_is_free():
    assert is_covered(SHIFT2, 2, Fraction(1, 100), 0) is True
    assert is_covered(SHIFT2, 2, 0, 0) is True
    assert is_covered(GOLDEN, 3, 0, (0,)) is True


def test_covered_degree_two_paths():
    v = (Fraction(1, 2), Fraction(1, 2))
    assert is_covered(GOLDEN, 4, Fraction(2, 3), v) is True
    assert is_covered(GOLDEN, 4, Fraction(1, 100), v) is False


def test_covered_rejects():
    with pytest.raises(DomainError):
        is_covered(SHIFT2, 1, Fraction(1, 2), ())
    with pytest.raises(DomainError):
        is_covered(SHIFT2, 3, Fraction(1, 2), (Fraction(1, 2),))  # length
    with pytest.raises(DomainError):
        is_covered(SHIFT2, 2, Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(DomainError):
        is_covered(IntPolynomial((0, 1, 1)), 3, Fraction(1, 2), Fraction(1, 2))


def _covered_facets(poly, m, half, vv):
    """The facet test on a freshly built facet list, whatever the degree."""
    return _covered_general(_zonotope_facets(poly, m), poly.coefficient_sum_abs(), half, vv)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(-9, 9).filter(lambda x: x != 0),
    st.sampled_from((1, -1)),
    st.integers(1, 3),
    st.fractions(min_value=0, max_value=2),
    st.data(),
)
def test_covered_linear_agrees_with_general(a0_mag, a1, sign, ell, eps, data):
    """The interval sweep and the polytope search decide identically."""
    a0 = a0_mag * sign
    if math.gcd(a0_mag, abs(a1)) != 1:
        a0, a1 = (1 if a0 > 0 else -1), a1
    poly = IntPolynomial((a0, a1))
    v = [data.draw(st.fractions(min_value=0, max_value=1)) for _ in range(ell)]
    half = eps / 2
    vv = [x % 1 for x in v]
    assert _covered_linear(a0, a1, ell, half, vv) == _covered_facets(
        poly, ell + 1, half, vv
    )


@settings(max_examples=60, deadline=None)
@given(
    primitive_polys(max_degree=2, bound=4),
    st.integers(1, 2),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.data(),
)
def test_covered_monotone_in_eps(poly, extra, e1, e2, data):
    m = poly.degree + extra
    v = tuple(
        data.draw(st.fractions(min_value=0, max_value=1)) for _ in range(extra)
    )
    lo_eps, hi_eps = min(e1, e2), max(e1, e2)
    if is_covered(poly, m, lo_eps, v):
        assert is_covered(poly, m, hi_eps, v)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=0, max_value=1))
def test_covered_at_certified_threshold(v):
    """Any residue class is covered once eps reaches the certified bound."""
    cap = Fraction(epsilon_bound(SHIFT2).eps_refined.hi) + Fraction(1, 10**6)
    assert is_covered(SHIFT2, 3, cap, (v, v)) is True


def _fm_feasible(cons, nvars):
    """Fourier-Motzkin feasibility of {x : coef . x <= rhs for all constraints}."""
    for var in range(nvars - 1, -1, -1):
        pos, neg, rest = [], [], []
        for coef, rhs in cons:
            if coef[var] > 0:
                pos.append((coef, rhs))
            elif coef[var] < 0:
                neg.append((coef, rhs))
            else:
                rest.append((coef[:var], rhs))
        combined = rest
        for cp, rp in pos:
            for cn, rn in neg:
                sp, sn = cp[var], -cn[var]
                coef = tuple(cp[i] * sn + cn[i] * sp for i in range(var))
                combined.append((coef, rp * sn + rn * sp))
        best = {}
        for coef, rhs in combined:
            lead = next((x for x in coef if x != 0), None)
            if lead is None:
                if rhs < 0:
                    return False
                continue
            key, val = tuple(y / abs(lead) for y in coef), rhs / abs(lead)
            if key not in best or val < best[key]:
                best[key] = val
        cons = list(best.items())
    return True


def _covered_fm(poly, m, half, vv):
    """The elimination route to is_covered, kept as the oracle for the facet test.

    For each integer offset k: a particular solution w0 of band(A) w = vv + k
    from the triangular leading columns, then Fourier-Motzkin feasibility of
    |w0 + lambda N|_inf <= half over the rational recurrence basis N.
    """
    a = poly.coeffs
    d = poly.degree
    ell = m - d
    k_bound = half * poly.coefficient_sum_abs()
    ranges = [
        range(math.ceil(-k_bound - vi), math.floor(k_bound - vi) + 1) for vi in vv
    ]
    nmat = basis_N(poly, m)
    for k in itertools.product(*ranges):
        w0 = [Fraction(0)] * m
        for i in range(ell - 1, -1, -1):
            acc = vv[i] + k[i]
            for j in range(i + 1, min(i + d, ell - 1) + 1):
                acc -= a[j - i] * w0[j]
            w0[i] = acc / a[0]
        cons = []
        for col in range(m):
            coef = tuple(nmat[t][col] for t in range(d))
            cons.append((coef, half - w0[col]))
            cons.append((tuple(-x for x in coef), half + w0[col]))
        if _fm_feasible(cons, d):
            return True
    return False


def _covering_case(poly, ell, draw_fraction):
    """Targets and an eps up to 3/sum|a_i|, which straddles the covering threshold."""
    vv = [draw_fraction(0, 1) % 1 for _ in range(ell)]
    half = draw_fraction(0, 1) * Fraction(3, 2 * poly.coefficient_sum_abs())
    return half, vv


@settings(max_examples=60, deadline=None)
@given(primitive_polys(max_degree=4, bound=3, min_degree=2), st.integers(1, 3), st.data())
def test_facet_test_agrees_with_fourier_motzkin(poly, ell, data):
    half, vv = _covering_case(
        poly, ell, lambda lo, hi: data.draw(st.fractions(lo, hi, max_denominator=12))
    )
    m = poly.degree + ell
    assert _covered_facets(poly, m, half, vv) == _covered_fm(poly, m, half, vv)


def test_facet_and_fm_agree_on_both_sides():
    rng = random.Random(4)
    outcomes = []
    for _ in range(60):
        d = rng.randint(2, 4)
        coeffs = [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(d - 1)]
        poly = IntPolynomial(tuple(coeffs) + (rng.choice((-1, 1)),))
        ell = rng.randint(1, 3)
        half, vv = _covering_case(poly, ell, lambda lo, hi: Fraction(rng.randint(0, 12), 12))
        got = _covered_facets(poly, poly.degree + ell, half, vv)
        assert got == _covered_fm(poly, poly.degree + ell, half, vv)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


def test_facets_hand_values():
    for poly in (SHIFT2, GOLDEN, IntPolynomial((3, -2, -9, -3, 9))):
        assert _zonotope_facets(poly, poly.degree + 1) == [((1,), poly.coefficient_sum_abs())]
    # band(x^2 - x - 1) at m = 4 has columns (-1,0), (-1,-1), (1,-1), (0,1);
    # each normal is one column turned by a right angle, s_c = ||C A||_1
    assert sorted(_zonotope_facets(GOLDEN, 4)) == [
        ((0, 1), 3), ((1, -1), 4), ((1, 0), 3), ((1, 1), 4)
    ]


def test_covering_offset_guard():
    # eps = 2 and v = 1/3 leave 6 offsets per level of x^2 - x - 1: 6^8 at m = 10
    assert 6**7 <= COVERING_OFFSET_GUARD < 6**8
    with pytest.raises(DomainError, match=str(6**8)):
        is_covered(GOLDEN, 10, 2, [Fraction(1, 3)] * 8)


def test_facet_guard():
    # C(m, l-1) l minors for x^2 - x - 1: 98658 at m = 29, 113680 at m = 30
    assert math.comb(29, 26) * 27 <= MINOR_SUM_GUARD < math.comb(30, 27) * 28 == 113680
    with pytest.raises(DomainError, match="113680 minors"):
        is_covered(GOLDEN, 30, Fraction(1, 100), [0] * 28)


# --- critical_epsilon ---


def test_critical_linear_grid_threshold():
    # with an even grid the worst class is 1/2 and the threshold is exactly
    # 1/(|a_0| + |a_1|)
    est = critical_epsilon(SHIFT2, 2, grid_n=8, bisection_tol=Fraction(1, 10**6))
    assert abs(est.estimate - Fraction(1, 3)) <= Fraction(1, 10**6)
    assert est.lower <= est.estimate <= est.upper
    assert est.grid_resolution == 8


def test_critical_fields_are_exact_rationals():
    est = critical_epsilon(SHIFT2, 3, grid_n=4)
    for val in (est.lower, est.upper, est.estimate, est.bisection_tol):
        assert isinstance(val, Fraction)
    assert est.method_notes
    assert est.upper <= Fraction(epsilon_bound(SHIFT2).eps_refined.hi)


def test_critical_monotone_in_m():
    tol = Fraction(1, 500)
    ests = [
        critical_epsilon(SHIFT2, m, grid_n=4, bisection_tol=tol).estimate
        for m in (2, 3, 4)
    ]
    assert ests[0] <= ests[1] + tol
    assert ests[1] <= ests[2] + tol


def test_critical_grid_guard():
    with pytest.raises(DomainError):
        critical_epsilon(SHIFT2, 7, grid_n=2)
    est = critical_epsilon(
        SHIFT2, 7, grid_n=2, bisection_tol=Fraction(1, 50), allow_large_grid=True
    )
    assert est.lower <= est.upper


def test_grid_threshold_hand_values():
    # x - 2 on a grid of 4: 2^(l-1) / (2^l + 1) for l = m - 1
    for m in range(3, 7):
        est = critical_epsilon(SHIFT2, m, grid_n=4, allow_large_grid=True)
        assert est.lower == est.estimate == Fraction(2 ** (m - 2), 2 ** (m - 1) + 1)
    for m, tau in ((4, Fraction(1, 2)), (5, Fraction(1, 2)), (6, Fraction(3, 5))):
        assert critical_epsilon(GOLDEN, m, grid_n=4).estimate == tau
    assert critical_epsilon(WORKED, 6).estimate == Fraction(2, 41)
    est = critical_epsilon(IntPolynomial((1, 0, 0, 1)), 5, grid_n=2)
    assert est.estimate == Fraction(1, 2)
    assert est.upper == Fraction(epsilon_bound(IntPolynomial((1, 0, 0, 1))).eps_refined.hi)


def test_grid_threshold_inside_bisection_bracket():
    rng = random.Random(5)
    tol = Fraction(1, 1000)
    for d in range(1, 5):
        for ell in range(1, 4):
            while True:
                ends = [rng.choice((-2, -1, 1, 2)) for _ in range(2)]
                poly = IntPolynomial((ends[0], *(rng.randint(-2, 2) for _ in range(d - 1)), ends[1]))
                if poly.is_primitive:
                    break
            m, grid_n = d + ell, rng.randint(2, 4)
            tau = critical_epsilon(poly, m, grid_n=grid_n).estimate
            lo, hi = bisect_grid_threshold(poly, m, grid_n, tol)
            assert lo < tau <= hi
            grid = [Fraction(j, grid_n) for j in range(grid_n)]
            targets = list(itertools.product(grid, repeat=ell))
            assert all(is_covered(poly, m, tau, t) for t in targets)
            assert not all(is_covered(poly, m, tau - Fraction(1, 10**9), t) for t in targets)


def test_critical_builds_facets_once(monkeypatch):
    calls = []

    def counted(poly, m):
        calls.append((poly, m))
        return _zonotope_facets(poly, m)

    monkeypatch.setattr(density, "_zonotope_facets", counted)
    for poly, m in ((GOLDEN, 5), (SHIFT2, 4)):
        calls.clear()
        critical_epsilon(poly, m, grid_n=4)
        assert calls == [(poly, m)]


def test_critical_threshold_above_cap_raises(monkeypatch):
    real = epsilon_bound(GOLDEN)
    low = dataclasses.replace(real, eps_refined=Interval.point(0.25))
    monkeypatch.setattr(density, "epsilon_bound", lambda poly: low)
    # the grid threshold of x^2 - x - 1 at m = 4 on a grid of 4 is 1/2
    with pytest.raises(CertificateError):
        critical_epsilon(GOLDEN, 4, grid_n=4)


def test_critical_rejects():
    with pytest.raises(DomainError):
        critical_epsilon(SHIFT2, 1)
    with pytest.raises(DomainError):
        critical_epsilon(SHIFT2, 2, grid_n=0)
    with pytest.raises(DomainError):
        critical_epsilon(SHIFT2, 2, bisection_tol=0)


# --- certify_non_density ---


def test_certify_hand_volume():
    cert = certify_non_density(SHIFT2, 3, Fraction(2, 5))
    assert cert.volume_bound == Fraction(148, 125)
    assert cert.certified is False


def test_certify_worked_threshold():
    cert = certify_non_density(SHIFT2, 8, Fraction(2, 5))
    assert cert.volume_bound == Fraction(163456, 390625)
    assert cert.volume_bound < Fraction(42, 100)
    assert cert.certified is True


def test_certify_accepts_decimal_string_and_float():
    exact = certify_non_density(SHIFT2, 8, "0.4")
    assert exact.volume_bound == Fraction(163456, 390625)
    close = certify_non_density(SHIFT2, 8, 0.4)
    assert close.certified is True
    assert abs(float(close.volume_bound) - float(exact.volume_bound)) < 1e-12


def test_certify_above_reciprocal_measure_never_fires():
    for m in range(2, 21):
        assert certify_non_density(SHIFT2, m, Fraction(3, 5)).certified is False


def test_certify_eventually_fires_degree_two():
    # 1/2 is safely below 1/M for x^2 - x - 1, so some window must certify
    hits = [
        m
        for m in range(3, 21)
        if certify_non_density(GOLDEN, m, Fraction(1, 2)).certified
    ]
    assert hits
    assert min(hits) > 3


def test_certify_minor_guard():
    # sum_p C(d, p) C(m, p) = C(m + d, d) minors: 101270 for degree 4 at m = 37
    assert math.comb(40, 4) <= MINOR_SUM_GUARD < math.comb(41, 4) == 101270
    with pytest.raises(DomainError, match="101270"):
        certify_non_density(IntPolynomial((3, -2, -9, -3, 9)), 37, Fraction(1, 2))


def test_certify_rejects():
    with pytest.raises(DomainError):
        certify_non_density(SHIFT2, 3, 0)
    with pytest.raises(DomainError):
        certify_non_density(SHIFT2, 3, Fraction(6, 5))
    with pytest.raises(DomainError):
        certify_non_density(SHIFT2, 1, Fraction(1, 2))


@settings(max_examples=30, deadline=None)
@given(primitive_polys(max_degree=2, bound=5), st.integers(1, 4))
def test_certify_volume_monotone_in_eps(poly, extra):
    m = poly.degree + extra
    small = certify_non_density(poly, m, Fraction(1, 4)).volume_bound
    large = certify_non_density(poly, m, Fraction(3, 4)).volume_bound
    assert small <= large
    assert small > 0


# --- cross-checks between the pieces ---


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_witness_lands_inside_covering(m, data):
    """Wherever the constructive bound moves a class, the exact decision agrees."""
    ell = m - 1
    v = tuple(
        data.draw(st.fractions(min_value=0, max_value=1)) for _ in range(ell)
    )
    fact = factor_real(SHIFT2)
    eps = Fraction(math.ceil(fact.eps * 1024), 1024) + Fraction(1, 512)
    assert is_covered(SHIFT2, m, eps, v) is True
