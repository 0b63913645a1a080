"""Hand-checked values and invariants for the torus density toolkit."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from kronrec import density, exact_linalg, poly_core
from kronrec.density import (
    COVERING_BUDGET,
    MINOR_SUM_GUARD,
    _covered_by_facets,
    _covered_linear,
    _minor_levels,
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
from kronrec.lattice_structure import basis_N, integral_basis
from kronrec.poly_core import IntPolynomial, mahler_measure, refined_product_interval, roots
from kronrec.recurrence_matrices import band_rows
from oracles import (
    _fraction_gauge,
    bisect_grid_threshold,
    covered_by_fraction_gauge,
    critical_epsilon_per_target,
    degree_one_threshold,
    in_powers,
    mahler_conjugate_two_root_sets,
    minor_levels_by_rows,
    minors_by_elimination,
    refined_threshold_two_root_sets,
    zonotope_facets_by_band_minors,
)

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
    assert b.eps_half_scaled.lo <= 0.5 <= b.eps_half_scaled.hi
    assert b.eps_double_scaled.lo <= 1.0 <= b.eps_double_scaled.hi
    assert b.eps_stated.lo <= 0.5 <= b.eps_stated.hi
    assert b.eps_refined.lo <= 0.5 <= b.eps_refined.hi
    assert b.eps_coarse.lo <= 0.5 <= b.eps_coarse.hi
    for iv in (b.eps_stated, b.eps_refined, b.eps_coarse):
        assert iv.halfwidth < 1e-9


def test_bounds_fibonacci_polynomial():
    b = epsilon_bound(GOLDEN)
    phi = (1 + math.sqrt(5)) / 2
    assert b.eps_stated.lo <= 1.0 <= b.eps_stated.hi
    assert b.eps_refined.lo <= 1.0 <= b.eps_refined.hi
    assert b.eps_coarse.lo <= 2 / phi <= b.eps_coarse.hi


def test_bounds_at_root_of_unity():
    b = epsilon_bound(CYCLO)
    for iv in (b.eps_half_scaled, b.eps_double_scaled, b.eps_stated,
               b.eps_refined, b.eps_coarse):
        assert iv.lo <= 1.0 <= iv.hi
        assert iv.halfwidth < 1e-9


def test_refined_bound_uses_coefficient_reversal():
    # 2x - 1 has its only root at 1/2 where the direct product bottoms out at 1,
    # but the reversed polynomial -x + 2 gives the sharper 1/2
    poly = IntPolynomial((-1, 2))
    direct = refined_product_interval(poly).recip()
    b = epsilon_bound(poly)
    assert direct.lo <= 1.0 <= direct.hi
    assert b.eps_refined.lo <= 0.5 <= b.eps_refined.hi
    assert b.eps_refined.halfwidth < 1e-9


@pytest.mark.parametrize(
    "coeffs", [(-1, 2), (-1, -1, 1), (3, -2, -9, -3, 9), (-1, -2, 3, -2, 4), (1, 0, 2, 0, 1)]
)
def test_bound_takes_one_root_set_and_matches_public_route(monkeypatch, coeffs):
    """bound, critical-eps and the conjugate measure each certify the roots of A alone."""
    poly = IntPolynomial(coeffs)
    calls = []

    def counting_roots(p, *args, **kwargs):
        calls.append(p.coeffs)
        return roots(p, *args, **kwargs)

    monkeypatch.setattr(density, "roots", counting_roots)
    monkeypatch.setattr(poly_core, "roots", counting_roots)
    for run in (
        lambda: epsilon_bound(poly),
        lambda: critical_epsilon(poly, poly.degree + 1, grid_n=2),
        lambda: mahler_measure(poly, "conjugate"),
    ):
        calls.clear()
        run()
        assert calls == [poly.coeffs]
    monkeypatch.undo()

    b = epsilon_bound(poly)
    half = mahler_measure(poly, "half_scaled").interval.recip()
    dbl = mahler_measure(poly, "double_scaled").interval.recip()
    assert b.eps_half_scaled == half
    assert b.eps_double_scaled == dbl
    assert b.eps_stated == interval_min(half, dbl)
    assert b.eps_refined == interval_min(
        refined_product_interval(poly).recip(), roots(poly).reversal_refined_product().recip()
    )
    assert b.eps_coarse == mahler_measure(poly).interval.recip().scale(float(2 ** (poly.degree // 2)))


def test_bound_takes_each_root_modulus_once(monkeypatch):
    """The five folds of epsilon_bound share one modulus enclosure per root disk."""
    # (x^2 + x + 1)(x - 2)^2: a conjugate pair and a double root, three disks
    poly = IntPolynomial((4, 0, 1, -3, 1))
    assert sorted(enc.multiplicity for enc in roots(poly).roots) == [1, 1, 2]
    calls, modulus_interval = [], poly_core._modulus_interval

    def counting_modulus(enc):
        calls.append(enc)
        return modulus_interval(enc)

    monkeypatch.setattr(poly_core, "_modulus_interval", counting_modulus)
    epsilon_bound(poly)
    assert len(calls) == 3
    assert len(set(calls)) == 3


# factors whose roots lie on |z| = 1, at |z| = 1/2 or 2, or are rational
_SPECIAL_FACTORS = [
    (-1, 1), (1, 1), (1, 0, 1), (1, 1, 1), (1, -1, 1), (-1, 2), (1, 2), (-2, 1), (2, 1),
    (1, 0, 4), (4, 0, 1), (-3, 2), (2, -3), (-1, 0, 2), (1, 0, 0, 1),
]


def _reversal_sample(count=320):
    """Seeded primitive polynomials of degree 1-10 with a nonzero constant coefficient.

    Each multiplies one to four factors, drawn from `_SPECIAL_FACTORS` or
    with random nonzero coefficients, and one in three repeats its first
    factor.  Non-primitive products and degrees above 10 are drawn again.
    """
    rng = random.Random("reversal-refined")
    out = []
    while len(out) < count:
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.6:
                factors.append(rng.choice(_SPECIAL_FACTORS))
            else:
                degree = rng.randint(1, 3)
                factors.append(tuple(rng.randint(-5, 5) or 1 for _ in range(degree + 1)))
        if rng.random() < 1 / 3:
            factors.append(factors[0])
        cs = (1,)
        for f in factors:
            cs = tuple(
                sum(cs[j] * f[i - j] for j in range(len(cs)) if 0 <= i - j < len(f))
                for i in range(len(cs) + len(f) - 1)
            )
        poly = IntPolynomial(cs)
        if 1 <= poly.degree <= 10 and poly.is_primitive:
            out.append(poly)
    return out


def test_reversal_refined_product_meets_the_two_root_set_route():
    """eps_refined and the conjugate measure from A's roots meet the reversal-root oracle's."""
    sample = _reversal_sample()
    assert len(sample) >= 300
    assert {p.degree for p in sample} == set(range(1, 11))
    for poly in sample:
        new, old = epsilon_bound(poly).eps_refined, refined_threshold_two_root_sets(poly)
        assert max(new.lo, old.lo) <= min(new.hi, old.hi), (poly.coeffs, new, old)
        new = mahler_measure(poly, "conjugate").interval
        old = mahler_conjugate_two_root_sets(poly).interval
        assert max(new.lo, old.lo) <= min(new.hi, old.hi), (poly.coeffs, new, old)


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
    assert 1 / abs(fact.b_coeffs[0]) == pytest.approx(0.125, abs=1e-12)
    assert fact.eps == pytest.approx(1 / 6, abs=1e-12)
    assert len(fact.b_coeffs) - 1 == 1 and len(fact.c_coeffs) - 1 == 1


def test_factor_all_roots_small():
    # (4x - 1)^2: both roots at 1/4, so B degenerates to the constant 16
    fact = factor_real(IntPolynomial((1, -8, 16)))
    assert len(fact.b_coeffs) - 1 == 0
    assert fact.b_coeffs == pytest.approx((16.0,), abs=1e-8)
    assert fact.c_coeffs == pytest.approx((0.0625, -0.5, 1.0), abs=1e-8)
    assert 1 / abs(fact.b_coeffs[0]) == pytest.approx(1 / 16, abs=1e-12)
    assert fact.eps == pytest.approx((1 / 16) * (4 / 3) ** 2, abs=1e-10)


def test_factor_rational_root_on_split_circle_goes_small():
    # the root of 2x - 1 sits exactly at 1/2 and is reached exactly, so its
    # disk has radius 0 and lies in |z| <= 1/2: C = x - 1/2 and B = 2; eps
    # stays 1, as delta = 1/2 meets the factor 1/(1 - 1/2) = 2
    fact = factor_real(IntPolynomial((-1, 2)))
    assert fact.c_coeffs == (-0.5, 1.0)
    assert fact.b_coeffs == (2.0,)
    assert 1 / abs(fact.b_coeffs[0]) == 0.5 and fact.eps == 1.0


def test_factor_irrational_roots_on_split_circle_go_large():
    # 4x^2 - 3x + 1 has the roots (3 +- i sqrt 7)/8 of modulus exactly 1/2;
    # their centres are irrational, so their disks have a positive radius
    fact = factor_real(IntPolynomial((1, -3, 4)))
    assert fact.c_coeffs == (1.0,)
    assert len(fact.b_coeffs) - 1 == 2


def test_factor_exact_roots_on_split_circle_go_small():
    # -1 - 4x^2 and 4x^2 + 1 have the roots +-i/2, reached exactly with radius 0
    for lead in (-4, 4):
        fact = factor_real(IntPolynomial((lead // 4, 0, lead)))
        assert fact.b_coeffs == (float(lead),)
        assert fact.c_coeffs == (0.25, 0.0, 1.0)
        assert 1 / abs(fact.b_coeffs[0]) == 0.25 and fact.eps == 1.0


def test_factor_rejects():
    with pytest.raises(DomainError):
        factor_real(IntPolynomial((0, 1)))
    with pytest.raises(DomainError):
        factor_real(IntPolynomial((5,)))


@settings(max_examples=50, deadline=None)
@given(primitive_polys())
def test_factor_product_reconstructs(poly):
    fact = factor_real(poly)
    prod = [0.0] * (len(fact.b_coeffs) + len(fact.c_coeffs) - 1)
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


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_witness_refuses_a_non_finite_eps_before_factoring(monkeypatch, eps):
    # nan passed the bound check, and inf reached Fraction(eps), before the check
    monkeypatch.setattr(density, "factor_real", mock.Mock(side_effect=AssertionError))
    with pytest.raises(DomainError, match="eps must be finite"):
        witness(SHIFT2, 3, (0.1, 0.2, 0.3), eps=eps)


@pytest.mark.parametrize("eps", [10**400, Fraction(10**400, 3), -(10**400)])
def test_witness_refuses_an_eps_past_the_float_range_before_factoring(monkeypatch, eps):
    # math.isfinite cannot convert these to a float
    monkeypatch.setattr(density, "factor_real", mock.Mock(side_effect=AssertionError))
    with pytest.raises(DomainError, match="eps must lie within the float range"):
        witness(SHIFT2, 3, (0.1, 0.2, 0.3), eps=eps)


def test_witness_accepts_larger_eps():
    wit = witness(SHIFT2, 3, (0.3, 0.9, 0.1), eps=2.0)
    assert wit.eps_used == 2.0
    assert wit.eps_constructive == factor_real(SHIFT2).eps
    assert max(abs(x) for x in wit.w) <= 0.25 + 1e-12


def test_witness_checks_its_certificate_exactly(monkeypatch):
    target = (0.3, 0.9, 0.1)
    real = factor_real(SHIFT2)
    sup = max(abs(x) for x in witness(SHIFT2, 3, target).w)  # 0.225, set by delta alone

    def understate(eps):
        monkeypatch.setattr(density, "factor_real", lambda poly: real._replace(eps=eps))

    # an understated eps leaves the perturbation outside its cube
    understate(real.eps / 4)
    with pytest.raises(CertificateError, match="exact check"):
        witness(SHIFT2, 3, target)
    # the check is exact: the cube of 2 sup holds w, the next float below does not
    understate(2 * sup)
    assert witness(SHIFT2, 3, target).eps_used == 2 * sup
    understate(math.nextafter(2 * sup, 0))
    with pytest.raises(CertificateError):
        witness(SHIFT2, 3, target)


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
    with pytest.raises(DomainError, match="cannot interpret"):
        is_covered(GOLDEN, 4, "abc", (0, 0))
    with pytest.raises(DomainError, match="cannot interpret"):
        certify_non_density(GOLDEN, 4, "1/0")
    with pytest.raises(DomainError):
        is_covered(SHIFT2, 3, Fraction(1, 2), (Fraction(1, 2),))  # length
    with pytest.raises(DomainError):
        is_covered(SHIFT2, 2, Fraction(-1, 2), Fraction(1, 2))
    with pytest.raises(DomainError):
        is_covered(IntPolynomial((0, 1, 1)), 3, Fraction(1, 2), Fraction(1, 2))


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
    assert _covered_linear(a0, a1, ell, half, vv) == _covered_by_facets(poly, ell + 1, half, vv)


def test_covered_linear_sweeps_away_from_the_larger_coefficient(monkeypatch):
    """With |a_1| > |a_0| the sweep runs on the reversal, so its unions stay small.

    Swept from w_1, the union for 1 + 3x reaches 55489 intervals here.
    """
    sizes = []
    merge = density._merge_intervals

    def recording(parts):
        merged = merge(parts)
        sizes.append(len(merged))
        return merged

    monkeypatch.setattr(density, "_merge_intervals", recording)
    poly = IntPolynomial((1, 3))
    v = [Fraction(x, 16) for x in (2, 9, 10, 9, 5, 2, 4, 9, 15, 5)]
    covered = is_covered(poly, 11, Fraction(47, 50), v)
    assert sizes and max(sizes) <= 4
    assert covered == _covered_by_facets(poly, 11, Fraction(47, 100), v)


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
    assert _covered_by_facets(poly, m, half, vv) == _covered_fm(poly, m, half, vv)


def test_facet_and_fm_agree_on_both_sides():
    rng = random.Random(4)
    outcomes = []
    for _ in range(60):
        d = rng.randint(2, 4)
        coeffs = [rng.choice((-2, -1, 1, 2))] + [rng.randint(-2, 2) for _ in range(d - 1)]
        poly = IntPolynomial(tuple(coeffs) + (rng.choice((-1, 1)),))
        ell = rng.randint(1, 3)
        half, vv = _covering_case(poly, ell, lambda lo, hi: Fraction(rng.randint(0, 12), 12))
        got = _covered_by_facets(poly, poly.degree + ell, half, vv)
        assert got == _covered_fm(poly, poly.degree + ell, half, vv)
        outcomes.append(got)
    assert True in outcomes and False in outcomes


# --- the Laplace minor table ---


def _keyed_minors(rows, top):
    """_minor_levels' positional levels as {(row tuple, column tuple): minor} dicts."""
    return [
        {(rs, cs): x for rs, minors in level.items() for cs, x in zip(cols, minors, strict=True)}
        for cols, level in _minor_levels(rows, top)
    ]


def test_minor_levels_hand_shapes():
    assert list(_minor_levels([], 2)) == [([()], {(): [1]}), ([], {}), ([], {})]
    assert list(_minor_levels([[5, -7]], 0)) == [([()], {(): [1]})]
    assert list(_minor_levels([[5, -7]], 2)) == [
        ([()], {(): [1]}),
        ([(0,), (1,)], {(0,): [5, -7]}),
        ([(0, 1)], {}),
    ]
    big = 2**64 + 1
    for rows in ([[2, -1, 0, 5]], [[3], [0], [-7]], [[big, 1], [0, 0], [2, big]]):
        assert _keyed_minors(rows, 3) == minors_by_elimination(rows, 3)
    levels = _keyed_minors([[big, 1], [0, 0], [2, big]], 3)
    assert levels[1][(2,), (1,)] == big
    assert levels[2] == {((0, 1), (0, 1)): 0, ((0, 2), (0, 1)): big * big - 2, ((1, 2), (0, 1)): 0}
    assert levels[3] == {}


@st.composite
def minor_matrices(draw, least=1):
    """least..5 rows of least..5 columns: small entries with zeros, some above 2^64, zero rows."""
    width = draw(st.integers(least, 5))
    entry = st.integers(-3, 3) | st.integers(2**64, 2**70) | st.integers(-(2**70), -(2**64))
    row = st.lists(entry, min_size=width, max_size=width) | st.just([0] * width)
    return draw(st.lists(row, min_size=least, max_size=5))


@seed(20261018)
@settings(max_examples=200, deadline=None)
@given(minor_matrices(), st.integers(0, 6))
def test_minor_levels_equal_the_elimination_route(rows, top):
    assert _keyed_minors(rows, top) == minors_by_elimination(rows, top)


def _ordered_levels(levels):
    """Each level as (column tuples, [(row tuple, minors)]), keeping the dict's order."""
    return [(cols, list(level.items())) for cols, level in levels]


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(minor_matrices(least=0), st.integers(0, 6))
@example([], 3)
@example([[], [], []], 2)  # rows of no columns
@example([[0, 0, 0], [1, -2, 3]], 4)  # a zero row; top above the rows and the columns
@example([[2**70, -3, 2**64], [3, 2**66, -1], [0, 1, 2], [-2**65, 2, 0]], 6)
def test_minor_levels_equal_the_row_expansion(rows, top):
    got = _ordered_levels(_minor_levels(rows, top))
    assert got == _ordered_levels(minor_levels_by_rows(rows, top))


def test_facets_and_volume_take_no_elimination(monkeypatch):
    calls = []
    real = exact_linalg._bareiss

    def counted(rows, starts):
        calls.append(len(rows))
        return real(rows, starts)

    monkeypatch.setattr(exact_linalg, "_bareiss", counted)
    for poly, m in ((GOLDEN, 12), (WORKED, 9), (IntPolynomial((2, -3, 1, 4)), 10)):
        calls.clear()
        _zonotope_facets(poly, m)
        assert calls == []
        integral_basis(poly, m)
        alone = len(calls)
        assert alone > 0
        calls.clear()
        certify_non_density(poly, m, Fraction(1, 2))
        assert len(calls) == alone


def test_facets_hand_values():
    for poly in (SHIFT2, GOLDEN, IntPolynomial((3, -2, -9, -3, 9))):
        assert _zonotope_facets(poly, poly.degree + 1) == [((1,), poly.coefficient_sum_abs())]
    # band(x^2 - x - 1) at m = 4 has columns (-1,0), (-1,-1), (1,-1), (0,1);
    # each normal is one column turned by a right angle, s_c = ||C A||_1
    assert sorted(_zonotope_facets(GOLDEN, 4)) == [
        ((0, 1), 3), ((1, -1), 4), ((1, 0), 3), ((1, 1), 4)
    ]


def test_covering_walks_a_large_offset_box():
    # the nearest offset of this target misses at eps = 3/2 on (x - 1)^2, so the
    # box |v + k|_inf <= 3 is walked: 7 offsets at v = 0 and 6 elsewhere, 6^7 7
    poly, v = IntPolynomial((1, -2, 1)), [Fraction(x, 8) for x in (5, 2, 0, 4, 2, 2, 6, 4)]
    assert is_covered(poly, 10, Fraction(3, 2), v)
    # an offset inside that box which covers, checked on every facet in Fractions
    k = (-3, 0, 1, -1, 0, 0, -1, -1)
    assert _fraction_gauge(_zonotope_facets(poly, 10), v, k) <= Fraction(3, 4)


def test_covering_budget_stops_the_walk(monkeypatch):
    # -2,9,-7,4 at m = 14: 2^11 targets times 1001 facets, ~2.05e6 products for the
    # nearest offsets alone.  Under a budget just above that, the walk itself must run
    # out; the real budget takes minutes to, and the text names it whatever the budget
    # in force
    monkeypatch.setattr(density, "COVERING_BUDGET", 21 * 10**5)
    with pytest.raises(DomainError, match=f"more than {COVERING_BUDGET} facet products"):
        critical_epsilon(IntPolynomial((-2, 9, -7, 4)), 14, grid_n=2, allow_large_grid=True)


def test_gauge_search_spends_one_unit_per_facet_product():
    # the box walk of test_covering_walks_a_large_offset_box, eps/2 = 3/4 its stop
    poly, v = IntPolynomial((1, -2, 1)), [Fraction(x, 8) for x in (5, 2, 0, 4, 2, 2, 6, 4)]
    gauge = density._gauge(poly, 10)
    qv, near, goal = [int(8 * x) for x in v], [-round(x) for x in v], 6 * gauge[0]
    best, left = density._gauge_search(gauge, qv, 8, near, goal, goal, COVERING_BUDGET)
    spent = COVERING_BUDGET - left
    assert best <= goal and len(gauge[1]) < spent < COVERING_BUDGET
    # the same walk on exactly its spending answers with nothing left; one product
    # less is refused, and so is a budget short of the nearest offset's facets
    assert density._gauge_search(gauge, qv, 8, near, goal, goal, spent) == (best, 0)
    for short in (spent - 1, len(gauge[1]) - 1):
        with pytest.raises(DomainError, match=f"more than {COVERING_BUDGET} facet products"):
            density._gauge_search(gauge, qv, 8, near, goal, goal, short)


def test_facets_equal_the_band_minor_route():
    rng = random.Random(9)
    seen = set()
    for case in range(240):
        d, ell = rng.randint(1, 4), 1 + case % 5
        if case % 12 == 11:
            d, ell = rng.randint(8, 20), 1 + case // 12 % 4
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3))] + [rng.randint(-3, 3) for _ in range(d - 1)]
        coeffs.append(rng.choice((-3, -2, -1, 1, 2, 3)))
        if case % 7 == 0:
            coeffs = [2 * x for x in coeffs]
        poly = IntPolynomial(tuple(coeffs))
        kinds = {
            "m = d + 1": ell == 1,
            "non-monic": abs(coeffs[-1]) != 1,
            "|a_0| > 1": abs(coeffs[0]) > 1,
            "non-primitive": not poly.is_primitive,
            "degree 8 and up": d >= 8,
        }
        seen.update(kind for kind, hit in kinds.items() if hit)
        m = d + ell
        assert sorted(_zonotope_facets(poly, m)) == sorted(zonotope_facets_by_band_minors(poly, m))
    assert len(seen) == 5


def test_facet_guard():
    # (m - d) C(m - 1, d) minors for x^2 - x - 1: 99238 at m = 60, 104430 at m = 61
    assert 58 * math.comb(59, 2) <= MINOR_SUM_GUARD < 59 * math.comb(60, 2) == 104430
    with pytest.raises(DomainError, match="104430 minors"):
        is_covered(GOLDEN, 61, Fraction(1, 100), [0] * 59)
    # never more than the band-column route's (m - d) C(m, m - d - 1) minors of order
    # m - d - 1, so degree 36 at m = 40 builds its facets (36556 minors, not 39520)
    deg36 = IntPolynomial((2,) + (0,) * 34 + (-1, 1))
    assert sorted(_zonotope_facets(deg36, 40)) == sorted(zonotope_facets_by_band_minors(deg36, 40))


def test_facets_of_a_long_window():
    # the band-column oracle pays 27 minors of order 26 per facet here, ~100 s
    assert len(_zonotope_facets(GOLDEN, 29)) == 3654
    assert is_covered(GOLDEN, 29, Fraction(1, 100), [0] * 27) is True


# --- critical_epsilon ---


def test_critical_linear_grid_threshold():
    # with an even grid the worst class is 1/2 and the threshold is exactly
    # 1/(|a_0| + |a_1|)
    est = critical_epsilon(SHIFT2, 2, grid_n=8, bisection_tol=Fraction(1, 10**6))
    assert abs(est.estimate - Fraction(1, 3)) <= Fraction(1, 10**6)
    assert est.estimate <= est.upper


def test_critical_fields_are_exact_rationals():
    est = critical_epsilon(SHIFT2, 3, grid_n=4)
    for val in (est.upper, est.estimate):
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
    assert est.estimate <= est.upper


def test_critical_target_count_guard(monkeypatch):
    def unreachable(poly):
        raise AssertionError("the guard must run before the root work")

    monkeypatch.setattr(density, "_refined_threshold", unreachable)
    budget = f"covering would take more than {COVERING_BUDGET} facet products"
    # l = 4 passes the dimension guard, but the nearest offsets of 100^4 targets
    # alone are over the budget, and so are those of 2^22 targets on x - 1
    with pytest.raises(DomainError, match=budget):
        critical_epsilon(GOLDEN, 6, grid_n=100)
    with pytest.raises(DomainError, match=budget):
        critical_epsilon(IntPolynomial((-1, 1)), 23, grid_n=2, allow_large_grid=True)
    # the patch is on the root work's route: a grid inside the budget reaches it
    with pytest.raises(AssertionError, match="root work"):
        critical_epsilon(GOLDEN, 6, grid_n=2)


def test_grid_threshold_hand_values():
    # x - 2 on a grid of 4: 2^(l-1) / (2^l + 1) for l = m - 1
    for m in range(3, 7):
        est = critical_epsilon(SHIFT2, m, grid_n=4, allow_large_grid=True)
        assert est.estimate == Fraction(2 ** (m - 2), 2 ** (m - 1) + 1)
    for m, tau in ((4, Fraction(1, 2)), (5, Fraction(1, 2)), (6, Fraction(3, 5))):
        assert critical_epsilon(GOLDEN, m, grid_n=4).estimate == tau
    assert critical_epsilon(WORKED, 6).estimate == Fraction(2, 41)
    est = critical_epsilon(IntPolynomial((1, 0, 0, 1)), 5, grid_n=2)
    assert est.estimate == Fraction(1, 2)
    assert est.upper == Fraction(epsilon_bound(IntPolynomial((1, 0, 0, 1))).eps_refined.hi)


# x - 2, 1 + 3x, 3 - 2x, 2 + 3x, x - 3, x - 1, x + 1, x + 2, 1 - 2x
DEGREE_ONE = [
    IntPolynomial(c) for c in ((-2, 1), (1, 3), (3, -2), (2, 3), (-3, 1), (-1, 1), (1, 1), (2, 1), (1, -2))
]


@pytest.mark.parametrize("poly", DEGREE_ONE, ids=str)
def test_degree_one_grid_thresholds_stay_below_the_closed_form(poly):
    # the closed form is a conjecture: these checks pin the observed agreement
    for m in (2, 3, 4):
        bound = degree_one_threshold(poly, m)
        for grid_n in range(1, 11):
            if grid_n ** (m - 1) <= 600:
                assert critical_epsilon(poly, m, grid_n=grid_n).estimate <= bound, (m, grid_n)


@pytest.mark.parametrize(
    "poly, m",
    [(poly, 3) for poly in DEGREE_ONE] + [(DEGREE_ONE[5], 4), (DEGREE_ONE[6], 4), (SHIFT2, 2)],
    ids=str,
)
def test_degree_one_grid_threshold_meets_the_closed_form_at_twice_its_denominator(poly, m):
    # observed, not proven: the deepest holes lie on the grid of 2 den, e.g.
    # (5/14, 5/14) for x - 2 at m = 3
    bound = degree_one_threshold(poly, m)
    assert critical_epsilon(poly, m, grid_n=2 * bound.denominator).estimate == bound


def test_degree_one_closed_form_hand_values():
    thresholds = [degree_one_threshold(SHIFT2, m) for m in (2, 3, 4)]
    assert thresholds == [Fraction(1, 3), Fraction(3, 7), Fraction(7, 15)]
    assert degree_one_threshold(IntPolynomial((2, 3)), 3) == Fraction(5, 19)
    assert degree_one_threshold(IntPolynomial((1, -1)), 4) == Fraction(3, 4)


def test_grid_threshold_decouples_over_residue_classes():
    # tau_n(B(x^k), m) = tau_n(B, ceil(m / k)): B(x^k)'s recurrence runs on
    # each residue class mod k alone; observed on every case, not proven
    rng = random.Random(20261019)
    bases = []
    while len(bases) < 6:
        d = rng.randint(1, 2)
        ends = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)]
        poly = IntPolynomial((ends[0], *(rng.randint(-3, 3) for _ in range(d - 1)), ends[1]))
        if poly.is_primitive:
            bases.append(poly)
    cases = 0
    for poly, k, grid_n in itertools.product(bases, (2, 3), range(2, 6)):
        d = poly.degree
        for m in range(k * d + 1, k * d + 4):
            if -(-m // k) > d:
                want = critical_epsilon(poly, -(-m // k), grid_n=grid_n).estimate
                got = critical_epsilon(in_powers(poly, k), m, grid_n=grid_n).estimate
                assert got == want, (poly, k, m)
                cases += 1
    assert cases == 144


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


def _outcome(run):
    """run(searches)'s result, or its error's type and message, and searches: each gauge
    search's (target, nearest offset, stop), the stop as a gauge, then the offset box it
    walks, if any, as (start, stop) per level.  density's searches are read off
    density._gauge_search's arguments, qv / q and goal / (q lcm(s_c)), and its boxes off
    the itertools.product call inside it; an oracle appends its own to the list it is
    passed."""
    searches = []
    real = density._gauge_search

    def product(*box):
        searches.append([(r.start, r.stop) for r in box])
        return itertools.product(*box)

    def recorded(gauge, qv, q, near, goal, *rest):
        searches.append((tuple(Fraction(x, q) for x in qv), tuple(near), Fraction(goal, q * gauge[0])))
        with mock.patch.object(density, "itertools", SimpleNamespace(product=product)):
            return real(gauge, qv, q, near, goal, *rest)

    with mock.patch.object(density, "_gauge_search", recorded):
        try:
            return run(searches), searches
        except KronrecError as exc:
            return (type(exc), str(exc)), searches


@st.composite
def grid_inputs(draw):
    """Degree 1-4 and l = 1-4 with at most ~64 grid targets, even grids included;
    one in eight polynomials is made non-primitive or given a zero constant."""
    poly = draw(primitive_polys(max_degree=4, bound=4))
    spoil = draw(st.sampled_from(("double", "zero") + ("keep",) * 14))
    if spoil == "double":
        poly = IntPolynomial(tuple(2 * c for c in poly.coeffs))
    elif spoil == "zero":
        poly = IntPolynomial((0,) + poly.coeffs[1:])
    ell = draw(st.integers(1, 4))
    grid_n = draw(st.integers(1, round(64 ** (1 / ell))))
    return poly, poly.degree + ell, grid_n


@seed(20261019)
@settings(max_examples=150, deadline=None)
@given(grid_inputs())
# x - 1 at l = 7: the first target's offset box would hold 8^7 offsets, but
# it stops at the certified cap and holds 65732
@example((IntPolynomial((-1, 1)), 8, 2))
@example((IntPolynomial((-1, -1, 1)), 6, 4))
def test_critical_epsilon_equals_the_per_target_route(case):
    poly, m, grid_n = case
    large = m - poly.degree > 4
    got = _outcome(lambda _: critical_epsilon(poly, m, grid_n=grid_n, allow_large_grid=large))
    want = _outcome(
        lambda searches: critical_epsilon_per_target(
            poly, m, grid_n=grid_n, allow_large_grid=large, searches=searches
        )
    )
    # the same report or error, and the same searches in the same order, which pins
    # the nearest offsets (half to even), the stop each search starts from, and the
    # integer offset boxes against their Fraction bounds
    assert got == want
    if (poly.coeffs, m) == ((-1, 1), 8):
        assert got[0].estimate == Fraction(1, 2)


@st.composite
def covering_inputs(draw):
    """Degree 2-4, l = 1-3, eps in [0, 2] and Fraction or float targets, eps = 0
    and a zero constant coefficient each drawn about one time in eight."""
    poly = draw(primitive_polys(max_degree=4, bound=3, min_degree=2))
    if draw(st.integers(0, 7)) == 7:
        poly = IntPolynomial((0,) + poly.coeffs[1:])
    ell = draw(st.integers(1, 3))
    eps = draw(
        st.one_of(st.just(0), *[st.fractions(0, 2, max_denominator=12)] * 4, *[st.floats(0, 2)] * 3)
    )
    target = st.one_of(st.fractions(-1, 2, max_denominator=20), st.floats(-1, 2))
    return poly, poly.degree + ell, eps, draw(st.lists(target, min_size=ell, max_size=ell))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(covering_inputs())
# 5x^2 - 2x + 3 at l = 3, eps = 12: the box would hold 121^3 offsets, but
# the nearest offset already covers, so neither route builds it
@example((IntPolynomial((3, -2, 5)), 5, 12, [0, 0, 0]))
@example((GOLDEN, 4, 0, [Fraction(1, 2), 0.25]))
def test_is_covered_equals_the_fraction_route(case):
    poly, m, eps, v = case
    got = _outcome(lambda _: is_covered(poly, m, eps, v))
    want = _outcome(lambda searches: covered_by_fraction_gauge(poly, m, eps, v, searches))
    # the same decision or error, and the same search: target, nearest offset, stop
    # eps/2 and offset box
    assert got == want
    if (poly.coeffs, eps) == ((3, -2, 5), 12):
        assert got == (True, [((0, 0, 0), (0, 0, 0), 6)])


def test_critical_clears_no_denominators(monkeypatch):
    calls = []
    real = density.clear_denominators

    def counted(row):
        calls.append(len(row))
        return real(row)

    monkeypatch.setattr(density, "clear_denominators", counted)
    assert critical_epsilon(GOLDEN, 5, grid_n=4).estimate == Fraction(1, 2)
    assert calls == []
    # the single-eps decision still clears its target, with eps/2, once
    assert is_covered(GOLDEN, 5, Fraction(1, 2), [Fraction(1, 2)] * 3)
    assert calls == [4]


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
    calls = []

    def low(poly):
        calls.append(poly)
        return poly_core.roots(poly), Interval.point(0.25)

    monkeypatch.setattr(density, "_refined_threshold", low)
    # the grid threshold of x^2 - x - 1 at m = 4 on a grid of 4 is 1/2
    with pytest.raises(CertificateError, match="exceeds the certified threshold 0.25"):
        critical_epsilon(GOLDEN, 4, grid_n=4)
    assert calls == [GOLDEN]


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
