"""Polynomial parsing, certified roots, and Mahler measure variants."""

import collections
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kronrec import poly_core
from kronrec.errors import DomainError, ParseError, RootCertificationError
from kronrec.poly_core import (
    IntPolynomial,
    _aberth,
    _aberth_step,
    _certified_simple_roots,
    _disks_disjoint,
    _exact_values,
    _sqrt_up,
    mahler_measure,
    parse_polynomial,
    roots,
    squarefree_factors,
)
from oracles import (
    _aberth_step_sliced,
    product_by_interval_mul,
    aberth_off_axis_polish,
    certified_simple_roots_two_pass,
    disks_disjoint_all_pairs,
    fraction_squarefree,
    ladder_roots,
    rational_decompose,
    weierstrass_radii,
)
from test_golden_roots import benchmark_polys

GOLDEN = (1 + math.sqrt(5)) / 2
# classic numeric oracle for the degree-10 measure record holder
LEHMER = IntPolynomial((1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1))
LEHMER_MEASURE = 1.17628081825991750654


def poly(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = [0] * (a.degree + b.degree + 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


@st.composite
def small_polys(draw, max_degree=4, max_coeff=9, nonzero_constant=False):
    degree = draw(st.integers(1, max_degree))
    coeffs = [draw(st.integers(-max_coeff, max_coeff)) for _ in range(degree)]
    coeffs.append(draw(st.integers(1, max_coeff)) * draw(st.sampled_from((1, -1))))
    if nonzero_constant and coeffs[0] == 0:
        coeffs[0] = draw(st.integers(1, max_coeff))
    return IntPolynomial(tuple(coeffs))


# ----- parsing and basic structure -----


def test_parse_ascending_list():
    p = parse_polynomial("3,-2,-9,-3,9")
    assert p.coeffs == (3, -2, -9, -3, 9)
    assert p.degree == 4
    assert p.leading_coefficient == 9
    assert p.constant_coefficient == 3


def test_parse_allows_whitespace_and_strips_trailing_zeros():
    assert parse_polynomial(" 1 , 2 , 3 ").coeffs == (1, 2, 3)
    assert parse_polynomial("1,2,0,0").coeffs == (1, 2)


@pytest.mark.parametrize("bad", ["", "   ", "1,,2", "1,a", "1.5,2", "0,0,0"])
def test_parse_rejects_bad_input(bad):
    with pytest.raises(ParseError):
        parse_polynomial(bad)


def test_constructor_rejects_zero_leading_coefficient():
    with pytest.raises(DomainError):
        IntPolynomial((1, 0))
    with pytest.raises(DomainError):
        IntPolynomial(())


def test_primitivity_and_content():
    assert poly(3, -2, -9, -3, 9).is_primitive
    assert not poly(2, 4, 6).is_primitive
    assert poly(2, 4, 6).content == 2


def test_string_rendering():
    assert str(poly(-2, 1)) == "x - 2"
    assert str(poly(3, -2, -9, -3, 9)) == "9x^4 - 3x^3 - 9x^2 - 2x + 3"


# ----- square-free decomposition -----


def test_squarefree_oracle_handmade():
    # (x - 1)^2 (x + 2) = x^3 - 3x + 2
    fs = dict((tuple(f), m) for f, m in squarefree_factors(poly(2, -3, 0, 1)))
    assert fs == {(2, 1): 1, (-1, 1): 2}


def test_squarefree_total_degree():
    p = poly(-4, 12, -9, 2)  # (x-2)^2 (2x-1)
    fs = squarefree_factors(p)
    assert sum(len(f) - 1 for f, m in fs for _ in range(m)) == p.degree


def poly_power_product(factors) -> IntPolynomial:
    out = poly(1)
    for f, mult in factors:
        for _ in range(mult):
            out = poly_mul(out, f)
    return out


@st.composite
def repeated_factor_products(draw):
    """A nonzero constant times 1-3 small factors, each raised to a power 1-4."""
    factors = [(poly(draw(st.integers(-5, 5)) or 1), 1)]
    for _ in range(draw(st.integers(1, 3))):
        factors.append((draw(small_polys(max_degree=3, max_coeff=5)), draw(st.integers(1, 4))))
    return poly_power_product(factors)


@seed(20261018)
@settings(deadline=None, max_examples=150)
@given(repeated_factor_products())
@example(poly_power_product([(poly(-3), 1), (poly(1, -2), 3), (poly(1, 1, 1), 1)]))
@example(poly_power_product([(poly(0, 1), 2), (poly(2, 0, -1), 4)]))
@example(poly(5))
@example(poly(-3))
def test_squarefree_matches_the_fraction_route(p):
    assert squarefree_factors(p) == fraction_squarefree(p)


def test_squarefree_wilkinson_is_its_own_factor():
    # prod (x - k) for k = 1..20 has coefficients up to 20!; a remainder
    # sequence that kept each remainder's content would swell them, and the
    # gcd with the derivative would take seconds instead of a millisecond
    w = poly_power_product([(poly(-k, 1), 1) for k in range(1, 21)])
    assert squarefree_factors(w) == ((w.coeffs, 1),)


# ----- certified roots -----


def test_roots_quadratic_oracle():
    rs = roots(poly(2, -3, 1))  # (x-1)(x-2)
    values = sorted(r.value.real for r in rs.roots)
    assert values == [1.0, 2.0]
    assert all(r.radius < 1e-12 and r.multiplicity == 1 for r in rs.roots)


def test_roots_pure_imaginary_pair_is_exactly_conjugate():
    rs = roots(poly(1, 0, 1))
    a, b = rs.roots
    assert a.value == b.value.conjugate()
    assert abs(a.value.imag) == 1.0 or abs(abs(a.value.imag) - 1.0) <= a.radius


def test_roots_multiplicities_from_exact_decomposition():
    rs = roots(poly(-4, 12, -9, 2))  # (x-2)^2 (2x-1)
    by_value = {round(r.value.real, 6): r.multiplicity for r in rs.roots}
    assert by_value == {2.0: 2, 0.5: 1}
    assert sum(r.multiplicity for r in rs.roots) == 3


def test_roots_zero_root_multiplicity():
    rs = roots(poly(0, 0, -1, 1))  # x^2 (x - 1)
    zero = next(r for r in rs.roots if r.value == 0)
    assert zero.multiplicity == 2 and zero.radius == 0.0


def test_roots_refuses_overlapping_enclosures():
    """The roots 32 +- 10^-11 of 10^22 (x - 32)^2 - 1 get disks that meet.

    Among the quadratics 10^(2k) (x - t)^2 - 1, k = 5..11 and t = 1..39, this
    is the one whose refusal is the overlap check's rather than a radius's.
    """
    poly = IntPolynomial((10**22 * 32**2 - 1, -64 * 10**22, 10**22))
    with pytest.raises(RootCertificationError, match="^root enclosures overlap$"):
        roots(poly)


def test_roots_irrational_enclosure():
    rs = roots(poly(-2, 0, 1))
    for r in rs.roots:
        assert abs(abs(r.value.real) - math.sqrt(2)) <= r.radius + 1e-15
    assert sum(r.multiplicity for r in rs.roots) == 2


def test_roots_cubic_conjugate_symmetry():
    rs = roots(poly(-1, -1, 0, 1))  # x^3 - x - 1
    complex_roots = [r for r in rs.roots if r.value.imag != 0]
    assert len(complex_roots) == 2
    a, b = complex_roots
    assert a.value == b.value.conjugate()


# each has the roots +-i, which the engine reaches exactly, so p vanishes at
# the centres and the Weierstrass radii are exactly 0
@pytest.mark.parametrize(
    "coeffs",
    [(1, -1, -2, -1, -3), (2, 1, -3, 1, 2, -3, 4, -3, -3), (-1, -2, 3, -2, 4), (-2, -4, 3, -1, 4, 3, -1)],
)
def test_roots_certify_converged_imaginary_pair(coeffs):
    p = IntPolynomial(coeffs)
    assert sum(c * 1j**k for k, c in enumerate(p.coeffs)) == 0
    rs = roots(p)
    assert sum(r.multiplicity for r in rs.roots) == p.degree
    assert sum(abs(r.value - 1j) <= r.radius for r in rs.roots) == 1
    assert {(r.value, r.radius) for r in rs.roots if abs(r.value.imag) == 1.0} == {(1j, 0.0), (-1j, 0.0)}
    values = sorted((r.value for r in rs.roots), key=lambda z: (z.real, z.imag))
    assert values == sorted((r.value.conjugate() for r in rs.roots), key=lambda z: (z.real, z.imag))
    for i, a in enumerate(rs.roots):
        assert a.radius <= 1e-12
        for b in rs.roots[i + 1 :]:
            assert abs(a.value - b.value) > a.radius + b.radius


@pytest.mark.parametrize("c", [2 * 10**7, 10**12 + 1])
def test_roots_certify_large_irrational_roots(c):
    # the radius target is relative, so roots far beyond 2^12 certify
    rs = roots(poly(-c, 0, 1))
    for r in rs.roots:
        assert 0 < r.radius <= 1e-12 * abs(r.value)
        x, rad = Fraction(abs(r.value.real)), Fraction(r.radius)
        assert r.value.imag == 0 and (x - rad) ** 2 <= c <= (x + rad) ** 2


@seed(20240611)
@settings(deadline=None, max_examples=40)
@given(small_polys(max_degree=7))
def test_root_disks_hold_one_polyroots_root_and_one_ladder_centre(p):
    """Each disk holds exactly one root that mpmath.polyroots finds at 120
    digits, and meets exactly one disk of the mpmath precision ladder."""
    rs = roots(p).roots
    ladder, reference = [], []
    for fac, _ in squarefree_factors(p):
        ladder += ladder_roots(fac) if len(fac) > 2 else [(complex(-fac[0] / fac[1]), 0.0)]
        with mpmath.workdps(120):
            coeffs = [mpmath.mpf(c) for c in reversed(fac)]
            reference += mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
    assert len(reference) == len(ladder) == len(rs)
    tiny = mpmath.mpf(10) ** -100
    for e in rs:
        with mpmath.workdps(120):
            assert sum(abs(mpmath.mpc(e.value) - w) <= e.radius + tiny for w in reference) == 1
        assert sum(abs(e.value - z) <= e.radius + r for z, r in ladder) == 1


@st.composite
def rational_root_products(draw):
    """Rational linear factors with multiplicities 1-3 beside a small factor;
    one optional simple factor q x + p has |p| and q up to 10^9."""
    linear = st.tuples(st.integers(-9, 9), st.integers(-9, 9).filter(bool))
    factors = [(poly(*draw(linear)), draw(st.integers(1, 3))) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        factors.append((poly(draw(st.integers(-(10**9), 10**9)), draw(st.integers(1, 10**9))), 1))
    if draw(st.booleans()):
        factors.append((draw(small_polys(max_degree=3, max_coeff=5, nonzero_constant=True)), 1))
    return poly_power_product(factors)


@seed(20261019)
@settings(deadline=None, max_examples=80)
@given(rational_root_products())
@example(poly_power_product([(poly(-1, 10**8), 1), (poly(1, 1, 1), 1)]))
@example(poly_power_product([(poly(-1, 2), 3), (poly(5, 4), 2), (poly(-7, 1), 1)]))
def test_each_rational_root_lies_in_one_disk_with_its_multiplicity(p):
    rs = roots(p).roots
    zero_mult, rationals, _ = rational_decompose(p)
    if zero_mult:
        rationals = rationals + [(Fraction(0), zero_mult)]
    for q, mult in rationals:
        holding = [
            e for e in rs
            if (Fraction(e.value.real) - q) ** 2 + Fraction(e.value.imag) ** 2 <= Fraction(e.radius) ** 2
        ]
        assert len(holding) == 1 and holding[0].multiplicity == mult


def test_rational_roots_get_weierstrass_radii():
    # 1/2 is a float, so its centre is the root and its radius is 0;
    # 10^-8 is not, and its radius is the distance to the float centre, rounded up
    (half,) = roots(poly(-1, 2)).roots
    assert (half.value, half.radius, half.multiplicity) == (0.5, 0.0, 1)
    tiny_poly = poly_power_product([(poly(-1, 10**8), 1), (poly(1, 1, 1), 1)])
    tiny = next(e for e in roots(tiny_poly).roots if e.value.imag == 0)
    assert 0 < tiny.radius <= 1e-12
    assert abs(Fraction(tiny.value.real) - Fraction(1, 10**8)) <= Fraction(tiny.radius)


def _exact_radius_squared(cs, zs, i):
    """n^2 |p(z_i)|^2 / (a_n^2 prod_{j!=i} |z_i - z_j|^2) in Fractions, from the float centres."""
    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    z = (Fraction(zs[i].real), Fraction(zs[i].imag))
    val = (Fraction(0), Fraction(0))
    for c in reversed(cs):
        val = mul(val, z)
        val = (val[0] + c, val[1])
    prod = (Fraction(cs[-1]), Fraction(0))
    for j, w in enumerate(zs):
        if j != i:
            prod = mul(prod, (z[0] - Fraction(w.real), z[1] - Fraction(w.imag)))
    n = len(cs) - 1
    return n * n * (val[0] ** 2 + val[1] ** 2) / (prod[0] ** 2 + prod[1] ** 2)


@settings(deadline=None, max_examples=40)
@given(small_polys(max_degree=6))
def test_weierstrass_radius_rounds_up_the_exact_value(p):
    for fac, _ in squarefree_factors(p):
        zs = _aberth(fac)
        for i, r in enumerate(weierstrass_radii(fac, zs)):
            exact = _exact_radius_squared(fac, zs, i)
            assert Fraction(r) ** 2 >= exact
            two_below = math.nextafter(math.nextafter(r, 0), 0)
            assert r == 0.0 if exact == 0 else Fraction(two_below) ** 2 < exact


@given(st.integers(0, 10**60), st.integers(1, 10**60), st.integers(-400, 400))
def test_sqrt_up_is_a_tight_upper_bound(num, den, shift):
    num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
    r = _sqrt_up(num, den)
    assert Fraction(r) ** 2 >= Fraction(num, den)
    if num:
        assert Fraction(math.nextafter(math.nextafter(r, 0), 0)) ** 2 < Fraction(num, den)


@given(st.integers(0, 10**60), st.integers(0, 10**60), st.integers(0, 400))
def test_sqrt_up_ignores_a_common_power_of_two(num, den, k):
    # the radii reuse the Aberth centres' scale S for the final centres,
    # whose own scale may be smaller; both sides then gain the same 2^k
    assert _sqrt_up(num << k, den << k) == _sqrt_up(num, den)


@st.composite
def float_points(draw):
    parts = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False) | st.sampled_from((0.0, -0.0, 1e-300))
    return complex(draw(parts), draw(parts))


@settings(deadline=None, max_examples=60)
@given(small_polys(max_degree=8), st.lists(float_points(), min_size=1, max_size=4))
def test_exact_value_at_the_conjugate_is_the_conjugate(p, zs):
    pts = zs + [z.conjugate() for z in zs]
    s, ws, ps, newtons = _exact_values(p.coeffs, pts)
    assert _exact_values(p.coeffs, pts, newton=False) == (s, ws, ps, None)
    k = len(zs)
    for (x, y), (u, v) in zip(ws, ws[k:]):
        assert (u, v) == (x, -y)
    for (pr, pi), (qr, qi) in zip(ps, ps[k:]):
        assert (qr, qi) == (pr, -pi)
    for nw, mw in zip(newtons, newtons[k:]):
        assert mw == (None if nw is None else nw.conjugate())


def _disk_bits(disks):
    return [(z.real.hex(), z.imag.hex(), r.hex()) for z, r in disks]


def _outcome(route, cs):
    try:
        return _disk_bits(route(cs))
    except RootCertificationError as exc:
        return str(exc)


WILKINSON = poly_power_product([(poly(-k, 1), 1) for k in range(1, 21)])
# roots 10 +- 10^-10, whose Aberth centres stay about 4e-15 off the axis
CLOSE_REAL_PAIR = poly(10**22 - 1, -2 * 10**21, 10**20)


@seed(20261018)
@settings(deadline=None, max_examples=60)
@given(small_polys(max_degree=12, max_coeff=9))
# +-i and 1/2 are floats: their disks have radius 0
@example(poly_power_product([(poly(1, 0, 1), 1), (poly(-1, 2), 1)]))
# real roots whose double sweeps leave the axis by ~1e-46, put on it by the polish
@example(poly_power_product([(poly(-2, 0, 1), 1), (poly(-1, -1, 1), 1), (poly(1, -3, 0, 1), 1)]))
@example(poly(-2, 0, 0, 1))
# a factor the engine cannot certify
@example(WILKINSON)
# a pair snapped onto the axis, from centres that are not each other's conjugates
@example(CLOSE_REAL_PAIR)
# (x^2 + 2)(x^2 - 2x - 2), the one benchmark witness factor at seed 1 whose
# lower centre is not its upper one's mirror: those of +-i sqrt 2 have real
# parts -+6e-33
@example(poly(-4, -4, 0, -2, 1))
def test_one_radius_pass_matches_the_two_pass_route(p):
    """Bit-identical disks, or the same failure, with and without the second exact evaluation."""
    for fac, _ in squarefree_factors(p):
        assert _outcome(_certified_simple_roots, fac) == _outcome(certified_simple_roots_two_pass, fac)


# 10^30 (x - 1)^2 - 1, roots 1 +- 10^-15, and 2^40 (x - 1)(x - 1 - 2^-40), roots 1 and
# 1 + 2^-40: given the centres 1 +- 10^-20 i, closed under conjugation, the pair snaps onto 1
# and has radius inf, or 0 where p vanishes; beside a conjugate pair, a centre with a NaN
# imaginary part is neither real nor paired, and is evaluated
_NEAR_ONE = [1 + 1e-20j, 1 - 1e-20j]


@pytest.mark.parametrize(
    "cs, zs, want",
    [
        ((10**30 - 1, -(2 * 10**30), 10**30), _NEAR_ONE, "could not certify the roots of a degree-2 factor"),
        ((2**40 + 1, -(2**41 + 1), 2**40), _NEAR_ONE, [("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0")] * 2),
        ((1, 0, 0, 1), [1 + 1j, 1 - 1j, complex(0, math.nan)], "the root iteration left the float range"),
    ],
)
def test_injected_centres_take_the_general_route(monkeypatch, cs, zs, want):
    """No input found gives Aberth centres that are closed under conjugation
    and snap, or that leave the float range, so the centres are injected;
    both routes agree."""

    def centres(_):
        return list(zs)

    assert _outcome(lambda c: certified_simple_roots_two_pass(c, centres), cs) == want
    monkeypatch.setattr(poly_core, "_aberth", centres)
    assert _outcome(_certified_simple_roots, cs) == want


@st.composite
def polys_with_near_real_pairs(draw):
    """Degree 1-14 with coefficients up to 10^12, or a pair t +- i with t up to 10^8 beside one."""
    if draw(st.booleans()):
        return draw(small_polys(max_degree=14, max_coeff=10**12))
    t = draw(st.integers(-(10**8), 10**8))
    return poly_mul(poly(t * t + 1, -2 * t, 1), draw(small_polys(max_degree=6, max_coeff=10**6)))


class _TookTheSnap(Exception):
    pass


def _no_snap(cs, zs):
    raise _TookTheSnap


def _general_snap(cs):
    """The general snap and the shared tail, whatever the symmetry of the Aberth centres."""
    reals, ups = poly_core._snapped_centres(cs, _aberth(cs))
    return poly_core._checked_disks(len(cs) - 1, poly_core._mirrored_disks(cs, reals, ups))


def _conjugate_and_general_disks(cs):
    """Both routes' disks where the Aberth centres are balanced about the axis
    and certify without the snap, else None."""
    with mock.patch.object(poly_core, "_snapped_centres", _no_snap):
        try:
            want = _disk_bits(_certified_simple_roots(cs))
        except (_TookTheSnap, RootCertificationError):
            return None
    return want, _outcome(_general_snap, cs)


def test_general_snap_gives_the_conjugate_disks_on_the_witness_factors():
    """Where balanced centres certify without the snap, the general snap keeps
    their real and upper centres (a pair it put on the axis would make more
    real roots than real centres), so it changes nothing: all 120 seed-1
    benchmark witness factors certify so, each with the same disks bit for bit."""
    closed = 0
    for cs in benchmark_polys("witness"):
        for fac, _ in squarefree_factors(IntPolynomial(tuple(cs))):
            both = _conjugate_and_general_disks(fac)
            if both is not None:
                closed += 1
                assert both[1] == both[0]
    assert closed == 120


def test_opposite_sign_imaginary_pair_certifies_without_the_snap():
    """(x^2 + 2)(x^2 - 2x - 2) leaves the centres of +-i sqrt 2 with real
    parts -6.2e-33 and +6.2e-33: not each other's mirrors, but balanced, so
    the lower one is never read and the snap is not called."""
    cs = (-4, -4, 0, -2, 1)
    zs = _aberth(cs)
    upper, lower = (z for z in zs if z.imag > 0), (z for z in zs if z.imag < 0)
    assert next(upper).real == -next(lower).real != 0
    with mock.patch.object(poly_core, "_snapped_centres", _no_snap):
        disks = _disk_bits(_certified_simple_roots(cs))
    assert disks == _outcome(_general_snap, cs)


@seed(20261024)
@settings(deadline=None, max_examples=150)
@given(small_polys(max_degree=12, max_coeff=10**8) | polys_with_near_real_pairs())
# +-i and 1/2 are floats: their disks have radius 0
@example(poly_power_product([(poly(1, 0, 1), 1), (poly(-1, 2), 1)]))
@example(poly(10**16 + 1, -2 * 10**8, 1))
@example(poly(1, 0, 10**64))
def test_general_snap_gives_the_conjugate_disks_on_closed_centres(p):
    for fac, _ in squarefree_factors(p):
        both = _conjugate_and_general_disks(fac)
        if both is not None:
            assert both[1] == both[0]


def _hex_points(zs):
    return [(z.real.hex(), z.imag.hex()) for z in zs]


@st.composite
def aberth_sweeps(draw):
    """Up to 12 points, often coinciding or at 0, and a Newton correction or None for each."""
    points = st.sampled_from((0j, 1 + 1j, 1 - 1j, -2.5 + 0j, 1e-300j)) | float_points()
    zs = draw(st.lists(points, min_size=1, max_size=12))
    return zs, draw(st.lists(st.none() | float_points(), min_size=len(zs), max_size=len(zs)))


@seed(20261022)
@settings(deadline=None, max_examples=300)
@given(aberth_sweeps())
# coinciding points stay where they are, and so does a point whose step divides by 0
@example(([1 + 1j, 2 + 0j, 1 + 1j], [0.5j, None, 1 + 0j]))
@example(([0j, 1 + 0j, -1 + 0j], [None, 1e-3 + 0j, None]))
def test_aberth_step_equals_the_direct_sums(sweep):
    """One reciprocal per pair gives every new point and the move bit for bit."""
    got, got_move = _aberth_step(*sweep)
    want, want_move = _aberth_step_sliced(*sweep)
    assert _hex_points(got) == _hex_points(want)
    assert got_move.hex() == want_move.hex()


def test_certified_roots_evaluate_p_once_beyond_the_polish_sweeps(monkeypatch):
    """Balanced centres take one exact evaluation of p beyond
    the polish, at the real and upper centres; each mirror reuses its upper
    centre's value."""
    calls = {"all": 0, "aberth": 0}
    exact_values, aberth = poly_core._exact_values, poly_core._aberth

    def counted_exact_values(*args, **kwargs):
        calls["all"] += 1
        return exact_values(*args, **kwargs)

    def counted_aberth(cs):
        before = calls["all"]
        zs = aberth(cs)
        calls["aberth"] += calls["all"] - before
        return zs

    monkeypatch.setattr(poly_core, "_exact_values", counted_exact_values)
    monkeypatch.setattr(poly_core, "_aberth", counted_aberth)
    # a real pair, an exact pair +-i and 1/2, and a real root beside a complex pair
    for cs in [(-2, 0, 1), (1, 0, 1), (-1, 2), (-2, 0, 0, 1), (1, -3, 0, 1)]:
        calls.update(all=0, aberth=0)
        disks = poly_core._certified_simple_roots(cs)
        assert len(disks) == len(cs) - 1
        assert calls["aberth"] >= 1 and calls["all"] == calls["aberth"] + 1


def _roots_outcome(p):
    try:
        rs = roots(p).roots
    except (DomainError, RootCertificationError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return _disk_bits((e.value, e.radius) for e in rs), [e.multiplicity for e in rs]


def _off_axis_route(cs):
    return certified_simple_roots_two_pass(cs, aberth_off_axis_polish)


_OVERFLOW_K = int(sys.float_info.max) // 40 // 2 * 2


@seed(20261021)
@settings(deadline=None, max_examples=60)
@given(polys_with_near_real_pairs())
@example(poly(-2, 0, 1))
@example(poly(1, -3, 0, 1))
# +-i and 1/2 are floats: their disks have radius 0
@example(poly_power_product([(poly(1, 0, 1), 1), (poly(-1, 2), 1)]))
@example(WILKINSON)
# roots 10^8 +- i
@example(poly(10**16 + 1, -2 * 10**8, 1))
# every coefficient is a float, but the derivative's 3 * 16k is not
@example(poly(-9 * _OVERFLOW_K - 1, 36 * _OVERFLOW_K, -4 * _OVERFLOW_K, 16 * _OVERFLOW_K))
# roots +-10^-32 i: a bound of eps^2 max(1, |z|) would put both on 0
@example(poly(1, 0, 10**64))
@example(CLOSE_REAL_PAIR)
def test_roots_match_the_off_axis_polish_bit_for_bit(p):
    """`roots` gives the disks of the route whose exact polish leaves real
    centres off the axis and snaps them only after it, or the same error."""
    got = _roots_outcome(p)
    with mock.patch.object(poly_core, "_certified_simple_roots", _off_axis_route):
        assert _roots_outcome(p) == got


@pytest.mark.parametrize("cs", [(-2, 0, 1), (1, -3, 0, 1)])
def test_real_roots_come_out_of_aberth_on_the_axis(cs):
    zs = _aberth(cs)
    assert [z.imag for z in zs] == [0.0] * (len(cs) - 1)
    # the exact values are taken at the real parts' scale, not at 2^150 or 2^300
    s, _, _, _ = _exact_values(cs, zs, newton=False)
    assert s <= 2**64


def test_first_radius_pass_skips_centres_on_the_axis(monkeypatch):
    taken = []
    radii = poly_core._radii

    def counted_radii(*args):
        out = radii(*args)
        taken.append(len(out))
        return out

    monkeypatch.setattr(poly_core, "_radii", counted_radii)
    for cs in [(-2, 0, 1), (1, -3, 0, 1)]:
        taken.clear()
        assert len(poly_core._certified_simple_roots(cs)) == len(cs) - 1
        assert taken == [0, len(cs) - 1]
    taken.clear()
    # +-i: one radius for the pair, taken at i, and no real centre left to take
    poly_core._certified_simple_roots((1, 0, 1))
    assert taken == [1, 0]


def test_close_real_pair_is_snapped_by_the_first_radius_pass(monkeypatch):
    """Centres off the axis by less than their first radius certify as two real disks.

    The centres are balanced, so the tail first takes the radius at the
    upper centre and at the reals, of which there are none; that disk meets
    the axis.  The snap's radius pass then runs off the axis, and the tail
    takes the radii at the upper centres, of which there are none, and at
    the reals."""
    cs = CLOSE_REAL_PAIR.coeffs
    zs = _aberth(cs)
    assert all(z.imag for z in zs)
    taken = []
    radii = poly_core._radii

    def recorded_radii(*args):
        out = radii(*args)
        taken.append(out)
        return out

    monkeypatch.setattr(poly_core, "_radii", recorded_radii)
    disks = poly_core._certified_simple_roots(cs)
    assert len(taken) == 5 and taken[1] == taken[3] == []
    assert all(abs(z.imag) <= r for z, r in zip(zs, taken[2]))
    assert [z.imag for z, _ in disks] == [0.0, 0.0]
    monkeypatch.undo()
    rs = roots(CLOSE_REAL_PAIR).roots
    assert [e.value.imag for e in rs] == [0.0, 0.0]
    assert [e.multiplicity for e in rs] == [1, 1]
    for e, x in zip(rs, (10 - 1e-10, 10 + 1e-10)):
        assert abs(e.value - x) <= e.radius + 1e-15


def test_disks_disjoint_decides_on_the_binary_values():
    # closed disks that touch are not disjoint
    assert not _disks_disjoint([(0j, 0.5), (1 + 0j, 0.5)])
    assert _disks_disjoint([(0j, 0.5), (1 + 0j, math.nextafter(0.5, 0))])
    # the binary values of 0.3 + 0.4i lie just over 1/2 from 0, where hypot rounds to 0.5
    assert math.hypot(0.3, 0.4) == 0.5
    assert _disks_disjoint([(0j, 0.25), (0.3 + 0.4j, 0.25)])


_TINY = 5e-324
_NEAR_MAX = sys.float_info.max / 2
_SUB_GAP = math.sqrt(0.6) * 2.0**-537


@pytest.mark.parametrize(
    "disks",
    [
        # touching closed disks, and the same just apart
        [(0j, 0.5), (1 + 0j, 0.5)],
        [(0j, 0.5), (1 + 0j, math.nextafter(0.5, 0))],
        # fl(x^2 + y^2) rounds above fl(t^2) though t^2 >= x^2 + y^2 exactly: only the
        # margin keeps the screen from calling these disks apart
        [
            (0j, 0.0),
            (
                complex(float.fromhex("0x1.308b24d8d35c6p+0"), float.fromhex("0x1.42351e64663bfp+0")),
                float.fromhex("0x1.bb5b1aa399b91p+0"),
            ),
        ],
        # radius 0: coinciding and distinct centres
        [(1 + 1j, 0.0), (1 + 1j, 0.0), (3 + 0j, 1.0)],
        [(1 + 1j, 0.0), (complex(1, math.nextafter(1, 2)), 0.0)],
        # gaps in the subnormal range, where the squares underflow
        [(0j, 0.0), (complex(_TINY, 0), 0.0)],
        [(0j, _TINY), (complex(2 * _TINY, 0), _TINY)],
        [(0j, _TINY), (complex(3 * _TINY, 0), _TINY)],
        [(complex(1e-310, 0), 1e-311), (complex(1e-310, 3e-311), 1e-311)],
        [(complex(1e-310, 0), 1e-311), (complex(1e-310, 2e-311), 1e-311)],
        # squares below the normal range: dx^2 and dy^2 of 0.6 * 2^-1074 each round up to
        # 2^-1074 and (r + t)^2 = 1.35 * 2^-1074 rounds down to it, so the doubles alone
        # would call overlapping disks apart
        [(0j, 0.0), (complex(_SUB_GAP, _SUB_GAP), math.sqrt(1.35) * 2.0**-537)],
        # centres near 1e300, where the squares overflow
        [(1e300 + 0j, 1e300), (-1e300 + 0j, 1e300)],
        [(1e300 + 0j, math.nextafter(1e300, 0)), (-1e300 + 0j, 1e300)],
        [(complex(_NEAR_MAX, 1e300), 1e299), (complex(-_NEAR_MAX, -1e300), 1e299)],
        [(complex(_NEAR_MAX, 0), _NEAR_MAX), (complex(-_NEAR_MAX, 0), _NEAR_MAX)],
    ],
)
def test_disks_disjoint_equals_the_exact_all_pairs_test(disks):
    assert _disks_disjoint(disks) == disks_disjoint_all_pairs(disks)
    assert _disks_disjoint(disks[::-1]) == disks_disjoint_all_pairs(disks)


@st.composite
def disk_lists(draw):
    """2-6 disks on a grid of one scale, touching or overlapping as often as apart."""
    scale = draw(st.sampled_from((1.0, 0.1, 2.0**-1070, 2.0**-1000, 1e-160, 1e300, 2.0**1020)))
    part = st.integers(-6, 6).map(lambda k: k * scale)
    centre = st.builds(complex, part, part)
    radius = st.integers(0, 6).map(lambda k: k * scale / 2) | st.just(0.0)
    disks = draw(st.lists(st.tuples(centre, radius), min_size=2, max_size=6))
    nudge = st.sampled_from((0.0, math.inf, -math.inf))
    return [(z, math.nextafter(r, draw(nudge)) if r else r) for z, r in disks]


@seed(20261023)
@settings(deadline=None, max_examples=300)
@given(disk_lists())
def test_disks_disjoint_screen_equals_the_exact_test(disks):
    assert _disks_disjoint(disks) == disks_disjoint_all_pairs(disks)


def test_witness_roots_take_one_radius_per_pair_and_per_real_root(monkeypatch):
    """A timing-free guard on the work of `roots` over the 120 benchmark
    witness polynomials at seed 1: a radius at each conjugate pair's upper
    centre and at each real centre, 427 in all, where radii at the lower
    centres and the uppers' second radii made 883; and one exact evaluation
    of p alone per factor beside the polish's 121 with p', 120 in all.
    Every factor's centres are balanced, so none takes the snap, which
    would evaluate p at every Aberth centre before the final centres."""
    counts = collections.Counter()
    sqrt_up, exact_values = poly_core._sqrt_up, poly_core._exact_values

    def counted_sqrt_up(*args):
        counts["radii"] += 1
        return sqrt_up(*args)

    def counted_exact_values(cs, zs, newton=True):
        counts["with p'" if newton else "p alone"] += 1
        return exact_values(cs, zs, newton)

    monkeypatch.setattr(poly_core, "_sqrt_up", counted_sqrt_up)
    monkeypatch.setattr(poly_core, "_exact_values", counted_exact_values)
    for cs in benchmark_polys("witness"):
        roots(IntPolynomial(tuple(cs)))
    assert counts["radii"] <= 430
    assert (counts["with p'"], counts["p alone"]) == (121, 120)


@settings(deadline=None, max_examples=40)
@given(small_polys())
def test_roots_reconstruct_polynomial(p):
    rs = roots(p)
    expanded = [complex(1)]
    for enc in rs.roots:
        for _ in range(enc.multiplicity):
            nxt = [0j] * (len(expanded) + 1)
            for i, c in enumerate(expanded):
                nxt[i + 1] += c
                nxt[i] -= enc.value * c
            expanded = nxt
    expanded = [c * p.leading_coefficient for c in expanded]
    scale = max(1.0, max(abs(c) for c in p.coeffs))
    for got, want in zip(expanded, p.coeffs):
        assert abs(got - want) <= 1e-6 * scale


@settings(deadline=None, max_examples=40)
@given(small_polys())
def test_roots_multiplicity_sums_to_degree(p):
    assert sum(r.multiplicity for r in roots(p).roots) == p.degree


# ----- Mahler measure -----


def test_mahler_hand_values():
    assert mahler_measure(poly(-2, 1)).value == pytest.approx(2.0, abs=1e-12)
    assert mahler_measure(poly(-3, 2)).value == pytest.approx(3.0, abs=1e-12)
    assert mahler_measure(poly(-1, -1, 1)).value == pytest.approx(GOLDEN, abs=1e-12)


def test_mahler_variant_hand_values():
    # A = x - 2: M(A(x/2)) = 2, 2^-1 M(A(2x)) = 1
    assert mahler_measure(poly(-2, 1), "half_scaled").value == pytest.approx(2.0, abs=1e-12)
    assert mahler_measure(poly(-2, 1), "double_scaled").value == pytest.approx(1.0, abs=1e-12)


def test_mahler_conjugate_variant_matches_plain():
    # the measure is invariant under coefficient reversal, so both fold A's roots alike
    for cs in [(-2, 1), (-1, -1, 1), (3, -2, -9, -3, 9)]:
        a = mahler_measure(poly(*cs), "plain")
        b = mahler_measure(poly(*cs), "conjugate")
        assert (b.value, b.error) == (a.value, a.error)


def test_mahler_cyclotomic_is_one():
    for cs in [(1, 1), (1, 0, 1), (1, 1, 1), (1, 0, 0, 0, 1), (1, -1, 1)]:
        m = mahler_measure(poly(*cs))
        assert abs(m.value - 1.0) <= m.error + 1e-12


def test_mahler_lehmer_oracle():
    m = mahler_measure(LEHMER)
    assert abs(m.value - LEHMER_MEASURE) < 1e-9


def test_mahler_errors():
    with pytest.raises(DomainError):
        mahler_measure(poly(-2, 1), "bogus")
    with pytest.raises(DomainError):
        mahler_measure(poly(5))
    with pytest.raises(DomainError):
        mahler_measure(poly(0, 1), "conjugate")


@settings(deadline=None, max_examples=30)
@given(small_polys(max_degree=3, nonzero_constant=True))
def test_mahler_double_scaled_equals_half_scaled_of_conjugate(p):
    a = mahler_measure(p, "double_scaled")
    b = mahler_measure(IntPolynomial(p.coeffs[::-1]), "half_scaled")
    assert abs(a.value - b.value) <= a.error + b.error + 1e-10


@settings(deadline=None, max_examples=30)
@given(small_polys(max_degree=3), small_polys(max_degree=3))
def test_mahler_is_multiplicative(a, b):
    ma = mahler_measure(a)
    mb = mahler_measure(b)
    mab = mahler_measure(poly_mul(a, b))
    assert mab.value == pytest.approx(ma.value * mb.value, rel=1e-8, abs=1e-8)


@settings(deadline=None, max_examples=40)
@given(small_polys())
def test_mahler_kronecker_lower_bound(p):
    m = mahler_measure(p)
    assert m.value >= 1.0 - m.error - 1e-12


@settings(deadline=None, max_examples=30)
@given(small_polys())
def test_mahler_coefficient_bound(p):
    m = mahler_measure(p)
    d = p.degree
    for i, c in enumerate(p.coeffs):
        assert abs(c) <= math.comb(d, i) * (m.value + m.error) + 1e-9


# ----- the root-product fold -----

FOLDS = [*poly_core._MAHLER_FACTORS.values(), poly_core._refined_factor,
         lambda modulus: modulus.add(poly_core.Interval.point(-1.0)).max_with(1.0)]


@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(small_polys(max_degree=6, max_coeff=40), st.integers(1, 3))
@example(poly(-(15 * 10**307), -(15 * 10**307), 0, 15 * 10**307), 1)  # the product overflows
@example(poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1), 1)
def test_root_product_folds_as_interval_mul(a, power):
    # a power of A gives each root that multiplicity
    for _ in range(power - 1):
        a = poly_mul(a, a)
    root_set = roots(a)
    for factor in FOLDS:
        try:
            expected = product_by_interval_mul(root_set, factor)
        except DomainError as exc:
            with pytest.raises(DomainError, match=f"^{exc}$"):
                root_set._product(factor)
        else:
            folded = root_set._product(factor)
            assert type(folded) is poly_core.Interval and tuple(folded) == tuple(expected)
