"""Newton polygons, the canonical p-adic basis, lattice index, minor identity."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from kronrec import lattice_structure
from kronrec.cli import main
from kronrec.errors import CertificateError, DomainError
from kronrec.exact_linalg import (
    PADIC_INFINITY,
    _hnf,
    det_exact,
    identity_matrix,
)
from kronrec.lattice_structure import (
    PIVOT_RULES,
    basis_N,
    canonical_basis_M,
    check_basis_certificate,
    integral_basis,
    newton_polygon,
    scaled_basis_N,
)
from kronrec.poly_core import IntPolynomial
from kronrec.toeplitz import LaurentSymbol, gram_det, toeplitz_det_direct, trench_det
from oracles import (
    band_kernel_basis,
    canonical_basis_by_fraction_rows,
    canonical_rows_by_solve,
    check_basis_certificate_fractions,
    integral_basis_by_columns,
    integral_basis_by_product,
    mat_mul,
    minor_identity,
    p_adic_valuation,
    recurrence_extend_fractions,
    snf,
)

WORKED = IntPolynomial((3, -2, -9, -3, 9))

INF = PADIC_INFINITY


def poly(*cs: int) -> IntPolynomial:
    return IntPolynomial(tuple(cs))


def frac_row(*entries) -> tuple:
    return tuple(Fraction(e) if not isinstance(e, str) else Fraction(e) for e in entries)


# the 4x10 canonical basis for WORKED at p=3, frozen entry-for-entry
GOLDEN_MATRIX = (
    frac_row(1, "480/887", "4203/16853", "3861/33706", "2511/33706",
             "243/16853", "729/33706", 0, 0, 0),
    frac_row(0, "-7722/887", "-5049/16853", "-3339/33706", "-76419/33706",
             "33378/16853", "-51543/33706", 1, 0, 0),
    frac_row(0, "729/887", "-44658/16853", "42822/16853", "-27306/16853",
             "19179/16853", "3489/16853", 0, 1, 0),
    frac_row(0, 0, 0, "729/1078", "243/1078", "405/539", "675/1078",
             "423/539", "48/49", 1),
)

GOLDEN_VALUATIONS = (
    (0, 1, 2, 3, 4, 5, 6, INF, INF, INF),
    (INF, 3, 3, 2, 2, 1, 3, 0, INF, INF),
    (INF, 6, 3, 3, 2, 2, 1, INF, 0, INF),
    (INF, INF, INF, 6, 5, 4, 3, 2, 1, 0),
)


@st.composite
def primitive_polys(draw, max_degree=3, bound=9):
    degree = draw(st.integers(1, max_degree))
    while True:
        coeffs = [draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1)))]
        coeffs += [draw(st.integers(-bound, bound)) for _ in range(degree - 1)]
        coeffs.append(draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1))))
        cand = IntPolynomial(tuple(coeffs))
        if cand.is_primitive:
            return cand


# --- newton_polygon ---


def test_newton_polygon_worked_example():
    np = newton_polygon(WORKED, 3)
    assert np.points == ((0, 1), (1, 0), (2, 2), (3, 1), (4, 2))
    assert np.vertices == ((0, 1), (1, 0), (3, 1), (4, 2))
    assert np.slopes == (Fraction(-1), Fraction(1, 2), Fraction(1))
    assert np.lengths == (1, 2, 1)
    assert np.segment_count == 3
    assert np.s == 2
    assert np.pivot_index("positive") == 2


def test_newton_polygon_unit_coefficients():
    np = newton_polygon(poly(-2, 1), 3)
    assert np.vertices == ((0, 0), (1, 0))
    assert np.slopes == (Fraction(0),)
    assert np.segment_count == 1
    assert np.s == 1
    # a zero slope is skipped only by the strict rule
    assert np.pivot_index("positive") == 2


def test_newton_polygon_collinear_points_merge():
    # v2 of (1, 2, 4) is (0, 1, 2): one segment of slope 1 and length 2
    np = newton_polygon(poly(1, 2, 4), 2)
    assert np.vertices == ((0, 0), (2, 2))
    assert np.slopes == (Fraction(1),)
    assert np.lengths == (2,)


def test_newton_polygon_skips_zero_coefficients():
    np = newton_polygon(poly(1, 0, 0, 8), 2)
    assert np.points == ((0, 0), (3, 3))
    assert np.slopes == (Fraction(1),)


def test_newton_polygon_rejects_bad_inputs():
    with pytest.raises(DomainError):
        newton_polygon(poly(-2, 1), 4)
    with pytest.raises(DomainError):
        newton_polygon(poly(0, 1, 1), 3)


@given(primitive_polys(), st.sampled_from((2, 3, 5, 7)))
def test_newton_polygon_properties(a, p):
    np = newton_polygon(a, p)
    d = a.degree
    assert np.vertices[0] == (0, p_adic_valuation(a.constant_coefficient, p))
    assert np.vertices[-1][0] == d
    assert sum(np.lengths) == d
    assert all(s1 < s2 for s1, s2 in zip(np.slopes, np.slopes[1:]))
    endpoint_drop = p_adic_valuation(a.leading_coefficient, p) - p_adic_valuation(
        a.constant_coefficient, p
    )
    assert sum(l * s for l, s in zip(np.lengths, np.slopes)) == endpoint_drop
    # every coefficient point sits on or above the hull
    for x, y in np.points:
        for (x1, y1), (x2, y2) in zip(np.vertices, np.vertices[1:]):
            if x1 <= x <= x2:
                assert Fraction(y) >= y1 + Fraction(y2 - y1, x2 - x1) * (x - x1)


# --- basis_N ---


def test_basis_n_single_row():
    assert basis_N(poly(-3, 2), 3) == [[1, Fraction(3, 2), Fraction(9, 4)]]


def test_basis_n_identity_when_m_equals_degree():
    rows = basis_N(WORKED, 4)
    assert rows == [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]


def test_basis_n_worked_example_first_row():
    assert basis_N(WORKED, 5)[0] == [1, 0, 0, 0, Fraction(-1, 3)]


@given(primitive_polys(), st.integers(0, 3))
def test_basis_n_denominators_divide_leading_power(a, extra):
    m = a.degree + extra
    lead_power = abs(a.leading_coefficient) ** (m - a.degree)
    for row in basis_N(a, m):
        for x in row:
            assert lead_power % x.denominator == 0


@st.composite
def non_monic_polys(draw, max_degree=4, bound=9):
    degree = draw(st.integers(1, max_degree))
    coeffs = [draw(st.integers(1, bound)) * draw(st.sampled_from((1, -1)))]
    coeffs += [draw(st.integers(-bound, bound)) for _ in range(degree - 1)]
    coeffs.append(draw(st.integers(2, bound)) * draw(st.sampled_from((1, -1))))
    return IntPolynomial(tuple(coeffs))


@seed(20261018)
@settings(max_examples=120, deadline=None)
@given(non_monic_polys(), st.integers(0, 6))
def test_scaled_basis_is_the_lead_power_times_the_rational_recurrence(a, extra):
    # the Fraction route to recurrence_extend is the oracle for the integer table
    d = a.degree
    m = d + extra
    table, lead = scaled_basis_N(a, m)
    assert lead == a.leading_coefficient ** (m - d)
    for i, row in enumerate(table):
        seed_row = [int(j == i) for j in range(d)]
        expected = [lead * x for x in recurrence_extend_fractions(a, seed_row, m)]
        assert all(type(x) is int for x in row)
        assert row == expected
    assert basis_N(a, m) == [[Fraction(x, lead) for x in row] for row in table]


# --- canonical_basis_M ---


def test_canonical_basis_golden_matrix_exact():
    basis = canonical_basis_M(WORKED, 3, 10)
    assert basis.matrix == GOLDEN_MATRIX
    assert basis.valuations == GOLDEN_VALUATIONS
    assert basis.pivot_segment == 2


def test_canonical_basis_golden_rule_independent():
    # both pivot rules give s = 2 here, so the golden matrix is shared
    strict = canonical_basis_M(WORKED, 3, 10, pivot_rule="positive")
    assert strict.matrix == GOLDEN_MATRIX


def test_canonical_basis_golden_segment_report():
    basis = canonical_basis_M(WORKED, 3, 10)
    assert [seg.expected_det_valuation for seg in basis.segments] == [6, 6, 6]
    assert [seg.det_valuation for seg in basis.segments] == [6, 6, 6]
    assert [seg.left_is_identity for seg in basis.segments] == [True, False, False]
    assert [seg.right_is_identity for seg in basis.segments] == [False, True, True]


def test_canonical_basis_single_root_example():
    basis = canonical_basis_M(poly(-2, 1), 3, 3)
    assert basis.matrix == ((Fraction(1, 4), Fraction(1, 2), Fraction(1)),)
    assert basis.valuations == ((0, 0, 0),)
    # the strict rule flips the identity to the left block
    strict = canonical_basis_M(poly(-2, 1), 3, 3, pivot_rule="positive")
    assert strict.matrix == ((1, 2, 4),)


def test_canonical_basis_m_equals_degree_is_identity():
    basis = canonical_basis_M(WORKED, 3, 4)
    assert basis.matrix == tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
    )


def test_canonical_basis_rejects_bad_inputs():
    with pytest.raises(DomainError):
        canonical_basis_M(poly(2, 4), 3, 3)  # content 2
    with pytest.raises(DomainError):
        canonical_basis_M(poly(0, 1, 1), 3, 4)
    with pytest.raises(DomainError):
        canonical_basis_M(WORKED, 3, 3)
    with pytest.raises(DomainError):
        canonical_basis_M(WORKED, 3, 10, pivot_rule="unknown")


def test_certificate_rejects_any_unit_row_perturbation():
    basis = canonical_basis_M(WORKED, 3, 10)
    polygon = basis.polygon
    rows = [list(r) for r in basis.matrix]
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            perturbed = [list(r) for r in rows]
            perturbed[i] = [x + y for x, y in zip(perturbed[i], rows[j])]
            with pytest.raises(CertificateError):
                check_basis_certificate(WORKED, polygon, 2, 10, perturbed)


def test_certificate_rejects_unit_row_scaling():
    basis = canonical_basis_M(WORKED, 3, 10)
    for i in range(4):
        scaled = [list(r) for r in basis.matrix]
        scaled[i] = [2 * x for x in scaled[i]]
        with pytest.raises(CertificateError):
            check_basis_certificate(WORKED, basis.polygon, 2, 10, scaled)


def _both_certificates(poly, polygon, s, m, matrix):
    """The integer certificate and the Fraction oracle on one matrix: results or messages."""
    verdicts = []
    for check in (check_basis_certificate, check_basis_certificate_fractions):
        try:
            verdicts.append(check(poly, polygon, s, m, matrix))
        except CertificateError as exc:
            verdicts.append(str(exc))
    return verdicts


def _random_primitive(rng, degree, p):
    """A primitive polynomial with |a_i| <= 12; p divides a_0, a_d, both or neither."""
    while True:
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(degree + 1)]
        coeffs[1:-1] = [rng.randint(-12, 12) for _ in range(degree - 1)]
        divides = rng.choice(((), (0,), (degree,), (0, degree)))
        for i in divides:
            coeffs[i] = rng.choice((-1, 1)) * p * rng.randint(1, 12 // p)
        cand = IntPolynomial(tuple(coeffs))
        if cand.is_primitive:
            return cand


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_integer_certificate_matches_fraction_oracle_on_worked(p, rule):
    basis = canonical_basis_M(WORKED, p, 10, pivot_rule=rule)
    s = basis.pivot_segment
    ours, oracle = _both_certificates(WORKED, basis.polygon, s, 10, basis.matrix)
    assert ours == oracle == (basis.valuations, basis.segments)


@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_integer_certificate_matches_fraction_oracle_on_random(rule):
    rng = random.Random(16)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        a = _random_primitive(rng, rng.randint(2, 5), p)
        m = a.degree + rng.randint(1, 4)
        basis = canonical_basis_M(a, p, m, pivot_rule=rule)
        args = (a, basis.polygon, basis.pivot_segment, m)
        ours, oracle = _both_certificates(*args, basis.matrix)
        assert ours == oracle == (basis.valuations, basis.segments)
        # a perturbed matrix fails the same clause with the same message on both routes
        rows = [list(r) for r in basis.matrix]
        i, j = rng.randrange(a.degree), rng.randrange(a.degree)
        rows[i] = [x + y * rng.choice((1, p, Fraction(1, p))) for x, y in zip(rows[i], rows[j])]
        ours, oracle = _both_certificates(*args, rows)
        assert ours == oracle


def test_integer_certificate_matches_fraction_oracle_on_shifted_slopes():
    # the floors hold for the true polygon's slopes, so reach them by claiming
    # slopes a little off the true ones, some too small to move the determinant clause
    messages = set()
    for p in (2, 3, 5):
        for rule in PIVOT_RULES:
            basis = canonical_basis_M(WORKED, p, 10, pivot_rule=rule)
            polygon = basis.polygon
            for k, length in enumerate(polygon.lengths):
                for delta in (Fraction(1, 12 * length), Fraction(-1, 12 * length), Fraction(1, 7)):
                    slopes = list(polygon.slopes)
                    slopes[k] += delta
                    claimed = polygon._replace(slopes=tuple(slopes))
                    args = (WORKED, claimed, basis.pivot_segment, 10, basis.matrix)
                    ours, oracle = _both_certificates(*args)
                    assert ours == oracle
                    if isinstance(ours, str):
                        messages.add(ours.split(" valuation floor")[0].rsplit(" ", 1)[-1])
    assert {"rightward", "leftward"} <= messages


@pytest.mark.parametrize("rule", PIVOT_RULES)
def test_canonical_basis_equals_the_full_solve_route(rule):
    # p divides a_0, a_d, both or neither, and m runs from d to 40
    rng = random.Random(30)
    cases = [(WORKED, 3, 40), (poly(-1, -1, 2), 2, 30), (poly(7, 0, -3, 5, 0, 14), 7, 25)]
    for _ in range(80):
        p = rng.choice((2, 3, 5, 7))
        a = _random_primitive(rng, rng.randint(1, 5), p)
        cases.append((a, p, rng.randint(a.degree, 40)))
    for a, p, m in cases:
        assert canonical_basis_M(a, p, m, pivot_rule=rule).matrix == canonical_rows_by_solve(a, p, m, rule)


@pytest.mark.parametrize(
    "reshape",
    [
        lambda rows: rows + [rows[0]],
        lambda rows: rows + [[0] * len(rows[0])],
        lambda rows: rows[:-1],
        lambda rows: [rows[0], rows[1][:-1], *rows[2:]],
        lambda rows: [rows[0], rows[1] + [0], *rows[2:]],
        lambda rows: [row + [7] for row in rows],
    ],
    ids=["row 1 again", "zero row", "row dropped", "short row", "long row", "every row long"],
)
def test_certificate_rejects_a_matrix_of_the_wrong_shape(reshape):
    basis = canonical_basis_M(WORKED, 3, 10)
    rows = reshape([list(r) for r in basis.matrix])
    with pytest.raises(CertificateError, match="deg A rows of m entries$"):
        check_basis_certificate(WORKED, basis.polygon, basis.pivot_segment, 10, rows)


class _NoArithmetic(Fraction):
    """A Fraction entry that refuses every arithmetic operation and comparison."""

    def _refuse(self, *args):
        raise AssertionError("Fraction arithmetic on a matrix entry")

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _refuse
    __truediv__ = __rtruediv__ = __neg__ = __abs__ = __bool__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse
    __hash__ = Fraction.__hash__


def test_integer_certificate_makes_no_fraction_arithmetic():
    basis = canonical_basis_M(WORKED, 3, 10)
    rows = [[_NoArithmetic(x) for x in row] for row in basis.matrix]
    assert check_basis_certificate(WORKED, basis.polygon, 2, 10, rows) == (
        basis.valuations,
        basis.segments,
    )


def test_certificate_rejects_entry_with_p_in_denominator():
    basis = canonical_basis_M(WORKED, 3, 10)
    rows = [list(r) for r in basis.matrix]
    rows[0] = [x / 3 for x in rows[0]]
    ours, oracle = _both_certificates(WORKED, basis.polygon, 2, 10, rows)
    assert ours == oracle == "canonical basis certificate violated: entry (1,1) is not p-integral"


def test_certificate_rejects_float_entry():
    basis = canonical_basis_M(WORKED, 3, 10)
    rows = [list(r) for r in basis.matrix]
    rows[1][3] = float(rows[1][3])
    with pytest.raises(DomainError):
        check_basis_certificate(WORKED, basis.polygon, 2, 10, rows)


def test_certificate_rejects_one_unit_off_recurrence():
    basis = canonical_basis_M(WORKED, 3, 10)
    rows = [list(r) for r in basis.matrix]
    rows[2][5] += 1
    ours, oracle = _both_certificates(WORKED, basis.polygon, 2, 10, rows)
    assert ours == oracle == "canonical basis certificate violated: row 3 is not a recurrence vector"


def test_golden_rows_span_sublattice_of_index_prime_to_p():
    basis = canonical_basis_M(WORKED, 3, 10)
    lattice = integral_basis(WORKED, 10)
    denom_lcm = 1
    for row in basis.matrix:
        for x in row:
            denom_lcm = math.lcm(denom_lcm, x.denominator)
    cleared = [[x * denom_lcm for x in row] for row in basis.matrix]
    assert all(x.denominator == 1 for row in cleared for x in row)
    # coordinates with respect to the Z-basis, via the leading d x d blocks:
    # coords W = cleared, solved as W^T coords^T = cleared^T
    w_cols = [[Fraction(lattice.z_basis[i][j]) for i in range(4)] for j in range(4)]
    from kronrec.exact_linalg import solve_exact

    coords = list(zip(*solve_exact(w_cols, [[r[j] for r in cleared] for j in range(4)])))
    for i in range(4):
        for j in range(10):
            rebuilt = sum(coords[i][t] * lattice.z_basis[t][j] for t in range(4))
            assert rebuilt == cleared[i][j]
    assert all(x.denominator == 1 for row in coords for x in row)
    det_t = det_exact(coords)
    assert det_t != 0
    assert p_adic_valuation(det_t, 3) == 0


@settings(max_examples=40, deadline=None)
@given(primitive_polys(max_degree=3, bound=6), st.sampled_from((2, 3, 5)), st.integers(1, 3))
def test_canonical_basis_random_instances_pass_certificate(a, p, extra):
    m = a.degree + extra
    basis = canonical_basis_M(a, p, m)
    assert len(basis.matrix) == a.degree
    for seg in basis.segments:
        assert seg.det_valuation == seg.expected_det_valuation
        assert seg.left_is_identity or seg.right_is_identity


@seed(20261022)
@settings(max_examples=150, deadline=None)
@given(
    primitive_polys(max_degree=5, bound=40),
    st.sampled_from((2, 3, 5, 7)),
    st.integers(0, 9),
    st.sampled_from(PIVOT_RULES),
)
@example(WORKED, 3, 6, "nonnegative")
@example(poly(-3, -1, -3), 3, 3, "positive")  # a_d = -3: the lead a_d^(m-d) is negative
def test_canonical_basis_equals_the_fraction_row_route(a, p, extra, rule):
    m = a.degree + extra
    basis = canonical_basis_M(a, p, m, pivot_rule=rule)
    matrix, valuations, segments = canonical_basis_by_fraction_rows(a, p, m, rule)
    assert basis.matrix == matrix and basis.valuations == valuations and basis.segments == segments
    assert all(type(x) is Fraction for row in basis.matrix for x in row)


@seed(20261022)
@settings(max_examples=100, deadline=None)
@given(
    primitive_polys(max_degree=4, bound=20),
    st.sampled_from((2, 3, 5)),
    st.integers(0, 5),
    st.data(),
)
def test_a_p_unit_on_one_row_breaks_the_clause_the_fraction_route_names(a, p, extra, data):
    m = a.degree + extra
    basis = canonical_basis_M(a, p, m)
    i = data.draw(st.integers(0, a.degree - 1))
    unit = data.draw(st.integers(-30, 30).filter(lambda u: u % p and u != 1))
    rows = [list(r) for r in basis.matrix]
    if data.draw(st.booleans()):
        rows[i] = [unit * x for x in rows[i]]  # the row times a p-unit
    else:
        rows[i][data.draw(st.integers(0, m - 1))] += unit  # a p-unit added to one entry
    verdicts = _both_certificates(a, basis.polygon, basis.pivot_segment, m, rows)
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].startswith("canonical basis certificate violated: ")


def selector_minor(a, m, w):
    """det of the columns [0, w) and [m-d+w, m) of T = a_d^(m-d) N: canonical_basis_M's T_xi."""
    table, _ = scaled_basis_N(a, m)
    cols = list(range(w)) + list(range(m - a.degree + w, m))
    return det_exact([[row[c] for c in cols] for row in table])


@seed(20261021)
@settings(max_examples=150, deadline=None)
@given(primitive_polys(max_degree=5, bound=40), st.sampled_from((2, 3, 5, 7)), st.integers(0, 9))
@example(WORKED, 3, 6)
@example(poly(-3, 2), 2, 0)  # m = d: the selector is the lead-scaled identity
def test_selector_minor_valuation_at_every_vertex(a, p, extra):
    # canonical_basis_M's proof: at a vertex w, v_p(det T_xi) = (m-d)((d-1) v_p(a_d) + v_p(a_w))
    d, m = a.degree, a.degree + extra
    v_d = p_adic_valuation(a.leading_coefficient, p)
    for w, v_w in newton_polygon(a, p).vertices:
        minor = selector_minor(a, m, w)
        assert minor != 0
        assert v_w == p_adic_valuation(a.coeffs[w], p)
        assert p_adic_valuation(minor, p) == extra * ((d - 1) * v_d + v_w)


def test_selector_minor_vanishes_off_a_vertex():
    # w = 1 is no vertex of 1 + x + x^2 at any p; columns 0 and 3 agree, as x^3 = 1 mod A
    a = poly(1, 1, 1)
    assert all(1 not in (w for w, _ in newton_polygon(a, p).vertices) for p in (2, 3, 5, 7))
    assert selector_minor(a, 4, 1) == 0


@settings(max_examples=20, deadline=None)
@given(primitive_polys(max_degree=3, bound=6), st.integers(1, 3))
def test_pivot_rules_agree_without_zero_slope(a, extra):
    np = newton_polygon(a, 3)
    if any(s == 0 for s in np.slopes):
        return
    m = a.degree + extra
    default = canonical_basis_M(a, 3, m)
    strict = canonical_basis_M(a, 3, m, pivot_rule="positive")
    assert default.matrix == strict.matrix


# --- integral_basis ---


def test_integral_basis_monic_example():
    lattice = integral_basis(poly(-2, 1), 3)
    assert lattice.z_basis == ((1, 2, 4),)
    assert lattice.index == 1


def test_integral_basis_hand_example():
    lattice = integral_basis(poly(-3, 2), 3)
    assert lattice.z_basis == ((4, 6, 9),)
    assert lattice.index == 4
    assert basis_N(poly(-3, 2), 3) == [[1, Fraction(3, 2), Fraction(9, 4)]]


def test_integral_basis_worked_example_index():
    assert integral_basis(WORKED, 10).index == 9**6


def test_integral_basis_m_equals_degree():
    lattice = integral_basis(WORKED, 4)
    assert lattice.index == 1
    assert lattice.z_basis == tuple(
        tuple(int(i == j) for j in range(4)) for i in range(4)
    )


@settings(max_examples=40, deadline=None)
@given(primitive_polys(), st.integers(1, 4))
def test_index_equals_leading_coefficient_power(a, extra):
    m = a.degree + extra
    lattice = integral_basis(a, m)
    assert lattice.index == abs(a.leading_coefficient) ** (m - a.degree)


@settings(max_examples=20, deadline=None)
@given(primitive_polys(max_degree=2, bound=5), st.integers(1, 3))
def test_z_basis_rows_are_integer_recurrences(a, extra):
    m = a.degree + extra
    lattice = integral_basis(a, m)
    cs = a.coeffs
    for row in lattice.z_basis:
        for t in range(m - a.degree):
            assert sum(cs[j] * row[t + j] for j in range(a.degree + 1)) == 0


def test_z_basis_is_saturated_worked_example():
    # a basis spans a saturated lattice iff its elementary divisors are all 1
    lattice = integral_basis(WORKED, 7)
    divisors = [x for x in snf([list(r) for r in lattice.z_basis]) if x != 0]
    assert divisors == [1, 1, 1, 1]


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(primitive_polys(max_degree=4), st.integers(0, 30))
@example(poly(-2, 1), 0)  # monic, m = d
@example(poly(-3, 2), 1)  # |a_d| > 1, m = d + 1
@example(poly(5, 1, -3), 2)  # |a_0| > 1, negative a_d
@example(poly(-3, -1, -3), 30)
@example(WORKED, 9)
@example(poly(2, -3, 0, -1, 4), 0)
def test_integral_basis_equals_the_band_kernel(a, extra):
    m = a.degree + extra
    assert integral_basis(a, m).z_basis == tuple(map(tuple, band_kernel_basis(a, m)))


@st.composite
def window_shapes(draw):
    """Primitive A with |a_0| > 1 and |a_d| > 1 half the time, and m = d, overlapping
    windows (d < m < 2d) or m up to 3d + 20."""
    a = draw(primitive_polys(max_degree=5))
    if draw(st.booleans()):
        cs = list(a.coeffs)
        cs[0] *= draw(st.sampled_from((2, 3, -5)))
        cs[-1] *= draw(st.sampled_from((2, -3, 7)))
        a = IntPolynomial(tuple(cs))
        assume(a.is_primitive)
    d = a.degree
    m = draw(st.integers(d, 2 * d) | st.integers(d, 3 * d + 20))
    return a, m


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(window_shapes())
@example((poly(-3, 2), 2))  # m = 2d, the windows touch
@example((poly(6, 1, -4), 3))  # |a_0|, |a_d| > 1, the windows overlap
@example((poly(4, -3, 0, -1, 9), 4))  # m = d
@example((poly(-10, 3, 5, 6), 5))
def test_integral_basis_equals_the_column_by_column_route(shape):
    a, m = shape
    lattice = integral_basis(a, m)
    assert (lattice.z_basis, lattice.index) == integral_basis_by_columns(a, m)


@st.composite
def product_shapes(draw):
    """Primitive A of degree 1 to 5 with |a_d| up to 12, and m from d to 60."""
    a = draw(primitive_polys(max_degree=5, bound=12))
    return a, draw(st.integers(a.degree, 60))


@seed(20261021)
@settings(max_examples=120, deadline=None)
@given(product_shapes())
@example((poly(-3, -1, -3), 60))
@example((poly(1, 2, -1, 3, 0, 12), 5))  # m = d: no recurrence step
@example((poly(7, -5, 2, 9, -4, -12), 60))
def test_integral_basis_equals_the_product_route(shape):
    a, m = shape
    lattice = integral_basis(a, m)
    assert (lattice.z_basis, lattice.index) == integral_basis_by_product(a, m)


@pytest.mark.parametrize(
    "a, m",
    [(poly(-1, -1, 2), 60), (poly(-3, 2), 40), (WORKED, 4), (WORKED, 6), (WORKED, 8), (WORKED, 30)],
)
def test_index_takes_one_hnf_step_per_last_window_column(monkeypatch, capsys, a, m):
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return _hnf(rows, ncols)

    monkeypatch.setattr(lattice_structure, "_hnf", counted)
    assert main(["index", "--m", str(m), ",".join(map(str, a.coeffs))]) == 0
    assert '"matches": true' in capsys.readouterr().out
    assert len(calls) == min(a.degree, m - a.degree)  # 2, not 58, for the quadratic


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(primitive_polys(max_degree=4), st.integers(1, 6))
def test_z_basis_gram_determinant_is_the_toeplitz_determinant(a, extra):
    m = a.degree + extra
    symbol = LaurentSymbol.from_polynomial(a)
    gram = gram_det(integral_basis(a, m).z_basis).determinant
    assert gram == trench_det(symbol, extra) == toeplitz_det_direct(symbol, extra - 1)


def _rows_rederive(a, m, z_rows):
    """The per-row check integral_basis made before its Gram certificate."""
    table, lead = scaled_basis_N(a, m)
    coords = [z[: a.degree] for z in z_rows]
    return mat_mul(coords, table) == [[lead * x for x in z] for z in z_rows]


@pytest.mark.parametrize("a, m", [(WORKED, 9), (poly(-3, -1, -3), 12), (poly(-2, 1), 5)])
def test_integral_basis_refuses_a_basis_with_a_row_doubled(monkeypatch, a, m):
    def doubled_first_row(rows, ncols):
        h = _hnf(rows, ncols)
        h[1] = [2 * x for x in h[1]]  # the first coordinate row y
        return h

    doubled = [list(r) for r in integral_basis(a, m).z_basis]
    doubled[0] = [2 * x for x in doubled[0]]
    assert _rows_rederive(a, m, doubled)  # the per-row check cannot see it
    monkeypatch.setattr(lattice_structure, "_hnf", doubled_first_row)
    with pytest.raises(CertificateError, match="span"):
        integral_basis(a, m)


@pytest.mark.parametrize(
    "a",
    # c_s = a_0 a_d < 0 with n (d - 1) odd for the first two, so the closed form's
    # denominator is negative; the last has den = 1
    [poly(-1, -1, 2), poly(1, 2, 0, 1, -3), WORKED, poly(-2, 1)],
)
def test_integral_basis_refuses_one_z_basis_row_doubled(monkeypatch, a):
    # m = d + 1 takes one HNF step, so doubling its first coordinate row doubles one Z-basis row
    def doubled_first_row(rows, ncols):
        h = _hnf(rows, ncols)
        h[1] = [2 * x for x in h[1]]
        return h

    m = a.degree + 1
    z_basis = integral_basis(a, m).z_basis
    monkeypatch.setattr(lattice_structure, "_hnf", doubled_first_row)
    message = "Z-basis does not span the whole integral lattice"
    with pytest.raises(CertificateError, match=f"^{message}$"):
        integral_basis(a, m)
    monkeypatch.undo()
    assert integral_basis(a, m).z_basis == z_basis


def test_integral_basis_refuses_rows_outside_the_lattice(monkeypatch):
    # a route that skips the congruences keeps coords = I, and T / a_d^(m-d) is not integral
    monkeypatch.setattr(lattice_structure, "_hnf", lambda rows, ncols: identity_matrix(ncols))
    with pytest.raises(CertificateError, match=r"entry \(1,2\) of the recurrence is not an integer"):
        integral_basis(poly(-3, 2), 3)


# --- minor_identity ---


def test_minor_identity_hand_values():
    res = minor_identity(poly(-3, 2), 1, 3)
    assert res.det_selector_minor == 1
    assert res.det_banded_minor == 4
    assert res.holds

    res0 = minor_identity(poly(-3, 2), 0, 3)
    assert res0.det_selector_minor == Fraction(9, 4)
    assert res0.det_banded_minor == 9
    assert res0.holds


def test_minor_identity_empty_case():
    res = minor_identity(WORKED, 2, 4)
    assert res.det_selector_minor == 1
    assert res.det_banded_minor == 1
    assert res.holds


def test_minor_identity_worked_example_vertices():
    for w in (0, 1, 3, 4):
        assert minor_identity(WORKED, w, 10).holds


@settings(max_examples=60, deadline=None)
@given(primitive_polys(), st.integers(0, 4))
def test_minor_identity_random(a, extra):
    m = a.degree + extra
    for w in range(a.degree + 1):
        assert minor_identity(a, w, m).holds
