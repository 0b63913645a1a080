"""Exact rational linear algebra: valuations, HNF, SNF, kernels, solves."""

import itertools
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from kronrec import exact_linalg
from kronrec.errors import DomainError, SingularMatrixError
from kronrec.exact_linalg import (
    PADIC_INFINITY,
    _bareiss,
    _det_spans,
    _symmetric_band_minors,
    clear_denominators,
    clear_floats,
    coerce_rational,
    det_exact,
    hnf,
    identity_matrix,
    integer_kernel,
    is_prime,
    solve_exact,
)
from kronrec.recurrence_matrices import band_rows
from oracles import (
    dense_bareiss,
    hnf_two_matrices,
    kernel_two_matrices,
    leading_minors,
    mat_mul,
    p_adic_valuation,
    snf,
    solve_fractions,
    zero_skipping_bareiss,
)

small_ints = st.integers(-30, 30)


def int_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_ints, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


# ----- primality and valuations -----


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    composites = [0, 1, 4, 9, 91, 561, 7917]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


# psi_12 and psi_9: the least strong pseudoprimes to the prime bases up to 37 and up to 23
PSI_12 = 318665857834031151167461
PSI_9 = 3825123056546413051


def test_is_prime_strong_pseudoprimes_are_composite():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12) and not is_prime(PSI_9)
    assert all(is_prime(p) for p in (41, 43, 2**61 - 1, 2**31 - 1))


def test_is_prime_refuses_what_its_bases_cannot_decide():
    psi_13 = 3317044064679887385961981
    for n in (psi_13, psi_13 + 6, 2**89 - 1):
        with pytest.raises(DomainError, match=str(psi_13)):
            is_prime(n)
    # a factor up to 41 still decides a large n
    assert not is_prime(psi_13 + 2) and not is_prime(41 * (2**89 - 1))


def test_valuation_hand_values():
    assert p_adic_valuation(729, 3) == 6
    assert p_adic_valuation(Fraction(729, 1078), 3) == 6
    assert p_adic_valuation(Fraction(1, 9), 3) == -2
    assert p_adic_valuation(10, 5) == 1
    assert p_adic_valuation(0, 7) == PADIC_INFINITY
    assert p_adic_valuation(Fraction(0), 2) == PADIC_INFINITY


def test_valuation_of_int_equals_valuation_of_its_fraction():
    for p in (2, 3, 5, 7):
        for x in (0, 1, -1, 12, -729, 1078, 2**40 * 3**7, -(5**9)):
            assert p_adic_valuation(x, p) == p_adic_valuation(Fraction(x), p)


def test_valuation_requires_prime():
    with pytest.raises(DomainError):
        p_adic_valuation(8, 6)


@settings(deadline=None, max_examples=60)
@given(st.fractions(), st.fractions(), st.sampled_from([2, 3, 5, 7]))
def test_valuation_is_additive_and_ultrametric(x, y, p):
    vx = p_adic_valuation(x, p)
    vy = p_adic_valuation(y, p)
    assert p_adic_valuation(x * y, p) == vx + vy
    vsum = p_adic_valuation(x + y, p)
    assert vsum >= min(vx, vy)
    if vx != vy:
        assert vsum == min(vx, vy)


# ----- HNF -----


def test_hnf_frozen_example():
    h, u = hnf([[2, 4], [6, 8]])
    assert h == [[2, 0], [0, 4]]
    assert mat_mul(u, [[2, 4], [6, 8]]) == h
    assert abs(det_exact(u)) == 1


def test_hnf_band_example():
    a = [[-3, 2, 0], [0, -3, 2]]
    h, u = hnf(a)
    assert h == [[3, 1, -2], [0, 3, -2]]
    assert abs(det_exact([[h[0][0], h[0][1]], [h[1][0], h[1][1]]])) == 9
    assert mat_mul(u, a) == h


@settings(deadline=None, max_examples=60)
@given(int_matrices())
def test_hnf_properties(a):
    h, u = hnf(a)
    assert mat_mul(u, a) == h
    assert abs(det_exact(u)) == 1
    # echelon with positive pivots, entries above a pivot in [0, pivot)
    pivots = []
    for row in h:
        nz = [j for j, x in enumerate(row) if x != 0]
        if nz:
            pivots.append(nz[0])
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for r, row in enumerate(h):
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        piv_col = nz[0]
        assert row[piv_col] > 0
        for above in range(r):
            assert 0 <= h[above][piv_col] < row[piv_col]
    # canonicity: idempotent
    h2, _ = hnf(h)
    assert h2 == h


@seed(20261020)
@settings(deadline=None, max_examples=200)
@given(int_matrices(max_dim=6))
def test_hnf_and_kernel_match_the_two_matrix_route(a):
    assert hnf(a) == hnf_two_matrices(a)
    assert integer_kernel(a) == kernel_two_matrices(a)


def test_band_kernel_matches_the_two_matrix_route():
    rows = band_rows([-3, -1, -3], 58)
    assert integer_kernel(rows) == kernel_two_matrices(rows)


# ----- SNF -----


def test_snf_frozen_example():
    assert snf([[2, 4], [6, 8]]) == (2, 4)


def test_snf_identity_and_zero():
    assert snf(identity_matrix(3)) == (1, 1, 1)
    assert snf([[0]]) == (0,)


@settings(deadline=None, max_examples=60)
@given(int_matrices())
def test_snf_divisibility_chain(a):
    d = snf(a)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    assert all(x >= 0 for x in d)


@settings(deadline=None, max_examples=40)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3))
def test_snf_product_matches_determinant(a):
    d = snf(a)
    prod = 1
    for x in d:
        prod *= x
    assert prod == abs(det_exact(a))


# ----- kernels -----


def test_integer_kernel_frozen_examples():
    assert integer_kernel([[-2, 1, 0], [0, -2, 1]]) == [[1, 2, 4]]
    assert integer_kernel([[-3, 2, 0], [0, -3, 2]]) == [[4, 6, 9]]


def test_integer_kernel_full_rank_is_empty():
    assert integer_kernel(identity_matrix(3)) == []


@settings(deadline=None, max_examples=60)
@given(int_matrices())
def test_integer_kernel_annihilates_and_is_saturated(a):
    basis = integer_kernel(a)
    for v in basis:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
    if basis:
        assert all(x == 1 for x in snf(basis))


# ----- determinants and solves -----


@pytest.mark.parametrize("text", ["abc", "inf", "nan", "1/0"])
def test_coerce_rational_rejects_bad_strings_with_domain_error(text):
    with pytest.raises(DomainError, match="cannot interpret"):
        coerce_rational(text)


def test_det_hand_values():
    assert det_exact([[5]]) == 5
    assert det_exact([[1, 2], [3, 4]]) == -2
    assert det_exact([[Fraction(1, 2), 0], [7, Fraction(2, 3)]]) == Fraction(1, 3)
    assert det_exact([[1, 2], [2, 4]]) == 0
    for rows in ([[1, 2]], [[1, 2], [3]]):
        with pytest.raises(DomainError, match="determinant needs a square matrix"):
            det_exact(rows)


def test_solve_exact_round_trip():
    a = [[2, 1], [1, 3]]
    b = [[1], [0]]
    x = solve_fractions(a, b)
    assert x == [[Fraction(3, 5)], [Fraction(-1, 5)]]
    with pytest.raises(SingularMatrixError):
        solve_exact([[1, 2], [2, 4]], b)


def test_solve_exact_rejects_empty():
    with pytest.raises(DomainError):
        solve_exact([], [])


def test_invert_exact():
    a = [[1, 2], [3, 4]]
    inv = solve_fractions(a, identity_matrix(2))
    assert mat_mul(a, inv) == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


@settings(deadline=None, max_examples=50)
@given(st.lists(st.lists(small_ints, min_size=3, max_size=3), min_size=3, max_size=3))
def test_solve_consistency_with_det(a):
    d = det_exact(a)
    if d == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(a, [[1], [0], [0]])
    else:
        x = solve_fractions(a, identity_matrix(3))
        assert mat_mul(a, x) == [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]


small_rationals = st.one_of(
    small_ints, st.fractions(min_value=-9, max_value=9, max_denominator=12)
)


@settings(deadline=None, max_examples=80)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(small_rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_leading_minors_match_det_of_leading_blocks(a):
    n = len(a)
    want = [det_exact([row[:k] for row in a[:k]]) for k in range(1, n + 1)]
    if 0 in want[:-1]:
        with pytest.raises(SingularMatrixError):
            leading_minors(a)
    else:
        assert leading_minors(a) == want


def test_leading_minors_hand_values():
    assert leading_minors([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == [2, 3, 4]
    assert leading_minors([[Fraction(1, 2), 1], [1, 2]]) == [Fraction(1, 2), 0]
    assert leading_minors([]) == []
    # D_1 = 0 stops the swap-free pass even though the matrix is invertible
    with pytest.raises(SingularMatrixError):
        leading_minors([[0, 1, 2], [1, 0, 3], [4, 5, 6]])
    with pytest.raises(DomainError):
        leading_minors([[1, 2]])


@st.composite
def symmetric_bands(draw):
    """(upper band rows, dense matrix) of a symmetric integer band matrix.

    Half-bandwidth 0..4, order 1..40, zeros inside the band, so multipliers
    of 0 occur, and zeros on the diagonal, so leading minors vanish.
    """
    w = draw(st.integers(0, 4))
    n = draw(st.integers(1, 40))
    diagonal = st.sampled_from((0, 1, 2, 5, 9, -4))
    off = st.sampled_from((0, 0, 1, -1, 2, -3))
    rows = [[draw(diagonal)] + [draw(off) for _ in range(w)] for _ in range(n)]
    return rows, _symmetric_dense(rows)


def _symmetric_dense(rows):
    """The dense symmetric matrix whose upper band rows are `rows`, columns past n dropped."""
    n = len(rows)
    dense = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in enumerate(row[: n - i], i):
            dense[i][j] = dense[j][i] = x
    return dense


@seed(20261019)
@settings(deadline=None, max_examples=300)
@given(symmetric_bands())
@example(([[2, -1]] * 30, [[2 if i == j else -(abs(i - j) == 1) for j in range(30)] for i in range(30)]))
@example(([[1, 1]] * 3, [[1, 1, 0], [1, 1, 1], [0, 1, 1]]))
@example(([[3]] * 2, [[3, 0], [0, 3]]))
def test_symmetric_band_pass_matches_the_general_pass(band):
    rows, dense = band
    before = [list(r) for r in rows]
    try:
        want = leading_minors(dense)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError):
            _symmetric_band_minors(rows)
    else:
        assert _symmetric_band_minors(rows) == want
    assert rows == before


def test_symmetric_band_pass_takes_one_list_for_every_row():
    # the band of 5 - 2x - 2/x: D_l = (4^(l+1) - 1) / 3, columns past n ignored
    assert _symmetric_band_minors([[5, -2]] * 6) == [(4 ** (k + 1) - 1) // 3 for k in range(1, 7)]
    assert _symmetric_band_minors([[5, -2, 0, 0]] * 2) == [5, 21]
    assert _symmetric_band_minors([]) == []
    assert _symmetric_band_minors([[0, 1]]) == [0]  # D_n may vanish


def _minors_or_singular(minors, rows):
    try:
        return minors(rows)
    except SingularMatrixError:
        return "singular"


@seed(20261020)
@settings(deadline=None, max_examples=200)
@given(symmetric_bands(), st.data())
def test_symmetric_band_entries_past_the_last_column_do_not_count(band, data):
    # the pass reads entries in columns n and beyond through its padded rows
    rows, _ = band
    n = len(rows)
    junk = st.integers(-10**6, 10**6)
    other = [[x if i + j < n else data.draw(junk) for j, x in enumerate(row)] for i, row in enumerate(rows)]
    want = _minors_or_singular(_symmetric_band_minors, rows)
    assert _minors_or_singular(_symmetric_band_minors, other) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("band", [[7, 1, -2, 3, 1], [9, 0, 0, 0, -4], [2, 2, 1, 0, 5], [0, 1, 2, 3, 4]])
def test_symmetric_band_of_order_below_its_width_matches_the_oracle(band, n):
    for rows in ([band] * n, [band[: 5 - i] + [i + 1] * i for i in range(n)]):
        want = _minors_or_singular(leading_minors, _symmetric_dense(rows))
        assert _minors_or_singular(_symmetric_band_minors, rows) == want


def test_symmetric_toeplitz_band_of_order_120_matches_the_oracle():
    # the band of B(x)B(1/x) for B = 1 - 2x + x^2 + 2x^3, at gram-growth's orders and past them
    band = [10, -2, -3, 2]
    minors = _symmetric_band_minors([band] * 120)
    assert minors == leading_minors(_symmetric_dense([band] * 120))
    assert all(d > 0 for d in minors)


# ----- the span elimination against the dense oracles -----


@st.composite
def banded_matrices(draw, entries=small_ints, max_n=12):
    """Square, zero outside a band of independent lower and upper half-widths."""
    n = draw(st.integers(1, max_n))
    lower, upper = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return [[draw(entries) if -lower <= k - j <= upper else 0 for k in range(n)] for j in range(n)]


@st.composite
def bordered_band_grams(draw):
    """Gram matrix of e_S above the band rows [B]_l: the bordered shape of the lyons oracle."""
    d = draw(st.integers(1, 3))
    ends = st.integers(-5, 5).filter(bool)
    coeffs = [draw(ends)] + [draw(st.integers(-5, 5)) for _ in range(d - 1)] + [draw(ends)]
    rows = band_rows(coeffs, draw(st.integers(1, 10)))
    chosen = draw(st.lists(st.integers(1, d), min_size=1, max_size=d, unique=True))
    e_rows = [[int(c == i - 1) for c in range(len(rows[0]))] for i in sorted(chosen)]
    vectors = e_rows + rows
    return [[sum(map(operator.mul, u, v)) for v in vectors] for u in vectors]


@st.composite
def sparse_matrices(draw):
    """Mostly zeros: zero pivots, swaps, and rows skipped for several steps."""
    n = draw(st.integers(1, 8))
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3, 7))
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@st.composite
def singular_matrices(draw):
    """U V with U n x r and V r x n, r < n: every such matrix is singular."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(0, n - 1))
    entry = st.integers(-4, 4)
    u = [[draw(entry) for _ in range(r)] for _ in range(n)]
    v = [[draw(entry) for _ in range(n)] for _ in range(r)]
    return [[sum(map(operator.mul, row, col)) for col in zip(*v)] if r else [0] * n for row in u]


@st.composite
def late_start_matrices(draw):
    """Rows in any order, each from a drawn first nonzero column on, some right of the diagonal.

    Stored as a staircase by _spans, a row whose first nonzero lies below
    a later row's keeps leading zeros, and a row whose first nonzero lies
    right of its own diagonal needs a row that joined late swapped up, or
    leaves its column with no pivot.
    """
    n = draw(st.integers(2, 8))
    entry = st.sampled_from((0, 0, 1, -1, 2, -3, 5))
    rows = []
    for _ in range(n):
        first = draw(st.integers(0, n - 1))
        lead = draw(st.sampled_from((1, -1, 2, -3)))
        rows.append([0] * first + [lead] + [draw(entry) for _ in range(n - 1 - first)])
    return draw(st.permutations(rows))


@st.composite
def zero_row_matrices(draw):
    """A banded or sparse matrix with some of its rows zeroed."""
    rows = draw(st.one_of(banded_matrices(max_n=8), sparse_matrices()))
    zeroed = draw(st.sets(st.integers(0, len(rows) - 1), min_size=1))
    return [[0] * len(row) if i in zeroed else row for i, row in enumerate(rows)]


def _spans(rows):
    """(rows, starts) of a staircase: row i from the least first nonzero of rows i.. to its last.

    The starts never decrease down the rows, as the span engine needs; a
    row stored from left of its own first nonzero keeps those zeros, and a
    zero row is empty.
    """
    width = len(rows[0])
    firsts = [next((k for k, x in enumerate(row) if x), width) for row in rows]
    starts = list(itertools.accumulate(reversed(firsts), min))[::-1]
    ends = [next((k for k in range(width, 0, -1) if row[k - 1]), 0) for row in rows]
    return [row[s : max(s, e)] for row, s, e in zip(rows, starts, ends)], starts


def _dense(spans, starts, width):
    """The rows of width `width` that the spans store."""
    return [[0] * s + list(r) + [0] * (width - s - len(r)) for r, s in zip(spans, starts)]


def _echelon(rows):
    """Swap count and the entries callers read, row i from column i on.

    The span engine runs on the rows' spans, and its rows are densified
    again to be read; the last pivot it hands back is the last row's
    diagonal entry.
    """
    width = len(rows[0])
    spans, starts = _spans(rows)
    done = _bareiss(spans, starts)
    if done is None:
        return None, None
    swaps, pivot = done
    for start, span in zip(starts, spans):
        assert 0 <= start and start + len(span) <= width
    dense = _dense(spans, starts, width)
    assert pivot == dense[-1][len(dense) - 1]
    return swaps, [row[i:] for i, row in enumerate(dense)]


def _oracle_echelon(engine, rows):
    """_echelon for a dense engine of the oracles, one step per row."""
    a = [list(r) for r in rows]
    swaps = engine(a, len(a))
    return swaps, None if swaps is None else [row[i:] for i, row in enumerate(a)]


def _agrees(rows):
    want = _oracle_echelon(dense_bareiss, rows)
    assert _echelon(rows) == want
    assert _oracle_echelon(zero_skipping_bareiss, rows) == want


@seed(20261018)
@settings(deadline=None, max_examples=400)
@given(
    st.one_of(
        banded_matrices(),
        bordered_band_grams(),
        sparse_matrices(),
        singular_matrices(),
        banded_matrices(entries=small_rationals, max_n=7),
        late_start_matrices(),
        zero_row_matrices(),
    )
)
def test_elimination_agrees_with_the_dense_oracle(rows):
    n = len(rows)
    cleared = [clear_denominators(r) for r in rows]
    ints, dens = [c for c, _ in cleared], [den for _, den in cleared]
    rhs = [[i + 1, (-1) ** i] for i in range(n)]
    # every pivot and every entry right of the diagonal, for det, minors and solve
    for a in (ints, [r + b for r, b in zip(ints, rhs)]):
        _agrees(a)
    a = [list(r) for r in ints]
    swaps = dense_bareiss(a, n - 1)
    signed = 0 if swaps is None else (-1) ** swaps * a[-1][-1]
    det = Fraction(signed, math.prod(dens))
    assert det_exact(rows) == det
    assert _det_spans(*_spans(ints)) == signed
    if swaps == 0:
        prefix = itertools.accumulate(dens, operator.mul)
        want = [Fraction(row[k], s) for k, (row, s) in enumerate(zip(a, prefix))]
        assert leading_minors(rows) == want
    else:
        with pytest.raises(SingularMatrixError):
            leading_minors(rows)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(rows, rhs)
    else:
        assert mat_mul(rows, solve_fractions(rows, rhs)) == rhs


@st.composite
def augmented_systems(draw):
    """(A, B): A from the square strategies, B of 1 to 5 columns, often sparse."""
    a = draw(
        st.one_of(sparse_matrices(), late_start_matrices(), zero_row_matrices(), banded_matrices(max_n=8))
    )
    width = draw(st.integers(1, 5))
    entry = st.sampled_from((0, 0, 0, 1, -1, 4, -9))
    return a, [[draw(entry) for _ in range(width)] for _ in a]


@seed(20261019)
@settings(deadline=None, max_examples=300)
@given(augmented_systems())
def test_augmented_elimination_agrees_with_the_dense_oracle(system):
    # solve_exact's pass: n steps over the rows of [A | B], whose spans end
    # anywhere in B or before it
    a, b = system
    _agrees([ra + rb for ra, rb in zip(a, b)])
    if det_exact(a) == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(a, b)
    else:
        assert mat_mul(a, solve_fractions(a, b)) == b


@st.composite
def exact_systems(draw):
    """(A, B) with int or Fraction entries: A of order 1 to 6, B of 1 to 4 columns."""
    n = draw(st.integers(1, 6))
    entry = draw(st.sampled_from((small_ints, small_rationals)))
    width = draw(st.integers(1, 4))
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    return a, [[draw(entry) for _ in range(width)] for _ in range(n)]


@seed(20261020)
@settings(deadline=None, max_examples=300)
@given(st.one_of(augmented_systems(), exact_systems()))
@example(([[2, 1], [1, -3]], [[1], [Fraction(1, 2)]]))  # D = -14, the second row cleared by 2
@example(([[0, 1], [1, 0]], [[1, 0], [0, 1]]))  # a swap: D = 1 = -det A
def test_solve_returns_integers_over_the_last_pivot(system):
    a, b = system
    n = len(a)
    cleared_a = [clear_denominators([*ra, *rb])[0][:n] for ra, rb in zip(a, b)]
    det = det_exact(cleared_a)
    if det == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(a, b)
        return
    dx, d = solve_exact(a, b)
    assert type(d) is int and d != 0 and abs(d) == abs(det)
    assert all(type(v) is int for row in dx for v in row)
    assert mat_mul(a, dx) == [[d * y for y in row] for row in b]


def test_a_row_owing_its_scale_is_swapped_up_exactly():
    # row 2 is skipped at step 0 and owes the pivot 2 when the zero pivot of
    # step 1 swaps it up; row 1, then below it, is skipped at step 1 and pays
    # 6 / 2 as the last pivot row
    rows = [[2, 1, 1], [4, 2, 5], [0, 3, 7]]
    want = (1, [[2, 1, 1], [6, 14], [18]])
    assert _echelon(rows) == _oracle_echelon(dense_bareiss, rows) == want
    assert det_exact(rows) == -18
    # a zero first pivot is swapped for the first row below it that has one
    assert det_exact([[0, 0, 3], [2, 1, 1], [4, 5, 6]]) == 18


def test_a_column_no_joined_row_reaches_has_no_pivot():
    # rows 1 and 2 start at column 2, so column 1 is zero from row 1 down
    assert _bareiss([[1, 2, 3], [4], [5]], [0, 2, 2]) is None
    assert _det_spans([[1, 2, 3], [4], [5]], [0, 2, 2]) == 0
    # a zero last pivot has no row to swap with
    assert _bareiss([[1, 2], [2, 4]], [0, 0]) is None


def test_band_updates_stop_at_the_band():
    # tridiagonal Toeplitz rows of 2 - x - 1/x, stored as their band: D_k = k + 1,
    # and no row grows past the band
    n = 30
    starts = [max(j - 1, 0) for j in range(n)]
    rows = [[-1, 2, -1][1 - j + s : n - j + 1] for j, s in enumerate(starts)]
    spans, at = list(rows), list(starts)
    assert _bareiss(spans, at) == (0, n + 1)
    assert [span[k - s] for k, (span, s) in enumerate(zip(spans, at))] == list(range(2, n + 2))
    assert all(s + len(span) <= k + 2 for k, (span, s) in enumerate(zip(spans, at)))
    assert leading_minors(_dense(rows, starts, n)) == list(range(2, n + 2))


@seed(20261019)
@settings(deadline=None, max_examples=100)
@given(st.one_of(banded_matrices(), late_start_matrices(), zero_row_matrices()))
def test_the_pass_never_writes_into_its_input_rows(rows):
    spans, starts = _spans(rows)
    before = [list(r) for r in spans]
    kept = list(spans)
    _bareiss(spans, starts)
    assert kept == before


def test_leading_minors_are_ints_for_integral_rows_and_fractions_for_rational_rows():
    dense = [[2, 1, 0], [1, 2, 1], [0, 1, 2]]
    for rows in (dense, _dense([[2, 1], [1, 2, 1], [1, 2]], [0, 0, 1], 3)):
        minors = leading_minors(rows)
        assert minors == [2, 3, 4] and {*map(type, minors)} == {int}
    # an integral first row still gives a Fraction once any row is rational
    minors = leading_minors([[2, 1], [Fraction(1, 2), 1]])
    assert minors == [2, Fraction(3, 2)] and {*map(type, minors)} == {Fraction}


def test_integrality_scan_sends_bools_and_fractions_down_the_exact_route():
    assert det_exact([[True, False], [False, True]]) == 1
    assert det_exact([[True, 2], [Fraction(1, 2), 3]]) == 2
    assert leading_minors([[2, Fraction(1, 3)], [Fraction(3, 2), 1]]) == [2, Fraction(3, 2)]
    assert det_exact([[Fraction(1, 2), 0], [2, Fraction(1, 3)]]) == Fraction(1, 6)


def test_det_and_solve_clear_every_row_through_clear_denominators(monkeypatch):
    """An all-int matrix takes the same clearer as any other, once per row."""
    calls = []
    real = exact_linalg.clear_denominators
    monkeypatch.setattr(exact_linalg, "clear_denominators", lambda row: calls.append(row) or real(row))
    a = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert det_exact(a) == 18 and len(calls) == 3
    calls.clear()
    assert solve_exact(a, [[1], [2], [3]])[1] == 18 and len(calls) == 3
    calls.clear()
    assert det_exact([]) == 1 and calls == []


# ----- clear_denominators -----


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.lists(small_ints | st.booleans(), max_size=8))
def test_clear_denominators_returns_an_int_row_unchanged(row):
    """Plain ints take the type-scan shortcut, bools the per-entry route, and both come back as ints."""
    ints, den = clear_denominators(row)
    assert ints == row and den == 1
    assert all(type(x) is int for x in ints)
    assert ints is not row  # a copy is the function's contract


exact_entries = st.one_of(small_ints, st.fractions(-30, 30, max_denominator=40))


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.lists(exact_entries, min_size=1, max_size=8))
def test_clear_denominators_scales_by_the_least_common_denominator(row):
    ints, den = clear_denominators(row)
    assert den == math.lcm(*(Fraction(x).denominator for x in row))
    assert all(type(x) is int for x in ints)
    assert [Fraction(x, den) for x in ints] == row


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(exact_entries, max_size=6),
    st.one_of(st.floats(allow_nan=True), st.text(max_size=4)),
    st.integers(0, 6),
)
def test_clear_denominators_rejects_floats_and_strings(row, bad, at):
    with pytest.raises(DomainError):
        clear_denominators(row[:at] + [bad] + row[at:])


# ----- clear_floats -----


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@seed(20261018)
@settings(max_examples=100, deadline=None)
@given(st.lists(finite_floats, max_size=8))
def test_clear_floats_agrees_with_the_fraction_route(row):
    assert clear_floats(row) == clear_denominators([Fraction(x) for x in row])


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(
    st.lists(finite_floats, max_size=6),
    st.sampled_from((math.inf, -math.inf, math.nan)),
    st.integers(0, 6),
)
def test_clear_floats_rejects_non_finite_values(row, bad, at):
    with pytest.raises(DomainError):
        clear_floats(row[:at] + [bad] + row[at:])
