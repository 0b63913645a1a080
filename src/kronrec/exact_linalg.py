"""Exact rational linear algebra on stdlib Fractions and ints.

Matrices are plain lists of row lists.  Integer-lattice routines (hnf,
integer_kernel) validate integrality.  clear_denominators, the one rational
coercer, turns exact rows into integers for every integer route, and
clear_floats does the same for the binary values of floats, the root
engine's included.  Both return a new list, and clear_denominators takes a
row of plain ints, as most determinant and solve rows are, by one type scan
at C speed, with den 1.  Determinant and solve clear their rows one by one
and share one fraction-free Bareiss elimination on them.  The elimination
works on row spans, which stay private to this module and toeplitz: a row
is stored from a start column to its last entry, the starts never decrease
down the rows, and a dense matrix is rows from column 0.  One full pass
eliminates every column, and the determinant is its last pivot, signed.
A row joins the pass at the step that reaches its start, so the joined rows
are always a prefix; a row with a zero in the pivot column is left alone and
pays the factor it owes exactly later, since every Bareiss intermediate is a
minor, and updates stop where the spans end.  So banded matrices cost
O(L d^2) at order L and half-bandwidth d, bookkeeping included, and dense
ones O(L^3).  The symmetric Toeplitz and Gram matrices of A(x)A(1/x) take a
second pass, the same elimination restricted to the upper band: the minor
at (i, j) equals the one at (j, i), so the lower triangle is never formed,
and the pivots are the leading principal minors D_1..D_L.  That pass keeps
its band window in one flat list and builds each next window from one
update plan, made once per call; the rows are padded with copies of the
last one so that the plan holds at every step.  solve_exact hands out the
integers it computes, (D X, D): D is the elimination's last pivot, plus or
minus det A once each row of [A | B] is cleared, and D X is integral.

HNF convention: row-style echelon, positive pivots, entries above a pivot
reduced into [0, pivot), so the form is unique: one lattice, one HNF.
Re-running hnf on its own output is the identity.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, SingularMatrixError

__all__ = [
    "PADIC_INFINITY",
    "is_prime",
    "hnf",
    "integer_kernel",
    "coerce_rational",
    "clear_denominators",
    "clear_floats",
    "det_exact",
    "solve_exact",
    "identity_matrix",
]

PADIC_INFINITY = math.inf

# trial divisors, and the Miller-Rabin bases 2..41, deterministic below
# psi_13 = 3317044064679887385961981 (Sorenson & Webster, Math. Comp. 86, 2017)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly; DomainError for an n with no factor
    up to 41 at or above the bound where the bases stop being deterministic."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise DomainError(f"primality is decided only below {_MR_DETERMINISTIC_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ----- matrix plumbing -----


def _check_int_matrix(rows: Sequence[Sequence[int]]) -> None:
    if not rows:
        raise DomainError("matrix needs at least one row")
    if any(len(r) != len(rows[0]) for r in rows):
        raise DomainError("ragged matrix")
    for x in itertools.chain.from_iterable(rows):
        if not isinstance(x, int):
            raise DomainError(f"integer matrix expected, got {type(x).__name__}")
    if not rows[0]:
        raise DomainError("matrix needs at least one column")


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# ----- Hermite normal form -----


def hnf(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style HNF with transform: returns (H, U) with U unimodular, U*A = H."""
    _check_int_matrix(rows)
    nc = len(rows[0])
    h = _hnf([list(r) + e for r, e in zip(rows, identity_matrix(len(rows)))], nc)
    return [r[:nc] for r in h], [r[nc:] for r in h]


def _hnf(h: list[list[int]], ncols: int) -> list[list[int]]:
    """hnf of the first ncols columns of an integer matrix already checked, in place.

    Row operations act on whole rows, so on [A | I] the appended columns
    come out as the transform.
    """
    nr = len(h)

    def row_sub(dst: int, src: int, q: int) -> None:
        if q:
            h[dst] = [a - q * b for a, b in zip(h[dst], h[src])]

    pr = 0
    for col in range(ncols):
        if pr >= nr:
            break
        while True:
            nz = [r for r in range(pr, nr) if h[r][col] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda r: abs(h[r][col]))
            base = nz[0]
            for r in nz[1:]:
                row_sub(r, base, h[r][col] // h[base][col])
        if not nz:
            continue
        r0 = nz[0]
        if r0 != pr:
            h[pr], h[r0] = h[r0], h[pr]
        if h[pr][col] < 0:
            h[pr] = [-x for x in h[pr]]
        for r in range(pr):
            row_sub(r, pr, h[r][col] // h[pr][col])
        pr += 1
    return h


# ----- saturated integer kernel -----


def integer_kernel(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """HNF-reduced basis of the saturated lattice {v integral : A v = 0}.

    Rows of the result are primitive and HNF-normalized; the lattice they span
    is exactly ker(A) intersected with the integer lattice (saturation comes
    for free from the transform-of-HNF construction).
    """
    _check_int_matrix(rows)
    n = len(rows)
    h = _hnf([[*col, *e] for col, e in zip(zip(*rows), identity_matrix(len(rows[0])))], n)
    kernel_rows = [r[n:] for r in h if not any(r[:n])]
    if not kernel_rows:
        return []
    return [row for row in _hnf(kernel_rows, len(kernel_rows[0])) if any(row)]


# ----- exact determinant and solve -----


def coerce_rational(x) -> Fraction:
    """Exact value of an int, Fraction, finite float (its binary value) or numeric string.

    Anything else, a string like "abc", "nan" or "1/0" included, raises DomainError.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError("need a finite number")
    if isinstance(x, (int, float, str)):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def clear_denominators(values: Sequence) -> tuple[list[int], int]:
    """(ints, den) for int or Fraction values: den their lcm denominator, ints = den * values.

    ints is always a new list.  Plain ints pass one type scan at C speed and
    come back over den 1; bools and Fractions take the per-entry route.
    """
    row = list(values)
    if {int}.issuperset(map(type, row)):
        return row, 1
    for x in row:
        if not isinstance(x, (int, Fraction)):
            raise DomainError(f"exact routines need int or Fraction, got {type(x).__name__}")
    den = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def clear_floats(values: Sequence[float]) -> tuple[list[int], int]:
    """(ints, den) for floats: den a power of two, ints = den * values exactly.

    Every float is an integer over a power of two, so the lcm of the
    denominators is the largest of them, read from `as_integer_ratio` with
    no Fraction built.  A non-finite value raises DomainError.
    """
    try:
        ratios = [x.as_integer_ratio() for x in values]
    except (OverflowError, ValueError) as exc:
        raise DomainError("exact clearing needs finite floats") from exc
    den = max((q for _, q in ratios), default=1)
    return [p * (den // q) for p, q in ratios], den


def _entry(row: Sequence[int], start: int, col: int) -> int:
    """The entry in column col of a row span that starts at column `start`."""
    j = col - start
    return row[j] if 0 <= j < len(row) else 0


def _bareiss(rows: list[Sequence[int]], starts: list[int]) -> tuple[int, int] | None:
    """Fraction-free elimination of row spans, one step per row, in place.

    rows[i] holds row i from column starts[i] on, the rest of it 0, and the
    starts never decrease down the rows.  Step k replaces each row below the
    pivot p_k, the entry in column k of row k, by
    (row * p_k - row[k] * pivot row) / p_{k-1}, with p_{-1} = 1; the
    division is exact, since every intermediate entry is a minor of the
    input.  While no rows are swapped, p_k is the (k+1)-th leading principal
    minor (Bareiss, Math. Comp. 22, 1968).  A zero pivot is swapped for the
    first nonzero entry below it.  An updated row is stored from column
    k + 1, since callers read only the upper triangle, to the further of its
    own end and the pivot row's.  Rows are replaced, never written into, so
    the input's survive.  Returns the number of row swaps and the last
    pivot, (0, 1) for no rows, or None when a column, the last one
    included, has no pivot.

    A row joins at the step that reaches its start.  Swaps and updates keep
    the joined rows' starts at or before the step, so the joined rows stay
    a prefix rows[:joined], and if row k has not joined at step k, column k
    is zero from row k down.  A joined row with a 0 in the pivot column is
    left as it is, so a row last updated at step t owes the factor
    p_{k-1} / p_t.  Both are minors, and the factor is paid exactly in the
    row's next update, which divides by p_t, or when the row becomes the
    pivot row, as every row does.  So a band of order L and half-bandwidth
    d costs O(L d^2) in bookkeeping as in arithmetic.
    """
    n = len(rows)
    lags = [1] * n  # lags[i] = p_t, t the last step that updated row i (p_{-1} = 1)
    joined = swaps = 0
    prev = 1
    for k in range(n):
        while joined < n and starts[joined] <= k:
            joined += 1
        if joined <= k:
            return None
        row = rows[k]
        at = k - starts[k]
        if at >= len(row) or not row[at]:
            swap = next((i for i in range(k + 1, joined) if _entry(rows[i], starts[i], k)), None)
            if swap is None:
                return None
            rows[k], rows[swap] = rows[swap], row
            starts[k], starts[swap] = starts[swap], starts[k]
            lags[k], lags[swap] = lags[swap], lags[k]
            swaps += 1
            row = rows[k]
            at = k - starts[k]
        lag = lags[k]
        if lag != prev:
            row = rows[k] = [x * prev // lag for x in row[at:]]
            starts[k] = k
            at = 0
        pivot = row[at]
        pivot_tail = row[at + 1 :]
        for i in range(k + 1, joined):
            r = rows[i]
            j = k + 1 - starts[i]  # r[j - 1] is the entry in column k
            if j <= len(r) and (f := r[j - 1]):
                lag = lags[i]
                pairs = itertools.zip_longest(r[j:], pivot_tail, fillvalue=0)
                rows[i] = [(x * pivot - f * y) // lag for x, y in pairs]
                starts[i] = k + 1
                lags[i] = pivot
        prev = pivot
    return swaps, prev


def _det_spans(rows: list[Sequence[int]], starts: list[int]) -> int:
    """Determinant of integer row spans, as _bareiss takes them: its last pivot, signed by the swaps."""
    done = _bareiss(rows, starts)
    if done is None:
        return 0
    swaps, det = done
    return -det if swaps % 2 else det


def det_exact(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix of ints or Fractions by fraction-free Bareiss elimination."""
    n = len(rows)
    if {*map(len, rows)} - {n}:
        raise DomainError("determinant needs a square matrix")
    cleared = [clear_denominators(r) for r in rows]
    det = _det_spans([ints for ints, _ in cleared], [0] * n)
    return Fraction(det, math.prod(den for _, den in cleared))


def _symmetric_band_minors(rows: Sequence[Sequence[int]]) -> list[int]:
    """Leading principal minors D_1..D_n of a symmetric integer band matrix.

    rows[i] holds the upper band of row i, the entries (i, i), (i, i + 1),
    .., (i, i + w), every row of one length w + 1, so a Toeplitz band may
    pass one list n times.  This is _bareiss's dense pass restricted to the
    upper band.  The step-k matrix is symmetric, each entry being a minor,
    so the multiplier of row k + t is the pivot row's own entry (k, k + t).
    Entry (i, j) is only scaled by p_k / p_(k-1) before step j - w, so it
    enters the pass at that step as its input value times the factor it
    owes, p_(j-w-1) (p_(-1) = 1).

    The step-k window is one flat list: rows k..k + w, row t from column
    k + t to k + w.  One plan, built once, names the source of each slot of
    the next window: an update (a, b, c) is (win[a] p_k - win[b] win[c]) /
    p_(k-1), win[b] being the multiplier, and each row's slot in column
    k + w + 1, marked a = -1, is an entering entry rows[k + b][c] p_k.  So
    a step is one pass over the plan, w (w + 1) / 2 updates.  To serve
    every step with one plan, the rows gain w copies of the last one, and
    the pass reads entries in columns n and beyond.  What it reads is the
    upper band of a symmetric integer matrix of order n + w whose leading
    n x n block is the input, so D_1..D_n are the input's, and each
    division stays exact, every divided entry being a minor of that matrix.
    No row is swapped: the pass raises SingularMatrixError when some D_k
    with k < n vanishes, while D_n itself may be 0.
    """
    n = len(rows)
    if not n:
        return []
    w = len(rows[0]) - 1
    rows = [*rows, *[rows[-1]] * w]
    # row t of a window starts at win[first[t]], its entry in column k + t
    first = list(itertools.accumulate(range(w + 1, 0, -1), initial=0))
    plan = [
        (first[t + 1] + j, t + 1, t + 1 + j) if t + j < w else (-1, t + 1, w - t)
        for t in range(w + 1)
        for j in range(w + 1 - t)
    ]
    win = [x for t in range(w + 1) for x in rows[t][: w + 1 - t]]
    minors = []
    prev = 1
    for k in range(n - 1):
        pivot = win[0]
        if not pivot:
            raise SingularMatrixError("a leading principal minor vanished")
        minors.append(pivot)
        win = [
            (win[a] * pivot - win[b] * win[c]) // prev if a >= 0 else rows[k + b][c] * pivot
            for a, b, c in plan
        ]
        prev = pivot
    minors.append(win[0])
    return minors


def solve_exact(a_rows: Sequence[Sequence], b_rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """(DX, D) for the solution X of A X = B: D X integral; SingularMatrixError when A is singular.

    D is the last pivot of the elimination of [A | B], each row cleared of
    denominators first: plus or minus the determinant of the cleared A, never 0.
    """
    n = len(a_rows)
    if n == 0:
        raise DomainError("solve needs a nonempty A")
    if any(len(r) != n for r in a_rows):
        raise DomainError("solve needs a square A")
    if len(b_rows) != n:
        raise DomainError("B row count must match A")
    width = len(b_rows[0])
    if any(len(r) != width for r in b_rows):
        raise DomainError("ragged B")
    a = [clear_denominators([*ra, *rb])[0] for ra, rb in zip(a_rows, b_rows)]
    starts = [0] * n
    done = _bareiss(a, starts)
    if done is None:
        raise SingularMatrixError("singular matrix in solve_exact")
    # every row runs to the last column of [A | B], so row i from column i on
    # is a[i][i - starts[i]:]; and dx = det * x is integral by Cramer's rule,
    # so the division that ends each row of dx is exact
    det = done[1]
    dx = [None] * n
    for i in reversed(range(n)):
        row = a[i][i - starts[i] :]
        acc = [det * y for y in row[n - i :]]
        for j in range(i + 1, n):
            c = row[j - i]
            acc = [x - c * y for x, y in zip(acc, dx[j])]
        pivot = row[0]
        dx[i] = [x // pivot for x in acc]
    return dx, det
