"""Integer polynomials, certified complex roots, and Mahler measure variants.

This module is kronrec's only root finder, and every nonzero root takes one
route.  The factor x^k is split off, so the root 0 keeps an exact disk of
radius 0.  Yun's square-free decomposition, run on integer coefficient
lists with primitive remainder sequences, splits the rest into pairwise
coprime square-free factors with exact multiplicities, so only simple roots
are ever iterated on; rational roots are not searched for.  One
Aberth-Ehrlich iteration in doubles finds each factor's roots, first with p
evaluated in doubles, then with p evaluated exactly at the float iterates
until they settle.  Before each exact sweep a centre z with
|Im z| <= eps^2 |Re z| (eps the double epsilon) is put on the real axis.  An
imaginary part that small reaches the real part of a double operation only
through a product of two imaginary parts, far below half an ulp, so the
iterates keep their real parts, and the exact values at a real root's
centre are taken at its real part's scale.  The certificate below does not
rely on this: a disk centred on the axis that isolates one root isolates a
real one, so a centre wrongly put there can only fail it.  Each centre is
then enclosed in a Weierstrass disk: for pairwise distinct points
z_1..z_n the disks D(z_i, n*|p(z_i)/(lc * prod_{j!=i}(z_i-z_j))|) jointly
cover the zero set, so pairwise disjoint disks isolate exactly one zero
each (Braess & Hadeler, Numer. Math. 21, 1973).  The centres are dyadic, and
`exact_linalg.clear_floats`, the one float clearer, puts them over one power
of two, where every quantity in a radius is a Gaussian integer: the radii
are exact values rounded up, and a root that is itself a float gets
radius 0.  Each pairwise and each conjugate quantity is formed once:
an Aberth sweep forms 1/(z_i - z_j) once for both points, and the final
centres are the real ones, the upper ones and their mirrors, so p and the
radii are taken at the real and upper centres only, by one tail for every
factor.  Almost always as many Aberth centres lie below the axis as above,
and those below are never read.  Otherwise, or when an upper disk meets
the axis, p is evaluated at every centre to snap onto the axis each one
whose disk meets it (radii taken off the axis only: a centre on it is
real whatever its radius).  Disjointness is decided exactly, after a
float screen with a proven margin; no working precision is involved.

`roots` accepts the disks when each radius is at most 1e-12 * max(1, |z|)
and all disks are pairwise disjoint.  Every Mahler variant and the refined
products of A and of its reversal x^d A(1/x) are folds over that one root set.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple, Sequence

from .errors import DomainError, ParseError, RootCertificationError
from .exact_linalg import clear_floats
from .intervals import Interval, _down, _up

__all__ = [
    "IntPolynomial",
    "RootEnclosure",
    "ComplexRootSet",
    "MahlerMeasure",
    "MAHLER_VARIANTS",
    "parse_polynomial",
    "roots",
    "mahler_measure",
    "squarefree_factors",
]

# largest radius of a certified root disk, relative to max(1, |z|)
_TARGET_RADIUS = 1e-12
MAHLER_VARIANTS = ("plain", "half_scaled", "double_scaled", "conjugate")


class _IntPolynomialFields(NamedTuple):
    coeffs: tuple[int, ...]


class IntPolynomial(_IntPolynomialFields):
    """A nonzero integer polynomial, coefficients ascending: a_0, a_1, ..., a_d."""

    __slots__ = ()

    def __new__(cls, coeffs: tuple[int, ...]) -> "IntPolynomial":
        if not coeffs:
            raise DomainError("a polynomial needs at least one coefficient")
        for c in coeffs:
            if not isinstance(c, int):
                raise DomainError(f"coefficients must be int, got {type(c).__name__}")
        if coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero (strip trailing zeros)")
        return super().__new__(cls, coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> int:
        return self.coeffs[-1]

    @property
    def constant_coefficient(self) -> int:
        return self.coeffs[0]

    @property
    def content(self) -> int:
        return math.gcd(*(abs(c) for c in self.coeffs))

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    def coefficient_sum_abs(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def __str__(self) -> str:
        text = ""
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c:
                xpow = "" if i == 0 else "x" if i == 1 else f"x^{i}"
                body = xpow if abs(c) == 1 and xpow else f"{abs(c)}{xpow}"
                sign = "-" if c < 0 else "+"
                text += f" {sign} {body}" if text else body if c > 0 else f"-{body}"
        return text


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse an ascending comma-separated coefficient list, e.g. "3,-2,-9,-3,9"."""
    if text is None or not text.strip():
        raise ParseError("empty polynomial")
    values = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            raise ParseError("empty coefficient token")
        try:
            values.append(int(tok, 10))
        except ValueError as exc:
            raise ParseError(f"non-integer coefficient {tok!r}") from exc
    if _strip(values) == [0]:
        raise ParseError("the zero polynomial is not allowed")
    return IntPolynomial(tuple(values))


# ----- exact polynomial helpers over the integers -----


def _strip(cs: list[int]) -> list[int]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _deriv(cs: Sequence[int]) -> list[int]:
    return _strip([i * c for i, c in enumerate(cs)][1:] or [0])


def _primitive(cs: Sequence[int]) -> list[int]:
    """cs over its content, with a positive leading coefficient; [0] stays [0]."""
    g = math.gcd(*cs)
    g = -g if cs[-1] < 0 else g
    return [c // g for c in cs] if g else [0]


def _exact_quotient(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """num / den for a primitive den dividing num, which is exact in Z[x] by Gauss's lemma."""
    rem = list(num)
    q = [0] * max(1, len(rem) - len(den) + 1)
    for shift in range(len(rem) - len(den), -1, -1):
        coef = q[shift] = rem[shift + len(den) - 1] // den[-1]
        for i, dc in enumerate(den):
            rem[shift + i] -= coef * dc
    return q


def _gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive gcd with a positive leading coefficient, by a primitive remainder sequence.

    Each pseudo-remainder is made primitive before it divides, which keeps
    the coefficients from swelling (Knuth, TAOCP vol. 2, 4.6.1).
    """
    a, b = _primitive(a), _primitive(b)
    while b != [0]:
        r = list(a)
        while len(r) >= len(b) and any(r):
            shift, top = len(r) - len(b), r[-1]
            r = [b[-1] * x for x in r[:-1]]
            for i, bc in enumerate(b[:-1]):
                r[shift + i] -= top * bc
            _strip(r)
        a, b = b, _primitive(r or [0])
    return a


def squarefree_factors(poly: IntPolynomial) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Yun decomposition: primitive square-free factors with exact multiplicities.

    Returns ((coeffs, multiplicity), ...) with the factors pairwise coprime,
    each with a positive leading coefficient, and A equal to a nonzero
    constant times the product of factor^multiplicity.  Every step stays in
    Z[x]: the gcds are primitive, so the quotients by them are exact.
    """
    if poly.degree == 0:
        return ()
    f = list(poly.coeffs)
    fp = _deriv(f)
    g = _gcd(f, fp)
    b, c = _exact_quotient(f, g), _exact_quotient(fp, g)
    out = []
    i = 1
    while len(b) > 1:
        d = _strip([ci - bi for ci, bi in zip_longest(c, _deriv(b), fillvalue=0)])
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((tuple(a), i))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        i += 1
    return tuple(out)


# ----- certified numeric roots -----


class RootEnclosure(NamedTuple):
    value: complex
    radius: float
    multiplicity: int


class _ComplexRootSetFields(NamedTuple):
    poly: IntPolynomial
    roots: tuple[RootEnclosure, ...]


class ComplexRootSet(_ComplexRootSetFields):
    # no __slots__: the cached moduli live in the instance __dict__
    @cached_property
    def _moduli(self) -> list[tuple[Interval, int]]:
        """Each root's modulus enclosure and multiplicity, taken once for every fold."""
        return [(_modulus_interval(enc), enc.multiplicity) for enc in self.roots]

    def _product(self, factor) -> Interval:
        """|a_d| * prod factor(|alpha|) over the roots with multiplicity; finite or DomainError.

        The ends fold as floats by Interval.mul's operations and outward
        rounding, and one Interval is built at the end.
        """
        lo, hi = Interval.from_int(abs(self.poly.leading_coefficient))
        for modulus, multiplicity in self._moduli:
            f_lo, f_hi = factor(modulus)
            for _ in range(multiplicity):
                cands = (lo * f_lo, lo * f_hi, hi * f_lo, hi * f_hi)
                lo, hi = _down(min(cands)), _up(max(cands))
        if not math.isfinite(hi):
            raise DomainError("the root product overflows a float")
        return Interval(lo, hi)

    def mahler(self, variant: str = "plain") -> MahlerMeasure:
        """A Mahler variant folded over these roots; "conjugate" is "plain": M(reversal) = M(A)."""
        acc = self._product(_MAHLER_FACTORS[variant])
        return MahlerMeasure(value=acc.mid, error=acc.halfwidth)

    def refined_product(self) -> Interval:
        """|a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
        return self._product(_refined_factor)

    def reversal_refined_product(self) -> Interval:
        """|a_d| * prod max(1, |alpha| - 1), the refined product of x^d A(1/x), roots 1/alpha."""
        return self._product(lambda modulus: modulus.add(Interval.point(-1.0)).max_with(1.0))


def _exact_values(cs: tuple[int, ...], zs: Sequence[complex], newton: bool = True):
    """p at the float points zs exactly, and its Newton corrections rounded once.

    Returns (S, ws, ps, newtons): S is one power of two over every part of
    zs, ws[i] = S z_i and ps[i] = S^n p(z_i) are Gaussian integer pairs, and
    newtons[i] = p(z_i)/p'(z_i) = ps[i] / (S * S^(n-1) p'(z_i)), or None where
    it is infinite or overflows.  With newton False, newtons is None and
    neither p' nor the division is computed: the radii need only p.  A point
    on the real axis takes the same complex Horner pass with y = 0, where
    the imaginary parts stay 0.  A non-finite point, which only a diverging
    iteration makes, raises RootCertificationError.
    """
    try:
        ints, s = clear_floats([x for z in zs for x in (z.real, z.imag)])
    except DomainError:
        raise RootCertificationError("the root iteration left the float range") from None
    n, e = len(cs) - 1, s.bit_length() - 1
    scaled = [c << e * (n - k) for k, c in enumerate(cs[:-1])][::-1]
    ws, ps, newtons = list(zip(ints[::2], ints[1::2])), [], [] if newton else None
    for x, y in ws:
        pr, pi, dr, di = cs[-1], 0, 0, 0
        if newton:
            for c in scaled:
                dr, di = dr * x - di * y + pr, dr * y + di * x + pi
                pr, pi = pr * x - pi * y + c, pr * y + pi * x
        else:
            for c in scaled:
                pr, pi = pr * x - pi * y + c, pr * y + pi * x
        ps.append((pr, pi))
        if newton:
            den = (dr * dr + di * di) * s
            try:
                newtons.append(complex((pr * dr + pi * di) / den, (pi * dr - pr * di) / den))
            except (ZeroDivisionError, OverflowError):
                newtons.append(None)
    return s, ws, ps, newtons


def _aberth_step(zs: Sequence[complex], newtons) -> tuple[list[complex], float]:
    """One Aberth-Ehrlich sweep z_i - N_i / (1 - N_i sum_{j!=i} 1/(z_i - z_j)) in doubles.

    N_i = p(z_i)/p'(z_i); None stands for an infinite N_i, whose limit step
    is z_i + 1/sum.  A point whose step cannot be formed stays where it is.
    Each reciprocal q = 1/(z_i - z_j), i < j, is formed once and -q serves
    for (j, i): IEEE subtraction and Python's complex division round
    symmetrically under a change of sign, so -q equals 1/(z_j - z_i) but
    for the signs of zero and NaN parts: a sum started at 0 drops the
    first, and a NaN point fails the exact evaluation whatever its sign.
    Each sum runs over j in order, so it is the double the direct sum gives.
    Returns the new points and the largest move relative to |z_i|.
    """
    rows, stuck = [[] for _ in zs], set()
    for i, z in enumerate(zs):
        for j in range(i + 1, len(zs)):
            try:
                q = 1 / (z - zs[j])
            except ZeroDivisionError:
                stuck.update((i, j))
                q = 0j
            rows[i].append(q)
            rows[j].append(-q)
    out, worst = [], 0.0
    for i, (z, nw, row) in enumerate(zip(zs, newtons, rows)):
        try:
            if i in stuck:
                raise ZeroDivisionError
            s = sum(row)
            out.append(z + 1 / s if nw is None else z - nw / (1 - nw * s))
        except ZeroDivisionError:
            out.append(z)
        worst = max(worst, abs(out[-1] - z) / abs(z) if z else math.inf)
    return out, worst


def _aberth(cs: tuple[int, ...]) -> list[complex]:
    """Aberth-Ehrlich iteration on a square-free integer polynomial, in doubles.

    Starts from a circle enclosing every root and runs up to 40 + 12n sweeps
    with p evaluated in doubles (exactly where a double overflows) until no
    point moves by 1e-12 relative; p and p' come from one Horner loop over
    the pairs (a_k, k a_k), each accumulator in its own Horner pass's order,
    and the pass forms each Newton correction as it goes, leaving for the
    exact values at the first non-finite p or p'.  Then up to 8 sweeps with
    p evaluated exactly at the float points polish them until they settle
    to a few ulps.  Before each exact sweep and after the last, a centre
    with |Im z| <= eps^2 |Re z| is put on the real axis.  That leaves every
    real part as it was (see the module docstring) and takes a real root's
    exact values at its real part's scale, about 2^53, by the complex Horner
    pass with a zero imaginary part, not at the 2^150 to 2^300 of an
    imaginary part of 1e-46 to 1e-77.  The bound is relative to Re z:
    eps^2 max(1, |z|) would put both roots +-10^-32 i of 10^64 x^2 + 1 on 0,
    and eps^2 |z| a centre whose imaginary part overflowed.
    """
    n = len(cs) - 1
    fcs = [float(c) for c in cs]
    try:
        fdcs = [float(i * c) for i, c in enumerate(cs)][1:]
    except OverflowError:  # an i*c past the floats: no double p' is finite, so sweep exactly
        fdcs = [math.inf] * n
    pairs = list(zip(reversed(fcs[1:]), reversed(fdcs)))
    radius0 = 1.0 + max(abs(c) for c in fcs[:-1]) / abs(fcs[-1])
    zs = [cmath.rect(0.75 * radius0, 0.4 + 2 * math.pi * k / n) for k in range(n)]
    for _ in range(40 + 12 * n):
        newtons = []
        for z in zs:
            p = dp = z * 0
            for c, dc in pairs:
                p, dp = p * z + c, dp * z + dc
            p = p * z + fcs[0]
            if not (cmath.isfinite(p) and cmath.isfinite(dp)):
                newtons = _exact_values(cs, zs)[3]
                break
            newtons.append(p / dp if dp else None)
        zs, move = _aberth_step(zs, newtons)
        if move <= 1e-12:
            break
    eps, move = sys.float_info.epsilon, math.inf
    for sweep in range(9):
        zs = [complex(z.real, 0.0) if abs(z.imag) <= eps * eps * abs(z.real) else z for z in zs]
        if sweep == 8 or move <= 4 * eps:
            return zs
        zs, move = _aberth_step(zs, _exact_values(cs, zs)[3])


def _sqrt_up(num: int, den: int) -> float:
    """A float r, at most an ulp or two above the least, with r^2 >= num/den; inf for den = 0."""
    if not num:
        return 0.0
    shift = max(0, (den.bit_length() - num.bit_length()) // 2 + 60)
    try:
        r = (math.isqrt((num << 2 * shift) // den) + 1) / (1 << shift)
    except (ZeroDivisionError, OverflowError):
        return math.inf
    a, b = r.as_integer_ratio()
    while a * a * den < num * b * b:
        r = math.nextafter(r, math.inf)
        a, b = r.as_integer_ratio()
    return r


def _radii(cs: tuple[int, ...], s: int, ws, ps, at) -> list[float]:
    """Weierstrass radii at the points indexed by `at`, from their exact values.

    ws are the points scaled by the power of two s and ps = s^n p at them,
    Gaussian integer pairs; the radius at W_i is
    n |P_i| / |a_n s prod_{j!=i} (W_i - W_j)|, rounded up.  Scaling s, ws
    and ps by a further power of two leaves every radius bit-identical:
    both sides of the quotient gain the same power of four, which `_sqrt_up`
    ignores.  Coinciding points get radius inf.
    """
    n = len(cs) - 1
    out = []
    for i in at:
        (x, y), (pr, pi) = ws[i], ps[i]
        qr, qi = cs[-1] * s, 0
        for u, v in ws[:i] + ws[i + 1 :]:
            du, dv = x - u, y - v
            qr, qi = qr * du - qi * dv, qr * dv + qi * du
        out.append(_sqrt_up(n * n * (pr * pr + pi * pi), qr * qr + qi * qi))
    return out


def _certified_simple_roots(cs: tuple[int, ...]) -> list[tuple[complex, float]]:
    """Weierstrass disks, each within the target, at a square-free factor's Aberth centres.

    `_aberth` has already put every centre within eps^2 |Re z| of the real
    axis on it, and such a centre is real whatever its radius.  With as many
    centres below the axis as above, those are never read: the Braess-Hadeler
    cover holds at any distinct points, so the reals, the uppers and their
    mirrors serve.  A disk clear of the axis isolating one root isolates a
    non-real one, its mirror the conjugate, so no pair that the snap would
    put on the axis certifies here.  Otherwise, or when an upper disk meets
    the axis, `_snapped_centres` gives the final centres.  `_mirrored_disks`
    takes the radii; `roots` checks that the disks are disjoint.
    """
    n = len(cs) - 1
    zs = _aberth(cs)
    reals = [complex(z.real, 0.0) for z in zs if not z.imag]
    ups = [z for z in zs if z.imag > 0]
    if len(reals) + 2 * len(ups) == n:
        disks = _mirrored_disks(cs, reals, ups)
        if all(z.imag > r for z, r in disks[len(reals) : n - len(ups)]):
            return _checked_disks(n, disks)
    return _checked_disks(n, _mirrored_disks(cs, *_snapped_centres(cs, zs)))


def _snapped_centres(cs: tuple[int, ...], zs: list[complex]) -> tuple[list[complex], list[complex]]:
    """The real and upper centres left when every disk at zs that meets the axis is snapped onto it.

    p is evaluated exactly once at every centre, and radii are taken off
    the axis.  A centre whose disk meets the axis keeps its real part; the
    rest of those below it are dropped, to be replaced by the mirrors of
    those above.
    """
    s, ws, ps, _ = _exact_values(cs, zs, newton=False)
    off_axis = [i for i, z in enumerate(zs) if z.imag]
    radii = dict(zip(off_axis, _radii(cs, s, ws, ps, off_axis)))
    reals = [complex(z.real, 0.0) for i, z in enumerate(zs) if abs(z.imag) <= radii.get(i, 0.0)]
    return reals, [z for i, z in enumerate(zs) if z.imag > radii.get(i, 0.0)]


def _mirrored_disks(
    cs: tuple[int, ...], reals: list[complex], ups: list[complex]
) -> list[tuple[complex, float]]:
    """The disks at reals, ups and the mirrors of ups, in that order.

    p is evaluated exactly only at reals and ups: a mirror's value is its
    upper centre's conjugate value, and conjugation permutes the points, so
    a mirror's radius is its upper centre's.  The radii at ups are taken
    first, then those at reals.
    """
    k = len(reals)
    s, ws, ps, _ = _exact_values(cs, reals + ups, newton=False)
    ws += [(x, -y) for x, y in ws[k:]]
    radii = _radii(cs, s, ws, ps, range(k, len(ps)))
    radii = _radii(cs, s, ws, ps, range(k)) + radii * 2
    return list(zip(reals + ups + [z.conjugate() for z in ups], radii))


def _checked_disks(n: int, disks: list[tuple[complex, float]]) -> list[tuple[complex, float]]:
    """The n disks (z, r) of a degree-n factor, or RootCertificationError if one is missing or too wide."""
    if len(disks) != n or any(r > _TARGET_RADIUS * max(1.0, abs(z)) for z, r in disks):
        raise RootCertificationError(f"could not certify the roots of a degree-{n} factor")
    return disks


def roots(poly: IntPolynomial) -> ComplexRootSet:
    """All complex roots with exact multiplicities and certified radii.

    Each radius is at most 1e-12 * max(1, |z|), and the closed disks are
    pairwise disjoint (decided exactly), so each contains exactly one
    distinct root.  A coefficient beyond the largest float raises
    DomainError.
    """
    if poly.degree == 0:
        return ComplexRootSet(poly, ())
    if max(map(abs, poly.coeffs)) > sys.float_info.max:
        raise DomainError("certified roots need coefficients within the float range")

    zero_mult = next(i for i, c in enumerate(poly.coeffs) if c != 0)
    enclosures = [RootEnclosure(0j, 0.0, zero_mult)] if zero_mult else []
    for fac, mult in squarefree_factors(IntPolynomial(poly.coeffs[zero_mult:])):
        enclosures += [RootEnclosure(z, r, mult) for z, r in _certified_simple_roots(fac)]
    if not _disks_disjoint([(e.value, e.radius) for e in enclosures]):
        raise RootCertificationError("root enclosures overlap")
    enclosures.sort(key=lambda e: (e.value.real, e.value.imag))
    return ComplexRootSet(poly, tuple(enclosures))


def _disks_disjoint(disks: Sequence[tuple[complex, float]]) -> bool:
    """Whether the closed finite disks are pairwise disjoint, exactly on the binary values.

    Each pair (z, r), (w, t) is screened in doubles first.  With u = 2^-53,
    each operation errs by at most u relative plus, for a product below the
    normal range, tau = 2^-1075; a sum or difference there is exact.  So
    g = fl(dx^2 + dy^2) <= (1 + u)^4 D + 3 tau for D = |z - w|^2, and
    h = fl((r + t)^2) >= (1 - u)^3 R - tau for R = (r + t)^2.  A finite g
    at least 2^-1000, so 3 tau < 2^-73 g, and above fl(K h), K = 1 + 2^-32,
    gives R < (g + 3 tau) / (K (1 - u)^4) and D >= (g - 3 tau) / (1 + u)^4,
    and D > R since K > 1 + 2^-49 > (1 + u)^4 (1 + 2^-73) / ((1 - u)^4
    (1 - 2^-73)).  Every other pair is near, overflows or underflows, and is
    decided on its own exact Gaussian integers.

    `clear_floats` cannot raise here: each centre from `roots` is 0 or one
    that `_exact_values` already cleared (the real and upper centres in
    `_mirrored_disks`, every centre in `_snapped_centres`; a mirror is a
    conjugate), and `_checked_disks` bounded every radius.
    """
    for i, (z, r) in enumerate(disks):
        for w, t in disks[i + 1 :]:
            dx, dy, rt = z.real - w.real, z.imag - w.imag, r + t
            g = dx * dx + dy * dy
            if 2.0**-1000 <= g < math.inf and g > (1 + 2.0**-32) * (rt * rt):
                continue
            (x, y, a, u, v, b), _ = clear_floats([z.real, z.imag, r, w.real, w.imag, t])
            if (x - u) ** 2 + (y - v) ** 2 <= (a + b) ** 2:
                return False
    return True


# ----- Mahler measure -----


class MahlerMeasure(NamedTuple):
    value: float
    error: float

    @property
    def interval(self) -> Interval:
        return Interval.from_center(self.value, self.error)


def _modulus_interval(enc: RootEnclosure) -> Interval:
    h = math.hypot(enc.value.real, enc.value.imag)
    return Interval.from_center(h, enc.radius + 4 * math.ulp(h)).max_with(0.0)


def _refined_factor(modulus: Interval) -> Interval:
    complement = Interval.point(1.0).add(modulus.scale(-1.0))
    return Interval(max(modulus.lo, complement.lo), max(modulus.hi, complement.hi))


# per-root factor of each variant, applied to the modulus enclosure
_MAHLER_FACTORS = {
    "plain": lambda modulus: modulus.max_with(1.0),
    "half_scaled": lambda modulus: modulus.max_with(0.5),
    "double_scaled": lambda modulus: modulus.scale(0.5).max_with(1.0),
    "conjugate": lambda modulus: modulus.max_with(1.0),
}


def mahler_measure(poly: IntPolynomial, variant: str = "plain") -> MahlerMeasure:
    """Certified enclosure of a Mahler measure variant.

    plain:          |a_d| * prod max(1, |alpha|)
    half_scaled:    |a_d| * prod max(1/2, |alpha|), the measure of A(x/2)
    double_scaled:  |a_d| * prod max(1, |alpha|/2), equal to 2^-d M(A(2x))
    conjugate:      M(x^d A(1/x)) = M(A), folded over A's roots; needs a_0 != 0
    """
    if variant not in MAHLER_VARIANTS:
        raise DomainError(f"unknown Mahler variant {variant!r}")
    if poly.degree < 1:
        raise DomainError("Mahler measure variants need degree >= 1")
    if variant == "conjugate" and poly.constant_coefficient == 0:
        raise DomainError("conjugate needs a nonzero constant coefficient")
    return roots(poly).mahler(variant)


def refined_product_interval(poly: IntPolynomial) -> Interval:
    """Enclosure of |a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
    if poly.degree < 1:
        raise DomainError("needs degree >= 1")
    return roots(poly).refined_product()
