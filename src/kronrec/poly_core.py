"""Integer polynomials, certified complex roots, and Mahler measure variants.

This module is kronrec's only root finder.  One exact decomposition splits a
polynomial into its zero multiplicity, its rational roots with exact
multiplicities (Yun's square-free decomposition over the rationals, then the
rational root test), and square-free leftover factors without rational
roots, so only simple roots are ever iterated on.  One Aberth-Ehrlich
iteration finds the leftovers' roots in mpmath working precision and encloses
each in a Weierstrass disk: for pairwise distinct test points z_1..z_n the
disks D(z_i, n*|p(z_i)/(lc * prod_{j!=i}(z_i-z_j))|) jointly cover the zero
set, so pairwise disjoint disks isolate exactly one zero each.

`roots` is the one caller of both.  It converts the disks to floats and
doubles the precision until a level certifies: every disk within the
requested radius and the disks pairwise disjoint.  The first such level is
the answer.  Every Mahler variant and the refined product are folds over
that one root set.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

import mpmath as mp

from .errors import DomainError, ParseError, RootCertificationError
from .exact_linalg import clear_denominators
from .intervals import Interval

__all__ = [
    "IntPolynomial",
    "RootEnclosure",
    "ComplexRootSet",
    "MahlerMeasure",
    "MAHLER_VARIANTS",
    "parse_polynomial",
    "conjugate",
    "roots",
    "mahler_measure",
    "squarefree_factors",
]

# radius each certified root disk is first asked to reach
_TARGET_RADIUS = 1e-12
MAHLER_VARIANTS = ("plain", "half_scaled", "double_scaled", "conjugate")

# mpmath working precision in digits: the first level tried, and the ceiling
_START_DPS = 30
_MAX_DPS = 1600
_DIVISOR_SEARCH_LIMIT = 10**7


def _horner(coeffs: Sequence, x):
    """sum coeffs[i] x^i for ascending coeffs; works for int, Fraction, complex and mpmath types."""
    acc = x * 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass(frozen=True)
class IntPolynomial:
    """A nonzero integer polynomial, coefficients ascending: a_0, a_1, ..., a_d."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise DomainError("a polynomial needs at least one coefficient")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise DomainError(f"coefficients must be int, got {type(c).__name__}")
        if self.coeffs[-1] == 0:
            raise DomainError("leading coefficient must be nonzero (strip trailing zeros)")

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

    def evaluate(self, x):
        return _horner(self.coeffs, x)

    def coefficient_sum_abs(self) -> int:
        return sum(abs(c) for c in self.coeffs)

    def __str__(self) -> str:
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse an ascending comma-separated coefficient list, e.g. "3,-2,-9,-3,9"."""
    if text is None or not text.strip():
        raise ParseError("empty polynomial")
    tokens = [t.strip() for t in text.split(",")]
    values = []
    for tok in tokens:
        if not tok:
            raise ParseError("empty coefficient token")
        try:
            values.append(int(tok, 10))
        except ValueError as exc:
            raise ParseError(f"non-integer coefficient {tok!r}") from exc
    while len(values) > 1 and values[-1] == 0:
        values.pop()
    if values == [0]:
        raise ParseError("the zero polynomial is not allowed")
    return IntPolynomial(tuple(values))


def conjugate(poly: IntPolynomial) -> IntPolynomial:
    """Coefficient reversal x^d * A(1/x); needs a nonzero constant term."""
    if poly.constant_coefficient == 0:
        raise DomainError("conjugate needs a nonzero constant coefficient")
    return IntPolynomial(tuple(reversed(poly.coeffs)))


# ----- exact polynomial helpers over Fraction -----


def _fstrip(cs: list[Fraction]) -> list[Fraction]:
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    return cs


def _fdeg(cs: Sequence[Fraction]) -> int:
    return len(cs) - 1


def _fderiv(cs: Sequence[Fraction]) -> list[Fraction]:
    if len(cs) == 1:
        return [Fraction(0)]
    return _fstrip([Fraction(i) * cs[i] for i in range(1, len(cs))])


def _fdivmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    den = list(den)
    if den == [Fraction(0)]:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(num)
    q = [Fraction(0)] * max(1, len(rem) - len(den) + 1)
    while _fdeg(rem) >= _fdeg(den) and _fstrip(rem) != [Fraction(0)]:
        shift = _fdeg(rem) - _fdeg(den)
        coef = rem[-1] / den[-1]
        q[shift] += coef
        for i, dc in enumerate(den):
            rem[shift + i] -= coef * dc
        rem = _fstrip(rem)
        if rem == [Fraction(0)]:
            break
    return _fstrip(q), rem


def _fgcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd by the Euclidean algorithm."""
    a = _fstrip(list(a))
    b = _fstrip(list(b))
    while b != [Fraction(0)]:
        _, r = _fdivmod(a, b)
        a, b = b, r
    if a == [Fraction(0)]:
        return a
    lead = a[-1]
    return [c / lead for c in a]


def _primitive_int(cs: Sequence[Fraction]) -> tuple[int, ...]:
    """Clear denominators and content; normalize the leading coefficient positive."""
    ints, _ = clear_denominators(cs)
    g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
    return tuple(v // g for v in ints)


def squarefree_factors(poly: IntPolynomial) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Yun decomposition: primitive square-free factors with exact multiplicities.

    Returns ((coeffs, multiplicity), ...) with the factors pairwise coprime and
    A equal to a nonzero constant times the product of factor^multiplicity.
    """
    if poly.degree == 0:
        return ()
    f = _fstrip([Fraction(c) for c in poly.coeffs])
    fp = _fderiv(f)
    g = _fgcd(f, fp)
    if _fdeg(g) == 0:
        return ((_primitive_int(f), 1),)
    b, _ = _fdivmod(f, g)
    c, _ = _fdivmod(fp, g)
    d = _fstrip([ci - bi for ci, bi in zip_longest(c, _fderiv(b), fillvalue=Fraction(0))])
    out = []
    i = 1
    while _fdeg(b) > 0:
        a = _fgcd(b, d)
        if _fdeg(a) > 0:
            out.append((_primitive_int(a), i))
        b, _ = _fdivmod(b, a)
        cnext, _ = _fdivmod(d, a)
        d = _fstrip([ci - bi for ci, bi in zip_longest(cnext, _fderiv(b), fillvalue=Fraction(0))])
        i += 1
    return tuple(out)


# ----- exact root structure -----


def _divisors(n: int) -> list[int]:
    """Positive divisors of n != 0, in no particular order."""
    n = abs(n)
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in small]


def _decompose(poly: IntPolynomial):
    """Exact root structure of a nonzero integer polynomial of degree >= 1.

    Returns (zero_multiplicity, rationals, leftovers): the nonzero rational
    roots as [(root, multiplicity)] and the square-free primitive factors that
    carry the remaining roots as [(coeffs, multiplicity)].  A leftover has no
    rational root unless its end coefficients exceed the divisor search
    limit, in which case nothing is split from it.
    """
    zero_mult = next(i for i, c in enumerate(poly.coeffs) if c != 0)
    rationals: list[tuple[Fraction, int]] = []
    leftovers: list[tuple[tuple[int, ...], int]] = []
    for fac, mult in squarefree_factors(IntPolynomial(poly.coeffs[zero_mult:])):
        work = [Fraction(c) for c in fac]
        if abs(work[0]) <= _DIVISOR_SEARCH_LIMIT and abs(work[-1]) <= _DIVISOR_SEARCH_LIMIT:
            num_divs = _divisors(int(work[0]))
            den_divs = _divisors(int(work[-1]))
            candidates = sorted({Fraction(s * p, q) for p in num_divs for q in den_divs for s in (1, -1)})
            for cand in candidates:
                if _fdeg(work) < 1:
                    break
                if _horner(work, cand) == 0:
                    work, _ = _fdivmod(work, [-cand, Fraction(1)])
                    rationals.append((cand, mult))
        if _fdeg(work) >= 1:
            leftovers.append((_primitive_int(work), mult))
    return zero_mult, rationals, leftovers


# ----- certified numeric roots -----


@dataclass(frozen=True)
class RootEnclosure:
    value: complex
    radius: float
    multiplicity: int


@dataclass(frozen=True)
class ComplexRootSet:
    poly: IntPolynomial
    roots: tuple[RootEnclosure, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def _product(self, factor) -> Interval:
        """|a_d| * prod factor(|alpha|) over the roots with multiplicity; finite or DomainError."""
        acc = Interval.from_int(abs(self.poly.leading_coefficient))
        for enc in self.roots:
            f = factor(_modulus_interval(enc))
            for _ in range(enc.multiplicity):
                acc = acc.mul(f)
        if not math.isfinite(acc.hi):
            raise DomainError("the root product overflows a float")
        return acc

    def mahler(self, variant: str = "plain") -> MahlerMeasure:
        """A Mahler variant folded over these roots.

        "conjugate" uses the plain factor: call it on the reversal's root set.
        """
        acc = self._product(_MAHLER_FACTORS[variant])
        return MahlerMeasure(value=acc.mid, error=acc.halfwidth, variant=variant)

    def refined_product(self) -> Interval:
        """|a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
        return self._product(_refined_factor)


def _conversion_slack(z: complex) -> float:
    return 2.0 * (math.ulp(abs(z.real)) + math.ulp(abs(z.imag))) + 1e-300


def _aberth(cs: tuple[int, ...], dps: int):
    """Aberth-Ehrlich iteration on a square-free integer polynomial at dps digits.

    Starts from a circle enclosing every root.  Returns (centres, radii) as
    mpmath numbers, with Weierstrass radii, points whose disk touches the
    real axis snapped onto it, and complex centres paired into exact
    conjugates; None when the radii cannot be formed or the pairing fails.
    Radii can fall below the rounding noise of converged centres (even to 0
    where p rounds to 0), so a mirror matches its partner within the sum of
    their radii plus the iteration's own tolerance.
    """
    n = len(cs) - 1
    with mp.workdps(dps):
        coeffs = [mp.mpf(c) for c in cs]
        dcoeffs = [mp.mpf(i * cs[i]) for i in range(1, n + 1)]
        lead = coeffs[-1]
        radius0 = 1.0 + max(abs(c) for c in cs[:-1]) / abs(cs[-1])
        zs = [
            mp.mpc(mp.cos(0.4 + 2 * mp.pi * k / n), mp.sin(0.4 + 2 * mp.pi * k / n)) * radius0 * 0.75
            for k in range(n)
        ]
        tol = mp.mpf(10) ** (-(dps - 6))
        for _ in range(40 + 12 * n):
            worst = mp.mpf(0)
            new = list(zs)
            for i, z in enumerate(zs):
                pz = _horner(coeffs, z)
                pdz = _horner(dcoeffs, z)
                if pdz == 0:
                    new[i] = z + tol * (1 + abs(z))
                    worst = mp.mpf(1)
                    continue
                newton = pz / pdz
                s = mp.mpc(0)
                for j, other in enumerate(zs):
                    if j != i:
                        diff = z - other
                        if diff == 0:
                            diff = tol * (1 + abs(z))
                        s += 1 / diff
                denom = 1 - newton * s
                step = newton if denom == 0 else newton / denom
                new[i] = z - step
                worst = max(worst, abs(step) / (1 + abs(z)))
            zs = new
            if worst < tol:
                break

        def weierstrass_radii(points):
            rads = []
            for i, z in enumerate(points):
                prod = lead
                for j, other in enumerate(points):
                    if j != i:
                        prod *= z - other
                if prod == 0:
                    return None
                rads.append(n * abs(_horner(coeffs, z) / prod))
            return rads

        rads = weierstrass_radii(zs)
        if rads is None:
            return None
        # snap points whose enclosure touches the real axis, then recertify
        snapped = []
        for z, r in zip(zs, rads):
            snapped.append(mp.mpc(z.real, 0) if abs(z.imag) <= r else z)
        for i in range(n):
            for j in range(i + 1, n):
                if snapped[i] == snapped[j]:
                    return None
        zs = snapped
        rads = weierstrass_radii(zs)
        if rads is None:
            return None

        # enforce exact conjugate symmetry: copy each upper root onto a lower partner
        order = sorted(range(n), key=lambda i: (zs[i].real, zs[i].imag))
        uppers = [i for i in order if zs[i].imag > 0]
        lowers = [i for i in order if zs[i].imag < 0]
        if len(uppers) != len(lowers):
            return None
        used = set()
        for i in uppers:
            mirror = mp.conj(zs[i])
            best, best_dist = None, None
            for j in lowers:
                if j in used:
                    continue
                dist = abs(zs[j] - mirror)
                if best is None or dist < best_dist:
                    best, best_dist = j, dist
            if best is None or best_dist > rads[i] + rads[best] + tol * (1 + abs(zs[i])):
                return None
            used.add(best)
            zs[best] = mirror
            rads[best] = rads[i]
    return zs, rads


def _certified_simple_roots(cs: tuple[int, ...], target: float) -> list[tuple[complex, float]]:
    """Float disks of at most target radius, pairwise disjoint, one per root.

    Precision doubles from _START_DPS; the first level whose float disks
    all have radius at most target and are pairwise disjoint is returned.
    """
    dps = _START_DPS
    while dps <= _MAX_DPS:
        got = _aberth(cs, dps)
        if got is not None:
            out = []
            for z, r in zip(*got):
                zc = complex(float(z.real), float(z.imag))
                out.append((zc, float(r) * (1 + 1e-9) + _conversion_slack(zc)))
            if all(r <= target for _, r in out) and _disks_disjoint(out):
                return out
        dps *= 2
    raise RootCertificationError(
        f"could not certify roots of degree-{len(cs) - 1} factor to radius {target:g}"
    )


def roots(poly: IntPolynomial) -> ComplexRootSet:
    """All complex roots with exact multiplicities and certified radii.

    Radii are at most 1e-12, and a hundredfold smaller on each retry while
    disks of coprime factors overlap; the closed disks are pairwise
    disjoint, so each contains exactly one distinct root of the polynomial.
    A coefficient beyond the largest float raises DomainError.
    """
    if poly.degree == 0:
        return ComplexRootSet(poly, ())
    if max(map(abs, poly.coeffs)) > sys.float_info.max:
        raise DomainError("certified roots need coefficients within the float range")

    zero_mult, rationals, leftovers = _decompose(poly)
    exact: list[RootEnclosure] = []
    if zero_mult:
        exact.append(RootEnclosure(0j, 0.0, zero_mult))
    for q, mult in rationals:
        v = complex(float(q), 0.0)
        exact.append(RootEnclosure(v, _conversion_slack(v), mult))
    target = _TARGET_RADIUS
    for _ in range(4):
        enclosures = list(exact)
        for fac, mult in leftovers:
            for z, r in _certified_simple_roots(fac, target):
                enclosures.append(RootEnclosure(z, r, mult))
        if _disks_disjoint([(e.value, e.radius) for e in enclosures]):
            enclosures.sort(key=lambda e: (e.value.real, e.value.imag))
            return ComplexRootSet(poly, tuple(enclosures))
        target /= 100.0
    raise RootCertificationError("root enclosures from coprime factors kept overlapping")


def _disks_disjoint(disks: Sequence[tuple[complex, float]]) -> bool:
    for i in range(len(disks)):
        for j in range(i + 1, len(disks)):
            (zi, ri), (zj, rj) = disks[i], disks[j]
            if math.hypot(zi.real - zj.real, zi.imag - zj.imag) <= ri + rj:
                return False
    return True


# ----- Mahler measure -----


@dataclass(frozen=True)
class MahlerMeasure:
    value: float
    error: float
    variant: str

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
    conjugate:      plain measure of the reversed polynomial
    """
    if variant not in MAHLER_VARIANTS:
        raise DomainError(f"unknown Mahler variant {variant!r}")
    if poly.degree < 1:
        raise DomainError("Mahler measure variants need degree >= 1")
    base = conjugate(poly) if variant == "conjugate" else poly
    return roots(base).mahler(variant)


def refined_product_interval(poly: IntPolynomial) -> Interval:
    """Enclosure of |a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
    if poly.degree < 1:
        raise DomainError("needs degree >= 1")
    return roots(poly).refined_product()
