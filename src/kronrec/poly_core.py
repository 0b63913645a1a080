"""Integer polynomials, certified complex roots, and Mahler measure variants.

Roots are computed factor by factor after an exact square-free decomposition
(Yun's algorithm over the rationals), so multiplicities are exact integers and
only simple roots are ever iterated on.  Rational roots are split off exactly;
the rest go through Aberth-Ehrlich simultaneous iteration in mpmath working
precision.  Each returned root carries an a posteriori radius from the
Weierstrass bound: for pairwise distinct test points z_1..z_n the disks
D(z_i, n*|p(z_i)/(lc * prod_{j!=i}(z_i-z_j))|) jointly cover the zero set, so
pairwise disjoint disks isolate exactly one zero each.  Precision escalates
until the requested radius is certified or the escalation cap is hit.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .errors import DomainError, ParseError, RootCertificationError
from .intervals import Interval

__all__ = [
    "IntPolynomial",
    "RootEnclosure",
    "ComplexRootSet",
    "MahlerMeasure",
    "MAHLER_VARIANTS",
    "DEFAULT_TARGET_RADIUS",
    "parse_polynomial",
    "conjugate",
    "roots",
    "mahler_measure",
    "squarefree_factors",
    "working_dps",
]

DEFAULT_TARGET_RADIUS = 1e-12
# below this the float64 values returned to callers cannot carry the claim
MIN_TARGET_RADIUS = 5e-15
MAHLER_VARIANTS = ("plain", "half_scaled", "double_scaled", "conjugate")

_MAX_DPS = 1600
_DIVISOR_SEARCH_LIMIT = 10**7


def working_dps(floor: int = 30) -> int:
    """Starting mpmath precision in digits; KRONREC_PRECISION raises the floor."""
    raw = os.environ.get("KRONREC_PRECISION")
    if raw is not None and raw.strip():
        try:
            floor = max(floor, int(raw))
        except ValueError as exc:
            raise DomainError(f"KRONREC_PRECISION must be an integer, got {raw!r}") from exc
    return floor


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

    @property
    def constant_term_nonzero(self) -> bool:
        return self.coeffs[0] != 0

    def evaluate(self, x):
        """Horner evaluation; works for int, Fraction, complex, and mpmath types."""
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        if not parts:
            return "0"
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
    lcm = 1
    for c in cs:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in cs]
    g = math.gcd(*(abs(v) for v in ints))
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return tuple(ints)


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
    d = _fstrip([ci - bi for ci, bi in _zip_pad(c, _fderiv(b))])
    out = []
    i = 1
    while _fdeg(b) > 0:
        a = _fgcd(b, d)
        if _fdeg(a) > 0:
            out.append((_primitive_int(a), i))
        b, _ = _fdivmod(b, a)
        cnext, _ = _fdivmod(d, a)
        d = _fstrip([ci - bi for ci, bi in _zip_pad(cnext, _fderiv(b))])
        i += 1
    return tuple(out)


def _zip_pad(a: Sequence[Fraction], b: Sequence[Fraction]):
    n = max(len(a), len(b))
    za = list(a) + [Fraction(0)] * (n - len(a))
    zb = list(b) + [Fraction(0)] * (n - len(b))
    return zip(za, zb)


# ----- rational root extraction -----


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _rational_split(cs: tuple[int, ...]):
    """Split exact rational roots off a square-free integer polynomial.

    Returns (rational_roots, leftover_coeffs); leftover has no rational roots
    unless the divisor search limit was exceeded, in which case nothing is
    split (the numeric path handles everything).
    """
    work = [Fraction(c) for c in cs]
    found: list[Fraction] = []
    if work[0] == 0:
        # square-free, so x divides exactly once
        found.append(Fraction(0))
        work = work[1:]
    if _fdeg(work) >= 1 and abs(work[0]) <= _DIVISOR_SEARCH_LIMIT and abs(work[-1]) <= _DIVISOR_SEARCH_LIMIT:
        num_divs = _divisors(int(work[0]))
        den_divs = _divisors(int(work[-1]))
        candidates = sorted({Fraction(s * p, q) for p in num_divs for q in den_divs for s in (1, -1)})
        for cand in candidates:
            if _fdeg(work) < 1:
                break
            if _feval(work, cand) == 0:
                work, _ = _fdivmod(work, [-cand, Fraction(1)])
                found.append(cand)
    if _fdeg(work) >= 1:
        return found, _primitive_int(work)
    return found, None


def _feval(cs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


# ----- certified numeric roots -----


@dataclass(frozen=True)
class RootEnclosure:
    value: complex
    radius: float
    multiplicity: int

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


@dataclass(frozen=True)
class ComplexRootSet:
    poly: IntPolynomial
    roots: tuple[RootEnclosure, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(r.multiplicity for r in self.roots)


def _conversion_slack(z: complex) -> float:
    return 2.0 * (math.ulp(abs(z.real)) + math.ulp(abs(z.imag))) + 1e-300


def _aberth_attempt(cs: tuple[int, ...], target: float, dps: int):
    """One Aberth pass at fixed precision; returns [(complex, radius)] or None."""
    n = len(cs) - 1
    with mp.workdps(dps):
        coeffs = [mp.mpf(c) for c in cs]
        dcoeffs = [mp.mpf(i * cs[i]) for i in range(1, n + 1)]
        lead = coeffs[-1]

        def pval(z):
            acc = mp.mpc(0)
            for c in reversed(coeffs):
                acc = acc * z + c
            return acc

        def pdval(z):
            acc = mp.mpc(0)
            for c in reversed(dcoeffs):
                acc = acc * z + c
            return acc

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
                pz = pval(z)
                pdz = pdval(z)
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
                rads.append(n * abs(pval(z) / prod))
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
            if best is None or best_dist > rads[i] + rads[best]:
                return None
            used.add(best)
            zs[best] = mirror
            rads[best] = rads[i]

        out = []
        for z, r in zip(zs, rads):
            zc = complex(float(z.real), float(z.imag))
            rf = float(r) * (1 + 1e-9) + _conversion_slack(zc)
            out.append((zc, rf))

    for _, r in out:
        if not (r <= target):
            return None
    for i in range(n):
        for j in range(i + 1, n):
            zi, ri = out[i]
            zj, rj = out[j]
            if math.hypot(zi.real - zj.real, zi.imag - zj.imag) <= ri + rj:
                return None
    return out


def _certified_simple_roots(cs: tuple[int, ...], target: float) -> list[tuple[complex, float]]:
    dps = working_dps()
    while dps <= _MAX_DPS:
        got = _aberth_attempt(cs, target, dps)
        if got is not None:
            return got
        dps *= 2
    raise RootCertificationError(
        f"could not certify roots of degree-{len(cs) - 1} factor to radius {target:g}"
    )


def roots(poly: IntPolynomial, target_radius: float = DEFAULT_TARGET_RADIUS) -> ComplexRootSet:
    """All complex roots with exact multiplicities and certified radii.

    Radii are at most target_radius and the closed disks are pairwise
    disjoint, so each contains exactly one distinct root of the polynomial.
    """
    if target_radius < MIN_TARGET_RADIUS:
        raise DomainError(f"target_radius below the certifiable floor {MIN_TARGET_RADIUS:g}")
    if poly.degree == 0:
        return ComplexRootSet(poly, ())

    zero_mult = 0
    cs = list(poly.coeffs)
    while cs[0] == 0:
        zero_mult += 1
        cs.pop(0)
    body = IntPolynomial(tuple(cs))

    target = target_radius
    for _ in range(4):
        enclosures: list[RootEnclosure] = []
        if zero_mult:
            enclosures.append(RootEnclosure(0j, 0.0, zero_mult))
        for fac, mult in squarefree_factors(body):
            rationals, leftover = _rational_split(fac)
            for q in rationals:
                v = complex(float(q), 0.0)
                enclosures.append(RootEnclosure(v, _conversion_slack(v), mult))
            if leftover is not None:
                for z, r in _certified_simple_roots(leftover, target):
                    enclosures.append(RootEnclosure(z, r, mult))
        if _pairwise_disjoint(enclosures):
            enclosures.sort(key=lambda e: (e.value.real, e.value.imag))
            return ComplexRootSet(poly, tuple(enclosures))
        target /= 100.0
        if target < 1e-60:
            break
    raise RootCertificationError("root enclosures from coprime factors kept overlapping")


def _pairwise_disjoint(encl: list[RootEnclosure]) -> bool:
    for i in range(len(encl)):
        for j in range(i + 1, len(encl)):
            a, b = encl[i], encl[j]
            gap = math.hypot(a.value.real - b.value.real, a.value.imag - b.value.imag)
            if gap <= a.radius + b.radius:
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
    return Interval.from_center(h, enc.radius + 4 * math.ulp(h)).clamp_nonnegative()


def mahler_measure(
    poly: IntPolynomial,
    variant: str = "plain",
    target_radius: float = DEFAULT_TARGET_RADIUS,
) -> MahlerMeasure:
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
    rs = roots(base, target_radius)
    acc = Interval.from_int(abs(base.leading_coefficient))
    for enc in rs.roots:
        modulus = _modulus_interval(enc)
        if variant in ("plain", "conjugate"):
            factor = modulus.max_with(1.0)
        elif variant == "half_scaled":
            factor = modulus.max_with(0.5)
        else:  # double_scaled
            factor = modulus.scale(0.5).max_with(1.0)
        for _ in range(enc.multiplicity):
            acc = acc.mul(factor)
    return MahlerMeasure(value=acc.mid, error=acc.halfwidth, variant=variant)


def refined_product_interval(poly: IntPolynomial, target_radius: float = DEFAULT_TARGET_RADIUS) -> Interval:
    """Enclosure of |a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
    if poly.degree < 1:
        raise DomainError("needs degree >= 1")
    rs = roots(poly, target_radius)
    acc = Interval.from_int(abs(poly.leading_coefficient))
    one = Interval.point(1.0)
    for enc in rs.roots:
        modulus = _modulus_interval(enc)
        complement = one.add(modulus.scale(-1.0))
        factor = Interval(max(modulus.lo, complement.lo), max(modulus.hi, complement.hi))
        for _ in range(enc.multiplicity):
            acc = acc.mul(factor)
    return acc
