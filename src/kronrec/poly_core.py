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
each (Braess & Hadeler, Numer. Math. 21, 1973).  The centres are dyadic, so
over one power of two every quantity in a radius is a Gaussian integer:
the radii are exact values rounded up, and a root that is itself a float
gets radius 0.  p is evaluated exactly once at the centres, and the centres
snapped onto the real axis or mirrored into conjugates reuse those values;
a centre already on the axis is real whatever its radius, so radii at the
Aberth centres are taken only off it.
Disjointness is decided exactly.  No working precision is involved.

`roots` accepts the disks when each radius is at most 1e-12 * max(1, |z|)
and all disks are pairwise disjoint.  Every Mahler variant and the refined
products of A and of its reversal x^d A(1/x) are folds over that one root set.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from itertools import zip_longest
from typing import Sequence

from .errors import DomainError, ParseError, RootCertificationError
from .exact_linalg import clear_floats
from .intervals import Interval

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


def _horner(coeffs: Sequence, x):
    """sum coeffs[i] x^i for ascending coeffs; works for int, Fraction, float and complex."""
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


@dataclass(frozen=True)
class RootEnclosure:
    value: complex
    radius: float
    multiplicity: int


@dataclass(frozen=True)
class ComplexRootSet:
    poly: IntPolynomial
    roots: tuple[RootEnclosure, ...]

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
        """A Mahler variant folded over these roots; "conjugate" is "plain": M(reversal) = M(A)."""
        acc = self._product(_MAHLER_FACTORS[variant])
        return MahlerMeasure(value=acc.mid, error=acc.halfwidth)

    def refined_product(self) -> Interval:
        """|a_d| * prod max(|alpha|, 1 - |alpha|) over the roots."""
        return self._product(_refined_factor)

    def reversal_refined_product(self) -> Interval:
        """|a_d| * prod max(1, |alpha| - 1), the refined product of x^d A(1/x), roots 1/alpha."""
        return self._product(lambda modulus: modulus.add(Interval.point(-1.0)).max_with(1.0))


def _dyadic(values: Sequence[float]) -> tuple[list[int], int]:
    """(ints, S): S the largest power-of-two denominator of the values, ints = S * values exactly.

    One clearing route with the density checks (`clear_floats`); a
    non-finite value raises RootCertificationError.
    """
    try:
        return clear_floats(values)
    except DomainError:
        raise RootCertificationError("the root iteration left the float range") from None


def _exact_values(cs: tuple[int, ...], zs: Sequence[complex], newton: bool = True):
    """p at the float points zs exactly, and its Newton corrections rounded once.

    Returns (S, ws, ps, newtons): S is one power of two over every part of
    zs, ws[i] = S z_i and ps[i] = S^n p(z_i) are Gaussian integer pairs, and
    newtons[i] = p(z_i)/p'(z_i) = ps[i] / (S * S^(n-1) p'(z_i)), or None where
    it is infinite or overflows.  With newton False, newtons is None and
    neither p' nor the division is computed: the radii need only p.
    """
    ints, s = _dyadic([x for z in zs for x in (z.real, z.imag)])
    n = len(cs) - 1
    scaled = [c * s ** (n - k) for k, c in enumerate(cs[:-1])]
    ws, ps = list(zip(ints[::2], ints[1::2])), []
    if not newton:
        for x, y in ws:
            pr, pi = cs[-1], 0
            for c in reversed(scaled):
                pr, pi = pr * x - pi * y + c, pr * y + pi * x
            ps.append((pr, pi))
        return s, ws, ps, None
    newtons = []
    for x, y in ws:
        pr, pi, dr, di = cs[-1], 0, 0, 0
        for c in reversed(scaled):
            dr, di = dr * x - di * y + pr, dr * y + di * x + pi
            pr, pi = pr * x - pi * y + c, pr * y + pi * x
        ps.append((pr, pi))
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
    Returns the new points and the largest move relative to |z_i|.
    """
    out, worst = [], 0.0
    for i, (z, nw) in enumerate(zip(zs, newtons)):
        try:
            s = sum(1 / (z - w) for j, w in enumerate(zs) if j != i)
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
    the pairs (a_k, k a_k), each accumulator in its own Horner pass's order.
    Then up to 8 sweeps with p evaluated exactly at the float points polish
    them until they settle to a few ulps.  Before each exact sweep and after
    the last, a centre with |Im z| <= eps^2 |Re z| is put on the real axis.
    That leaves every real part as it was (see the module docstring) and
    takes a real root's exact values at its real part's scale, about 2^53,
    not at the 2^150 to 2^300 of an imaginary part of 1e-46 to 1e-77.  The
    bound is relative to Re z: eps^2 max(1, |z|) would put both roots
    +-10^-32 i of 10^64 x^2 + 1 on 0, and eps^2 |z| a centre whose
    imaginary part overflowed.
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
        vals = []
        for z in zs:
            p = dp = z * 0
            for c, dc in pairs:
                p, dp = p * z + c, dp * z + dc
            vals.append((p * z + fcs[0], dp))
        finite = all(cmath.isfinite(p) and cmath.isfinite(dp) for p, dp in vals)
        newtons = [p / dp if dp else None for p, dp in vals] if finite else _exact_values(cs, zs)[3]
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
    axis on it, and such a centre is real whatever its radius, so radii
    at the Aberth centres are taken only off the axis.  Centres whose disk
    meets the axis are snapped onto it and those below it replaced by the
    mirrors of those above; the radii are taken at these final centres.  p
    is evaluated exactly once, at the Aberth centres, and the final centres
    reuse those values at the same scale S, which every final coordinate's
    denominator divides: a centre left alone keeps its S^n p, and only a
    centre moved onto the axis here is evaluated again, by a real Horner
    pass.  A mirror's value is the conjugate of its upper centre's (the
    coefficients are real), and since the final centres are closed under
    conjugation its radius is the upper centre's too, so only the products
    of differences are recomputed, for the reals and the uppers.  The radii
    are bit-identical to a fresh evaluation at the final centres (see
    `_radii`).  `roots` checks that the disks are disjoint.
    """
    n = len(cs) - 1
    zs = _aberth(cs)
    s, ws, ps, _ = _exact_values(cs, zs, newton=False)
    off_axis = [i for i, z in enumerate(zs) if z.imag]
    radii = dict(zip(off_axis, _radii(cs, s, ws, ps, off_axis)))
    reals, uppers = [], []
    for i, (z, w, p) in enumerate(zip(zs, ws, ps)):
        if abs(z.imag) <= radii.get(i, 0.0):
            x = w[0]
            if w[1]:
                p = (_horner([c * s ** (n - k) for k, c in enumerate(cs)], x), 0)
            reals.append((complex(z.real, 0.0), (x, 0), p))
        elif z.imag > 0:
            uppers.append((z, w, p))
    kept = reals + uppers
    ws = [w for _, w, _ in kept] + [(x, -y) for _, (x, y), _ in uppers]
    radii = _radii(cs, s, ws, [p for _, _, p in kept], range(len(kept)))
    disks = [(z, r) for (z, _, _), r in zip(kept, radii)]
    disks += [(z.conjugate(), r) for (z, _, _), r in zip(uppers, radii[len(reals) :])]
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
    """Whether the closed disks are pairwise disjoint, exactly on the binary values."""
    ints, _ = _dyadic([x for z, r in disks for x in (z.real, z.imag, r)])
    cells = list(zip(ints[::3], ints[1::3], ints[2::3]))
    return all(
        (x - u) ** 2 + (y - v) ** 2 > (r + t) ** 2
        for i, (x, y, r) in enumerate(cells)
        for u, v, t in cells[i + 1 :]
    )


# ----- Mahler measure -----


@dataclass(frozen=True)
class MahlerMeasure:
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
