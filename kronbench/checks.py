"""Output checks, run after each task and outside its timed span.

Each check takes the task's argv and its parsed JSON report and returns
None when the output holds, or a one-line reason when it does not.  Where
an independent route exists the check takes it: exact `Fraction`
arithmetic written here, Landau's bound, a plain Gaussian elimination, or
Trench's closed form against the direct determinant.
"""

from __future__ import annotations

import random
from fractions import Fraction

RESIDUAL_TOL = Fraction(1, 10**6)  # kronrec's default witness residual tolerance
TRENCH_REL_TOL = 1e-9
FLOAT_SLACK = 1e-12


def _rat(value) -> Fraction:
    return Fraction(str(value))


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _poly(argv) -> list[int]:
    return [int(tok) for tok in argv[-1].split(",")]


def _annihilates(a, row) -> bool:
    d = len(a) - 1
    return all(
        sum(a[j] * row[i + j] for j in range(d + 1)) == 0 for i in range(len(row) - d)
    )


def _det(rows) -> Fraction:
    """Gaussian elimination over Fraction with row pivoting."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def _gram(vectors) -> list[list[Fraction]]:
    return [[sum(x * y for x, y in zip(u, v)) for v in vectors] for u in vectors]


def _check_witness(argv, doc):
    a = _poly(argv)
    d = len(a) - 1
    m = doc["m"]
    rng = random.Random(int(_flag(argv, "--seed")))
    if doc["target"] != [rng.random() for _ in range(m)]:
        return "target differs from the seeded uniform target"
    t = [Fraction(x) for x in doc["target"]]
    w = [Fraction(x) for x in doc["w"]]
    for i in range(m - d):
        row = sum(a[j] * (t[i + j] + w[i + j]) for j in range(d + 1))
        if abs(row - round(row)) > RESIDUAL_TOL:
            return f"row {i} of band(A)(target + w) is {float(row)}, not near an integer"
    if max(abs(x) for x in w) > Fraction(doc["eps_used"]) / 2:
        return "max|w| exceeds eps_used / 2"
    return None


def _check_mahler(argv, doc):
    """Landau: lead <= M(P) <= ||P||_2 for the polynomial each variant measures."""
    a = [Fraction(c) for c in _poly(argv)]
    d = len(a) - 1
    variant = doc["variant"]
    scale = Fraction(1)
    if variant == "conjugate":
        a = a[::-1]
    elif variant == "half_scaled":  # M(A(x/2))
        a = [c / 2**i for i, c in enumerate(a)]
    elif variant == "double_scaled":  # 2^-d M(A(2x))
        a = [c * 2**i for i, c in enumerate(a)]
        scale = Fraction(1, 2**d)
    lower = float(abs(a[-1]) * scale)
    upper_sq = float(sum(c * c for c in a) * scale * scale)
    lo, hi = doc["value"] - doc["error"], doc["value"] + doc["error"]
    if hi < lower * (1 - FLOAT_SLACK) or (lo > 0 and lo * lo > upper_sq * (1 + FLOAT_SLACK)):
        return f"{variant} measure [{lo}, {hi}] misses Landau's range [{lower}, {upper_sq ** 0.5}]"
    return None


def _check_bound(argv, doc):
    half, dbl, stated = doc["eps_half_scaled"], doc["eps_double_scaled"], doc["eps_stated"]
    for key in ("eps_half_scaled", "eps_double_scaled", "eps_stated", "eps_refined", "eps_coarse"):
        if not 0 < doc[key]["lo"] <= doc[key]["hi"]:
            return f"{key} is not a positive interval"
    if stated["lo"] > min(half["lo"], dbl["lo"]) or stated["hi"] < min(half["hi"], dbl["hi"]):
        return "eps_stated does not enclose min(eps_half_scaled, eps_double_scaled)"
    return None


def _autocorrelation(b) -> list[int]:
    d = len(b) - 1
    return [
        sum(b[j + k] * b[k] for k in range(d + 1) if 0 <= j + k <= d) for j in range(-d, d + 1)
    ]


def _check_gram_growth(argv, doc):
    # imported here: src/ is on the path only once run.py has checked it exists
    from kronrec.toeplitz import LaurentSymbol, trench_data

    b = _poly(argv)
    d = len(b) - 1
    ell = doc["ell_max"]
    last = _rat(doc["determinants"][-1])
    closed = trench_data(LaurentSymbol.from_coefficients(_autocorrelation(b), d), ell)
    if closed.exact:
        if closed.determinant != last:
            return f"D_{ell - 1} differs from Trench's exact closed form"
    elif abs(closed.determinant - float(last)) > TRENCH_REL_TOL * abs(float(last)):
        return f"D_{ell - 1} differs from Trench's numeric closed form"
    return None


def _check_lyons(argv, doc):
    """The last ratio, from Gram determinants taken by plain elimination."""
    b = _poly(argv)
    d = len(b) - 1
    ell = doc["ell_max"]
    monic = [Fraction(c, b[-1]) for c in b]
    rows = [[Fraction(0)] * i + monic + [Fraction(0)] * (ell - 1 - i) for i in range(ell)]
    e_rows = [[Fraction(int(c == i - 1)) for c in range(ell + d)] for i in doc["indices"]]
    expected = _det(_gram(e_rows + rows)) / _det(_gram(rows))
    if _rat(doc["values"][-1]) != expected:
        return f"lyons ratio at ell = {ell} differs from plain elimination"
    return None


def _check_trench(argv, doc):
    if not doc["relative_difference"] <= TRENCH_REL_TOL:
        return f"closed form and direct determinant differ by {doc['relative_difference']}"
    return None


def _check_index(argv, doc):
    a = _poly(argv)
    d = len(a) - 1
    if doc["index"] != abs(a[-1]) ** (doc["m"] - d):
        return "index differs from |a_d|^(m - d)"
    if len(doc["z_basis"]) != d or not all(_annihilates(a, row) for row in doc["z_basis"]):
        return "z_basis rows are not d recurrence vectors"
    return None


def _check_basis(argv, doc):
    a = _poly(argv)
    p = doc["p"]
    rows = [[_rat(x) for x in row] for row in doc["matrix"]]
    if len(rows) != len(a) - 1:
        return "basis does not have deg A rows"
    for row in rows:
        if not _annihilates(a, row):
            return "a basis row is not a recurrence vector"
        if any(x.denominator % p == 0 for x in row):
            return f"a basis row is not {p}-integral"
    return None


def _check_critical_eps(argv, doc):
    lower, estimate, upper = (_rat(doc[k]) for k in ("lower", "estimate", "upper"))
    if not lower <= estimate <= upper:
        return "estimate is not within [lower, upper]"
    return None


def _check_certify_nondense(argv, doc):
    if doc["certified"] != (_rat(doc["volume_bound_exact"]) < 1):
        return "certified disagrees with volume_bound_exact < 1"
    return None


CHECKS = {
    "witness": _check_witness,
    "mahler": _check_mahler,
    "bound": _check_bound,
    "gram-growth": _check_gram_growth,
    "lyons": _check_lyons,
    "trench": _check_trench,
    "index": _check_index,
    "basis": _check_basis,
    "critical-eps": _check_critical_eps,
    "certify-nondense": _check_certify_nondense,
}


def check(name: str, argv, doc) -> str | None:
    if doc.get("schema") != "kronrec/1" or doc.get("command") != name:
        return "report lacks the kronrec/1 schema or names another command"
    return CHECKS[name](argv, doc)
