"""Command-line front end: every operation, machine-readable output.

Polynomials are ascending comma-separated integer coefficient lists
("-2,1" is x - 2).  Reports are JSON by default with a versioned top-level
schema key, stable key order, and exact rationals rendered as integers or
"p/q" strings; --format csv flattens the same payload to key,value rows and
--format pretty prints an indented view.  `main` writes every report's
envelope once: the schema, the command, the echo of the parsed polynomial
(every subcommand but trench, which may take a raw symbol) and the inputs
named in ECHOED; each `_cmd_*` handler returns the fields it computes and
the inputs that the schema renders under another name or as a rational
(grid_resolution, bisection_tol, eps and matrix_size).  Exit codes: 0
success, 1 domain error (structured error JSON on stdout), 2 usage or parse
error, or an --output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import random
import sys
from fractions import Fraction

from .density import (
    certify_non_density,
    critical_epsilon,
    epsilon_bound,
    witness,
)
from .errors import CertificateError, DomainError, KronrecError, ParseError
from .intervals import Interval
from .lattice_structure import (
    PIVOT_RULES,
    canonical_basis_M,
    integral_basis,
    newton_polygon,
)
from .poly_core import MAHLER_VARIANTS, mahler_measure, parse_polynomial
from .toeplitz import (
    LaurentSymbol,
    gram_growth,
    lyons_ratios,
    toeplitz_det_direct,
    trench_data,
)

SCHEMA = "kronrec/1"
FORMATS = ("json", "csv", "pretty")
# inputs a report echoes unchanged, wherever its subcommand defines them
ECHOED = ("m", "n", "p", "ell_max", "variant", "pivot_rule")


def _parse_rational(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{flag} must be a rational like 0.4 or 2/5, got {text!r}") from exc


# ----- serialization -----


def _rat(x: Fraction):
    if x.denominator == 1:
        return int(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _val(x):
    return "inf" if math.isinf(x) else int(x)


def _float(x) -> float:
    """float(x) for the report; DomainError beyond the float range, so never inf or nan."""
    try:
        if math.isfinite(f := float(x)):
            return f
    except OverflowError:
        pass
    raise DomainError("a value to report lies beyond the float range")


def _interval(iv: Interval) -> dict:
    return {"lo": _float(iv.lo), "hi": _float(iv.hi)}


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(obj, (list, tuple)):
        if all(not isinstance(x, (dict, list, tuple)) for x in obj):
            yield prefix, ";".join(str(x) for x in obj)
        else:
            for i, item in enumerate(obj):
                yield from _flatten(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(payload):
            writer.writerow([key, value])
        return buf.getvalue()
    lines = []

    def walk(obj, indent):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list, tuple)):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, (list, tuple)):
            if all(not isinstance(x, (dict, list, tuple)) for x in obj):
                lines.append(pad + "  ".join(str(x) for x in obj))
            else:
                for item in obj:
                    walk(item, indent)
        else:
            lines.append(f"{pad}{obj}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


# ----- subcommand handlers -----
# each returns what it computes; main writes the envelope and the echo


def _cmd_mahler(args, poly) -> dict:
    measure = mahler_measure(poly, args.variant)
    return {"value": _float(measure.value), "error": _float(measure.error)}


def _cmd_bound(args, poly) -> dict:
    bound = epsilon_bound(poly)
    return {
        "eps_half_scaled": _interval(bound.eps_half_scaled),
        "eps_double_scaled": _interval(bound.eps_double_scaled),
        "eps_stated": _interval(bound.eps_stated),
        "eps_refined": _interval(bound.eps_refined),
        "eps_coarse": _interval(bound.eps_coarse),
    }


def _cmd_witness(args, poly) -> dict:
    if args.target is not None:
        try:
            target = tuple(float(tok) for tok in args.target.split(","))
        except ValueError as exc:
            raise ParseError(f"bad --target list: {exc}") from exc
    else:
        rng = random.Random(args.seed)
        target = tuple(rng.random() for _ in range(args.m))
    eps = _float(_parse_rational(args.eps, "--eps")) if args.eps is not None else None
    wit = witness(poly, args.m, target, eps)
    return {
        "target": list(wit.target),
        "w": list(wit.w),
        "k": list(wit.k),
        "sup_norm": max(abs(x) for x in wit.w),
        "residual": wit.residual,
        "eps_used": wit.eps_used,
        "eps_constructive": wit.eps_constructive,
    }


def _cmd_critical_eps(args, poly) -> dict:
    print(
        f"reading the exact threshold of a {args.grid_n}^{args.m - poly.degree} "
        "residue grid from the zonotope facets",
        file=sys.stderr,
    )
    tol = _parse_rational(args.tol, "--tol")
    est = critical_epsilon(
        poly,
        args.m,
        grid_n=args.grid_n,
        bisection_tol=tol,
        allow_large_grid=args.allow_large_grid,
    )
    # lower equals estimate; it and the two echoed inputs are kept for the kronrec/1 schema
    return {
        "lower": _rat(est.estimate),
        "upper": _rat(est.upper),
        "estimate": _rat(est.estimate),
        "estimate_float": _float(est.estimate),
        "grid_resolution": args.grid_n,
        "bisection_tol": _rat(tol),
        "method_notes": est.method_notes,
    }


def _cmd_certify_nondense(args, poly) -> dict:
    eps = _parse_rational(args.eps, "--eps")
    cert = certify_non_density(poly, args.m, eps)
    return {
        "eps": _rat(eps),
        "volume_bound": _float(cert.volume_bound),
        "volume_bound_exact": _rat(cert.volume_bound),
        "certified": cert.certified,
    }


def _cmd_newton(args, poly) -> dict:
    polygon = newton_polygon(poly, args.p)
    return {
        "points": [[i, _val(v)] for i, v in polygon.points],
        "vertices": [[x, _val(y)] for x, y in polygon.vertices],
        "slopes": [_rat(slope) for slope in polygon.slopes],
        "lengths": list(polygon.lengths),
        "pivot_nonnegative": polygon.pivot_index("nonnegative"),
        "pivot_positive": polygon.pivot_index("positive"),
    }


def _cmd_basis(args, poly) -> dict:
    basis = canonical_basis_M(poly, args.p, args.m, pivot_rule=args.pivot_rule)
    return {
        "pivot_segment": basis.pivot_segment,
        "matrix": [[_rat(entry) for entry in row] for row in basis.matrix],
        "valuations": [[_val(v) for v in row] for row in basis.valuations],
        "segments": [
            {
                "index": seg.index,
                "slope": _rat(seg.slope),
                "length": seg.length,
                "row_start": seg.row_start,
                "row_stop": seg.row_stop,
                "left_is_identity": seg.left_is_identity,
                "right_is_identity": seg.right_is_identity,
                "det_valuation": seg.det_valuation,
                "expected_det_valuation": seg.expected_det_valuation,
            }
            for seg in basis.segments
        ],
        "polygon": {
            "vertices": [[x, _val(y)] for x, y in basis.polygon.vertices],
            "slopes": [_rat(slope) for slope in basis.polygon.slopes],
            "lengths": list(basis.polygon.lengths),
        },
    }


def _cmd_index(args, poly) -> dict:
    lattice = integral_basis(poly, args.m)
    predicted = abs(poly.leading_coefficient) ** (args.m - poly.degree)
    return {
        "z_basis": [list(row) for row in lattice.z_basis],
        "index": lattice.index,
        "leading_power": predicted,
        "matches": lattice.index == predicted,
    }


def _cmd_trench(args, poly) -> dict:
    # the positional argument is B under --autocorrelate, else the raw symbol
    if args.autocorrelate:
        symbol = LaurentSymbol.from_polynomial(parse_polynomial(args.polynomial))
    else:
        if args.r is None:
            raise ParseError("trench needs --r for a raw symbol (or --autocorrelate)")
        try:
            coeffs = [Fraction(tok.strip()) for tok in args.polynomial.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad symbol coefficient list: {exc}") from exc
        symbol = LaurentSymbol.from_coefficients(coeffs, args.r)
    data = trench_data(symbol, args.n)
    direct = toeplitz_det_direct(symbol, args.n - 1)
    if data.determinant != direct:
        raise CertificateError(
            f"Trench determinant {_rat(data.determinant)} disagrees with the direct {direct}"
        )
    # relative_difference and dps_used are fixed, kept for the kronrec/1 schema
    return {
        "symbol": [_rat(c) for c in symbol.coeffs],
        "r": symbol.r,
        "s": symbol.s,
        "matrix_size": args.n,
        "trench": _rat(data.determinant),
        "direct": _rat(direct),
        "relative_difference": 0.0,
        "exact": data.exact,
        "dps_used": None,
    }


def _cmd_gram_growth(args, poly) -> dict:
    print(f"gram determinants up to ell = {args.ell_max}", file=sys.stderr)
    report = gram_growth(poly, args.ell_max)
    return {
        "determinants": [_rat(det) for det in report.determinants],
        "ratios": [_rat(ratio) for ratio in report.ratios],
        "ratios_float": [_float(ratio) for ratio in report.ratios],
        "mahler_squared": _interval(report.mahler_squared),
    }


def _cmd_lyons(args, poly) -> dict:
    if args.indices.strip():
        try:
            indices = sorted({int(tok) for tok in args.indices.split(",")})
        except ValueError as exc:
            raise ParseError(f"bad --s index list: {exc}") from exc
    else:
        indices = []
    print(
        f"lyons ratios for S={indices} up to ell = {args.ell_max}", file=sys.stderr
    )
    values = lyons_ratios(poly, indices, args.ell_max)
    diffs = [abs(_float(b - a)) for a, b in zip(values, values[1:])]
    return {
        "indices": indices,
        "values": [_rat(v) for v in values],
        "values_float": [_float(v) for v in values],
        "max_tail_fluctuation": max(diffs[-10:], default=0.0),
    }


# ----- parser -----


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronrec",
        description="Density bounds, recurrence lattices, and Toeplitz certificates.",
    )
    parser.add_argument("--format", choices=FORMATS, default="json")
    parser.add_argument("--output", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, takes_polynomial=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler, takes_polynomial=takes_polynomial)
        p.add_argument("polynomial", help="ascending comma-separated coefficients")
        return p

    p = add("mahler", _cmd_mahler, help="Mahler measure with certified error")
    p.add_argument("--variant", choices=MAHLER_VARIANTS, default="plain")

    add("bound", _cmd_bound, help="certified density threshold enclosures")

    p = add("witness", _cmd_witness, help="constructive perturbation into the orbit set")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--target", help="comma-separated reals; default: seeded uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", help="allowance; default: the constructive bound")

    p = add("critical-eps", _cmd_critical_eps, help="exact covering threshold on a grid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid-n", type=int, default=8, dest="grid_n")
    p.add_argument(
        "--tol", default="1/1000", help="inert: validated and echoed, no longer affects the result"
    )
    p.add_argument("--allow-large-grid", action="store_true")

    p = add("certify-nondense", _cmd_certify_nondense, help="exact volume refutation")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--eps", required=True, help="rational, e.g. 0.4 or 2/5 (parsed exactly)")

    p = add("newton", _cmd_newton, help="p-adic Newton polygon")
    p.add_argument("--p", type=int, required=True)

    p = add("basis", _cmd_basis, help="canonical p-adic basis with certificate")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pivot-rule", choices=PIVOT_RULES, default="nonnegative",
                   dest="pivot_rule")

    p = add("index", _cmd_index, help="integral lattice basis and its index")
    p.add_argument("--m", type=int, required=True)

    p = add("trench", _cmd_trench, takes_polynomial=False,
            help="banded Toeplitz determinant: exact closed form against direct expansion")
    p.add_argument("--n", type=int, required=True, help="matrix size (returns D_{n-1})")
    p.add_argument("--r", type=int, help="negative band width of the raw symbol")
    p.add_argument("--autocorrelate", action="store_true",
                   help="treat the input as B and use the symbol B(x)B(1/x)")

    p = add("gram-growth", _cmd_gram_growth, help="Gram determinant growth study")
    p.add_argument("--ell-max", type=int, required=True, dest="ell_max")

    p = add("lyons", _cmd_lyons, help="Gram ratio convergence report")
    p.add_argument("--s", default="1", dest="indices",
                   help="comma-separated basis indices, empty for none")
    p.add_argument("--ell-max", type=int, required=True, dest="ell_max")

    return parser


def main(argv=None) -> int:
    # cached: built at the first call rather than at import, which stays cheap
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # any token but -h and --flags is data; a leading space, which consumers strip, keeps
    # argparse off "-2,1" or "-inf", and data after --output (or a prefix) joins it as typed
    toks: list[str] = []
    for tok in argv:
        data = tok[:2] != "--" and tok != "-h"
        if data and toks and len(toks[-1]) > 2 and "--output".startswith(toks[-1]):
            toks[-1] = f"--output={tok}"
        else:
            toks.append(f" {tok}" if data and tok[:1] == "-" else tok)
    try:
        args = parser.parse_args(toks)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    payload = {"schema": SCHEMA, "command": args.subcommand}
    payload.update((key, getattr(args, key)) for key in ECHOED if hasattr(args, key))
    try:
        poly = None
        if args.takes_polynomial:
            poly = parse_polynomial(args.polynomial)
            payload["polynomial"] = {
                "coefficients": list(poly.coeffs),
                "degree": poly.degree,
                "display": str(poly),
            }
        payload.update(args.handler(args, poly))
    except ParseError as exc:
        print(f"kronrec: {exc}", file=sys.stderr)
        return 2
    except KronrecError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(_render({"schema": SCHEMA, "error": error}, "json"))
        return 1
    text = _render(payload, args.format)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"kronrec: cannot write the report to {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
