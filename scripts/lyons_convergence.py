#!/usr/bin/env python3
"""Tabulate Gram-ratio convergence for a recurrence polynomial.

Two tables: the determinant growth ratio against the squared Mahler measure,
and the normalized coordinate ratios for each singleton index set.  Limits
are not asserted anywhere; this is for eyeballing convergence speed.
"""

import argparse
import sys

from kronrec.errors import KronrecError
from kronrec.poly_core import parse_polynomial
from kronrec.toeplitz import gram_growth, lyons_ratios


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("polynomial", nargs="?", default="-1,-1,1")
    ap.add_argument("--ell-min", type=int, default=5)
    ap.add_argument("--ell-max", type=int, default=30)
    ap.add_argument("--step", type=int, default=5)
    argv = [" " + a if a and a[0] == "-" and "," in a else a for a in sys.argv[1:]]
    args = ap.parse_args(argv)
    if args.ell_min < 1:
        ap.error("--ell-min must be at least 1")

    poly = parse_polynomial(args.polynomial)
    depths = list(range(args.ell_min, args.ell_max + 1, args.step))

    report = gram_growth(poly, args.ell_max)
    msq = (report.mahler_squared.lo + report.mahler_squared.hi) / 2
    print(f"polynomial       {poly}")
    print(f"squared measure  {msq:.12f}")
    print()
    print(f"{'ell':>4}  {'D_ell / D_ell-1':>18}  {'gap to M^2':>12}")
    for ell in depths:
        ratio = float(report.ratios[ell - 2]) if ell >= 2 else float("nan")
        print(f"{ell:>4}  {ratio:>18.12f}  {abs(ratio - msq):>12.2e}")
    print()

    sets = [{i} for i in range(1, poly.degree + 1)]
    values = [lyons_ratios(poly, s, args.ell_max) for s in sets]
    header = "  ".join(f"{'S=' + str(set(s)):>16}" for s in sets)
    print(f"{'ell':>4}  {header}")
    for ell in depths:
        row = "  ".join(f"{float(vals[ell - 1]):>16.12f}" for vals in values)
        print(f"{ell:>4}  {row}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KronrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
