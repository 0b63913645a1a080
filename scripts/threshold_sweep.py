#!/usr/bin/env python3
"""Sweep the empirical density threshold of an orbit set in the length m.

For each m the exact grid threshold bounds the critical epsilon from below;
the zonotope volume certificate refutes density from above.  The two
columns sandwich where the covering transition happens.
"""

import argparse
import sys
from fractions import Fraction

from kronrec.density import certify_non_density, critical_epsilon, epsilon_bound
from kronrec.errors import DomainError, KronrecError
from kronrec.poly_core import parse_polynomial


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "polynomial",
        help="ascending comma-separated integer coefficients, e.g. '-2,1' for x-2",
    )
    ap.add_argument("--m-max", type=int, default=6)
    ap.add_argument("--grid-n", type=int, default=4)
    ap.add_argument(
        "--certify-eps",
        type=Fraction,
        default=None,
        help="eps for the refutation column (default: 4/5 of the stated bound)",
    )
    ap.add_argument("--allow-large-grid", action="store_true")
    # keep argparse from eating "-2,1" as an option flag
    argv = [" " + a if a and a[0] == "-" and "," in a else a for a in sys.argv[1:]]
    args = ap.parse_args(argv)

    poly = parse_polynomial(args.polynomial)
    bound = epsilon_bound(poly)
    eps = args.certify_eps
    if eps is None:
        eps = Fraction(bound.eps_stated.hi).limit_denominator(10**6) * Fraction(4, 5)

    print(f"polynomial      {poly}")
    print(f"stated bound    [{bound.eps_stated.lo:.9f}, {bound.eps_stated.hi:.9f}]")
    print(f"refined bound   [{bound.eps_refined.lo:.9f}, {bound.eps_refined.hi:.9f}]")
    print(f"refutation eps  {eps} = {float(eps):.6f}")
    print()
    print(f"{'m':>3}  {'grid threshold':>15}  {'upper':>10}  {'volume at eps':>14}  refuted")

    for m in range(poly.degree + 1, args.m_max + 1):
        try:
            est = critical_epsilon(
                poly, m, grid_n=args.grid_n, allow_large_grid=args.allow_large_grid
            )
        except DomainError as exc:
            print(f"{m:>3}  stopped: {exc}")
            break
        cert = certify_non_density(poly, m, eps)
        print(
            f"{m:>3}  {float(est.estimate):>15.6f}  {float(est.upper):>10.6f}"
            f"  {float(cert.volume_bound):>14.6f}  {'yes' if cert.certified else 'no'}"
        )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except KronrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
