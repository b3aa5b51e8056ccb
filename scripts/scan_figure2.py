"""Scan the (nu1, nu2) spectral-parameter square and tabulate verdicts.

Classifies each grid point by the sign of the Fejer-kernel explicit-formula
right side (negative: no degree-4 L-function with those parameters can
exist) and of the windowed variant (positive: any such L-function must have
a zero below t0).  Writes the CSV consumed by the contour figure.
"""

import argparse
import collections
import sys

from zerogap.explicit_formula import PRIME_FREE_RADIUS
from zerogap.region_scan import scan_region, scan_to_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nu-max", type=float, default=16.0)
    ap.add_argument("--step", type=float, default=0.5)
    ap.add_argument("--t0", type=float, default=14.13)
    ap.add_argument("--delta", type=float, default=PRIME_FREE_RADIUS)
    ap.add_argument("--conductor", type=float, default=1.0)
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    args = ap.parse_args()

    rows = scan_region(args.nu_max, args.step, t0=args.t0, delta=args.delta,
                       conductor=args.conductor)
    csv = scan_to_csv(rows, t0=args.t0, delta=args.delta,
                      conductor=args.conductor, step=args.step,
                      convention="halved")
    if args.out is None:
        sys.stdout.write(csv)
    else:
        with open(args.out, "w") as fh:
            fh.write(csv)
        counts = collections.Counter(r.verdict for r in rows)
        total = len(rows)
        print(f"# {total} points -> {args.out}")
        for verdict in ("Impossible", "ForcedLowZero", "Unconstrained"):
            n = counts.get(verdict, 0)
            print(f"#   {verdict}: {n} ({100.0 * n / total:.1f}%)")


if __name__ == "__main__":
    main()
