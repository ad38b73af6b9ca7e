#!/usr/bin/env python3
"""Chebyshev-property findings for the residue solution of L2.

Prints, per kappa: the residual of L2(f) (f' and f'' exact), the location
of f's zero against the closed-form candidate h* = -(2/3) sqrt(5/kappa),
where h* falls relative to the interval (-inf, saddle) and the annulus
interval, the measured versus claimed endpoint value of y0, and the
projective rotation of the solution frame (Chebyshev iff < pi).

    python scripts/probe_chebyshev.py --kappa 2 --kappa 4 --kappa 6 --kappa 9
"""

import argparse
import math

from q4lab import make_params
from q4lab.analysis import chebyshev_probe


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--kappa", action="append", type=float)
    args = ap.parse_args()
    kappas = args.kappa or [2.0, 4.0, 6.0, 9.0]

    contradicted_anywhere = False
    for kappa in kappas:
        rep = chebyshev_probe(make_params(kappa))
        contradicted_anywhere |= rep.in_half_line_interval or rep.in_annulus_interval
        print(f"kappa = {kappa}")
        print(f"  L2(f) residual          : {rep.l2_residual:.2e}")
        print(f"  zero of f at h*         : {rep.h_star:.12f} "
              f"(located to {rep.locate_error:.1e})")
        print(f"  y0 at the saddle level  : {rep.saddle_y0:.9f}  "
              f"[claimed -sqrt(5/k) = {rep.saddle_y0_claimed:.9f}]")
        print(f"  nonvanishing claim      : {rep.nonvanishing_on_half_line} on "
              f"(-inf, saddle); {rep.nonvanishing_on_annulus} on the annulus")
        print(f"  frame rotation          : window {rep.rotation_span_window:.4f}, "
              f"annulus {rep.rotation_span_annulus:.4f}  (pi = {math.pi:.4f})")
    return 2 if contradicted_anywhere else 0


if __name__ == "__main__":
    raise SystemExit(main())
