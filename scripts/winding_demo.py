#!/usr/bin/env python3
"""Argument-principle winding counts for sampled elements of V_n.

Samples J on the upper half of the keyhole boundary in closed form and
prints how far those samples lie from the continuation of (J, W) once around
the boundary, then the per-segment argument increments and the winding
number for a few random polynomial pairs, against the dimension bound 2n.

    python scripts/winding_demo.py --n 3 --trials 5 --kappa 4
"""

import argparse

import numpy as np

from q4lab import make_params
from q4lab.analysis import (
    keyhole_by_continuation,
    keyhole_contour,
    random_poly_pair,
    winding_count,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--kappa", type=float, default=4.0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--trials", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    args = ap.parse_args()

    p = make_params(args.kappa)
    ct = keyhole_contour(p, args.epsilon)
    samples, _, _ = keyhole_by_continuation(p, args.epsilon)
    gap = 0.0
    for name, (s, J) in ct.samples.items():
        s_ode, J_ode = samples[name]
        J_ode = J_ode[:, np.isin(s_ode, s)]  # at the contour's points, the upper half
        gap = max(gap, np.max(np.abs(J - J_ode)) / np.max(np.abs(J_ode)))
    print(f"keyhole J: closed form vs continuation {gap:.2e} (relative)")

    rng = np.random.default_rng(args.seed)
    ok = True
    for t in range(args.trials):
        pair = random_poly_pair(args.n, rng)
        wr = winding_count(pair, p, args.epsilon)
        segs = "  ".join(f"{s['name']}={s['arg_increment']:+.4f}"
                         for s in wr.segments)
        print(f"trial {t}: winding {wr.winding} (bound {2 * args.n}), "
              f"residual {wr.residual:.2e}")
        print(f"  {segs}")
        ok = ok and wr.bound_ok
    return 0 if ok else 2


if __name__ == "__main__":
    raise SystemExit(main())
