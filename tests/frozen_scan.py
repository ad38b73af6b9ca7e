"""The per-function zero scan of the bound pipeline as it stood before the
batched scan, frozen as the oracle of ``tests/test_analysis.py``'s
equivalence tests: one array scan per function, the reach formed as a
matvec over every node, and the zeros located at once.  It reads the
scanner's rows, reach and pointwise rows and shares ``_tangency`` with the
library; nothing else of ``analysis._count_from_scan`` is used."""

import functools

import numpy as np
from scipy.optimize import brentq

from q4lab import analysis as an
from q4lab.reduction import mu_G_from_eq211


def count(sc, which, mu, tol=1e-9):
    """(count, zeros, warnings) of mu @ rows of I, G or R on the window."""
    fs = mu @ sc.basis[which]
    fvec = lambda h: mu @ sc._basis(which, np.atleast_1d(np.asarray(h, dtype=float)))
    return count_from_scan(sc.hs, fs, fvec, sc.window, tol, reach=np.abs(mu) @ sc.reach[which])


def count_from_scan(xs, fs, fvec, interval, tol, reach=None):
    absf = np.abs(fs)
    scale = float(absf.max())
    if scale == 0.0:
        return 0, [], []
    change = fs[:-1] * fs[1:] < 0
    at_node = fs == 0.0
    brackets, nodes = change.nonzero()[0], at_node.nonzero()[0]
    tangencies = []
    is_min = (absf[1:-1] <= absf[:-2]) & (absf[1:-1] <= absf[2:]) & ~at_node[1:-1]
    beside_zero = change[:-1] | change[1:] | at_node[:-2] | at_node[2:]
    bound = max(tol * scale, 64 * an.EPS * scale)
    fits = (is_min & ~beside_zero).nonzero()[0] + 1
    if reach is not None:
        fits = fits[~(absf[fits] > reach[fits] + bound)]
    for idx in fits:
        lo, hi = xs[idx - 1], xs[idx + 1]
        if any(lo <= z["location"] <= hi for z in tangencies):
            continue
        x0 = an._tangency(fvec, xs[idx], fs[idx], (lo, hi), interval, bound)
        if x0 is not None:
            tangencies.append({"location": x0, "multiplicity_estimate": 2})
    xtol = max(tol * (interval[1] - interval[0]), 1e-15)
    zeros, warnings = locate_zeros(xs, fs, brackets, nodes, tangencies, fvec, xtol)
    return brackets.size + nodes.size + 2 * len(tangencies), zeros, warnings


def locate_zeros(xs, fs, brackets, nodes, tangencies, fvec, xtol):
    f1 = functools.cache(lambda x: float(np.atleast_1d(fvec(np.array([x])))[0]))
    zeros = []
    for i in brackets:
        xa, xb, ga, gb = xs[i], xs[i + 1], fs[i], fs[i + 1]
        fa, fb = f1(xa), f1(xb)
        if fa == 0.0:
            root = xa
        elif fb == 0.0:
            root = xb
        elif fa * fb < 0.0:
            root = brentq(f1, xa, xb, xtol=xtol, rtol=1e-14)
        else:
            root = xa + ga / (ga - gb) * (xb - xa)
        zeros.append({"location": float(root), "multiplicity_estimate": 1})
    found = [{"location": float(xs[i]), "multiplicity_estimate": 1} for i in nodes]
    zeros = sorted(zeros + found + tangencies, key=lambda z: z["location"])
    warnings = [f"unresolved cluster near {za['location']:.12g}"
                for za, zb in zip(zeros[:-1], zeros[1:])
                if zb["location"] - za["location"] < 2 * xtol]
    return zeros, warnings


def bound_chain(sc, mu):
    """The bound chain of one trial: (mu, counts of I, G, R, violations,
    and per function its zeros and warnings)."""
    mu = np.asarray(mu, dtype=float)
    muG = mu_G_from_eq211(mu, sc.params.kappa)
    (cI, zI, wI), (cG, zG, wG), (cR, zR, wR) = (count(sc, "I", mu), count(sc, "G", muG),
                                                count(sc, "R", muG))
    violations = []
    if cR > 6:
        violations.append(f"count(R) = {cR} > 6")
    if cG > cR + 2:
        violations.append(f"count(G) = {cG} > count(R) + 2 = {cR + 2}")
    if cI > cG:
        violations.append(f"count(I) = {cI} > count(G) = {cG}")
    if cG > 8:
        violations.append(f"count(G) = {cG} > 8")
    return (tuple(mu), cI, cG, cR, violations, zI, wI, zG, wG, zR, wR)
