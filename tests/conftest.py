import functools
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import q4lab.quadrature as quad
from q4lab import make_params
from q4lab.analysis import _keyhole_pieces
from q4lab.model import doubling_angles
from q4lab.picard_fuchs import hypergeometric_J


def openblas_kernels() -> list:
    """The OpenBLAS kernels this CPU runs, of SkylakeX, Haswell and
    Prescott, or [] when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS,
    whose kernel OPENBLAS_CORETYPE sets at import."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if ("DYNAMIC_ARCH" not in blas.get("openblas configuration", "")
            or platform.machine().lower() not in ("x86_64", "amd64")):
        return []
    from numpy._core._multiarray_umath import __cpu_features__ as cpu
    need = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Prescott": "SSE3"}
    return [core for core, feature in need.items() if cpu.get(feature)]


def kernel_env(core: str | None) -> dict:
    """The environment of a subprocess that imports this tree's q4lab with
    OpenBLAS's kernel set to ``core``, or as this process has it (None)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return env if core is None else dict(env, OPENBLAS_CORETYPE=core)


def keyhole_reference(params, epsilon: float = 1e-3) -> dict:
    """The whole keyhole boundary of D_eps in closed form, both halves, as
    piece name -> (s, J) in traversal order: each piece's points at
    linspace(0, 1, n), then ``hypergeometric_J``.  The reference that the
    contour's stored upper half, the continuation and the full-boundary
    winding counts are checked against; cached per (kappa, epsilon)."""
    return _keyhole_reference(params.kappa, epsilon)


@functools.cache
def _keyhole_reference(kappa: float, epsilon: float) -> dict:
    params, out = make_params(kappa), {}
    for name, (path, n) in _keyhole_pieces(epsilon).items():
        s = np.concatenate([piece.point(np.linspace(0.0, 1.0, n)) for piece in path])
        out[name] = (s, hypergeometric_J(s, params))
    return out


# Gauss-Kronrod 15 nodes on [-1, 1] and weights, with the embedded Gauss-7
# weights on the odd-indexed nodes: the tests' independent quadrature
XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


def gk_sums(fx: np.ndarray):
    """GK15(7) value and error estimate of each panel from its weighted
    integrand values fx (..., P, 15), the weights holding the half-width."""
    k = np.add.reduce(fx * WGK, axis=-1)
    return k, np.abs(k - np.add.reduce(fx[..., 1::2] * WG, axis=-1))


def gk_refine_reference(evaluate, panels: tuple, rel: float, max_panels: int):
    """One integral's globally adaptive GK loop from ``panels`` (arrays of
    any tags, then the ends lo and hi) to rel |integral| (QUADPACK's QAG
    criterion): (value, error estimate, panels).  ``evaluate(*panels)``
    gives each panel's value and error; each round halves every panel that
    errs by more than an even share of the budget, and the worst, the worst
    first when ``max_panels`` has less room."""
    value, err = evaluate(*panels)
    while True:
        total = float(np.sum(value))
        target = rel * max(abs(total), 1e-300)
        est = float(np.sum(err))
        if not est > target or value.size >= max_panels:
            return total, est, value.size
        split = err > target / value.size
        split[np.argmax(err)] = True
        room = max_panels - value.size
        if np.count_nonzero(split) > room:
            split = np.isin(np.arange(err.size), np.argsort(-err, kind="stable")[:room])
        *tags, lo, hi = (a[split] for a in panels)
        mid = 0.5 * (lo + hi)
        halves = (*(np.tile(t, 2) for t in tags), np.concatenate([lo, mid]),
                  np.concatenate([mid, hi]))
        v, e = evaluate(*halves)
        panels = tuple(np.concatenate([a[~split], b]) for a, b in zip(panels, halves))
        value, err = np.concatenate([value[~split], v]), np.concatenate([err[~split], e])


GREEN_REFERENCE_PANELS = 32  # equal angle panels the GK green reference starts from


def green_reference(i: int, j: int, ov, tol: float):
    """I_ij by green with adaptive GK15 panels in the ray angle, refined
    alone from GREEN_REFERENCE_PANELS equal ones (see ``gk_refine_reference``):
    an independent check on the trapezoidal rule that the library uses."""
    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        x, y, dx, dy = ov.point_tangent(0.5 * (lo + hi)[:, None] + half * XGK)
        if i != -1:
            return gk_sums(half * (x ** (i + 1) * y**j / (i + 1) * dy))
        return gk_sums(half * (-(x**i) * y ** (j + 1) / (j + 1) * dx))

    edges = np.linspace(0.0, 2.0 * np.pi, GREEN_REFERENCE_PANELS + 1)
    return gk_refine_reference(evaluate, (edges[:-1], edges[1:]), tol, 4000)


AREA2D_REFERENCE_PANELS = 4  # equal initial GK panels on each run of area2d_reference


def area2d_reference(i: int, j: int, ov, tol: float):
    """I_ij by area2d's Fubini integral with adaptive GK15 panels, refined
    alone to 0.02 tol (see ``gk_refine_reference``): an independent check on
    the library's trapezoidal rule in the fold angle.  The slices
    (``quadrature._slice_ends``) run on x = x0 + t^2 and x = x1 - t^2 from the
    folds x0, x1 (``Oval.folds``), which meet at the middle; there the slice
    length behaves like t, so the integrand is analytic in t."""
    x0, x1 = ov.folds

    def evaluate(base, sign, lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        t = 0.5 * (lo + hi)[:, None] + half * XGK
        x = base[:, None] + sign[:, None] * (t * t)
        r1, r2 = quad._slice_ends(ov, x)
        return gk_sums(2.0 * half * t * x**i * (r2 ** (j + 1) - r1 ** (j + 1)) / (j + 1))

    n = AREA2D_REFERENCE_PANELS
    edges = np.linspace(0.0, np.sqrt(0.5 * (x1 - x0)), n + 1)
    panels = (np.repeat([x0, x1], n), np.repeat([1.0, -1.0], n), np.tile(edges[:-1], 2),
              np.tile(edges[1:], 2))
    return gk_refine_reference(evaluate, panels, 0.02 * tol, 2000)


def adaptive_gk_reference(f, a: float, b: float, tol: float):
    """f over [a, b] to tol |integral| by adaptive GK15 from 8 equal panels;
    f takes the (P, 15) nodes of each round's P new panels."""
    def evaluate(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return gk_sums(half * f(0.5 * (lo + hi)[:, None] + half * XGK))

    edges = np.linspace(a, b, 9)
    return gk_refine_reference(evaluate, (edges[:-1], edges[1:]), tol, 4000)


def trapezoid_reference(f, span: float, n0: int, tol: float):
    """One integral over [0, span) by the trapezoidal rule, alone, as
    ``quadrature._trapezoid`` documents it: (value, error, N, saturated).
    ``f(theta)`` gives the integrand at the angles theta and the sum of its
    rounding bounds there; each level's new angles (``doubling_angles``) are
    evaluated afresh (no store is read), summed by add.reduce and the sums
    folded in order."""
    f0, rounding = f(doubling_angles(n0, 0, span))
    half = np.add.reduce(f0[0::2])
    total, size, n, level = half + np.add.reduce(f0[1::2]), np.add.reduce(np.abs(f0)), n0, 0
    while True:
        step = span / n
        value = step * total
        err = abs(value - 2.0 * step * half)
        if not err > tol * abs(value) or n >= quad.MAX_NODES:
            break
        n, level = 2 * n, level + 1
        new, more = f(doubling_angles(n0, level, span))
        half, total = total, total + np.add.reduce(new)
        size, rounding = size + np.add.reduce(np.abs(new)), rounding + more
    saturated = bool(err > tol * abs(value))
    floor = np.log2(n) * np.finfo(float).eps * step * size + step * rounding
    return value, max(err, floor), n, saturated


def green_trapezoid_reference(i: int, j: int, ov, tol: float):
    """I_ij by green's trapezoidal rule, alone (``trapezoid_reference``),
    from the oval's own grid, each ray solved afresh by ``point_tangent``."""
    def f(theta):
        return quad._green_terms(((i, j),), np.stack(ov.point_tangent(theta)))[0], 0.0
    return trapezoid_reference(f, 2.0 * np.pi, ov.grid_radii.size, tol)


def area2d_trapezoid_reference(i: int, j: int, ov, tol: float):
    """I_ij by area2d's trapezoidal rule in the fold angle
    x = x_c - (w/2) cos theta, alone (``trapezoid_reference``), to 0.02 tol
    from AREA2D_NODES steps, each slice and its rounding bound
    (``quadrature._slice_term_rounding``) solved afresh."""
    x0, x1 = ov.folds
    xc, w2 = 0.5 * (x0 + x1), 0.5 * (x1 - x0)

    def f(theta):
        x, dx = xc - w2 * np.cos(theta), w2 * np.sin(theta)
        r1, r2 = quad._slice_ends(ov, x)
        return (x**i * dx * (r2 ** (j + 1) - r1 ** (j + 1)) / (j + 1),
                np.add.reduce(quad._slice_term_rounding(ov, ((i, j),), x, dx, r1, r2)[0]))
    return trapezoid_reference(f, np.pi, quad.AREA2D_NODES, 0.02 * tol)


@pytest.fixture(scope="session")
def p4():
    return make_params(4.0, mu=(1.0, 0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def p2():
    return make_params(2.0)


@pytest.fixture(scope="session")
def p15():
    return make_params(1.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def tangency_reference(fvec, x0, f0, span, interval, bound):
    """``analysis._tangency`` with its arithmetic on numpy float64 scalars,
    as it was before it moved to Python floats: the reference that the
    library's fits are held to bit for bit."""
    delta = 0.5 * (span[1] - span[0])
    fmin, curv = f0, 0.0
    for _ in range(3):
        delta = min(delta, x0 - interval[0], interval[1] - x0)
        if not x0 - delta < x0 < x0 + delta:  # the stencil collapsed
            break
        st = np.array([x0 - delta, x0, x0 + delta])
        fl, fc, fr = fv = fvec(st)
        if not np.all(np.isfinite(fv)):
            raise ValueError(f"f evaluated non-finite at the tangency stencil {st}")
        tl, tr = st[0] - x0, st[2] - x0
        slope = (fc - fl) / -tl
        c2 = ((fr - fc) / tr - slope) / (tr - tl)
        if c2 == 0.0 or c2 * f0 < 0:
            break
        c1 = slope - c2 * tl
        t = -c1 / (2 * c2)
        x0 = float(min(max(x0 + t, span[0]), span[1]))
        t = min(max(t, -delta), delta)
        fmin, curv = fc + t * (c1 + c2 * t), c2
        delta /= 8.0
    return x0 if curv * f0 > 0 and abs(fmin) <= bound else None
