"""Brute-force oracle for the moment integrals I_{i,j}(h).

    I_{i,j}(h) = iint_{region(h)} x^i y^j dx dy

where region(h) is the disk bounded by the level oval around the center
(1, 1), in either the cubic picture (region {H(x, y, h) < 0}) or the
symmetric picture (region {H(x, y) < h}).  Two independent methods:

* ``green``   reduce to a contour integral over the oval by Green's theorem
              and integrate with adaptive Gauss-Kronrod panels in the ray
              angle; the primary method.  The ray geometry (point and
              tangent at each panel node) is memoised on the oval, so the
              indices share the ray solves of the panels they have in common.
* ``area2d``  adaptive cell subdivision over a tight bounding box with sign
              tests on H; boundary cells are finished with exact per-column
              slices (the vertical restriction of H is a depressed cubic in
              y, solved in closed form) and adaptive Gauss-Kronrod in x.
              The geometry (box, cells, breakpoints, slice ends) does not
              depend on the index (i, j), so it is built once per oval and
              shared across indices: the fold roots are solved once per
              oval and the row crossings once per row.  Only the adaptive
              quadrature runs per index.

Both methods localize to the connected component of the region containing
the center, using the exact star-shaped membership test of the oval.  The
module also evaluates the residues of the underlying third-kind differential
and a discriminant detecting singular level curves.

Ovals are cached per (h, kappa, form) and moments per (index, h, kappa,
method, tol) in ``functools`` caches, and area2d keeps the geometry of the
last oval it integrated; ``q4lab.clear_caches`` empties all three.
"""

from __future__ import annotations

import functools
import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, SingularityError
from .model import (
    HamiltonianForm,
    ModelParams,
    Oval,
    hamiltonian,
    make_params,
    oval,
)

logger = logging.getLogger(__name__)

# Gauss-Kronrod 15 nodes on [-1, 1] and weights, with the embedded Gauss-7
# weights on the odd-indexed nodes.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993945, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993945, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126,
])
_WGK = np.array([
    0.0229353220105292, 0.0630920926299786, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.0630920926299786, 0.0229353220105292,
])
_WG = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697,
])


@dataclass(frozen=True)
class MomentIndex:
    """Index pair (i, j) of a moment, tagged with the cubic picture it lives
    in.  Negative i is admissible (the cubic-form integrands go down to
    x^-6); the integration region must then stay away from x = 0."""

    i: int
    j: int
    form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM


@dataclass(frozen=True)
class MomentValue:
    index: MomentIndex
    h: float
    value: float
    method: str
    err_estimate: float


@functools.cache
def cached_oval(h: float, kappa: float, form: HamiltonianForm) -> Oval:
    return oval(h, make_params(kappa), form=form)


def _gk_panel(f, a: float, b: float):
    """One Gauss-Kronrod 15(7) panel; returns (integral, error estimate)."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    fx = f(mid + half * _XGK)
    k = half * float(np.dot(_WGK, fx))
    g = half * float(np.dot(_WG, fx[1::2]))
    return k, abs(k - g)


def _adaptive_gk(f, a: float, b: float, tol: float, max_panels: int = 4000,
                 initial: int = 8):
    """Globally adaptive GK quadrature of a vectorized integrand.

    A call that stops at ``max_panels`` above its tolerance returns what it
    has and logs one WARNING on the ``q4lab.quadrature`` logger."""
    edges = np.linspace(a, b, initial + 1)
    heap = []
    total, err = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _gk_panel(f, lo, hi)
        heapq.heappush(heap, (-e, lo, hi, v))
        total += v
        err += e
    n = initial
    while err > tol * max(abs(total), 1e-300) and n < max_panels:
        e0, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk_panel(f, lo, mid)
        v2, e2 = _gk_panel(f, mid, hi)
        total += v1 + v2 - v
        err += e1 + e2 + e0  # e0 stored negated
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n += 1
    if err > tol * max(abs(total), 1e-300):
        logger.warning("adaptive GK on [%r, %r] stopped at max_panels=%d: error estimate "
                       "%.3e above the target %.3e (relative tol %.3e)",
                       a, b, n, err, tol * max(abs(total), 1e-300), tol)
    return total, err


def _moment_green(i: int, j: int, ov: Oval, tol: float):
    if i == -1 and j == -1:
        raise DomainError("index (-1, -1) has no polynomial antiderivative")

    if i != -1:
        def integrand(theta):
            x, y, _, dy = ov.point_tangent(theta)
            return x ** (i + 1) * y**j / (i + 1) * dy
    else:
        def integrand(theta):
            x, y, dx, _ = ov.point_tangent(theta)
            return -(x**i) * y ** (j + 1) / (j + 1) * dx

    return _adaptive_gk(integrand, 0.0, 2.0 * math.pi, tol)


# ---------------------------------------------------------------------------
# area2d: quadtree with exact vertical slices on boundary cells
# ---------------------------------------------------------------------------

def _y_cubic_coeffs(xs: np.ndarray, h: float, params: ModelParams, form: HamiltonianForm):
    """Depressed cubic a y^3 + p(x) y + q(x) for the vertical restriction of
    the level function (value < 0 inside the region)."""
    k = params.kappa
    a = k / 3.0
    if form is HamiltonianForm.SYMMETRIC_FORM:
        p = -(1.0 + (k - 1.0) * xs * xs)
        q = (2.0 / 3.0) * (k - 1.0) * xs**3 - h
    else:
        p = -(xs * xs + (k - 1.0))
        q = (2.0 / 3.0) * (k - 1.0) - h * xs**3
    return a, p, q


def _depressed_real_roots(p: np.ndarray, q: np.ndarray):
    """Real roots of t^3 + p t + q = 0, vectorized; returns (roots[n,3],
    count[n]) with roots sorted ascending and NaN padding."""
    n = p.shape[0]
    roots = np.full((n, 3), np.nan)
    disc = -4.0 * p**3 - 27.0 * q * q
    three = disc > 0.0
    if np.any(three):
        pt, qt = p[three], q[three]
        m = 2.0 * np.sqrt(-pt / 3.0)
        arg = np.clip(3.0 * qt / (pt * m), -1.0, 1.0)
        th = np.arccos(arg)
        for jj in range(3):
            roots[three, jj] = m * np.cos((th - 2.0 * np.pi * jj) / 3.0)
    one = ~three
    if np.any(one):
        po, qo = p[one], q[one]
        u = np.sqrt(np.maximum(qo * qo / 4.0 + po**3 / 27.0, 0.0))
        roots[one, 0] = np.cbrt(-qo / 2.0 + u) + np.cbrt(-qo / 2.0 - u)
    # Newton polish
    for _ in range(2):
        f = roots**3 + p[:, None] * roots + q[:, None]
        fp = 3.0 * roots * roots + p[:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            roots = roots - np.where(np.abs(fp) > 0, f / fp, 0.0)
    roots = np.sort(roots, axis=1)  # NaN sorts last
    count = np.where(three, 3, 1)
    return roots, count


def _slice_segments(xs: np.ndarray, ylo: float, yhi: float, ov: Oval):
    """For each column x, the parts of {y in [ylo, yhi] : level function < 0}
    that belong to the oval component, as a list of (keep, lo, hi): the
    columns holding a segment and that segment's clipped ends."""
    params, form, h = ov.params, ov.form, ov.h
    a, p, q = _y_cubic_coeffs(xs, h, params, form)
    roots, count = _depressed_real_roots(p / a, q / a)

    # negative set of the cubic (positive leading coefficient):
    # one real root r0:    (-inf, r0)
    # three roots r0<r1<r2: (-inf, r0) u (r1, r2)
    lo0 = np.full_like(xs, -np.inf)
    hi0 = roots[:, 0]
    segs = [(lo0, hi0)]
    has3 = count == 3
    lo1 = np.where(has3, roots[:, 1], np.nan)
    hi1 = np.where(has3, roots[:, 2], np.nan)
    segs.append((lo1, hi1))
    out = []
    for lo, hi in segs:
        lo_c = np.maximum(lo, ylo)
        hi_c = np.minimum(hi, yhi)
        valid = np.isfinite(lo_c) & np.isfinite(hi_c) & (hi_c > lo_c)
        if not np.any(valid):
            continue
        mid = 0.5 * (lo_c + hi_c)
        keep = valid.copy()
        keep[valid] &= ov.contains(xs[valid], mid[valid])
        if not np.any(keep):
            continue
        out.append((keep, lo_c[keep], hi_c[keep]))
    return out


def _slice_integrals(segments, j: int, n: int):
    """Integral of y^j over each column's segments (see _slice_segments)."""

    def anti(y):
        return y ** (j + 1) / (j + 1)

    out = np.zeros(n)
    for keep, lo, hi in segments:
        out[keep] += anti(hi) - anti(lo)
    return out


def _rect_moment(i: int, j: int, x0, x1, y0, y1):
    """Exact iint x^i y^j over a rectangle (x0 > 0 when i <= -1)."""
    if i == -1:
        ix = math.log(x1 / x0)
    else:
        ix = (x1 ** (i + 1) - x0 ** (i + 1)) / (i + 1)
    iy = (y1 ** (j + 1) - y0 ** (j + 1)) / (j + 1)
    return ix * iy


def _fold_xs(ov: Oval) -> np.ndarray:
    """Real x of the fold points of the level curve (vertical tangents,
    double y-roots): the real roots of the x-discriminant
    D(x) = -4 a p^3 - 27 a^2 q^2 of the vertical slice cubic (degree 6)."""
    params, form, h = ov.params, ov.form, ov.h
    k = params.kappa
    km = k - 1.0
    a = k / 3.0
    if form is HamiltonianForm.SYMMETRIC_FORM:
        p3 = np.polynomial.polynomial.polypow([-1.0, 0.0, -km], 3)
        q = np.array([-h, 0.0, 0.0, (2.0 / 3.0) * km])
    else:
        p3 = np.polynomial.polynomial.polypow([-km, 0.0, -1.0], 3)
        q = np.array([(2.0 / 3.0) * km, 0.0, 0.0, -h])
    q2 = np.polynomial.polynomial.polymul(q, q)
    D = -4.0 * a * np.pad(p3, (0, 7 - p3.size)) - 27.0 * a * a * q2
    return _real_parts(np.roots(D[::-1]))


def _row_crossings(ov: Oval, yrow: float) -> np.ndarray:
    """Real x where the level curve crosses the row y = yrow: the restriction
    of the level function to a row is again a cubic in x."""
    params, form, h = ov.params, ov.form, ov.h
    k = params.kappa
    km = k - 1.0
    if form is HamiltonianForm.SYMMETRIC_FORM:
        c3 = [(2.0 / 3.0) * km, -km * yrow, 0.0, (k / 3.0) * yrow**3 - yrow - h]
    else:
        c3 = [-h, -yrow, 0.0, (k / 3.0) * yrow**3 - km * yrow + (2.0 / 3.0) * km]
    return _real_parts(np.roots(c3))


def _real_parts(pts: np.ndarray) -> np.ndarray:
    return pts[np.abs(pts.imag) < 1e-9 * (1.0 + np.abs(pts.real))].real


def _piece_gk(fx, a: float, b: float, fold_lo: bool, fold_hi: bool, tol_rel: float):
    """GK integration of fx over [a, b] with square-root substitutions at
    fold endpoints, where the slice measure behaves like sqrt(x - a)."""
    if b <= a:
        return 0.0, 0.0
    if fold_lo and fold_hi:
        mid = 0.5 * (a + b)
        v1, e1 = _piece_gk(fx, a, mid, True, False, tol_rel)
        v2, e2 = _piece_gk(fx, mid, b, False, True, tol_rel)
        return v1 + v2, e1 + e2
    if fold_lo:
        w = math.sqrt(b - a)
        g = lambda t: 2.0 * t * fx(a + t * t)
        return _adaptive_gk(g, 0.0, w, tol_rel, max_panels=200, initial=2)
    if fold_hi:
        w = math.sqrt(b - a)
        g = lambda t: 2.0 * t * fx(b - t * t)
        return _adaptive_gk(g, 0.0, w, tol_rel, max_panels=200, initial=2)
    return _adaptive_gk(fx, a, b, tol_rel, max_panels=200, initial=2)


class _Area2dGeometry:
    """Everything area2d needs from one oval that does not depend on the
    moment index (i, j): the quadtree leaves in walk order, the fold roots
    and the row crossings behind the leaves' x-pieces, and a memo of the
    slice geometry per GK panel keyed by the panel's nodes and the cell
    rows.  Built once per oval and shared by all indices; the adaptive GK
    per index reads it, so every value is the one a fresh walk would give."""

    MAX_DEPTH = 4

    def __init__(self, ov: Oval):
        self.oval = ov
        # (x0, x1, y0, y1, pieces): pieces is None for a cell inside the
        # region, else the (a, b, fold_lo, fold_hi) x-pieces of a boundary cell
        self.leaves = []
        self.slices = {}
        self.fold_xs = _fold_xs(ov)
        self.crossings = {}  # row y -> _row_crossings(ov, y)
        x0, x1, y0, y1 = ov.bounding_box()
        self._walk(x0, x1, y0, y1, 0)

    def _walk(self, cx0, cx1, cy0, cy1, depth):
        ov = self.oval
        gx = np.linspace(cx0, cx1, 5)
        gy = np.linspace(cy0, cy1, 5)
        X, Y = np.meshgrid(gx, gy)
        if ov.form is HamiltonianForm.SYMMETRIC_FORM:
            S = hamiltonian(ov.form, (X, Y), ov.params) - ov.h
        else:
            S = hamiltonian(ov.form, (X, Y), ov.params, h=ov.h)
        if np.all(S > 0.0):
            return
        if np.all(S < 0.0) and bool(ov.contains(0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1))):
            self.leaves.append((cx0, cx1, cy0, cy1, None))
            return
        if depth < self.MAX_DEPTH:
            mx, my = 0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)
            self._walk(cx0, mx, cy0, my, depth + 1)
            self._walk(mx, cx1, cy0, my, depth + 1)
            self._walk(cx0, mx, my, cy1, depth + 1)
            self._walk(mx, cx1, my, cy1, depth + 1)
            return
        brk, fold_xs = self.breakpoints(cy0, cy1), self.fold_xs
        near_fold = lambda x: bool(fold_xs.size > 0 and np.min(
            np.abs(fold_xs - x)) < 1e-9 * (1.0 + abs(x)))
        inner = sorted(x for x in brk if cx0 + 1e-13 < x < cx1 - 1e-13)
        cuts = [cx0] + inner + [cx1]
        pieces = [(a_, b_, near_fold(a_), near_fold(b_))
                  for a_, b_ in zip(cuts[:-1], cuts[1:]) if b_ - a_ >= 1e-13]
        self.leaves.append((cx0, cx1, cy0, cy1, pieces))

    def breakpoints(self, cy0: float, cy1: float) -> np.ndarray:
        """Sorted x-values where the slice integrand of a cell between the
        rows cy0 and cy1 loses smoothness: fold points of the level curve
        and crossings of the curve through the two rows, from the fold
        roots solved once per oval and the crossings solved once per row."""
        rows = []
        for y in (cy0, cy1):
            cross = self.crossings.get(y)
            if cross is None:
                cross = self.crossings[y] = _row_crossings(self.oval, y)
            rows.append(cross)
        return np.unique(np.concatenate([self.fold_xs, *rows]))

    def segments(self, xs: np.ndarray, cy0: float, cy1: float):
        key = (xs.tobytes(), cy0, cy1)
        segs = self.slices.get(key)
        if segs is None:
            segs = self.slices[key] = _slice_segments(xs, cy0, cy1, self.oval)
        return segs


# the geometry of the most recently integrated oval only, so memory stays
# bounded; callers integrate all indices at one level before moving on
_area2d_geometry = functools.lru_cache(maxsize=1)(_Area2dGeometry)


def _moment_area2d(i: int, j: int, ov: Oval, tol: float):
    geo = _area2d_geometry(ov)
    total = 0.0
    err = 0.0
    for cx0, cx1, cy0, cy1, pieces in geo.leaves:
        if pieces is None:
            total += _rect_moment(i, j, cx0, cx1, cy0, cy1)
            continue

        def fx(xs, cy0=cy0, cy1=cy1):
            return xs**i * _slice_integrals(geo.segments(xs, cy0, cy1), j, xs.shape[0])

        for a_, b_, fold_lo, fold_hi in pieces:
            v, e = _piece_gk(fx, a_, b_, fold_lo, fold_hi, 0.02 * tol)
            total += v
            err += e
    return total, err


def moment(index: MomentIndex, h: float, params: ModelParams,
           method: str = "green", tol: float = 1e-8) -> MomentValue:
    """Evaluate one moment integral at level h to a relative tolerance.

    Results are cached per (index, h, kappa, method, tol): ovals and moments
    depend on kappa only, never on the perturbation weights.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    return _moment(index, h, params.kappa, method, tol)


@functools.cache
def _moment(index: MomentIndex, h: float, kappa: float, method: str,
            tol: float) -> MomentValue:
    ov = cached_oval(h, kappa, index.form)
    if index.i < 0 and ov.min_x <= 1e-6:
        raise DomainError(
            f"negative power x^{index.i}: oval reaches x = {ov.min_x}, too close to 0")
    if method == "green":
        value, err = _moment_green(index.i, index.j, ov, tol)
    elif method == "area2d":
        if index.j < 0:
            raise DomainError("area2d slicing requires j >= 0")
        value, err = _moment_area2d(index.i, index.j, ov, tol)
    else:
        raise DomainError(f"unknown method {method!r}")
    if err > 100.0 * tol * max(abs(value), 1e-12):
        raise ConvergenceError(
            f"moment {index} at h={h}: error estimate {err:.2e} above target")
    return MomentValue(index=index, h=h, value=value, method=method, err_estimate=err)


def moment_value(i: int, j: int, h: float, params: ModelParams,
                 form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM,
                 method: str = "green", tol: float = 1e-10) -> float:
    """Bare-value convenience wrapper around :func:`moment`."""
    return moment(MomentIndex(i, j, form), h, params, method=method, tol=tol).value


def basis_values(h: float, params: ModelParams, tol: float = 1e-10) -> np.ndarray:
    """The six basic symmetric-form moments
    (I00, I10, I01, I11, I-10, I-11) at level h, by the green oracle."""
    idx = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1)]
    return np.array([moment_value(i, j, h, params, tol=tol) for i, j in idx])


# ---------------------------------------------------------------------------
# residues and discriminant
# ---------------------------------------------------------------------------

def residue_value(h: float, y: float, params: ModelParams) -> float:
    """Residue of the third-kind differential at the point (0, y) on the level
    curve: (-4 h + (3 kappa h^2 - 4) y) / (kappa y^2 - 1).

    Requires y to actually solve (kappa/3) y^3 - y = h; poles sit at
    kappa y^2 = 1."""
    k = params.kappa
    resid = (k / 3.0) * y**3 - y - h
    if abs(resid) > 1e-9 * max(1.0, abs(h)):
        raise DomainError(f"y={y} is not on the level cubic (residual {resid:.2e})")
    den = k * y * y - 1.0
    if abs(den) < 1e-12:
        raise SingularityError(f"residue pole: kappa y^2 = 1 at y = {y}")
    return (-4.0 * h + (3.0 * k * h * h - 4.0) * y) / den


def curve_discriminant(h: float, params: ModelParams) -> float:
    """Discriminant-style invariant of the projective closure of the
    symmetric level cubic {H(x, y) = h}: zero exactly at singular levels.

    Affine singularities are detected through the x-discriminant of
    D(x) = disc_y(H(x, .) - h); the point at infinity contributes the
    discriminant of the leading binary cubic, which is -(4 kappa/3)
    (kappa - 1)^2 and never vanishes for kappa > 1.
    """
    k = params.kappa
    km = k - 1.0
    a = k / 3.0
    # D(x) = -4 a p(x)^3 - 27 a^2 q(x)^2, degree 6 (p, q from the y-slices)
    p3 = np.zeros(7)
    p3[0], p3[2], p3[4], p3[6] = -1.0, -3.0 * km, -3.0 * km**2, -(km**3)
    q2 = np.zeros(7)
    q2[6], q2[3], q2[0] = (4.0 / 9.0) * km**2, -(4.0 / 3.0) * km * h, h * h
    D = -4.0 * a * p3 - 27.0 * a * a * q2
    D = D / np.max(np.abs(D))
    # disc_x(D) ~ resultant(D, D') via the Sylvester matrix
    Dp = D[1:] * np.arange(1, 7)
    n, m = 6, 5
    S = np.zeros((n + m, n + m))
    for r in range(m):
        S[r, r:r + n + 1] = D[::-1]
    for r in range(n):
        S[m + r, r:r + m + 1] = Dp[::-1]
    res = float(np.linalg.det(S))
    inf_part = -(4.0 * k / 3.0) * km**2
    return res * inf_part
