"""Brute-force oracle for the moment integrals I_{i,j}(h).

    I_{i,j}(h) = iint_{region(h)} x^i y^j dx dy

where region(h) is the disk bounded by the level oval around the center
(1, 1), in either the cubic picture (region {H(x, y, h) < 0}) or the
symmetric picture (region {H(x, y) < h}).  Two independent methods:

* ``green``   reduce to a contour integral over the oval by Green's theorem
              and integrate with adaptive Gauss-Kronrod panels in the ray
              angle, from 32 equal ones; the primary method.  The ray
              geometry (point and tangent at the 15 nodes of a panel) is
              stored on the oval per panel, so batches on one oval (a basis
              batch, then single indices) solve each panel's rays once.
* ``area2d``  one Fubini integral over vertical slices: the oval's slice at
              x is (r1, r2), the top two roots of the slice cubic, for every
              x between the two folds (the x-sides of the bounding box), so
              I_ij = int x^i (r2^(j+1) - r1^(j+1)) / (j+1) dx.  The two runs
              x = x_min + t^2 and x = x_max - t^2, which meet at the middle,
              make the integrand analytic in t.  The slices are cubics in y,
              solved like green's rays by ``model.ranked_cubic_roots``, for
              their top two roots alone; one check per oval, that the slice
              at the center's x holds the center, stands for the premise; it
              is solved in the same call as the first panels' slices.

Both refine batches of integrals in one GK loop, ``_gk_refine`` (as does the
I-reconstruction check), on one panel set per batch: a panel is halved
wherever an integral of the batch needs it, as in DCUHRE and SciPy's
``quad_vec``, and each integral stops at its own budget.  The six
symmetric-form basis moments are one batch; any other index is a batch of one.
The module also evaluates the residues of the underlying third-kind
differential and a discriminant detecting singular level curves.

Ovals are cached per (h, kappa, form) and moment batches per (indices, h,
kappa, form, method, tol) in ``functools`` caches; ``q4lab.clear_caches``
empties both.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError, SingularityError
from .model import (
    HamiltonianForm,
    ModelParams,
    Oval,
    make_params,
    oval,
    ranked_cubic_roots,
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


# (i, j) of the six basic moments I00, I10, I01, I11, I-10, I-11
BASIS_INDICES = ((0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1))


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
    panels: int  # GK panels at the end, shared by every moment of its batch
    saturated: bool  # stopped at the panel cap with the error above its budget


@functools.cache
def cached_oval(h: float, kappa: float, form: HamiltonianForm) -> Oval:
    return oval(h, make_params(kappa), form=form)


def _gk_sums(fx: np.ndarray):
    """GK15(7) value and error estimate of each panel from its weighted
    integrand values fx (..., P, 15), the weights holding the half-width,
    summed over the last axis by numpy's add.reduce: a BLAS gemv's bits vary
    with the kernel."""
    k = np.add.reduce(fx * _WGK, axis=-1)
    return k, np.abs(k - np.add.reduce(fx[..., 1::2] * _WG, axis=-1))


def _gk_refine(nodes, sums, panels: tuple, first: tuple, rel: float, max_panels: int,
               whats: list) -> list:
    """Integral k is the GK sum over the batch's one panel set, from first
    panels (arrays of any tags, then the ends lo and hi) whose node data
    ``first`` the caller solves (``nodes(*panels)``, or with more points in
    the same call), to its own budget
    rel |integral| (QUADPACK's QAG criterion).  Each round halves every
    panel where an integral above its budget errs by more than an even share
    of it, and each such integral's worst; the worst by their largest error go
    first when ``max_panels`` has less room.  Stopped there, an integral above
    its budget logs one WARNING naming whats[k].  ``nodes(*panels)`` gives the
    node data of each round's new panels, ``sums(*data)`` their (integrals,
    panels) values and errors.  Returns (value, error, panels, saturated) each."""
    value, err = sums(*first)
    while True:
        total, est = np.add.reduce(value, axis=1), np.add.reduce(err, axis=1)
        target, size = rel * np.maximum(np.abs(total), 1e-300), value.shape[1]
        over = est > target
        if not over.any() or size >= max_panels:
            for k in np.flatnonzero(over):
                logger.warning("%s stopped at %d panels (max_panels=%d): error estimate "
                               "%.3e above the target %.3e (relative budget %.3e)",
                               whats[k], size, max_panels, est[k], target[k], rel)
            return [(float(t), float(e), size, bool(o)) for t, e, o in zip(total, est, over)]
        worst = err[over]
        split = (worst > (target[over] / size)[:, None]).any(axis=0)
        split[worst.argmax(axis=1)] = True  # each one's worst, should rounding leave none above
        if np.count_nonzero(split) > max_panels - size:  # the worst first, to end at the cap
            rank = np.argsort(-worst.max(axis=0), kind="stable")
            split = np.isin(np.arange(size), rank[:max_panels - size])
        *tags, lo, hi = (a[split] for a in panels)
        mid = 0.5 * (lo + hi)
        new = (*(np.tile(t, 2) for t in tags), np.concatenate([lo, mid]),
               np.concatenate([mid, hi]))
        v, e = sums(*nodes(*new))
        panels = tuple(np.concatenate([a[~split], b]) for a, b in zip(panels, new))
        value, err = (np.concatenate([a[:, ~split], b], axis=1) for a, b in ((value, v), (err, e)))


def _adaptive_gk(f, a: float, b: float, tol: float, max_panels: int = 4000):
    """f over [a, b] to tol |integral| from 8 equal panels; f takes the
    (P, 15) nodes of each round's P new panels."""
    def nodes(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return half, f(0.5 * (lo + hi)[:, None] + half * _XGK)

    edges = np.linspace(a, b, 9)
    panels = (edges[:-1], edges[1:])
    return _gk_refine(nodes, lambda half, fx: _gk_sums(half * fx[None]), panels, nodes(*panels),
                      tol, max_panels, [f"adaptive GK on [{a!r}, {b!r}]"])[0][:2]


GREEN_START_PANELS = 32  # equal angle panels green starts from


def _moments_green(ijs: tuple, ov: Oval, tol: float) -> list:
    """The green moments I_ij, (i, j) in ijs, refined as one batch from
    GREEN_START_PANELS equal angle panels; one ``point_tangent`` call per
    round.  A ray solve costs about the same for 8 panels' nodes as for 32,
    and 32 save most levels two rounds."""
    def nodes(lo, hi):
        half = 0.5 * (hi - lo)[:, None]
        return (half, *ov.point_tangent(0.5 * (lo + hi)[:, None] + half * _XGK))

    def sums(half, x, y, dx, dy):
        return _gk_sums(half * np.stack([
            x ** (i + 1) * y**j / (i + 1) * dy if i != -1 else -(x**i) * y ** (j + 1) / (j + 1) * dx
            for i, j in ijs]))

    edges = np.linspace(0.0, 2.0 * math.pi, GREEN_START_PANELS + 1)
    panels = (edges[:-1], edges[1:])
    return _gk_refine(nodes, sums, panels, nodes(*panels), tol, 4000,
                      [f"green I_{i}_{j} at h={ov.h!r}" for i, j in ijs])


# ---------------------------------------------------------------------------
# area2d: vertical slices between the oval's two folds
# ---------------------------------------------------------------------------

def _slice_cubic(ov: Oval):
    """Depressed cubic a y^3 + p(x) y + q(x) for the vertical restriction of
    the level function (value < 0 inside the region): a and the coefficients
    of p and q in ascending powers of x."""
    km = ov.params.kappa - 1.0
    if ov.form is HamiltonianForm.SYMMETRIC_FORM:
        return ov.params.kappa / 3.0, [-1.0, 0.0, -km], [-ov.h, 0.0, 0.0, (2.0 / 3.0) * km]
    return ov.params.kappa / 3.0, [-km, 0.0, -1.0], [(2.0 / 3.0) * km, 0.0, 0.0, -ov.h]


def _slice_ends(ov: Oval, x: np.ndarray):
    """The middle and top roots (r1, r2) of the slice cubic at each x, in
    the shape of x: with a > 0, {G < 0} on the line is (-inf, r0) u (r1, r2),
    and (r1, r2) is the oval's slice: the roots of rank 1 and 0, ordered
    after their polish, which can swap them where they nearly merge, next to
    a fold.  Where the cubic has one real root (past a fold, to rounding),
    rank 1 is NaN and both ends are 0, an empty slice."""
    a, p, q = _slice_cubic(ov)
    p, q = (np.polynomial.polynomial.polyval(x.ravel(), c) for c in (p, q))
    mid, top = ranked_cubic_roots(a, 0.0, p, q, (1, 0)).T
    r = np.nan_to_num([np.minimum(mid, top), np.maximum(mid, top)])  # NaN propagates
    return tuple(r.reshape((2,) + x.shape))


def _slice_nodes(ov: Oval, base: np.ndarray, sign: np.ndarray, t_lo: np.ndarray,
                 t_hi: np.ndarray, premise: bool = False):
    """GK15 nodes x (P, 15) of the panels [t_lo, t_hi], each on its run
    x = base + sign t^2 from a fold, where the slice length behaves like
    sqrt(|x - base|), so the integrand is analytic in t.  Returns x, the
    weights w (half-width times |dx/dt|) and the slice ends (r1, r2) at the
    nodes.  With ``premise``, the slice at the center's x is solved in the
    same call (each slice keeps its bits), and GeometryError is raised
    unless it holds the center: the slice (r1, r2) is then the oval's, for
    every x between the folds."""
    half = 0.5 * (t_hi - t_lo)[:, None]
    t = 0.5 * (t_lo + t_hi)[:, None] + half * _XGK
    x = base[:, None] + sign[:, None] * (t * t)
    if not premise:
        return (x, 2.0 * half * t, *_slice_ends(ov, x))
    (cx, cy), n = ov.center, x.size
    r1, r2 = _slice_ends(ov, np.append(x, cx))
    if not r1[n] < cy < r2[n]:
        raise GeometryError(f"the slice ({r1[n]!r}, {r2[n]!r}) at x = {cx!r} misses the "
                            f"center y = {cy!r} (h={ov.h!r})")
    return x, 2.0 * half * t, r1[:n].reshape(x.shape), r2[:n].reshape(x.shape)


# panels after which an area2d moment stops refining; c01's grid ends on
# the 8 initial ones at tol 1e-8, and below 1e-13 rounding limits the estimate
AREA2D_MAX_PANELS = 2000
AREA2D_RUN_PANELS = 4  # equal initial panels on each of the two runs


def _panels_gk(ijs: tuple, nodes):
    """GK15(7) values and error estimates (indices, panels) of x^i y^j,
    (i, j) in ijs, on each panel."""
    x, w, r1, r2 = nodes
    return _gk_sums(np.stack([x**i * w * (r2 ** (j + 1) - r1 ** (j + 1)) / (j + 1)
                              for i, j in ijs]))


def _area2d_panels(ov: Oval) -> tuple:
    """The initial panels (base, sign, t_lo, t_hi) of area2d: AREA2D_RUN_PANELS
    equal ones on each of the runs x = x_min + t^2 and x = x_max - t^2, with
    x_min and x_max the x-sides of the bounding box, which are the folds;
    the runs meet at the middle."""
    x_min, x_max = ov.bounding_box()[:2]
    edges = np.linspace(0.0, math.sqrt(0.5 * (x_max - x_min)), AREA2D_RUN_PANELS + 1)
    return (np.repeat([x_min, x_max], AREA2D_RUN_PANELS),
            np.repeat([1.0, -1.0], AREA2D_RUN_PANELS), np.tile(edges[:-1], 2),
            np.tile(edges[1:], 2))


def _moments_area2d(ijs: tuple, ov: Oval, tol: float) -> list:
    """The area2d moments I_ij, (i, j) in ijs, as one Fubini integral over
    vertical slices, I_ij = int x^i (r2^(j+1) - r1^(j+1)) / (j+1) dx on
    [x_min, x_max]: one batched GK pass over the two runs' panels, to
    0.02 tol |moment| each.  Raises GeometryError unless the slice at the
    center's x, solved with the first panels' slices, holds the center."""
    panels = _area2d_panels(ov)
    return _gk_refine(lambda *new: _slice_nodes(ov, *new), lambda *nodes: _panels_gk(ijs, nodes),
                      panels, _slice_nodes(ov, *panels, True), 0.02 * tol, AREA2D_MAX_PANELS,
                      [f"area2d I_{i}_{j} at h={ov.h!r}" for i, j in ijs])


def moment(index: MomentIndex, h: float, params: ModelParams,
           method: str = "green", tol: float = 1e-8) -> MomentValue:
    """Evaluate one moment integral at level h to a relative tolerance.

    The tolerance is relative to the whole moment, and each method spends
    it as one error budget shared by all of its panels: green's angle panels
    get tol |I| and at most 4000 panels, from GREEN_START_PANELS equal ones;
    area2d's slice panels 0.02 tol |I| and at most AREA2D_MAX_PANELS, from
    AREA2D_RUN_PANELS on each of its two runs.

    A symmetric-form basis index (BASIS_INDICES) brings its five siblings,
    refined as one batch, each to its own budget on the batch's shared
    panels.  Results are cached per batch, (indices, h, kappa, form, method,
    tol): ovals and moments depend on kappa only, never on the weights.
    """
    return _moment(index, h, params.kappa, method, tol)


def _moment(index: MomentIndex, h: float, kappa: float, method: str,
            tol: float) -> MomentValue:
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    ov = cached_oval(h, kappa, index.form)
    ij, bad = (index.i, index.j), {"green": index.i == index.j == -1, "area2d": index.j < 0}
    if index.i < 0 and ov.min_x <= 1e-6:
        raise DomainError(f"negative power x^{index.i}: oval reaches x = {ov.min_x} near 0")
    if bad.get(method, True):  # green has no polynomial antiderivative for (-1, -1)
        raise DomainError(f"no {method!r} moment I_{index.i}_{index.j} (methods: green, "
                          "except (-1, -1); area2d, for j >= 0)")
    batch = tuple(b for b in BASIS_INDICES if b[0] >= 0 or ov.min_x > 1e-6) if (
        index.form is HamiltonianForm.SYMMETRIC_FORM and ij in BASIS_INDICES) else (ij,)
    value, err, panels, saturated = _moments(batch, h, kappa, index.form, method, tol)[
        batch.index(ij)]
    if err > 100.0 * tol * max(abs(value), 1e-12):
        raise ConvergenceError(
            f"moment {index} at h={h}: error estimate {err:.2e} above target")
    return MomentValue(index, h, value, method, err, panels, saturated)


@functools.cache
def _moments(ijs: tuple, h: float, kappa: float, form: HamiltonianForm, method: str,
             tol: float) -> tuple:
    ov = cached_oval(h, kappa, form)
    return tuple((_moments_green if method == "green" else _moments_area2d)(ijs, ov, tol))


def moment_value(i: int, j: int, h: float, params: ModelParams,
                 form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM,
                 method: str = "green", tol: float = 1e-10) -> float:
    """Bare-value convenience wrapper around :func:`moment`."""
    return moment(MomentIndex(i, j, form), h, params, method=method, tol=tol).value


def basis_values(h: float, params: ModelParams, tol: float = 1e-10) -> np.ndarray:
    """The six basic symmetric-form moments I_{i,j}, (i, j) in BASIS_INDICES,
    at level h, by the green oracle, refined as one batch (not through
    :func:`moment`)."""
    return np.array([_moment(MomentIndex(i, j), h, params.kappa, "green", tol).value
                     for i, j in BASIS_INDICES])


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
