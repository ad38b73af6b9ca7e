"""Brute-force oracle for the moment integrals I_{i,j}(h).

    I_{i,j}(h) = iint_{region(h)} x^i y^j dx dy

where region(h) is the disk bounded by the level oval around the center
(1, 1), in either the cubic picture (region {H(x, y, h) < 0}) or the
symmetric picture (region {H(x, y) < h}).  Two independent methods:

* ``green``   reduce to a contour integral over the oval by Green's theorem,
              a smooth periodic function of the ray angle, and integrate it
              over the full turn, doubling N from the 512 rays ``oval`` has
              already solved; the primary method.  The rays (point and
              tangent) of each resolution are stored on the oval, so batches
              on one oval (a basis batch, then single indices) solve each
              ray once.
* ``area2d``  one Fubini integral over vertical slices: the oval's slice at
              x is (r1, r2), the top two roots of the slice cubic, for every
              x between the two folds (``Oval.folds``), so
              I_ij = int x^i (r2^(j+1) - r1^(j+1)) / (j+1) dx.  In the angle
              x = x_c - (w/2) cos theta between the folds the integrand is
              sin^2 theta times an even smooth function of theta, integrated
              over [0, pi].  The slices are cubics in y, solved like green's
              rays by ``model.ranked_cubic_roots``, for their top two roots
              alone; one check per oval, that the slice at the center's x
              holds the center, stands for the premise; it is solved in the
              same call as the first N's slices.  The error reported adds a
              bound on the slice ends' rounding, from the cubic's slope.

Both run one rule, ``_trapezoid``: the composite trapezoidal rule over N
equal angle steps, N doubling on the new midpoints alone until each
integral of a batch meets its own budget, which converges geometrically on
these smooth periodic (green) or even (area2d) integrands.  The six
symmetric-form basis moments are one batch; any other index is a batch of
one.
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
    doubling_angles,
    make_params,
    oval,
    ranked_cubic_roots,
)

logger = logging.getLogger(__name__)

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
    panels: int  # N, the equal angle steps, shared by the batch
    saturated: bool  # stopped at MAX_NODES with the error above its budget


@functools.cache
def cached_oval(h: float, kappa: float, form: HamiltonianForm) -> Oval:
    return oval(h, make_params(kappa), form=form)


MAX_NODES = 1 << 16  # nodes at which either method stops doubling
AREA2D_NODES = 64  # area2d's first N: 32 angles and their midpoints


def _trapezoid(terms, n0: int, span: float, tol: float, whats: list) -> list:
    """Integrals over [0, span) of smooth functions, periodic or even about
    both ends, as one batch, by the composite trapezoidal rule T_N over N
    equal steps, which converges geometrically on such an integrand.
    ``terms(level, theta)`` gives the integrands (indices, nodes) at the
    angles theta that resolution ``level`` adds (``doubling_angles``), and
    the sum over those nodes of a bound on each integrand's own rounding,
    per index (or 0.0).  N starts at n0 and doubles, each time on the N new
    midpoints alone, while an index's |T_N - T_{N/2}| (T_{N/2} sums every
    other node) is above tol |T_N|; at MAX_NODES an index still above its
    budget logs one WARNING naming whats[k] and is flagged saturated.  The
    error reported is that difference, floored by the rounding bound of the
    sum, log2(N) eps sum |terms| span / N (the bound of a pairwise sum,
    numpy's add.reduce, in eps = 2u to cover the terms' own arithmetic too),
    plus the integrands' own bound times span / N, so a converged rule never
    reports 0.  The doubling stops on the difference alone, so where the
    floor is above tol |T_N| the error reported is too, unsaturated.  Each
    resolution's nodes are summed by add.reduce and the sums folded in
    order, so a batch's bits depend on its own indices alone.  Returns
    (value, error, N, saturated) each."""
    f, rounding = terms(0, doubling_angles(n0, 0, span))
    half = np.add.reduce(f[:, 0::2], axis=1)
    total = half + np.add.reduce(f[:, 1::2], axis=1)
    size = np.add.reduce(np.abs(f), axis=1)
    n, level = n0, 0
    while True:
        step = span / n
        value = step * total
        err = np.abs(value - 2.0 * step * half)
        target = tol * np.maximum(np.abs(value), 1e-300)
        over = err > target
        if not over.any() or n >= MAX_NODES:
            break
        level += 1
        f, more = terms(level, doubling_angles(n0, level, span))
        half, total = total, total + np.add.reduce(f, axis=1)
        size, rounding = size + np.add.reduce(np.abs(f), axis=1), rounding + more
        n *= 2
    err = np.maximum(err, math.log2(n) * np.finfo(float).eps * step * size + step * rounding)
    for what, e, t in zip(np.array(whats)[over], err[over], target[over]):
        logger.warning("%s stopped at %d nodes (max_nodes=%d): error estimate %.3e above "
                       "the target %.3e (relative budget %.3e)", what, n, MAX_NODES, e, t, tol)
    return [(float(v), float(e), n, bool(o)) for v, e, o in zip(value, err, over)]


def _green_terms(ijs: tuple, rays: np.ndarray) -> np.ndarray:
    """Green's integrands (indices, nodes) of x^i y^j at the nodes' points
    and tangents: x^(i+1) y^j / (i+1) dy/dtheta, or -x^i y^(j+1) / (j+1)
    dx/dtheta for i = -1."""
    x, y, dx, dy = rays
    return np.stack([x ** (i + 1) * y**j / (i + 1) * dy if i != -1
                     else -(x**i) * y ** (j + 1) / (j + 1) * dx for i, j in ijs])


def _moments_green(ijs: tuple, ov: Oval, tol: float) -> list:
    """The green moments I_ij, (i, j) in ijs, as one batch: ``_trapezoid``
    over the full turn of the ray angle, from the oval's own grid
    (``Oval.rays(0)``, whose radii ``oval`` has solved); ``Oval.rays``
    stores the rays at the same angles."""
    return _trapezoid(lambda level, theta: (_green_terms(ijs, ov.rays(level)), 0.0),
                      ov.grid_radii.size, 2.0 * math.pi, tol,
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


def _slice_term_rounding(ov: Oval, ijs: tuple, x, dx, r1, r2) -> np.ndarray:
    """A bound (indices, nodes) on the rounding that area2d's integrands
    x^i (r2^(j+1) - r1^(j+1)) / (j+1) dx take from their slice ends r1, r2
    at x: |x|^i dx sum |r|^j dr over both ends, with dr the rounding of the
    cubic at r, eps (a |r|^3 + |p| |r| + |q|) (|p| and |q| summed in
    absolute value at |x|), over its slope |3 a r^2 + p| there.  Next to a
    fold the slope falls like the slice length, like sin theta in area2d's
    angle, and dx cancels it; at theta = 0 (dx = 0) the bound is 0."""
    a, p, q = _slice_cubic(ov)
    ax, r = np.abs(x), np.abs([r1, r2])
    pa, qa = (np.polynomial.polynomial.polyval(ax, np.abs(c)) for c in (p, q))
    slope = np.abs(3.0 * a * r * r + np.polynomial.polynomial.polyval(x, p))
    i, j = np.array(ijs).T[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.finfo(float).eps * ((a * r * r + pa) * r + qa) / slope
        return np.where(dx > 0.0, ax**i * dx * np.add.reduce(r ** j[:, None] * d, axis=1), 0.0)


def _moments_area2d(ijs: tuple, ov: Oval, tol: float) -> list:
    """The area2d moments I_ij, (i, j) in ijs, as one Fubini integral over
    vertical slices, I_ij = int x^i (r2^(j+1) - r1^(j+1)) / (j+1) dx between
    the folds x0 and x1 (``Oval.folds``), in the angle x = x_c - (w/2) cos
    theta, theta in [0, pi], with x_c and w the folds' middle and distance.
    The slice length is (w/2) sin theta times a smooth function, so the
    integrand is sin^2 theta times an even smooth function, and ``_trapezoid``
    over [0, pi) from AREA2D_NODES steps meets 0.02 tol |moment| each (the
    end theta = pi adds 0).  Each integrand's own rounding is bounded by its
    slice ends' (``_slice_term_rounding``), so the error reported covers the
    roots as well as the rule.  The folds must be the unpadded ones: a slice
    empty at the ends breaks the rule's geometric convergence.  Raises
    GeometryError unless the slice at the center's x, solved with the first
    N's slices, holds the center."""
    x0, x1 = ov.folds
    xc, half = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    cx, cy = ov.center

    def terms(level, theta):
        x, dx = xc - half * np.cos(theta), half * np.sin(theta)
        r1, r2 = _slice_ends(ov, x if level else np.append(x, cx))
        if not level:
            if not r1[-1] < cy < r2[-1]:
                raise GeometryError(f"the slice ({r1[-1]!r}, {r2[-1]!r}) at x = {cx!r} misses "
                                    f"the center y = {cy!r} (h={ov.h!r})")
            r1, r2 = r1[:-1], r2[:-1]
        f = np.stack([x**i * dx * (r2 ** (j + 1) - r1 ** (j + 1)) / (j + 1) for i, j in ijs])
        return f, np.add.reduce(_slice_term_rounding(ov, ijs, x, dx, r1, r2), axis=1)

    return _trapezoid(terms, AREA2D_NODES, math.pi, 0.02 * tol,
                      [f"area2d I_{i}_{j} at h={ov.h!r}" for i, j in ijs])


def moment(index: MomentIndex, h: float, params: ModelParams,
           method: str = "green", tol: float = 1e-8) -> MomentValue:
    """Evaluate one moment integral at level h to a relative tolerance.

    The tolerance is relative to the whole moment.  Both methods double
    their N equal angle steps (``_trapezoid``), to at most MAX_NODES: green
    from the oval's 512 rays until |T_N - T_{N/2}| <= tol |I|, area2d from
    AREA2D_NODES slices until that difference is within 0.02 tol |I|;
    ``panels`` is N.

    A symmetric-form basis index (BASIS_INDICES) brings its five siblings,
    evaluated as one batch, each to its own budget on the batch's shared
    nodes.  Results are cached per batch, (indices, h, kappa, form, method,
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
