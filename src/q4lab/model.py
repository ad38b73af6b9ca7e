"""Geometry of the codimension-four quadratic center.

The unperturbed system, written in the complex coordinate z = x + iy, is

    dz/dt = -i z + 4 z^2 + 2 |z|^2 + alpha * conj(z)^2,   |alpha| = 2,

with alpha = b + i c not real.  It carries the rational first integral
Hcal = phi^2 / psi^3 (phi cubic, psi quadratic).  Three further avatars of
the first integral are used throughout the lab:

* ``XY_form``        H(X, Y) after the substitution X^2 = psi, X > 0; its
                     level value is called t.
* ``cubic_form``     the level-t equation rewritten as a cubic
                     H(x, y, h) = 0 with h = 8 (2 - b) t and y shifted so
                     that the center sits at (1, 1).
* ``symmetric_form`` the image of the cubic form under
                     (x, y) -> (1/x, y/x); it is odd under the point
                     reflection (x, y) -> (-x, -y) and its level sets are
                     written {H(x, y) = h}.

In both the cubic and the symmetric picture the period annulus surrounds
the center (1, 1) and corresponds to levels h in (-2/3, -2/(3 sqrt(kappa))),
where kappa = 4 / (2 + b) > 1.  This module owns the parameter record, the
four first-integral forms, the coordinate change, critical levels, level
classification, the one closed-form solver for the real roots of every
cubic in the lab, and the construction of level ovals used by every
quadrature downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateLevelError,
    DomainError,
    GeometryError,
    SingularityError,
)

# Ovals refuse levels closer than this to a window endpoint: the oval is a
# point at the center level and a homoclinic loop at the saddle level.
ENDPOINT_EXCLUSION = 1e-10
ENDPOINT_TOL = 1e-12      # level_classify's relative width of the two endpoint classes
CHORD_DEFECT_TOL = 5e-3   # an oval's rays are refined where a chord misses by more (relative)


class HamiltonianForm(str, Enum):
    ORIGINAL_RATIONAL = "original_rational"
    XY_FORM = "XY_form"
    CUBIC_FORM = "cubic_form"
    SYMMETRIC_FORM = "symmetric_form"


class Window(str, Enum):
    CENTER_END = "center_end"
    INTERIOR = "interior"
    SADDLE_END = "saddle_end"
    EXTENDED = "extended"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class ModelParams:
    """Model constants: kappa, the derived (b, c, alpha), and the
    perturbation weights mu = (mu1, mu2, mu3, mu4).

    c is fixed to the positive square root of 4 - b^2; the sign only flips
    the orientation of the coordinate change and every integral studied here
    is invariant under it.
    """

    kappa: float
    b: float
    c: float
    alpha: complex
    mu: tuple[float, float, float, float]

    @property
    def saddle_h(self) -> float:
        return -2.0 / (3.0 * math.sqrt(self.kappa))

    @property
    def center_h(self) -> float:
        return -2.0 / 3.0


def make_params(kappa: float, mu=(0.0, 0.0, 0.0, 0.0)) -> ModelParams:
    """Build the parameter record for a given kappa > 1.

    Raises DomainError for kappa <= 1 or non-finite kappa: the relation
    kappa = 4 / (2 + b) forces b in (-2, 2) and the derived c real positive
    only in that range.
    """
    if not (isinstance(kappa, (int, float)) and math.isfinite(kappa)):
        raise DomainError(f"kappa must be finite, got {kappa!r}")
    if kappa <= 1.0:
        raise DomainError(f"kappa must exceed 1, got {kappa}")
    mu = tuple(float(m) for m in mu)
    if len(mu) != 4:
        raise DomainError("mu must have exactly four components")
    b = 4.0 / kappa - 2.0
    c = math.sqrt(4.0 - b * b)
    return ModelParams(kappa=float(kappa), b=b, c=c, alpha=complex(b, c), mu=mu)


# ---------------------------------------------------------------------------
# First-integral forms
# ---------------------------------------------------------------------------

def phi(x, y, params: ModelParams):
    Y = params.c * x - (2.0 + params.b) * y
    return 8.0 * y * (1.0 + Y) - (2.0 / 3.0) * (1.0 + params.kappa * Y**3)


def psi(x, y, params: ModelParams):
    Y = params.c * x - (2.0 + params.b) * y
    return 1.0 - 8.0 * y + params.kappa * Y**2


def in_omega(x, y, params: ModelParams):
    """Membership in the domain Omega = {phi < 0 < psi} that contains the
    period annulus (sign tests only; Omega is never stored as a region)."""
    return (phi(x, y, params) < 0.0) & (psi(x, y, params) > 0.0)


def hamiltonian(form, point, params: ModelParams, h: float | None = None):
    """Evaluate the requested first-integral expression at ``point``.

    ``original_rational`` returns Hcal = phi^2/psi^3; ``XY_form`` expects the
    point in (X, Y) coordinates; ``cubic_form`` needs the level h and returns
    the left side of the level equation H(x, y, h) = 0; ``symmetric_form``
    returns the odd cubic whose level sets are {. = h}.
    """
    form = HamiltonianForm(form)
    x, y = point
    k = params.kappa
    if form is HamiltonianForm.ORIGINAL_RATIONAL:
        ps = psi(x, y, params)
        if np.any(np.asarray(ps) == 0.0):
            raise SingularityError("psi vanishes at the requested point")
        return phi(x, y, params) ** 2 / ps**3
    if form is HamiltonianForm.XY_FORM:
        X, Yv = x, y
        return (
            X**-3
            / (8.0 * (2.0 - params.b))
            * ((k / 3.0) * Yv**3 + k * Yv**2 + (1.0 - X**2) * Yv - X**2 + 1.0 / 3.0)
        )
    if form is HamiltonianForm.CUBIC_FORM:
        if h is None:
            raise DomainError("cubic_form requires the level h")
        return (k / 3.0) * y**3 - x**2 * y - h * x**3 - (k - 1.0) * y + (2.0 / 3.0) * (k - 1.0)
    # symmetric form
    return (2.0 / 3.0) * (k - 1.0) * x**3 - (k - 1.0) * x**2 * y + (k / 3.0) * y**3 - y


def coordinate_map(point, params: ModelParams):
    """(x, y) -> (X, Y) with X = +sqrt(psi), Y = c x - (2 + b) y.

    Defined where psi > 0; on Omega this realizes the correspondence
    Hcal(x, y) = 64 (2 - b)^2 * H(X, Y)^2 with H the XY-form integral.
    """
    x, y = point
    ps = psi(x, y, params)
    if ps <= 0.0:
        raise DomainError(f"psi(point) = {ps} is not positive")
    return math.sqrt(ps), params.c * x - (2.0 + params.b) * y


def critical_levels(params: ModelParams) -> dict:
    """Critical points and level values of the symmetric form.

    The annulus center (1, 1) sits on level -2/3 for every kappa; the saddle
    limiting the annulus is (0, 1/sqrt(kappa)) on level -2/(3 sqrt(kappa)).
    """
    k = params.kappa
    return {
        "center_h": -2.0 / 3.0,
        "saddle_h": -2.0 / (3.0 * math.sqrt(k)),
        "center_point": (1.0, 1.0),
        "saddle_point": (0.0, 1.0 / math.sqrt(k)),
    }


# ---------------------------------------------------------------------------
# Level bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelPoint:
    """A level in all three parameterizations: h (cubic/symmetric forms),
    t = h / (8 (2 - b)) (XY form), and s = (9 kappa / 4) h^2 (the
    hypergeometric variable; s in (1, kappa) on the annulus)."""

    h: float
    t: float
    s: float
    window: Window


def level_classify(h: float, params: ModelParams) -> LevelPoint:
    if not math.isfinite(h):
        raise DomainError("level h must be finite")
    t = h / (8.0 * (2.0 - params.b))
    s = s_from_h(h, params)
    hc, hs = params.center_h, params.saddle_h
    scale = max(1.0, abs(h))
    if abs(h - hc) <= ENDPOINT_TOL * scale:
        window = Window.CENTER_END
    elif abs(h - hs) <= ENDPOINT_TOL * scale:
        window = Window.SADDLE_END
    elif hc < h < hs:
        window = Window.INTERIOR
    elif h < hc:
        window = Window.EXTENDED
    else:
        window = Window.OUTSIDE
    return LevelPoint(h=h, t=t, s=s, window=window)


def interior_levels(params: ModelParams, n: int, lo: float = 0.1, hi: float = 0.9) -> np.ndarray:
    """n levels h at fractions [lo, hi] of the way from the center level to
    the saddle level; the workhorse grid for sweeps and residual checks."""
    hc, hs = params.center_h, params.saddle_h
    q = np.linspace(lo, hi, n)
    return hc + q * (hs - hc)


def s_from_h(h: float, params: ModelParams) -> float:
    return (9.0 * params.kappa / 4.0) * h * h


def h_from_s(s: float, params: ModelParams) -> float:
    """Inverse of s = (9 kappa/4) h^2 on the annulus branch h < 0."""
    if s <= 0.0:
        raise DomainError(f"s must be positive, got {s}")
    return -(2.0 / 3.0) * math.sqrt(s / params.kappa)


# ---------------------------------------------------------------------------
# Cubic utilities
# ---------------------------------------------------------------------------

def ranked_cubic_roots(a3, a2, a1, a0, ranks) -> np.ndarray:
    """The real roots of a3 x^3 + a2 x^2 + a1 x + a0 (a3 nonzero; scalars or
    arrays of one shape) of the given ranks, flattened: shape (n, len(ranks)).
    Rank 0 is the largest root, 1 the middle one and 2 the smallest; where
    the cubic has one real root it is rank 0, and ranks 1 and 2 are NaN.

    The depressed cubic t^3 + 3 P t + 2 R (x = t - a2 / (3 a3)) is solved in
    the trigonometric form where D = R^2 + P^3 < 0 (three real roots), whose
    k-th root is the one of rank k, else in Cardano's form without
    cancellation; two Newton steps on the original cubic polish each root on
    its own, so a root's bits do not depend on which others are asked for.
    Every cubic of the lab is solved here.
    """
    a3, a2, a1, a0 = (np.reshape(a, (-1, 1)) for a in (a3, a2, a1, a0))
    k = np.asarray(ranks, dtype=float)
    da3, da2 = 3.0 * a3, 2.0 * a2  # the derivative's leading coefficients
    b, c = a2 / da3, a1 / da3
    bb = b * b
    P = c - bb
    R = b * (bb - 1.5 * c) + a0 / (2.0 * a3)
    D = R * R + P * P * P
    root = np.sqrt(np.abs(D))
    with np.errstate(divide="ignore", invalid="ignore"):
        # t = 2 sqrt(-P) cos(phi - 2 pi k / 3), (-P)^1.5 (cos, sin)(3 phi) = (-R, sqrt(-D)),
        # with phi in [0, pi / 3], so the cosines fall with k
        phi = np.arctan2(root, -R) / 3.0
        x = 2.0 * np.sqrt(-P) * np.cos(phi - (2.0 * np.pi / 3.0) * k)
        if not np.all(D < 0.0):  # Cardano's form where there is one real root
            u = np.copysign(np.cbrt(np.abs(R) + root), -R)
            cardano = np.where(u != 0.0, u - P / u, 0.0) * np.where(k == 0.0, 1.0, np.nan)
            x = np.where(D < 0.0, x, cardano)
        x = x - b
        for _ in range(2):
            f = ((a3 * x + a2) * x + a1) * x + a0
            fp = (da3 * x + da2) * x + a1
            x = x - np.where(fp != 0.0, f / fp, 0.0)
    return x


def cubic_real_roots(a3, a2, a1, a0) -> np.ndarray:
    """All real roots of the cubic, the three ranks of :func:`ranked_cubic_roots`
    ascending: shape (n, 3), NaN for each complex root (so a single real root
    sits in column 0)."""
    return np.sort(ranked_cubic_roots(a3, a2, a1, a0, (0, 1, 2)), axis=1)  # NaN sorts last


def real_roots_y(h: float, params: ModelParams) -> list[tuple[float, int]]:
    """All real roots of (kappa/3) y^3 - y = h, ascending, as
    (root, multiplicity) pairs, from :func:`cubic_real_roots`.

    For h below the saddle level -2/(3 sqrt(kappa)) there is exactly one
    real root; between the two fold values +-2/(3 sqrt(kappa)) there are
    three.  Levels within 1e-12 (relative discriminant) of a fold report a
    double root at -sign(h)/sqrt(kappa) and the simple root beside it.
    """
    if not math.isfinite(h):
        raise DomainError("h must be finite")
    k = params.kappa
    ys = cubic_real_roots(k / 3.0, 0.0, -1.0, -h)[0]
    # discriminant of the depressed cubic y^3 + P y + Q, P = -3/k, Q = -3h/k
    P, Q = -3.0 / k, -3.0 * h / k
    if abs(-4.0 * P**3 - 27.0 * Q * Q) <= 1e-12 * max(abs(4.0 * P**3), 27.0 * Q * Q, 1e-300):
        # the simple root lies below a positive double root (h < 0), above a negative one
        double = math.copysign(math.sqrt(-P / 3.0), -h)
        simple = ys[0] if double > 0.0 else np.nanmax(ys)
        return sorted([(float(simple), 1), (double, 2)])
    return [(float(y), 1) for y in ys[np.isfinite(ys)]]


def _smallest_positive_roots(C, Q, L, K):
    """Vectorized smallest positive real root r of C r^3 + Q r^2 + L r + K,
    NaN where there is none: 1/u for the largest positive root u of the
    reversed cubic K u^3 + L u^2 + Q u + C, whose leading coefficient
    K = H(center) - level never vanishes on the annulus (C does, where the
    ray cubic drops to a quadratic), then three guarded Newton steps in r."""
    u = ranked_cubic_roots(K, L, Q, C, (0,))[:, 0]
    out = 1.0 / np.where(u > 0.0, u, np.nan)

    # three guarded Newton steps on the original cubic, each at most half the radius
    dC, dQ = 3.0 * C, 2.0 * Q
    for _ in range(3):
        fval = ((C * out + Q) * out + L) * out + K
        fder = (dC * out + dQ) * out + L
        step = np.where(fder != 0.0, fval / fder, 0.0)
        half = 0.5 * np.abs(out)
        out = out - np.minimum(np.maximum(step, -half), half)
    return out


# ---------------------------------------------------------------------------
# Level ovals
# ---------------------------------------------------------------------------

def _center_taylor(h, params: ModelParams, form: HamiltonianForm, center) -> tuple:
    """The Taylor terms of the level function G at the center: G, its
    gradient, its Hessian and its third derivatives (xxx, xxy, xyy, yyy)."""
    k = params.kappa
    cx, cy = center
    sym = form is HamiltonianForm.SYMMETRIC_FORM
    third = (4.0 * (k - 1.0), -2.0 * (k - 1.0)) if sym else (-6.0 * h, -2.0)
    return (_level_fn(cx, cy, h, params, form), *_grad(cx, cy, h, params, form),
            *_hess(cx, cy, h, params, form), *third, 0.0, 2.0 * k)


def _ray_poly_coeffs(c, s, taylor):
    """Coefficients (C, Q, L, K) of the restriction of the level function to
    the rays center + r (c, s), c and s the cosine and sine of their angles;
    exact because it is cubic, from its Taylor terms at the center."""
    K0, Hx, Hy, Hxx, Hxy, Hyy, Hxxx, Hxxy, Hxyy, Hyyy = taylor
    K = np.full_like(c, K0)
    L = Hx * c + Hy * s
    Q = 0.5 * (Hxx * c * c + 2.0 * Hxy * c * s + Hyy * s * s)
    C = (1.0 / 6.0) * (Hxxx * (c * c * c) + 3.0 * Hxxy * c * c * s + 3.0 * Hxyy * c * s * s
                       + Hyyy * (s * s * s))
    return C, Q, L, K


def _taylor_jet(taylor, u, v):
    """The level function G and its first and second derivatives (G, Gu, Gv,
    Guu, Guv, Gvv) at center + (u, v), from its Taylor terms at the center:
    exact, since G is cubic, and in coordinates where a small oval's terms
    stay small."""
    K0, Hx, Hy, Hxx, Hxy, Hyy, Hxxx, Hxxy, Hxyy, Hyyy = taylor
    Guu, Guv, Gvv = Hxx + Hxxx * u + Hxxy * v, Hxy + Hxxy * u + Hxyy * v, Hyy + Hxyy * u + Hyyy * v
    G = (K0 + Hx * u + Hy * v + 0.5 * (u * (Hxx * u + 2.0 * Hxy * v) + Hyy * v * v)
         + (u * u * (Hxxx * u + 3.0 * Hxxy * v) + v * v * (3.0 * Hxyy * u + Hyyy * v)) / 6.0)
    Gu = Hx + 0.5 * (u * (Hxx + Guu) + v * (Hxy + Guv))
    Gv = Hy + 0.5 * (u * (Hxy + Guv) + v * (Hyy + Gvv))
    return G, Gu, Gv, Guu, Guv, Gvv


def _level_fn(x, y, h, params: ModelParams, form: HamiltonianForm):
    """The level function G, zero on the level set and negative inside the
    oval: H - h in the symmetric picture, H(x, y, h) in the cubic one."""
    shift = h if form is HamiltonianForm.SYMMETRIC_FORM else 0.0
    return hamiltonian(form, (x, y), params, h=h) - shift


def _grad(x, y, h, params: ModelParams, form: HamiltonianForm):
    k = params.kappa
    if form is HamiltonianForm.SYMMETRIC_FORM:
        Hx = 2.0 * (k - 1.0) * x * (x - y)
        Hy = -(k - 1.0) * x * x + k * y * y - 1.0
    else:
        Hx = -2.0 * x * y - 3.0 * h * x * x
        Hy = k * y * y - x * x - (k - 1.0)
    return Hx, Hy


def _hess(x, y, h, params: ModelParams, form: HamiltonianForm):
    k = params.kappa
    if form is HamiltonianForm.SYMMETRIC_FORM:
        return 2.0 * (k - 1.0) * (2.0 * x - y), -2.0 * (k - 1.0) * x, 2.0 * k * y
    return -2.0 * y - 6.0 * h * x, -2.0 * x, 2.0 * k * y


@dataclass(eq=False)
class Oval:
    """A closed level oval in one of the cubic pictures, hashed by identity.

    ``points`` is a closed counterclockwise polyline (first vertex repeated
    at the end) that witnesses the geometry; quadratures never interpolate it
    but evaluate the curve exactly through :meth:`r_theta` /
    :meth:`point_tangent`, which solve the exact cubic restricted to each ray
    from the center.
    """

    level: LevelPoint
    points: np.ndarray
    center: tuple[float, float]
    form: HamiltonianForm
    params: ModelParams = field(repr=False)
    taylor: tuple = field(repr=False)  # G's Taylor terms at the center
    min_x: float = 0.0
    _bbox: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _tangents: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def h(self) -> float:
        return self.level.h

    def r_theta(self, theta):
        """Ray radius at each angle, in the shape of an angle array of two or
        more dimensions (a scalar or 1-d array gives a 1-d array)."""
        theta = np.asarray(theta, dtype=float)
        r = self._radii(np.cos(theta), np.sin(theta))
        return r if theta.ndim > 1 else r.reshape(-1)

    def _radii(self, c, s):
        """Ray radius for each ray direction (c, s), in their shape."""
        r = _smallest_positive_roots(*_ray_poly_coeffs(c.reshape(-1), s.reshape(-1), self.taylor))
        if np.any(~np.isfinite(r)):
            raise GeometryError("ray from the center failed to bracket the oval")
        return r.reshape(c.shape)

    def point_tangent(self, theta):
        """Point on the oval and d(point)/d(theta), exact to rounding, as
        read-only arrays shaped like theta (a scalar gives shape (1,)).

        The radius derivative comes from implicit differentiation of
        H(center + r e(theta)) = level.  Stored per oval and row (green's 15
        GK nodes of one panel), keyed by the row's bytes, the rows not seen
        before solved in one call: batches on one oval (a basis batch, then
        single indices) share panels, and each is solved once.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        rows = theta.reshape(-1, theta.shape[-1])
        keys = [row.tobytes() for row in rows]
        new = {k: n for n, k in enumerate(keys) if k not in self._tangents}
        if new:
            solved = np.stack(self._point_tangent(rows[list(new.values())]))
            self._tangents.update(zip(new, solved.swapaxes(0, 1)))  # (4, n) per row
        out = (solved if len(new) == len(keys)  # all new: no gather
               else np.stack([self._tangents[k] for k in keys], axis=1)).reshape((4,) + theta.shape)
        out.flags.writeable = False
        return tuple(out)

    def _point_tangent(self, theta):
        c, s = np.cos(theta), np.sin(theta)
        r = self._radii(c, s)
        x = self.center[0] + r * c
        y = self.center[1] + r * s
        Hx, Hy = _grad(x, y, self.h, self.params, self.form)
        Fr = Hx * c + Hy * s
        Fth = r * (-Hx * s + Hy * c)
        rp = -Fth / Fr
        dx = rp * c - r * s
        dy = rp * s + r * c
        return x, y, dx, dy

    def bounding_box(self):
        """Tight box around the oval, padded by 1e-12 of its width.  Each side
        is one scalar Newton solve, from the polyline's extreme vertex, of
        {G = 0, dG/dy = 0} (the x sides) or {G = 0, dG/dx = 0} (the y sides)
        for the level function G in coordinates shifted to the center, from
        its Taylor terms there (``_taylor_jet``); the converged point gives
        the side.  Raises GeometryError after 8 steps, or for a point outside
        its start vertex's polyline neighbours.  Computed once."""
        if self._bbox is not None:
            return self._bbox
        vx, vy = self.points[:-1].T
        cx, cy = self.center
        k0 = np.array([np.argmin(vx), np.argmax(vx), np.argmin(vy), np.argmax(vy)])
        width = np.repeat([np.ptp(vx), np.ptp(vy)], 2)  # x min, x max, y min, y max
        p = []
        for side, k in enumerate(k0.tolist()):
            u, v = float(vx[k]) - cx, float(vy[k]) - cy
            for _ in range(8):
                G, Gu, Gv, Guu, Guv, Gvv = _taylor_jet(self.taylor, u, v)
                # the second equation F = dG/dv (x sides) or dG/du (y sides), and its gradient
                F, Fu, Fv = (Gv, Guv, Gvv) if side < 2 else (Gu, Guu, Guv)
                det = Gu * Fv - Gv * Fu
                su, sv = (G * Fv - Gv * F) / det, (Gu * F - Fu * G) / det
                u, v = u - su, v - sv
                if math.hypot(su, sv) < 1e-8 * width[side]:
                    break
            else:
                raise GeometryError("Newton did not locate the bounding box in 8 steps")
            p.append(complex(u, v))
        p, w = np.array(p), vx + 1j * vy - complex(cx, cy)
        turns = np.angle([p / w[k0 - 1], w[(k0 + 1) % w.size] / p])  # >= 0 between the neighbours
        if not np.all(turns >= 0.0):
            raise GeometryError("Newton left the polyline neighbours of a bounding-box vertex")
        x0, x1, y0, y1 = cx + p.real[0], cx + p.real[1], cy + p.imag[2], cy + p.imag[3]
        px, py = 1e-12 * (x1 - x0) + 1e-300, 1e-12 * (y1 - y0) + 1e-300
        self._bbox = (x0 - px, x1 + px, y0 - py, y1 + py)
        return self._bbox


def oval(h: float, params: ModelParams,
         form: HamiltonianForm = HamiltonianForm.SYMMETRIC_FORM,
         center: tuple[float, float] | None = None,
         n_min: int = 256) -> Oval:
    """Construct the closed, positively oriented level oval around the center.

    On each ray from the center the restriction of the cubic is solved
    exactly and the first positive root is the boundary, valid because the
    oval is star-shaped about the center on the annulus.  The star shape is
    validated per oval; a level where it fails raises DegenerateLevelError
    naming the check that failed.  This is seen only in the cubic picture
    close to the saddle level, and not on one interval of levels (at kappa
    100 levels 99.8% and 99.99% of the way to the saddle fail, 99.9% passes).
    Companion-matrix eigenvalues refused the same levels as the closed-form
    ray roots, so the window comes from the geometry, not the root solver.
    """
    form = HamiltonianForm(form)
    lp = level_classify(h, params)
    if center is None:
        if lp.window is not Window.INTERIOR:
            raise DegenerateLevelError(
                f"level h={h} is {lp.window.value}, not interior to the annulus")
        if min(abs(h - params.center_h), abs(h - params.saddle_h)) < ENDPOINT_EXCLUSION:
            raise DegenerateLevelError(f"level h={h} within {ENDPOINT_EXCLUSION} of an endpoint")
        center = (1.0, 1.0)

    theta = np.linspace(0.0, 2.0 * np.pi, n_min, endpoint=False)
    try:
        return _ray_oval(theta, h, params, form, tuple(center))
    except DegenerateLevelError as exc:
        frac = (h - params.center_h) / (params.saddle_h - params.center_h)
        raise DegenerateLevelError(
            f"ray shooting failed at level h={h} ({form.value}, kappa={params.kappa}, "
            f"{100.0 * frac:.4g}% of the way from the center level to the saddle level): "
            f"{exc}; rays from the center do not resolve the oval") from None


def _check_roots(r, theta):
    bad = ~np.isfinite(r) | (r <= 0.0)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateLevelError(
            f"non-finite or non-positive root r={r[k]:.6g} on the ray at theta={theta[k]:.10g}")


def _midpoints(theta):
    """The angle halfway along each interval of the closed sorted angles."""
    thm = 0.5 * (theta + np.roll(theta, -1))
    thm[-1] = 0.5 * (theta[-1] + theta[0] + 2.0 * np.pi)
    return thm


def _ray_oval(theta, h, params, form, center):
    """The oval through ray shooting; raises DegenerateLevelError naming the
    check that failed: a non-finite or non-positive ray root, an O(1) branch
    jump between neighbouring rays, or a vertex residual above 1e-8*scale.
    Each angle is solved once: the rays and their midpoints in one call, then
    only the midpoints of each refinement's new intervals."""
    taylor = _center_taylor(h, params, form, center)
    solve = lambda th: _smallest_positive_roots(*_ray_poly_coeffs(np.cos(th), np.sin(th), taylor))
    thm = _midpoints(theta)
    r, rm = np.split(solve(np.concatenate([theta, thm])), 2)
    _check_roots(r, theta)
    _check_roots(rm, thm)
    # adaptive angular refinement until the chord midpoint stays on the curve
    for rnd in range(8):
        chord = 0.5 * (r + np.roll(r, -1))
        scale = np.maximum(np.abs(r), np.abs(np.roll(r, -1))) + 1e-300
        defect = np.abs(rm - chord)
        bad = defect > CHORD_DEFECT_TOL * scale
        # a genuine branch jump shows as an O(1) defect that refinement
        # cannot shrink: the oval is not star-shaped about the center
        jump = defect > 0.45 * scale
        if np.any(jump):
            k = int(np.argmax(jump))
            raise DegenerateLevelError(
                f"branch jump at theta={thm[k]:.10g}: the ray root is off the chord of its "
                f"neighbours by {defect[k] / scale[k]:.3g} of the radius (limit 0.45)")
        if not np.any(bad) or theta.size > 65536:
            break
        # the bad chords' midpoints become vertices, with the radii solved for
        # them; of the next midpoints, only those of their two halves are new
        at = np.flatnonzero(bad) + 1
        theta, r = np.insert(theta, at, thm[bad]), np.insert(r, at, rm[bad])
        if rnd < 7:  # the last round's new midpoints are never checked
            thm, rm, new = _midpoints(theta), np.repeat(rm, 1 + bad), np.repeat(bad, 1 + bad)
            rm[new] = solve(thm[new])
            _check_roots(rm[new], thm[new])

    x = center[0] + r * np.cos(theta)
    y = center[1] + r * np.sin(theta)
    resid = np.abs(_level_fn(x, y, h, params, form))
    scale = max(abs(h), 1.0)
    k = int(np.argmax(resid))
    if resid[k] > 1e-8 * scale:
        raise DegenerateLevelError(
            f"vertex residual {resid[k]:.3e} at theta={theta[k]:.10g} above "
            f"1e-8*scale = {1e-8 * scale:.3e}")
    pts = np.column_stack([np.append(x, x[0]), np.append(y, y[0])])
    return Oval(
        level=level_classify(h, params),
        points=pts,
        center=center,
        form=form,
        params=params,
        taylor=taylor,
        min_x=float(np.min(x)),
    )
