"""Direct simulation of the unperturbed quadratic system.

In the complex coordinate z = x + i y the field is

    dz/dt = -i z + 4 z^2 + 2 |z|^2 + alpha conj(z)^2,

a center at the origin surrounded by the period annulus inside Omega.
The rational first integral Hcal = phi^2/psi^3 is conserved along orbits;
its level ties back to the cubic-picture level through h = -sqrt(Hcal)
(the annulus corresponds to Hcal in (4/(9 kappa), 4/9), i.e. h in
(-2/3, -2/(3 sqrt(kappa)))).  This module integrates orbits, detects
periods by a Poincare section through the initial point, and reports
conservation drift.  Orbits take the Taylor steps of both Picard-Fuchs
systems (``picard_fuchs._Walk``) on the field's exact Cauchy-product series
(G. Corliss and Y. F. Chang, ACM TOMS 8, 1982), each STEP_RATIO times the
root-test radius of its own series (A. Jorba and M. Zou, Exp. Math. 14,
2005).  Near its edge the annulus is unbounded in the z-plane, so escape is
decided by the start's level, not its radius (``_off_annulus``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .model import ModelParams, hamiltonian, in_omega
from .picard_fuchs import STEP_ORDER, STEP_RATIO, Line, _Walk, series_sum, step_order

BLOWUP_RADIUS = 50.0   # a start off the annulus escapes once a step ends past this |z|
STEP_T_MAX = 1.0       # a Taylor step spans at most a radian of the linear rotation -i z
PERIOD_T_MAX = 200.0   # find_period gives up if no return comes by this time
EDGE_R_MAX = 2.0       # basin_edge_radius brackets the separatrix below this * sqrt(kappa)


def vector_field_rhs(z: complex, params: ModelParams) -> complex:
    return -1j * z + 4.0 * z * z + 2.0 * (z * z.conjugate()).real + params.alpha * z.conjugate() ** 2


def _off_annulus(z0: complex, params: ModelParams) -> bool:
    """Whether a start lies off the period annulus, by its level -sqrt(Hcal):
    inside the window the orbit is closed, though near the saddle level it
    reaches far past BLOWUP_RADIUS (|z| = 63 at kappa 4, 0.999 of the edge)."""
    if in_omega(z0.real, z0.imag, params):
        h = -math.sqrt(hamiltonian("original_rational", (z0.real, z0.imag), params))
        return not params.center_h < h < params.saddle_h
    return True


def _field_series(z: complex, alpha: float, order: int) -> list:
    """The Taylor coefficients a_0 = z, ..., a_order of the orbit through z.
    On a real time axis conj(z) has the coefficients conj(a_n), so (n + 1)
    a_{n+1} = -i a_n + 4 (z*z)_n + 2 Re (z*conj z)_n + alpha conj((z*z)_n),
    each Cauchy product summed over its symmetric pairs in complex scalars."""
    a = [z]
    for n in range(order):
        s, q = 0j, 0.0
        for k in range((n + 1) // 2):
            u, v = a[k], a[n - k]
            s += u * v
            q += u.real * v.real + u.imag * v.imag
        s, q, m = 2.0 * s, 2.0 * q, a[n // 2]
        if n % 2 == 0:
            s, q = s + m * m, q + (m.real * m.real + m.imag * m.imag)
        a.append((-1j * a[n] + 4.0 * s + 2.0 * q + alpha * s.conjugate()) / (n + 1.0))
    return a


def _orbit_walk(z0: complex, t_end: float, params: ModelParams, N: int,
                crossed=lambda coef, x, y: False) -> _Walk:
    """Taylor steps of order N from z0 over [0, t_end] (``_Walk``), of radius
    STEP_RATIO times the root test min((|a_0| / |a_n|)^(1/n), n = N - 1, N) of
    z / z(c), at most the run and STEP_T_MAX (near the center the test allows
    about 10, over a turn), up to the first for which crossed(coefficients, x,
    y) holds.  A start off the annulus escapes once a step ends past BLOWUP_RADIUS."""
    off, span = _off_annulus(z0, params), abs(t_end)

    def step(c, y):
        a = _field_series(complex(y), params.alpha, N)
        rho = min((abs(a[0]) / abs(a[n])) ** (1.0 / n) if a[n] else math.inf for n in (N - 1, N))
        if not (r := min(STEP_RATIO * rho, STEP_T_MAX, span)) > 0.0:
            raise ConvergenceError(f"the orbit's Taylor series overflows at |z| = {abs(y):.3g}")
        return r, np.array(a) * np.cumprod([1.0] + [r] * N)

    def until(coef, x, y):
        if off and abs(y) > BLOWUP_RADIUS:
            raise GeometryError(f"orbit from {z0} escaped: it blew up past |z| = {BLOWUP_RADIUS}")
        return crossed(coef, x, y)

    return _Walk(Line(0.0, t_end), step, z0, until)


@dataclass
class Orbit:
    """Samples (t_k, z_k) of one trajectory, by Taylor steps to integrator_tol."""

    t: np.ndarray
    z: np.ndarray
    params: ModelParams
    integrator_tol: float


def integrate_orbit(z0: complex, t_end: float, params: ModelParams,
                    tol: float = 1e-12, n_samples: int = 1000) -> Orbit:
    """Taylor steps of order ``step_order(tol)`` (``_orbit_walk``), sampled at
    a fixed stride, each sample summed from the step that holds it."""
    if not 0.0 < tol < 1.0 or t_end == 0.0:
        raise DomainError("tol must lie in (0, 1) and t_end must be nonzero")
    walk = _orbit_walk(complex(z0), t_end, params, step_order(tol))
    t = np.linspace(0.0, t_end, n_samples)
    return Orbit(t=t, z=walk(t / t_end, t), params=params, integrator_tol=tol)


def find_period(z0: complex, params: ModelParams) -> tuple[float, float]:
    """Period of the closed orbit through z0 by a Poincare section through
    z0 (the ray from the origin), and the return gap |z(T) - z0|.

    Taylor steps of order STEP_ORDER (``_orbit_walk``) turn by at most 1.13 rad,
    so the section Im(z conj z0) = 0 changes sign at most once in one.  They run
    from t = 0 (on it) to the first that starts above it and ends at or below it
    (clockwise) with Re(z conj z0) > 0.  T is its root, bisected to adjacent floats."""
    z0 = complex(z0)
    if z0 == 0:
        raise DomainError("the origin is an equilibrium, not a periodic orbit")
    w, found = z0.conjugate(), []

    def crossed(coef, x, y):
        g = coef.real * w.imag + coef.imag * w.real  # Im(z conj(z0)) on the step
        lo, hi = 0.0, x
        if g[0] > 0.0 >= y.real * w.imag + y.imag * w.real:  # the next step's g[0]
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                lo, hi = (mid, hi) if series_sum(g, mid) > 0.0 else (lo, mid)
            if ((z := complex(series_sum(coef, hi))) * w).real > 0.0:
                found.append((hi, z))
        return bool(found)

    walk = _orbit_walk(z0, PERIOD_T_MAX, params, STEP_ORDER, crossed)
    if not found:
        raise ConvergenceError(f"no period found through {z0} within t = {PERIOD_T_MAX}")
    tau, z = found[0]
    return float(walk.c[-1] + walk.r[-1] * tau), float(abs(z - z0))


@dataclass
class ConservationReport:
    max_drift: float
    t_level: float     # the conserved value of Hcal along the orbit
    h_equiv: float     # the matching cubic-picture level, -sqrt(Hcal)
    t_XY: float        # the matching XY-form level, h / (8 (2 - b))


def _drift(orbit: Orbit):
    """Hcal at the start, and the relative Hcal drift at each sample."""
    H = hamiltonian("original_rational", (orbit.z.real, orbit.z.imag), orbit.params)
    return H[0], np.abs(H - H[0]) / abs(H[0])


def conservation_report(orbit: Orbit) -> ConservationReport:
    """Relative drift of the first integral along the orbit samples.

    Requires the orbit to stay inside Omega = {phi < 0 < psi}, where the
    rational first integral is smooth."""
    if not np.all(in_omega(orbit.z.real, orbit.z.imag, orbit.params)):
        raise DomainError("orbit leaves Omega; the first integral is not controlled outside")
    H0, drift = _drift(orbit)
    h_equiv = -float(np.sqrt(H0))
    return ConservationReport(max_drift=float(drift.max()), t_level=float(H0), h_equiv=h_equiv,
                              t_XY=h_equiv / (8.0 * (2.0 - orbit.params.b)))


def orbit_rows(orbit: Orbit):
    """CSV-ready rows (t, Re z, Im z, relative Hcal drift)."""
    return [(float(t), float(z.real), float(z.imag), float(d))
            for t, z, d in zip(orbit.t, orbit.z, _drift(orbit)[1])]


def basin_edge_radius(theta: float, params: ModelParams) -> float:
    """Radius along the ray arg z = theta where the level -sqrt(Hcal)
    reaches the saddle value, i.e. where the separatrix is crossed."""
    e = complex(np.cos(theta), np.sin(theta))

    def past(r):  # off Omega, or at or past the saddle level
        z = r * e
        return not in_omega(z.real, z.imag, params) or -float(
            np.sqrt(hamiltonian("original_rational", (z.real, z.imag), params))) >= params.saddle_h

    lo, hi = 1e-9, 1e-3
    while not past(hi):
        lo, hi = hi, hi * 1.3
        if hi >= EDGE_R_MAX * math.sqrt(params.kappa):
            raise GeometryError("separatrix not bracketed along this ray")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if past(mid) else (mid, hi)
    return lo
