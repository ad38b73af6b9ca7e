"""Direct simulation of the unperturbed quadratic system.

In the complex coordinate z = x + i y the field is

    dz/dt = -i z + 4 z^2 + 2 |z|^2 + alpha conj(z)^2,

a center at the origin surrounded by the period annulus inside Omega.
The rational first integral Hcal = phi^2/psi^3 is conserved along orbits;
its level ties back to the cubic-picture level through h = -sqrt(Hcal)
(the annulus corresponds to Hcal in (4/(9 kappa), 4/9), i.e. h in
(-2/3, -2/(3 sqrt(kappa)))).  This module integrates orbits, detects
periods by a Poincare section through the initial point, and reports
conservation drift.  The period search stops at the orbit's first return
to the section; ``PERIOD_T_MAX`` is only the time at which it gives up.
Near its edge the annulus is unbounded in the z-plane, so escape is decided
by the start's level, not its radius (``_escape_events``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConvergenceError, DomainError, GeometryError
from .model import ModelParams, hamiltonian, in_omega

BLOWUP_RADIUS = 50.0   # a start off the annulus escapes once |z| passes this
PERIOD_TOL = 1e-12     # find_period's DOP853 rtol and atol
PERIOD_T_MAX = 200.0   # find_period gives up if no return comes by this time
EDGE_R_MAX = 2.0       # basin_edge_radius brackets the separatrix below this radius


def vector_field_rhs(z: complex, params: ModelParams) -> complex:
    return -1j * z + 4.0 * z * z + 2.0 * (z * z.conjugate()).real + params.alpha * z.conjugate() ** 2


def _rhs_xy(t, u, params: ModelParams):
    z = complex(u[0], u[1])
    w = vector_field_rhs(z, params)
    return [w.real, w.imag]


def _blowup(t, u, params: ModelParams):
    """Terminal event: |z| reaches BLOWUP_RADIUS, so the start lies outside
    the bounded basin."""
    return u[0] * u[0] + u[1] * u[1] - BLOWUP_RADIUS**2


_blowup.terminal = True


def _escape_events(z0: complex, params: ModelParams) -> list:
    """[_blowup] for a start off the period annulus, else [].  Escape is
    decided by the start's level: a start in Omega whose level -sqrt(Hcal)
    lies inside the window is on a closed orbit, and near the saddle level
    such an orbit reaches far past BLOWUP_RADIUS (|z| = 63 at kappa 4 from
    0.999 of ``basin_edge_radius``)."""
    if in_omega(z0.real, z0.imag, params):
        h = -math.sqrt(hamiltonian("original_rational", (z0.real, z0.imag), params))
        if params.center_h < h < params.saddle_h:
            return []
    return [_blowup]


@dataclass
class Orbit:
    """Samples (t_k, z_k) of one trajectory; the integrator keeps the local
    error within integrator_tol per step."""

    t: np.ndarray
    z: np.ndarray
    params: ModelParams
    integrator_tol: float

    @property
    def samples(self):
        return list(zip(self.t, self.z))


def integrate_orbit(z0: complex, t_end: float, params: ModelParams,
                    tol: float = 1e-12, n_samples: int = 1000) -> Orbit:
    """Adaptive high-order integration with dense sampling at a fixed
    stride; for a start off the annulus (``_escape_events``), a blow-up
    event (|z| exceeding the bound) aborts with an error."""
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    z0 = complex(z0)
    sol = solve_ivp(_rhs_xy, (0.0, t_end), [z0.real, z0.imag], args=(params,),
                    method="DOP853", rtol=tol, atol=tol,
                    t_eval=np.linspace(0.0, t_end, n_samples),
                    events=_escape_events(z0, params))
    if sol.status == 1:
        raise GeometryError(f"orbit from {z0} blew up past |z| = {BLOWUP_RADIUS}")
    if not sol.success:
        raise ConvergenceError(f"orbit integration failed: {sol.message}")
    return Orbit(t=sol.t, z=sol.y[0] + 1j * sol.y[1], params=params,
                 integrator_tol=tol)


def find_period(z0: complex, params: ModelParams) -> tuple[float, float]:
    """Period of the closed orbit through z0 by a Poincare section through
    z0 (the ray from the origin), and the return gap |z(T) - z0|.

    T is the return's event time less the start time 1e-6.  The integration
    stops at the second downward crossing of the section: z0 lies on it, so
    the first step flags the start, and the second crossing is the return.
    The steps up to the return are those of a run to ``PERIOD_T_MAX``, and
    the event is located on the same step interpolant, so (T, gap) is that
    run's answer bit for bit; the search gives up at ``PERIOD_T_MAX``.  A
    start off the annulus hits the blow-up event of ``integrate_orbit``
    (``_escape_events``) and raises GeometryError.  The event count needs
    SciPy's integer ``terminal``; a SciPy that reads 2 as True stops at the
    start crossing, which raises ConvergenceError."""
    z0 = complex(z0)
    if z0 == 0:
        raise DomainError("the origin is an equilibrium, not a periodic orbit")

    def section(t, u, p=params):
        return u[1] * z0.real - u[0] * z0.imag  # Im(z conj(z0))

    section.direction = -1.0  # the rotation near the origin is clockwise
    section.terminal = 2      # the start crossing, then the return

    sol = solve_ivp(_rhs_xy, (1e-6, PERIOD_T_MAX), [z0.real, z0.imag], args=(params,),
                    method="DOP853", rtol=PERIOD_TOL, atol=PERIOD_TOL,
                    events=[section, *_escape_events(z0, params)])
    if len(sol.t_events) > 1 and len(sol.t_events[1]):
        raise GeometryError(f"period search from {z0} escaped past |z| = {BLOWUP_RADIUS}")
    if not sol.success:
        raise ConvergenceError(f"period search failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) < 2:
        raise ConvergenceError(
            "period search stopped at the start crossing: this SciPy reads the "
            "integer event.terminal as True (q4lab needs scipy>=1.17.1)")
    for te, ue in zip(sol.t_events[0], sol.y_events[0]):
        if te > 1e-3 and ue[0] * z0.real + ue[1] * z0.imag > 0:
            gap = abs(complex(ue[0], ue[1]) - z0)
            return float(te - sol.t[0]), float(gap)
    raise ConvergenceError(f"no period found through {z0} within t = {PERIOD_T_MAX}")


@dataclass
class ConservationReport:
    max_drift: float
    t_level: float     # the conserved value of Hcal along the orbit
    h_equiv: float     # the matching cubic-picture level, -sqrt(Hcal)
    t_XY: float        # the matching XY-form level, h / (8 (2 - b))


def conservation_report(orbit: Orbit) -> ConservationReport:
    """Relative drift of the first integral along the orbit samples.

    Requires the orbit to stay inside Omega = {phi < 0 < psi}, where the
    rational first integral is smooth."""
    p = orbit.params
    x, y = orbit.z.real, orbit.z.imag
    inside = in_omega(x, y, p)
    if not np.all(inside):
        raise DomainError("orbit leaves Omega; the first integral is not "
                          "controlled outside")
    H = hamiltonian("original_rational", (x, y), p)
    H0 = H[0]
    drift = float(np.max(np.abs(H - H0)) / abs(H0))
    h_equiv = -float(np.sqrt(H0))
    return ConservationReport(max_drift=drift, t_level=float(H0),
                              h_equiv=h_equiv, t_XY=h_equiv / (8.0 * (2.0 - p.b)))


def orbit_rows(orbit: Orbit):
    """CSV-ready rows (t, Re z, Im z, relative Hcal drift)."""
    p = orbit.params
    H = hamiltonian("original_rational", (orbit.z.real, orbit.z.imag), p)
    drift = np.abs(H - H[0]) / abs(H[0])
    return [(float(t), float(z.real), float(z.imag), float(d))
            for t, z, d in zip(orbit.t, orbit.z, drift)]


def basin_edge_radius(theta: float, params: ModelParams) -> float:
    """Radius along the ray arg z = theta where the level -sqrt(Hcal)
    reaches the saddle value, i.e. where the separatrix is crossed."""
    target = params.saddle_h
    e = complex(np.cos(theta), np.sin(theta))

    def level(r):
        z = r * e
        if not in_omega(z.real, z.imag, params):
            return None
        H = hamiltonian("original_rational", (z.real, z.imag), params)
        return -float(np.sqrt(H))

    lo, hi = 1e-9, None
    r = 1e-3
    while r < EDGE_R_MAX:
        val = level(r)
        if val is None or val >= target:
            hi = r
            break
        lo = r
        r *= 1.3
    if hi is None:
        raise GeometryError("separatrix not bracketed along this ray")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = level(mid)
        if val is None or val >= target:
            hi = mid
        else:
            lo = mid
    return lo
