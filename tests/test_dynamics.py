import math

import numpy as np
import pytest

import q4lab.dynamics as dynamics
from q4lab import ConvergenceError, DomainError, GeometryError, make_params
from q4lab.model import hamiltonian, level_classify
from q4lab.dynamics import (
    PERIOD_T_MAX,
    basin_edge_radius,
    conservation_report,
    find_period,
    integrate_orbit,
    orbit_rows,
    vector_field_rhs,
)


def _rhs_xy(t, u, params):
    w = vector_field_rhs(complex(u[0], u[1]), params)
    return [w.real, w.imag]


def _dop853(z0, t_end, params, **kw):
    """SciPy's DOP853 on the field at rtol = atol = 1e-12: the independent
    integrator that the Taylor steps are checked against."""
    from scipy.integrate import solve_ivp
    return solve_ivp(_rhs_xy, (0.0, t_end), [z0.real, z0.imag], args=(params,),
                     method="DOP853", rtol=1e-12, atol=1e-12, **kw)


def _find_period_to_t_max(z0, params):
    """The period by DOP853 run to PERIOD_T_MAX: every downward crossing of
    the section, then the first one that is a return (the start's own
    crossing at t = 0 is skipped)."""
    def section(t, u, p=params):
        return u[1] * z0.real - u[0] * z0.imag

    section.direction = -1.0
    sol = _dop853(z0, PERIOD_T_MAX, params, events=section)
    assert sol.success
    for te, ue in zip(sol.t_events[0], sol.y_events[0]):
        if te > 1e-3 and ue[0] * z0.real + ue[1] * z0.imag > 0:
            return float(te), float(abs(complex(ue[0], ue[1]) - z0))
    raise AssertionError(f"no return through {z0}")


class TestVectorField:
    def test_origin_is_equilibrium(self, p4):
        assert vector_field_rhs(0j, p4) == 0j

    def test_linearization_is_rotation(self, p4):
        eps = 1e-7
        J = np.empty((2, 2))
        for k, dz in enumerate((eps, 1j * eps)):
            w = vector_field_rhs(dz, p4)
            J[0, k], J[1, k] = w.real / eps, w.imag / eps
        ev = np.sort_complex(np.linalg.eigvals(J))
        assert abs(ev[0] + 1j) < 1e-6
        assert abs(ev[1] - 1j) < 1e-6

    def test_componentwise_expansion_small_real_z(self, p4):
        # for z = x real: -i x + 4x^2 + 2x^2 + alpha x^2
        for x in (0.01, -0.02, 0.05):
            w = vector_field_rhs(complex(x, 0.0), p4)
            expect = -1j * x + (6.0 + p4.alpha) * x * x
            assert abs(w - expect) < 1e-15


class TestOrbits:
    def test_constant_orbit_at_origin(self, p4):
        orb = integrate_orbit(0j, 5.0, p4, tol=1e-12)
        assert np.max(np.abs(orb.z)) == 0.0

    def test_closed_orbit_returns(self, p4):
        z0 = 0.06 + 0j
        T, gap = find_period(z0, p4)
        assert T > 0
        assert gap < 1e-6

    def test_drift_over_ten_periods(self, p4):
        z0 = 0.08 + 0j
        T, _ = find_period(z0, p4)
        orb = integrate_orbit(z0, 10 * T, p4, tol=1e-12)
        rep = conservation_report(orb)
        assert rep.max_drift <= 1e-8

    def test_time_reversal(self, p4):
        # the field is reversible in time: DOP853 on its own right-hand side,
        # and the Taylor steps, which run backward for a negative t_end
        from scipy.integrate import solve_ivp
        z0 = 0.07 + 0.02j
        fwd = _dop853(z0, 3.0, p4)
        back = solve_ivp(_rhs_xy, (3.0, 0.0), fwd.y[:, -1], args=(p4,),
                         method="DOP853", rtol=1e-12, atol=1e-12)
        assert abs(complex(*back.y[:, -1]) - z0) < 1e-9
        z3 = integrate_orbit(z0, 3.0, p4).z[-1]
        assert abs(z3 - complex(*fwd.y[:, -1])) < 1e-9
        assert abs(integrate_orbit(z3, -3.0, p4).z[-1] - z0) < 1e-9

    def test_blowup_detection(self, p4):
        with pytest.raises(GeometryError):
            integrate_orbit(2.0 + 0j, 50.0, p4)

    def test_period_requires_nonzero_start(self, p4):
        with pytest.raises(DomainError):
            find_period(0j, p4)

    @pytest.mark.parametrize("kappa", [1.05, 1.7, 4.0, 8.5, 20.0])
    def test_period_equals_run_to_t_max(self, kappa):
        # the period from the root of the return step's polynomial is that of
        # an independent integrator, DOP853 run to PERIOD_T_MAX, at each start
        p = make_params(kappa)
        r = basin_edge_radius(0.0, p)
        for z0 in (0.05 * r, 0.6 * r, 0.9 * r, 0.3 * r * np.exp(-1.9j)):
            (T, gap), (T_ref, _) = find_period(z0, p), _find_period_to_t_max(z0, p)
            assert abs(T - T_ref) <= 1e-10 * T_ref
            assert gap <= 1e-6

    @pytest.mark.parametrize("kappa", [1.7, 4.0, 8.5])
    def test_drift_no_larger_than_dop853(self, kappa):
        # dyn's run, 10 T from 0.3 of the edge radius at tol 1e-12: the Taylor
        # steps conserve Hcal at least as well as DOP853 at the same tol
        p = make_params(kappa)
        z0 = 0.3 * basin_edge_radius(0.0, p)
        T, gap = find_period(z0, p)
        ts = np.linspace(0.0, 10.0 * T, 1000)
        sol = _dop853(complex(z0), 10.0 * T, p, t_eval=ts)
        ref = dynamics.Orbit(t=sol.t, z=sol.y[0] + 1j * sol.y[1], params=p, integrator_tol=1e-12)
        drift = conservation_report(integrate_orbit(z0, 10.0 * T, p, tol=1e-12)).max_drift
        assert gap <= 1e-6
        assert drift <= conservation_report(ref).max_drift

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_period_equals_moment_derivative(self, kappa):
        # T(h) = 2 sqrt(kappa - 1) I10'(h) at dyn's start: an independent
        # route, which sees an offset such as the search's start time 1e-6
        from q4lab.melnikov import get_moment_basis
        p = make_params(kappa)
        z0 = 0.3 * basin_edge_radius(0.0, p)
        T, _ = find_period(z0, p)
        h = conservation_report(integrate_orbit(z0, T, p, tol=1e-12)).h_equiv
        i10 = get_moment_basis(p).derivs(h)[1]
        assert abs(T - 2.0 * math.sqrt(kappa - 1.0) * i10) / T <= 1e-10

    @pytest.mark.parametrize("kappa", [1.5, 4.0])
    def test_near_edge_orbit_is_closed(self, kappa):
        # escape is decided by the start's level, not by its radius: from 0.999
        # of the edge radius the orbit is closed, and at kappa 4 it reaches
        # |z| = 63, past BLOWUP_RADIUS; just outside the edge it still escapes
        from q4lab.melnikov import get_moment_basis
        p = make_params(kappa)
        r = basin_edge_radius(0.0, p)
        z0 = 0.999 * r + 0j
        T, gap = find_period(z0, p)
        assert gap <= 1e-6
        orb = integrate_orbit(z0, T, p, tol=1e-12)
        assert kappa < 4.0 or np.max(np.abs(orb.z)) > dynamics.BLOWUP_RADIUS
        i10 = get_moment_basis(p).derivs(conservation_report(orb).h_equiv)[1]
        assert abs(T - 2.0 * math.sqrt(kappa - 1.0) * i10) / T <= 1e-10
        with pytest.raises(GeometryError, match="escaped"):
            find_period(1.01 * r + 0j, p)
        with pytest.raises(GeometryError, match="blew up"):
            integrate_orbit(1.01 * r + 0j, 20.0, p)

    @pytest.mark.parametrize("z0", [1e-6 + 0j, 1e-12 + 0j, 1e-20 + 0j])
    def test_period_next_to_the_center(self, p4, z0):
        # the orbit is nearly z0 e^(-i t), whose series alone would allow a
        # step of about 10: the first return, not a later one, is 2 pi
        T, gap = find_period(z0, p4)
        assert abs(T - 2.0 * math.pi) <= 1e-9
        assert gap <= 1e-12 * abs(z0)

    def test_period_without_return_raises(self, p4):
        # outside the basin the orbit escapes: the search names that once a
        # step ends past BLOWUP_RADIUS, in a few steps, before the steps
        # shrink toward the blow-up without end
        with pytest.raises(GeometryError, match="escaped"):
            find_period(2.0 + 0j, p4)

    def test_series_overflow_is_named(self):
        # at kappa 10^8 the orbit from 0.3 of the edge radius reaches |z| where
        # the unscaled Taylor coefficients overflow: a named error, not a
        # step of radius 0 that never advances
        p = make_params(1e8)
        with pytest.raises(ConvergenceError, match="overflows"):
            find_period(0.3 * basin_edge_radius(0.0, p), p)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, 1.0, float("nan")])
    def test_tolerance_outside_unit_interval_refused(self, p4, tol):
        with pytest.raises(DomainError):
            integrate_orbit(0.05 + 0j, 1.0, p4, tol=tol)

    def test_zero_duration_refused(self, p4):
        # a run of no time once ended in an IndexError from its samples
        with pytest.raises(DomainError, match="t_end"):
            integrate_orbit(0.05 + 0j, 0.0, p4)


class TestConservation:
    def test_level_at_origin(self, p4):
        assert hamiltonian("original_rational", (0.0, 0.0), p4) == 4 / 9

    def test_report_levels(self, p4):
        z0 = 0.08 + 0j
        orb = integrate_orbit(z0, 5.0, p4, tol=1e-12)
        rep = conservation_report(orb)
        # Hcal level and the matching cubic-picture level h = -sqrt(Hcal)
        H0 = hamiltonian("original_rational", (z0.real, z0.imag), p4)
        assert rep.t_level == pytest.approx(H0, rel=1e-12)
        assert rep.h_equiv == pytest.approx(-math.sqrt(H0), rel=1e-12)
        assert level_classify(rep.h_equiv, p4).window.value == "interior"
        assert rep.t_XY == pytest.approx(rep.h_equiv / (8 * (2 - p4.b)))

    def test_levels_sweep_annulus_interval(self, p4):
        r_edge = basin_edge_radius(0.0, p4)
        rs = np.linspace(1e-4, r_edge * (1 - 1e-9), 200)
        H = hamiltonian("original_rational", (rs, np.zeros_like(rs)), p4)
        hs = -np.sqrt(H)
        assert hs.min() == pytest.approx(p4.center_h, abs=1e-3)
        assert hs.max() == pytest.approx(p4.saddle_h, abs=1e-3)
        assert np.all((hs > p4.center_h) & (hs < p4.saddle_h))

    def test_correspondence_on_random_omega_points(self, rng):
        from q4lab.model import coordinate_map, in_omega
        for kappa in (1.5, 4.0):
            p = make_params(kappa)
            n = 0
            while n < 100:
                x, y = rng.uniform(-0.25, 0.25, 2)
                if not in_omega(x, y, p):
                    continue
                n += 1
                X, Y = coordinate_map((x, y), p)
                lhs = hamiltonian("original_rational", (x, y), p)
                rhs = 64 * (2 - p.b) ** 2 * hamiltonian("XY_form", (X, Y), p) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_orbit_rows_format(self, p4):
        orb = integrate_orbit(0.05 + 0j, 1.0, p4, n_samples=10)
        rows = orbit_rows(orb)
        assert len(rows) == 10
        assert all(len(r) == 4 for r in rows)
        assert rows[0][3] == 0.0
