import math

import numpy as np
import pytest

import q4lab.dynamics as dynamics
from q4lab import ConvergenceError, DomainError, GeometryError, make_params
from q4lab.model import hamiltonian, level_classify
from q4lab.dynamics import (
    PERIOD_T_MAX,
    PERIOD_TOL,
    _rhs_xy,
    basin_edge_radius,
    conservation_report,
    find_period,
    integrate_orbit,
    orbit_rows,
    vector_field_rhs,
)


def _find_period_to_t_max(z0, params):
    """find_period as it was before it stopped at the return: every section
    crossing up to PERIOD_T_MAX, then the first one that is a return."""
    from scipy.integrate import solve_ivp

    def section(t, u, p=params):
        return u[1] * z0.real - u[0] * z0.imag

    section.direction = -1.0
    t0 = 1e-6
    sol = solve_ivp(_rhs_xy, (t0, PERIOD_T_MAX), [z0.real, z0.imag], args=(params,),
                    method="DOP853", rtol=PERIOD_TOL, atol=PERIOD_TOL, events=section,
                    dense_output=True)
    assert sol.success
    for te, ue in zip(sol.t_events[0], sol.y_events[0]):
        if te > 1e-3 and ue[0] * z0.real + ue[1] * z0.imag > 0:
            return float(te - t0), float(abs(complex(ue[0], ue[1]) - z0))
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
        from scipy.integrate import solve_ivp
        from q4lab.dynamics import _rhs_xy
        z0 = 0.07 + 0.02j
        fwd = solve_ivp(_rhs_xy, (0.0, 3.0), [z0.real, z0.imag], args=(p4,),
                        method="DOP853", rtol=1e-12, atol=1e-12)
        back = solve_ivp(_rhs_xy, (3.0, 0.0), fwd.y[:, -1], args=(p4,),
                         method="DOP853", rtol=1e-12, atol=1e-12)
        assert abs(complex(*back.y[:, -1]) - z0) < 1e-9

    def test_blowup_detection(self, p4):
        with pytest.raises(GeometryError):
            integrate_orbit(2.0 + 0j, 50.0, p4)

    def test_period_requires_nonzero_start(self, p4):
        with pytest.raises(DomainError):
            find_period(0j, p4)

    @pytest.mark.parametrize("kappa", [1.05, 1.7, 4.0, 8.5, 20.0])
    def test_period_equals_run_to_t_max(self, kappa):
        # stopping at the return keeps the steps and the event root-find, so
        # (T, gap) is bit for bit that of the run to PERIOD_T_MAX
        p = make_params(kappa)
        r = basin_edge_radius(0.0, p)
        for z0 in (0.05 * r, 0.6 * r, 0.9 * r, 0.3 * r * np.exp(-1.9j)):
            assert find_period(z0, p) == _find_period_to_t_max(z0, p)

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

    def test_period_without_return_raises(self, p4):
        # outside the basin the orbit escapes: the blow-up event names that,
        # before DOP853's step size collapses on the way to infinity
        with pytest.raises(GeometryError, match="escaped"):
            find_period(2.0 + 0j, p4)

    def test_period_refuses_boolean_terminal(self, p4, monkeypatch):
        # a SciPy that reads the integer terminal as True stops at the start
        # crossing; that must be an error, never a period
        real = dynamics.solve_ivp

        def old_scipy(*args, events, **kw):
            def boolean(ev):
                def event(t, u, *params):
                    return ev(t, u, *params)
                event.direction = getattr(ev, "direction", 0.0)
                event.terminal = bool(ev.terminal)
                return event
            return real(*args, events=[boolean(ev) for ev in events], **kw)

        monkeypatch.setattr(dynamics, "solve_ivp", old_scipy)
        with pytest.raises(ConvergenceError, match="integer event.terminal"):
            find_period(0.06 + 0j, p4)


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
