import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import q4lab.picard_fuchs as pf
from conftest import keyhole_reference
from q4lab import (
    ConsistencyError,
    DomainError,
    PathProximityError,
    SingularityError,
    make_params,
)
from q4lab.analysis import bound_scanner, j_table
from q4lab.model import s_from_h
from q4lab.quadrature import basis_values
from q4lab.picard_fuchs import (
    Arc,
    JState,
    Line,
    MomentBasis,
    PFPropagation,
    PFVector,
    apply_L1,
    apply_L2,
    continue_state,
    derivative_formulas,
    infinity_exponents,
    initial_jstate,
    pf_derivatives,
    pf_matrix,
    pf_residuals,
    pfs_residuals,
    propagate_J,
    series_jet,
    series_sum,
)

H0 = -0.5


def apply_s_operator(g, g1, g2, s):
    """The hypergeometric-type operator in the variable s:
    s (1 - s) d^2/ds^2 - (1/2) d/ds - 5/36."""
    return s * (1.0 - s) * g2 - 0.5 * g1 - (5.0 / 36.0) * g


def l2_chain_factor(s: float, params) -> float:
    """Under h = -(2/3) sqrt(s/kappa) the operator L2 in h equals
    24 sqrt(kappa s) times the s-operator; the factor never vanishes on
    (1, kappa), so zero counts transfer unchanged."""
    return 24.0 * math.sqrt(params.kappa * s)


@pytest.fixture(scope="module")
def oracle4(p4):
    return basis_values(H0, p4)


@pytest.fixture(scope="module")
def prop4(p4):
    return PFPropagation(p4)


class TestSixEquationSystem:
    def test_residuals_with_fd_oracle_derivs(self, p4, oracle4):
        dh = 1e-5
        fd = (basis_values(H0 + dh, p4) - basis_values(H0 - dh, p4)) / (2 * dh)
        pf = PFVector(h=H0, values=oracle4, derivs=fd)
        rel = np.abs(pf_residuals(pf, p4)) / np.abs(oracle4)
        assert np.max(rel) < 1e-4

    def test_residuals_with_solve_derivs(self, p4, oracle4):
        pf = PFVector(h=H0, values=oracle4, derivs=pf_derivatives(H0, oracle4, p4))
        rel = np.abs(pf_residuals(pf, p4)) / np.abs(oracle4)
        assert np.max(rel) < 1e-12

    @given(lam=st.floats(-1e3, 1e3, allow_nan=False))
    @settings(max_examples=50)
    def test_residual_scaling(self, lam):
        p = make_params(4.0)
        v = np.array([0.3, 0.2, 0.25, 0.21, 0.4, 0.35])
        d = np.array([1.1, 0.9, 1.0, 0.95, 2.0, 1.7])
        r1 = pf_residuals(PFVector(H0, v, d), p)
        r2 = pf_residuals(PFVector(H0, lam * v, lam * d), p)
        assert np.allclose(r2, lam * r1, rtol=1e-12, atol=1e-12)

    def test_derivatives_match_fd_oracle(self, p4, oracle4):
        dh = 1e-5
        fd = (basis_values(H0 + dh, p4) - basis_values(H0 - dh, p4)) / (2 * dh)
        d = pf_derivatives(H0, oracle4, p4)
        assert np.max(np.abs(d - fd) / np.abs(d)) < 1e-4

    def test_derivatives_linear_in_values(self, p4, oracle4):
        d1 = pf_derivatives(H0, oracle4, p4)
        d2 = pf_derivatives(H0, 3.0 * oracle4, p4)
        assert np.allclose(d2, 3.0 * d1, rtol=1e-13)

    def test_singular_matrix_near_critical(self, p4):
        with pytest.raises(SingularityError, match="from a critical level"):
            pf_derivatives(p4.saddle_h + 1e-15, np.ones(6), p4)

    def test_det_factorization(self, p4):
        # det B = (9h^2-4)(9kh^2-4)^2 / (144 k^2)
        k = p4.kappa
        for h in (-0.5, -0.41, -0.62):
            expect = (9 * h * h - 4) * (9 * k * h * h - 4) ** 2 / (144 * k * k)
            assert np.linalg.det(pf_matrix(h, p4)) == pytest.approx(expect, rel=1e-12)


KAPPAS_SOLVE = [1.01, 1.5, 4.0, 9.0, 1000.0]


def _mp_solve(h, v, kappa):
    """B(h)^-1 v at the doubles h, kappa and v with 50 digits."""
    import mpmath as mp

    with mp.workdps(50):
        h, k, half = mp.mpf(h), mp.mpf(kappa), mp.mpf(1) / 2
        B = mp.matrix([
            [3 * h / 2, 0, 1, 0, 0, 0],
            [0, h, 0, mp.mpf(2) / 3, 0, 0],
            [2 / (3 * k), 0, h, 2 * (k - 1) / (3 * k), 0, 0],
            [3 * h / 8, half, half / 2, 3 * h / 4, 0, 0],
            [0, 0, 0, 0, 3 * h, 2],
            [0, (k - 1) / k, 0, 0, 1 / k, 3 * h / 2]])
        return mp.lu_solve(B, mp.matrix([mp.mpf(float(x)) for x in v]))


class TestClosedFormSolve:
    def test_block_form_is_the_sympy_inverse(self):
        # B^-1 has 24 nonzero entries: rows 1 and 3 over 9h^2 - 4 alone,
        # rows 0, 2, 4 and 5 over (9h^2 - 4)(9 kappa h^2 - 4), numerators of
        # degree <= 3 in h; the block form reproduces every column
        import sympy as sp

        h, k = sp.symbols("h kappa")
        R = sp.Rational
        B = sp.Matrix([
            [R(3, 2) * h, 0, 1, 0, 0, 0],
            [0, h, 0, R(2, 3), 0, 0],
            [2 / (3 * k), 0, h, 2 * (k - 1) / (3 * k), 0, 0],
            [R(3, 8) * h, R(1, 2), R(1, 4), R(3, 4) * h, 0, 0],
            [0, 0, 0, 0, 3 * h, 2],
            [0, (k - 1) / k, 0, 0, 1 / k, R(3, 2) * h]])
        d1, d2 = 9 * h**2 - 4, 9 * k * h**2 - 4
        assert sp.factor(B.det() - d1 * d2**2 / (144 * k**2)) == 0
        inv = B.inv()
        zeros = {(i, j) for i in range(6) for j in range(6) if sp.simplify(inv[i, j]) == 0}
        assert zeros == {(i, j) for i in range(4) for j in (4, 5)} | {(1, 2), (3, 2), (4, 2), (5, 2)}
        for i in range(6):
            for j in range(6):
                num = sp.cancel(inv[i, j] * (d1 if i in (1, 3) else d1 * d2))
                assert num.is_polynomial(h, k) and sp.degree(num, h) <= 3, (i, j)
        assert sp.simplify(inv[0, 0] - 6 * h * (9 * k * h**2 - 6 * k + 2) / (d1 * d2)) == 0
        for j in range(6):
            col = pf._solve_factored(h, list(sp.eye(6)[:, j]), k, d1, d2)
            for i in range(6):
                assert sp.simplify(sp.nsimplify(col[i], rational=True) - inv[i, j]) == 0, (i, j)

    @pytest.mark.parametrize("kappa", KAPPAS_SOLVE)
    def test_matches_50_digits(self, kappa):
        # the moments at 1e-8 to 1 - 1e-8 of the window: within 4 eps cond(B)
        # everywhere, and within 1e-14 next to the center, where 3h + 2
        # cancels
        p = make_params(kappa)
        basis = MomentBasis(p)
        eps = np.finfo(float).eps
        for q in (1e-8, 1e-6, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-8):
            h = basis.lo + q * (basis.hi - basis.lo)
            v = basis.values(h)
            got, want = pf.pf_solve(h, v, kappa), _mp_solve(h, v, kappa)
            err = [abs(float(w - float(g))) for g, w in zip(got, want)]
            scale = max(abs(float(w)) for w in want)
            assert max(err) <= 4.0 * eps * np.linalg.cond(pf_matrix(h, p)) * scale, q
            if q < 1e-5:
                assert all(e <= 1e-14 * abs(float(w)) for e, w in zip(err, want)), q

    def test_right_hand_side_splits_kappa_once(self, monkeypatch):
        # each Taylor step of the propagation forms (9/4) kappa = c + c_err
        # once, not once per term, and applies B^-1 at its center with
        # pf_solve's bits
        splits, seen = [], []
        split, solve = pf._two_product, pf._solve_factored
        monkeypatch.setattr(pf, "_two_product", lambda a, b: (
            a == 2.25 and splits.append(b)) or split(a, b))
        monkeypatch.setattr(pf, "_solve_factored", lambda h, v, *a: seen.append(
            (h, list(v), solve(h, v, *a))) or seen[-1][2])
        prop = PFPropagation(make_params(4.0))
        monkeypatch.undo()
        steps = sum(side.t.size for side in prop._sides)
        assert splits == [4.0] * steps and len(seen) == pf.STEP_ORDER * steps
        for h, v, (got, _) in seen:
            assert type(h) is float and got == pf.pf_solve(h, v, 4.0)

    @pytest.mark.parametrize("kappa", KAPPAS_SOLVE)
    def test_refuses_levels_next_to_critical(self, kappa):
        # a grid within 1e-9 of both window ends: refused wherever
        # cond(B) > 1e12 (the earlier gate), and never on the window itself
        p = make_params(kappa)
        offsets = np.geomspace(1e-17, 1e-9, 81)
        for end in (p.center_h, p.saddle_h):
            for h in np.concatenate([end - offsets, [end], end + offsets]):
                if np.linalg.cond(pf_matrix(h, p)) > 1e12:
                    with pytest.raises(SingularityError, match="from a critical level"):
                        pf_derivatives(float(h), np.ones(6), p)
        hs = np.linspace(p.center_h + pf.WINDOW_MARGIN, p.saddle_h - pf.WINDOW_MARGIN, 513)
        assert np.isfinite(pf_derivatives(hs, np.ones((6, hs.size)), p)).all()


class TestPropagation:
    def test_identity(self, p4, prop4):
        # the dense output returns the oracle's vector at the midpoint
        assert np.array_equal(prop4.values(prop4.h_mid), basis_values(prop4.h_mid, p4))

    def test_oracle_cross_check(self, p4, prop4):
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            h = p4.center_h + q * (p4.saddle_h - p4.center_h)
            ref = basis_values(h, p4)
            rel = np.max(np.abs(prop4.values(h) - ref) / np.abs(ref))
            assert rel < 1e-6

    def test_refuses_singularity_crossing(self, p4, prop4):
        with pytest.raises(DomainError):
            PFPropagation(make_params(1.0 + 1e-12))  # no room between the critical levels
        with pytest.raises(DomainError):
            prop4.values(-0.8)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_matches_dop853_on_the_scanner_grid(self, kappa):
        # an independent integrator: scipy's DOP853 on V' = B(h)^-1 V from the
        # same midpoint oracle, on every other node of the scanner grid and
        # its last
        p = make_params(kappa)
        prop = PFPropagation(p)
        grid = bound_scanner(p).hs
        hs = np.append(grid[::2], grid[-1])
        kw = dict(method="DOP853", rtol=1e-13, atol=1e-16 * np.max(np.abs(prop.v_mid)),
                  dense_output=True)
        want = np.empty((6, hs.size))
        for end, part in ((prop.lo, hs <= prop.h_mid), (prop.hi, hs > prop.h_mid)):
            sol = solve_ivp(lambda h, v: pf.pf_solve(h, v, kappa), (prop.h_mid, end),
                            prop.v_mid, **kw)
            assert sol.success
            want[:, part] = sol.sol(hs[part])
        got = prop.values(hs)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-10 * np.max(np.abs(want), axis=1))

    def test_chain_matches_fd(self, p4, prop4):
        d1, d2, d3 = prop4.chain(H0)
        dh = 1e-6
        vp, vm = prop4.values(H0 + dh), prop4.values(H0 - dh)
        fd1 = (vp - vm) / (2 * dh)
        assert np.max(np.abs(d1 - fd1) / np.abs(d1)) < 1e-8
        fd2 = (pf_derivatives(H0 + dh, vp, p4) - pf_derivatives(H0 - dh, vm, p4)) / (2 * dh)
        assert np.max(np.abs(d2 - fd2) / np.abs(d2)) < 1e-7


class TestDerivativeFormulas:
    def test_equal_J_kills_I11pp(self, p4):
        out = derivative_formulas("second", H0, 0.7, 0.7, p4)
        assert out[1] == 0.0

    def test_second_vs_chain(self, p4, prop4):
        for h in (-0.5, -0.45, -0.6):
            d1, d2, _ = prop4.chain(h)
            f2 = derivative_formulas("second", h, d1[0], d1[3], p4)
            assert f2[0] == pytest.approx(d2[0], rel=1e-10)
            assert f2[1] == pytest.approx(d2[3], rel=1e-10)

    def test_third_vs_chain(self, p4, prop4):
        for h in (-0.5, -0.45, -0.6):
            d1, _, d3 = prop4.chain(h)
            f3 = derivative_formulas("third", h, d1[0], d1[3], p4)
            assert f3[0] == pytest.approx(d3[0], rel=1e-9)
            assert f3[1] == pytest.approx(d3[3], rel=1e-9)

    def test_second_vs_fd_of_propagated(self, p4, prop4):
        h, dh = H0, 1e-6
        d1 = prop4.derivs(np.array([h - dh, h, h + dh]))
        f2 = derivative_formulas("second", h, d1[0, 1], d1[3, 1], p4)
        fdJ1 = (d1[0, 2] - d1[0, 0]) / (2 * dh)
        assert f2[0] == pytest.approx(fdJ1, rel=1e-6)

    def test_third_consistent_with_fd_of_second(self, p4, prop4):
        h, dh = H0, 1e-5
        vals = [prop4.derivs(hh) for hh in (h - dh, h, h + dh)]
        seconds = [derivative_formulas("second", hh, d[0], d[3], p4)
                   for hh, d in zip((h - dh, h, h + dh), vals)]
        fd3 = (seconds[2] - seconds[0]) / (2 * dh)
        f3 = derivative_formulas("third", h, vals[1][0], vals[1][3], p4)
        assert f3[0] == pytest.approx(fd3[0], rel=1e-4)
        assert f3[1] == pytest.approx(fd3[1], rel=1e-4)

    @pytest.mark.parametrize("h", [2 / 3, -2 / 3, 1 / 3, -1 / 3])
    def test_pole_errors(self, p4, h):
        with pytest.raises(SingularityError):
            derivative_formulas("second", h, 1.0, 2.0, p4)

    def test_pfs_closure(self, p4, prop4):
        # second derivatives from the closed-form formulas satisfy the 2x2
        # system when fed propagated J1, J2
        for h in (-0.5, -0.42, -0.58):
            d = prop4.derivs(h)
            f2 = derivative_formulas("second", h, d[0], d[3], p4)
            res = pfs_residuals(h, d[0], d[3], f2[0], f2[1], p4)
            scale = 3 * p4.kappa * abs(h) * max(abs(d[0]), abs(d[3]))
            assert np.max(np.abs(res)) < 1e-8 * scale

    def test_minus_one_row_system(self, p4, prop4):
        # I-10' = -(3h/2) I-10'' - I-11''
        # I-11' = -(2/k) I-10'' - 3h I-11'' + (4(k-1)/(3kh)) I11''
        k = p4.kappa
        for h in (-0.5, -0.45):
            d1, d2, _ = prop4.chain(h)
            r1 = d1[4] - (-1.5 * h * d2[4] - d2[5])
            r2 = d1[5] - (-(2 / k) * d2[4] - 3 * h * d2[5] + 4 * (k - 1) / (3 * k * h) * d2[3])
            assert abs(r1) < 1e-6 * max(abs(d1[4]), 1.0)
            assert abs(r2) < 1e-6 * max(abs(d1[5]), 1.0)

    def test_L2J_identity(self, p4, prop4):
        # J = -4h I-10' + (3kh^2-4) I-11' satisfies
        # L2 J = (4/3)(k-1)[h (9kh^2-4) I11''' + (6kh^2+8) I11'']
        k = p4.kappa
        for h in (-0.5, -0.45, -0.6):
            d1, d2, d3 = prop4.chain(h)
            J = -4 * h * d1[4] + (3 * k * h * h - 4) * d1[5]
            J1 = -4 * d1[4] - 4 * h * d2[4] + 6 * k * h * d1[5] + (3 * k * h * h - 4) * d2[5]
            J2 = (-8 * d2[4] - 4 * h * d3[4] + 6 * k * d1[5] + 12 * k * h * d2[5]
                  + (3 * k * h * h - 4) * d3[5])
            lhs = apply_L2(J, J1, J2, h, p4)
            rhs = (4 / 3) * (k - 1) * (h * (9 * k * h * h - 4) * d3[3]
                                       + (6 * k * h * h + 8) * d2[3])
            assert lhs == pytest.approx(rhs, rel=1e-6)


class TestOperators:
    @given(h=st.floats(-5, 5, allow_nan=False))
    def test_L1_annihilates_h(self, h):
        assert apply_L1(h, 1.0, h) == 0.0

    @given(c=st.floats(-100, 100, allow_nan=False), h=st.floats(-5, 5))
    def test_L1_constant(self, c, h):
        assert apply_L1(c, 0.0, h) == -c

    @given(h=st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=50)
    def test_L2_on_h(self, h):
        p = make_params(4.0)
        assert apply_L2(h, 1.0, 0.0, h, p) == pytest.approx(-4 * p.kappa * h * h + 8)

    @given(h=st.floats(-2, 2, allow_nan=False))
    @settings(max_examples=50)
    def test_L2_on_one(self, h):
        p = make_params(4.0)
        assert apply_L2(1.0, 0.0, 0.0, h, p) == pytest.approx(5 * p.kappa * h)

    def test_s_operator_chain_rule(self, p4):
        # L2 in h equals 24 sqrt(kappa s) times the s-operator, chain-ruled
        # through s = (9 kappa/4) h^2; checked on a generic smooth function
        from q4lab.model import h_from_s
        k = p4.kappa
        for s in np.linspace(1.2, 3.8, 10):
            h = h_from_s(s, p4)
            g = math.sin(3 * h) + h * h
            gh = 3 * math.cos(3 * h) + 2 * h
            ghh = -9 * math.sin(3 * h) + 2
            dsdh = -3 * math.sqrt(k * s)
            gs = gh / dsdh
            gss = (ghh - gs * 4.5 * k) / dsdh**2
            lhs = apply_L2(g, gh, ghh, h, p4)
            rhs = l2_chain_factor(s, p4) * apply_s_operator(g, gs, gss, s)
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestContinuation:
    def test_closed_loop_returns(self, p4):
        st0 = initial_jstate(2.5, p4)
        loop = [2.5, 2.5 + 1j, 4.5 + 1j, 4.5 + 2j, 2.5 + 2j, 2.5 + 1j, 2.5]
        st1 = propagate_J([complex(z) for z in loop], st0, p4)
        assert np.max(np.abs(st1.J - st0.J)) < 1e-8 * np.max(np.abs(st0.J))

    def test_loop_around_kappa_trivial_monodromy(self, p4):
        # s = kappa is the center level: J continues analytically through it
        st0 = initial_jstate(2.5, p4)
        loop = [2.5, 2.5 - 0.7j, 6.0 - 0.7j, 6.0 + 0.7j, 2.5 + 0.7j, 2.5]
        st1 = propagate_J([complex(z) for z in loop], st0, p4)
        assert np.max(np.abs(st1.J - st0.J)) < 1e-8 * np.max(np.abs(st0.J))

    def test_wronskian_constant_real_interval(self, p4):
        st0 = initial_jstate(2.0, p4)
        det0 = st0.det_W
        st1 = propagate_J([2.0, 1.01], st0, p4)
        st2 = propagate_J([2.0, 3.99], st0, p4)
        assert abs(st1.det_W - det0) < 1e-8 * abs(det0)
        assert abs(st2.det_W - det0) < 1e-8 * abs(det0)

    def test_wronskian_constant_complex_rectangle(self, p4):
        st0 = initial_jstate(2.5, p4)
        det0 = st0.det_W
        rect = [2.5, 2.5 + 0.8j, 0.3 + 0.8j, 0.3 + 2j, 2.5 + 2j, 2.5 + 0.8j, 2.5]
        st1 = propagate_J([complex(z) for z in rect], st0, p4)
        assert abs(st1.det_W - det0) < 1e-8 * abs(det0)

    def test_arc_pieces(self, p4):
        st0 = initial_jstate(2.5, p4)
        stA = propagate_J([2.5, 1.0 + 0.5j], st0, p4)
        stB = continue_state([Arc(1.0 + 0j, 0.5, np.pi / 2, np.pi)], stA, p4)
        assert stB.s == pytest.approx(0.5 + 0j, abs=1e-12)
        assert abs(stB.det_W - st0.det_W) < 1e-8 * abs(st0.det_W)

    def test_exponents_fit_one_sixth(self):
        for kappa in (2.0, 4.0):
            lo, hi = infinity_exponents(make_params(kappa))
            assert abs(hi - 1 / 6) < 1e-3
            assert abs(lo + 1 / 6) < 1e-3

    @staticmethod
    def _exponents_along_lines(p):
        # an independent route: scipy's DOP853 on the realified dW/ds = A(s) W,
        # A = N(s) / (6 (s - 1)(s - kappa)), along the real axis, and LAPACK's
        # inverse and eigenvalues
        k = p.kappa

        def rhs(s, y):
            W = (y[:4] + 1j * y[4:]).reshape(2, 2)
            A = np.array([[1.0 - s, k - 1.0], [1.0 - s, s - 1.0]]) / (6.0 * (s - 1.0) * (s - k))
            dW = A @ W
            return np.concatenate([dW.real.ravel(), dW.imag.ravel()])

        s0, s1, s2 = 10.0 * k, 1e3 * k, 1e5 * k
        kw = dict(method="DOP853", rtol=1e-13, atol=1e-15)
        y1 = solve_ivp(rhs, (s0, s1), np.eye(2).ravel().tolist() + [0.0] * 4, **kw).y[:, -1]
        y2 = solve_ivp(rhs, (s1, s2), y1, **kw).y[:, -1]
        W1, W2 = ((y[:4] + 1j * y[4:]).reshape(2, 2) for y in (y1, y2))
        ev = np.linalg.eigvals(W2 @ np.linalg.inv(W1))
        return np.sort(np.log(np.abs(ev)) / math.log(s2 / s1))

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0, 20.0])
    def test_exponents_symmetric_and_match_line_route(self, kappa):
        # det W is constant (trace A = 0), so the exponents are exactly
        # opposite
        p = make_params(kappa)
        lo, hi = infinity_exponents(p)
        assert abs(hi + lo) <= 1e-15
        assert np.max(np.abs(np.array([lo, hi]) - self._exponents_along_lines(p))) <= 1e-12

    def test_line_proximity_guard(self, p4):
        # the segment passes 5e-5 from s = 1, and the nearest of the 257
        # samples is 3.9e-4 away: only the exact point-to-segment distance sees it
        w = 1.0 + 5e-5j
        state = JState(s=0.6 * w, W=np.eye(2, dtype=complex))
        with pytest.raises(PathProximityError, match="singular point s=\\(1"):
            continue_state([Line(0.6 * w, 1.7 * w)], state, p4)

    @pytest.mark.parametrize("kappa", [1.001, 1.005, 1.01])
    def test_wronskian_path_next_to_kappa_one(self, kappa):
        # verify's Wronskian path ends at 1 + max(0.01 (kappa - 1), 2 eps_min),
        # eps_min = 1e-4 from s = 1, where 1 + 0.01 (kappa - 1) was refused
        p = make_params(kappa)
        st0 = initial_jstate(math.sqrt(kappa), p)
        st1 = propagate_J([math.sqrt(kappa), 1.0 + max(0.01 * (kappa - 1.0), 2e-4)], st0, p)
        assert abs(st1.det_W - st0.det_W) <= 1e-8 * abs(st0.det_W)

    def test_proximity_guard(self, p4):
        st0 = initial_jstate(2.5, p4)
        with pytest.raises(PathProximityError):
            propagate_J([2.5, 4.0], st0, p4)

    def test_cut_guard(self, p4):
        st0 = initial_jstate(2.5, p4)
        with pytest.raises(PathProximityError):
            propagate_J([2.5, 2.5 + 0.5j, 0.5 + 0.5j, 0.5 - 0.5j], st0, p4)

    def test_path_must_start_at_state(self, p4):
        st0 = initial_jstate(2.5, p4)
        with pytest.raises(DomainError):
            propagate_J([3.0, 3.5], st0, p4)

    def test_initial_state_positive_J1(self, p4):
        # I00' is the area derivative: positive on the annulus
        st0 = initial_jstate(2.5, p4)
        assert st0.J[0].real > 0
        assert abs(st0.J[0].imag) == 0


def _mp_center_series(kappa, terms):
    """V's Taylor coefficients about h_c = -2/3 at 40 digits: V(h_c) = 0,
    V'(h_c) = pi / sqrt(kappa - 1) (1, ..., 1), and (n + 1) B(h_c) v_{n+1} =
    (1 - n B') v_n, with row 3 of B(h_c) (a combination of rows 0 and 1 there)
    replaced by the next order's solvability, (1, -3, 0, -4, 0, 0)
    (1 - (n + 1) B') v_{n+1} = 0."""
    import mpmath as mp

    with mp.workdps(40):
        k, h = mp.mpf(kappa), mp.mpf(-2) / 3
        B = mp.matrix([[1.5 * h, 0, 1, 0, 0, 0], [0, h, 0, mp.mpf(2) / 3, 0, 0],
                       [2 / (3 * k), 0, h, 2 * (k - 1) / (3 * k), 0, 0],
                       [3 * h / 8, 0.5, 0.25, 0.75 * h, 0, 0], [0, 0, 0, 0, 3 * h, 2],
                       [0, (k - 1) / k, 0, 0, 1 / k, 1.5 * h]])
        Bp = mp.matrix(pf._B_PRIME.tolist())
        ell = mp.matrix([[1, -3, 0, -4, 0, 0]])
        v = [mp.matrix(6, 1), mp.pi / mp.sqrt(k - 1) * mp.ones(6, 1)]
        for n in range(1, terms):
            A, rhs = B.copy(), (mp.eye(6) - n * Bp) * v[n] / (n + 1)
            A[3, :], rhs[3] = ell * (mp.eye(6) - (n + 1) * Bp), 0
            v.append(mp.lu_solve(A, rhs))
        return v


def _mp_sum(series, h):
    import mpmath as mp

    with mp.workdps(40):
        u, total = mp.mpf(h) + mp.mpf(2) / 3, mp.matrix(6, 1)
        for n, v in enumerate(series):
            total += v * u**n
        return [total[i] for i in range(6)]


def _mp_J_at_s(s, kappa):
    """J at the double (real or complex) s with 40 digits, from the 2F1 forms."""
    import mpmath as mp

    with mp.workdps(40):
        k = mp.mpf(kappa)
        z = (k - s) / (k - 1)
        c = mp.pi / mp.sqrt(k - 1)
        J1 = c * mp.hyp2f1(mp.mpf(1) / 6, mp.mpf(5) / 6, 1, z)
        J2 = (1 - z) * J1 + mp.mpf(5) / 6 * c * z * mp.hyp2f1(mp.mpf(5) / 6, mp.mpf(1) / 6, 2, z)
        return [J1, J2]


def _mp_J(h, kappa):
    """J at the double level h with 40 digits, from the 2F1 forms."""
    import mpmath as mp

    with mp.workdps(40):
        return _mp_J_at_s(mp.mpf(9) / 4 * mp.mpf(kappa) * mp.mpf(h) ** 2, kappa)


class TestHypergeometricJ:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_matches_40_digits_on_keyhole_and_table(self, kappa):
        # 120 points on each keyhole piece and on the J table's interval.
        # Measured worst relative errors, keyhole: 1.4e-13 (kappa 1.5),
        # 4.0e-14 (4), 5.9e-14 (9); table: 8.3e-15.  J2 written with
        # 2F1(7/6, 11/6; 2; z) cancels and missed by 5.9e-13, 6.7e-13 and
        # 8.9e-13 on the keyhole, 3.7e-14 on the table at kappa 4.
        import mpmath as mp

        p = make_params(kappa)
        tab = j_table(p)
        s_tab = np.linspace(tab.lo, tab.hi, 120)
        pieces = dict(keyhole_reference(p), table=(s_tab, tab.J(s_tab)))
        for name, (s, J) in pieces.items():
            worst = 0.0
            for i in np.linspace(0, s.size - 1, 120).round().astype(int):
                with mp.workdps(40):
                    want = _mp_J_at_s(mp.mpc(complex(s[i])), kappa)
                    worst = max(worst, *(float(abs((mp.mpc(complex(x)) - w) / w))
                                         for x, w in zip(J[:, i], want)))
            assert worst <= (2e-14 if name == "table" else 3e-13), (name, worst)


class TestSeriesSum:
    def test_is_a_left_fold_whatever_the_layout(self):
        # the reference loop: running powers of t, terms added in order of n
        rng = np.random.default_rng(5)
        coef = rng.normal(size=(6, 9, 41)) * 0.5 ** np.arange(41)
        t = rng.uniform(-0.25, 0.25, size=9)
        want, power = coef[..., 0].copy(), np.ones(9)
        for n in range(1, 41):
            power = power * t
            want = want + coef[..., n] * power
        for c in (coef, np.asfortranarray(coef), np.repeat(coef, 2, axis=-1)[..., ::2]):
            assert np.array_equal(series_sum(c, t), want)
            assert np.array_equal(series_sum(c[:, ::-1], t[::-1]), want[:, ::-1])
        jet = series_jet(coef, t)
        assert np.array_equal(jet.f[0], want)
        d1 = sum(n * coef[..., n] * t ** (n - 1) for n in range(1, 41))
        assert np.max(np.abs(jet.f[1] - d1)) <= 1e-14 * np.max(np.abs(d1))


class TestMomentBasis:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_matches_dop853(self, kappa):
        # 257 levels of the scanner grid, its first and last nodes included
        p = make_params(kappa)
        basis, ode = MomentBasis(p), PFPropagation(p)
        grid = bound_scanner(p).hs
        hs = np.append(grid[::2], grid[-1])
        Va, Vb = ode.values(hs), basis.values(hs)
        assert np.all(np.max(np.abs(Vb - Va), axis=1) <= 1e-10 * np.max(np.abs(Va), axis=1))
        # the propagation's derivatives are B(h)^-1 of its values, whose error
        # grows with cond(B) toward both ends; compare where cond(B) <= 1e6 ...
        Da, Db = ode.derivs(hs), basis.derivs(hs)
        cond = np.array([np.linalg.cond(pf_matrix(h, p)) for h in hs])
        inner = cond <= 1e6
        assert inner.sum() >= hs.size - 4
        sup = np.max(np.abs(Da), axis=1)
        assert np.all(np.max(np.abs(Db - Da)[:, inner], axis=1) <= 1e-10 * sup)
        # ... and at the grid ends check J against 40 digits, and rows 2 and 3
        # of V = B V', which the basis does not use
        for h in grid[[0, -1]]:
            J, want = basis.J(h), _mp_J(h, kappa)
            assert all(abs(float((x - w) / w)) <= 1e-10 for x, w in zip(J, want))
            v, d, B = basis.values(h), basis.derivs(h), pf_matrix(h, p)
            for row in (2, 3):
                scale = np.max(np.abs(np.append(B[row] * d, v[row])))
                assert abs(v[row] - B[row] @ d) <= 1e-10 * scale

    def test_J_is_hypergeometric_J_at_the_levels(self):
        for kappa in (1.5, 4.0, 9.0):
            p = make_params(kappa)
            hs, basis = bound_scanner(p).hs, MomentBasis(p)
            assert np.array_equal(basis.J(hs), pf.hypergeometric_J(s_from_h(hs, p), p))
            assert np.array_equal(basis.J(hs[7]),
                                  pf.hypergeometric_J(s_from_h(hs[7], p), p)[:, 0])

    def test_J_keeps_digits_at_the_saddle(self):
        # J2 through Euler's transformation: no digits lost as z -> 1
        for kappa in (1.5, 4.0, 30.0):
            p = make_params(kappa)
            for off in (1e-8, 1e-6):
                h = p.saddle_h - off
                J, want = pf.hypergeometric_J(s_from_h(h, p), p)[:, 0], _mp_J(h, kappa)
                assert abs(float((J[1] - want[1]) / want[1])) <= 1e-14
                assert abs(float((J[0] - want[0]) / want[0])) <= 1e-9

    def test_dop853_derivs_do_not_hang_on_the_oracle_bits(self, monkeypatch):
        # with plain LAPACK solves and DOP853, moving the midpoint oracle by an
        # ulp or two put the propagation's derivatives 1e-10 to 5e-10 of their
        # sup off the basis in most draws at kappa 1.5 (cond(B) up to 1e6)
        p = make_params(1.5)
        grid = bound_scanner(p).hs
        hs = np.append(grid[::2], grid[-1])
        inner = np.array([np.linalg.cond(pf_matrix(h, p)) for h in hs]) <= 1e6
        oracle = pf.basis_values
        rng = np.random.default_rng(5)
        for _ in range(4):
            steps = rng.integers(-2, 3, size=6) * 2.0**-53
            monkeypatch.setattr(pf, "basis_values",
                                lambda h, params, tol: oracle(h, params, tol=tol) * (1 + steps))
            Da, Db = PFPropagation(p).derivs(hs), MomentBasis(p).derivs(hs)
            sup = np.max(np.abs(Da), axis=1)
            assert np.all(np.max(np.abs(Db - Da)[:, inner], axis=1) <= 5e-11 * sup)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_dop853_J_at_the_scanner_end_nodes(self, kappa):
        # the end nodes, cond(B) 1e7: J within 2e-9 of 40 digits.  DOP853 was
        # 5.5e-8 off at kappa 1.5 with plain LAPACK solves, and 1e-10 to 7e-10
        # with B^-1 in closed form; the Taylor steps are 4e-16 to 3e-15 off at
        # the center end and 3e-11 to 9e-11 at the saddle end, where the pole
        # of B^-1 magnifies the error in V
        p = make_params(kappa)
        grid = bound_scanner(p).hs
        d = PFPropagation(p).derivs(grid[[0, -1]])
        for col, h in enumerate(grid[[0, -1]]):
            want = _mp_J(h, kappa)
            for got, w in zip(d[[0, 3], col], want):
                assert abs(float((got - w) / w)) <= 2e-9

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_dop853_J_at_the_end_nodes_survives_oracle_ulps(self, kappa, monkeypatch):
        # the end nodes' J must not hang on the last bits of the midpoint
        # oracle: with v_mid moved by -2, -1, 1 or 2 ulps per component (16
        # seeded draws), J stays within the same 2e-9 of 40 digits.  Over 256
        # draws of this seed the Taylor steps miss none (worst 1.1e-10,
        # 2.4e-10 and 7.4e-11 at kappa 1.5, 4 and 9); DOP853 missed in 3.1%,
        # 0.4% and 0.4% of them at rtol 1e-13, and 12.9%, 0.8% and 1.6% at 1e-12
        p = make_params(kappa)
        ends = bound_scanner(p).hs[[0, -1]]
        want = [_mp_J(h, kappa) for h in ends]
        oracle = pf.basis_values
        rng = np.random.default_rng(11)
        for _ in range(16):
            ulps = rng.choice([-2.0, -1.0, 1.0, 2.0], size=6)

            def moved(h, params, tol, ulps=ulps):
                v = oracle(h, params, tol=tol)
                return v + ulps * np.spacing(np.abs(v))

            monkeypatch.setattr(pf, "basis_values", moved)
            d = PFPropagation(p).derivs(ends)
            for col, w in enumerate(want):
                for got, ref in zip(d[[0, 3], col], w):
                    assert abs(float((got - ref) / ref)) <= 2e-9, (ulps, col)

    def test_builds_without_quadrature_and_shapes(self, p4, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("MomentBasis called the quadrature oracle")

        monkeypatch.setattr(pf, "basis_values", refuse)
        basis = MomentBasis(p4)
        assert basis.values(-0.5).shape == (6,) and basis.derivs(-0.5).shape == (6,)
        assert basis.values(np.array([-0.6, -0.5])).shape == (6, 2)
        assert basis.derivs(np.array([-0.6, -0.5])).shape == (6, 2)
        with pytest.raises(DomainError):
            basis.values(p4.saddle_h)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_matches_green(self, kappa):
        # both series, the center's below the switch and the saddle form
        # above it, against the quadrature oracle at tol 1e-13 (at kappa 1.01
        # the oracle itself is 4.4e-13 off at 0.05 of the window)
        p = make_params(kappa)
        basis = MomentBasis(p)
        for q in (0.05, 0.3, 0.5, 0.7, 0.95):
            h = basis.lo + q * (basis.hi - basis.lo)
            want = basis_values(h, p, tol=1e-13)
            assert np.all(np.abs(basis.values(h) - want) <= 1e-13 * np.abs(want)), q

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_matches_40_digits(self, kappa):
        # the center series at 40 digits, by its own recursion, converges
        # across the window: against it the basis sums the saddle form above
        # the switch (0.5 of the window to kappa 9, 0.94 at kappa 1000).  At
        # the window's center end (1e-8 from h_c) the relative error stays at
        # rounding, as h - h_c is formed without the rounding of h_c
        p = make_params(kappa)
        basis = MomentBasis(p)
        series = _mp_center_series(kappa, 520)
        for q in (0.0, 1e-6, 0.05, 0.3, 0.5, 0.7, 0.9):
            h = basis.lo + q * (basis.hi - basis.lo)
            want = _mp_sum(series, h)
            got = basis.values(h)
            assert all(abs(float((g - w) / w)) <= 1e-13 for g, w in zip(got, want)), q

    @pytest.mark.parametrize("kappa", [1.5, 9.0, 1000.0])
    def test_bound_holds_over_cells(self, kappa):
        # |V|, |V'| and |V''| of the representation at 65 levels of each cell,
        # against the magnitude jets: cells at both window ends, across the
        # switch and across the window
        p = make_params(kappa)
        basis = MomentBasis(p)
        lo, hi, sw = basis.lo, basis.hi, basis.switch
        w = hi - lo
        edges = np.sort(np.concatenate([
            lo + w * np.geomspace(1e-8, 1e-2, 7), np.linspace(lo, hi, 8)[1:-1],
            sw + w * np.array([-1e-3, 1e-3]), hi - w * np.geomspace(1e-2, 1e-8, 7)]))
        a, b = edges[:-1], edges[1:]
        assert np.all(b > a) and np.any((a < sw) & (sw < b))
        bound = basis.bound(a, b)
        pts = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 65)
        jet = basis.taylor(pts.ravel())
        for c in range(3):
            got = np.abs(jet.f[c]).reshape(6, *pts.shape).max(axis=-1)
            assert np.all(got <= bound.f[c]), (c, np.max(got / bound.f[c]))

    def test_saddle_factors_bound_their_derivatives(self):
        # log|u| and |u|^(1/2) with their u-derivatives, over cells between
        # u and near (|u| < 1), against their magnitude jets
        far = -np.geomspace(0.6, 1e-9, 25)
        near = far * 0.3
        bound = pf._saddle_factors(far, near)
        u = far[:, None] + (near - far)[:, None] * np.linspace(0.0, 1.0, 33)
        for signed, mag in zip(pf._saddle_factors(u.ravel()), bound):
            for c in range(3):
                got = np.abs(signed.f[c]).reshape(u.shape).max(axis=1)
                assert np.all(got <= mag.f[c] * (1 + 1e-15)), c

    def test_JJ_matches_derivs(self, p4):
        basis = MomentBasis(p4)
        hs = np.linspace(-0.65, -0.35, 31)
        d = basis.derivs(hs)
        JJ = -4.0 * hs * d[4] + (3.0 * p4.kappa * hs * hs - 4.0) * d[5]
        assert np.max(np.abs(basis.JJ(hs) - JJ)) <= 1e-12 * np.max(np.abs(JJ))

    def test_one_sided_values_keep_the_bits(self):
        # values on one side of the switch (part called on all levels) are
        # the per-level values, in either layout of the levels
        for kappa in (1.5, 4.0, 9.0):
            p = make_params(kappa)
            basis, hs = MomentBasis(p), bound_scanner(p).hs
            saddle = hs >= basis.switch
            for h in (hs, hs[saddle][::-1], hs[~saddle][::-1], hs[3:6].copy()):
                per_level = np.stack([basis.values(x) for x in h], axis=1)
                assert np.array_equal(basis.values(h), per_level)
                assert np.array_equal(basis.values(np.ascontiguousarray(h)), per_level)

    def test_perturbed_system_raises(self, p4, monkeypatch):
        # a wrong dB/dh continues the series along another ODE; rows 2 and 3
        # against the closed-form J catch it at the window ends
        perturbed = pf._B_PRIME.copy()
        perturbed[0, 0] *= 1.0 + 1e-5
        monkeypatch.setattr(pf, "_B_PRIME", perturbed)
        with pytest.raises(ConsistencyError, match="row 2"):
            MomentBasis(p4)
