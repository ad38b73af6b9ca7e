import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q4lab import DomainError, UnsupportedIndexError, make_params
from q4lab.analysis import bound_scanner
from q4lab.melnikov import get_moment_basis
from q4lab.model import HamiltonianForm, interior_levels
from q4lab.picard_fuchs import _Jet
from q4lab.quadrature import MomentIndex, moment_value
from q4lab.reduction import (
    G_rows,
    I_rows,
    JJ_value,
    assemble_I,
    inversion_check,
    moment_reduce,
    mu_eq22_from_eq28,
    mu_eq28_from_eq22,
    mu_eq210_from_eq211,
    mu_eq211_from_eq210,
    mu_G_from_eq211,
    recurrence_residual,
    recurrence_scale,
    reduction_residual,
    weigh,
)

H0 = -0.5


class TestRecurrences:
    @pytest.mark.parametrize("kind", ["eq25", "eq26", "combined"])
    @pytest.mark.parametrize("ij", [(0, 0), (1, 1), (-3, 2), (-6, 0)])
    def test_residuals_vanish(self, p4, kind, ij):
        r = recurrence_residual(kind, *ij, H0, p4)
        s = recurrence_scale(kind, *ij, H0, p4)
        assert abs(r) <= 1e-6 * s

    def test_eq26_kappa2(self, p2):
        r = recurrence_residual("eq26", 0, 0, -0.52, p2)
        s = recurrence_scale("eq26", 0, 0, -0.52, p2)
        assert abs(r) <= 1e-6 * s

    def test_combined_minus6_1_degenerates(self, p4):
        # i+j+5 = 0 kills the first two terms; the identity reduces to
        # 4 (kappa-1) (I_{-6,1} - I_{-6,2}) = 0
        r = recurrence_residual("combined", -6, 1, H0, p4)
        a = moment_value(-6, 1, H0, p4, form=HamiltonianForm.CUBIC_FORM)
        b = moment_value(-6, 2, H0, p4, form=HamiltonianForm.CUBIC_FORM)
        expect = -4.0 * (p4.kappa - 1.0) * b + 4.0 * (p4.kappa - 1.0) * a
        assert r == pytest.approx(expect, abs=1e-12)
        assert a == pytest.approx(b, rel=1e-8)

    def test_unknown_kind(self, p4):
        with pytest.raises(DomainError):
            recurrence_residual("eq27", 0, 0, H0, p4)

    def test_unknown_kind_scale(self, p4):
        # the scale shares the residual's term lists; an unknown kind is not
        # scored as "combined"
        with pytest.raises(DomainError, match="eq27"):
            recurrence_scale("eq27", 0, 0, H0, p4)


class TestMomentReduce:
    @pytest.mark.parametrize("ij", [(1, 2), (2, 1), (3, 0), (0, 3), (-1, 4)])
    def test_oracle_check(self, ij, p4, p15):
        for p in (p15, p4):
            for h in interior_levels(p, 5, 0.1, 0.9):
                lhs = moment_value(*ij, h, p)
                resid = reduction_residual(MomentIndex(*ij), h, p)
                assert abs(resid) <= 1e-6 * max(abs(lhs), 1e-6)

    def test_combination_table_i30(self, p4):
        comb = moment_reduce(MomentIndex(3, 0), p4)
        # 3 kappa h / (10 (kappa-1)) I00 + I10 + kappa/(5(kappa-1)) I01
        k = p4.kappa
        got = {(idx.i, idx.j): coeffs for coeffs, idx in comb.terms}
        assert got[(0, 0)] == (0.0, 3 * k / (10 * (k - 1)))
        assert got[(1, 0)] == (1.0,)
        assert got[(0, 1)] == (k / (5 * (k - 1)),)

    def test_unsupported_index(self, p4):
        with pytest.raises(UnsupportedIndexError):
            moment_reduce(MomentIndex(5, 5), p4)
        with pytest.raises(UnsupportedIndexError):
            moment_reduce(MomentIndex(3, 0, HamiltonianForm.CUBIC_FORM), p4)


class TestInversion:
    @pytest.mark.parametrize("ij", [(-3, 0), (-6, 1), (-4, 0), (-6, 3), (-5, 1)])
    def test_residual_vanishes(self, p4, ij):
        a = moment_value(*ij, H0, p4, form=HamiltonianForm.CUBIC_FORM)
        assert abs(inversion_check(*ij, H0, p4)) <= 1e-6 * abs(a)


class TestRouteConversions:
    @given(mu=st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 4),
           kappa=st.sampled_from([1.5, 2.0, 4.0, 9.0]))
    @settings(max_examples=100)
    def test_eq22_eq28_roundtrip(self, mu, kappa):
        out = mu_eq22_from_eq28(mu_eq28_from_eq22(mu, kappa), kappa)
        assert np.allclose(out, mu, rtol=1e-12, atol=1e-9)

    @given(mu=st.tuples(*[st.floats(-3, 3, allow_nan=False)] * 4),
           kappa=st.sampled_from([1.5, 2.0, 4.0, 9.0]))
    @settings(max_examples=100)
    def test_eq210_eq211_roundtrip(self, mu, kappa):
        out = mu_eq210_from_eq211(mu_eq211_from_eq210(mu, kappa), kappa)
        assert np.allclose(out, mu, rtol=1e-10, atol=1e-8)

    def test_G_conversion_linear(self):
        a = mu_G_from_eq211((1, 2, 3, 4), 4.0)
        b = mu_G_from_eq211((2, 4, 6, 8), 4.0)
        assert np.allclose(b, 2 * a)


class TestNormalForms:
    """I_rows, JJ_value and G_rows are written once for floats, arrays and
    jets; every caller (the scanner's rows, their variation jets, eval_G,
    assemble_I and G_from_chain) gets the same bits from them."""

    @staticmethod
    def _rows(h, V, J1, J2, kappa):
        return (*I_rows(h, V, kappa), *G_rows(h, J1, J2, JJ_value(h, V, J2, kappa)))

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_scalar_level_is_its_column_of_an_array_call(self, kappa):
        p = make_params(kappa)
        basis = get_moment_basis(p)
        hs = bound_scanner(p).hs
        V, (J1, J2) = basis.values(hs), basis.J(hs)
        rows = np.stack(self._rows(hs, V, J1, J2, kappa))
        for i in range(0, hs.size, 7):
            one = self._rows(float(hs[i]), [float(v) for v in V[:, i]],
                             float(J1[i]), float(J2[i]), kappa)
            assert np.array(one).tobytes() == rows[:, i].tobytes()

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_signed_jets_carry_the_float_rows(self, kappa, rng):
        p = make_params(kappa)
        basis = get_moment_basis(p)
        hs = bound_scanner(p).hs[::5]
        V, (J1, J2) = basis.values(hs), basis.J(hs)
        jet = lambda x: _Jet((x, *rng.normal(size=(2, *np.shape(x)))))
        got = self._rows(_Jet((hs, 1.0, 0.0)), [jet(v) for v in V], jet(J1), jet(J2), kappa)
        for g, want in zip(got, self._rows(hs, V, J1, J2, kappa)):
            assert g.f[0].tobytes() == want.tobytes()

    def test_weigh_folds_left_in_order(self):
        # ((1e16 + 1) - 1e16) + 1; a compensated sum gives 2.0, a pairwise one 0.0
        rows = (1e16, 1.0, -1e16, 1.0)
        assert weigh((1.0,) * 4, rows) == 1.0
        assert weigh((1.0,) * 4, [_Jet((r, 0.0, 0.0)) for r in rows]).f[0] == 1.0


class TestAssembleI:
    def test_routes_agree_on_100_point_grid(self, rng):
        # pairwise route equality over a (h, kappa, mu) grid of >= 100 points
        points = 0
        for kappa in (1.5, 4.0):
            for _ in range(5):
                mu = tuple(rng.normal(size=4))
                p = make_params(kappa, mu=mu)
                for h in interior_levels(p, 10, 0.15, 0.75):
                    vals = [assemble_I(h, p, r) for r in ("eq22", "eq28", "eq210", "eq211")]
                    scale = max(abs(v) for v in vals) + 1e-12
                    assert max(vals) - min(vals) <= 1e-6 * scale
                    points += 1
        assert points >= 100

    def test_recurrences_other_kappas_spot(self):
        # the recurrence invariant extends across the kappa range
        for kappa in (2.0, 9.0):
            p = make_params(kappa)
            h = 0.5 * (p.center_h + p.saddle_h)
            for kind in ("eq25", "eq26", "combined"):
                r = recurrence_residual(kind, -2, 1, h, p)
                s = recurrence_scale(kind, -2, 1, h, p)
                assert abs(r) <= 3e-7 * s

    def test_vanishes_at_center(self, rng):
        mu = tuple(rng.normal(size=4))
        p = make_params(4.0, mu=mu)
        eps = np.array([1e-3, 1e-4, 1e-5])
        vals = np.array([abs(assemble_I(-2 / 3 + e, p)) for e in eps])
        # I -> 0 (here linearly in the distance to the center level)
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 2e-4 * max(1.0, vals[0] / eps[0])

    def test_linear_in_mu(self, p4):
        mu = (0.3, -1.1, 0.7, 0.2)
        nu = (1.0, 0.5, -0.4, 2.0)
        h = -0.45
        a = assemble_I(h, make_params(4.0, mu=mu))
        b = assemble_I(h, make_params(4.0, mu=nu))
        ab = assemble_I(h, make_params(4.0, mu=tuple(np.add(mu, nu))))
        assert ab == pytest.approx(a + b, rel=1e-12)
        lam = assemble_I(h, make_params(4.0, mu=tuple(3.0 * np.array(mu))))
        assert lam == pytest.approx(3.0 * a, rel=1e-12)

    def test_unknown_route(self, p4):
        with pytest.raises(DomainError):
            assemble_I(H0, p4, "eq299")
