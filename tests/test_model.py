import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from q4lab import (
    DegenerateLevelError,
    DomainError,
    HamiltonianForm,
    SingularityError,
    Window,
    coordinate_map,
    critical_levels,
    h_from_s,
    hamiltonian,
    in_omega,
    level_classify,
    make_params,
    oval,
    real_roots_y,
    s_from_h,
)
from q4lab.model import cubic_real_roots

kappas = st.floats(min_value=1.0, max_value=50.0, exclude_min=True,
                   allow_nan=False, allow_infinity=False)


class TestMakeParams:
    def test_kappa4(self):
        p = make_params(4.0, mu=(1, 0, 0, 0))
        assert p.b == -1.0
        assert p.c == pytest.approx(math.sqrt(3.0), abs=0)
        assert p.alpha == pytest.approx(complex(-1.0, math.sqrt(3.0)))

    def test_kappa2(self):
        p = make_params(2.0)
        assert p.b == 0.0
        assert p.c == 2.0
        assert p.alpha == 2.0j

    @pytest.mark.parametrize("bad", [1.0, 0.5, -3.0, float("nan"), float("inf")])
    def test_rejects_bad_kappa(self, bad):
        with pytest.raises(DomainError):
            make_params(bad)

    @given(kappa=kappas)
    def test_invariants(self, kappa):
        p = make_params(kappa)
        assert abs(abs(p.alpha) - 2.0) < 1e-14
        assert p.c > 0.0
        assert -2.0 < p.b < 2.0


class TestHamiltonian:
    def test_rational_at_origin(self, p4):
        assert hamiltonian("original_rational", (0.0, 0.0), p4) == 4.0 / 9.0

    def test_rational_singularity(self, p2):
        # kappa = 2 has b = 0, so Y = 2(x - y); at x = y = 1/8 we get exactly
        # psi = 1 - 8y = 0
        with pytest.raises(SingularityError):
            hamiltonian("original_rational", (0.125, 0.125), p2)

    def test_cubic_form_at_center(self, p4):
        for h in (-0.5, -0.4, 0.3):
            assert hamiltonian("cubic_form", (1.0, 1.0), p4, h=h) == pytest.approx(-h - 2 / 3)

    def test_cubic_form_requires_h(self, p4):
        with pytest.raises(DomainError):
            hamiltonian("cubic_form", (1.0, 1.0), p4)

    @given(x=st.floats(-3, 3), y=st.floats(-3, 3), kappa=kappas)
    @settings(max_examples=200)
    def test_symmetric_oddness(self, x, y, kappa):
        p = make_params(kappa)
        a = hamiltonian("symmetric_form", (x, y), p)
        b = hamiltonian("symmetric_form", (-x, -y), p)
        assert a == pytest.approx(-b, abs=1e-12 * max(1.0, abs(a)))

    def test_first_integral_correspondence(self, rng):
        # Hcal = 64 (2-b)^2 H(X, Y)^2 on random Omega points
        for kappa in (1.5, 2.0, 4.0, 9.0):
            p = make_params(kappa)
            n = 0
            while n < 100:
                x, y = rng.uniform(-0.3, 0.3, 2)
                if not in_omega(x, y, p):
                    continue
                n += 1
                X, Y = coordinate_map((x, y), p)
                lhs = hamiltonian("original_rational", (x, y), p)
                rhs = 64.0 * (2.0 - p.b) ** 2 * hamiltonian("XY_form", (X, Y), p) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-10)


class TestCoordinateMap:
    def test_origin(self, p4):
        assert coordinate_map((0.0, 0.0), p4) == (1.0, 0.0)

    def test_rejects_negative_psi(self, p4):
        # psi(0, 1) = 1 - 8 + 4 = -3 for kappa = 4
        with pytest.raises(DomainError):
            coordinate_map((0.0, 1.0), p4)


class TestCriticalLevels:
    @pytest.mark.parametrize("kappa", [1.1, 1.5, 2.0, 4.0, 9.0])
    def test_levels(self, kappa):
        p = make_params(kappa)
        cl = critical_levels(p)
        assert cl["center_h"] == -2 / 3
        assert cl["saddle_h"] == pytest.approx(-2 / (3 * math.sqrt(kappa)), abs=0)
        # the critical points really are critical values of the symmetric form
        assert hamiltonian("symmetric_form", cl["center_point"], p) == pytest.approx(-2 / 3)
        assert hamiltonian("symmetric_form", cl["saddle_point"], p) == pytest.approx(
            cl["saddle_h"])

    def test_kappa4_values(self, p4):
        cl = critical_levels(p4)
        assert cl["saddle_h"] == pytest.approx(-1 / 3)
        assert cl["saddle_point"] == (0.0, 0.5)


class TestLevelClassify:
    def test_examples(self, p4):
        assert level_classify(-2 / 3, p4).window is Window.CENTER_END
        assert level_classify(-2 / 3, p4).s == pytest.approx(4.0)
        lp = level_classify(-1 / 3, p4)
        assert lp.window is Window.SADDLE_END
        assert lp.s == pytest.approx(1.0)
        lp = level_classify(-0.5, p4)
        assert lp.window is Window.INTERIOR
        assert lp.s == pytest.approx(2.25)
        assert level_classify(-0.9, p4).window is Window.EXTENDED
        assert level_classify(-0.1, p4).window is Window.OUTSIDE

    @given(kappa=kappas, q=st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=200)
    def test_interior_iff_s_window(self, kappa, q):
        # for h < 0: window == interior  <=>  s in (1, kappa)
        p = make_params(kappa)
        h = p.center_h + q * (p.saddle_h - p.center_h)
        lp = level_classify(h, p)
        if lp.window is Window.INTERIOR:
            assert 1.0 < lp.s < kappa

    @given(kappa=kappas, s=st.floats(0.1, 60.0))
    @settings(max_examples=200)
    def test_s_roundtrip(self, kappa, s):
        p = make_params(kappa)
        assert s_from_h(h_from_s(s, p), p) == pytest.approx(s, rel=1e-12)


class TestCubicRealRoots:
    """cubic_real_roots against 40-digit mpmath.polyroots of the same float
    coefficients: the NaN pattern gives the number of real roots, and a
    root with no other root within a tenth of its modulus is within 4 ulps."""

    @staticmethod
    def _assert_matches(coeffs, got):
        import mpmath as mp

        with mp.workdps(40):
            for c, row in zip(coeffs, got):
                roots = mp.polyroots([mp.mpf(float(a)) for a in c], maxsteps=200, extraprec=100)
                real = sorted(r for r in roots if not isinstance(r, mp.mpc))
                found = row[np.isfinite(row)]
                assert found.size == len(real), (c, row, roots)
                for x, r in zip(found, real):
                    gap = min(abs(o - r) for o in roots if o is not r)
                    if gap > 0.1 * abs(r):
                        assert abs(x - r) <= 4 * np.spacing(abs(float(r))), (c, x, r)

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 100.0, 1000.0])
    def test_ray_cubics(self, form, kappa):
        # the reversed ray cubics K u^3 + L u^2 + Q u + C that build the
        # ovals, from next to the center level to next to the saddle level
        import q4lab.model as model
        p = make_params(kappa)
        theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False) + 0.1
        for frac in (1e-10, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
            h = p.center_h + frac * (p.saddle_h - p.center_h)
            C, Q, L, K = model._ray_poly_coeffs(theta, h, p, form, (1.0, 1.0))
            self._assert_matches(np.stack([K, L, Q, C], axis=1), cubic_real_roots(K, L, Q, C))

    @pytest.mark.parametrize("kappa", [1.01, 4.0, 1000.0])
    def test_level_cubic_at_and_near_the_folds(self, kappa):
        # (kappa/3) y^3 - y - h at h = +-2/(3 sqrt(kappa)) (a double root)
        # and at relative distances 1e-6 and 1e-3 on either side
        fold = 2.0 / (3.0 * math.sqrt(kappa))
        h = np.outer([-fold, fold], [1.0, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 + 1e-6, 1.0 + 1e-3]).ravel()
        near = np.abs(np.abs(h) - fold) > 0.0
        coeffs = np.stack(np.broadcast_arrays(kappa / 3.0, 0.0, -1.0, -h), axis=1)
        got = cubic_real_roots(kappa / 3.0, 0.0, -1.0, -h)
        self._assert_matches(coeffs[near], got[near])
        # at the folds the simple root 2 sign(h) / sqrt(kappa) is the lowest
        # or highest one, whether or not the double root splits
        simple = np.where(h[~near] < 0.0, got[~near, 0], np.nanmax(got[~near], axis=1))
        assert simple == pytest.approx(2.0 * np.sign(h[~near]) / math.sqrt(kappa), rel=1e-15)

    def test_one_three_and_repeated_roots(self):
        got = cubic_real_roots([1.0, 1.0, 2.0, 1.0], [-6.0, 0.0, 0.0, 0.0],
                               [11.0, 0.0, 0.0, 0.0], [-6.0, -8.0, 0.0, 0.0])
        assert got.shape == (4, 3)
        assert got[0].tolist() == pytest.approx([1.0, 2.0, 3.0], rel=1e-15)
        assert got[1, 0] == 2.0 and np.isnan(got[1, 1:]).all()
        assert got[2, 0] == 0.0 and got[3, 0] == 0.0


class TestRealRootsY:
    def test_double_root_level(self, p4):
        roots = real_roots_y(-1 / 3, p4)
        assert [(pytest.approx(r), m) for r, m in roots] == [(-1.0, 1), (0.5, 2)]

    def test_zero_level(self, p4):
        roots = real_roots_y(0.0, p4)
        vals = [r for r, _ in roots]
        assert vals == pytest.approx([-math.sqrt(3 / 4), 0.0, math.sqrt(3 / 4)])

    def test_unique_root_level(self, p4):
        h = -2 * math.sqrt(5) / (3 * math.sqrt(4.0))
        roots = real_roots_y(h, p4)
        assert len(roots) == 1
        assert roots[0][0] == pytest.approx(-math.sqrt(5) / 2, rel=1e-14)

    @given(h=st.floats(-3, 3), kappa=kappas)
    @settings(max_examples=300)
    def test_residual_bound(self, h, kappa):
        p = make_params(kappa)
        for r, _ in real_roots_y(h, p):
            assert abs((kappa / 3) * r**3 - r - h) <= 1e-12 * max(1.0, abs(h))

    @given(h=st.floats(-4, 4), kappa=kappas)
    @settings(max_examples=300)
    def test_root_count(self, h, kappa):
        p = make_params(kappa)
        fold = 2 / (3 * math.sqrt(kappa))
        roots = real_roots_y(h, p)
        total = sum(m for _, m in roots)
        if abs(abs(h) - fold) > 1e-9:
            assert total == (3 if abs(h) < fold else 1)


class TestOval:
    def test_small_oval_near_center(self, p4):
        ov = oval(-2 / 3 + 1e-8, p4)
        r = np.linalg.norm(ov.points[:-1] - np.array([1.0, 1.0]), axis=1)
        assert np.all(r < 5e-4)
        assert np.all(r > 1e-6)

    def test_angle_arrays_keep_their_shape(self, p4):
        ov = oval(-0.5, p4)
        flat = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        for shape in ((12, 1), (3, 4), (2, 3, 2)):
            grid = flat.reshape(shape)
            assert (ov.r_theta(grid) == ov.r_theta(flat).reshape(shape)).all()
            for got, want in zip(ov.point_tangent(grid), ov.point_tangent(flat)):
                assert got.shape == shape
                assert (got == want.reshape(shape)).all()

    def test_vertices_on_level(self, p4):
        ov = oval(-0.5, p4)
        x, y = ov.points[:, 0], ov.points[:, 1]
        resid = np.abs(hamiltonian("symmetric_form", (x, y), p4) + 0.5)
        assert np.max(resid) < 1e-12
        assert ov.closure_gap == 0.0

    def test_point_reflection_duality(self, p4):
        # the dual annulus around (-1, -1) at level -h is the point reflection
        h = -0.5
        ov = oval(h, p4)
        dual = oval(-h, p4, center=(-1.0, -1.0))
        th = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        x, y, _, _ = ov.point_tangent(th)
        xd, yd, _, _ = dual.point_tangent((th + np.pi) % (2 * np.pi))
        assert np.allclose(np.sort(-xd), np.sort(x), atol=1e-12)
        assert np.allclose(np.sort(-yd), np.sort(y), atol=1e-12)

    def test_degenerate_levels_rejected(self, p4):
        for h in (-2 / 3, -1 / 3, -2 / 3 + 1e-12, -0.9, -0.1):
            with pytest.raises(DegenerateLevelError):
                oval(h, p4)

    def test_min_x_positive_interior(self):
        for kappa in (1.5, 4.0, 9.0):
            p = make_params(kappa)
            for q in (0.05, 0.5, 0.95):
                h = p.center_h + q * (p.saddle_h - p.center_h)
                assert oval(h, p).min_x > 1e-3

    def test_cubic_form_next_to_saddle_rejected(self):
        # rays from the center do not resolve the cubic-form oval at 99.9%
        # of the way to the saddle; the level is reported, not patched up,
        # and the error names the check that failed and where
        p = make_params(4.0)
        h = p.center_h + 0.999 * (p.saddle_h - p.center_h)
        with pytest.raises(DegenerateLevelError, match="cubic_form") as exc:
            oval(h, p, form=HamiltonianForm.CUBIC_FORM)
        assert "branch jump at theta=" in str(exc.value)
        assert "limit 0.45" in str(exc.value)

    def test_cubic_form_rejection_window(self):
        # "." built, "B" refused with a branch jump, at fractions of the way
        # from the center level to the saddle level; the window is not
        # monotone in the level.  The companion-matrix eigenvalue solver gave
        # the same pattern as cubic_real_roots, so it comes from the geometry
        fracs = (0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999)
        rows = []
        for kappa in (1.01, 1.5, 4.0, 9.0, 100.0):
            p = make_params(kappa)
            row = ""
            for frac in fracs:
                try:
                    oval(p.center_h + frac * (p.saddle_h - p.center_h), p,
                         form=HamiltonianForm.CUBIC_FORM)
                    row += "."
                except DegenerateLevelError as exc:
                    row += "B" if "branch jump" in str(exc) else "?"
            rows.append(row)
        assert " / ".join(rows) == ".BBBBB / .....B / ...BBB / ...... / ..B..B"

    @pytest.mark.parametrize("doctor, check", [
        (lambda r: np.where(np.arange(r.size) == 3, np.nan, r), "non-finite or non-positive root"),
        (lambda r: 1.001 * r, "vertex residual"),
    ])
    def test_ray_shooting_failure_names_check(self, p4, monkeypatch, doctor, check):
        import q4lab.model as model
        kernel = model._smallest_positive_roots
        monkeypatch.setattr(model, "_smallest_positive_roots", lambda *a: doctor(kernel(*a)))
        with pytest.raises(DegenerateLevelError, match=check) as exc:
            oval(-0.5, p4)
        assert "theta=" in str(exc.value)

    def test_cubic_form_oval(self, p4):
        ov = oval(-0.5, p4, form=HamiltonianForm.CUBIC_FORM)
        x, y = ov.points[:, 0], ov.points[:, 1]
        resid = np.abs(hamiltonian("cubic_form", (x, y), p4, h=-0.5))
        assert np.max(resid) < 1e-12
        assert ov.min_x > 0.1
