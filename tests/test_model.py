import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import q4lab.model as model
import q4lab.quadrature as quad
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
from q4lab.model import cubic_real_roots, ranked_cubic_roots

kappas = st.floats(min_value=1.0, max_value=50.0, exclude_min=True,
                   allow_nan=False, allow_infinity=False)


def _level_at(p, frac):
    """The level ``frac`` of the way from the center level to the saddle level."""
    return p.center_h + frac * (p.saddle_h - p.center_h)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _cubic_real_roots_all_forms(a3, a2, a1, a0):
    """``cubic_real_roots`` as it was before it asked ``ranked_cubic_roots``
    for its ranks: all three roots formed in both the trigonometric and
    Cardano's form, all three polished, then sorted."""
    a3, a2, a1, a0 = (np.reshape(a, (-1, 1)) for a in (a3, a2, a1, a0))
    da3, da2 = 3.0 * a3, 2.0 * a2
    b, c = a2 / da3, a1 / da3
    bb = b * b
    P = c - bb
    R = b * (bb - 1.5 * c) + a0 / (2.0 * a3)
    D = R * R + P * P * P
    root = np.sqrt(np.abs(D))
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.arctan2(root, -R) / 3.0
        trig = 2.0 * np.sqrt(-P) * np.cos(phi - (2.0 * np.pi / 3.0) * np.arange(3))
        u = np.copysign(np.cbrt(np.abs(R) + root), -R)
        cardano = np.where(u != 0.0, u - P / u, 0.0) * [1.0, np.nan, np.nan]
        x = np.where(D < 0.0, trig, cardano) - b
        for _ in range(2):
            f = ((a3 * x + a2) * x + a1) * x + a0
            fp = (da3 * x + da2) * x + a1
            x = x - np.where(fp != 0.0, f / fp, 0.0)
    return np.sort(x, axis=1)


def _ray_radii_all_roots(theta, h, params, form, center):
    """The ray radii as they were solved before the center's Taylor terms
    were kept on the oval and a ray asked for the top root of its reversed
    cubic alone: the Taylor terms formed per call, all three roots sorted,
    the largest positive one picked by fmax, then three guarded Newton steps;
    the cubes of cos and sin are products, as in ``_ray_poly_coeffs``."""
    k = params.kappa
    c, s = np.cos(theta), np.sin(theta)
    cx, cy = center
    Hx, Hy = model._grad(cx, cy, h, params, form)
    Hxx, Hxy, Hyy = model._hess(cx, cy, h, params, form)
    sym = form is HamiltonianForm.SYMMETRIC_FORM
    Hxxx, Hxxy = (4.0 * (k - 1.0), -2.0 * (k - 1.0)) if sym else (-6.0 * h, -2.0)
    Hxyy, Hyyy = 0.0, 2.0 * k
    K = np.full_like(c, model._level_fn(cx, cy, h, params, form))
    L = Hx * c + Hy * s
    Q = 0.5 * (Hxx * c * c + 2.0 * Hxy * c * s + Hyy * s * s)
    C = (1.0 / 6.0) * (Hxxx * (c * c * c) + 3.0 * Hxxy * c * c * s + 3.0 * Hxyy * c * s * s
                       + Hyyy * (s * s * s))
    u = _cubic_real_roots_all_forms(K, L, Q, C)
    out = 1.0 / np.fmax.reduce(np.where(u > 0.0, u, np.nan), axis=1)
    dC, dQ = 3.0 * C, 2.0 * Q
    for _ in range(3):
        fval = ((C * out + Q) * out + L) * out + K
        fder = (dC * out + dQ) * out + L
        step = np.where(fder != 0.0, fval / fder, 0.0)
        half = 0.5 * np.abs(out)
        out = out - np.minimum(np.maximum(step, -half), half)
    return out


def _ray_oval_resolving(h, params, form):
    """The polyline of ``oval`` as it was built when every refinement round
    re-solved all rays, or the DegenerateLevelError message of its checks.
    The first midpoints are the odd angles of the 512-ray equal grid, the
    later ones halve their intervals."""
    center = (1.0, 1.0)
    solve = lambda th: _ray_radii_all_roots(th, h, params, form, center)
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    r = solve(theta)
    model._check_roots(r, theta)
    for rnd in range(8):
        thm = 0.5 * (theta + np.roll(theta, -1))
        thm[-1] = 0.5 * (theta[-1] + theta[0] + 2.0 * np.pi)
        if rnd == 0:
            thm = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)[1::2]
        rm = solve(thm)
        model._check_roots(rm, thm)
        chord = 0.5 * (r + np.roll(r, -1))
        scale = np.maximum(np.abs(r), np.abs(np.roll(r, -1))) + 1e-300
        defect = np.abs(rm - chord)
        bad = defect > model.CHORD_DEFECT_TOL * scale
        jump = defect > 0.45 * scale
        if np.any(jump):
            k = int(np.argmax(jump))
            raise DegenerateLevelError(
                f"branch jump at theta={thm[k]:.10g}: the ray root is off the chord of its "
                f"neighbours by {defect[k] / scale[k]:.3g} of the radius (limit 0.45)")
        if not np.any(bad) or theta.size > 65536:
            break
        theta = np.sort(np.concatenate([theta, thm[bad]]))
        r = solve(theta)
    x, y = center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)
    resid = np.abs(model._level_fn(x, y, h, params, form))
    scale, k = max(abs(h), 1.0), int(np.argmax(resid))
    if resid[k] > 1e-8 * scale:
        raise DegenerateLevelError(
            f"vertex residual {resid[k]:.3e} at theta={theta[k]:.10g} above "
            f"1e-8*scale = {1e-8 * scale:.3e}")
    return np.column_stack([np.append(x, x[0]), np.append(y, y[0])])


def _point_tangent_all_roots(ov, theta):
    """``Oval._point_tangent`` as it was, with the ray radii above and the
    angles' cos and sin taken twice."""
    r = _ray_radii_all_roots(theta.reshape(-1), ov.h, ov.params, ov.form,
                             ov.center).reshape(theta.shape)
    c, s = np.cos(theta), np.sin(theta)
    x, y = ov.center[0] + r * c, ov.center[1] + r * s
    Hx, Hy = model._grad(x, y, ov.h, ov.params, ov.form)
    rp = -(r * (-Hx * s + Hy * c)) / (Hx * c + Hy * s)
    return x, y, rp * c - r * s, rp * s + r * c


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
        p = make_params(kappa)
        theta = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False) + 0.1
        for frac in (1e-10, 1e-6, 0.01, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
            h = p.center_h + frac * (p.saddle_h - p.center_h)
            taylor = model._center_taylor(h, p, form, (1.0, 1.0))
            C, Q, L, K = model._ray_poly_coeffs(np.cos(theta), np.sin(theta), taylor)
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


class TestRankedCubicRoots:
    """ranked_cubic_roots forms and polishes only the roots it is asked for;
    each selected column keeps the bits of the general solver as it was,
    which formed all three roots in both forms, polished them and sorted."""

    @staticmethod
    def _cubics(rng, n, real):
        # a3 (x - r) (x^2 + p x + q) at scales 1e-3 to 1e3: three real roots
        # at least 1e-3 of their spread apart, or one with a complex pair
        a3 = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n)
        r = rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
        if real:
            r[:, 1] = r[:, 0] + (r[:, 1] - r[:, 0]) * rng.choice([1e-3, 1e-1, 1.0], n)
        else:
            pair = r[:, 1] + 1j * np.abs(r[:, 2]) * rng.choice([1e-3, 1.0], n)
            r = np.stack([r[:, 0], pair, pair.conj()], axis=1)
        c = np.real(np.stack([np.ones(n), -r.sum(1), r[:, 0] * r[:, 1] + r[:, 0] * r[:, 2]
                              + r[:, 1] * r[:, 2], -r.prod(1)]))
        return a3 * c

    @pytest.mark.parametrize("real", [True, False])
    def test_ranks_keep_the_general_solvers_bits(self, rng, real):
        coeffs = self._cubics(rng, 4000, real)
        ref = _cubic_real_roots_all_forms(*coeffs)
        assert np.isfinite(ref[:, 1:]).all() == real and np.isfinite(ref[:, 0]).all()
        assert _same_bits(cubic_real_roots(*coeffs), ref)
        allr = ranked_cubic_roots(*coeffs, (0, 1, 2))
        if real:
            assert (allr[:, 0] > allr[:, 1]).all() and (allr[:, 1] > allr[:, 2]).all()
            assert _same_bits(allr, ref[:, ::-1])
        else:
            assert _same_bits(allr, ref)  # the real root, then NaN, NaN
        # each column is polished on its own: asking for fewer ranks moves no bit
        for ranks in ((0,), (1, 0), (2,), (2, 0)):
            assert _same_bits(ranked_cubic_roots(*coeffs, ranks), allr[:, ranks])
        # nor does solving them in one call with cubics of the other kind
        other = self._cubics(rng, 4000, not real)
        mixed = ranked_cubic_roots(*np.concatenate([coeffs, other], axis=1), (1, 0))
        assert _same_bits(mixed[:4000], allr[:, (1, 0)])

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_slice_ends_next_to_the_folds(self, form, kappa):
        # area2d's slice (r1, r2), ranks 1 and 0, within 1e-14 to 1e-4 of the
        # box's width of either fold, inside and out, where r1 and r2 nearly
        # merge (and the polish can swap them): the middle and top columns of
        # the general solver, NaN (one real root) read as 0, bit for bit
        p = make_params(kappa)
        d = np.concatenate([np.logspace(-14, -4, 61), [0.1, 0.3, 0.5]])
        for level in (0.01, 0.5, 0.99):
            try:
                ov = oval(_level_at(p, level), p, form=form)
            except DegenerateLevelError:
                continue
            x0, x1 = ov.bounding_box()[:2]
            w = x1 - x0
            x = np.concatenate([x0 + d * w, x1 - d * w, x0 - d[:20] * w, x1 + d[:20] * w])
            a, pc, qc = quad._slice_cubic(ov)
            pv, qv = (np.polynomial.polynomial.polyval(x, c) for c in (pc, qc))
            ref = np.nan_to_num(_cubic_real_roots_all_forms(a, 0.0, pv, qv)[:, 1:].T)
            got = quad._slice_ends(ov, x.reshape(2, -1))
            assert all(_same_bits(g, e.reshape(2, -1)) for g, e in zip(got, ref)), (level, x)
            assert (ref[0] < ref[1]).any() and (ref[0] == 0.0).any()  # open and empty slices

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_reversed_ray_cubics(self, form, kappa):
        # the top root of each reversed ray cubic, then the Newton polish in
        # r: the radii of the general solver's largest positive root
        theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        p = make_params(kappa)
        for level in (1e-8, 0.01, 0.25, 0.5, 0.75, 0.99, 0.9999):
            h = _level_at(p, level)
            taylor = model._center_taylor(h, p, form, (1.0, 1.0))
            got = model._smallest_positive_roots(
                *model._ray_poly_coeffs(np.cos(theta), np.sin(theta), taylor))
            assert _same_bits(got, _ray_radii_all_roots(theta, h, p, form, (1.0, 1.0))), level


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
    RAY_LEVELS = (0.01, 0.08, 0.25, 0.5, 0.75, 0.92, 0.99, 0.995, 0.998, 0.999, 0.9995, 0.9999)

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_rays_keep_their_bits(self, form, kappa, rng):
        # the polyline, or the DegenerateLevelError the cubic form raises next
        # to the saddle, and point_tangent on GK-shaped rows, as the rays were
        # solved before: all three roots of each ray cubic, and every ray
        # re-solved in each refinement round
        p = make_params(kappa)
        built = 0
        for level in self.RAY_LEVELS:
            h = _level_at(p, level)
            try:
                want = _ray_oval_resolving(h, p, form)
            except DegenerateLevelError as exc:
                with pytest.raises(DegenerateLevelError, match=re.escape(str(exc))):
                    oval(h, p, form=form)
                continue
            ov = oval(h, p, form=form)
            assert _same_bits(ov.points, want), level
            theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, (8, 15)), axis=1)
            for got, ref in zip(ov.point_tangent(theta), _point_tangent_all_roots(ov, theta)):
                assert _same_bits(got, ref), level
            built += 1
        assert built >= (12 if form is HamiltonianForm.SYMMETRIC_FORM else 7)

    @pytest.mark.parametrize("kappa, level, form", [
        (4.0, 0.5, HamiltonianForm.SYMMETRIC_FORM),
        (85.0, 0.99, HamiltonianForm.CUBIC_FORM),
        (1000.0, 0.99, HamiltonianForm.SYMMETRIC_FORM),
        (1000.0, 0.99, HamiltonianForm.CUBIC_FORM),
    ])
    def test_each_angle_solved_once(self, kappa, level, form, monkeypatch):
        # the first rays and their midpoints in one call, then each round's new
        # midpoints alone: every vertex and every final chord's midpoint reaches
        # the ray solver once, and nothing else does
        solved, coeffs = [], model._ray_poly_coeffs
        monkeypatch.setattr(model, "_ray_poly_coeffs",
                            lambda c, s, taylor: solved.append((c, s)) or coeffs(c, s, taylor))
        p = make_params(kappa)
        ov = oval(_level_at(p, level), p, form=form)
        n = ov.points.shape[0] - 1
        rays = {pair for c, s in solved for pair in zip(c.tolist(), s.tolist())}
        assert sum(c.size for c, _ in solved) == len(rays) == 2 * n
        assert solved[0][0].size == 512
        if level == 0.99:
            assert 256 < n and 1 < len(solved) <= 8

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
