import logging
import math
import re

import numpy as np
import pytest

import q4lab.quadrature as quad
from conftest import area2d_reference, green_reference
from q4lab import (
    DegenerateLevelError,
    DomainError,
    GeometryError,
    HamiltonianForm,
    SingularityError,
    clear_caches,
    make_params,
)
from q4lab.model import Oval, interior_levels, oval
from q4lab.quadrature import (
    MomentIndex,
    curve_discriminant,
    moment,
    moment_value,
    residue_value,
)

BASIS = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1)]


class TestMomentOracle:
    def test_area_shrinks_linearly_at_center(self, p4):
        # I00 ~ c (h + 2/3) for a nondegenerate center
        eps = np.array([1e-4, 5e-5, 2.5e-5])
        vals = np.array([moment_value(0, 0, -2 / 3 + e, p4) for e in eps])
        ratios = vals / eps
        assert np.allclose(ratios, ratios[0], rtol=1e-3)

    def test_dual_method_agreement(self, p4):
        for i, j in BASIS:
            g = moment(MomentIndex(i, j), -0.5, p4, "green", 1e-10)
            a = moment(MomentIndex(i, j), -0.5, p4, "area2d", 1e-8)
            assert g.value == pytest.approx(a.value, rel=1e-6)

    def test_cubic_form_i62_equals_i61(self, p15, p4):
        for p in (p15, p4):
            for h in interior_levels(p, 5, 0.1, 0.7):
                a = moment_value(-6, 2, h, p, form=HamiltonianForm.CUBIC_FORM)
                b = moment_value(-6, 1, h, p, form=HamiltonianForm.CUBIC_FORM)
                assert a == pytest.approx(b, rel=1e-6)

    def test_green_independent_of_polyline_density(self, p4):
        # the contour quadrature evaluates the curve exactly at its own
        # nodes; the witness polyline density must not affect the value
        from q4lab.model import oval
        from q4lab.quadrature import _moments_green
        a = oval(-0.47, p4, n_min=256)
        b = oval(-0.47, p4, n_min=512)
        [(va, *_)] = _moments_green(((1, 1),), a, 1e-10)
        [(vb, *_)] = _moments_green(((1, 1),), b, 1e-10)
        assert va == pytest.approx(vb, rel=1e-10)

    def test_err_estimate_monotone(self, p4):
        d1 = moment(MomentIndex(0, 1), -0.45, p4, "green", 1e-6).err_estimate
        d2 = moment(MomentIndex(0, 1), -0.45, p4, "green", 1e-12).err_estimate
        assert d2 <= d1 + 1e-15

    def test_refinement_does_not_worsen_disagreement(self, p4):
        h = -0.52
        def disagree(tol):
            g = moment(MomentIndex(1, 1), h, p4, "green", tol)
            a = moment(MomentIndex(1, 1), h, p4, "area2d", tol)
            return abs(g.value - a.value) / abs(a.value)
        assert disagree(5e-9) <= disagree(1e-8) + 5e-12

    def test_symmetry_transfer(self, p4):
        # reflected annulus at level -h: moments pick up (-1)^(i+j)
        from q4lab.model import oval
        from q4lab.quadrature import _moments_green
        h = -0.5
        dual = oval(-h, p4, center=(-1.0, -1.0))
        for i, j in BASIS:
            direct = moment_value(i, j, h, p4)
            [(refl, *_)] = _moments_green(((i, j),), dual, 1e-10)
            assert refl == pytest.approx((-1.0) ** (i + j) * direct, rel=1e-8)

    def test_negative_power_guard(self, p4, monkeypatch):
        # the x > 1e-6 assertion for negative powers; reachable only through
        # a doctored oval because the endpoint exclusion fires first
        import q4lab.quadrature as quad
        ov = quad.cached_oval(-0.5, 4.0, HamiltonianForm.SYMMETRIC_FORM)
        import copy
        fake = copy.copy(ov)
        fake.min_x = 1e-9
        monkeypatch.setattr(quad, "cached_oval", lambda *a, **k: fake)
        with pytest.raises(DomainError):
            moment(MomentIndex(-2, 0), -0.51234, p4, "green", 1e-8)

    def test_rejects_degenerate_level(self, p4):
        from q4lab import DegenerateLevelError
        with pytest.raises(DegenerateLevelError):
            moment(MomentIndex(0, 0), -2 / 3, p4)

    def test_rejects_bad_tol(self, p4):
        with pytest.raises(DomainError):
            moment(MomentIndex(0, 0), -0.5, p4, tol=-1.0)


class TestArea2dGeometry:
    """area2d integrates vertical slices between the oval's two folds, the
    x-sides of its bounding box; the values must not depend on which
    indices came before."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_values_independent_of_index_order(self, kappa):
        p = make_params(kappa)
        h = interior_levels(p, 1, 0.5, 0.5)[0]

        def run(indices):
            clear_caches()
            return {ij: moment(MomentIndex(*ij), h, p, "area2d", 1e-8) for ij in indices}

        forward = run(BASIS)
        backward = run(BASIS[::-1])
        # reference: every index alone, after the caches are cleared
        alone = {}
        for ij in BASIS:
            alone.update(run([ij]))
        clear_caches()
        for other in (backward, alone):
            for ij in BASIS:
                assert other[ij].value == forward[ij].value
                assert other[ij].err_estimate == forward[ij].err_estimate

    PREMISE_LEVELS = (0.001, 0.01, *np.linspace(0.05, 0.95, 19).tolist(), 0.99, 0.999)

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_slices_between_the_folds_are_the_oval(self, kappa):
        # area2d's premise: the slice cubic a y^3 + p(x) y + q(x), a > 0, has
        # {G < 0} = (-inf, r0) u (r1, r2) on a vertical line, and r0 meets r1
        # only at the saddle level; so the two x-sides of the box are folds
        # and no fold lies strictly between them (real roots of the
        # x-discriminant -4 a p^3 - 27 a^2 q^2, found here by np.roots), and
        # the slice at the center's x holds the center, which is area2d's guard
        P = np.polynomial.polynomial
        p = make_params(kappa)
        checked = 0
        for level in self.PREMISE_LEVELS:
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                a, pc, qc = quad._slice_cubic(ov)
                D = -4.0 * a * P.polypow(pc, 3) - 27.0 * a * a * P.polymul(qc, qc)
                roots = np.roots(D[::-1])
                real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real
                x_min, x_max = ov.bounding_box()[:2]
                near = 1e-9 * (x_max - x_min)  # the folds, which the box pads by 1e-12
                assert np.abs(real - x_min).min() < near and np.abs(real - x_max).min() < near
                inside = real[(real > x_min + near) & (real < x_max - near)]
                assert inside.size == 0, (level, form, inside)
                r1, r2 = quad._slice_ends(ov, np.array([ov.center[0]]))
                assert r1[0] < ov.center[1] < r2[0], (level, form)
                quad._slice_nodes(ov, *quad._area2d_panels(ov), True)  # the guard passes
                checked += 1
        assert checked >= 30

    def test_slice_guard_raises(self, p4):
        # the dual annulus around (-1, -1) at level 0.5 is the region {G > 0}:
        # the slice (r1, r2) at x = -1 misses the center, and area2d refuses it
        dual = oval(0.5, p4, center=(-1.0, -1.0))
        with pytest.raises(GeometryError, match="misses the center"):
            quad._moments_area2d(((0, 0),), dual, 1e-8)

    @staticmethod
    def _moments_30_digits(ov, ijs):
        # reference: the same Fubini integral at 30 digits, independent of
        # the float code: folds from findroot on the x-discriminant, slices
        # from polyroots, Gauss-Legendre in t (20 nodes on each half of each
        # run, which agrees with 30 nodes on thirds to 2e-30)
        import mpmath as mp

        with mp.workdps(30):
            k, h = mp.mpf(ov.params.kappa), mp.mpf(ov.h)
            a, km = k / 3, k - 1
            if ov.form is HamiltonianForm.SYMMETRIC_FORM:
                p, q = lambda x: -1 - km * x**2, lambda x: 2 * km * x**3 / 3 - h
            else:
                p, q = lambda x: -km - x**2, lambda x: 2 * km / 3 - h * x**3
            D = lambda x: -4 * a * p(x) ** 3 - 27 * a * a * q(x) ** 2
            x0, x1 = (mp.findroot(D, mp.mpf(side)) for side in ov.bounding_box()[:2])
            T = mp.sqrt((x1 - x0) / 2)
            nodes, weights = mp.gauss_quadrature(20, "legendre")
            out = [mp.mpf(0)] * len(ijs)
            for x_of in (lambda t: x0 + t * t, lambda t: x1 - t * t):
                for lo, hi in ((0, T / 2), (T / 2, T)):
                    for u, w in zip(nodes, weights):
                        t = (lo + hi) / 2 + (hi - lo) / 2 * u
                        x = x_of(t)
                        _, r1, r2 = sorted(mp.re(r) for r in mp.polyroots(
                            [a, 0, p(x), q(x)], maxsteps=100, extraprec=40))
                        for n, (i, j) in enumerate(ijs):  # dx = 2 t dt
                            out[n] += (w * (hi - lo) * t * x**i
                                       * (r2 ** (j + 1) - r1 ** (j + 1)) / (j + 1))
            return out

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_moments_match_30_digit_reference(self, kappa):
        # area2d at c01's tol 1e-8 within 1e-12 and tight green within 1e-13
        # of the 30-digit moments, at mid-window (both read 1.5e-15 at most)
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, 0.5, 0.5)[0], p)
        ref = self._moments_30_digits(ov, BASIS)
        area2d = quad._moments_area2d(tuple(BASIS), ov, 1e-8)
        green = quad._moments_green(tuple(BASIS), ov, 1e-13)
        for ij, r, (a, *_), (g, *_) in zip(BASIS, ref, area2d, green):
            assert abs(a - float(r)) <= 1e-12 * abs(float(r)), ij
            assert abs(g - float(r)) <= 1e-13 * abs(float(r)), ij

    @pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 9.0])
    def test_c01_grid_matches_tight_green_silently(self, kappa, caplog):
        # the global error budget: area2d at 1e-8 within 1e-10 of green at
        # 1e-13 on c01's 12 levels, with no panel-saturation WARNING
        p = make_params(kappa)
        clear_caches()
        worst = 0.0
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            for h in interior_levels(p, 12, 0.08, 0.92):
                for ij in BASIS:
                    g = moment(MomentIndex(*ij), h, p, "green", 1e-13)
                    a = moment(MomentIndex(*ij), h, p, "area2d", 1e-8)
                    worst = max(worst, abs(a.value - g.value) / abs(g.value))
        clear_caches()
        assert worst <= 1e-10
        assert not [r for r in caplog.records if r.name == "q4lab.quadrature"]

    def test_bounding_box_computed_once(self, p4, monkeypatch):
        # Newton works on the level function's Taylor terms alone, and the
        # converged points give the sides: no ray is solved
        import q4lab.model as model
        ov = oval(-0.5, p4)
        rays, jets = [], []
        kernel, jet = model._smallest_positive_roots, model._taylor_jet
        monkeypatch.setattr(model, "_smallest_positive_roots",
                            lambda *a: rays.append(1) or kernel(*a))
        monkeypatch.setattr(model, "_taylor_jet", lambda *a: jets.append(1) or jet(*a))
        box = ov.bounding_box()
        assert not rays and len(jets) >= 4
        steps = len(jets)
        assert ov.bounding_box() == box
        assert not rays and len(jets) == steps

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    @pytest.mark.parametrize("level", [0.08, 0.5, 0.92])
    def test_bounding_box_matches_sequential_bisection(self, kappa, level):
        # reference: the four extremes bisected one after another on single
        # angles; Newton does not promise the bisection's bits, but each side
        # must agree to 1e-14 of the box width
        p = make_params(kappa)
        h = interior_levels(p, 1, level, level)[0]
        theta = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

        def sequential(ov):
            x, y, dx, dy = ov.point_tangent(theta)

            def refine(vals, dvals, pick_max):
                k0 = int(np.argmax(vals) if pick_max else np.argmin(vals))
                lo, hi = theta[k0 - 1], theta[(k0 + 1) % theta.size]
                if hi < lo:
                    hi += 2.0 * np.pi
                dlo = dvals[k0 - 1]
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    _, _, ddx, ddy = ov.point_tangent(np.array([mid]))
                    dmid = (ddx if dvals is dx else ddy)[0]
                    if (dmid > 0) == (dlo > 0):
                        lo, dlo = mid, dmid
                    else:
                        hi = mid
                px, py, _, _ = ov.point_tangent(np.array([0.5 * (lo + hi)]))
                return (px if dvals is dx else py)[0]

            x0, x1 = refine(x, dx, False), refine(x, dx, True)
            y0, y1 = refine(y, dy, False), refine(y, dy, True)
            pad_x = 1e-12 * (x1 - x0) + 1e-300
            pad_y = 1e-12 * (y1 - y0) + 1e-300
            return (x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y)

        compared = 0
        for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
            try:
                ov = oval(h, p, form=form)
            except DegenerateLevelError:
                continue
            box = ov.bounding_box()
            ref = sequential(oval(h, p, form=form))
            width = [ref[1] - ref[0]] * 2 + [ref[3] - ref[2]] * 2
            assert all(abs(a - b) <= 1e-14 * w for a, b, w in zip(box, ref, width)), (
                form, box, ref)
            compared += 1
        assert compared >= 1

    BOX_KAPPAS = (1.01, 1.5, 4.0, 9.0, 50.0, 1000.0)

    @classmethod
    def _box_ovals(cls, levels):
        # every oval that oval() accepts on BOX_KAPPAS x levels, in both forms
        for kappa in cls.BOX_KAPPAS:
            p = make_params(kappa)
            for level in levels:
                h = interior_levels(p, 1, level, level)[0]
                for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                    try:
                        yield oval(h, p, form=form)
                    except DegenerateLevelError:
                        continue

    def test_bounding_box_holds_dense_ray_sample(self):
        # from tiny ovals next to the center to ovals next to the saddle loop:
        # no box raises, and 65,536 rays of each oval land inside its box
        theta = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
        c, s = np.cos(theta), np.sin(theta)
        checked = 0
        for ov in self._box_ovals((1e-4, 0.01, 0.08, 0.5, 0.92, 0.99, 0.999)):
            x0, x1, y0, y1 = ov.bounding_box()
            r = ov.r_theta(theta)
            x, y = ov.center[0] + r * c, ov.center[1] + r * s
            assert x0 <= x.min() and x.max() <= x1, (ov.params.kappa, ov.h, ov.form)
            assert y0 <= y.min() and y.max() <= y1, (ov.params.kappa, ov.h, ov.form)
            checked += 1
        assert checked >= 80

    def test_bounding_box_holds_exact_extremes(self):
        # the four extremes to 40 digits (the fold equations solved by mpmath
        # from the polyline's extreme vertices) lie inside the box, and each
        # side misses its extreme by no more than the pad
        import mpmath as mp

        checked = 0
        with mp.workdps(40):
            for ov in self._box_ovals((0.08, 0.5, 0.92)):
                k, h = mp.mpf(ov.params.kappa), mp.mpf(ov.h)
                if ov.form is HamiltonianForm.SYMMETRIC_FORM:
                    G = lambda x, y: (2 * (k - 1) * x**3 / 3 - (k - 1) * x**2 * y
                                      + k * y**3 / 3 - y - h)
                    Gx = lambda x, y: 2 * (k - 1) * x * (x - y)
                    Gy = lambda x, y: -(k - 1) * x**2 + k * y**2 - 1
                else:
                    G = lambda x, y: (k * y**3 / 3 - x**2 * y - h * x**3 - (k - 1) * y
                                      + 2 * (k - 1) / 3)
                    Gx = lambda x, y: -2 * x * y - 3 * h * x**2
                    Gy = lambda x, y: k * y**2 - x**2 - (k - 1)
                vx, vy = ov.points[:-1].T
                starts = [np.argmin(vx), np.argmax(vx), np.argmin(vy), np.argmax(vy)]
                exact = []
                for side, k0 in enumerate(starts):
                    fold = Gy if side < 2 else Gx
                    x, y = mp.findroot(lambda x, y: (G(x, y), fold(x, y)),
                                       (mp.mpf(vx[k0]), mp.mpf(vy[k0])))
                    exact.append(x if side < 2 else y)
                box = ov.bounding_box()
                for side, (b, e) in enumerate(zip(box, exact)):
                    lo = side - side % 2  # the side's pair: x0, x1 or y0, y1
                    pad = 1e-12 * float(exact[lo + 1] - exact[lo])
                    outside = float(e - b) if side % 2 == 0 else float(b - e)
                    assert 0.0 <= outside <= 2.0 * pad, (ov.params.kappa, ov.h, ov.form, side)
                checked += 1
        assert checked >= 36

    def test_bounding_box_failures_raise(self, p4, monkeypatch):
        # no fallback: Newton that has not converged in 8 steps, or ending outside the
        # polyline neighbours of its start vertex (here a clockwise polyline),
        # raises GeometryError
        import q4lab.model as model
        ov = oval(-0.5, p4)
        ov.points = ov.points[::-1].copy()
        with pytest.raises(GeometryError, match="neighbours"):
            ov.bounding_box()
        ov = oval(-0.5, p4)
        jet = model._taylor_jet  # a Jacobian off by half: Newton converges only linearly
        monkeypatch.setattr(model, "_taylor_jet", lambda *a: tuple(
            d if n < 3 else 0.5 * d for n, d in enumerate(jet(*a))))
        with pytest.raises(GeometryError, match="8 steps"):
            ov.bounding_box()


class TestOneGKEngine:
    """green, area2d and the reconstruction check share one batched GK loop
    (``_gk_refine``); area2d kept its bits through the move."""

    # area2d at tol 1e-8: (kappa, level fraction of the annulus) -> float.hex
    # of the six BASIS moments.  Recorded before the loop was shared, and
    # re-recorded when rays, slices and row crossings moved onto
    # cubic_real_roots: each value moved by at most 13 ulps (1.8e-15); and
    # when the bounding box moved from bisection to Newton: 20 of the 54
    # values moved, by at most 3 ulps (3.6e-16); and when the GK sums moved
    # from a BLAS gemv to numpy's add.reduce: 3 values moved, by 1 ulp each;
    # and when the quadtree gave way to one slice integral between the
    # folds: 53 of the 54 values moved, by at most 7.0e-14 (342 ulps, I_1_0 at
    # kappa 4, level 0.92), toward the 30-digit moments (worst error 7.0e-14
    # before, 1.1e-14 after); and when the box sides came from a scalar Newton
    # solve in center-shifted coordinates, not a ray solve at its angle: 36
    # of the 54 values moved, by at most 15 ulps (1.9e-15, kappa 9, level 0.92)
    AREA2D_HEX = {
        (1.5, 0.08): (
            "0x1.66712efb4a4a6p-5", "0x1.63c2ce3cd4dbap-5", "0x1.658e4cfbc15bdp-5",
            "0x1.63c35d126d2f1p-5", "0x1.6be96f3d27965p-5", "0x1.6a1afd1b9625ap-5"),
        (1.5, 0.5): (
            "0x1.2355b4cfdbdc2p-2", "0x1.13ed3e6f7a75dp-2", "0x1.1e828cf1f7154p-2",
            "0x1.1400b48f4ddd6p-2", "0x1.475b846bda1a3p-2", "0x1.3c2deeca059aap-2"),
        (1.5, 0.92): (
            "0x1.1ea176e3d6c5cp-1", "0x1.f6ff755cc2e62p-2", "0x1.14a3e7bb9799ep-1",
            "0x1.f79373520b872p-2", "0x1.8fafd7311e60cp-1", "0x1.70e4cd2322a28p-1"),
        (4.0, 0.08): (
            "0x1.8f3dac038b3e2p-5", "0x1.8ba212ac75ef0p-5", "0x1.8c8ba0d1cc06ap-5",
            "0x1.8ba42153ba34ep-5", "0x1.96a07e3691e85p-5", "0x1.911c649795070p-5"),
        (4.0, 0.5): (
            "0x1.46dac56684fa0p-2", "0x1.3250fe8ccfa90p-2", "0x1.37e93dce5c3eap-2",
            "0x1.329a8911c8e64p-2", "0x1.781a542708abap-2", "0x1.5471381021accp-2"),
        (4.0, 0.92): (
            "0x1.4415635c07ffep-1", "0x1.16769eca14168p-1", "0x1.24a790ba792dap-1",
            "0x1.17951fbca36d2p-1", "0x1.df754b457277bp-1", "0x1.7755b7b066be3p-1"),
        (9.0, 0.08): (
            "0x1.46496f4b87f60p-5", "0x1.42f88c468c232p-5", "0x1.43585329bc3b6p-5",
            "0x1.42fb136a83a7bp-5", "0x1.4d17fd6bec47cp-5", "0x1.470e5ceb75cb6p-5"),
        (9.0, 0.5): (
            "0x1.0ca48c66efc0fp-2", "0x1.f3760b5dc3c49p-3", "0x1.f8318e0ef9421p-3",
            "0x1.f42e39e80f3fdp-3", "0x1.3af7655cf8fbep-2", "0x1.128c234a63d1ep-2"),
        (9.0, 0.92): (
            "0x1.0c410e166fc1fp-1", "0x1.c513afc15fbaap-2", "0x1.d1d77925d8b89p-2",
            "0x1.c7f0a9c55a848p-2", "0x1.a261139935e67p-1", "0x1.2582f920c04bep-1"),
    }

    def test_area2d_bits_unchanged(self):
        clear_caches()
        for (kappa, level), expected in self.AREA2D_HEX.items():
            p = make_params(kappa)
            h = interior_levels(p, 1, level, level)[0]
            got = tuple(moment(MomentIndex(*ij), h, p, "area2d", 1e-8).value.hex()
                        for ij in BASIS)
            assert got == expected, (kappa, level)
        clear_caches()

    @pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 9.0])
    def test_green_matches_tight_green_on_c01_grid(self, kappa):
        p = make_params(kappa)
        clear_caches()
        worst = 0.0
        for h in interior_levels(p, 12, 0.08, 0.92):
            for ij in BASIS:
                g = moment(MomentIndex(*ij), h, p, "green", 1e-10).value
                ref = moment(MomentIndex(*ij), h, p, "green", 1e-14).value
                worst = max(worst, abs(g - ref) / abs(ref))
        clear_caches()
        assert worst <= 1e-13

    def test_green_nodes_go_to_the_ray_solver_per_round(self, p4, monkeypatch):
        # each round's new panels reach point_tangent as one (P, 15) array
        ov = oval(-0.5, p4)
        shapes = []
        solve = Oval._point_tangent
        monkeypatch.setattr(Oval, "_point_tangent",
                            lambda self, th: shapes.append(th.shape) or solve(self, th))
        quad._moments_green(((1, 1),), ov, 1e-12)
        assert shapes[0] == (quad.GREEN_START_PANELS, 15)
        assert len(shapes) > 1 and all(len(sh) == 2 and sh[1] == 15 for sh in shapes)


class TestBatchedMoments:
    """The six basis moments of a (level, method, tol) refine as one batch on
    one shared panel set, split wherever an index above its budget needs it;
    each index keeps its own budget and saturation flag, and a batch of one
    is the per-index rule (``conftest``'s reference) bit for bit."""

    @staticmethod
    def _ovals(kappa):
        """The ovals of both forms at five levels, with their basis indices."""
        p = make_params(kappa)
        for level in (0.01, 0.08, 0.5, 0.92, 0.99):
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                yield (level, form), ov, tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6)

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_batch_meets_each_budget_on_shared_panels(self, kappa, monkeypatch):
        # green at 1e-10 and area2d at 1e-8: every index within its own budget,
        # unsaturated, and within err + err_ref of its per-index reference
        compared = 0
        for where, ov, ijs in self._ovals(kappa):
            seen = {"green": [], "area2d": [], "solve": [], "sums": []}
            spy = lambda name, f, rows: lambda *a: seen[name].append(rows(*a)) or f(*a)
            with monkeypatch.context() as m:
                m.setattr(Oval, "point_tangent", spy("green", Oval.point_tangent,
                                                     lambda ov, th: th))
                m.setattr(Oval, "_point_tangent", spy("solve", Oval._point_tangent,
                                                      lambda ov, th: th))
                m.setattr(quad, "_slice_nodes", spy("area2d", quad._slice_nodes,
                                                    lambda ov, *panels: np.stack(panels[:4], 1)))
                m.setattr(quad, "_gk_sums", spy("sums", quad._gk_sums, lambda fx: fx))
                green = quad._moments_green(ijs, ov, 1e-10)
                solves, rounds = len(seen["solve"]), {"green": len(seen["sums"])}
                area2d = quad._moments_area2d(ijs, ov, 1e-8)
                rounds["area2d"] = len(seen["sums"]) - rounds["green"]
            for got, ref_of, name, tol, rel, first in (
                    (green, green_reference, "green", 1e-10, 1e-10, quad.GREEN_START_PANELS),
                    (area2d, area2d_reference, "area2d", 1e-8, 0.02 * 1e-8,
                     2 * quad.AREA2D_RUN_PANELS)):
                for ij, (value, err, panels, saturated) in zip(ijs, got):
                    ref_value, ref_err, *_ = ref_of(*ij, ov, tol)
                    assert err <= rel * abs(value) and not saturated, (kappa, where, name, ij)
                    assert abs(value - ref_value) <= err + ref_err, (kappa, where, name, ij)
                # one panel set, reported by every index; each panel evaluated
                # once, in one node call per round (one sums call each)
                [size] = {panels for _, _, panels, _ in got}
                rows = [bytes(row) for call in seen[name] for row in call]
                assert len(rows) == len(set(rows)) == 2 * size - first, (kappa, where, name)
                assert len(seen[name]) == rounds[name], (kappa, where, name)
            # each round's new rows reach the ray solver in one call
            assert solves == len(seen["green"])
            compared += 1
        assert compared >= 6

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_batch_of_one_is_the_per_index_rule(self, kappa):
        for where, ov, ijs in self._ovals(kappa):
            for ij in ijs:
                for refine, ref_of, tol in ((quad._moments_green, green_reference, 1e-10),
                                            (quad._moments_area2d, area2d_reference, 1e-8)):
                    [(value, err, panels, saturated)] = refine((ij,), ov, tol)
                    ref = ref_of(*ij, ov, tol)
                    assert (value.hex(), err.hex(), panels) == (
                        ref[0].hex(), ref[1].hex(), ref[2]), (kappa, where, ij)
                    assert not saturated

    def test_cap_flags_exactly_the_indices_above_budget(self, p4, caplog, monkeypatch):
        # at this level and tol the batch needs 12 panels; capped at 8 (its
        # first panels), 10 and 11 it stops at the cap with three, two and one
        # index above its budget
        ov, tol = oval(interior_levels(p4, 1, 0.86, 0.86)[0], p4), 1e-13
        free = quad._moments_area2d(tuple(BASIS), ov, tol)
        assert not any(saturated for *_, saturated in free)
        assert {panels for _, _, panels, _ in free} == {12}
        flagged = []
        for cap in (8, 10, 11):
            monkeypatch.setattr(quad, "AREA2D_MAX_PANELS", cap)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="q4lab"):
                capped = quad._moments_area2d(tuple(BASIS), ov, tol)
            above = [err > 0.02 * tol * abs(value) for value, err, *_ in capped]
            flagged.append(sum(above))
            assert [saturated for *_, saturated in capped] == above
            assert {panels for _, _, panels, _ in capped} == {cap}
            records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
            assert all(r.levelno == logging.WARNING and f"max_panels={cap})" in r.getMessage()
                       for r in records)
            named = [re.match(r"area2d I_(-?\d)_(\d) at", r.getMessage()).groups()
                     for r in records]
            assert sorted(named) == sorted(
                (str(i), str(j)) for (i, j), hit in zip(BASIS, above) if hit)
            if cap == 8:  # no round ran: each index is the per-index rule at its cap
                for ij, (value, err, panels, _) in zip(BASIS, capped):
                    ref = area2d_reference(*ij, ov, tol)
                    assert (value.hex(), err.hex(), panels) == (ref[0].hex(), ref[1].hex(), 8)
        assert flagged == [3, 2, 1]

    def test_basis_index_brings_its_siblings(self, p4, monkeypatch):
        # the first basis index refines all six; the others are read back,
        # and basis_values reads the same batch without going through moment()
        clear_caches()
        batches = []
        refine = quad._moments_green
        monkeypatch.setattr(quad, "_moments_green",
                            lambda ijs, ov, tol: batches.append(ijs) or refine(ijs, ov, tol))
        values = [moment(MomentIndex(*ij), -0.5, p4, "green", 1e-10).value for ij in BASIS]
        with monkeypatch.context() as m:
            m.setattr(quad, "moment", None)  # basis_values must not need it
            assert quad.basis_values(-0.5, p4).tolist() == values
        assert batches == [tuple(BASIS)]
        moment_value(2, 0, -0.5, p4)  # not a basis index: a batch of one
        moment_value(0, 0, -0.5, p4, form=HamiltonianForm.CUBIC_FORM)
        assert batches[1:] == [((2, 0),), ((0, 0),)]
        clear_caches()


class TestRayGeometryMemo:
    """Ovals memoise point_tangent per row of angles (one GK panel), shared
    by the green integrals of all indices; values must not depend on the
    memo state."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_green_values_independent_of_memo_state(self, kappa, monkeypatch):
        p = make_params(kappa)
        h = interior_levels(p, 1, 0.5, 0.5)[0]

        def run(indices):
            return {ij: moment(MomentIndex(*ij), h, p, "green", 1e-10) for ij in indices}

        clear_caches()
        forward = run(BASIS)
        quad._moments.cache_clear()  # the ovals keep their filled memos
        warm = run(BASIS[::-1])
        clear_caches()
        backward = run(BASIS[::-1])
        clear_caches()
        alone = run([(1, 1)])
        # reference: every node solves its rays afresh
        clear_caches()
        monkeypatch.setattr(Oval, "point_tangent", Oval._point_tangent)
        fresh = run(BASIS)
        clear_caches()
        for other in (warm, backward, fresh):
            for ij in BASIS:
                assert other[ij].value == forward[ij].value
                assert other[ij].err_estimate == forward[ij].err_estimate
        assert alone[(1, 1)].value == forward[(1, 1)].value
        assert alone[(1, 1)].err_estimate == forward[(1, 1)].err_estimate

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_each_panel_solved_once_per_oval(self, kappa, monkeypatch):
        # the six indices refine different subsets of the same panels; each
        # distinct row of 15 GK angles reaches the ray solver once
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, 0.5, 0.5)[0], p)
        solved, asked = [], set()
        solve, memo = Oval._point_tangent, Oval.point_tangent
        monkeypatch.setattr(Oval, "_point_tangent", lambda self, th: solved.extend(
            row.tobytes() for row in th) or solve(self, th))
        monkeypatch.setattr(Oval, "point_tangent", lambda self, th: asked.update(
            row.tobytes() for row in th) or memo(self, th))
        for ij in BASIS:
            quad._moments_green((ij,), ov, 1e-10)
        assert len(solved) == len(set(solved)) == len(asked)

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    def test_batch_then_single_indices_solve_each_row_once(self, p4, form, monkeypatch):
        # a batch asks for no row twice; the store shares rows across batches
        # on one oval, as reduction asks its single indices one at a time
        ov = oval(interior_levels(p4, 1, 0.5, 0.5)[0], p4, form=form)
        solved, asked = [], []
        solve, memo = Oval._point_tangent, Oval.point_tangent
        monkeypatch.setattr(Oval, "_point_tangent", lambda self, th: solved.extend(
            row.tobytes() for row in th) or solve(self, th))
        monkeypatch.setattr(Oval, "point_tangent", lambda self, th: asked.extend(
            row.tobytes() for row in th) or memo(self, th))
        quad._moments_green(tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6), ov, 1e-10)
        batch = len(asked)
        assert len(set(asked)) == batch
        for ij in ((0, 3), (2, 1), (3, 0)):
            quad._moments_green((ij,), ov, 1e-10)
        assert len(solved) == len(set(solved)) == len(set(asked))
        assert len(asked) > len(set(asked))  # the singles asked again for rows of the batch

    def test_point_tangent_read_only(self, p4, monkeypatch):
        # the memo keeps rows, not arrays: a second request assembles new,
        # equal arrays from the rows without solving again
        ov = oval(-0.5, p4)
        theta = np.linspace(0.0, 1.0, 7)
        arrays = ov.point_tangent(theta)
        first = ov.point_tangent(theta[:1])
        monkeypatch.setattr(Oval, "_point_tangent", None)  # any solve would raise
        again = ov.point_tangent(theta.copy())
        for a, b in zip(arrays, again):
            assert (a == b).all()
        for a in (*arrays, *again):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        # a scalar is the row of one angle that theta[:1] left in the memo
        for a, b in zip(first, ov.point_tangent(theta[0])):
            assert b.shape == (1,) and a == b

    def test_clear_caches_drops_memos(self, p4):
        clear_caches()
        h = -0.51
        moment(MomentIndex(1, 0), h, p4, "green", 1e-10)
        moment(MomentIndex(1, 0), h, p4, "area2d", 1e-8)
        ov = quad.cached_oval(h, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        assert ov._tangents and ov._bbox is not None  # green's rays, area2d's folds
        clear_caches()
        for cache in (quad.cached_oval, quad._moments):
            assert cache.cache_info().currsize == 0
        # the next caller gets a fresh oval, with an empty memo and no box
        fresh = quad.cached_oval(h, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        assert fresh is not ov and not fresh._tangents and fresh._bbox is None


class TestPanelSaturation:
    def test_saturated_call_logs_one_warning(self, caplog):
        # a kink inside one panel: 9 panels cannot reach 1e-14
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            value, err = quad._adaptive_gk(np.abs, -1.0, 2.0, 1e-14, max_panels=9)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "max_panels=9" in records[0].getMessage()
        assert err > 1e-14 * abs(value)
        assert value == pytest.approx(2.5, rel=1e-4)

    def test_saturated_area2d_moment_logs_one_warning(self, p4, caplog, monkeypatch):
        # at tol 1e-13 this moment needs 10 panels; it stops at its 8 initial ones
        monkeypatch.setattr(quad, "AREA2D_MAX_PANELS", 1)
        ov = quad.cached_oval(-0.5, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, *_)] = quad._moments_area2d(((1, 1),), ov, 1e-13)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "area2d I_1_1" in records[0].getMessage()
        assert err > 0.02 * 1e-13 * abs(value)

    def test_saturated_green_moment_logs_one_warning(self, p4, caplog):
        # tol 1e-17 is below rounding, so green runs into its 4000 panels
        ov = quad.cached_oval(-0.5, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, *_)] = quad._moments_green(((1, 1),), ov, 1e-17)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "max_panels=4000" in records[0].getMessage()
        # the last round splits only as many panels as the cap has room for
        panels = int(re.search(r"stopped at (\d+) panels", records[0].getMessage()).group(1))
        assert panels <= 4000
        assert err > 1e-17 * abs(value)
        assert value == pytest.approx(moment_value(1, 1, -0.5, p4), rel=1e-13)

    def test_converged_call_is_silent(self, caplog):
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            quad._adaptive_gk(np.cos, 0.0, 1.0, 1e-12)
        assert not [r for r in caplog.records if r.name.startswith("q4lab")]

    def test_package_logger_has_null_handler(self):
        handlers = logging.getLogger("q4lab").handlers
        assert any(isinstance(hd, logging.NullHandler) for hd in handlers)


class TestResidue:
    def test_saddle_boundary_value(self, p4):
        assert residue_value(-1 / 3, -1.0, p4) == pytest.approx(4 / 3, abs=1e-14)

    def test_zero_at_hstar(self, p4):
        hstar = -(2 / 3) * math.sqrt(5 / 4.0)
        y0 = -math.sqrt(5 / 4.0)
        assert residue_value(hstar, y0, p4) == pytest.approx(0.0, abs=1e-13)

    def test_pole(self, p4):
        y = -1 / 2  # kappa y^2 = 1
        h = (4.0 / 3) * y**3 - y
        with pytest.raises(SingularityError):
            residue_value(h, y, p4)

    def test_rejects_off_curve_y(self, p4):
        with pytest.raises(DomainError):
            residue_value(-0.5, 0.123, p4)


class TestDiscriminant:
    @pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 9.0])
    def test_vanishes_exactly_at_critical_levels(self, kappa):
        p = make_params(kappa)
        ref = abs(curve_discriminant(0.5 * (p.center_h + p.saddle_h), p))
        assert abs(curve_discriminant(p.center_h, p)) < 1e-10 * ref
        assert abs(curve_discriminant(p.saddle_h, p)) < 1e-10 * ref

    def test_nonzero_on_interior(self, p4):
        ref = abs(curve_discriminant(-0.5, p4))
        for h in interior_levels(p4, 9, 0.01, 0.99):
            assert abs(curve_discriminant(h, p4)) > 1e-8 * ref
