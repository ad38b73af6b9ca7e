import logging
import math
import re

import numpy as np
import pytest

import q4lab.quadrature as quad
from conftest import (
    area2d_reference,
    area2d_trapezoid_reference,
    green_reference,
    green_trapezoid_reference,
)
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

    def test_green_independent_of_polyline_density(self, p4, monkeypatch):
        # the contour quadrature evaluates the curve exactly at its own
        # nodes; the witness polyline density (OVAL_RAYS) must not affect the value
        import q4lab.model as model
        from q4lab.quadrature import _moments_green
        a = oval(-0.47, p4)
        monkeypatch.setattr(model, "OVAL_RAYS", 2 * model.OVAL_RAYS)
        b = oval(-0.47, p4)
        assert b.grid_radii.size == 2 * a.grid_radii.size
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
    """area2d integrates vertical slices between the oval's two folds
    (``Oval.folds``, the x-sides of its bounding box before the pad); the
    values must not depend on which indices came before."""

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
                x_min, x_max = ov.folds
                box = ov.bounding_box()
                assert box[0] < x_min < x_max < box[1]  # the box pads the folds by 1e-12
                near = 1e-9 * (x_max - x_min)
                assert np.abs(real - x_min).min() < near and np.abs(real - x_max).min() < near
                inside = real[(real > x_min + near) & (real < x_max - near)]
                assert inside.size == 0, (level, form, inside)
                r1, r2 = quad._slice_ends(ov, np.array([ov.center[0]]))
                assert r1[0] < ov.center[1] < r2[0], (level, form)
                quad._moments_area2d(((0, 0),), ov, 1e-8)  # the guard passes
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

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    @pytest.mark.parametrize("level", [0.08, 0.5, 0.92])
    def test_green_error_estimate_covers_30_digits(self, kappa, level):
        # every green error estimate is positive, the rounding floor included,
        # and covers the error against the 30-digit moments, at tol 1e-10 and
        # at 1e-13, where the rule converges to rounding
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, level, level)[0], p)
        ref = self._moments_30_digits(ov, BASIS)
        for tol in (1e-10, 1e-13):
            for ij, r, (g, err, *_) in zip(BASIS, ref, quad._moments_green(tuple(BASIS), ov, tol)):
                assert 0.0 < err and abs(g - float(r)) <= err, (tol, ij)

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

    DOMAIN_LEVELS = (0.01, 0.08, 0.5, 0.92, 0.99, 0.999)

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 100.0, 1000.0, 1e4])
    def test_fold_angle_rule_converges_over_the_domain(self, kappa):
        # the integrand in the fold angle is sin^2 theta times an even smooth
        # function, so the rule stops unsaturated by N = 512 at tol 1e-8 from
        # next to the center to next to the saddle, in both forms; the error
        # reported is within tol, though not always within the rule's 0.02
        # tol: at kappa 10^4, level 0.01, the slice roots' rounding bound
        # reads 6.8e-10
        p = make_params(kappa)
        checked = 0
        for level in self.DOMAIN_LEVELS:
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                ijs = tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6)
                for ij, (value, err, n, saturated) in zip(ijs, quad._moments_area2d(ijs, ov, 1e-8)):
                    assert not saturated and n <= 512, (level, form, ij, n)
                    assert err <= 1e-8 * abs(value), (level, form, ij)
                checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("kappa, level, form", [
        (1.01, 0.08, HamiltonianForm.SYMMETRIC_FORM), (4.0, 0.5, HamiltonianForm.CUBIC_FORM),
        (1000.0, 0.01, HamiltonianForm.CUBIC_FORM), (1000.0, 0.08, HamiltonianForm.SYMMETRIC_FORM)])
    def test_area2d_error_estimate_covers_30_digits(self, kappa, level, form):
        # next to the center the slice roots' own rounding, not the rule, sets
        # area2d's error: up to 6.7e-14 at kappa 1.01 and 1.0e-12 at kappa
        # 1000, level 0.08, where |T_N - T_{N/2}| and the sum's floor read
        # 1e-14 and 1.1e-13.  The error reported, which adds a bound on the
        # roots' rounding from the cubic's slope, covers it there and at mid
        # window (kappa 4), within the rule's budget
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, level, level)[0], p, form=form)
        ijs = tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6)
        ref = self._moments_30_digits(ov, ijs)
        for ij, r, (a, err, *_) in zip(ijs, ref, quad._moments_area2d(ijs, ov, 1e-8)):
            assert abs(a - float(r)) <= err <= 0.02 * 1e-8 * abs(a), ij

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
    """area2d and green share one doubling trapezoidal rule
    (``_trapezoid``): green on the oval's equal angle rays, area2d in the
    fold angle."""

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
    # of the 54 values moved, by at most 15 ulps (1.9e-15, kappa 9, level 0.92);
    # and re-recorded as AREA2D_TRAPEZOID_HEX when area2d left GK15 panels on
    # the t^2 runs for the trapezoidal rule in the fold angle between the
    # unpadded folds: 46 of the 54 values moved, by at most 19 ulps (2.7e-15,
    # I_1_1 at kappa 4, level 0.08), and the worst error against the 30-digit
    # moments went from 1.04e-14 to 9.7e-15
    AREA2D_TRAPEZOID_HEX = {
        (1.5, 0.08): (
            "0x1.66712efb4a49bp-5", "0x1.63c2ce3cd4daep-5", "0x1.658e4cfbc15b1p-5",
            "0x1.63c35d126d2e4p-5", "0x1.6be96f3d2795bp-5", "0x1.6a1afd1b9624fp-5"),
        (1.5, 0.5): (
            "0x1.2355b4cfdbdc1p-2", "0x1.13ed3e6f7a75dp-2", "0x1.1e828cf1f7154p-2",
            "0x1.1400b48f4ddd6p-2", "0x1.475b846bda1a3p-2", "0x1.3c2deeca059aap-2"),
        (1.5, 0.92): (
            "0x1.1ea176e3d6c5bp-1", "0x1.f6ff755cc2e61p-2", "0x1.14a3e7bb9799ep-1",
            "0x1.f79373520b874p-2", "0x1.8fafd7311e60cp-1", "0x1.70e4cd2322a27p-1"),
        (4.0, 0.08): (
            "0x1.8f3dac038b3f2p-5", "0x1.8ba212ac75f01p-5", "0x1.8c8ba0d1cc07cp-5",
            "0x1.8ba42153ba361p-5", "0x1.96a07e3691e94p-5", "0x1.911c649795081p-5"),
        (4.0, 0.5): (
            "0x1.46dac56684f9dp-2", "0x1.3250fe8ccfa8ep-2", "0x1.37e93dce5c3e8p-2",
            "0x1.329a8911c8e61p-2", "0x1.781a542708ab7p-2", "0x1.5471381021acbp-2"),
        (4.0, 0.92): (
            "0x1.4415635c07ffcp-1", "0x1.16769eca14166p-1", "0x1.24a790ba792d9p-1",
            "0x1.17951fbca36cfp-1", "0x1.df754b457277cp-1", "0x1.7755b7b066be2p-1"),
        (9.0, 0.08): (
            "0x1.46496f4b87f5fp-5", "0x1.42f88c468c230p-5", "0x1.43585329bc3b3p-5",
            "0x1.42fb136a83a77p-5", "0x1.4d17fd6bec47ep-5", "0x1.470e5ceb75cb4p-5"),
        (9.0, 0.5): (
            "0x1.0ca48c66efc15p-2", "0x1.f3760b5dc3c56p-3", "0x1.f8318e0ef942dp-3",
            "0x1.f42e39e80f40ap-3", "0x1.3af7655cf8fc3p-2", "0x1.128c234a63d23p-2"),
        (9.0, 0.92): (
            "0x1.0c410e166fc1fp-1", "0x1.c513afc15fba2p-2", "0x1.d1d77925d8b81p-2",
            "0x1.c7f0a9c55a839p-2", "0x1.a261139935e69p-1", "0x1.2582f920c04bdp-1"),
    }

    def test_area2d_bits_unchanged(self):
        clear_caches()
        for (kappa, level), expected in self.AREA2D_TRAPEZOID_HEX.items():
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

    def test_green_nodes_go_to_the_ray_solver_per_round(self, monkeypatch):
        # N = 512 reads the oval's own rays and solves none; each doubling
        # solves its N new midpoints in one call.  At kappa 9, level 0.92 and
        # tol 1e-13 the batch doubles twice, to 2048 nodes
        p = make_params(9.0)
        ov = oval(interior_levels(p, 1, 0.92, 0.92)[0], p)
        sizes, radii = [], Oval._radii
        monkeypatch.setattr(Oval, "_radii", lambda self, c, s: sizes.append(c.shape) or radii(
            self, c, s))
        green = quad._moments_green(tuple(BASIS), ov, 1e-13)
        assert {n for _, _, n, _ in green} == {2048}
        assert sizes == [(512,), (1024,)]


class TestBatchedMoments:
    """The six basis moments of a (level, method, tol) double one shared N
    while an index is above its budget; each index keeps its own budget and
    saturation flag, and a batch of one is the per-index rule (``conftest``'s
    trapezoid references) bit for bit."""

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
        # unsaturated, and within err + err_ref of its per-index GK reference
        compared = 0
        for where, ov, ijs in self._ovals(kappa):
            seen = {"rays": [], "area2d": []}
            spy = lambda name, f, rows: lambda *a: seen[name].append(rows(*a)) or f(*a)
            with monkeypatch.context() as m:
                m.setattr(Oval, "_radii", spy("rays", Oval._radii,
                                              lambda ov, c, s: np.stack([c, s], 1)))
                m.setattr(quad, "_slice_ends", spy("area2d", quad._slice_ends,
                                                   lambda ov, x: x.copy()))
                green = quad._moments_green(ijs, ov, 1e-10)
                area2d = quad._moments_area2d(ijs, ov, 1e-8)
            for got, ref_of, name, tol, rel in (
                    (green, green_reference, "green", 1e-10, 1e-10),
                    (area2d, area2d_reference, "area2d", 1e-8, 0.02 * 1e-8)):
                for ij, (value, err, panels, saturated) in zip(ijs, got):
                    ref_value, ref_err, *_ = ref_of(*ij, ov, tol)
                    assert err <= rel * abs(value) and not saturated, (kappa, where, name, ij)
                    assert abs(value - ref_value) <= err + ref_err, (kappa, where, name, ij)
            # green: one N for the batch; past the oval's own grid, each node
            # is solved once, one call per doubling
            [n] = {n for _, _, n, _ in green}
            rays = [bytes(row) for call in seen["rays"] for row in call]
            assert len(rays) == len(set(rays)) == n - ov.grid_radii.size, (kappa, where)
            assert len(seen["rays"]) == len(ov._rays) - 1 == (n // ov.grid_radii.size).bit_length() - 1
            # area2d: one N, reported by every index; each slice solved once,
            # in one call per resolution, the first with the premise slice
            [n] = {n for _, _, n, _ in area2d}
            xs = [x for call in seen["area2d"] for x in call.tolist()]
            assert len(xs) == len(set(xs)) == n + 1, (kappa, where)
            assert len(seen["area2d"]) == (n // quad.AREA2D_NODES).bit_length(), (kappa, where)
            assert seen["area2d"][0][-1] == ov.center[0]
            compared += 1
        assert compared >= 6

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_batch_of_one_is_the_per_index_rule(self, kappa):
        for where, ov, ijs in self._ovals(kappa):
            for ij in ijs:
                for refine, ref_of, tol in (
                        (quad._moments_green, green_trapezoid_reference, 1e-10),
                        (quad._moments_area2d, area2d_trapezoid_reference, 1e-8)):
                    [(value, err, panels, saturated)] = refine((ij,), ov, tol)
                    ref = ref_of(*ij, ov, tol)
                    assert (value.hex(), err.hex(), panels) == (
                        ref[0].hex(), ref[1].hex(), ref[2]), (kappa, where, ij)
                    assert not saturated

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 2.0, 4.0, 9.0, 1000.0])
    def test_green_matches_independent_gk(self, kappa):
        # the trapezoidal rule against GK15 panels refined alone (conftest's
        # green_reference), within err + err_ref at tol 1e-10: on c01's 12
        # levels from kappa 1.5 to 9, mid-window at kappa 1.01 and 1000
        p = make_params(kappa)
        grid = (12, 0.08, 0.92) if 1.5 <= kappa <= 9.0 else (1, 0.5, 0.5)
        for h in interior_levels(p, *grid):
            ov = oval(h, p)
            for ij, (value, err, _, saturated) in zip(
                    BASIS, quad._moments_green(tuple(BASIS), ov, 1e-10)):
                ref, ref_err, *_ = green_reference(*ij, ov, 1e-10)
                assert not saturated and abs(value - ref) <= err + ref_err, (h, ij)

    def test_cap_flags_exactly_the_indices_above_budget(self, caplog, monkeypatch):
        # at kappa 9, level 0.999 and tol 1e-10 the area2d batch needs 256
        # nodes; capped at 64 (its first N) and 128 it stops at the cap with
        # four and two indices above their budgets
        p = make_params(9.0)
        ov, tol = oval(interior_levels(p, 1, 0.999, 0.999)[0], p), 1e-10
        free = quad._moments_area2d(tuple(BASIS), ov, tol)
        assert not any(saturated for *_, saturated in free)
        assert {n for _, _, n, _ in free} == {256}
        flagged = []
        for cap in (64, 128):
            monkeypatch.setattr(quad, "MAX_NODES", cap)
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="q4lab"):
                capped = quad._moments_area2d(tuple(BASIS), ov, tol)
            above = [err > 0.02 * tol * abs(value) for value, err, *_ in capped]
            flagged.append(sum(above))
            assert [saturated for *_, saturated in capped] == above
            assert {n for _, _, n, _ in capped} == {cap}
            records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
            assert all(r.levelno == logging.WARNING and f"max_nodes={cap})" in r.getMessage()
                       for r in records)
            named = [re.match(r"area2d I_(-?\d)_(\d) at", r.getMessage()).groups()
                     for r in records]
            assert sorted(named) == sorted(
                (str(i), str(j)) for (i, j), hit in zip(BASIS, above) if hit)
            if cap == 64:  # no doubling ran: each index is the per-index rule at its cap
                for ij, (value, err, n, _) in zip(BASIS, capped):
                    ref = area2d_trapezoid_reference(*ij, ov, tol)
                    assert (value.hex(), err.hex(), n) == (ref[0].hex(), ref[1].hex(), 64)
        assert flagged == [4, 2]

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
    """Ovals store green's rays per resolution of the equal angle grid
    (``Oval.rays``), shared by every batch on the oval; a batch's bits must
    not depend on what the store holds."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_green_values_independent_of_memo_state(self, kappa):
        # a batch gives the same (value, err, N, saturated), bit for bit, on a
        # fresh oval and after other batches have doubled the stored rays (the
        # basis at tol 1e-13 doubles once or twice this close to the saddle),
        # and with every resolution up to the cap stored
        p = make_params(kappa)
        h = interior_levels(p, 1, 0.92, 0.92)[0]
        bits = lambda got: [(v.hex(), e.hex(), n, s) for v, e, n, s in got]
        for ijs, tol in ((tuple(BASIS), 1e-10), (((1, 1),), 1e-10), (((0, 3),), 1e-13)):
            fresh = bits(quad._moments_green(ijs, oval(h, p), tol))
            ov = oval(h, p)
            quad._moments_green(tuple(BASIS), ov, 1e-13)
            assert len(ov._rays) > 1
            assert bits(quad._moments_green(ijs, ov, tol)) == fresh, (ijs, tol)
            ov.rays(7)
            assert ov.grid_radii.size << (len(ov._rays) - 1) == quad.MAX_NODES
            assert bits(quad._moments_green(ijs, ov, tol)) == fresh, (ijs, tol)
        # through moment(): the cached oval keeps its stored rays
        clear_caches()
        forward = {ij: moment(MomentIndex(*ij), h, p, "green", 1e-10) for ij in BASIS}
        quad._moments.cache_clear()
        quad.cached_oval(h, kappa, HamiltonianForm.SYMMETRIC_FORM).rays(7)
        warm = {ij: moment(MomentIndex(*ij), h, p, "green", 1e-10) for ij in BASIS[::-1]}
        clear_caches()
        assert warm == forward

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_each_panel_solved_once_per_oval(self, kappa, monkeypatch):
        # the six indices one at a time, next to the saddle, at tolerances
        # that need different N, then the store up to N = 4096: each
        # resolution's new rays reach the ray solver once per oval
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, 0.92, 0.92)[0], p)
        solved, radii = [], Oval._radii
        monkeypatch.setattr(Oval, "_radii", lambda self, c, s: solved.append(
            np.stack([c, s], 1)) or radii(self, c, s))
        for ij, tol in zip(BASIS, (1e-10, 1e-13, 1e-10, 1e-14, 1e-13, 1e-10)):
            quad._moments_green((ij,), ov, tol)
        ov.rays(3)
        rays = [bytes(row) for call in solved for row in call]
        assert len(solved) == len(ov._rays) - 1 == 3
        assert len(rays) == len(set(rays)) == (ov.grid_radii.size << 3) - ov.grid_radii.size

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    def test_batch_then_single_indices_solve_each_row_once(self, p4, form, monkeypatch):
        # the store shares rays across batches on one oval, as reduction asks
        # its single indices one at a time: the singles read the batch's
        # resolutions again and solve only the ones it did not reach
        ov = oval(interior_levels(p4, 1, 0.5, 0.5)[0], p4, form=form)
        solved, asked = [], []
        radii, rays = Oval._radii, Oval.rays
        monkeypatch.setattr(Oval, "_radii", lambda self, c, s: solved.append(
            np.stack([c, s], 1)) or radii(self, c, s))
        monkeypatch.setattr(Oval, "rays", lambda self, level: asked.append(level) or rays(
            self, level))
        quad._moments_green(tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6), ov, 1e-10)
        batch = len(asked)
        assert asked == list(range(batch))
        for ij, tol in (((0, 3), 1e-10), ((2, 1), 1e-13), ((3, 0), 1e-14)):
            quad._moments_green((ij,), ov, tol)
        rows = [bytes(row) for call in solved for row in call]
        assert len(rows) == len(set(rows)) == (ov.grid_radii.size << (len(ov._rays) - 1)) - ov.grid_radii.size
        assert len(asked) > len(set(asked)) == len(ov._rays)  # the singles asked again

    def test_stored_rays_read_only(self, p4, monkeypatch):
        # level 0 is the oval's own grid, read without a solve; level 1 its
        # midpoints; each resolution is solved once and handed out read-only
        ov = oval(-0.5, p4)
        with monkeypatch.context() as m:
            m.setattr(Oval, "_radii", None)  # any solve would raise
            first = ov.rays(0)
        second = ov.rays(1)
        monkeypatch.setattr(Oval, "_radii", None)
        assert ov.rays(0) is first and ov.rays(1) is second
        for a in (first, second):
            assert a.shape == (4, 512) and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = 0.0
        # the 1024 equal angles 2 pi k / 1024: the even ones first, the odd ones second
        monkeypatch.undo()
        both = np.stack(ov.point_tangent(np.arange(1024) * (2.0 * np.pi / 1024)))
        assert (both[:, 0::2] == first).all() and (both[:, 1::2] == second).all()

    def test_clear_caches_drops_memos(self, p4):
        clear_caches()
        h = -0.51
        moment(MomentIndex(1, 0), h, p4, "green", 1e-10)
        moment(MomentIndex(1, 0), h, p4, "area2d", 1e-8)
        ov = quad.cached_oval(h, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        assert ov._rays and ov._bbox is not None  # green's rays, area2d's folds
        clear_caches()
        for cache in (quad.cached_oval, quad._moments):
            assert cache.cache_info().currsize == 0
        # the next caller gets a fresh oval, with no stored rays and no box
        fresh = quad.cached_oval(h, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        assert fresh is not ov and not fresh._rays and fresh._bbox is None


class TestPanelSaturation:
    def test_saturated_call_logs_one_warning(self, caplog, monkeypatch):
        # |cos| has two kinks on the turn, so the rule converges only like
        # 1/N^2: 1024 nodes cannot reach 1e-14
        monkeypatch.setattr(quad, "MAX_NODES", 1024)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, n, saturated)] = quad._trapezoid(
                lambda level, t: (np.abs(np.cos(t))[None], 0.0), 16, 2.0 * np.pi, 1e-14,
                ["the kinked integrand"])
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert records[0].getMessage().startswith("the kinked integrand stopped at 1024 nodes")
        assert "max_nodes=1024" in records[0].getMessage()
        assert n == 1024 and saturated and err > 1e-14 * abs(value)
        assert value == pytest.approx(4.0, rel=1e-4)

    def test_saturated_area2d_moment_logs_one_warning(self, p4, caplog, monkeypatch):
        # at tol 1e-13, level 0.999, I_1_1 needs 128 nodes; it stops at its first 64
        monkeypatch.setattr(quad, "MAX_NODES", quad.AREA2D_NODES)
        ov = oval(interior_levels(p4, 1, 0.999, 0.999)[0], p4)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, n, saturated)] = quad._moments_area2d(((1, 1),), ov, 1e-13)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "area2d I_1_1" in records[0].getMessage()
        assert n == 64 and saturated and err > 0.02 * 1e-13 * abs(value)

    def test_saturated_green_moment_logs_one_warning(self, caplog):
        # kappa 1.1, 0.999 of the way to the saddle, cubic form: at tol 1e-13
        # the trapezoidal rule runs into its MAX_NODES
        p = make_params(1.1)
        ov = oval(interior_levels(p, 1, 0.999, 0.999)[0], p, form=HamiltonianForm.CUBIC_FORM)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, n, saturated)] = quad._moments_green(((1, 1),), ov, 1e-13)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        message = records[0].getMessage()
        assert "green I_1_1" in message and f"max_nodes={quad.MAX_NODES})" in message
        assert n == quad.MAX_NODES and saturated
        assert err > 1e-13 * abs(value)
        [(ref, *_)] = quad._moments_area2d(((1, 1),), ov, 1e-10)
        assert value == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("kappa, level, nodes", [(1.01, 0.25, 16384), (1.1, 0.01, 512)])
    def test_cubic_form_cases_converge_below_the_cap(self, kappa, level, nodes, caplog):
        # GK15 stopped both at its 4,000-panel cap at tol 1e-13, the first
        # saturated; the trapezoidal rule converges silently, within twice the
        # tolerance of the 30-digit moments (the rays' rounding at kappa 1.01
        # leaves up to 1.5e-13, a little above the sum's rounding floor)
        p = make_params(kappa)
        ov = oval(interior_levels(p, 1, level, level)[0], p, form=HamiltonianForm.CUBIC_FORM)
        ijs = tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            green = quad._moments_green(ijs, ov, 1e-13)
        assert not [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert {(n, saturated) for _, _, n, saturated in green} == {(nodes, False)}
        ref = TestArea2dGeometry._moments_30_digits(ov, ijs)
        for ij, r, (value, *_) in zip(ijs, ref, green):
            assert abs(value - float(r)) <= 2e-13 * abs(float(r)), ij

    def test_converged_call_is_silent(self, caplog):
        # exp(cos) is smooth and periodic: the first 16 steps' doubling meets
        # 1e-12, and the value is 2 pi I_0(1)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, n, saturated)] = quad._trapezoid(
                lambda level, t: (np.exp(np.cos(t))[None], 0.0), 16, 2.0 * np.pi, 1e-12,
                ["exp(cos)"])
        assert not [r for r in caplog.records if r.name.startswith("q4lab")]
        assert not saturated and n <= 64 and err <= 1e-12 * value
        assert value == pytest.approx(2.0 * np.pi * 1.2660658777520082, rel=1e-14)

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
