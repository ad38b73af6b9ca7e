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
from q4lab.model import Oval, cubic_real_roots, hamiltonian, interior_levels, oval
from q4lab.quadrature import (
    MomentIndex,
    curve_discriminant,
    moment,
    moment_value,
    residue_value,
)

BASIS = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1)]


def _contains_40_digits(ov, x: float, y: float) -> bool:
    """Whether (x, y) lies in the oval's component, to 40 digits: the level
    function, a cubic in t along the segment from the center to the point,
    has no real root in (0, 1]."""
    import mpmath as mp

    with mp.workdps(40):
        k, h = mp.mpf(ov.params.kappa), mp.mpf(ov.h)
        cx, cy = map(mp.mpf, ov.center)
        px, py = mp.mpf(x), mp.mpf(y)
        if ov.form is HamiltonianForm.SYMMETRIC_FORM:
            G = lambda x, y: 2 * (k - 1) * x**3 / 3 - (k - 1) * x**2 * y + k * y**3 / 3 - y - h
        else:
            G = lambda x, y: k * y**3 / 3 - x**2 * y - h * x**3 - (k - 1) * y + 2 * (k - 1) / 3
        # the cubic's coefficients from its values at t = 0, 1, 2, 3
        g = [G(cx + t * (px - cx), cy + t * (py - cy)) for t in range(4)]
        d1, d2, d3 = g[1] - g[0], g[2] - 2 * g[1] + g[0], g[3] - 3 * g[2] + 3 * g[1] - g[0]
        roots = mp.polyroots([d3 / 6, d2 / 2 - d3 / 2, d1 - d2 / 2 + d3 / 3, g[0]],
                             maxsteps=200, extraprec=80)
        return not any(abs(mp.im(r)) < mp.mpf(10) ** -30 and 0 < mp.re(r) <= 1 for r in roots)


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
    """area2d builds each oval's geometry once and shares it across indices;
    the values must not depend on which indices came before."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_values_independent_of_index_order(self, kappa):
        p = make_params(kappa)
        h = interior_levels(p, 1, 0.5, 0.5)[0]

        def run(indices):
            clear_caches()
            return {ij: moment(MomentIndex(*ij), h, p, "area2d", 1e-8) for ij in indices}

        forward = run(BASIS)
        backward = run(BASIS[::-1])
        # reference: every index alone, on a geometry built afresh
        alone = {}
        for ij in BASIS:
            alone.update(run([ij]))
        clear_caches()
        for other in (backward, alone):
            for ij in BASIS:
                assert other[ij].value == forward[ij].value
                assert other[ij].err_estimate == forward[ij].err_estimate

    @staticmethod
    def _leaves(geo):
        # the geometry's leaf arrays as the recursive walk lists them:
        # (x0, x1, y0, y1, pieces), pieces None for an inner cell, else the
        # (a, b, fold_lo, fold_hi) x-pieces of a boundary cell
        pieces = list(zip(*(v.tolist() for v in geo.pieces)))
        edge = (np.cumsum(geo.boundary) - 1).tolist()  # each cell's row among the boundary cells
        return [(*cell, [p[1:] for p in pieces if p[0] == e] if b else None)
                for cell, b, e in zip(geo.cells.tolist(), geo.boundary.tolist(), edge)]

    @staticmethod
    def _recursive_walk(geo, cx0, cx1, cy0, cy1, depth, leaves):
        # reference: the cell-by-cell depth-first walk
        ov = geo.oval
        gx = np.linspace(cx0, cx1, 5)
        gy = np.linspace(cy0, cy1, 5)
        X, Y = np.meshgrid(gx, gy)
        if ov.form is HamiltonianForm.SYMMETRIC_FORM:
            S = hamiltonian(ov.form, (X, Y), ov.params) - ov.h
        else:
            S = hamiltonian(ov.form, (X, Y), ov.params, h=ov.h)
        if np.all(S > 0.0):
            return leaves
        if np.all(S < 0.0) and bool(ov.contains(0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1))):
            leaves.append((cx0, cx1, cy0, cy1, None))
            return leaves
        if depth < geo.MAX_DEPTH:
            mx, my = 0.5 * (cx0 + cx1), 0.5 * (cy0 + cy1)
            for cell in ((cx0, mx, cy0, my), (mx, cx1, cy0, my),
                         (cx0, mx, my, cy1), (mx, cx1, my, cy1)):
                TestArea2dGeometry._recursive_walk(geo, *cell, depth + 1, leaves)
            return leaves
        brk, fold_xs = geo.breakpoints(cy0, cy1), geo.fold_xs
        near_fold = lambda x: bool(fold_xs.size > 0 and np.min(
            np.abs(fold_xs - x)) < 1e-9 * (1.0 + abs(x)))
        inner = sorted(x for x in brk if cx0 + 1e-13 < x < cx1 - 1e-13)
        cuts = [cx0] + inner + [cx1]
        pieces = [(a_, b_, near_fold(a_), near_fold(b_))
                  for a_, b_ in zip(cuts[:-1], cuts[1:]) if b_ - a_ >= 1e-13]
        leaves.append((cx0, cx1, cy0, cy1, pieces))
        return leaves

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_batched_walk_equals_recursive_walk(self, kappa):
        p = make_params(kappa)
        compared = 0
        for level in (0.08, 0.5, 0.92):
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                geo = quad._Area2dGeometry(ov)
                ref = self._recursive_walk(geo, *ov.bounding_box(), 0, [])
                assert any(leaf[4] is None for leaf in ref)
                assert any(leaf[4] for leaf in ref)
                assert self._leaves(geo) == ref
                compared += 1
        assert compared >= 3

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_run_components_equal_per_node_test(self, kappa):
        # a run without a fold takes each segment's component from its middle;
        # the slices must equal those with Oval.contains at every node, here
        # on the initial panels split in four.  Fold runs are tested per node:
        # their middle's component would keep a segment at 41 segment-nodes
        # (all at level 0.01 in the symmetric form: 32 at kappa 1.01, 9 at
        # 1000) where Oval.contains drops it, and a 40-digit membership test
        # of its midpoint must side with Oval.contains at each one
        p = make_params(kappa)
        compared = decided = 0
        for level in (0.01, 0.08, 0.5, 0.92, 0.99):
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                geo = quad._Area2dGeometry(ov)
                assert (geo.comp[:, geo.sign != 0.0] == -1).all()
                run, lo, hi = geo.panels
                edges = lo + (hi - lo) * np.arange(5)[:, None] / 4.0
                run = np.tile(run, 4)
                x, _, got_lo, got_hi = geo.panel_nodes(run, edges[:-1].ravel(),
                                                       edges[1:].ravel())
                y0, y1 = geo.y0[run, None], geo.y1[run, None]
                ref_lo, ref_hi = quad._slice_segments(x, y0, y1, ov)
                assert np.array_equal(got_lo, ref_lo) and np.array_equal(got_hi, ref_hi)
                # every run's component from its middle, fold runs included
                mid = geo.panels[2][:geo.sign.size]  # the end of each run's first panel
                xm = np.where(geo.sign != 0.0, geo.base + geo.sign * mid * mid, mid)
                (mlo, mhi), (mlo1, mhi1) = (quad._slice_segments(xm, geo.y0, geo.y1, ov, c)
                                            for c in (-1, 1))
                comp = np.where(mhi1 > mlo1, mhi > mlo, -1).astype(np.int8)
                mid_lo, mid_hi = quad._slice_segments(x, y0, y1, ov, comp[:, run, None])
                differ = (mid_lo != ref_lo) | (mid_hi != ref_hi)
                assert not differ[:, geo.sign[run] == 0.0].any()
                assert np.all(mid_hi[differ] > mid_lo[differ]) and not np.any(ref_hi[differ])
                ym = 0.5 * (mid_lo + mid_hi)
                for seg, node, k in zip(*np.nonzero(differ)):
                    assert not _contains_40_digits(ov, x[node, k], ym[seg, node, k])
                compared += 1
                decided += np.count_nonzero(geo.comp >= 0)
        assert compared >= 6 and decided > 0

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
        # Newton works on the level function alone; one ray solve at the four
        # converged angles gives the sides
        import q4lab.model as model
        ov = oval(-0.5, p4)
        calls = []
        kernel = model._smallest_positive_roots
        monkeypatch.setattr(model, "_smallest_positive_roots",
                            lambda *a: calls.append(1) or kernel(*a))
        box = ov.bounding_box()
        assert len(calls) == 1
        assert ov.bounding_box() == box
        assert len(calls) == 1

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
        hess = model._hess  # a Jacobian off by half: Newton converges only linearly
        monkeypatch.setattr(model, "_hess", lambda *a: tuple(0.5 * d for d in hess(*a)))
        with pytest.raises(GeometryError, match="8 steps"):
            ov.bounding_box()

    @staticmethod
    def _x_breakpoints(ov, cy0, cy1):
        # reference: fold roots and both row crossings solved afresh per cell,
        # each row alone
        params, form, h = ov.params, ov.form, ov.h
        k = params.kappa
        km = k - 1.0
        a = k / 3.0
        if form is HamiltonianForm.SYMMETRIC_FORM:
            p3 = np.polynomial.polynomial.polypow([-1.0, 0.0, -km], 3)
            q = np.array([-h, 0.0, 0.0, (2.0 / 3.0) * km])
        else:
            p3 = np.polynomial.polynomial.polypow([-km, 0.0, -1.0], 3)
            q = np.array([(2.0 / 3.0) * km, 0.0, 0.0, -h])
        q2 = np.polynomial.polynomial.polymul(q, q)
        D = -4.0 * a * np.pad(p3, (0, 7 - p3.size)) - 27.0 * a * a * q2
        fold_pts = np.roots(D[::-1])
        fold_xs = fold_pts[np.abs(fold_pts.imag) < 1e-9 * (1.0 + np.abs(fold_pts.real))].real
        pts = [fold_xs]
        for yrow in (cy0, cy1):
            cube = (k / 3.0) * (yrow * yrow * yrow)
            if form is HamiltonianForm.SYMMETRIC_FORM:
                c3 = [(2.0 / 3.0) * km, -km * yrow, 0.0, cube - yrow - h]
            else:
                c3 = [-h, -yrow, 0.0, cube - km * yrow + (2.0 / 3.0) * km]
            x = cubic_real_roots(*c3)[0]
            pts.append(x[np.isfinite(x)])
        return np.unique(np.concatenate(pts)), np.unique(fold_xs)

    @pytest.mark.parametrize("form", [HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM])
    def test_breakpoints_match_fresh_computation(self, p4, monkeypatch, form):
        # fold roots once per oval, the crossings of all rows in one call:
        # every boundary leaf sees what a per-cell computation gives
        ov = oval(-0.55, p4, form=form)
        roots, solves = [], []
        np_roots, row_crossings = np.roots, quad._row_crossings
        monkeypatch.setattr(np, "roots", lambda c: roots.append(1) or np_roots(c))
        monkeypatch.setattr(quad, "_row_crossings",
                            lambda *a: solves.append(1) or row_crossings(*a))
        geo = quad._Area2dGeometry(ov)
        assert len(roots) == 1 and len(solves) == 1
        assert len(geo.crossings) <= 2 ** geo.MAX_DEPTH + 1
        boundary = geo.cells[geo.boundary]
        assert boundary.size
        for _, _, cy0, cy1 in boundary.tolist():
            ref_brk, ref_fold = self._x_breakpoints(ov, cy0, cy1)
            assert np.array_equal(geo.breakpoints(cy0, cy1), ref_brk)
            assert np.array_equal(np.unique(geo.fold_xs), ref_fold)


class TestOneGKEngine:
    """green, area2d and the reconstruction check share one batched GK loop
    (``_gk_refine``); area2d kept its bits through the move."""

    # area2d at tol 1e-8: (kappa, level fraction of the annulus) -> float.hex
    # of the six BASIS moments.  Recorded before the loop was shared, and
    # re-recorded when rays, slices and row crossings moved onto
    # cubic_real_roots: each value moved by at most 13 ulps (1.8e-15); and
    # when the bounding box moved from bisection to Newton: 20 of the 54
    # values moved, by at most 3 ulps (3.6e-16); and when the GK sums moved
    # from a BLAS gemv to numpy's add.reduce: 3 values moved, by 1 ulp each
    AREA2D_HEX = {
        (1.5, 0.08): (
            "0x1.66712efb4a493p-5", "0x1.63c2ce3cd4da4p-5", "0x1.658e4cfbc15a8p-5",
            "0x1.63c35d126d2dap-5", "0x1.6be96f3d27953p-5", "0x1.6a1afd1b96246p-5"),
        (1.5, 0.5): (
            "0x1.2355b4cfdbd05p-2", "0x1.13ed3e6f7a656p-2", "0x1.1e828cf1f707cp-2",
            "0x1.1400b48f4dcaap-2", "0x1.475b846bda11cp-2", "0x1.3c2deeca0590fp-2"),
        (1.5, 0.92): (
            "0x1.1ea176e3d6c40p-1", "0x1.f6ff755cc2e0ep-2", "0x1.14a3e7bb9797dp-1",
            "0x1.f79373520b80fp-2", "0x1.8fafd7311e5fcp-1", "0x1.70e4cd2322a14p-1"),
        (4.0, 0.08): (
            "0x1.8f3dac038b2a7p-5", "0x1.8ba212ac75d7bp-5", "0x1.8c8ba0d1cbf03p-5",
            "0x1.8ba42153ba1a4p-5", "0x1.96a07e3691d7ap-5", "0x1.911c649794f3ep-5"),
        (4.0, 0.5): (
            "0x1.46dac56684f9fp-2", "0x1.3250fe8ccfa91p-2", "0x1.37e93dce5c3eap-2",
            "0x1.329a8911c8e63p-2", "0x1.781a542708ab8p-2", "0x1.5471381021acbp-2"),
        (4.0, 0.92): (
            "0x1.4415635c07feep-1", "0x1.16769eca14012p-1", "0x1.24a790ba792d2p-1",
            "0x1.17951fbca361ap-1", "0x1.df754b4572711p-1", "0x1.7755b7b066babp-1"),
        (9.0, 0.08): (
            "0x1.46496f4b87f6dp-5", "0x1.42f88c468c240p-5", "0x1.43585329bc3c5p-5",
            "0x1.42fb136a83a8ap-5", "0x1.4d17fd6bec48ap-5", "0x1.470e5ceb75cc3p-5"),
        (9.0, 0.5): (
            "0x1.0ca48c66efc13p-2", "0x1.f3760b5dc3c54p-3", "0x1.f8318e0ef942ap-3",
            "0x1.f42e39e80f40ap-3", "0x1.3af7655cf8fc0p-2", "0x1.128c234a63d22p-2"),
        (9.0, 0.92): (
            "0x1.0c410e166fbedp-1", "0x1.c513afc15fb99p-2", "0x1.d1d77925d8b60p-2",
            "0x1.c7f0a9c55a83ap-2", "0x1.a261139935e68p-1", "0x1.2582f920c04bep-1"),
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
        assert shapes[0] == (8, 15)
        assert len(shapes) > 1 and all(len(sh) == 2 and sh[1] == 15 for sh in shapes)


class TestBatchedMoments:
    """The six basis moments of a (level, method, tol) refine as one batch;
    each keeps its own panels, budget and cap, so each value equals the one
    it gets refined alone (``conftest``'s per-index reference)."""

    @pytest.mark.parametrize("kappa", [1.01, 1.5, 4.0, 9.0, 1000.0])
    def test_batch_equals_per_index_refinement(self, kappa, monkeypatch):
        p = make_params(kappa)
        compared = 0
        for level in (0.01, 0.08, 0.5, 0.92, 0.99):
            h = interior_levels(p, 1, level, level)[0]
            for form in (HamiltonianForm.SYMMETRIC_FORM, HamiltonianForm.CUBIC_FORM):
                try:
                    ov = oval(h, p, form=form)
                except DegenerateLevelError:
                    continue
                ijs = tuple(ij for ij in BASIS if ij[0] >= 0 or ov.min_x > 1e-6)
                calls = {"nodes": 0, "front": 0, "solve": 0}
                count = lambda name, f: lambda *a: calls.__setitem__(name, calls[name] + 1) or f(*a)
                with monkeypatch.context() as m:
                    m.setattr(quad._Area2dGeometry, "panel_nodes",
                              count("nodes", quad._Area2dGeometry.panel_nodes))
                    m.setattr(Oval, "point_tangent", count("front", Oval.point_tangent))
                    m.setattr(Oval, "_point_tangent", count("solve", Oval._point_tangent))
                    green = quad._moments_green(ijs, ov, 1e-10)
                    solves = calls["solve"]
                    area2d = quad._moments_area2d(ijs, ov, 1e-8)
                for got, ref_of, name in ((green, green_reference, "front"),
                                          (area2d, area2d_reference, "nodes")):
                    refs = [ref_of(*ij, ov, 1e-10 if name == "front" else 1e-8) for ij in ijs]
                    for ij, (value, err, panels, saturated), ref in zip(ijs, got, refs):
                        assert (value.hex(), err.hex(), panels) == (
                            ref[0].hex(), ref[1].hex(), ref[2]), (kappa, level, form, name, ij)
                        assert not saturated
                    # one evaluation per round of the slowest index, plus the first
                    assert calls[name] == 1 + max(ref[3] for ref in refs), (kappa, level, form)
                # each round's new rows reach the ray solver in one call
                assert solves == calls["front"]
                compared += 1
        assert compared >= 6

    def test_saturated_index_leaves_the_others_alone(self, p4, caplog, monkeypatch):
        # at this level I_-1_0 needs 296 panels and no other index more than 294
        h, ijs = interior_levels(p4, 1, 0.92, 0.92)[0], [MomentIndex(*ij) for ij in BASIS]
        clear_caches()
        free = [moment(ij, h, p4, "area2d", 1e-10) for ij in ijs]
        assert not any(m.saturated for m in free)
        most, cap = sorted(m.panels for m in free)[-2:][::-1]
        assert most > cap  # one index needs more panels than every other
        monkeypatch.setattr(quad, "AREA2D_MAX_PANELS", cap)
        clear_caches()
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            capped = [moment(ij, h, p4, "area2d", 1e-10) for ij in ijs]
        clear_caches()
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        [hit] = [n for n, m in enumerate(free) if m.panels == most]
        assert len(records) == 1
        assert f"area2d I_{BASIS[hit][0]}_{BASIS[hit][1]} at" in records[0].getMessage()
        assert [m.saturated for m in capped] == [n == hit for n in range(len(ijs))]
        assert capped[hit].panels == cap and capped[hit].err_estimate > free[hit].err_estimate
        for n, (a, b) in enumerate(zip(free, capped)):
            if n != hit:
                assert (a.value, a.err_estimate, a.panels) == (b.value, b.err_estimate, b.panels)

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
        assert ov._tangents
        assert quad._area2d_geometry.cache_info().currsize == 1
        clear_caches()
        for cache in (quad.cached_oval, quad._moments, quad._area2d_geometry):
            assert cache.cache_info().currsize == 0
        # the next caller gets a fresh oval, with an empty memo
        fresh = quad.cached_oval(h, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        assert fresh is not ov and not fresh._tangents


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
        monkeypatch.setattr(quad, "AREA2D_MAX_PANELS", 1)
        ov = quad.cached_oval(-0.5, p4.kappa, HamiltonianForm.SYMMETRIC_FORM)
        with caplog.at_level(logging.WARNING, logger="q4lab"):
            [(value, err, *_)] = quad._moments_area2d(((1, 1),), ov, 1e-12)
        records = [r for r in caplog.records if r.name == "q4lab.quadrature"]
        assert len(records) == 1
        assert records[0].levelno == logging.WARNING
        assert "area2d I_1_1" in records[0].getMessage()
        assert err > 0.02 * 1e-12 * abs(value)

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
