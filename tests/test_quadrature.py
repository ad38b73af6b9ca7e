import math

import numpy as np
import pytest

import q4lab.quadrature as quad
from q4lab import DomainError, HamiltonianForm, SingularityError, make_params
from q4lab.model import Oval, interior_levels, oval
from q4lab.quadrature import (
    MomentIndex,
    clear_caches,
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
        from q4lab.quadrature import _moment_green
        a = oval(-0.47, p4, n_min=256)
        b = oval(-0.47, p4, n_min=512)
        va, _ = _moment_green(1, 1, a, 1e-10)
        vb, _ = _moment_green(1, 1, b, 1e-10)
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
        from q4lab.quadrature import _moment_green
        h = -0.5
        dual = oval(-h, p4, center=(-1.0, -1.0))
        for i, j in BASIS:
            direct = moment_value(i, j, h, p4)
            refl, _ = _moment_green(i, j, dual, 1e-10)
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
    def test_values_independent_of_index_order(self, kappa, monkeypatch):
        p = make_params(kappa)
        h = interior_levels(p, 1, 0.5, 0.5)[0]

        def run(indices):
            clear_caches()
            return {ij: moment(MomentIndex(*ij), h, p, "area2d", 1e-8) for ij in indices}

        forward = run(BASIS)
        backward = run(BASIS[::-1])
        alone = run([(1, 1)])
        # reference: every panel solves its slices afresh, as a walk per
        # moment does
        monkeypatch.setattr(quad._Area2dGeometry, "segments",
                            lambda self, xs, y0, y1: quad._slice_segments(xs, y0, y1, self.oval))
        fresh = run([(1, 1)])
        clear_caches()
        for ij in BASIS:
            assert backward[ij].value == forward[ij].value
            assert backward[ij].err_estimate == forward[ij].err_estimate
        for other in (alone, fresh):
            assert other[(1, 1)].value == forward[(1, 1)].value
            assert other[(1, 1)].err_estimate == forward[(1, 1)].err_estimate

    def test_bounding_box_computed_once(self, p4, monkeypatch):
        ov = oval(-0.5, p4)
        calls = []
        point_tangent = Oval.point_tangent
        monkeypatch.setattr(Oval, "point_tangent",
                            lambda self, th: calls.append(1) or point_tangent(self, th))
        box = ov.bounding_box()
        assert len(calls) > 4 * 60  # four extremes, 60 bisection steps each
        n = len(calls)
        assert ov.bounding_box() == box
        assert len(calls) == n


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
