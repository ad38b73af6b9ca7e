import builtins
import copy
import hashlib
import math
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import frozen_scan
import q4lab.analysis as an
from conftest import adaptive_gk_reference, kernel_env, keyhole_reference, openblas_kernels
from q4lab import (ConsistencyError, ConvergenceError, DomainError, SingularityError,
                   clear_caches, make_params)
from q4lab.analysis import (
    BoundScanner,
    L2Frame,
    PolyPair,
    bound_pipeline,
    chebyshev_probe,
    count_zeros,
    j_table,
    keyhole_by_continuation,
    keyhole_contour,
    inhomogeneous_bound_sample,
    random_poly_pair,
    residue_solution,
    residue_zero_level,
    sweep_bounds,
    unit_sphere_weights,
    vn_sample_test,
    winding_count,
)
from q4lab.melnikov import CENTER_Z, center_z, extract_R_coeffs, get_propagation
from q4lab.picard_fuchs import initial_jstate, pf_derivatives, pf_matrix, series_sum


class TestCountZeros:
    def test_two_simple_roots(self):
        zr = count_zeros(lambda h: (np.asarray(h) + 0.5) * (np.asarray(h) + 0.4),
                         (-0.6, -0.35), grid=64)
        assert zr.count == 2
        assert zr.locations == pytest.approx([-0.5, -0.4], abs=1e-8)

    def test_double_root(self):
        zr = count_zeros(lambda h: (np.asarray(h) + 0.5) ** 2, (-0.6, -0.4), grid=256)
        assert zr.count == 2
        assert zr.zeros[0]["multiplicity_estimate"] == 2
        assert zr.zeros[0]["location"] == pytest.approx(-0.5, abs=1e-9)

    def test_near_miss_not_counted(self):
        zr = count_zeros(lambda h: (np.asarray(h) + 0.5) ** 2 + 1e-4, (-0.6, -0.4),
                         grid=256)
        assert zr.count == 0

    def test_identically_zero(self):
        zr = count_zeros(lambda h: 0.0 * np.asarray(h), (-1.0, 1.0))
        assert zr.count == 0
        assert zr.identically_zero

    def test_stable_under_grid_doubling(self):
        f = lambda h: np.sin(10.0 * np.asarray(h))
        z1 = count_zeros(f, (0.05, 2.0), grid=128)
        z2 = count_zeros(f, (0.05, 2.0), grid=256)
        assert z1.count == z2.count
        assert np.allclose(z1.locations, z2.locations, atol=1e-9)

    @given(roots=st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_polynomial_products(self, roots):
        roots = sorted(roots)
        if any(abs(a - b) < 5e-2 for a, b in zip(roots[:-1], roots[1:])):
            return  # keep zeros separated for the scan
        def f(x):
            out = np.ones_like(np.asarray(x, dtype=float))
            for r in roots:
                out = out * (np.asarray(x) - r)
            return out
        zr = count_zeros(f, (-1.0, 1.0), grid=256)
        assert zr.count == len(roots)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            count_zeros(lambda x: x, (1.0, -1.0))

    def test_error_in_f_propagates_after_one_call(self):
        calls = []

        def f(x):
            calls.append(x)
            raise DomainError("outside the domain of f")

        with pytest.raises(DomainError, match="outside the domain of f"):
            count_zeros(f, (0.0, 1.0))
        assert len(calls) == 1

    def test_f_of_another_shape_is_refused(self):
        calls = []

        def f(x):
            calls.append(x)
            return 0.5  # one value for the whole grid

        with pytest.raises(DomainError, match=r"shape \(\) on levels of shape \(256,\)"):
            count_zeros(f, (0.0, 1.0))
        assert len(calls) == 1

    def test_tangency_stencil_collapses_at_window_end(self):
        # the grid's first node sits one ulp inside the window; the scanned
        # minimum is at node 1, but pointwise |f| falls toward the window
        # start (as rounding noise does where a function vanishes at the
        # end).  The quadratic fit clamps its vertex to node 0, halves in to
        # a one-ulp stencil and then one below an ulp, where it must stop
        # instead of fitting three equal abscissae
        a, b = 1.0, 2.0
        ulp = np.spacing(a)
        xs = np.linspace(a, b, 9)
        xs[0] = a + ulp
        fs = 1.0 + (xs - xs[1]) ** 2
        fvec = lambda x: 1.0 + ((np.asarray(x) - a) / ulp) ** 2
        zr, = an._count_from_scan(xs, fs[None], lambda r: fvec, (a, b))
        assert zr.count == 0 and zr.zeros == []

    def test_non_finite_tangency_stencil_is_refused(self):
        # finite on the scan grid, NaN between its nodes, where the fit of
        # the minimum at -0.5 samples f
        xs = an._cheb_grid(-0.6, -0.4, 256)
        f = lambda h: np.where(np.isin(h, xs), (np.asarray(h) + 0.5) ** 2, np.nan)
        with pytest.raises(DomainError, match="non-finite at the tangency stencil"):
            count_zeros(f, (-0.6, -0.4), grid=256)

    def test_grid_below_64_is_refused(self):
        with pytest.raises(DomainError, match="at least 64 nodes, got 63"):
            count_zeros(lambda h: np.asarray(h) + 0.5, (-0.6, -0.4), grid=63)

    def test_cheb_grid_built_once_read_only(self):
        # every element of a count scans the same nodes: one array per
        # (a, b, n), which no caller can write; a short grid still raises
        grid = an._cheb_grid(-0.6, -0.4, 256)
        assert an._cheb_grid(-0.6, -0.4, 256) is grid
        assert an._cheb_grid(-0.6, -0.4, 128) is not grid
        with pytest.raises(ValueError):
            grid[0] = 0.0
        for _ in range(2):
            with pytest.raises(DomainError, match="at least 64 nodes, got 63"):
                an._cheb_grid(-0.6, -0.4, 63)

    def test_cluster_across_a_node_warns_on_read(self):
        # two simple roots 1e-12 apart on either side of a grid node: two
        # sign changes, located closer than the bracket tolerance
        node = an._cheb_grid(-1.0, 1.0, 64)[20]
        r1, r2 = node - 5e-13, node + 5e-13
        zr = count_zeros(lambda h: (np.asarray(h) - r1) * (np.asarray(h) - r2),
                         (-1.0, 1.0), grid=64)
        assert zr.count == 2
        assert zr.locations[0] <= node <= zr.locations[1]
        assert zr.locations == pytest.approx([r1, r2], abs=1e-12)
        assert len(zr.warnings) == 1
        assert zr.warnings[0].startswith("unresolved cluster near ")


class TestResidueSolutionProbe:
    def test_boundary_value(self, p4):
        rs = residue_solution(-1 / 3 - 1e-9, p4)
        assert rs.y0 == pytest.approx(-1.0, abs=1e-6)
        assert rs.f == pytest.approx(4 / 3, rel=1e-5)

    def test_requires_below_saddle(self, p4):
        with pytest.raises(DomainError):
            residue_solution(-0.2, p4)

    def test_zero_level_closed_form(self, p4):
        assert residue_zero_level(p4) == pytest.approx(-(2 / 3) * math.sqrt(5 / 4))

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0, 9.0])
    def test_probe_findings(self, kappa):
        p = make_params(kappa)
        rep = chebyshev_probe(p)
        assert rep.l2_residual <= 1e-6
        assert rep.locate_error is not None and rep.locate_error <= 1e-8
        # the closed-form zero always sits inside the larger interval
        assert rep.in_half_line_interval
        assert rep.nonvanishing_on_half_line == "contradicted"
        # and inside the annulus interval exactly for kappa > 5
        assert rep.in_annulus_interval == (kappa > 5.0)
        assert rep.nonvanishing_on_annulus == (
            "contradicted" if kappa > 5.0 else "confirmed")
        # measured endpoint value of y0 disagrees with the claimed -sqrt(5/k)
        assert rep.saddle_y0 == pytest.approx(-2 / math.sqrt(kappa), abs=1e-6)
        assert abs(rep.saddle_y0 - rep.saddle_y0_claimed) > 0.05
        # the identity prefactor is y0, not h
        assert rep.identity_gap > 1e-4

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 50.0])
    def test_l2_residual_is_rounding_only(self, kappa, monkeypatch):
        # with f' and f'' exact, L2(f) leaves rounding only; an f that is not
        # the residue solution of L2 still fails the 1e-6 gate
        p = make_params(kappa)
        assert chebyshev_probe(p, grid=64).l2_residual <= 1e-13
        exact = an._residue_at
        monkeypatch.setattr(an, "_residue_at",
                            lambda h, y0, k: exact(h, y0, k) * (1.0 + 1e-4 * h))
        assert chebyshev_probe(p, grid=64).l2_residual > 1e-6

    def test_broken_identity_raises(self, p4, monkeypatch):
        # a y0 off the defining cubic breaks -4h + (3kh^2-4) y0 =
        # kappa y0 (3h^2 - (4/3) y0^2); the check must survive python -O
        import q4lab.analysis as an
        exact = an.residue_solution
        monkeypatch.setattr(an, "residue_solution", lambda h, params: replace(
            exact(h, params), y0=exact(h, params).y0 * (1.0 + 1e-6)))
        with pytest.raises(ConsistencyError):
            chebyshev_probe(p4, grid=64)

    def test_rotation_under_pi_on_annulus(self):
        # the solution space stays Chebyshev on the annulus window even for
        # kappa > 5, where the residue certificate fails
        for kappa in (2.0, 9.0):
            rep = chebyshev_probe(make_params(kappa))
            assert rep.rotation_span_annulus < math.pi


class TestWinding:
    def test_constant_element(self, p4):
        wr = winding_count(PolyPair(P=(1.0,), Q=()), p4)
        assert wr.winding == 0
        assert wr.residual <= 0.2
        assert {s["name"] for s in wr.segments} == {
            "cut_upper", "small_circle", "cut_lower", "big_circle"}

    def test_contour_closure_and_wronskian(self, p4):
        _, closure_drift, det_drift = keyhole_by_continuation(p4)
        assert closure_drift < 1e-8
        assert det_drift < 1e-8

    def test_n1_bound_over_random_pairs(self, p4, rng):
        maxw = 0
        for _ in range(50):
            pair = random_poly_pair(1, rng)
            wr = winding_count(pair, p4)
            assert wr.residual <= 0.2
            assert wr.bound_ok
            maxw = max(maxw, wr.winding)
        assert maxw <= 2

    def test_winding_at_least_real_zeros(self, p4, rng):
        tab = j_table(p4)
        for _ in range(20):
            pair = random_poly_pair(2, rng)

            def V(s):
                J = tab.J(s)
                return pair.eval_P(s).real * J[0] + pair.eval_Q(s).real * J[1]

            zr = count_zeros(V, (tab.lo, tab.hi), grid=256)
            wr = winding_count(pair, p4)
            assert wr.winding >= zr.count

    def test_epsilon_stability(self, p4, rng):
        # the winding number is a zero count: halving/doubling epsilon moves
        # the contour but must not change the count for pairs whose zeros
        # stay away from the excluded neighbourhoods
        for _ in range(5):
            pair = random_poly_pair(2, rng)
            w = {eps: winding_count(pair, p4, eps).winding
                 for eps in (5e-4, 1e-3, 2e-3)}
            assert len(set(w.values())) == 1, w

    def test_degree_validation(self):
        with pytest.raises(DomainError):
            PolyPair(P=(1.0, 2.0), Q=(1.0, 2.0))


class TestVnSampling:
    def test_n1_kappa4(self, p4):
        out = vn_sample_test(1, 60, p4, seed=101)
        assert out["max_real_zeros"] <= 2
        assert out["max_winding"] <= 2
        assert not out["violations"]

    def test_n2_kappa2(self, p2):
        out = vn_sample_test(2, 40, p2, seed=102)
        assert out["max_real_zeros"] <= 4
        assert out["max_winding"] <= 4
        assert not out["violations"]

    def test_pure_J1_element_never_vanishes(self, p4):
        tab = j_table(p4)
        zr = count_zeros(lambda s: tab.J(s)[0], (tab.lo, tab.hi), grid=512)
        assert zr.count == 0

    def test_deterministic(self, p4):
        a = vn_sample_test(1, 10, p4, seed=7)
        b = vn_sample_test(1, 10, p4, seed=7)
        assert a["rows"] == b["rows"]

    def test_rejects_bad_n(self, p4):
        with pytest.raises(DomainError):
            vn_sample_test(0, 5, p4, seed=0)


def _winding_count_per_element(pair, params, epsilon):
    """``winding_count`` as it was before the contour kept its terms, on the
    whole boundary (``keyhole_reference``): P and Q by Horner,
    F = (P J1 + Q J2) / J1 and every term formed per element from the
    samples, and the wrap by the float %."""
    segments, total, min_j1, max_step, edge_gap = [], 0.0, math.inf, 0.0, 0.0
    for name, (s, J) in keyhole_reference(params, epsilon).items():
        J1, J2 = J[0], J[1]
        amin = float(np.min(np.abs(J1)))
        min_j1 = min(min_j1, amin)
        P = pair.eval_P(s)
        Q = pair.eval_Q(s)
        F = (P * J1 + Q * J2) / J1
        if name.startswith("cut"):
            imf = Q.real * (J2 * np.conj(J1)).imag / np.abs(J1) ** 2
            edge_gap = max(edge_gap, float(np.max(np.abs(imf - F.imag))
                                           / (np.max(np.abs(F)) + 1e-300)))
            F = F.real + 1j * imf
        steps = np.diff(np.angle(F))
        steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
        inc = float(np.sum(steps))
        max_step = max(max_step, float(np.max(np.abs(steps))))
        total += inc
        segments.append({"name": name, "arg_increment": inc})
    w = int(round(total / (2.0 * math.pi)))
    return an.WindingReport(
        n=pair.n, epsilon=epsilon, segments=segments, winding=w,
        residual=abs(total / (2.0 * math.pi) - w), min_abs_J1=min_j1,
        bound_ok=w <= 2 * pair.n, max_arg_step=max_step, edge_im_agreement=edge_gap)


def _winding_count_per_piece(pair, params, epsilon):
    """``winding_count`` as it was before it made one pass over the contour's
    half: each piece's P, Q, F and angles formed on its own, the circles'
    crossing angles joined by ``np.append``/``np.insert``, and the wrap by
    the float %, which ``_wrap`` equals bit for bit."""
    ct = keyhole_contour(params, epsilon)
    powers = ct.powers(pair.n)
    inc, max_step, edge_gap = {}, 0.0, 0.0
    for name, (a, b) in ct.bounds.items():
        cols = [col[2 * a:2 * b] for col in powers]
        P, Q = (an._real_sum(c, cols, b - a) for c in (pair.P, pair.Q))
        F = P + Q * ct.rho[a:b]
        im = F.imag
        if name == "cut_upper":
            im = Q.real * ct.ratio
            edge_gap = float(np.max(np.abs(im - F.imag)) / (np.max(np.abs(F)) + 1e-300))
        th = np.arctan2(im, F.real)
        if name == "small_circle":
            th = np.append(th, -th[-1])
        elif name == "big_circle":
            th = np.insert(th, 0, -th[0])
        steps = (np.diff(th) + np.pi) % (2.0 * np.pi) - np.pi
        max_step = max(max_step, float(np.max(np.abs(steps))))
        inc[name] = float(np.sum(steps))
        if name != "cut_upper":
            inc[name] = 2.0 * inc[name] - float(steps[-1] if name == "small_circle" else steps[0])
    inc["cut_lower"] = inc["cut_upper"]
    segments = [{"name": name, "arg_increment": inc[name]}
                for name in ("cut_upper", "small_circle", "cut_lower", "big_circle")]
    total = ((inc["cut_upper"] + inc["small_circle"]) + inc["cut_lower"]) + inc["big_circle"]
    w = int(round(total / (2.0 * math.pi)))
    return an.WindingReport(n=pair.n, epsilon=epsilon, segments=segments, winding=w,
                            residual=abs(total / (2.0 * math.pi) - w), edge_im_agreement=edge_gap,
                            min_abs_J1=ct.min_abs_J1, bound_ok=w <= 2 * pair.n,
                            max_arg_step=max_step)


_PI_LD = np.arccos(np.longdouble(-1.0))


def _arg_increments_longdouble(pair, params, epsilon):
    """Each piece's argument increment of F on the whole boundary
    (``keyhole_reference``), in np.clongdouble: P and Q by Horner,
    F = P + Q J2 / J1, and on the cut edges
    Im F = Re Q Im(J2 conj(J1)) / |J1|^2, as ``winding_count``."""
    out = []
    for name, (s, J) in keyhole_reference(params, epsilon).items():
        s, J1, J2 = (np.asarray(x, dtype=np.clongdouble) for x in (s, J[0], J[1]))
        P, Q = np.zeros_like(s), np.zeros_like(s)
        for c in reversed(pair.P):
            P = P * s + np.longdouble(c)
        for c in reversed(pair.Q):
            Q = Q * s + np.longdouble(c)
        F = P + Q * (J2 / J1)
        im = F.imag
        if name.startswith("cut"):
            im = Q.real * (J2 * np.conj(J1)).imag / (J1.real**2 + J1.imag**2)
        steps = (np.diff(np.arctan2(im, F.real)) + _PI_LD) % (2 * _PI_LD) - _PI_LD
        out.append(np.sum(steps))
    return out


def _mirror_images(ref):
    """Each lower-half piece of the keyhole, (s, J), beside its mirror image
    on the upper half: cut_lower against cut_upper reversed, and each
    circle's lower half (Im s < 0) against the circle reversed."""
    (su, Ju), (sl, Jl) = ref["cut_upper"], ref["cut_lower"]
    yield "cut_lower", (sl, Jl), (su[::-1], Ju[:, ::-1])
    for name in ("small_circle", "big_circle"):
        s, J = ref[name]
        low = s.imag < 0
        yield name, (s[low], J[:, low]), (s[::-1][low], J[:, ::-1][:, low])


class TestReflection:
    """J is real on (1, inf), so J(conj s) = conj J(s): the lower half of the
    keyhole is the mirror image of the upper half, which is all the contour
    stores and ``winding_count`` reads."""

    # the big circle's angles theta0 + (theta1 - theta0) t round at ulp(pi),
    # which its radius 1 / eps magnifies: measured 8.6 ulps, 1 elsewhere
    S_ULPS = {"cut_lower": 1, "small_circle": 1, "big_circle": 16}

    @pytest.mark.parametrize("kappa", [1.05, 1.5, 4.0, 9.0, 50.0])
    @pytest.mark.parametrize("epsilon", [5e-4, 1e-3, 2e-3])
    def test_lower_half_mirrors_upper(self, kappa, epsilon):
        # J relative to the piece's max |J|, measured worst (hypergeometric_J's
        # own rounding): 3.8e-13 on the edges (kappa 1.05), 3.3e-13 on the
        # small circle (kappa 50) and 1.0e-12 on the big circle (kappa 1.05)
        ref = keyhole_reference(make_params(kappa), epsilon)
        for name, (s, J), (sm, Jm) in _mirror_images(ref):
            if name != "cut_lower":  # the contour keeps one half of each circle
                assert 2 * s.size == ref[name][0].size
            d = s - np.conj(sm)
            ulp = np.spacing(np.maximum(np.abs(s), 1.0))
            assert np.all(np.maximum(np.abs(d.real), np.abs(d.imag)) <= self.S_ULPS[name] * ulp)
            scale = np.max(np.abs(ref[name][1]))
            assert np.max(np.abs(J - np.conj(Jm))) <= 2e-12 * scale, name

    @pytest.mark.parametrize("kappa", [1.05, 1.5, 4.0, 9.0, 50.0])
    @pytest.mark.parametrize("epsilon", [5e-4, 1e-3, 2e-3])
    def test_contour_stores_upper_half(self, kappa, epsilon):
        # all of cut_upper, the small circle's first and the big circle's last
        # n // 2 samples, each bit for bit as on the whole boundary, since
        # hypergeometric_J is elementwise; min |J1| as over all four pieces
        p = make_params(kappa)
        ct, ref = keyhole_contour(p, epsilon), keyhole_reference(p, epsilon)
        n_small, n_big = ref["small_circle"][0].size, ref["big_circle"][0].size
        half = {"cut_upper": slice(None), "small_circle": slice(None, n_small // 2),
                "big_circle": slice(n_big // 2, None)}
        assert list(ct.samples) == list(half)
        for name, part in half.items():
            s, J = ct.samples[name]
            assert np.array_equal(s, ref[name][0][part]), name
            assert np.array_equal(J, ref[name][1][:, part]), name
        assert ct.s.size == 9509 and np.all(ct.s.imag >= 0)
        assert ct.min_abs_J1 == min(float(np.min(np.abs(J[0]))) for _, J in ref.values())


class TestCachedTerms:
    """The keyhole's cached terms (columns s^k, rho = J2 / J1, the upper
    edge's ratio) move only the last bits of F, never a count; the wrap without the
    float % and the grid memo of the J table and the L2 frame change no bit."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    @pytest.mark.parametrize("epsilon", [5e-4, 1e-3, 2e-3])
    def test_winding_equals_per_element_loop(self, kappa, epsilon):
        # P + Q rho from cached columns of s^k rounds differently from Horner
        # and (P J1 + Q J2) / J1, and the lower half's increments come by
        # reflection where the per-element loop reads the whole boundary, so
        # the float fields move in the last bits: both routes are held to a
        # long-double reference instead
        p = make_params(kappa)
        rng = np.random.default_rng(np.random.SeedSequence([int(kappa * 10), int(epsilon * 1e4)]))
        for t in range(23):  # 207 pairs over the nine cases
            pair = random_poly_pair(t % 5, rng)
            got, want = winding_count(pair, p, epsilon), _winding_count_per_element(pair, p, epsilon)
            for field in ("winding", "bound_ok", "n", "epsilon", "min_abs_J1"):
                assert getattr(got, field) == getattr(want, field), (t, pair, field)
            assert [g["name"] for g in got.segments] == [w["name"] for w in want.segments]
            ref = _arg_increments_longdouble(pair, p, epsilon)
            for report in (got, want):
                for seg, r in zip(report.segments, ref, strict=True):
                    assert abs(seg["arg_increment"] - float(r)) <= 1e-12, (t, pair, seg["name"])

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_winding_counts_equal_per_element_loop(self, kappa):
        p = make_params(kappa)
        rng = np.random.default_rng(np.random.SeedSequence([int(kappa * 10), 18]))
        for t in range(700):  # 2,100 pairs over the three kappas
            pair = random_poly_pair(1 + t % 4, rng)
            got, want = winding_count(pair, p), _winding_count_per_element(pair, p, 1e-3)
            assert got.winding == want.winding, (t, pair)

    def test_contour_state_leaks_no_bit(self):
        # the columns s^k grow on demand and the caches empty; a pair's report
        # must not see either
        p = make_params(3.3)
        rng = np.random.default_rng(33)
        pairs = [random_poly_pair(n, rng) for n in (1, 3)]
        clear_caches()
        fresh = [vars(winding_count(pair, p)) for pair in pairs]
        for _ in range(3):
            winding_count(random_poly_pair(4, rng), p)
        assert len(keyhole_contour(p)._powers) == 4
        assert [vars(winding_count(pair, p)) for pair in pairs] == fresh
        clear_caches()
        assert [vars(winding_count(pair, p)) for pair in pairs] == fresh

    @pytest.mark.parametrize("kappa", [1.05, 1.5, 4.0, 9.0, 50.0])
    @pytest.mark.parametrize("epsilon", [5e-4, 1e-3, 2e-3])
    def test_one_pass_equals_per_piece_loop(self, kappa, epsilon):
        # one pass over the half does each piece's elementwise operations and
        # sums each piece's steps as one contiguous run, so every field of the
        # report keeps its bits; P-only pairs (Q = ()) included
        p = make_params(kappa)
        rng = np.random.default_rng(np.random.SeedSequence([int(kappa * 100), int(epsilon * 1e4), 32]))
        for t in range(20):
            pair = random_poly_pair(t % 5, rng)
            for q in (pair, PolyPair(P=pair.P, Q=())):
                assert winding_count(q, p, epsilon) == _winding_count_per_piece(q, p, epsilon), (t, q)

    def test_horner_equals_polyval(self):
        # in-order Horner does polyval's operations, so real and complex
        # samples, the empty Q and the constant P keep their bits
        rng = np.random.default_rng(32)
        x = rng.normal(size=513) * 4.0
        z = x + 1j * rng.normal(size=513)
        for n in range(5):
            pair = random_poly_pair(n, rng)
            for P, Q in ((pair.P, pair.Q), (pair.P, ())):
                pp = PolyPair(P=P, Q=Q)
                for s in (x, z, x[:3], z[:3]):
                    for got, c in ((pp.eval_P(s), P), (pp.eval_Q(s), Q or (0.0,))):
                        want = np.polynomial.polynomial.polyval(s, np.asarray(c))
                        assert got.dtype == want.dtype
                        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (P, Q)

    def test_wrap_equals_float_remainder(self):
        two_pi = 2.0 * np.pi

        def around(c, n=40):
            lo = hi = c
            out = [c]
            for _ in range(n):
                lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
                out += [lo, hi]
            return out

        # steps + pi then runs over -pi, +-0, pi, 2 pi - ulp, 2 pi and 3 pi
        special = [v for c in (-two_pi, -np.pi, 0.0, -0.0, np.pi, two_pi) for v in around(c)]
        angles = np.random.default_rng(5).uniform(-np.pi, np.pi, 200_001)
        steps = np.concatenate([special, np.diff(angles)])
        steps = steps[np.abs(steps) <= two_pi]
        x = steps + np.pi
        for edge in (-np.pi, 0.0, np.pi, np.nextafter(two_pi, 0.0), two_pi, 3.0 * np.pi):
            assert (x == edge).any(), edge
        want = (steps + np.pi) % two_pi - np.pi
        assert np.array_equal(an._wrap(steps).view(np.int64), want.view(np.int64))

    def test_j_memo_keeps_grids_only(self, p4):
        from q4lab.picard_fuchs import hypergeometric_J
        tab = an.JTable(p4)
        xs = an._cheb_grid(tab.lo, tab.hi, 512)
        first = tab.J(xs)
        assert not first.flags.writeable
        assert np.array_equal(first, hypergeometric_J(xs, p4))
        assert tab.J(xs.copy()) is first  # keyed by the bytes, not the layout
        with pytest.raises(ValueError):
            first[0, 0] = 0.0
        stencil = xs[100:103]
        assert np.array_equal(tab.J(stencil), hypergeometric_J(stencil, p4))
        assert tab.J(stencil).flags.writeable and len(tab.J.kept) == 1
        for n in range(64, 70):
            tab.J(an._cheb_grid(tab.lo, tab.hi, n))
        assert len(tab.J.kept) == an._GridMemo.KEEP

    def test_frame_memo_equals_fresh_rows(self, p4):
        window = (p4.center_h + 1e-6, p4.saddle_h - 1e-6)
        hs = an._cheb_grid(*window, 512)
        frame = L2Frame(p4, window)
        rows = frame.frame(hs)
        assert frame.frame(hs) is rows and not rows.flags.writeable
        assert np.array_equal(rows, L2Frame(p4, window).frame(hs.copy()))
        assert frame.frame(hs[:3]).flags.writeable


class TestBoundPipeline:
    def test_zero_weights(self, p4):
        br = bound_pipeline(replace(p4, mu=(0.0, 0.0, 0.0, 0.0)))
        assert (br.count_I, br.count_G, br.count_R) == (0, 0, 0)
        assert br.chain_ok

    def test_reconstruction(self, rng):
        p = make_params(4.0, mu=tuple(rng.normal(size=4)))
        br = bound_pipeline(p)
        assert br.reconstruction_rel_err is not None
        assert br.reconstruction_rel_err <= 1e-6

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_reconstruction_integral_matches_gk(self, kappa, monkeypatch):
        # the check integrates G(xi) / xi^2 from the basis window's edge by one
        # Chebyshev antiderivative; on its span it matches adaptive GK15
        # (conftest's reference) to 1e-14 of the integral
        seen, cheb = [], an._chebyshev_antiderivative
        monkeypatch.setattr(an, "_chebyshev_antiderivative", lambda f, domain, lbnd: seen.append(
            (f, domain, lbnd, cheb(f, domain, lbnd))) or seen[-1][-1])
        br = bound_pipeline(make_params(kappa, mu=(0.7, -0.4, 0.5, 0.3)))
        assert br.reconstruction_rel_err <= 1e-6
        [(f, (lo, top), lbnd, integral)] = seen
        assert lbnd == lo
        for h in (lo + 0.25 * (top - lo), 0.5 * (lo + top), top):
            ref, ref_err, _ = adaptive_gk_reference(
                lambda x: f(x.ravel()).reshape(x.shape), lo, h, 1e-15)
            assert abs(float(integral(h)) - ref) <= 1e-14 * abs(ref), (h, ref_err)

    def test_mini_sweep_no_violations(self):
        reports = sweep_bounds([1.5, 4.0], trials=40, seed=314)
        assert all(r.chain_ok for r in reports)
        assert max(r.count_G for r in reports) <= 8
        assert max(r.count_R for r in reports) <= 6

    def test_scanner_grid_below_64_is_refused(self, p4):
        with pytest.raises(DomainError, match="at least 64 nodes, got 10"):
            BoundScanner(p4, grid=10)
        with pytest.raises(DomainError):
            bound_pipeline(p4, grid=63)

    def test_sweep_deterministic(self):
        a = sweep_bounds([2.0], trials=5, seed=9)
        b = sweep_bounds([2.0], trials=5, seed=9)
        assert [(r.mu, r.count_I, r.count_G, r.count_R) for r in a] == \
               [(r.mu, r.count_I, r.count_G, r.count_R) for r in b]


def frame_rotation_probe(params, window, trials=40, seed=0, grid=512):
    """Executable Chebyshev criterion for L2 on a window: measure the frame
    rotation (a nonvanishing solution exists iff the sweep stays under pi)
    and cross-check by zero counts of random solutions c1 x1 + c2 x2."""
    frame = L2Frame(params, window)
    span = frame.rotation_span()
    exists_nonvanishing = span < math.pi - 1e-9
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = []
    for c in rng.normal(size=(trials, 2)):
        c1, c2 = c / np.linalg.norm(c)

        def sol(h):
            fr = frame.frame(h)
            return c1 * fr[0] + c2 * fr[2]
        counts.append(count_zeros(sol, window, grid=grid).count)
    max_count = max(counts, default=0)
    return {"rotation_span": span, "exists_nonvanishing": exists_nonvanishing,
            "max_solution_zeros": max_count,
            "consistent": (not exists_nonvanishing) or max_count <= 1}


class TestZeroBoundProbes:
    def test_frame_probe_annulus(self, p4):
        window = (p4.center_h + 1e-6, p4.saddle_h - 1e-6)
        out = frame_rotation_probe(p4, window, trials=25, seed=5)
        assert out["exists_nonvanishing"]
        assert out["max_solution_zeros"] <= 1
        assert out["consistent"]

    def test_rotation_matches_probe(self, p4):
        window = (p4.center_h + 1e-6, p4.saddle_h - 1e-6)
        span = L2Frame(p4, window).rotation_span()
        assert span < math.pi

    def test_inhomogeneous_k_plus_2(self, p4):
        window = (p4.center_h + 1e-6, p4.saddle_h - 1e-6)
        out = inhomogeneous_bound_sample(p4, window, trials=25, seed=17)
        assert out["chebyshev_premise"]
        assert not out["violations"]
        assert out["max_excess"] <= 2

    def test_frame_window_validation(self, p4):
        with pytest.raises(DomainError):
            L2Frame(p4, (p4.saddle_h + 0.01, p4.saddle_h + 0.1))


def _l2_frame_by_ode(params, window, hs):
    """The L2 frame by DOP853 integration from the window midpoint: the
    independent route for L2Frame's closed form."""
    k = params.kappa

    def rhs(h, y):
        x1, d1, x2, d2 = y
        a2 = h * (9.0 * k * h * h - 4.0)
        a1 = -(9.0 * k * h * h - 8.0)
        a0 = 5.0 * k * h
        return [d1, -(a1 * d1 + a0 * x1) / a2, d2, -(a1 * d2 + a0 * x2) / a2]

    mid = 0.5 * (window[0] + window[1])
    kw = dict(method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True)
    out = np.empty((4, hs.size))
    for end, part in ((window[0], hs <= mid), (window[1], hs > mid)):
        sol = solve_ivp(rhs, (mid, end), [1.0, 0.0, 0.0, 1.0], **kw)
        assert sol.success
        out[:, part] = sol.sol(hs[part])
    return out


def _variation_by_ode(params, window, R, c):
    """G solving L2(G) = R with (G, G')(mid) = c, by DOP853 integration of
    the frame and the two variation integrals from the window midpoint, with
    the Wronskian of the integrated frame: the independent route for the
    closed-form variation of parameters."""
    k = params.kappa

    def rhs(h, y):
        x1, d1, x2, d2, q1, q2 = y
        a2 = h * (9.0 * k * h * h - 4.0)
        a1 = -(9.0 * k * h * h - 8.0)
        a0 = 5.0 * k * h
        rr = R(h) / (a2 * (x1 * d2 - d1 * x2))
        return [d1, -(a1 * d1 + a0 * x1) / a2, d2, -(a1 * d2 + a0 * x2) / a2, x2 * rr, x1 * rr]

    mid = 0.5 * (window[0] + window[1])
    kw = dict(method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True)
    left, right = (solve_ivp(rhs, (mid, end), [1.0, 0.0, 0.0, 1.0, 0.0, 0.0], **kw)
                   for end in window)
    assert left.success and right.success

    def G(h):
        h = np.atleast_1d(h)
        x1, _, x2, _, q1, q2 = np.where(h <= mid, left.sol(h), right.sol(h))
        return x1 * (c[0] - q1) + x2 * (c[1] + q2)
    return G


def _sample_draws(trials, seed):
    """inhomogeneous_bound_sample's right-hand side R and (G, G')(mid) per
    trial, drawn in its order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    for _ in range(trials):
        yield np.polynomial.Polynomial(rng.normal(size=an.RHS_DEGREE + 1)), rng.normal(size=2)


def _rotation_span(frame):
    theta = np.unwrap(np.arctan2(frame[2], frame[0]))
    return float(theta.max() - theta.min())


class TestClosedForms:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_J_matches_quadrature_oracle(self, kappa):
        p = make_params(kappa)
        tab = j_table(p)
        for s in (math.sqrt(kappa), 1.0 + 0.1 * (kappa - 1.0), kappa - 0.1 * (kappa - 1.0)):
            oracle = initial_jstate(s, p).J.real
            closed = tab.J(s)[:, 0]
            assert np.max(np.abs(closed - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("kappa", [1.5, 9.0])
    def test_keyhole_samples_match_continuation(self, kappa):
        # on the whole boundary; the contour stores its upper half bit for bit
        # (TestReflection::test_contour_stores_upper_half)
        p = make_params(kappa)
        ref = keyhole_reference(p)
        samples, _, _ = keyhole_by_continuation(p)
        assert list(samples) == list(ref)
        for name, (s, J) in samples.items():
            s_cf, J_cf = ref[name]
            assert np.array_equal(s_cf, s)
            rel = np.max(np.abs(J_cf - J), axis=0) / np.max(np.abs(J), axis=0)
            assert rel.max() <= 1e-10, name

    @pytest.mark.parametrize("kappa", [1.5, 2.0, 4.0, 9.0])
    def test_l2_frame_matches_ode(self, kappa):
        p = make_params(kappa)
        hs_level = p.saddle_h
        for window in ((p.center_h + 1e-6, hs_level - 1e-6),
                       (residue_zero_level(p) - 1.0, hs_level - 1e-6 * abs(hs_level))):
            hs = np.linspace(window[0], window[1], 4096)
            fr = L2Frame(p, window)
            closed, ode = fr.frame(hs), _l2_frame_by_ode(p, window, hs)
            assert np.max(np.abs(closed[[0, 2]] - ode[[0, 2]])) <= 1e-10
            for row in (1, 3):
                scale = np.max(np.abs(ode[row]))
                assert np.max(np.abs(closed[row] - ode[row])) <= 1e-8 * scale
            assert fr.rotation_span() == pytest.approx(_rotation_span(ode), abs=1e-10)

    def test_l2_frame_probe_annulus_window(self):
        # the window chebyshev_probe measures, 1e-9 from both critical levels
        p = make_params(9.0)
        window = (p.center_h + 1e-9, p.saddle_h - 1e-9)
        hs = np.linspace(window[0], window[1], 4096)
        fr = L2Frame(p, window)
        closed, ode = fr.frame(hs), _l2_frame_by_ode(p, window, hs)
        assert np.max(np.abs(closed[[0, 2]] - ode[[0, 2]])) <= 1e-10
        assert fr.rotation_span() == pytest.approx(_rotation_span(ode), abs=1e-10)

    def test_production_paths_integrate_no_ode(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("ODE integration on a closed-form path")

        monkeypatch.setattr(an, "solve_ivp", refuse)
        monkeypatch.setattr(an, "continue_state", refuse)
        clear_caches()
        p = make_params(3.3)
        window = (p.center_h + 1e-6, p.saddle_h - 1e-6)
        chebyshev_probe(p, grid=64)
        vn_sample_test(1, 2, p, seed=0, grid=64)
        inhomogeneous_bound_sample(p, window, trials=2, grid=64)
        frame_rotation_probe(p, window, trials=2, grid=64)

    def test_bound_path_solves_no_ode(self, monkeypatch, tmp_path):
        import q4lab.melnikov as mk
        import q4lab.picard_fuchs as pf
        from q4lab.cli import RunConfig, run

        def refuse(*args, **kwargs):
            raise AssertionError("ODE integration on the bound path")

        monkeypatch.setattr(pf, "solve_ivp", refuse)
        monkeypatch.setattr(an, "solve_ivp", refuse)
        clear_caches()
        p = make_params(3.3, mu=(0.4, -0.2, 0.7, 0.5))
        assert bound_pipeline(p).reconstruction_rel_err <= 1e-6
        an.sweep_kappa(2.2, np.random.SeedSequence(1), 3)
        assert run("zeros", RunConfig(kappa_list=[5.0], mu_mode="random_sphere", trials=2,
                                      output_dir=str(tmp_path))) == 0
        mk.eval_G(-0.5, p)
        mk.eval_R(-0.5, p, "direct")
        assert mk._propagation.cache_info().misses == 0  # no PFPropagation requested


class TestVariationOfParameters:
    """The closed-form variation of parameters of inhomogeneous_bound_sample
    (c09) against DOP853, on c09's window."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_rows_and_G_match_ode(self, kappa):
        p = make_params(kappa)
        window = (p.center_h + 1e-6, p.saddle_h - 1e-6)
        frame, hs = L2Frame(p, window), an._cheb_grid(*window, 512)
        want = []
        for R, c in _sample_draws(20, seed=909):
            ode = _variation_by_ode(p, window, R, c)
            G = ode(hs)
            assert np.max(np.abs(an._variation_solution(frame, R, c)(hs) - G)) \
                <= 1e-12 * np.max(np.abs(G))
            want.append((count_zeros(R, window, grid=512).count,
                         count_zeros(ode, window, grid=512).count))
        out = inhomogeneous_bound_sample(p, window, trials=20, seed=909)
        assert [(r["k"], r["count_G"]) for r in out["rows"]] == want

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_abel_wronskian(self, kappa):
        p = make_params(kappa)
        window = (p.center_h + 1e-6, p.saddle_h - 1e-6)
        frame = L2Frame(p, window)
        hs = np.linspace(*window, 4096)
        x1, d1, x2, d2 = frame.frame(hs)
        abel = frame.abel * hs**2 / np.sqrt(9.0 * kappa * hs**2 - 4.0)
        assert np.max(np.abs(abel / (x1 * d2 - d1 * x2) - 1.0)) <= 1e-10

    def test_unresolved_tail_raises(self, monkeypatch):
        # at kappa = 100 the variation integrals need degree 128
        p = make_params(100.0)
        window = (p.center_h + 1e-6, p.saddle_h - 1e-6)
        monkeypatch.setattr(an, "VOP_MAX_DEGREE", 64)
        with pytest.raises(ConvergenceError, match="tail above 1e-13 at degree 64"):
            inhomogeneous_bound_sample(p, window, trials=1, grid=64)
        monkeypatch.setattr(an, "VOP_MAX_DEGREE", 128)
        assert len(inhomogeneous_bound_sample(p, window, trials=1, grid=64)["rows"]) == 1


def _mp_R_rows(h, kappa, rc):
    """The R template of each unit weight at the double level h, 40 digits."""
    import mpmath as mp

    with mp.workdps(40):
        k, h = mp.mpf(kappa), mp.mpf(h)
        z = (k - mp.mpf(9) / 4 * k * h * h) / (k - 1)
        c = mp.pi / mp.sqrt(k - 1)
        J1 = c * mp.hyp2f1(mp.mpf(1) / 6, mp.mpf(5) / 6, 1, z)
        J2 = (1 - z) * J1 + mp.mpf(5) / 6 * c * z * mp.hyp2f1(mp.mpf(5) / 6, mp.mpf(1) / 6, 2, z)
        h2, out = h * h, []
        for m in range(4):
            a = [mp.mpf(row[m].numerator) / row[m].denominator for row in rc.a]
            b = [mp.mpf(row[m].numerator) / row[m].denominator for row in rc.b]
            num = h * ((a[0] + a[1] * h2 + a[2] * h2**2 + a[3] * h2**3) * J1
                       + (b[0] + b[1] * h2 + b[2] * h2**2) * J2)
            out.append(float(num / ((9 * h2 - 4) ** 2 * (9 * k * h2 - 4))))
        return np.array(out)


class TestCenterExpansion:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_R_rows_match_40_digits(self, kappa):
        # the template's (9h^2 - 4)^2 makes its numerator cancel next to the
        # center; the DOP853 route read 10-22% off at the first grid node
        sc = an.bound_scanner(make_params(kappa), 512)
        for nodes, bound in ((range(0, 40), 1e-14), (range(40, 472, 7), 1e-11),
                             (range(472, 512), 1e-8)):
            nodes = list(nodes)
            want = np.array([_mp_R_rows(sc.hs[i], kappa, sc.rc) for i in nodes]).T
            rel = np.abs(sc.basis["R"][:, nodes] - want) / np.abs(want)
            assert rel.max() <= bound, (nodes[0], rel.max())

    def test_spurious_R_zero_next_to_center_is_gone(self):
        # the nine trials of the pinned sweep whose count_R moved from 1 to 0:
        # 40-digit R keeps one sign over the first grid nodes, where the DOP853
        # route placed a zero
        from q4lab.cli import RunConfig, _mu_draws

        cfg = RunConfig(kappa_list=[1.5, 4.0, 9.0], mu_mode="random_sphere", trials=100,
                        seed=7)
        moved = {1.5: (1, 5, 6, 49, 67), 4.0: (40, 59), 9.0: (68, 87)}
        for ki, kappa in enumerate(cfg.kappa_list):
            draws = _mu_draws(cfg, ki)
            sc = an.bound_scanner(make_params(kappa), 512)
            for t in moved[kappa]:
                muG = an.mu_G_from_eq211(np.asarray(draws[t]), kappa)
                exact = [muG @ _mp_R_rows(h, kappa, sc.rc) for h in sc.hs[:4]]
                assert len(set(np.sign(exact))) == 1
                assert np.all(np.sign(muG @ sc.basis["R"][:, :4]) == np.sign(exact))
                assert bound_pipeline(make_params(kappa, mu=draws[t])).count_R == 0


class _OdeRouteScanner(BoundScanner):
    """BoundScanner on the DOP853 route: I from the propagated values, G and
    R from the propagated derivatives (a batched 6x6 solve per level), R
    through the same ``unit_rows`` as the scanner.  Every tangency fit runs:
    the scanner's skip is proven for the series rows, not for these."""

    def __init__(self, params):
        self.ode = get_propagation(params)
        super().__init__(params)
        self.reach = {w: np.full_like(r, np.nan) for w, r in self.reach.items()}

    def _basis(self, which, h):
        k = self.params.kappa
        if which == "I":
            V = self.ode.values(h)
            return np.stack([h * V[0], V[1], V[2], 2.0 * V[4] + 3.0 * k * h * V[5]])
        D = self.ode.derivs(h)
        if which == "G":
            return np.stack([h * h * D[0], D[3], D[0],
                             -4.0 * h * D[4] + (3.0 * k * h * h - 4.0) * D[5]])
        return self.rc.unit_rows(h, D[0], D[3])


def _pipeline_summary(br):
    rec = br.reconstruction_rel_err
    out = [br.count_I, br.count_G, br.count_R, br.violations, rec is None]
    for which in "IGR":
        rep = br.reports[which]
        out.append([z["multiplicity_estimate"] for z in rep.zeros])
        out.append(rep.warnings)
    return out


class TestScannerBatching:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_pipeline_matches_pointwise_route(self, kappa, monkeypatch):
        p = make_params(kappa)
        fast = an.bound_scanner(p, 512)
        # a level's rows do not depend on the other levels in the call
        for which in "IGR":
            per_level = np.stack([fast._basis(which, fast.hs[i:i + 1])[:, 0]
                                  for i in range(fast.hs.size)], axis=1)
            assert np.array_equal(fast.basis[which], per_level)
        # against the DOP853 route: the same counts, violations and warnings,
        # and zeros within two bracket tolerances of each other
        oracle = _OdeRouteScanner(p)
        xtol = 1e-9 * (fast.window[1] - fast.window[0])
        weights = unit_sphere_weights(np.random.SeedSequence(int(10 * kappa)), 40)
        for t, mu in enumerate(weights):
            q = replace(p, mu=tuple(mu))
            check = t % 10 == 0
            got = bound_pipeline(q, check_reconstruction=check)
            with monkeypatch.context() as m:
                m.setattr(an, "bound_scanner", lambda params, grid: oracle)
                want = bound_pipeline(q, check_reconstruction=check)
            assert _pipeline_summary(got) == _pipeline_summary(want), t
            for which in "IGR":
                a, b = got.reports[which].locations, want.reports[which].locations
                assert np.max(np.abs(np.subtract(a, b)), initial=0.0) <= 2 * xtol, (t, which)
            if check:
                assert got.reconstruction_rel_err <= 1e-6
                assert want.reconstruction_rel_err <= 1e-6

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_stacked_derivs_equal_pointwise_solves(self, kappa):
        p = make_params(kappa)
        hs = an.bound_scanner(p, 512).hs
        prop = get_propagation(p)
        V = prop.values(hs)
        pointwise = np.stack([pf_derivatives(float(h), V[:, i], p)
                              for i, h in enumerate(hs)], axis=1)
        assert np.array_equal(prop.derivs(hs), pointwise)

    def test_stacked_derivs_refuse_singular_level(self):
        p = make_params(4.0)
        h_bad = p.center_h
        assert np.linalg.cond(pf_matrix(h_bad, p)) > 1e12
        prop = copy.copy(get_propagation(p))
        prop.lo = h_bad - 0.01  # let values() reach the singular level
        with pytest.raises(SingularityError, match=re.escape(f"h={h_bad}:")):
            prop.derivs(np.array([-0.5, h_bad, -0.45]))

    def test_scan_evaluates_no_level_twice(self, monkeypatch):
        # the bracket ends are memoised, so no level is evaluated twice and
        # a bracket costs one pointwise call per evaluation brentq makes
        p = make_params(4.0)
        sc = an.bound_scanner(p, 512)
        brentq_calls = []

        def counted_brentq(f, a, b, **kw):
            root, res = brentq(f, a, b, full_output=True, **kw)
            brentq_calls.append(res.function_calls)
            return root

        monkeypatch.setattr(an, "brentq", counted_brentq)
        for mu in unit_sphere_weights(np.random.SeedSequence(7), 30):
            muG = an.mu_G_from_eq211(mu, p.kappa)
            for which, w in (("I", mu), ("G", muG), ("R", muG)):
                calls = []

                def fvec(h):
                    calls.append(np.atleast_1d(np.asarray(h, dtype=float)))
                    return w @ sc._basis(which, calls[-1])

                fs = w @ sc.basis[which]
                del brentq_calls[:]
                rep, = an._count_from_scan(sc.hs, fs[None], lambda r: fvec, sc.window)
                # the count evaluates f at single points only when the zeros
                # are read
                assert not any(c.size == 1 for c in calls) and not brentq_calls
                rep.zeros
                seen = np.concatenate(calls).tolist() if calls else []
                assert len(seen) == len(set(seen))
                pointwise = sum(c.size == 1 for c in calls)
                unbracketed = int(np.sum(fs[:-1] * fs[1:] < 0)) - len(brentq_calls)
                assert pointwise == sum(brentq_calls) + 2 * unbracketed

    def test_sweep_counts_locate_no_root(self, monkeypatch):
        # a count comes from the brackets; brentq runs when the zeros are read
        kappas, seq = (1.5, 4.0, 9.0), np.random.SeedSequence(11)
        counts = lambda reps: [(br.count_I, br.count_G, br.count_R) for br in reps]
        want = {k: counts(an.sweep_kappa(k, seq, 50)) for k in kappas}

        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        monkeypatch.setattr(an, "brentq", refuse)
        for k in kappas:
            got = an.sweep_kappa(k, seq, 50)
            assert counts(got) == want[k]
        rep = next(r for br in got for r in br.reports.values() if r.count)
        with pytest.raises(Refused):
            rep.zeros

    def test_located_zeros_match_the_count(self):
        # reading the zeros finds what was counted: the multiplicities add up
        # to the count, each sign change's zero lies in its bracket, and a
        # second read returns the same list
        def check(rep, xs, fs):
            zeros = rep.zeros
            assert rep.count == sum(z["multiplicity_estimate"] for z in zeros)
            simple = [z["location"] for z in zeros if z["multiplicity_estimate"] == 1]
            for x in xs[fs == 0.0]:
                simple.remove(x)
            brackets = np.nonzero(fs[:-1] * fs[1:] < 0)[0]
            assert len(simple) == brackets.size
            for loc, i in zip(sorted(simple), brackets):
                assert xs[i] <= loc <= xs[i + 1]
            assert rep.zeros == zeros and rep.locations == [z["location"] for z in zeros]

        for ki, kappa in enumerate((1.5, 4.0, 9.0)):
            p = make_params(kappa)
            sc = an.bound_scanner(p, 512)
            for mu in unit_sphere_weights(np.random.SeedSequence(20 + ki), 200):
                muG = an.mu_G_from_eq211(mu, kappa)
                for which, w in (("I", mu), ("G", muG), ("R", muG)):
                    check(sc.count(which, w), sc.hs, w @ sc.basis[which])
            tab = j_table(p)
            xs = an._cheb_grid(tab.lo, tab.hi, 512)
            rng = np.random.default_rng(ki)
            for t in range(40):
                pair = random_poly_pair(1 + t % 4, rng)

                def V(s):
                    J = tab.J(s)
                    return pair.eval_P(s).real * J[0] + pair.eval_Q(s).real * J[1]

                check(count_zeros(V, (tab.lo, tab.hi), grid=512), xs, V(xs))

    def test_unit_sphere_weights_match_per_draw_formula(self):
        # 120,000 draws: the batched norm must keep the bits of the per-draw
        # norm, its four squares summed in order
        seeds = (np.random.SeedSequence(3), np.random.SeedSequence(42).spawn(4)[2],
                 np.random.SeedSequence(7), np.random.SeedSequence(2024))
        for seed_seq in seeds:
            rng = np.random.default_rng(seed_seq)
            per_draw = []
            for _ in range(30_000):
                mu = rng.normal(size=4)
                per_draw.append(mu / math.sqrt(((mu[0] * mu[0] + mu[1] * mu[1])
                                                + mu[2] * mu[2]) + mu[3] * mu[3]))
            assert (unit_sphere_weights(seed_seq, 30_000) == np.array(per_draw)).all()
        assert unit_sphere_weights(np.random.SeedSequence(3), 0).shape == (0, 4)


def _chain_summary(br):
    """A bound report as ``frozen_scan.bound_chain`` gives it."""
    out = [br.mu, br.count_I, br.count_G, br.count_R, br.violations]
    for which in "IGR":
        out += [br.reports[which].zeros, br.reports[which].warnings]
    return tuple(out)


class TestBatchedScan:
    """The batched scan (one ``_count_from_scan`` over the rows of a trial,
    or of a chunk of trials) against the frozen per-function scan."""

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_pipeline_and_sweep_equal_per_function_scan(self, kappa, monkeypatch):
        # 2,000 trials; the sweep's reports are read after it returns, so each
        # must locate its own trial's zeros.  Every trial's zeros are compared
        # for bound_pipeline and chunks of 256 and T, every tenth for smaller
        # chunks (1, 7 and SWEEP_CHUNK); the counts and violations of every
        # trial for all of them
        trials, seq, p = 2000, np.random.SeedSequence(int(100 * kappa) + 1), make_params(kappa)
        sc = an.bound_scanner(p, 512)
        weights = unit_sphere_weights(seq, trials)
        want = [frozen_scan.bound_chain(sc, mu) for mu in weights]
        got = [bound_pipeline(replace(p, mu=tuple(mu)), check_reconstruction=False)
               for mu in weights]
        assert [_chain_summary(br) for br in got] == want
        for chunk in sorted({1, 7, an.SWEEP_CHUNK, 256, trials}):
            monkeypatch.setattr(an, "SWEEP_CHUNK", chunk)
            got = an.sweep_kappa(kappa, seq, trials)
            step = 10 if chunk < 256 else 1
            assert [(br.mu, br.count_I, br.count_G, br.count_R, br.violations) for br in got] \
                == [w[:5] for w in want], chunk
            assert [_chain_summary(br) for br in got[::step]] == want[::step], chunk

    def test_scan_rows_are_per_row_matvecs(self, monkeypatch):
        # each row of a chunk is its own per-row mu @ basis, bit for bit
        kappa = 4.0
        sc = an.bound_scanner(make_params(kappa), 512)
        rows, real = [], an._count_from_scan
        monkeypatch.setattr(an, "_count_from_scan",
                            lambda xs, fs, *a, **kw: rows.append(fs) or real(xs, fs, *a, **kw))
        seq, chunk = np.random.SeedSequence(77), an.SWEEP_CHUNK
        an.sweep_kappa(kappa, seq, 300)
        assert [len(fs) for fs in rows] == [3 * min(chunk, 300 - i) for i in range(0, 300, chunk)]
        for t, mu in enumerate(unit_sphere_weights(seq, 300)):
            muG = an.mu_G_from_eq211(mu, kappa)
            fs = rows[t // chunk][3 * (t % chunk):3 * (t % chunk) + 3]
            assert np.array_equal(fs, np.stack([mu @ sc.basis["I"], muG @ sc.basis["G"],
                                                muG @ sc.basis["R"]])), t


def _poly_row(roots, c=1.0, e=0.0):
    """x -> c prod (x - roots) + e, vectorised: exactly zero at a root that is
    a node when e = 0."""
    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.full(x.shape, c)
        for r in roots:
            out = out * (x - r)
        return out + e
    return f


def _special_rows(xs):
    """Rows on the grid xs = _cheb_grid(-1, 1, N) that exercise each rule of
    the count: the cases of TestLeanCount."""
    a = 0.5 * (xs[30] + xs[31])
    return [
        _poly_row([xs[10], 0.2, 0.55]),       # an exact zero inside the row
        _poly_row([xs[0], -0.1, xs[-1]]),     # exact zeros at both of its ends
        _poly_row([2.0]),                     # negative to its end, then
        _poly_row([-2.0]),                    # positive from its start: across the boundary
        _poly_row([0.3], 0.0),                # identically zero
        _poly_row([0.3], 1e-170),             # every neighbour product underflows, to -0.0 at 0.3
        _poly_row([0.3, -0.6], 1e-160),       # some products subnormal, some underflowed
        _poly_row([a, a]),                    # a double zero between nodes: a tangency
        _poly_row([a, a], 1.0, 1e-6),         # a near miss: the fit runs and finds none
        _poly_row([xs[20], xs[20]], -1.0),    # a double zero at a node
        _poly_row([xs[40], xs[41]]),          # zeros at two neighbouring nodes
        _poly_row([], -1.0),                  # constant: every interior node a minimum
    ]


def _random_rows(xs, n, rng):
    rows = []
    for _ in range(n):
        roots = list(rng.uniform(-1.0, 1.0, rng.integers(0, 5)))
        if rng.random() < 0.3:
            roots.append(xs[rng.integers(0, xs.size)])
        rows.append(_poly_row(roots, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)))
    return rows


class TestLeanCount:
    """``_count_from_scan`` on many rows at once against the frozen
    per-function scan, row by row, and the scanner's bound chains and
    double zeros against the frozen scan's."""

    N = 64

    def _check(self, xs, rows, reach=None):
        fs = np.stack([f(xs) for f in rows])
        lean = an._count_from_scan(xs, fs, lambda r: rows[r], (-1.0, 1.0),
                                   None if reach is None else lambda r, i: reach[r][i])
        assert len(lean) == len(rows)
        for r, rep in enumerate(lean):
            want = frozen_scan.count_from_scan(xs, fs[r], rows[r], (-1.0, 1.0), 1e-9,
                                               None if reach is None else reach[r])
            assert (rep.count, rep.zeros, rep.warnings) == want, r
            assert rep.identically_zero == (not fs[r].any())

    def test_special_rows_equal_the_frozen_scan(self):
        xs = an._cheb_grid(-1.0, 1.0, self.N)
        rows = _special_rows(xs)
        fs = np.stack([f(xs) for f in rows])
        # the cases are there: zeros at row ends, a negative product across a
        # row boundary, one that underflowed to -0.0 inside a row
        assert fs[1, 0] == 0.0 and fs[1, -1] == 0.0
        assert fs[2, -1] * fs[3, 0] < 0.0
        prods = fs[5, :-1] * fs[5, 1:]
        assert np.all(prods == 0.0) and np.any(np.signbit(prods)) and np.any(fs[5] < 0.0)
        self._check(xs, rows)
        # each alone, as count_zeros scans one row
        for f in rows:
            self._check(xs, [f])
            rep = count_zeros(f, (-1.0, 1.0), grid=self.N)
            assert (rep.count, rep.zeros, rep.warnings) == frozen_scan.count_from_scan(
                xs, f(xs), f, (-1.0, 1.0), 1e-9)

    def test_a_chunk_of_rows_equals_the_frozen_scan(self):
        # 192 rows, as a SWEEP_CHUNK of three functions scans, the special
        # rows among random polynomials; then with a reach, NaN and inf in it
        xs = an._cheb_grid(-1.0, 1.0, self.N)
        rng = np.random.default_rng(34)
        rows = _random_rows(xs, 192 - 2 * len(_special_rows(xs)), rng)
        for k, f in enumerate(_special_rows(xs) * 2):
            rows.insert(int(rng.integers(0, len(rows) + 1)) if k % 2 else 7 * k, f)
        assert len(rows) == 3 * an.SWEEP_CHUNK
        self._check(xs, rows)
        reach = rng.uniform(0.0, 2.0, (len(rows), self.N)) * np.stack(
            [np.abs(f(xs)).max() for f in rows])[:, None]
        reach[rng.random(reach.shape) < 0.05] = np.nan
        reach[rng.random(reach.shape) < 0.05] = np.inf
        self._check(xs, rows, reach)

    def test_non_finite_rows_and_weights_keep_their_messages(self, p4):
        sc = an.bound_scanner(p4, 512)
        w = unit_sphere_weights(np.random.SeedSequence(3), 10)
        wG = an.mu_G_from_eq211(w.T, p4.kappa).T
        weights = np.stack((w, wG, wG), axis=1)
        bad = weights.copy()
        bad[6, 1, 2] = np.nan
        with pytest.raises(DomainError, match=re.escape(
                f"weights must be four finite numbers, got {bad[6, 1]}")):
            sc.scan(bad)
        huge = weights.copy()
        huge[4, 2] = 1e308  # finite weights of R whose row overflows
        with np.errstate(over="ignore"), pytest.raises(
                DomainError, match="^R evaluated non-finite on the scan grid$"):
            sc.scan(huge)
        xs = an._cheb_grid(-1.0, 1.0, self.N)
        fs = np.stack([xs, xs, xs])
        fs[1, 7] = np.inf
        with pytest.raises(DomainError, match="^G evaluated non-finite on the scan grid$"):
            an._count_from_scan(xs, fs, lambda r: None, (-1.0, 1.0), names="IGR")

    def test_bound_chains_with_fits_equal_the_frozen_scan(self, monkeypatch):
        # 500 single-trial bound chains at kappa 4, some of them with
        # tangency fits, each equal to the frozen scan's
        p = make_params(4.0)
        sc = BoundScanner(p, 512)
        fits, tangency = [], an._tangency

        def counted_tangency(*args, **kwargs):
            fits.append(args[1])
            return tangency(*args, **kwargs)

        monkeypatch.setattr(an, "_tangency", counted_tangency)
        monkeypatch.setattr(an, "bound_scanner", lambda params, grid: sc)
        weights = unit_sphere_weights(np.random.SeedSequence(34), 500)
        got = [bound_pipeline(replace(p, mu=tuple(mu)), check_reconstruction=False)
               for mu in weights]
        assert fits
        monkeypatch.undo()
        assert [_chain_summary(br) for br in got] == [frozen_scan.bound_chain(sc, mu)
                                                      for mu in weights]

    @pytest.mark.parametrize("kappa", [1.5, 9.0])
    def test_double_zeros_at_the_same_nodes_equal_the_frozen_scan(self, kappa):
        # double zeros of I, G and R at the same mid-cell levels, scanned in
        # one call: each function's fit there finds its own, and each count
        # and zero is the frozen scan's
        sc = BoundScanner(make_params(kappa), 512)
        nodes, mus = (60, 256, 505), []
        for i in nodes:
            P = an._point_rows(sc, np.array([0.5 * (sc.hs[i] + sc.hs[i + 1])]))
            mus.append([np.linalg.svd(np.stack([P[w].f[0][:, 0], P[w].f[1][:, 0]]))[2][-1]
                        for w in "IGR"])
        reps = sc.scan(np.array(mus))
        for t, i in enumerate(nodes):
            for j, w in enumerate("IGR"):
                rep = reps[3 * t + j]
                want = frozen_scan.count(sc, w, np.array(mus[t][j]))
                assert (rep.count, rep.zeros, rep.warnings) == want, (i, w)
                assert any(z["multiplicity_estimate"] == 2 and sc.hs[i - 1] <= z["location"]
                           <= sc.hs[i + 2] for z in rep.zeros), (i, w, rep.zeros)


def _fit_cells(xs, window):
    """(lo, hi) of W_i for the interior nodes: [x_i - s, x_i + s] with
    [x_{i-1} - s/8, x_{i+1} + s/8], s = (x_{i+1} - x_{i-1}) / 2, clipped to the
    window: every level a tangency fit at x_i evaluates."""
    x, s = xs[1:-1], 0.5 * (xs[2:] - xs[:-2])
    lo = np.maximum(window[0], np.minimum(x - s, xs[:-2] - s / 8))
    hi = np.minimum(window[1], np.maximum(x + s, xs[2:] + s / 8))
    return lo, hi


def _fit_bound(fs):
    scale = np.max(np.abs(fs))
    return max(1e-9 * scale, 64 * np.finfo(float).eps * scale)


class TestVariationBound:
    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_bound_holds_on_every_cell(self, kappa):
        # every row, every interior node: 33 levels across W_i, 257 in the
        # eight cells by each window end (the last ones by the saddle)
        sc = an.bound_scanner(make_params(kappa), 512)
        lo, hi = _fit_cells(sc.hs, sc.window)
        n = lo.size
        for which in "IGR":
            var = sc.var[which][:, 1:-1]
            assert np.all(np.isfinite(var)) and np.all(var > 0)
            assert np.all(np.isnan(sc.var[which][:, [0, -1]]))
            for cells, m in ((np.arange(n), 33), (np.r_[0:8, n - 8:n], 257)):
                q = np.linspace(0.0, 1.0, m)
                pts = lo[cells, None] + (hi - lo)[cells, None] * q
                rows = sc._basis(which, pts.ravel()).reshape(4, cells.size, m)
                moved = np.abs(rows - sc.basis[which][:, cells + 1, None]).max(axis=-1)
                assert np.all(moved <= var[:, cells]), (which, np.max(moved / var[:, cells]))
                assert np.all(np.abs(rows).max(axis=-1) <= sc.mag[which][:, cells + 1])

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_skip_counts_equal_every_fit_run(self, kappa, monkeypatch):
        # the skip only leaves out fits that return None: counts and zeros
        # equal those of the scanner with every fit run, on 600 trials
        sc = an.bound_scanner(make_params(kappa), 512)
        every_fit = copy.copy(sc)
        every_fit.reach = {w: np.full_like(r, np.inf) for w, r in sc.reach.items()}
        fits, real = [], an._tangency

        def counted(*args, **kwargs):
            fits[-1] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(an, "_tangency", counted)
        skipped = total = 0
        for mu in unit_sphere_weights(np.random.SeedSequence(int(100 * kappa)), 600):
            muG = an.mu_G_from_eq211(mu, kappa)
            for which, w in (("I", mu), ("G", muG), ("R", muG)):
                fits.append(0)
                got = sc.count(which, w)
                fits.append(0)
                want = every_fit.count(which, w)
                assert got.count == want.count, (which, mu)
                assert got.zeros == want.zeros
                total += fits[-1]
                skipped += fits[-1] - fits[-2]
        assert total > 100
        assert skipped >= 0.9 * total, (skipped, total)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    @pytest.mark.parametrize("which", ["G", "R"])
    def test_skip_never_fires_by_a_double_zero(self, kappa, which):
        # mu in the null space of [row(a); row'(a)] puts a double zero of
        # mu @ rows at a, mid-cell; the fits next to it must run.  Today's fit
        # counts it twice, alone and in one batched scan of all six
        sc = an.bound_scanner(make_params(kappa), 512)
        nodes, mus = (3, 60, 200, 256, 400, 505), []
        for i in nodes:
            a = 0.5 * (sc.hs[i] + sc.hs[i + 1])
            row = an._point_rows(sc, np.array([a]))[which]
            mu = np.linalg.svd(np.stack([row.f[0][:, 0], row.f[1][:, 0]]))[2][-1]
            fs = mu @ sc.basis[which]
            reach = np.abs(mu) @ sc.reach[which]
            assert np.all(np.abs(fs[i:i + 2]) <= reach[i:i + 2] + _fit_bound(fs)), i
            mus.append(mu)
        batched = sc.scan(np.reshape(mus, (-1, 1, 4)), which)
        for i, mu, rep in zip(nodes, mus, batched):
            assert rep.count == sc.count(which, mu).count
            assert any(z["multiplicity_estimate"] == 2 and sc.hs[i - 1] <= z["location"]
                       <= sc.hs[i + 2] for z in rep.zeros), (i, rep.zeros)

    def test_reach_factor_is_attained(self):
        # f within V of f(x_i) on the cell, at f(x_i) + V left of x_i and
        # f(x_i) - V from x_i on: the first fit's vertex lies at delta / 2,
        # where the left value weighs -1/8, so it fits f(x_i) - (5/4) V.  With
        # f(x_i) = (5/4) V that is a tangency, which the skip must leave in
        xs = np.linspace(-1.0, 1.0, 65)
        i, V = 40, 1e-3
        f0 = 1.25 * V
        fs = f0 + (xs - xs[i]) ** 2
        fvec = lambda x: np.where(np.asarray(x) >= xs[i], f0 - V, f0 + V)
        reach = np.full(xs.size, (an.REACH + an.FIT_SLACK) * V + an.FIT_SLACK * (f0 + V))
        scan = lambda fs, f, **kw: an._count_from_scan(xs, fs[None], lambda r: f, (-1.0, 1.0),
                                                        **kw)[0]
        assert scan(fs, fvec).count == 2
        assert scan(fs, fvec, reach=lambda r, i: reach[i]).count == 2
        # a little further from zero the fit finds nothing, and the skip leaves it out
        fs_far = fs + 4e-9
        far = lambda x: fvec(x) + 4e-9
        assert scan(fs_far, far).count == 0
        assert np.abs(fs_far[i]) > reach[i] + _fit_bound(fs_far)

    def test_non_finite_weights_are_refused(self, p4):
        sc = an.bound_scanner(p4, 512)
        for mu in ([np.nan, 1.0, 0.0, 0.0], [1.0, np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]):
            for which in "IGR":
                with pytest.raises(DomainError, match="four finite numbers"):
                    sc.count(which, mu)
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="non-finite"):
            sc.count("R", [1e308, 1e308, 1e308, 1e308])


# prints, per kappa and function, the sha256 of var, mag and reach, joined
_SCANNER_BOUNDS = """
import hashlib
from q4lab.analysis import BoundScanner
from q4lab.model import make_params
for kappa in (1.5, 4.0, 9.0):
    sc = BoundScanner(make_params(kappa), 512)
    for w in "IGR":
        data = b"".join(getattr(sc, n)[w].tobytes() for n in ("var", "mag", "reach"))
        print(kappa, w, hashlib.sha256(data).hexdigest())
"""


class TestScannerBits:
    """BoundScanner(make_params(kappa), 512) at kappa 1.5, 4 and 9, per
    function.  R's entries were recorded when R's rows moved onto
    ``RCoefficients.direct_rows`` and ``center_rows`` and every expansion sum
    onto ``series_sum``; I's and G's when ``MomentBasis`` moved from a chain of
    Taylor expansions seeded by the quadrature oracle to two exact end
    expansions, which left R's rows and bounds unchanged.  No BLAS call forms
    a row or a bound, so var, mag and reach have one digest per kappa under
    every kernel."""

    ROWS_SHA256 = {
        1.5: {"I": "6e268532fc7ad0940ced0fa6e9cd67e68823fec68ad255098aa3efbf2e04eaf6",
              "G": "5802927dad2b8142755c06214b91f19450a0f7ee0e5099b4cc91ad8485b56908",
              "R": "75b5e3e266d552cee7079bb362d984960ebbe85d278db2a3bb90fcd675e793fc"},
        4.0: {"I": "7b591ba11ff8c183372db3121a1319fe3c4e3f15ca8dbc53ef0e2e5ef343cc93",
              "G": "c092277412a7c45de17749dd8ded4eead8cffa4b36dae93b83af829b19ec2854",
              "R": "8a128eb7233164a2e31ba107664f7555085618b0f6ab5c808310f873c818a9e5"},
        9.0: {"I": "1f44c765be0b7f21e6581db5f6fe3fbf8f838088db1c2a2f429fe35e801122f4",
              "G": "0dfd33b736f1e19b3ea2d6af2bcd6e2bdc6c669878b51285acc7a981f9ec479b",
              "R": "ad5e6a2be346ed8f5bce529efbbddf7ec4579f586362f9b70e6679ae4cc6a060"},
    }
    BOUNDS_SHA256 = {
        1.5: {"I": "c3384eca5065d08e36ca1ea41035a754dbbd233505e62f5143996fea17a25057",
              "G": "952d416aac2335386ec1bd1a70a85a5bbc3130d1bf8883439c7480842e742f13",
              "R": "ee9cb1066667ea2d0ac4efe72a3d9f50f18da51a49f8bdb9fe79134263642894"},
        4.0: {"I": "6665e092f6013ebec9f568cd96a3a641a9aff13f56278933fb012103b61817e0",
              "G": "93ba2f08748f1bd18d8c9e7b9477fef9e4f5e0df23cc5503ceacec05eb075bd0",
              "R": "1fdd5b75591c879d40861f5a479bcd9d406668b22ca613c5a3fa684f192d0998"},
        9.0: {"I": "95cf88fe281847494fa7051b291661ba71401f761a96f071850f74bed15a6080",
              "G": "c3266c6b0e7ec20732a6bba1a77c2237ecc2da6d9206da6efe406809c177ec87",
              "R": "6d44d1d58fd8135e50dae6f22374bf964b4f844056b18b6c0054e50563e4e3eb"},
    }

    def test_rows_unchanged(self):
        for kappa, want in self.ROWS_SHA256.items():
            sc = an.bound_scanner(make_params(kappa), 512)
            got = {w: hashlib.sha256(sc.basis[w].tobytes()).hexdigest() for w in "IGR"}
            assert got == want, kappa

    def test_bounds_unchanged_under_each_kernel(self):
        # a fresh process as this one runs, then one per kernel the CPU runs
        for core in [None] + openblas_kernels():
            done = subprocess.run([sys.executable, "-c", _SCANNER_BOUNDS], env=kernel_env(core),
                                  capture_output=True, text=True)
            assert done.returncode == 0, (core, done.stderr)
            got = {}
            for line in done.stdout.splitlines():
                kappa, w, digest = line.split()
                got.setdefault(float(kappa), {})[w] = digest
            assert got == self.BOUNDS_SHA256, core

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_R_switches_at_its_level(self, kappa):
        # RCoefficients.switch, a level, puts each grid node on the side of
        # R's switch where z < CENTER_Z put it, and unit_rows sums the center
        # series below it and the direct form from it up
        sc = an.bound_scanner(make_params(kappa), 512)
        rc, h = sc.rc, sc.hs
        near = h < rc.switch
        assert np.array_equal(near, center_z(h, kappa) < CENTER_Z)
        assert 0 < near.sum() < near.size
        J1, J2 = sc.prop.J(h)
        rows, inv2 = rc.unit_rows(h, J1, J2), 1.0 / (9.0 * kappa * h * h - 4.0)
        hn, hd = h[near], h[~near]
        S = series_sum(rc.center_series[:, None], center_z(hn, kappa))
        assert np.array_equal(rows[:, near], rc.center_rows(hn, S, inv2[near]))
        direct = rc.direct_rows(hd, J1[~near], J2[~near], 1.0 / (9.0 * hd * hd - 4.0), inv2[~near])
        assert np.array_equal(rows[:, ~near], direct)

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_jets_carry_the_scanned_rows(self, kappa):
        # the skip's jets differentiate the very functions the scanner scans:
        # the moment jets carry MomentBasis.values on each side of the switch
        sc = an.bound_scanner(make_params(kappa), 512)
        P = an._point_rows(sc, sc.hs)
        for which in "IGR":
            assert np.array_equal(P[which].f[0], sc.basis[which]), which
        mb = sc.prop
        saddle = sc.hs >= mb.switch
        assert 0 < saddle.sum() < saddle.size
        assert np.array_equal(mb.taylor(sc.hs).f[0], mb.values(sc.hs))
        for side in (False, True):
            h = sc.hs[saddle == side]
            assert np.array_equal(mb.taylor(h, side).f[0], mb.values(h)), side

    @pytest.mark.parametrize("kappa", [1.5, 4.0, 9.0])
    def test_rows_do_not_depend_on_the_layout(self, kappa):
        # the grid is a reversed view; np.power once took other loops on it
        sc = an.bound_scanner(make_params(kappa), 512)
        contiguous = np.ascontiguousarray(sc.hs)
        assert sc.hs.strides[0] < 0 and contiguous.strides[0] > 0
        for which in "IGR":
            assert np.array_equal(sc._basis(which, contiguous), sc.basis[which]), which


class TestFloatSums:
    def test_bits_do_not_follow_builtin_sum(self, monkeypatch):
        # from Python 3.12 sum() compensates float sums; the template's
        # weighing and the winding total are left folds, so they keep
        # their bits under any sum()
        p = make_params(4.0)
        rc = extract_R_coeffs(p)
        mus = unit_sphere_weights(np.random.SeedSequence(3), 50)
        pair = PolyPair(P=(0.3635365676813111, 0.8642994867575062), Q=(0.3476025908263671,))

        def bits():
            return ([rc.template(-0.5, 1.3, 0.7, mu).hex() for mu in mus],
                    winding_count(pair, p).residual.hex())

        want, plain_sum = bits(), builtins.sum

        def compensated(items, start=0):
            items = list(items)
            if items and all(isinstance(x, float) for x in items):
                return math.fsum([start, *items])
            return plain_sum(items, start)

        monkeypatch.setattr(builtins, "sum", compensated)
        assert bits() == want


class TestKummerPairNearSaddle:
    @pytest.mark.parametrize("kappa", [2.0, 4.0, 7.3])
    @pytest.mark.parametrize("offset", [1e-9, 1e-6, 1e-3])
    def test_matches_mpmath(self, kappa, offset):
        # s - 1 is formed with compensated products, so the entries keep
        # full precision right below the saddle level (s = 1)
        import mpmath as mp

        h = make_params(kappa).saddle_h - offset
        got = an._l2_kummer_pair(h, kappa)[:, :, 0]
        with mp.workdps(40):
            third, sixth = mp.mpf(1) / 3, mp.mpf(1) / 6
            s = mp.mpf(9) / 4 * mp.mpf(kappa) * mp.mpf(h) ** 2
            w, r = 1 - s, mp.sqrt(s - 1)
            f2 = mp.hyp2f1(-third, third, 1.5, w)
            du1 = -mp.mpf(5) / 18 * mp.hyp2f1(5 * sixth, sixth, 1.5, w)
            du2 = f2 / (2 * r) + mp.mpf(2) / 27 * r * mp.hyp2f1(2 * third, 4 * third, 2.5, w)
            dsdh = mp.mpf(9) / 2 * mp.mpf(kappa) * mp.mpf(h)
            want = [[mp.hyp2f1(-sixth, -5 * sixth, 0.5, w), r * f2],
                    [du1 * dsdh, du2 * dsdh]]
            for i in range(2):
                for j in range(2):
                    rel = abs((mp.mpf(got[i, j]) - want[i][j]) / want[i][j])
                    assert rel <= 1e-13, (i, j, float(rel))
