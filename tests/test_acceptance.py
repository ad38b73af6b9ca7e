"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the whole suite is also part of plain `pytest`.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import keyhole_reference
from q4lab import make_params
from q4lab.model import HamiltonianForm, interior_levels
from q4lab.quadrature import MomentIndex, basis_values, moment, moment_value
from q4lab.reduction import recurrence_residual, recurrence_scale
from q4lab.picard_fuchs import (
    PFVector,
    apply_L2,
    infinity_exponents,
    initial_jstate,
    pf_derivatives,
    pf_residuals,
    propagate_J,
)
from q4lab.melnikov import eval_R, extract_R_coeffs, get_propagation
from q4lab.analysis import (
    chebyshev_probe,
    inhomogeneous_bound_sample,
    keyhole_by_continuation,
    sweep_bounds,
    vn_sample_test,
)
from q4lab.cli import RunConfig, run


def _line(num: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


BASIS = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1)]


def test_c01_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    for kappa in (1.5, 2.0, 4.0, 9.0):
        p = make_params(kappa)
        for h in interior_levels(p, 12, 0.08, 0.92):
            for ij in BASIS:
                g = moment(MomentIndex(*ij), h, p, "green", 1e-10)
                a = moment(MomentIndex(*ij), h, p, "area2d", 1e-8)
                worst = max(worst, abs(g.value - a.value) / abs(a.value))
    elapsed = time.time() - t0
    _line(1, worst <= 1e-6 and elapsed <= 120.0,
          f"dual-method worst rel diff {worst:.2e} (tol 1e-6) over 288 pairs "
          f"in {elapsed:.0f}s (limit 120s)")


def test_c02_recurrences():
    worst = 0.0
    worst_fold = 0.0
    for kappa in (1.5, 4.0):
        p = make_params(kappa)
        for h in interior_levels(p, 5, 0.1, 0.7):
            for i in range(-6, 4):
                for j in range(0, 4):
                    for kind in ("eq25", "eq26"):
                        r = recurrence_residual(kind, i, j, h, p)
                        s = recurrence_scale(kind, i, j, h, p)
                        worst = max(worst, abs(r) / s)
            a = moment_value(-6, 2, h, p, form=HamiltonianForm.CUBIC_FORM)
            b = moment_value(-6, 1, h, p, form=HamiltonianForm.CUBIC_FORM)
            worst_fold = max(worst_fold, abs(a - b) / abs(b))
    _line(2, worst <= 1e-6 and worst_fold <= 1e-6,
          f"eq25/eq26 worst rel residual {worst:.2e} over (i,j) in "
          f"[-6..3]x[0..3]; I_-6_2 = I_-6_1 to {worst_fold:.2e} (tol 1e-6)")


def test_c03_picard_fuchs():
    worst_fd, worst_solve, worst_prop = 0.0, 0.0, 0.0
    for kappa in (1.5, 4.0):
        p = make_params(kappa)
        prop = get_propagation(p)
        hmid = 0.5 * (p.center_h + p.saddle_h)
        v = basis_values(hmid, p)
        dh = 1e-5 * abs(hmid)
        fd = (basis_values(hmid + dh, p) - basis_values(hmid - dh, p)) / (2 * dh)
        pf_fd = PFVector(h=hmid, values=v, derivs=fd)
        worst_fd = max(worst_fd, float(np.max(
            np.abs(pf_residuals(pf_fd, p)) / np.abs(v))))
        pf_solve = PFVector(h=hmid, values=v, derivs=pf_derivatives(hmid, v, p))
        worst_solve = max(worst_solve, float(np.max(
            np.abs(pf_residuals(pf_solve, p)) / np.abs(v))))
        for h in interior_levels(p, 5, 0.1, 0.9):
            ref = basis_values(h, p)
            worst_prop = max(worst_prop, float(np.max(
                np.abs(prop.values(h) - ref) / np.abs(ref))))
    _line(3, worst_fd <= 1e-4 and worst_solve <= 1e-12 and worst_prop <= 1e-6,
          f"six-equation residuals: FD {worst_fd:.2e} (tol 1e-4), solve "
          f"{worst_solve:.2e} (tol 1e-12); propagation vs oracle over 80% of "
          f"the window {worst_prop:.2e} (tol 1e-6)")


def test_c04_derived_systems():
    worst_pfs, worst_m1, worst_l2j, worst_fd = 0.0, 0.0, 0.0, 0.0
    for kappa in (1.5, 4.0):
        p = make_params(kappa)
        k = kappa
        prop = get_propagation(p)
        for h in interior_levels(p, 5, 0.1, 0.9):
            d1, d2, d3 = prop.chain(h)
            scale = 3 * k * abs(h) * max(abs(d1[0]), abs(d1[3]))
            res = np.array([
                -3 * k * h * d1[0] - ((9 * k * h * h - 4) * d2[0] - 4 * (k - 1) * d2[3]),
                -3 * k * h * d1[3] - (9 * k * h * h - 4) * (d2[0] - d2[3]),
            ])
            worst_pfs = max(worst_pfs, float(np.max(np.abs(res))) / scale)
            r1 = d1[4] - (-1.5 * h * d2[4] - d2[5])
            r2 = d1[5] - (-(2 / k) * d2[4] - 3 * h * d2[5]
                          + 4 * (k - 1) / (3 * k * h) * d2[3])
            sm1 = max(abs(d1[4]), abs(d1[5]))
            worst_m1 = max(worst_m1, abs(r1) / sm1, abs(r2) / sm1)
            J = -4 * h * d1[4] + (3 * k * h * h - 4) * d1[5]
            J1 = -4 * d1[4] - 4 * h * d2[4] + 6 * k * h * d1[5] + (3 * k * h * h - 4) * d2[5]
            J2 = (-8 * d2[4] - 4 * h * d3[4] + 6 * k * d1[5] + 12 * k * h * d2[5]
                  + (3 * k * h * h - 4) * d3[5])
            lhs = apply_L2(J, J1, J2, h, p)
            rhs = (4 / 3) * (k - 1) * (h * (9 * k * h * h - 4) * d3[3]
                                       + (6 * k * h * h + 8) * d2[3])
            worst_l2j = max(worst_l2j, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
        # FD-limited variant of the 2x2 system from propagated first derivatives
        h = 0.5 * (p.center_h + p.saddle_h)
        dh = 1e-5 * abs(h)
        dm, d0, dp = (prop.derivs(h + s * dh) for s in (-1, 0, 1))
        i200 = (dp[0] - dm[0]) / (2 * dh)
        i211 = (dp[3] - dm[3]) / (2 * dh)
        scale = 3 * k * abs(h) * max(abs(d0[0]), abs(d0[3]))
        res = abs(-3 * k * h * d0[0] - ((9 * k * h * h - 4) * i200
                                        - 4 * (k - 1) * i211)) / scale
        worst_fd = max(worst_fd, res)
    _line(4, worst_pfs <= 1e-6 and worst_m1 <= 1e-6 and worst_l2j <= 1e-6
          and worst_fd <= 1e-4,
          f"(pfs) {worst_pfs:.2e}, I'_-1 system {worst_m1:.2e}, L2J identity "
          f"{worst_l2j:.2e} (tol 1e-6, PF-derived); FD-limited {worst_fd:.2e} "
          f"(tol 1e-4)")


def test_c05_R_dual_route_and_template():
    worst_route, worst_templ = 0.0, 0.0
    rng = np.random.default_rng(505)
    for kappa in (1.5, 4.0):
        base = make_params(kappa)
        rc = extract_R_coeffs(base)
        prop = get_propagation(base)
        mu = tuple(rng.normal(size=4))
        p = replace(base, mu=mu)
        for h in interior_levels(base, 20, 0.05, 0.95):
            r1 = eval_R(h, p, "direct")
            r2 = eval_R(h, p, "pf_numeric")
            worst_route = max(worst_route, abs(r1 - r2) / max(abs(r1), abs(r2)))
            d = prop.derivs(h)
            rt = rc.template(h, d[0], d[3], mu)
            worst_templ = max(worst_templ, abs(rt - r1) / max(abs(r1), 1e-300))
        structure_ok = len(rc.a) == 4 and len(rc.b) == 3
    _line(5, worst_route <= 1e-6 and worst_templ <= 1e-10 and structure_ok,
          f"eval_R direct vs pf_numeric {worst_route:.2e} (tol 1e-6) on 20pts "
          f"x kappa {{1.5, 4}}; exact template reproduces to {worst_templ:.2e} "
          f"(tol 1e-10); degrees (a0..a3, b0..b2) exact")


def test_c06_wronskian_and_exponents():
    worst_real, worst_rect, worst_exp = 0.0, 0.0, 0.0
    for kappa in (2.0, 4.0):
        p = make_params(kappa)
        st0 = initial_jstate(math.sqrt(kappa), p)
        det0 = st0.det_W
        for target in (1.0 + 1e-2 * (kappa - 1.0), kappa - 1e-2 * (kappa - 1.0)):
            st1 = propagate_J([math.sqrt(kappa), target], st0, p)
            worst_real = max(worst_real, abs(st1.det_W - det0) / abs(det0))
        s0 = math.sqrt(kappa)
        rect = [s0, s0 + 0.8j, 0.3 + 0.8j, 0.3 + 2j, s0 + 2j, s0 + 0.8j, s0]
        st1 = propagate_J([complex(z) for z in rect], st0, p)
        worst_rect = max(worst_rect, abs(st1.det_W - det0) / abs(det0))
        lo, hi = infinity_exponents(p)
        worst_exp = max(worst_exp, abs(hi - 1 / 6), abs(lo + 1 / 6))
    _line(6, worst_real <= 1e-8 and worst_rect <= 1e-8 and worst_exp <= 1e-3,
          f"det W drift: real interval {worst_real:.2e}, complex rectangle "
          f"{worst_rect:.2e} (tol 1e-8); infinity exponents fit +-1/6 within "
          f"{worst_exp:.2e} (tol 1e-3)")


def test_c07_bound_chain_sweep():
    t0 = time.time()
    reports = sweep_bounds([1.5, 2.0, 4.0, 9.0], trials=1000, seed=20240817)
    elapsed = time.time() - t0
    violations = [r for r in reports if not r.chain_ok]
    max_I = max(r.count_I for r in reports)
    max_G = max(r.count_G for r in reports)
    max_R = max(r.count_R for r in reports)
    _line(7, not violations and max_R <= 6 and max_G <= 8 and elapsed <= 900.0,
          f"{len(reports)} trials (1000 per kappa in {{1.5, 2, 4, 9}}): "
          f"max counts I={max_I} G={max_G} R={max_R}, "
          f"{len(violations)} chain violations, {elapsed:.0f}s (limit 900s)")


def test_c08_vn_sampling():
    ok = True
    details = []
    p4 = make_params(4.0)
    for n in (1, 2, 3):
        out = vn_sample_test(n, 200, p4, seed=800 + n)
        ok = ok and not out["violations"] and out["worst_residual"] <= 0.2
        ok = ok and out["max_real_zeros"] <= 2 * n and out["max_winding"] <= 2 * n
        details.append(f"n={n}: real<={out['max_real_zeros']} "
                       f"wind<={out['max_winding']} (bound {2 * n}) "
                       f"res {out['worst_residual']:.2e}")
    # the closed-form keyhole samples against continuation of (J, W)
    samples, _, _ = keyhole_by_continuation(p4)
    worst = 0.0
    for name, (s, J) in keyhole_reference(p4).items():
        s_ode, J_ode = samples[name]
        ok = ok and np.array_equal(s, s_ode)
        worst = max(worst, float(np.max(np.max(np.abs(J - J_ode), axis=0)
                                        / np.max(np.abs(J_ode), axis=0))))
    ok = ok and worst <= 1e-10
    details.append(f"keyhole J closed form vs continuation {worst:.1e} (tol 1e-10)")
    _line(8, ok, "; ".join(details) + " [200 pairs each, kappa=4]")


def test_c09_inhomogeneous_bound_sampling():
    p = make_params(4.0)
    window = (p.center_h + 1e-6, p.saddle_h - 1e-6)
    out = inhomogeneous_bound_sample(p, window, trials=100, seed=909)
    _line(9, out["chebyshev_premise"] and not out["violations"],
          f"100 variation-of-parameters trials on the annulus window: "
          f"count(G) - k <= {out['max_excess']} (bound 2), "
          f"{len(out['violations'])} violations; Chebyshev premise "
          f"(rotation {out['rotation_span']:.3f} < pi) holds")


def test_c10_chebyshev_probe_findings():
    ok = True
    details = []
    for kappa in (2.0, 4.0, 6.0, 9.0):
        rep = chebyshev_probe(make_params(kappa))
        ok = ok and rep.l2_residual <= 1e-6
        ok = ok and rep.locate_error is not None and rep.locate_error <= 1e-8
        expected_annulus = "contradicted" if kappa > 5.0 else "confirmed"
        ok = ok and rep.nonvanishing_on_half_line == "contradicted"
        ok = ok and rep.nonvanishing_on_annulus == expected_annulus
        details.append(
            f"kappa={kappa}: L2(f) {rep.l2_residual:.1e}, zero at "
            f"{rep.h_star:.6f} located to {rep.locate_error:.1e}, claim "
            f"{rep.nonvanishing_on_half_line} on (-inf, saddle) / "
            f"{rep.nonvanishing_on_annulus} on the annulus")
    _line(10, ok, " | ".join(details))


def test_c11_dynamics():
    from q4lab.dynamics import conservation_report, find_period, integrate_orbit
    from q4lab.model import coordinate_map, hamiltonian, in_omega
    p = make_params(4.0)
    exact = hamiltonian("original_rational", (0.0, 0.0), p) == 4.0 / 9.0
    z0 = 0.08 + 0j
    T, gap = find_period(z0, p)
    orb = integrate_orbit(z0, 10 * T, p, tol=1e-12)
    drift = conservation_report(orb).max_drift
    rng = np.random.default_rng(1111)
    worst_corr = 0.0
    n = 0
    while n < 100:
        x, y = rng.uniform(-0.25, 0.25, 2)
        if not in_omega(x, y, p):
            continue
        n += 1
        X, Y = coordinate_map((x, y), p)
        lhs = hamiltonian("original_rational", (x, y), p)
        rhs = 64 * (2 - p.b) ** 2 * hamiltonian("XY_form", (X, Y), p) ** 2
        worst_corr = max(worst_corr, abs(lhs - rhs) / abs(lhs))
    _line(11, exact and drift <= 1e-8 and worst_corr <= 1e-10,
          f"Hcal(0,0) == 4/9 exactly: {exact}; drift over 10 periods "
          f"{drift:.2e} (tol 1e-8, integrator tol 1e-12); correspondence on "
          f"100 Omega points {worst_corr:.2e} (tol 1e-10)")


def test_c12_determinism(tmp_path):
    cfg = dict(kappa_list=[2.0, 4.0], mu_mode="random_sphere", trials=25, seed=42)
    run("sweep", RunConfig(**cfg, output_dir=str(tmp_path / "a")))
    run("sweep", RunConfig(**cfg, output_dir=str(tmp_path / "b")))
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    _line(12, a == b and len(a) > 0,
          f"repeated sweep (trials=25 x 2 kappa, seed=42) byte-identical: "
          f"{a == b} ({len(a)} bytes)")
