"""Batch driver: every verification as a subcommand with deterministic
seeding and CSV reports.

    q4lab <command> [--config FILE] [--kappa X]... [--mu a,b,c,d]
          [--trials N] [--seed S] [--tol T] [--grid N] [--out DIR]
          [--epsilon E] [--workers W]

Commands: verify, moments, zeros, cheb, winding, sweep, dyn, coeffs.
Exit code 0 means every check passed, 2 means mathematical-claim
violations or flagged findings were recorded (the report names them), and
1 means an execution or configuration error.  Identical config and seed
produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis, dynamics, melnikov, picard_fuchs, quadrature, reduction
from .errors import Q4Error
from .model import HamiltonianForm, interior_levels, make_params, s_from_h

PASS, FLAG = "pass", "flag"

CSV_NAMES = {
    "verify": "residuals.csv",
    "moments": "moments.csv",
    "zeros": "zeros.csv",
    "cheb": "cheb.csv",
    "winding": "winding.csv",
    "sweep": "sweep.csv",
    "dyn": "orbit.csv",
    "coeffs": "coeffs.txt",
}


@dataclass
class RunConfig:
    kappa_list: list = field(default_factory=lambda: [4.0])
    mu_mode: str = "explicit"
    mu: tuple = (1.0, 1.0, 1.0, 1.0)
    trials: int = 100
    seed: int = 42
    tol: float = 1e-6
    grid: int = 512
    output_dir: str = "q4lab_out"
    epsilon: float = 1e-3
    workers: int = 1

    def validate(self):
        if any(k <= 1.0 or not math.isfinite(k) for k in self.kappa_list):
            raise ValueError("every kappa must be finite and > 1")
        if len(self.mu) != 4:
            raise ValueError(f"mu needs four weights, got {len(self.mu)}")
        if not all(math.isfinite(m) for m in self.mu):
            raise ValueError("every weight in mu must be finite")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:  # numpy's SeedSequence takes non-negative entropy only
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("tol must be finite and positive")
        if self.grid < analysis.GRID_MIN:  # the fewest nodes of a scan grid
            raise ValueError(f"a scan grid needs at least {analysis.GRID_MIN} nodes, "
                             f"got {self.grid}")
        if not 0.0 < self.epsilon < 0.05:  # the keyhole's range; NaN fails too
            raise ValueError("epsilon must lie in (0, 0.05)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.mu_mode not in ("explicit", "random_sphere"):
            raise ValueError(f"unknown mu_mode {self.mu_mode!r}")


def _parse_config_file(path: str) -> dict:
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _config_from(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        raw = _parse_config_file(args.config)
        if "kappa_list" in raw:
            cfg.kappa_list = [float(x) for x in raw["kappa_list"].split(",")]
        if "mu" in raw:
            cfg.mu = tuple(float(x) for x in raw["mu"].split(","))
        for key in ("trials", "seed", "grid", "workers"):
            if key in raw:
                setattr(cfg, key, int(raw[key]))
        for key in ("tol", "epsilon"):
            if key in raw:
                setattr(cfg, key, float(raw[key]))
        for key in ("mu_mode", "output_dir"):
            if key in raw:
                setattr(cfg, key, raw[key])
    if args.kappa:
        cfg.kappa_list = [float(k) for k in args.kappa]
    if args.mu is not None:
        cfg.mu = tuple(float(x) for x in args.mu.split(","))
        cfg.mu_mode = "explicit"
    for name in ("trials", "seed", "grid", "tol", "epsilon", "workers"):
        val = getattr(args, name, None)
        if val is not None:
            setattr(cfg, name, val)
    if args.out is not None:
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


class Report:
    """Uniform report rows: kappa, level (h or s), quantity, value,
    tolerance, status; deterministic formatting."""

    HEADER = "kappa,level,quantity,value,tolerance,status"

    def __init__(self):
        self.rows = []

    def add(self, kappa, level, quantity, value, tolerance, ok: bool):
        self.rows.append((kappa, level, quantity, value, tolerance,
                          PASS if ok else FLAG))

    @property
    def flagged(self):
        return [r for r in self.rows if r[-1] == FLAG]

    def write(self, path: Path):
        lines = [self.HEADER]
        for kappa, level, quantity, value, tolerance, status in self.rows:
            lines.append(f"{_fmt(kappa)},{_fmt(level)},{quantity},"
                         f"{_fmt(value)},{_fmt(tolerance)},{status}")
        path.write_text("\n".join(lines) + "\n")


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_verify(cfg: RunConfig, out: Path) -> int:
    rep = Report()
    tol = cfg.tol
    for kappa in cfg.kappa_list:
        p = make_params(kappa, mu=cfg.mu)
        hs = interior_levels(p, 3, 0.2, 0.8)
        # recurrences and reductions
        for h in hs:
            for kind in ("eq25", "eq26", "combined"):
                r = reduction.recurrence_residual(kind, 0, 0, h, p)
                s = reduction.recurrence_scale(kind, 0, 0, h, p)
                rep.add(kappa, h, f"recurrence:{kind}:i0j0", abs(r) / s, tol,
                        abs(r) <= tol * s)
            for ij in ((1, 2), (3, 0), (0, 3), (-1, 4)):
                lhs = quadrature.moment_value(*ij, h, p)
                r = reduction.reduction_residual(quadrature.MomentIndex(*ij), h, p)
                rep.add(kappa, h, f"reduction:I_{ij[0]}_{ij[1]}", abs(r) / max(abs(lhs), 1e-12),
                        tol, abs(r) <= tol * max(abs(lhs), 1e-12))
            r = reduction.inversion_check(-6, 1, h, p)
            base = quadrature.moment_value(-6, 1, h, p, form=HamiltonianForm.CUBIC_FORM)
            rep.add(kappa, h, "inversion:I_-6_1", abs(r / base), tol, abs(r) <= tol * abs(base))
            vals = [reduction.assemble_I(h, p, route) for route in reduction.ROUTES]
            spread = (max(vals) - min(vals)) / (max(abs(v) for v in vals) + 1e-300)
            rep.add(kappa, h, "route-equality", spread, tol, spread <= tol)
        # Picard-Fuchs
        prop = melnikov.get_propagation(p)
        for h in hs:
            v = quadrature.basis_values(h, p)
            pf = picard_fuchs.PFVector(h=h, values=v,
                                       derivs=picard_fuchs.pf_derivatives(h, v, p))
            res = np.max(np.abs(picard_fuchs.pf_residuals(pf, p)) / np.abs(v))
            rep.add(kappa, h, "pf:solve-residual", res, 1e-12, res <= 1e-12)
            rel = np.max(np.abs(prop.values(h) - v) / np.abs(v))
            rep.add(kappa, h, "pf:propagation-vs-oracle", rel, tol, rel <= tol)
            d1, d2, d3 = chain = prop.chain(h)
            f2 = picard_fuchs.derivative_formulas("second", h, d1[0], d1[3], p)
            res = abs(f2[0] - d2[0]) / max(abs(d2[0]), 1e-300)
            rep.add(kappa, h, "pf:I00''-formula", res, tol, res <= tol)
            pfs = picard_fuchs.pfs_residuals(h, d1[0], d1[3], d2[0], d2[3], p)
            scale = 3 * kappa * abs(h) * max(abs(d1[0]), abs(d1[3]))
            res = np.max(np.abs(pfs)) / scale
            rep.add(kappa, h, "pf:pfs-system", res, tol, res <= tol)
            # L2 JJ identity: G of the unit weight nu4 is JJ
            JJ = melnikov.G_from_chain(h, chain, replace(p, mu=(0.0, 0.0, 0.0, 1.0)))
            lhs = picard_fuchs.apply_L2(*JJ, h, p)
            rhs = (4 / 3) * (kappa - 1) * (h * (9 * kappa * h * h - 4) * d3[3]
                                           + (6 * kappa * h * h + 8) * d2[3])
            res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
            rep.add(kappa, h, "pf:L2J-identity", res, tol, res <= tol)
        # R routes and exact template
        rc = melnikov.extract_R_coeffs(p)
        for h in interior_levels(p, 5, 0.1, 0.9):
            r1 = melnikov.eval_R(h, p, "direct")
            r2 = melnikov.eval_R(h, p, "pf_numeric")
            res = abs(r1 - r2) / max(abs(r1), abs(r2), 1e-300)
            rep.add(kappa, h, "R:dual-route", res, tol, res <= tol)
            J1, J2 = picard_fuchs.hypergeometric_J(s_from_h(h, p), p)[:, 0]
            rt = rc.template(h, J1, J2, p.mu)
            res = abs(rt - r1) / max(abs(r1), 1e-300)
            rep.add(kappa, h, "R:exact-template", res, 1e-10, res <= 1e-10)
        # Wronskian and exponents
        st0 = picard_fuchs.initial_jstate(math.sqrt(kappa), p)
        st1 = picard_fuchs.propagate_J([math.sqrt(kappa), 1.0 + 0.01 * (kappa - 1.0)], st0, p)
        drift = abs(st1.det_W - st0.det_W) / abs(st0.det_W)
        rep.add(kappa, 1.0, "J:wronskian-real", drift, 1e-8, drift <= 1e-8)
        lo, hi = picard_fuchs.infinity_exponents(p)
        rep.add(kappa, 0.0, "J:exponent-high", abs(hi - 1 / 6), 1e-3, abs(hi - 1 / 6) <= 1e-3)
        rep.add(kappa, 0.0, "J:exponent-low", abs(lo + 1 / 6), 1e-3, abs(lo + 1 / 6) <= 1e-3)
    rep.write(out / CSV_NAMES["verify"])
    return 2 if rep.flagged else 0


def _cmd_moments(cfg: RunConfig, out: Path) -> int:
    rep = Report()
    for kappa in cfg.kappa_list:
        p = make_params(kappa)
        for h in interior_levels(p, 8, 0.08, 0.92):
            for ij in quadrature.BASIS_INDICES:
                g = quadrature.moment(quadrature.MomentIndex(*ij), h, p, "green", 1e-10)
                a = quadrature.moment(quadrature.MomentIndex(*ij), h, p, "area2d", 1e-8)
                rel = abs(g.value - a.value) / max(abs(a.value), 1e-300)
                rep.add(kappa, h, f"I_{ij[0]}_{ij[1]}:green", g.value, g.err_estimate, True)
                rep.add(kappa, h, f"I_{ij[0]}_{ij[1]}:agreement", rel, cfg.tol, rel <= cfg.tol)
    rep.write(out / CSV_NAMES["moments"])
    return 2 if rep.flagged else 0


def _mu_draws(cfg: RunConfig, kappa_idx: int):
    if cfg.mu_mode == "explicit":
        return [tuple(cfg.mu)]
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.kappa_list))
    return [tuple(mu) for mu in analysis.unit_sphere_weights(children[kappa_idx], cfg.trials)]


def _cmd_zeros(cfg: RunConfig, out: Path) -> int:
    rep = Report()
    for ki, kappa in enumerate(cfg.kappa_list):
        for mu in _mu_draws(cfg, ki):
            p = make_params(kappa, mu=mu)
            br = analysis.bound_pipeline(p, grid=cfg.grid)
            rep.add(kappa, br.reports["I"].interval[0], "count:I", br.count_I, 8, br.count_I <= 8)
            rep.add(kappa, br.reports["G"].interval[0], "count:G", br.count_G, 8, br.count_G <= 8)
            rep.add(kappa, br.reports["R"].interval[0], "count:R", br.count_R, 6, br.count_R <= 6)
            rep.add(kappa, 0.0, "chain", int(br.chain_ok), 1, br.chain_ok)
            if br.reconstruction_rel_err is not None:
                rep.add(kappa, 0.0, "I-reconstruction", br.reconstruction_rel_err,
                        cfg.tol, br.reconstruction_rel_err <= cfg.tol)
    rep.write(out / CSV_NAMES["zeros"])
    return 2 if rep.flagged else 0


def _cmd_cheb(cfg: RunConfig, out: Path) -> int:
    rep = Report()
    clean = True
    for kappa in cfg.kappa_list:
        p = make_params(kappa)
        pr = analysis.chebyshev_probe(p, grid=cfg.grid)
        rep.add(kappa, pr.window[0], "L2(f)-residual", pr.l2_residual, cfg.tol,
                pr.l2_residual <= cfg.tol)
        rep.add(kappa, pr.h_star, "f-zero-location-error",
                pr.locate_error if pr.locate_error is not None else math.nan,
                1e-8, pr.locate_error is not None and pr.locate_error <= 1e-8)
        rep.add(kappa, pr.h_star, "h*-in-half-line-interval", int(pr.in_half_line_interval),
                0, not pr.in_half_line_interval)
        rep.add(kappa, pr.h_star, "h*-in-annulus-interval", int(pr.in_annulus_interval),
                0, not pr.in_annulus_interval)
        rep.add(kappa, pr.saddle_y0, "saddle-y0-vs-claimed",
                abs(pr.saddle_y0 - pr.saddle_y0_claimed), 0.0,
                abs(pr.saddle_y0 - pr.saddle_y0_claimed) == 0.0)
        rep.add(kappa, pr.window[0], "rotation-span-window", pr.rotation_span_window,
                math.pi, pr.rotation_span_window < math.pi)
        rep.add(kappa, p.center_h, "rotation-span-annulus", pr.rotation_span_annulus,
                math.pi, pr.rotation_span_annulus < math.pi)
        clean = clean and not pr.in_half_line_interval and not pr.in_annulus_interval
    rep.write(out / CSV_NAMES["cheb"])
    return 2 if rep.flagged or not clean else 0


def _cmd_winding(cfg: RunConfig, out: Path) -> int:
    rep = Report()
    for kappa in cfg.kappa_list:
        p = make_params(kappa)
        for n in (1, 2, 3):
            res = analysis.vn_sample_test(n, cfg.trials, p, seed=cfg.seed,
                                          grid=cfg.grid, epsilon=cfg.epsilon)
            rep.add(kappa, n, "max-real-zeros", res["max_real_zeros"], 2 * n,
                    res["max_real_zeros"] <= 2 * n)
            rep.add(kappa, n, "max-winding", res["max_winding"], 2 * n,
                    res["max_winding"] <= 2 * n)
            rep.add(kappa, n, "worst-integrality-residual", res["worst_residual"],
                    0.2, res["worst_residual"] <= 0.2)
            rep.add(kappa, n, "violations", len(res["violations"]), 0,
                    not res["violations"])
    rep.write(out / CSV_NAMES["winding"])
    return 2 if rep.flagged else 0


def _sweep_one_kappa(args):
    kappa, trials, seed_seq, grid = args
    return [(kappa, t, br.mu, br.count_I, br.count_G, br.count_R, br.chain_ok)
            for t, br in enumerate(analysis.sweep_kappa(kappa, seed_seq, trials, grid))]


def _cmd_sweep(cfg: RunConfig, out: Path) -> int:
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.kappa_list))
    jobs = [(kappa, cfg.trials, child, cfg.grid)
            for kappa, child in zip(cfg.kappa_list, children)]
    if cfg.workers > 1:
        # imported here, not at the top: it adds about 5 ms to every run's import
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_sweep_one_kappa, jobs))
    else:
        results = [_sweep_one_kappa(job) for job in jobs]
    lines = ["kappa,trial,mu1,mu2,mu3,mu4,count_I,count_G,count_R,chain_ok,status"]
    violations = 0
    for rows in results:
        for kappa, t, mu, cI, cG, cR, ok in rows:
            if not ok:
                violations += 1
            lines.append(
                f"{_fmt(kappa)},{t},{_fmt(mu[0])},{_fmt(mu[1])},{_fmt(mu[2])},"
                f"{_fmt(mu[3])},{cI},{cG},{cR},{int(ok)},{PASS if ok else FLAG}")
    (out / CSV_NAMES["sweep"]).write_text("\n".join(lines) + "\n")
    return 2 if violations else 0


def _cmd_dyn(cfg: RunConfig, out: Path) -> int:
    rep_lines = ["t,re_z,im_z,drift"]
    ok = True
    for kappa in cfg.kappa_list:
        p = make_params(kappa)
        r_edge = dynamics.basin_edge_radius(0.0, p)
        z0 = 0.3 * r_edge
        T, gap = dynamics.find_period(z0, p)
        orbit = dynamics.integrate_orbit(z0, 10.0 * T, p, tol=1e-12)
        rep = dynamics.conservation_report(orbit)
        ok = ok and rep.max_drift <= 1e-8 and gap <= 1e-6
        for row in dynamics.orbit_rows(orbit):
            rep_lines.append(",".join(_fmt(x) for x in row))
    (out / CSV_NAMES["dyn"]).write_text("\n".join(rep_lines) + "\n")
    return 0 if ok else 2


def _cmd_coeffs(cfg: RunConfig, out: Path) -> int:
    texts = []
    for kappa in cfg.kappa_list:
        texts.append(melnikov.extract_R_coeffs(make_params(kappa)).as_text())
    (out / CSV_NAMES["coeffs"]).write_text("\n\n".join(texts) + "\n")
    return 0


COMMANDS = {
    "verify": _cmd_verify,
    "moments": _cmd_moments,
    "zeros": _cmd_zeros,
    "cheb": _cmd_cheb,
    "winding": _cmd_winding,
    "sweep": _cmd_sweep,
    "dyn": _cmd_dyn,
    "coeffs": _cmd_coeffs,
}


def run(command: str, config: RunConfig) -> int:
    """Entry point for programmatic use; returns the exit code."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    config.validate()
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return COMMANDS[command](config, out)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="q4lab",
        description="numerical verification lab for the codimension-four "
                    "quadratic center")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="key=value config file")
    ap.add_argument("--kappa", action="append",
                    help="model parameter > 1 (repeatable)")
    ap.add_argument("--mu", help="four comma-separated weights")
    ap.add_argument("--trials", type=int)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--tol", type=float)
    ap.add_argument("--grid", type=int)
    ap.add_argument("--epsilon", type=float)
    ap.add_argument("--workers", type=int)
    ap.add_argument("--out")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
    except (ValueError, OSError) as exc:
        print(f"q4lab: config error: {exc}", file=sys.stderr)
        return 1
    try:
        code = run(args.command, cfg)
    except Q4Error as exc:
        print(f"q4lab: {exc}", file=sys.stderr)
        return 1
    print(f"q4lab {args.command}: exit {code} "
          f"({'all checks passed' if code == 0 else 'findings recorded'})")
    return code


if __name__ == "__main__":
    sys.exit(main())
