"""One episode of a benchmark workload, run in a fresh interpreter.

q4lab keeps every per-kappa result in process-global dicts keyed by raw
floats (ovals and moments in ``quadrature``, propagations and R
coefficients in ``melnikov``, contours, J tables and scanners in
``analysis``), and only two of those modules can clear theirs.  Work
repeated in a warm process would time dictionary lookups, so ``run.py``
starts this script once per episode and never reuses a process.

The job arrives as JSON on stdin: the workload, the kappas and the inputs
that ``run.py`` generated from the seed.  The result is one JSON line on
stdout: timestamps on the system-wide monotonic clock, the operations
attempted and failed per kind, the smallest tolerance margin per kappa, SHA-256
digests of the CSVs written, the peak RSS and, when traced, the span
statistics.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
from scipy.integrate import quad, solve_ivp

BASIS = [(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0), (-1, 1)]
MOMENT_TOL = 1e-6         # c01: green against area2d
DRIFT_TOL, GAP_TOL = 1e-8, 1e-6   # c11 / the dyn command
TEMPLATE_TOL = 1e-10      # the verify command's R:exact-template row
L2_TOL, LOCATE_TOL = 1e-6, 1e-8   # the cheb command's rows
INTEGRALITY_TOL = 0.2     # c08
GRID, EPSILON = 512, 1e-3
SWEEP_HEADER = "kappa,trial,mu1,mu2,mu3,mu4,count_I,count_G,count_R,chain_ok,status"


class Tally:
    """Operations attempted and failed per kind, the smallest tolerance
    margin over the error-type checks of each kappa, and the first few
    error messages.  ``kappa`` names the kappa the next checks belong to."""

    def __init__(self):
        self.ops = {}
        self.errors = []
        self.margins = {}
        self.kappa = None

    def op(self, kind: str, ok: bool, what: str = "", n: int = 1):
        rec = self.ops.setdefault(kind, [0, 0])
        rec[0] += n
        if not ok:
            rec[1] += n
            if len(self.errors) < 20:
                self.errors.append(f"{kind}: {what}")

    def error_check(self, err: float, tol: float, what: str) -> bool:
        """An error-type check: err <= tol, with margin log10(tol / err)."""
        if not math.isfinite(err):
            return False
        m = math.log10(tol / max(err, 1e-300))
        key = repr(self.kappa)
        if key not in self.margins or m < self.margins[key][0]:
            self.margins[key] = [m, what]
        return err <= tol


class CsvDigests:
    """SHA-256 per CSV name over the files written, in order."""

    def __init__(self):
        self.hashers = {}

    def add(self, path: Path):
        self.hashers.setdefault(path.name, hashlib.sha256()).update(path.read_bytes())

    def hexdigests(self) -> dict:
        return {name: h.hexdigest() for name, h in sorted(self.hashers.items())}


def reference_kernel():
    """Fixed work in q4lab's mix (an adaptive scipy ODE solve on small numpy
    arrays and a quadrature of a Python callable) that calls no q4lab code,
    so no change to q4lab changes its time; about 30 ms on a 2-core Xeon VM."""
    solve_ivp(lambda t, y: np.array([y[1], -y[0] - 0.1 * y[1] ** 3]), (0.0, 20.0), [1.0, 0.0],
              rtol=1e-10, atol=1e-12)
    quad(lambda x: math.sin(x) ** 2 / (1.0 + x * x), 0.0, 50.0, limit=200)


class Clock:
    """Timestamps on the system-wide monotonic clock, and the host's speed.

    The host's speed drifts by up to a third over minutes (see README.md),
    much the same for q4lab and for other code, so ``tick`` times the
    reference kernel whenever ``REF_EVERY`` seconds have passed since the
    last sample.  ``run.py`` scales the time between two samples by those
    samples and leaves the samples' own time out.
    """

    REF_EVERY = 0.5

    def __init__(self):
        self.setup = None
        self.units = []      # [operations, start, end] per timed block
        self.probes = []     # [start, end] per chebyshev_probe
        self.ref = []        # [start, seconds] per reference sample
        self.last = -math.inf

    def tick(self, force: bool = False):
        now = time.monotonic()
        if force or now - self.last >= self.REF_EVERY:
            reference_kernel()
            self.last = time.monotonic()
            self.ref.append([now, self.last - now])

    def as_dict(self) -> dict:
        return {"setup": self.setup, "units": self.units, "probes": self.probes,
                "ref": self.ref}


def _f(x) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# verify-pass: the dual-method moment table, the residual suite and orbit
# conservation at each kappa
# ---------------------------------------------------------------------------

def verify_pass(q, job, tally, csvs, out: Path, clock):
    from q4lab import cli, dynamics, quadrature
    from q4lab.model import interior_levels, make_params
    clock.setup = time.monotonic()
    for kappa, inputs in zip(job["kappas"], job["inputs"]):
        tally.kappa = kappa
        p = make_params(kappa)
        rep = cli.Report()
        for level in inputs["levels"]:
            h = interior_levels(p, 1, level, level)[0]
            t0 = time.monotonic()
            for ij in BASIS:
                idx = quadrature.MomentIndex(*ij)
                what = f"kappa={kappa!r} h={h!r} I_{ij[0]}_{ij[1]}"
                try:
                    g = quadrature.moment(idx, h, p, "green", 1e-10)
                    a = quadrature.moment(idx, h, p, "area2d", 1e-8)
                except q.Q4Error as exc:
                    tally.op("moment_pair", False, f"{what}: {exc!r}")
                    continue
                rel = abs(g.value - a.value) / max(abs(a.value), 1e-300)
                ok = tally.error_check(rel, MOMENT_TOL, "moment agreement")
                tally.op("moment_pair", ok, f"{what}: rel diff {rel:.3e}")
                rep.add(kappa, h, f"I_{ij[0]}_{ij[1]}:green", g.value, g.err_estimate, True)
                rep.add(kappa, h, f"I_{ij[0]}_{ij[1]}:agreement", rel, MOMENT_TOL, ok)
                clock.tick()
            clock.units.append([len(BASIS), t0, time.monotonic()])
        rep.write(out / "moments.csv")
        csvs.add(out / "moments.csv")

        try:
            cli.run("verify", cli.RunConfig(kappa_list=[kappa], output_dir=str(out)))
        except q.Q4Error as exc:
            tally.op("residual_row", False, f"kappa={kappa!r} verify: {exc!r}")
        else:
            path = out / cli.CSV_NAMES["verify"]
            csvs.add(path)
            for line in path.read_text().splitlines()[1:]:
                _, level, quantity, value, tol, status = line.split(",")
                ok = tally.error_check(float(value), float(tol), quantity)
                tally.op("residual_row", ok and status == cli.PASS,
                         f"kappa={kappa!r} {quantity} at {level}: {value} (tol {tol})")

        try:
            z0 = 0.3 * dynamics.basin_edge_radius(0.0, p)
            period, gap = dynamics.find_period(z0, p)
            orbit = dynamics.integrate_orbit(z0, 10.0 * period, p, tol=1e-12)
            drift = dynamics.conservation_report(orbit).max_drift
        except q.Q4Error as exc:
            tally.op("orbit", False, f"kappa={kappa!r}: {exc!r}")
            continue
        ok = tally.error_check(drift, DRIFT_TOL, "orbit drift")
        ok = tally.error_check(gap, GAP_TOL, "orbit return gap") and ok
        tally.op("orbit", ok, f"kappa={kappa!r}: drift {drift:.3e}, gap {gap:.3e}")
        rows = ["t,re_z,im_z,drift"] + [",".join(_f(x) for x in row)
                                        for row in dynamics.orbit_rows(orbit)]
        (out / "orbit.csv").write_text("\n".join(rows) + "\n")
        csvs.add(out / "orbit.csv")


# ---------------------------------------------------------------------------
# mc-sweep: the bound-chain Monte Carlo over unit-sphere weights
# ---------------------------------------------------------------------------

def mc_sweep(q, job, tally, csvs, out: Path, clock):
    from q4lab import analysis, cli, melnikov
    from q4lab.model import interior_levels, make_params
    ready = {}
    for kappa, inputs in zip(job["kappas"], job["inputs"]):
        p0 = make_params(kappa)
        try:
            analysis.bound_scanner(p0, GRID)
            ready[kappa] = p0
            clock.tick()
        except q.Q4Error as exc:
            what = f"kappa={kappa!r} scanner: {exc!r}"
            tally.op("trial", False, what, n=len(inputs["weights"]))
            tally.op("template", False, what, n=job["template_levels"])
    clock.setup = time.monotonic()

    lines = [SWEEP_HEADER]
    n_ops, t0 = 0, time.monotonic()
    for kappa, inputs in zip(job["kappas"], job["inputs"]):
        if kappa not in ready:
            continue
        for t, mu in enumerate(inputs["weights"]):
            n_ops += 1
            try:
                br = analysis.bound_pipeline(replace(ready[kappa], mu=tuple(mu)), grid=GRID,
                                             check_reconstruction=False)
            except q.Q4Error as exc:
                tally.op("trial", False, f"kappa={kappa!r} trial {t}: {exc!r}")
                continue
            tally.op("trial", br.chain_ok, f"kappa={kappa!r} trial {t}: {br.violations}")
            lines.append(f"{_f(kappa)},{t},{','.join(_f(m) for m in mu)},"
                         f"{br.count_I},{br.count_G},{br.count_R},{int(br.chain_ok)},"
                         f"{'pass' if br.chain_ok else 'flag'}")
            clock.tick()
    clock.units.append([n_ops, t0, time.monotonic()])
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    csvs.add(out / "sweep.csv")

    # the counts of R rest on the exact template: check it against the
    # direct route with the verify command's weights, as its R:exact-template
    # rows do (for random weights the relative error blows up near zeros of R)
    for kappa in job["kappas"]:
        if kappa not in ready:
            continue
        tally.kappa = kappa
        p = replace(ready[kappa], mu=cli.RunConfig().mu)
        sc = analysis.bound_scanner(p, GRID)
        for h in interior_levels(p, job["template_levels"], 0.1, 0.9):
            try:
                r1 = melnikov.eval_R(h, p, "direct")
            except q.Q4Error as exc:
                tally.op("template", False, f"kappa={kappa!r} h={h!r}: {exc!r}")
                continue
            d = sc.prop.derivs(h)
            rt = sc.rc.template(h, d[0], d[3], p.mu)
            res = abs(rt - r1) / max(abs(r1), 1e-300)
            ok = tally.error_check(res, TEMPLATE_TOL, "R:exact-template")
            tally.op("template", ok, f"kappa={kappa!r} h={h!r}: {res:.3e}")


# ---------------------------------------------------------------------------
# complex-probe: V_n sampling (real counts and keyhole winding) and the
# Chebyshev probe
# ---------------------------------------------------------------------------

def complex_probe(q, job, tally, csvs, out: Path, clock):
    from q4lab import analysis, cli
    from q4lab.model import make_params
    ready = {}
    for kappa, inputs in zip(job["kappas"], job["inputs"]):
        p = make_params(kappa)
        try:
            analysis.keyhole_contour(p, EPSILON)
            ready[kappa] = (p, analysis.j_table(p))
            clock.tick()
        except q.Q4Error as exc:
            n = sum(len(v) for v in inputs["pairs"].values())
            tally.op("element", False, f"kappa={kappa!r} contour: {exc!r}", n=n)
            tally.op("probe", False, f"kappa={kappa!r} contour: {exc!r}")
    clock.setup = time.monotonic()

    rep = cli.Report()
    n_ops, t0 = 0, time.monotonic()
    for kappa, inputs in zip(job["kappas"], job["inputs"]):
        if kappa not in ready:
            continue
        p, tab = ready[kappa]
        tally.kappa = kappa
        for n_str, coeff_list in inputs["pairs"].items():
            n = int(n_str)
            for t, coeffs in enumerate(coeff_list):
                pair = analysis.PolyPair(P=coeffs[: n + 1], Q=coeffs[n + 1:])

                def V(s, pair=pair):
                    J = tab.J(s)
                    return pair.eval_P(s).real * J[0] + pair.eval_Q(s).real * J[1]

                what = f"kappa={kappa!r} n={n} pair {t}"
                n_ops += 1
                try:
                    zr = analysis.count_zeros(V, (tab.lo, tab.hi), grid=GRID)
                    wr = analysis.winding_count(pair, p, EPSILON)
                except q.Q4Error as exc:
                    tally.op("element", False, f"{what}: {exc!r}")
                    continue
                ok = tally.error_check(wr.residual, INTEGRALITY_TOL, "integrality residual")
                ok = ok and zr.count <= 2 * n and wr.winding <= 2 * n
                tally.op("element", ok, f"{what}: real {zr.count}, winding {wr.winding}, "
                                        f"residual {wr.residual:.3e}")
                rep.add(kappa, n, "real-zeros", zr.count, 2 * n, zr.count <= 2 * n)
                rep.add(kappa, n, "winding", wr.winding, 2 * n, wr.winding <= 2 * n)
                rep.add(kappa, n, "integrality-residual", wr.residual, INTEGRALITY_TOL,
                        wr.residual <= INTEGRALITY_TOL)
                clock.tick()
    clock.units.append([n_ops, t0, time.monotonic()])
    rep.write(out / "winding.csv")
    csvs.add(out / "winding.csv")

    rep = cli.Report()
    for kappa in job["kappas"]:
        if kappa not in ready:
            continue
        p, _ = ready[kappa]
        tally.kappa = kappa
        t0 = time.monotonic()
        try:
            pr = analysis.chebyshev_probe(p, grid=GRID)
        except q.Q4Error as exc:
            tally.op("probe", False, f"kappa={kappa!r}: {exc!r}")
            continue
        clock.probes.append([t0, time.monotonic()])
        clock.tick()
        ok = tally.error_check(pr.l2_residual, L2_TOL, "L2(f) residual")
        located = pr.locate_error is not None
        ok = (located and tally.error_check(pr.locate_error, LOCATE_TOL, "h* location error")
              and ok)
        # the probe's findings are its product: h* lies in the half-line
        # interval for every kappa and in the annulus interval exactly when
        # kappa > 5, and the saddle y0 never equals the claimed value
        saddle_gap = abs(pr.saddle_y0 - pr.saddle_y0_claimed)
        findings = (pr.in_half_line_interval and saddle_gap > 0.0
                    and pr.in_annulus_interval == (kappa > 5.0))
        spans_ok = max(pr.rotation_span_window, pr.rotation_span_annulus) < math.pi
        tally.op("probe", ok and findings and spans_ok,
                 f"kappa={kappa!r}: L2 {pr.l2_residual:.3e}, locate {pr.locate_error}, "
                 f"half-line {pr.in_half_line_interval}, annulus {pr.in_annulus_interval}, "
                 f"spans {pr.rotation_span_window:.3f}/{pr.rotation_span_annulus:.3f}")
        rep.add(kappa, pr.window[0], "L2(f)-residual", pr.l2_residual, L2_TOL,
                pr.l2_residual <= L2_TOL)
        rep.add(kappa, pr.h_star, "f-zero-location-error",
                pr.locate_error if located else math.nan, LOCATE_TOL,
                located and pr.locate_error <= LOCATE_TOL)
        rep.add(kappa, pr.h_star, "h*-in-half-line-interval", int(pr.in_half_line_interval),
                0, not pr.in_half_line_interval)
        rep.add(kappa, pr.h_star, "h*-in-annulus-interval", int(pr.in_annulus_interval),
                0, not pr.in_annulus_interval)
        rep.add(kappa, pr.saddle_y0, "saddle-y0-vs-claimed", saddle_gap, 0.0,
                saddle_gap == 0.0)
        rep.add(kappa, pr.window[0], "rotation-span-window", pr.rotation_span_window,
                math.pi, pr.rotation_span_window < math.pi)
        rep.add(kappa, p.center_h, "rotation-span-annulus", pr.rotation_span_annulus,
                math.pi, pr.rotation_span_annulus < math.pi)
    rep.write(out / "cheb.csv")
    csvs.add(out / "cheb.csv")


WORKLOADS = {"verify-pass": verify_pass, "mc-sweep": mc_sweep, "complex-probe": complex_probe}


def main() -> int:
    job = json.load(sys.stdin)
    import q4lab
    clock = Clock()
    src = Path(job["src"]).resolve()
    if src not in Path(q4lab.__file__).resolve().parents:
        print(f"q4lab imported from {q4lab.__file__}, not from {src}", file=sys.stderr)
        return 1
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer(job["run_id"])
        tracing.install(tracer)
    out = Path(job["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    tally, csvs = Tally(), CsvDigests()
    clock.tick(force=True)
    WORKLOADS[job["workload"]](q4lab, job, tally, csvs, out, clock)
    clock.tick(force=True)
    result = {
        "clock": clock.as_dict(),
        "ops": tally.ops,
        "errors": tally.errors,
        "margins": tally.margins,
        "csv": csvs.hexdigests(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.write_spans(out / "spans.jsonl")
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
