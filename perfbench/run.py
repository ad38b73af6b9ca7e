"""q4lab benchmark: cold-process workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The kappas, the unit-sphere weights and the
V_n pairs are drawn from ``--seed``; q4lab receives only these inputs.
Every episode runs in a fresh interpreter (``episode.py``, with ``src`` on
``PYTHONPATH`` and BLAS pinned to one thread), one after another, so a run
measures the program on one core and never a warm per-kappa cache.
Each episode also times a fixed scipy kernel between operations, and the
times reported are seconds at that kernel's reference speed (``REF_S``;
see ``host_scaled``), because the host's speed drifts from minute to minute.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the ``end_to_end`` metrics of ``BENCHMARK.json``.  With ``--trace 1``
the same episodes run once untraced and once traced, and the metrics are
the ``per_layer`` ones, plus the tracing overhead.  The lines before it
give the machine, the inputs, the metrics under their per-workload names,
failures per operation kind and the CSV digests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EPISODE = HERE / "episode.py"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
RUN_LIMIT_S = 170.0
# the reference kernel's time (episode.reference_kernel) on the 2-core
# 2.1 GHz Xeon VM of baseline.json on a quiet minute; times are scaled to it
REF_S = 0.030

KAPPA_LO, KAPPA_HI = 1.5, 9.0
# BLAS gets one thread: the matrices are 2x2 to 6x6, and spinning threads
# on a small machine would measure the scheduler
CHILD_ENV = {name: "1" for name in
             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}

# strata: equal-width strata of log kappa; each round draws one u per
# stratum and uses both u and 1 - u, so a run covers the range evenly
# and its cost depends little on the seed.  With three strata the top one
# is [4.95, 9], and 5 lies in its lowest 2%, so its antithetic pair always
# puts one kappa above 5.
# verify-pass puts one of two interleaved sets of three annulus levels on
# each kappa; together they are six levels evenly spread over 0.08 to 0.92.
# The set alternates over the strata and the rounds, and both kappas of an
# antithetic pair get the same set: the cost of area2d depends jointly on
# kappa and level, and erratically, so a pair that split its levels would
# let u decide how costly the run is.
# round_s: measured seconds of one round at the seed commit (2-core
# sandbox); --seconds sets the number of rounds, the same on every commit.
WORKLOADS = {
    "verify-pass": dict(strata=3, per_episode=1, round_s=50.0, unit="moment_pair"),
    "mc-sweep": dict(strata=3, per_episode=3, round_s=10.0, unit="trial",
                     trials=160, template_levels=5),
    "complex-probe": dict(strata=3, per_episode=1, round_s=41.0, unit="element",
                          pairs_per_degree=40),
}
LEVEL_SETS = tuple([round(q, 3) for q in np.linspace(0.08, 0.92, 6)[i::2]] for i in (0, 1))
RATE_NAMES = {"moment_pair": "moment_pairs_per_s", "trial": "trials_per_s",
              "element": "elements_per_s"}

# per-layer metric prefix -> (end-to-end metric it should move, workload)
LAYER_TARGETS = {
    "model.oval": ("moment_pairs_per_s", "verify-pass"),
    "model.Oval.bounding_box": ("moment_pairs_per_s", "verify-pass"),
    "model.real_roots_y": ("probe_s", "complex-probe"),
    "quadrature.moment.area2d": ("moment_pairs_per_s, wall_s", "verify-pass"),
    "quadrature.moment.hit_ratio": ("moment_pairs_per_s, wall_s", "verify-pass"),
    "quadrature.moment.green": ("wall_s", "verify-pass"),
    "quadrature.basis_values": ("setup_s", "mc-sweep, complex-probe"),
    "reduction.recurrence_residual": ("wall_s", "verify-pass"),
    "reduction.assemble_I": ("wall_s", "verify-pass"),
    "reduction.mu_G_from_eq211": ("trials_per_s", "mc-sweep"),
    "picard_fuchs.PFPropagation.init_s": ("setup_s", "mc-sweep"),
    "picard_fuchs.solve_ivp": ("setup_s", "mc-sweep"),
    "picard_fuchs.PFPropagation.derivs": ("trials_per_s", "mc-sweep"),
    "picard_fuchs.continue_state": ("setup_s", "complex-probe"),
    "picard_fuchs.initial_jstate": ("setup_s", "complex-probe"),
    "picard_fuchs.propagate_J": ("wall_s", "verify-pass"),
    "picard_fuchs.infinity_exponents": ("wall_s", "verify-pass"),
    "melnikov.extract_R_coeffs": ("setup_s", "mc-sweep"),
    "melnikov.get_propagation": ("setup_s", "mc-sweep"),
    "melnikov.eval_R": ("wall_s", "verify-pass"),
    "analysis.bound_scanner": ("setup_s", "mc-sweep"),
    "analysis.bound_pipeline": ("trials_per_s", "mc-sweep"),
    "analysis.BoundScanner.count": ("trials_per_s", "mc-sweep"),
    "analysis.brentq": ("trials_per_s", "mc-sweep"),
    "analysis.keyhole_contour": ("setup_s", "complex-probe"),
    "analysis.j_table": ("setup_s", "complex-probe"),
    "analysis.winding_count": ("elements_per_s", "complex-probe"),
    "analysis.count_zeros": ("elements_per_s", "complex-probe"),
    "analysis.L2Frame": ("probe_s", "complex-probe"),
    "analysis.chebyshev_probe": ("probe_s", "complex-probe"),
    "analysis.solve_ivp": ("probe_s", "complex-probe"),
    "dynamics": ("wall_s", "verify-pass"),
    "bench.trace_overhead_s": ("nothing: the cost of tracing", "the traced run"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def draw_kappas(rng, strata: int, rounds: int) -> list[float]:
    """Log-uniform kappas in [KAPPA_LO, KAPPA_HI], stratified, in antithetic
    halves: each consecutive block of ``strata`` kappas covers every stratum."""
    edges = [math.log(KAPPA_LO) + i * math.log(KAPPA_HI / KAPPA_LO) / strata
             for i in range(strata + 1)]
    kappas = []
    for _ in range(rounds):
        u = rng.random(strata)
        for side in (u, 1.0 - u):
            kappas += [math.exp(lo + s * (hi - lo))
                       for lo, hi, s in zip(edges[:-1], edges[1:], side)]
    return kappas


def unit_rows(rng, rows: int, cols: int) -> list:
    """Rows drawn uniformly on the unit sphere, as cli's sweep draws weights."""
    a = rng.normal(size=(rows, cols))
    return (a / np.linalg.norm(a, axis=1, keepdims=True)).tolist()


def make_inputs(cfg: dict, rng) -> dict:
    if "trials" in cfg:
        return {"weights": unit_rows(rng, cfg["trials"], 4)}
    if "pairs_per_degree" in cfg:
        return {"pairs": {str(n): unit_rows(rng, cfg["pairs_per_degree"], 2 * n + 1)
                          for n in (1, 2, 3)}}
    return {}


def make_plan(workload: str, seed: int, seconds: int) -> list[dict]:
    cfg = WORKLOADS[workload]
    rounds = max(1, round(seconds / cfg["round_s"]))
    kappa_seq, input_seq = np.random.SeedSequence(seed).spawn(2)
    kappas = draw_kappas(np.random.default_rng(kappa_seq), cfg["strata"], rounds)
    inputs = [make_inputs(cfg, np.random.default_rng(s))
              for s in input_seq.spawn(len(kappas))]
    if cfg["unit"] == "moment_pair":
        n = cfg["strata"]
        inputs = [{"levels": LEVEL_SETS[(i % n + i // (2 * n)) % 2]}
                  for i in range(len(kappas))]
    per = cfg["per_episode"]
    return [dict(cfg, workload=workload, kappas=kappas[i:i + per], inputs=inputs[i:i + per])
            for i in range(0, len(kappas), per)]


def run_episodes(plan: list[dict], label: str, trace: bool, deadline: float) -> list[dict]:
    out_root = OUT / label
    shutil.rmtree(out_root, ignore_errors=True)
    env = dict(os.environ, **CHILD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    results = []
    for i, job in enumerate(plan):
        job = dict(job, trace=trace, run_id=f"{label}/ep{i}", out_dir=str(out_root / f"ep{i}"),
                   src=str(ROOT / "src"))
        launch = time.monotonic()
        if launch >= deadline:
            raise BenchError(f"out of time before episode {i} of {label}")
        try:
            proc = subprocess.run([sys.executable, str(EPISODE)], input=json.dumps(job),
                                  capture_output=True, text=True, env=env, cwd=ROOT,
                                  timeout=deadline - launch)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"episode {i} of {label} ran out of time") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"episode {i} of {label} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
        res = json.loads(proc.stdout.splitlines()[-1])
        res["launch"], res["done"] = launch, time.monotonic()
        results.append(res)
    return results


def summarize(results: list[dict]) -> dict:
    """End-to-end figures of one pass over the plan."""
    ops, failed = {}, 0
    for r in results:
        for kind, (a, f) in r["ops"].items():
            rec = ops.setdefault(kind, [0, 0])
            rec[0] += a
            rec[1] += f
            failed += f
    attempted = sum(a for a, _ in ops.values())
    margins = [m for r in results for m in r["margins"].values()]
    tightest = min(margins, default=[math.nan, None])
    csv = {}
    for r in results:
        for name, digest in r["csv"].items():
            csv.setdefault(name, []).append(digest)
    walls, setups, units, unit_s, probes = [], [], 0, 0.0, []
    for r in results:
        c, span = r["clock"], host_scaled(r)
        walls.append(span(r["launch"], r["done"]))
        setups.append(span(r["launch"], c["setup"]))
        units += sum(n for n, _, _ in c["units"])
        unit_s += sum(span(a, b) for _, a, b in c["units"])
        probes += [span(a, b) for a, b in c["probes"]]
    return {
        "wall_s": statistics.fmean(walls),
        "run_s": results[-1]["done"] - results[0]["launch"],
        "ref_ms": 1e3 * statistics.median(d for r in results for _, d in r["clock"]["ref"]),
        "setup_s": statistics.median(setups),
        "ops_per_s": units / unit_s if unit_s > 0 else math.nan,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "tol_margin_digits": statistics.fmean(m for m, _ in margins) if margins else math.nan,
        "tightest": tightest,
        "probe_s": statistics.median(probes) if probes else None,
        "ops": ops, "attempted": attempted, "failed": failed,
        "errors": [e for r in results for e in r["errors"]][:20],
        "csv": {name: _combine(digests) for name, digests in sorted(csv.items())},
    }


def host_scaled(result: dict):
    """The episode's intervals in seconds at the reference speed.

    The reference samples cut the episode into gaps; the time an interval
    spends in a gap is scaled by REF_S over the mean of the samples that
    bound that gap (the one sample, before the first or after the last),
    and the samples' own time is left out.
    """
    ref = result["clock"]["ref"]
    gaps = [(-math.inf, ref[0][0], REF_S / ref[0][1])]
    gaps += [(t0 + d0, t1, 2.0 * REF_S / (d0 + d1)) for (t0, d0), (t1, d1) in zip(ref, ref[1:])]
    gaps.append((ref[-1][0] + ref[-1][1], math.inf, REF_S / ref[-1][1]))

    def span(a: float, b: float) -> float:
        return sum(scale * max(0.0, min(b, hi) - max(a, lo)) for lo, hi, scale in gaps)
    return span


def _combine(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def per_layer(results: list[dict], names: list[str]) -> dict:
    stats, counts, durations = {}, {}, {}
    for r in results:
        tr = r["trace"]
        for name, (calls, self_s, total_s) in tr["stats"].items():
            st = stats.setdefault(name, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += self_s
            st[2] += total_s
        for name, n in tr["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, ds in tr["durations"].items():
            durations.setdefault(name, []).extend(ds)
    values = {}
    for metric in names:
        base, stat = metric.rsplit(".", 1)
        if stat == "calls":
            v = stats[base][0] if base in stats else counts.get(metric, 0)
        elif stat == "self_s":
            v = stats.get(base, [0, 0.0])[1]
        elif stat == "init_s":
            v = stats.get(base + ".init", [0, 0.0, 0.0])[2]
        elif stat == "p99_ms":
            ds = durations.get(base, [])
            v = 1e3 * (statistics.quantiles(ds, n=100)[98] if len(ds) > 1 else sum(ds))
        elif stat == "nfev":
            v = counts.get(metric, 0)
        elif stat == "hit_ratio":
            calls = counts.get(base + ".calls", 0)
            v = counts.get(base + ".hits", 0) / calls if calls else 0.0
        else:
            continue
        values[metric] = v
    return values


def git_sha() -> str | None:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine() -> dict:
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "child_env": CHILD_ENV, "git": git_sha(),
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    return f"  {name:<44} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "q4lab" / "__init__.py").is_file():
        print(f"run.py: no q4lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = WORKLOADS[args.workload]
    plan = make_plan(args.workload, args.seed, args.seconds)
    kappas = [k for job in plan for k in job["kappas"]]
    if args.workload == "complex-probe" and not (min(kappas) < 5.0 < max(kappas)):
        raise BenchError("complex-probe needs kappas on both sides of 5")

    print(f"machine {json.dumps(machine())}")
    print(f"workload {args.workload} seed {args.seed}: {len(plan)} cold episodes, "
          f"kappas {[round(k, 4) for k in kappas]}")
    deadline = start + RUN_LIMIT_S
    label = f"{args.workload}/timed"
    runs = {"timed": run_episodes(plan, label, False, deadline)}
    if args.trace:
        runs["traced"] = run_episodes(plan, f"{args.workload}/traced", True, deadline)
    sums = {name: summarize(res) for name, res in runs.items()}
    timed = sums["timed"]

    correct = all(s["failed"] == 0 for s in sums.values())
    print(f"end to end (tracing off; seconds at the reference speed, {1e3 * REF_S:g} ms per "
          f"reference kernel; this run's median sample {timed['ref_ms']:.2f} ms):")
    print(_line("wall_s", timed["wall_s"], "s", "(mean episode: launch to outputs checked)"))
    print(_line("setup_s", timed["setup_s"], "s", "(median episode: launch to per-kappa state)"))
    print(_line("run_s", timed["run_s"], "s", f"(all {len(plan)} episodes)"))
    print(_line(RATE_NAMES[cfg["unit"]], timed["ops_per_s"], "1/s",
                f"(ops_per_s: {timed['ops'].get(cfg['unit'], [0])[0]} {cfg['unit']}s "
                f"over all timed blocks)"))
    if timed["probe_s"] is not None:
        print(_line("probe_s", timed["probe_s"], "s", "(median chebyshev_probe per kappa)"))
    print(_line("peak_rss_mb", timed["peak_rss_mb"], "MB"))
    print(_line("failed_frac", timed["failed"] / max(timed["attempted"], 1), "ratio",
                f"({timed['failed']} of {timed['attempted']})"))
    print(_line("tol_margin_digits", timed["tol_margin_digits"], "decades",
                f"(mean over kappas; tightest {timed['tightest'][0]:.4g}: "
                f"{timed['tightest'][1]})"))
    for i, r in enumerate(runs["timed"]):
        c = r["clock"]
        print(f"  episode {i} (unscaled): kappas {[round(k, 4) for k in plan[i]['kappas']]} "
              f"wall {r['done'] - r['launch']:.3f} s, setup {c['setup'] - r['launch']:.3f} s, "
              f"{cfg['unit']}s {[(n, round(b - a, 3)) for n, a, b in c['units']]}, "
              f"probes {[round(b - a, 3) for a, b in c['probes']]}, "
              f"{len(c['ref'])} reference samples, median "
              f"{1e3 * statistics.median(d for _, d in c['ref']):.2f} ms")
    for kind, (a, f) in sorted(timed["ops"].items()):
        print(f"  operations {kind}: {a} attempted, {f} failed")
    for err in timed["errors"]:
        print(f"  failure: {err}")

    reference = {}
    if BASELINE.is_file():
        reference = (json.loads(BASELINE.read_text()).get("csv", {})
                     .get(args.workload, {}).get(str(args.seed), {}))
    for name, digest in timed["csv"].items():
        drift = ("no reference" if name not in reference
                 else "same" if reference[name] == digest else "DRIFT")
        print(f"csv {name} sha256 {digest} ({drift} against baseline.json)")

    if args.trace:
        traced = sums["traced"]
        if traced["csv"] != timed["csv"]:
            correct = False
            print("traced and untraced passes wrote different CSV bytes")
        overhead = traced["wall_s"] - timed["wall_s"]
        names = [m["name"] for m in spec["per_layer"]]
        values = per_layer(runs["traced"], names)
        values["bench.trace_overhead_s"] = overhead
        print(f"per layer (traced pass; spans in {OUT / args.workload / 'traced'}/ep*/spans.jsonl):")
        for m in spec["per_layer"]:
            target = next((t for p, t in LAYER_TARGETS.items() if m["name"].startswith(p)),
                          ("?", "?"))
            print(_line(m["name"], values[m["name"]], m["unit"],
                        f"moves {target[0]} on {target[1]}"))
        print(f"tracing overhead: traced wall_s {traced['wall_s']:.3f} s - untraced "
              f"{timed['wall_s']:.3f} s = {overhead:.3f} s (whole runs: "
              f"{traced['run_s']:.3f} s and {timed['run_s']:.3f} s)")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": timed[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in sums.values()),
        "failed": sum(s["failed"] for s in sums.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
