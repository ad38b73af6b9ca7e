"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME]... [--trace]
                                 [--write-baseline]

For every workload and metric this prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (q3 - q1) /
median, and that spread as a share of the metric's bound.  With
``--write-baseline`` the figures, the machine and the CSV digests per seed
are written to ``perfbench/baseline.json``; ``run.py`` compares its CSV
digests against that file.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    out["csv"] = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("csv ")}
    out["machine"] = next(json.loads(ln[8:]) for ln in lines if ln.startswith("machine "))
    return out


def spread_table(runs: list[dict], metrics: list[dict]) -> dict:
    table = {}
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        table[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                            "values": values}
        share = f"{spread / m['bound']:6.2f} of bound {m['bound']}" if "bound" in m else ""
        print(f"  {m['name']:<44} median {med:12.6g} {m['unit']:<7} "
              f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.4f} {share}".rstrip())
        print("    values " + " ".join(f"{v:.5g}" for v in values))
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    kind = "per_layer" if args.trace else "end_to_end"
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            r = runs[-1]
            print(f"{workload} seed {seed}: correct {r['correct']}, "
                  f"failed {r['failed']} of {r['attempted']}", flush=True)
        print(f"{workload}: {len(runs)} seeds, run_seconds {spec['run_seconds']}")
        table = spread_table(runs, spec[kind])
        baseline.setdefault(kind, {})[workload] = table
        if not args.trace:
            baseline.setdefault("csv", {})[workload] = {
                str(seed): r["csv"] for seed, r in zip(seeds, runs)}
        baseline["machine"] = runs[-1]["machine"]
    if args.write_baseline:
        baseline[f"{kind}_seeds"] = seeds
        baseline["run_seconds"] = spec["run_seconds"]
        BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
