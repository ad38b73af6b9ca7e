"""Smoke runs of the experiment scripts with small arguments, each checked
against its documented exit code."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_winding_demo():
    out = _run_script("winding_demo.py", "--trials", "2")
    assert out.returncode == 0, out.stderr
    assert "closed form vs continuation" in out.stdout
    assert out.stdout.count("winding") == 2


def test_probe_chebyshev_exits_2_by_design():
    # h* lies on the half-line (-inf, saddle) for every kappa > 1
    out = _run_script("probe_chebyshev.py", "--kappa", "4")
    assert out.returncode == 2, out.stderr
    assert "kappa = 4.0" in out.stdout


def test_sweep_bounds():
    out = _run_script("sweep_bounds.py", "--trials", "5", "--seed", "3",
                      "--grid", "128", "--kappa", "1.5", "--kappa", "9")
    assert out.returncode == 0, out.stderr
    assert "chain violations: 0" in out.stdout
