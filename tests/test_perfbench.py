"""perfbench traces q4lab names from outside the package (its
``tracing.SPANS`` and ``COUNTERS``); each must still exist and be reached."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHECK = """
import json
import q4lab
from q4lab import analysis, melnikov, make_params, quadrature
from tracing import Tracer, install

tracer = Tracer("names")
install(tracer)  # raises AttributeError for a traced name that is gone
p = make_params(4.0, mu=(1.0, 0.5, -0.5, 0.25))
analysis.bound_pipeline(p, grid=64, check_reconstruction=False)
analysis.bound_scanner(p, 64).count("R", p.mu)  # bound_pipeline scans without count
melnikov.get_propagation(p)
# basis_values refines its batch without moment(), so ask moment() directly
quadrature.moment(quadrature.MomentIndex(1, 0), -0.5, p, "green", 1e-10)
tab = analysis.j_table(p)
analysis.count_zeros(lambda s: tab.J(s)[0] - 1.0, (tab.lo, tab.hi), grid=64)
analysis.winding_count(analysis.PolyPair(P=(1.0, 0.5), Q=(0.2,)), p)
print(json.dumps({"spans": sorted(tracer.stats), "counts": sorted(tracer.counts)}))
"""


def test_traced_names_exist_and_are_reached():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", _CHECK], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    for span in ("analysis.bound_scanner", "analysis.bound_pipeline",
                 "analysis.BoundScanner.count.R", "melnikov.extract_R_coeffs",
                 "melnikov.get_propagation", "picard_fuchs.PFPropagation.init",
                 "quadrature.basis_values", "quadrature.moment.green", "model.oval",
                 "analysis.j_table", "analysis.count_zeros", "analysis.keyhole_contour",
                 "analysis.winding_count"):
        assert span in seen["spans"], span
    for count in ("melnikov.get_propagation.calls", "quadrature.moment.calls"):
        assert count in seen["counts"], count
    # the traced propagation build takes Taylor steps: no DOP853 call is counted
    assert "picard_fuchs.solve_ivp.nfev" not in seen["counts"]
