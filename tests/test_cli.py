import csv
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from q4lab.cli import CSV_NAMES, RunConfig, _mu_draws, main, run


def read_report(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(kappa_list=[0.5]).validate()
        with pytest.raises(ValueError):
            RunConfig(trials=0).validate()
        with pytest.raises(ValueError):
            RunConfig(tol=-1.0).validate()
        with pytest.raises(ValueError):
            RunConfig(mu_mode="bogus").validate()

    def test_config_file_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(
            "# comment\nkappa_list = 2.0, 4.0\ntrials = 7\nseed = 11\n"
            "mu = 1, 0, 0, 0\n")
        code = main(["coeffs", "--config", str(cfgfile), "--kappa", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "coeffs.txt").exists()

    def test_bad_config_exits_1(self, tmp_path):
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("kappa_list = 0.2\n")
        assert main(["verify", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")]) == 1

    def test_bad_mu_exits_1(self, tmp_path):
        assert main(["zeros", "--mu", "1,2,3", "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command,mu", [("coeffs", "1,2,3,4,5"), ("zeros", "1,2,3")])
    def test_config_file_mu_needs_four_weights(self, tmp_path, capsys, command, mu):
        # a config file's mu once skipped the check that only --mu had
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"mu = {mu}\n")
        assert main([command, "--config", str(cfgfile), "--kappa", "4",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: mu needs four weights" in capsys.readouterr().err
        with pytest.raises(ValueError, match="four weights"):
            RunConfig(mu=(1.0, 2.0, 3.0)).validate()

    def test_zero_workers_exits_1(self, tmp_path, capsys):
        # --workers 0 once ran serially without a word
        assert main(["sweep", "--kappa", "4", "--trials", "2", "--workers", "0",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mu", ["nan,1,0,0", "1,inf,0,0", "1,0,0,-inf"])
    def test_non_finite_mu_exits_1(self, tmp_path, capsys, mu):
        # NaN weights once counted no zero of I, G or R and passed every check
        out = tmp_path / "o"
        assert main(["zeros", "--kappa", "4", "--mu", mu, "--out", str(out)]) == 1
        assert "every weight in mu must be finite" in capsys.readouterr().err
        assert not (out / "zeros.csv").exists()
        with pytest.raises(ValueError, match="must be finite"):
            RunConfig(mu=(1.0, float("nan"), 0.0, 0.0)).validate()

    def test_grid_below_64_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--kappa", "4", "--trials", "2", "--grid", "10",
                     "--out", str(tmp_path / "o")]) == 1
        assert "a scan grid needs at least 64 nodes, got 10" in capsys.readouterr().err


class TestCommands:
    def test_verify_passes(self, tmp_path):
        code = run("verify", RunConfig(kappa_list=[4.0],
                                       output_dir=str(tmp_path)))
        assert code == 0
        rows = read_report(tmp_path / "residuals.csv")
        assert rows and all(r["status"] == "pass" for r in rows)
        assert set(rows[0]) == {"kappa", "level", "quantity", "value",
                                "tolerance", "status"}

    def test_zeros_zero_weights(self, tmp_path):
        code = run("zeros", RunConfig(kappa_list=[4.0], mu=(0, 0, 0, 0),
                                      output_dir=str(tmp_path)))
        assert code == 0
        rows = read_report(tmp_path / "zeros.csv")
        counts = [r for r in rows if r["quantity"].startswith("count:")]
        assert counts and all(r["value"] == "0" for r in counts)

    def test_cheb_flags_findings(self, tmp_path):
        code = run("cheb", RunConfig(kappa_list=[4.0], output_dir=str(tmp_path)))
        assert code == 2  # the discrepancy findings are the product
        rows = read_report(tmp_path / "cheb.csv")
        flagged = {r["quantity"] for r in rows if r["status"] == "flag"}
        assert "h*-in-half-line-interval" in flagged

    def test_winding_small(self, tmp_path):
        code = run("winding", RunConfig(kappa_list=[4.0], trials=5,
                                        output_dir=str(tmp_path)))
        assert code == 0
        rows = read_report(tmp_path / "winding.csv")
        assert all(r["status"] == "pass" for r in rows)

    def test_dyn(self, tmp_path):
        code = run("dyn", RunConfig(kappa_list=[4.0], output_dir=str(tmp_path)))
        assert code == 0
        with open(tmp_path / "orbit.csv") as fh:
            header = fh.readline().strip()
        assert header == "t,re_z,im_z,drift"

    # orbit.csv of the period search that integrated to PERIOD_T_MAX: stopping
    # at the first return must leave T, and so every sample, bit for bit.
    # Re-pinned when find_period stopped counting its start time 1e-6 in T:
    # each run lasts 10 T, so every sample time moved
    ORBIT_GOLDEN_SHA256 = "a0c5999e2a8b693b01b27c3af2608fe0f76ab445fcc19375454a3189e3420ef7"

    def test_dyn_golden_bytes(self, tmp_path):
        cfg = RunConfig(kappa_list=[1.7, 4.0, 8.5], output_dir=str(tmp_path))
        assert run("dyn", cfg) == 0
        data = (tmp_path / "orbit.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.ORBIT_GOLDEN_SHA256

    def test_sweep_deterministic_bytes(self, tmp_path):
        cfg = dict(kappa_list=[2.0], mu_mode="random_sphere", trials=12, seed=42)
        run("sweep", RunConfig(**cfg, output_dir=str(tmp_path / "a")))
        run("sweep", RunConfig(**cfg, output_dir=str(tmp_path / "b")))
        a = (tmp_path / "a" / "sweep.csv").read_bytes()
        b = (tmp_path / "b" / "sweep.csv").read_bytes()
        assert a == b

    def test_sweep_bytes_independent_of_workers(self, tmp_path):
        cfg = dict(kappa_list=[2.0, 4.0], mu_mode="random_sphere", trials=10, seed=7)
        run("sweep", RunConfig(**cfg, workers=1, output_dir=str(tmp_path / "w1")))
        run("sweep", RunConfig(**cfg, workers=2, output_dir=str(tmp_path / "w2")))
        a = (tmp_path / "w1" / "sweep.csv").read_bytes()
        b = (tmp_path / "w2" / "sweep.csv").read_bytes()
        assert a.count(b"\n") == 21  # header + 2 kappas x 10 trials
        assert a == b

    # sweep.csv holds counts only, so a change to how the moments are
    # evaluated must leave its bytes alone.  The closed-form rows corrected
    # count_R of these nine trials from 1 to 0: the DOP853 route placed a zero
    # of R next to the center where 40-digit R has none
    # (test_analysis.py::TestCenterExpansion).  Re-pinned when
    # unit_sphere_weights summed its four squares in a fixed order instead of
    # a BLAS dot: 38 of the 300 rows moved, in their weight columns only
    GOLDEN_SHA256 = "f2e90826fb526cd2afe839fd6da217325dd5fcd5c9b62ef66e43cefb7598bf88"
    R_ZERO_AT_CENTER_DROPPED = {("1.5", t) for t in ("1", "5", "6", "49", "67")} | {
        ("4.0", "40"), ("4.0", "59"), ("9.0", "68"), ("9.0", "87")}

    def test_sweep_golden_bytes(self, tmp_path):
        cfg = RunConfig(kappa_list=[1.5, 4.0, 9.0], mu_mode="random_sphere", trials=100,
                        seed=7, output_dir=str(tmp_path))
        run("sweep", cfg)
        data = (tmp_path / "sweep.csv").read_bytes()
        rows = read_report(tmp_path / "sweep.csv")
        assert {(r["kappa"], r["trial"]) for r in rows if r["count_R"] == "0"} \
            >= self.R_ZERO_AT_CENTER_DROPPED
        assert hashlib.sha256(data).hexdigest() == self.GOLDEN_SHA256

    # `q4lab sweep --kappa 4 --trials 300 --seed 7`, the sweep that CI pins
    SWEEP_KAPPA4_SHA256 = "e621af73a3af4ed6827c76ecd0f00194898d92af304cdbf7bcde0bbd37eecc8c"

    @staticmethod
    def _openblas_kernels():
        """The OpenBLAS kernels this CPU runs, of SkylakeX, Haswell and
        Prescott, or [] when numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS,
        whose kernel OPENBLAS_CORETYPE sets at import."""
        import numpy as np
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if ("DYNAMIC_ARCH" not in blas.get("openblas configuration", "")
                or platform.machine().lower() not in ("x86_64", "amd64")):
            return []
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
        need = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Prescott": "SSE3"}
        return [core for core, feature in need.items() if cpu.get(feature)]

    def _digests_under_kernels(self, tmp_path, args, exit_code=0):
        """The sha256 of the CSV that ``q4lab <args>`` writes, per OpenBLAS
        kernel, each run in its own process; skips with fewer than two kernels."""
        kernels = self._openblas_kernels()
        if len(kernels) < 2:
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS with two kernels to run")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = {}
        for core in kernels:
            env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=os.pathsep.join(
                [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
            done = subprocess.run([sys.executable, "-m", "q4lab.cli", *args,
                                   "--out", str(tmp_path / core)], env=env, capture_output=True)
            assert done.returncode == exit_code, (core, done.stderr)
            digests[core] = hashlib.sha256(
                (tmp_path / core / CSV_NAMES[args[0]]).read_bytes()).hexdigest()
        return digests

    def test_sweep_bytes_independent_of_blas_kernel(self, tmp_path):
        digests = self._digests_under_kernels(
            tmp_path, ["sweep", "--kappa", "4", "--trials", "300", "--seed", "7"])
        assert digests == dict.fromkeys(digests, self.SWEEP_KAPPA4_SHA256)

    @pytest.mark.parametrize("command", ["winding", "cheb"])
    def test_winding_and_cheb_bytes_independent_of_blas_kernel(self, tmp_path, command):
        # the winding counts and count_zeros, the two halves of a V_n element
        if command == "winding":
            args, want, code = (["winding", "--kappa", "2", "--kappa", "7", "--trials", "20",
                                 "--seed", "7"], self.WINDING_GOLDEN_SHA256, 0)
        else:
            args, want, code = ["cheb", "--kappa", "4"], self.CHEB_GOLDEN_SHA256, 2
        digests = self._digests_under_kernels(tmp_path, args, exit_code=code)
        assert digests == dict.fromkeys(digests, want)

    # winding.csv with F = P + Q J2 / J1 summed from the contour's columns of
    # s^k; against Horner and (P J1 + Q J2) / J1 only the six
    # worst-integrality-residual rows moved, by at most 1.2e-14.  Re-pinned
    # when F was evaluated on the upper half of the keyhole only: four of
    # those rows moved (kappa 2, levels 1 and 2; kappa 7, levels 1 and 3), by
    # at most 1.2e-15
    WINDING_GOLDEN_SHA256 = "fd2824c946d1efb5bec1b4644d77cddf29e2d35d5ed7b1b799a90827bc1a03ca"

    def test_winding_golden_bytes(self, tmp_path):
        cfg = RunConfig(kappa_list=[2.0, 7.0], trials=20, seed=7, output_dir=str(tmp_path))
        assert run("winding", cfg) == 0
        data = (tmp_path / "winding.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.WINDING_GOLDEN_SHA256

    # `q4lab cheb --kappa 4`, which exits 2 because the probe flags its findings:
    # count_zeros locates f's zero, so this pins the other half of a V_n element
    CHEB_GOLDEN_SHA256 = "0481436397f67a452c18d42c6031e778da6171466eed2f1ecfaa89a62525397e"

    def test_cheb_golden_bytes(self, tmp_path):
        assert main(["cheb", "--kappa", "4", "--out", str(tmp_path)]) == 2
        data = (tmp_path / "cheb.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.CHEB_GOLDEN_SHA256

    # coeffs.txt prints the exact R-template Fractions; recorded from the
    # generic rational-function extraction, before the closed-form table
    COEFFS_GOLDEN_SHA256 = "327be679eacbc6f92fb9bfb8a553cc56a9cc8f174094abc201e3fa6cfc5e38b9"

    def test_coeffs_golden_bytes(self, tmp_path):
        assert main(["coeffs", "--kappa", "1.5", "--kappa", "4", "--kappa", "9",
                     "--out", str(tmp_path)]) == 0
        data = (tmp_path / "coeffs.txt").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.COEFFS_GOLDEN_SHA256

    # green's moments and every row built on them, after every ray, slice
    # and row-crossing cubic moved onto cubic_real_roots: green moved by at
    # most 5.8e-16 relative, and no row changed its status.  Re-pinned when
    # area2d's bounding box moved from bisection to Newton: 12 of the 48
    # agreement rows moved (area2d by at most 6 ulps), green did not
    MOMENTS_GOLDEN_SHA256 = "1060b4936734c0d046bdad0a5477fa2a0ff03ec62e731e31bdbc2accbc78be50"
    RESIDUALS_GOLDEN_SHA256 = "7e29b19a708b9d72b8245c84121093889b7ad7bada8b5a6ac3c26b065b8c1a8d"

    @pytest.mark.parametrize("command", ["moments", "verify"])
    def test_moments_and_residuals_golden_bytes(self, tmp_path, command):
        assert main([command, "--kappa", "4", "--out", str(tmp_path)]) == 0
        data = (tmp_path / CSV_NAMES[command]).read_bytes()
        want = self.MOMENTS_GOLDEN_SHA256 if command == "moments" else self.RESIDUALS_GOLDEN_SHA256
        assert hashlib.sha256(data).hexdigest() == want

    def test_sweep_kappas_draw_distinct_streams(self, tmp_path):
        # each kappa draws from its own spawned child of the seed, the
        # stream zeros --mu_mode random_sphere uses for that kappa
        cfg = RunConfig(kappa_list=[2.0, 4.0], mu_mode="random_sphere", trials=4,
                        seed=7, output_dir=str(tmp_path))
        run("sweep", cfg)
        rows = read_report(tmp_path / "sweep.csv")
        mus = {}
        for r in rows:
            mus.setdefault(float(r["kappa"]), []).append(
                tuple(float(r[f"mu{i}"]) for i in range(1, 5)))
        assert mus[2.0] != mus[4.0]
        assert mus[2.0] == _mu_draws(cfg, 0)
        assert mus[4.0] == _mu_draws(cfg, 1)

    def test_entry_point_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "q4lab.cli", "coeffs", "--kappa", "4",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert out.returncode == 0
        assert "exit 0" in out.stdout
        # the package does not import q4lab.cli before runpy executes it
        assert "RuntimeWarning" not in out.stderr
