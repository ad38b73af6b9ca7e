import csv
import hashlib
import subprocess
import sys

import pytest

from q4lab.cli import RunConfig, _mu_draws, main, run


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
    # (test_analysis.py::TestCenterExpansion)
    GOLDEN_SHA256 = "c814d7f74564ee849b16868cfc0072ee9ef74b2dd6872f7d6ca1abd80888daad"
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

    # winding.csv from the per-element keyhole loop, before the contour kept
    # its terms in J alone and the J table its values on the scan grid
    WINDING_GOLDEN_SHA256 = "0c3ef06fc79339621c6187fdebfc51ee1676d102b0d74d247c4531c142dade67"

    def test_winding_golden_bytes(self, tmp_path):
        cfg = RunConfig(kappa_list=[2.0, 7.0], trials=20, seed=7, output_dir=str(tmp_path))
        assert run("winding", cfg) == 0
        data = (tmp_path / "winding.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.WINDING_GOLDEN_SHA256

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
