import csv
import hashlib
import subprocess
import sys

import pytest

from conftest import kernel_env, openblas_kernels
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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            RunConfig(tol=tol).validate()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_1(self, tmp_path, capsys, tol):
        # --tol nan once flagged every agreement row and exited 2, and
        # --tol inf passed every row and exited 0
        assert main(["moments", "--kappa", "4", "--tol", tol,
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: tol must be finite and positive" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text(f"tol = {tol}\n")
        assert main(["moments", "--config", str(cfgfile), "--kappa", "4",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: tol must be finite and positive" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_seed_must_be_non_negative(self):
        RunConfig(seed=0).validate()
        with pytest.raises(ValueError, match="seed must be >= 0"):
            RunConfig(seed=-1).validate()

    @pytest.mark.parametrize("command", ["sweep", "winding"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        # a negative seed once reached numpy's SeedSequence and exited 1
        # with a traceback, after the output directory was made
        assert main([command, "--kappa", "4", "--trials", "3", "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        cfgfile = tmp_path / "cfg"
        cfgfile.write_text("seed = -1\nmu_mode = random_sphere\n")
        assert main(["zeros", "--config", str(cfgfile), "--kappa", "4",
                     "--out", str(tmp_path / "o")]) == 1
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_and_epsilon_ranges(self):
        RunConfig(grid=64, epsilon=0.049).validate()
        with pytest.raises(ValueError, match="a scan grid needs at least 64 nodes, got 63"):
            RunConfig(grid=63).validate()
        for eps in (0.0, 0.05, float("nan"), -1e-3):
            with pytest.raises(ValueError, match="epsilon must lie in"):
                RunConfig(epsilon=eps).validate()

    @pytest.mark.parametrize("args,message", [
        (["zeros", "--grid", "10"], "a scan grid needs at least 64 nodes, got 10"),
        (["sweep", "--trials", "2", "--grid", "63"], "a scan grid needs at least 64 nodes, got 63"),
        (["cheb", "--grid", "8"], "a scan grid needs at least 64 nodes, got 8"),
        (["winding", "--trials", "1", "--epsilon", "0.5"], "epsilon must lie in (0, 0.05)")])
    def test_out_of_range_grid_or_epsilon_exits_1(self, tmp_path, capsys, args, message):
        # each once raised a DomainError mid-command, after the output
        # directory was made
        assert main([*args, "--kappa", "4", "--out", str(tmp_path / "o")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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

    def _csvs_under_kernels(self, tmp_path, args, exit_code=0):
        """The path of the CSV that ``q4lab <args>`` writes, per OpenBLAS
        kernel, each run in its own process; skips with fewer than two kernels."""
        kernels = openblas_kernels()
        if len(kernels) < 2:
            pytest.skip("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS with two kernels to run")
        paths = {}
        for core in kernels:
            done = subprocess.run([sys.executable, "-m", "q4lab.cli", *args,
                                   "--out", str(tmp_path / core)], env=kernel_env(core),
                                  capture_output=True)
            assert done.returncode == exit_code, (core, done.stderr)
            paths[core] = tmp_path / core / CSV_NAMES[args[0]]
        return paths

    def _digests_under_kernels(self, tmp_path, args, exit_code=0):
        return {core: hashlib.sha256(path.read_bytes()).hexdigest()
                for core, path in self._csvs_under_kernels(tmp_path, args, exit_code).items()}

    def test_sweep_bytes_independent_of_blas_kernel(self, tmp_path):
        digests = self._digests_under_kernels(
            tmp_path, ["sweep", "--kappa", "4", "--trials", "300", "--seed", "7"])
        assert digests == dict.fromkeys(digests, self.SWEEP_KAPPA4_SHA256)

    # `q4lab winding --kappa 2 --kappa 7 --trials 200 --seed 7`, the run that CI
    # pins under Prescott: random_poly_pair once took its norm by a BLAS dot,
    # and these bytes followed the kernel (the worst-integrality-residual rows
    # of kappa 2 at n = 1 and 3 and of kappa 7 at n = 3 under SkylakeX, of
    # kappa 2 at n = 1 under Prescott; Haswell's bytes are these)
    WINDING_200_SHA256 = "4a997f32afd1e5323a2b4c15a4bb43dc6bb2e5b0ef03dc885d19f7c346f16d52"

    @pytest.mark.parametrize("command", ["winding", "cheb", "winding-200"])
    def test_winding_and_cheb_bytes_independent_of_blas_kernel(self, tmp_path, command):
        # the winding counts and count_zeros, the two halves of a V_n element
        if command.startswith("winding"):
            trials, want = {"winding": ("20", self.WINDING_GOLDEN_SHA256),
                            "winding-200": ("200", self.WINDING_200_SHA256)}[command]
            args, code = ["winding", "--kappa", "2", "--kappa", "7", "--trials", trials,
                          "--seed", "7"], 0
        else:
            args, want, code = ["cheb", "--kappa", "4"], self.CHEB_GOLDEN_SHA256, 2
        digests = self._digests_under_kernels(tmp_path, args, exit_code=code)
        assert digests == dict.fromkeys(digests, want)

    def test_moments_bytes_independent_of_blas_kernel(self, tmp_path):
        # the GK sums are numpy's add.reduce, not a BLAS gemv, so every row of
        # moments.csv, and so its status, is the same under every kernel
        digests = self._digests_under_kernels(tmp_path, ["moments", "--kappa", "4"])
        assert digests == dict.fromkeys(digests, self.MOMENTS_GOLDEN_SHA256)

    # `q4lab zeros --kappa 1.5 --kappa 4 --kappa 9`: the scanner's rows come
    # from MomentBasis, whose series apply B(h)^-1 in closed form and sum in a
    # fixed order, and the I-reconstruction check sums its weighted rows with
    # add.reduce, so no byte depends on the kernel.  Pinned when B(h)^-1 went
    # closed form: only the three I-reconstruction rows moved; re-pinned when
    # green's six basis moments came to share one panel set: the same three
    # rows moved again (1.47e-14 -> 1.21e-14, 4.4e-15 -> 3.5e-15, 4.2e-15 ->
    # 4.6e-15), no count, chain row or status; re-pinned when MomentBasis
    # came to sum two exact end expansions: the same rows moved
    # (1.2130408344438345e-14 -> 1.0782585195056317e-14, 3.5372057485797957e-15
    # -> 3.4011593736344214e-15, 4.582930196925236e-15 -> 4.383672362276333e-15)
    ZEROS_GOLDEN_SHA256 = "015536d51b1e2381b9769282988f5be4a81ad08ec260942fc237d2d6d57ba447"

    def test_zeros_bytes_independent_of_blas_kernel(self, tmp_path):
        digests = self._digests_under_kernels(
            tmp_path, ["zeros", "--kappa", "1.5", "--kappa", "4", "--kappa", "9"])
        assert digests == dict.fromkeys(digests, self.ZEROS_GOLDEN_SHA256)

    def test_statuses_independent_of_blas_kernel(self, tmp_path):
        # every row of residuals.csv, and so its status, is the same under every
        # kernel: the propagation and the continuation take Taylor steps summed
        # by series_sum, pf_residuals folds its rows with weigh, and
        # infinity_exponents inverts and takes eigenvalue moduli in closed form
        digests = self._digests_under_kernels(tmp_path, ["verify", "--kappa", "4"])
        assert digests == dict.fromkeys(digests, self.RESIDUALS_GOLDEN_SHA256)

    def test_verify_next_to_kappa_one(self, tmp_path):
        # the Wronskian path ends 2e-4 from s = 1 at least, so verify no longer
        # fails with a PathProximityError (exit 1) at kappa 1.01 and below; it
        # may flag R:exact-template there, whose reference form cancels
        assert main(["verify", "--kappa", "1.005", "--out", str(tmp_path)]) in (0, 2)

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
    # agreement rows moved (area2d by at most 6 ulps), green did not.
    # Re-pinned when the GK sums moved from a BLAS gemv to numpy's
    # add.reduce: 26 green values (at most 4 ulps), 47 green rows with their
    # error estimates, and 29 agreement rows moved; no status changed.  In
    # residuals.csv 37 of 55 rows moved, all still passing.  Re-pinned when
    # area2d became one slice integral between the oval's folds: 46 of the
    # 48 agreement rows moved (the worst from 7.0e-14 to 4.7e-15), no green
    # row and no status.  residuals.csv re-pinned when B(h)^-1 went closed
    # form: 19 of 55 rows moved (13 pf:* rows at -0.6, -0.5 and -0.4, five
    # R:dual-route rows and J:wronskian-real), all still passing.  Both
    # re-pinned when a batch's moments came to share one panel set: 43 of the
    # 48 green rows (by at most 6.5e-16 relative) and 28 agreement rows moved,
    # no status; in residuals.csv 31 of 55 rows moved (the 15 pf:* rows, nine
    # reduction rows, five R:dual-route rows, route-equality at -0.4 and
    # J:wronskian-real), all still passing.  residuals.csv re-pinned when
    # G_from_chain weighed the G rows on jets and the continuation carried W
    # alone: 9 of 55 rows moved (pf:L2J-identity and R:dual-route at three
    # levels each, J:wronskian-real and both J:exponent rows), all passing.
    # Both re-pinned when green started from 32 angle panels, the ray cubics
    # took their cubes as products, area2d's box came from a scalar Newton
    # solve and PFPropagation's rtol went from 1e-12 to 1e-13: all 48 green
    # rows (by at most 5.8e-16 relative) and 45 of the 48 agreement rows
    # moved, no status; in residuals.csv 46 of 55 rows moved (all 14 pf:*,
    # 12 reduction, 9 recurrence, 5 R:dual-route, 3 route-equality, 2
    # inversion rows and J:wronskian-real), all still passing.  residuals.csv
    # re-pinned when the propagation and the continuation went from DOP853 to
    # Taylor steps and pf_residuals to weigh, after which no row depends on
    # the kernel: 16 of 55 rows moved (pf:solve-residual,
    # pf:propagation-vs-oracle, pf:pfs-system and pf:L2J-identity at -0.6 and
    # -0.4, pf:I00''-formula at -0.4, R:dual-route at four of its five
    # levels, J:wronskian-real and both J:exponent rows), all still passing
    MOMENTS_GOLDEN_SHA256 = "e131597535908d69a2c582b7d54dabc5992325d30f9d5ff8ba3a23e8367dd338"
    RESIDUALS_GOLDEN_SHA256 = "001b2ee8c2cb761dee4de2b3ca88a13b2db194a9c94def367718d6d9281925c3"

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

    def test_import_leaves_out_the_process_pool(self):
        # the sweep imports its process pool only for --workers > 1, so no
        # other run pays for the import (about 5 ms)
        code = "import sys, q4lab.cli; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=kernel_env(None),
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
