"""End-to-end command-line runs: outputs, manifests, exit codes."""

import shlex

import numpy as np
import pytest

import qflab.cli
from qflab.cli import main


def read_kv(path):
    out = {}
    for line in path.read_text().strip().split("\n"):
        key, _, val = line.partition(" = ")
        out[key] = val
    return out


class TestBSVacuum:
    def test_roots_csv_and_manifest(self, tmp_path):
        out = tmp_path / "roots.csv"
        code = main([
            "bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "2",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "index,phi"
        roots = sorted(float(ln.split(",")[1]) for ln in lines[1:])
        assert roots == pytest.approx([-0.4770329614269007, 1.677032961426901], abs=1e-9)
        manifest = read_kv(tmp_path / "roots.csv.manifest")
        assert manifest["verb"] == "bs-vacuum"
        assert manifest["opt_n"] == "2"
        assert "argv" in manifest

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        out = tmp_path / "roots.csv"
        argv = ["bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "3",
                "--family", "exact", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        recorded = read_kv(tmp_path / "roots.csv.manifest")["argv"].split()
        assert main(recorded) == 0
        assert out.read_bytes() == first

    def test_manifest_argv_keeps_quoting(self, tmp_path):
        out_dir = tmp_path / "q dir"
        out_dir.mkdir()
        argv = ["bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "2",
                "--out", str(out_dir / "roots.csv")]
        assert main(argv) == 0
        recorded = read_kv(out_dir / "roots.csv.manifest")["argv"]
        assert shlex.split(recorded) == argv

    def test_weak_family(self, tmp_path):
        out = tmp_path / "weak.csv"
        code = main([
            "bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "3",
            "--family", "weak", "--out", str(out),
        ])
        assert code == 0
        val = float(out.read_text().strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(0.08 / -0.06, rel=1e-12)

    def test_weak_family_singular_is_numerical_failure(self, tmp_path):
        out = tmp_path / "weak.csv"
        code = main([
            "bs-vacuum", "--r", "0.05", "--sigma-sq", "0.1", "--n", "3",
            "--family", "weak", "--out", str(out),
        ])
        assert code == 1
        record = read_kv(out)
        assert record["error"] == "SingularRegimeError"


class TestMGVacuum:
    ARGS = ["--r", "0.05", "--lambda", "0.01", "--mu", "0.02", "--zeta", "0.1",
            "--alpha", "1.5", "--rho", "1.0"]

    def test_regime_record_and_csv(self, tmp_path):
        out = tmp_path / "sol.txt"
        csv = tmp_path / "sol.csv"
        code = main([
            "mg-vacuum", *self.ARGS, "--y", str(float(np.log(0.04))),
            "--n", "2", "--m", "2", "--regime", "weak-weak",
            "--csv-out", str(csv), "--out", str(out),
        ])
        assert code == 0
        record = out.read_text()
        assert "regime = weak-weak" in record
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "index,phi_x,phi_y"
        assert len(lines) == 3

    def test_low_order_case_defaults(self, tmp_path):
        out = tmp_path / "case.txt"
        code = main([
            "mg-vacuum", *self.ARGS, "--y", str(float(np.log(0.04))),
            "--n", "1", "--m", "0", "--out", str(out),
        ])
        assert code == 0
        record = out.read_text()
        assert "regime = case(1,0)" in record
        root_line = [ln for ln in record.split("\n") if ln.startswith("root_0 = ")][0]
        assert float(root_line.split(" = ")[1].split(",")[0]) == pytest.approx(0.6, abs=1e-12)


class TestMartingaleCheck:
    def test_bs_default_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "bs", "--r", "0.05",
            "--sigma-sq", "0.04", "--out", str(out),
        ])
        assert code == 0
        assert read_kv(out)["verdict"] == "pass"
        assert "verdict = pass" in capsys.readouterr().out

    def test_mg_extended_state_near_root(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "mg", "--r", "0.05",
            "--lambda", "0.01", "--mu", "-0.3", "--zeta", "0.1",
            "--alpha", "1.0", "--rho", "-0.5", "--state", "extended",
            "--x-min", "-1.0", "--x-max", "1.0", "--n-points", "201",
            "--y-min", "-3.4153", "--y-max", "-3.4140", "--m-points", "121",
            "--out", str(out),
        ])
        assert code == 0
        assert read_kv(out)["verdict"] == "pass"


class TestConstraintSolve:
    def test_root_record(self, tmp_path):
        out = tmp_path / "root.txt"
        code = main([
            "constraint-solve", "--r", "0.05", "--lambda", "0.01", "--mu", "-0.3",
            "--zeta", "0.0", "--alpha", "1.0", "--rho", "0.0",
            "--bracket", "-7.0", "-0.8", "--out", str(out),
        ])
        assert code == 0
        record = read_kv(out)
        assert float(record["y_star"]) == pytest.approx(np.log(0.01 / 0.3), abs=1e-12)
        assert abs(float(record["residual"])) <= 1e-12

    def test_no_root_is_numerical_failure(self, tmp_path):
        out = tmp_path / "root.txt"
        code = main([
            "constraint-solve", "--r", "0.05", "--lambda", "0.01", "--mu", "0.3",
            "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.5",
            "--bracket", "-7.0", "-0.8", "--out", str(out),
        ])
        assert code == 1
        record = read_kv(out)
        assert record["error"] == "NoRootError"
        assert "sign" in record["message"]


class TestPrice:
    def test_call_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "price", "--payoff", "call", "--strike", "100.0", "--r", "0.05",
            "--sigma-sq", "0.04", "--t", "1.0",
            "--x-min", str(float(np.log(100.0) - 3)), "--x-max", str(float(np.log(100.0) + 3)),
            "--n-points", "301", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,value"
        xs = np.array([float(ln.split(",")[0]) for ln in lines[1:]])
        vals = np.array([float(ln.split(",")[1]) for ln in lines[1:]])
        at_spot = vals[np.argmin(np.abs(xs - np.log(100.0)))]
        assert at_spot == pytest.approx(10.4506, abs=0.15)

    def test_barrier_flag(self, tmp_path):
        out = tmp_path / "dao.csv"
        b = float(np.log(80.0))
        code = main([
            "price", "--payoff", "call", "--strike", "100.0", "--r", "0.05",
            "--sigma-sq", "0.04", "--t", "1.0",
            "--x-min", str(b - 0.4), "--x-max", str(b + 2.4), "--n-points", "281",
            "--barrier-level", str(b), "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")[1:]
        first_val = float(lines[0].split(",")[1])
        assert first_val == 0.0

    @pytest.mark.parametrize("t", ["0", "-1"])
    def test_non_positive_maturity_named(self, tmp_path, capsys, t):
        code = main([
            "price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04",
            "--t", t, "--x-min", "-1", "--x-max", "1", "--n-points", "11",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2
        assert f"maturity must be positive, got {float(t)}" in capsys.readouterr().err

    def test_strike_required_for_call(self, tmp_path):
        code = main([
            "price", "--payoff", "call", "--r", "0.05", "--sigma-sq", "0.04",
            "--t", "1.0", "--x-min", "-1", "--x-max", "1", "--n-points", "11",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2


class TestEvolve:
    def test_bond_state(self, tmp_path):
        out = tmp_path / "state.csv"
        flow = tmp_path / "flow.csv"
        code = main([
            "evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond",
            "--x-min", "-2", "--x-max", "2", "--n-points", "101",
            "--dt", "0.01", "--n-steps", "100",
            "--flow-out", str(flow), "--out", str(out),
        ])
        assert code == 0
        vals = [float(ln.split(",")[1]) for ln in out.read_text().strip().split("\n")[1:]]
        assert np.max(np.abs(np.array(vals) - np.exp(-0.05))) < 1e-6
        assert flow.read_text().startswith("t,mass,norm")

    def test_unitary_gaussian(self, tmp_path):
        out = tmp_path / "state.csv"
        code = main([
            "evolve", "--r", "0.05", "--sigma-sq", "0.1", "--mode", "unitary",
            "--boundary", "dirichlet", "--state", "gaussian", "--width", "0.2",
            "--x-min", "-2", "--x-max", "2", "--n-points", "101",
            "--dt", "0.002", "--n-steps", "50", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("x,modulus")


class TestSimulate:
    def test_gbm_csv(self, tmp_path):
        out = tmp_path / "paths.csv"
        code = main([
            "simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04",
            "--drift", "0.05", "--s0", "100", "--t", "1.0", "--dt", "0.25",
            "--n-paths", "10", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path_id,t,S"
        assert len(lines) == 1 + 10 * 5
        manifest = read_kv(tmp_path / "paths.csv.manifest")
        assert manifest["opt_seed"] == "3"

    def test_rerun_bit_identical(self, tmp_path):
        out = tmp_path / "paths.csv"
        argv = ["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.01",
                "--mu", "-0.5", "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.7",
                "--drift", "0.05", "--s0", "100", "--v0", "0.04", "--t", "0.5",
                "--dt", "0.05", "--n-paths", "20", "--seed", "11", "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        recorded = read_kv(tmp_path / "paths.csv.manifest")["argv"].split()
        assert main(recorded) == 0
        assert out.read_bytes() == first

    def test_size_guard_and_force(self, tmp_path):
        out = tmp_path / "big.csv"
        base = ["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04",
                "--drift", "0.05", "--s0", "100", "--t", "1.0", "--dt", "0.0001",
                "--n-paths", "300", "--seed", "1", "--out", str(out)]
        assert main(base) == 2  # validation refusal, guard names the fix
        assert main(base + ["--force-big"]) == 0

    def test_size_guard_refuses_before_simulating(self, tmp_path, monkeypatch):
        def no_simulation(*args):
            raise AssertionError("ensemble simulated before the size guard")

        monkeypatch.setattr(qflab.cli, "simulate_gbm", no_simulation)
        argv = ["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04",
                "--drift", "0.05", "--s0", "100", "--t", "1.0", "--dt", "0.0001",
                "--n-paths", "300", "--out", str(tmp_path / "big.csv")]
        assert main(argv) == 2


class TestClassify:
    def test_mg_report(self, tmp_path):
        out = tmp_path / "regime.txt"
        code = main([
            "classify", "--model", "mg", "--r", "0.05", "--lambda", "0.0",
            "--mu", "0.005", "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.0",
            "--y", str(float(np.log(0.1))), "--out", str(out),
        ])
        assert code == 0
        assert "information_flow = preserved" in out.read_text()

    def test_mg_requires_y(self, tmp_path):
        code = main([
            "classify", "--model", "mg", "--r", "0.05", "--lambda", "0.0",
            "--mu", "0.005", "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.0",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert code == 2


class TestConfigMerge:
    CONFIG = "r = 0.05\nsigma_sq = 0.04\n"

    def test_config_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "roots.csv"
        code = main(["bs-vacuum", "--config", str(cfg), "--n", "1", "--out", str(out)])
        assert code == 0
        roots = sorted(float(ln.split(",")[1]) for ln in out.read_text().strip().split("\n")[1:])
        assert roots == pytest.approx([0.0, 0.6], abs=1e-12)

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "roots.csv"
        code = main([
            "bs-vacuum", "--config", str(cfg), "--sigma-sq", "0.08",
            "--n", "1", "--out", str(out),
        ])
        assert code == 0
        roots = sorted(float(ln.split(",")[1]) for ln in out.read_text().strip().split("\n")[1:])
        assert roots == pytest.approx([0.0, 0.2], abs=1e-12)

    def test_missing_required_is_validation_error(self, tmp_path):
        code = main(["bs-vacuum", "--n", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    MG_FLAGS = ["--r", "0.05", "--lambda", "0.01", "--mu", "-0.3", "--zeta", "0.1",
                "--alpha", "1.0", "--rho", "-0.5"]
    GRID_FLAGS = ["--x-min", "-1", "--x-max", "1", "--n-points", "21",
                  "--y-min", "-4", "--y-max", "-2", "--m-points", "11"]

    def test_config_supplies_lambda_and_2d_grid(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "r = 0.05\nlambda = 0.01\nmu = -0.3\nzeta = 0.1\nalpha = 1.0\nrho = -0.5\n"
            "x_min = -1\nx_max = 1\nn_points = 21\ny_min = -4\ny_max = -2\nm_points = 11\n"
        )
        from_flags, from_config = tmp_path / "flags.txt", tmp_path / "config.txt"
        base = ["martingale-check", "--model", "mg", "--state", "extended"]
        assert main([*base, *self.MG_FLAGS, *self.GRID_FLAGS, "--out", str(from_flags)]) == 0
        assert main([*base, "--config", str(cfg), "--out", str(from_config)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_missing_two_factor_option_named_as_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("r = 0.05\nmu = -0.3\nzeta = 0.1\nalpha = 1.0\nrho = -0.5\n")
        code = main([
            "constraint-solve", "--config", str(cfg), "--bracket", "-7", "-0.8",
            "--out", str(tmp_path / "x.txt"),
        ])
        assert code == 2
        assert "missing required option --lambda (flag or config)" in capsys.readouterr().err

    def test_keys_the_verb_does_not_take_are_ignored(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG + "x_min = -4.0\nlambda = 0.01\n")
        plain, with_extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        flags = ["--r", "0.05", "--sigma-sq", "0.04"]
        assert main(["bs-vacuum", *flags, "--n", "2", "--out", str(plain)]) == 0
        assert main(["bs-vacuum", "--config", str(cfg), "--n", "2", "--out", str(with_extra)]) == 0
        assert with_extra.read_bytes() == plain.read_bytes()

    def test_manifest_lists_command_line_options_only(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.CONFIG)
        out = tmp_path / "roots.csv"
        argv = ["bs-vacuum", "--config", str(cfg), "--sigma-sq", "0.08", "--n", "1",
                "--out", str(out)]
        assert main(argv) == 0
        manifest = read_kv(tmp_path / "roots.csv.manifest")
        assert manifest["opt_sigma_sq"] == "0.08"
        assert manifest["opt_n"] == "1"
        assert "opt_r" not in manifest and "opt_config" not in manifest
        assert shlex.split(manifest["argv"]) == argv


class TestExitCodes:
    def test_unknown_verb(self):
        assert main(["transmogrify"]) == 2

    def test_invalid_parameter_value(self, tmp_path):
        code = main([
            "bs-vacuum", "--r", "-0.05", "--sigma-sq", "0.04", "--n", "1",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bs-vacuum", "--r", "0.05", "--sigma-sq", "nan", "--n", "2"],
            ["classify", "--model", "mg", "--r", "0.05", "--lambda", "nan", "--mu", "0.005",
             "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.0", "--y", "-3"],
            ["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1",
             "--x-min", "-1", "--x-max", "1", "--n-points", "11", "--barrier-level", "nan"],
        ],
        ids=["sigma_sq", "lambda", "barrier_level"],
    )
    def test_non_finite_input_is_validation_error(self, tmp_path, argv):
        out = tmp_path / "x.out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "qflab" in capsys.readouterr().out
