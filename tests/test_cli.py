"""End-to-end command-line runs: outputs, manifests, exit codes."""

import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qflab.cli
from qflab.cli import main
from qflab.martingale import solve_extended_constraint
from qflab.model import MGParams


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

    @pytest.mark.parametrize(
        "extra",
        [
            ["--n", "-2", "--m", "-1", "--regime", "strong-strong"],
            ["--n", "1", "--m", "-4", "--regime", "weak-weak"],
            ["--n", "2", "--m", "2", "--regime", "weak-weak", "--phi-x", "nan"],
        ],
        ids=["negative_orders", "negative_m_unit_n", "nan_phi_x"],
    )
    def test_bad_orders_and_scale_are_validation_errors(self, tmp_path, extra):
        out = tmp_path / "sol.txt"
        assert main(["mg-vacuum", *self.ARGS, "--y", "-3", *extra, "--out", str(out)]) == 2
        assert not out.exists()


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

    def test_grid_option_is_gone(self, tmp_path):
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "bs", "--r", "0.05",
            "--sigma-sq", "0.04", "--grid", "default", "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

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

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_meaningless_tolerance_is_validation_error(self, tmp_path, capsys, tol):
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "bs", "--r", "0.05",
            "--sigma-sq", "0.04", "--tol", tol, "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "error = validation" in err
        assert f"tol must be finite and non-negative, got {float(tol)}" in err


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

    def test_no_root_record_writes_plain_floats(self, tmp_path):
        out = tmp_path / "root.txt"
        code = main([
            "constraint-solve", "--r", "0.05", "--lambda", "0.01", "--mu", "0.02",
            "--zeta", "0.3", "--alpha", "1.5", "--rho", "-0.5",
            "--bracket", "0", "1", "--out", str(out),
        ])
        assert code == 1
        assert read_kv(out)["message"] == (
            "no sign change on bracket (0.0, 1.0): "
            "f(y_lo)=-0.075, f(y_hi)=-0.7114852538185372"
        )

    def test_cli_import_leaves_root_finder_unloaded(self):
        # only constraint-solve needs scipy.optimize; it costs every other verb to load it
        code = "import sys, qflab.cli; sys.exit(int('scipy.optimize' in sys.modules))"
        env = {"PYTHONPATH": str(Path(qflab.cli.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0


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

    def test_barrier_knocking_every_node_names_its_kind(self, tmp_path, capsys):
        code = main([
            "price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "bond", "--t", "1",
            "--x-min", "-1", "--x-max", "1", "--n-points", "51", "--barrier-level", "2",
            "--out", str(tmp_path / "k.csv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "message = down-and-out level 2.0 knocks out every node" in err
        assert "corridor" not in err

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
            ["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "inf",
             "--dt", "0.01", "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
            ["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "nan",
             "--dt", "0.01", "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
            ["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "inf",
             "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
            ["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "nan",
             "--s0", "100", "--t", "0.1", "--dt", "0.01", "--n-paths", "2"],
            ["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "0.05",
             "--s0", "inf", "--t", "0.1", "--dt", "0.01", "--n-paths", "2"],
            ["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.01", "--mu", "-0.5",
             "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.7", "--drift", "0.05", "--s0", "100",
             "--v0", "nan", "--t", "0.1", "--dt", "0.01", "--n-paths", "2"],
            ["classify", "--model", "mg", "--r", "0.05", "--lambda", "0.01", "--mu", "0.005",
             "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.0", "--y", "nan"],
            ["mg-vacuum", "--r", "0.05", "--lambda", "0.01", "--mu", "0.005", "--zeta", "0.1",
             "--alpha", "1.0", "--rho", "0.0", "--y", "nan", "--n", "1", "--m", "1"],
            # finite, but e^y overflows
            ["classify", "--model", "mg", "--r", "0.05", "--lambda", "0.01", "--mu", "0.005",
             "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.0", "--y", "800"],
            ["mg-vacuum", "--r", "0.05", "--lambda", "0.01", "--mu", "0.005", "--zeta", "0.1",
             "--alpha", "1.0", "--rho", "0.0", "--y", "800", "--n", "1", "--m", "1"],
        ],
        ids=["sigma_sq", "lambda", "barrier_level", "maturity_inf", "maturity_nan",
             "maturity_inf_default_step", "drift", "s0", "v0", "classify_y", "vacuum_y",
             "classify_overflowing_y", "vacuum_overflowing_y"],
    )
    def test_non_finite_input_is_validation_error(self, tmp_path, argv):
        out = tmp_path / "x.out"
        assert main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # T / dt overflows to inf
            (["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1e308",
              "--dt", "1e-10", "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
             "maturity 1e+308 over dt 1e-10 gives no finite step count"),
            (["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "0.05",
              "--s0", "100", "--t", "1e308", "--dt", "1e-10", "--n-paths", "2"],
             "horizon 1e+308 over dt 1e-10 gives no finite step count"),
            # 1e15 steps: the pin table would need 16 PB
            (["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1e6",
              "--dt", "1e-9", "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
             "1000000000000000 steps need a pin table"),
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--boundary",
              "dirichlet", "--x-min", "-1", "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "1000000000000000"],
             "1000000000000000 steps need a pin table"),
            # the one-sided boundary pins nothing: the flow series fails first
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--x-min", "-1",
              "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "1000000000000000"],
             "1000000000000000 steps need a flow series"),
            (["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "0.05",
              "--s0", "100", "--t", "1e6", "--dt", "1e-9", "--n-paths", "1", "--force-big"],
             "1000000000000000 steps need a path table"),
            (["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.01", "--mu", "-0.5",
              "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.7", "--drift", "0.05", "--s0", "100",
              "--v0", "0.04", "--t", "1e6", "--dt", "1e-9", "--n-paths", "1", "--force-big"],
             "1000000000000000 steps need two path tables"),
        ],
        ids=["price_overflow", "simulate_overflow", "price_pin_table", "evolve_pin_table",
             "evolve_flow_series", "simulate_gbm_paths", "simulate_mg_paths"],
    )
    def test_unaffordable_step_count_is_validation_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--width", "0"), ("--width", "-0.2"),
                                            ("--width", "nan"), ("--center", "inf")])
    def test_bad_gaussian_state_is_validation_error(self, tmp_path, flag, value):
        out = tmp_path / "x.out"
        argv = ["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "gaussian",
                "--center", "0.05", "--width", "0.2", "--x-min", "-1", "--x-max", "1",
                "--n-points", "21", "--dt", "0.01", "--n-steps", "2", flag, value,
                "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a zero width must not reach the division
            assert main(argv) == 2
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "qflab" in capsys.readouterr().out


class TestRecordFormat:
    """Every record the CLI writes, byte for byte: ``key = value`` lines,
    floats in shortest round-trip repr, unset keys left out."""

    def test_bs_vacuum_manifest_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "2", "--out", "roots.csv"]
        assert main(argv) == 0
        assert Path("roots.csv.manifest").read_text() == (
            "verb = bs-vacuum\n"
            f"version = {qflab.__version__}\n"
            "opt_family = exact\n"
            "opt_n = 2\n"
            "opt_out = roots.csv\n"
            "opt_r = 0.05\n"
            "opt_sigma_sq = 0.04\n"
            "argv = bs-vacuum --r 0.05 --sigma-sq 0.04 --n 2 --out roots.csv\n"
        )

    def test_price_corridor_manifest_text(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["price", "--payoff", "put", "--strike", "1", "--r", "0.05", "--sigma-sq", "0.04",
                "--t", "0.1", "--dt", "0.05", "--x-min", "-1", "--x-max", "1", "--n-points", "21",
                "--corridor", "-0.5", "0.5", "--out", "curve.csv"]
        assert main(argv) == 0
        assert Path("curve.csv.manifest").read_text() == (
            "verb = price\n"
            f"version = {qflab.__version__}\n"
            "opt_corridor = -0.5 0.5\n"
            "opt_dt = 0.05\n"
            "opt_n_points = 21\n"
            "opt_out = curve.csv\n"
            "opt_payoff = put\n"
            "opt_r = 0.05\n"
            "opt_sigma_sq = 0.04\n"
            "opt_strike = 1.0\n"
            "opt_t = 0.1\n"
            "opt_x_max = 1.0\n"
            "opt_x_min = -1.0\n"
            f"argv = {shlex.join(argv)}\n"
        )

    def test_constraint_solve_record(self, tmp_path):
        out = tmp_path / "root.txt"
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.0, alpha=1.0, rho=0.0)
        code = main([
            "constraint-solve", "--r", "0.05", "--lambda", "0.01", "--mu", "-0.3",
            "--zeta", "0.0", "--alpha", "1.0", "--rho", "0.0",
            "--bracket", "-7", "-0.8", "--out", str(out),
        ])
        assert code == 0
        root = solve_extended_constraint(p, (-7.0, -0.8))
        assert out.read_text() == (
            f"y_star = {root.y_star!r}\n"
            f"residual = {root.residual!r}\n"
            "bracket_lo = -7.0\n"
            "bracket_hi = -0.8\n"
        )

    def test_numerical_error_record_on_stdout_and_in_out(self, tmp_path, capsys):
        out = tmp_path / "weak.csv"
        code = main([
            "bs-vacuum", "--r", "0.05", "--sigma-sq", "0.1", "--n", "3",
            "--family", "weak", "--out", str(out),
        ])
        assert code == 1
        record = (
            "error = SingularRegimeError\n"
            "verb = bs-vacuum\n"
            "message = weak-field formula is singular at sigma_sq = 2 r\n"
        )
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (record, "")
        assert out.read_text() == record
        assert not (tmp_path / "weak.csv.manifest").exists()

    def test_validation_record_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "bs-vacuum", "--r", "-0.05", "--sigma-sq", "0.04", "--n", "1", "--out", str(out),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error = validation\n"
            "verb = bs-vacuum\n"
            "message = spot rate must be positive, got r=-0.05\n"
        )
        assert not out.exists()
