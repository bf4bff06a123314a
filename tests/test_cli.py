"""End-to-end command-line runs: outputs, manifests, exit codes."""

import contextlib
import io
import math
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qflab.cli
import qflab.model
from qflab.cli import main
from qflab.evolution import Payoff, price_option
from qflab.martingale import solve_extended_constraint
from qflab.model import Grid1D, MarketParams, MGParams


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

    @pytest.mark.parametrize("state,verdict", [("price", "pass"), ("extended", "fail")])
    def test_mg_default_grid(self, tmp_path, capsys, state, verdict):
        # the default 2D grid: x in [-1, 1] on 201 nodes, y in [-4, -2] on 81
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "mg", "--r", "0.05", "--lambda", "0.01",
            "--mu", "-0.3", "--zeta", "0.1", "--alpha", "1.0", "--rho", "-0.5",
            "--state", state, "--out", str(out),
        ])
        assert code == 0
        record = read_kv(out)
        assert record["h"] == "0.025"
        assert record["verdict"] == verdict
        assert f"verdict = {verdict}" in capsys.readouterr().out

    def test_bs_extended_state_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main([
            "martingale-check", "--model", "bs", "--r", "0.05", "--sigma-sq", "0.04",
            "--state", "extended", "--out", str(out),
        ])
        assert code == 2
        assert "--state extended needs --model mg" in capsys.readouterr().err
        assert not out.exists()

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
        assert subprocess.run([sys.executable, "-B", "-c", code], env=env,
                              timeout=120).returncode == 0

    def test_runs_that_never_step_leave_solvers_unloaded(self, tmp_path):
        # scipy loads where it is called: the vacuum verbs, classify,
        # simulate and the Monte Carlo statistic load none of it,
        # martingale-check loads only scipy.sparse, price's tridiagonal
        # factorization adds LAPACK's solver, and only a sparse LU (here
        # evolve's free one-sided edges) adds SuperLU
        code = f"""
import sys
import qflab, qflab.cli
from qflab import MarketParams, SDEParams, mc_martingale_check
from qflab.cli import main
def loaded():
    if not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules):
        return "loaded: no scipy"
    mods = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg")
    return "loaded: " + " ".join(m for m in mods if m in sys.modules)
def run(*argv):
    assert main([*argv, "--out", {str(tmp_path / "out.txt")!r}]) == 0, argv
print(loaded())
mg = ["--r", "0.05", "--lambda", "0.01", "--mu", "-0.3", "--zeta", "0.1", "--alpha", "1.0",
      "--rho", "-0.5"]
run("bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", "2")
run("mg-vacuum", "--r", "0.05", "--lambda", "0.01", "--mu", "0.02", "--zeta", "0.1",
    "--alpha", "1.5", "--rho", "1.0", "--y", "-3.2", "--n", "2", "--m", "2",
    "--regime", "weak-weak")
run("classify", "--model", "bs", "--r", "0.05", "--sigma-sq", "0.04")
run("classify", "--model", "mg", *mg, "--y", "-3.2")
run("simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "0.05",
    "--s0", "100", "--t", "1", "--dt", "0.25", "--n-paths", "10")
run("simulate", "--model", "mg", *mg, "--drift", "0.05", "--s0", "100", "--v0", "0.04",
    "--t", "1", "--dt", "0.25", "--n-paths", "10")
mc_martingale_check(SDEParams(0.05, MarketParams(0.05, 0.04)), 100.0, 1.0, 1000, 0)
print(loaded())
run("martingale-check", "--model", "bs", "--r", "0.05", "--sigma-sq", "0.04")
run("martingale-check", "--model", "mg", *mg, "--x-min", "-1", "--x-max", "1",
    "--n-points", "21", "--y-min", "-4", "--y-max", "-3", "--m-points", "11")
print(loaded())
run("price", "--payoff", "call", "--strike", "100", "--r", "0.05", "--sigma-sq", "0.04",
    "--t", "1", "--x-min", "3.6", "--x-max", "5.6", "--n-points", "41")
print(loaded())
run("evolve", "--r", "0.05", "--sigma-sq", "0.04", "--boundary", "one-sided", "--state", "bond",
    "--x-min", "-2", "--x-max", "2", "--n-points", "101", "--dt", "0.01", "--n-steps", "5")
print(loaded())
"""
        env = {"PYTHONPATH": str(Path(qflab.cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-B", "-c", code], env=env, timeout=120,
                             capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        # martingale-check also prints its verdict line: keep the module lists
        assert [ln for ln in run.stdout.splitlines() if ln.startswith("loaded:")] == [
            "loaded: no scipy",
            "loaded: no scipy",
            "loaded: scipy.sparse",
            "loaded: scipy.sparse scipy.linalg",
            "loaded: scipy.sparse scipy.linalg scipy.sparse.linalg",
        ]


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

    def test_barrier_and_corridor_together_refused(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([
            "price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1",
            "--x-min", "-1", "--x-max", "1", "--n-points", "11", "--barrier-level", "-0.5",
            "--corridor", "-0.5", "0.5", "--out", str(out),
        ])
        assert code == 2
        assert "choose one of --barrier-level or --corridor" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("payoff", [["bond"], ["put", "--strike", "100"]])
    def test_overflowing_exponential_priced_without_warnings(self, tmp_path, payoff):
        # e^x overflows on the upper part of [700, 720]; neither payoff reads it there
        out = tmp_path / "curve.csv"
        argv = ["price", "--payoff", *payoff, "--r", "0.05", "--sigma-sq", "0.04", "--t", "1",
                "--x-min", "700", "--x-max", "720", "--n-points", "51", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        vals = np.array([float(ln.split(",")[1]) for ln in out.read_text().split("\n")[1:-1]])
        if payoff == ["bond"]:
            assert np.allclose(vals, np.exp(-0.05), rtol=1e-6)
        else:
            assert np.all(np.isfinite(vals)) and vals[-1] == 0.0

    def test_curve_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        # blocks of 3 rows over 21 rows: the text is the one-shot rendering
        monkeypatch.setattr(qflab.model, "_CSV_BLOCK", 3)
        out = tmp_path / "curve.csv"
        code = main(["price", "--payoff", "call", "--strike", "1", "--r", "0.05",
                     "--sigma-sq", "0.04", "--t", "1", "--x-min", "-1", "--x-max", "1",
                     "--n-points", "21", "--out", str(out)])
        assert code == 0
        g = Grid1D(-1.0, 1.0, 21)
        curve = price_option(MarketParams(0.05, 0.04), Payoff("call", 1.0), 1.0, g, 1.0 / 400.0)
        rows = zip(g.points.tolist(), curve.values.tolist())
        assert out.read_text() == "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in rows)

    def test_curve_is_streamed(self, tmp_path):
        # formatting all rows at once peaked near 12.6 MB here; one block keeps it below 10
        argv = ["price", "--payoff", "call", "--strike", "100", "--r", "0.05",
                "--sigma-sq", "0.04", "--t", "1", "--x-min", "0.605", "--x-max", "8.605",
                "--dt", "0.5", "--out", str(tmp_path / "curve.csv"), "--n-points"]
        assert main([*argv, "101"]) == 0  # the first run's lazy imports are not the writer's
        tracemalloc.start()
        try:
            assert main([*argv, "50001"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, f"price peaked at {peak / 1e6:.1f} MB"

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

    def test_asset_state(self, tmp_path):
        # e^x is annihilated by the generator, so it stays put up to the stencil error
        out = tmp_path / "state.csv"
        code = main([
            "evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "asset",
            "--x-min", "-1", "--x-max", "1", "--n-points", "41",
            "--dt", "0.01", "--n-steps", "50", "--out", str(out),
        ])
        assert code == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        xs, vals = np.array(rows, dtype=float).T
        assert np.allclose(vals, np.exp(xs), rtol=1e-3)

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
    def test_bs_report(self, tmp_path):
        out = tmp_path / "regime.txt"
        code = main([
            "classify", "--model", "bs", "--r", "0.05", "--sigma-sq", "0.04", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == (
            "flag_sigma_sq_equals_2r = False\n"
            "value_sigma_sq_minus_2r = -0.060000000000000005\n"
            "information_flow = leaking\n"
        )

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

    # 10**400 wrote an error = OverflowError record from the spacing h,
    # 10**13 raised numpy's array memory error from the grid points, and
    # 10**20 exited 2 with numpy's bare "Maximum allowed size exceeded"
    @pytest.mark.parametrize("n_points", [str(10**400), str(10**13), str(10**20)],
                             ids=["past_float_range", "past_memory", "past_numpy_size_limit"])
    @pytest.mark.parametrize("verb", [["martingale-check", "--model", "bs"],
                                      ["price", "--payoff", "call", "--strike", "1", "--t", "1"]],
                             ids=["martingale_check", "price"])
    def test_node_count_past_the_budget_is_validation_error(self, tmp_path, capsys, verb,
                                                            n_points):
        out = tmp_path / "x.out"
        assert main([*verb, "--r", "0.05", "--sigma-sq", "0.04", "--x-min", "-4", "--x-max", "4",
                     "--n-points", n_points, "--out", str(out)]) == 2
        printed = capsys.readouterr()
        assert printed.err.endswith(
            "message = invalid grid: n_points exceeds the node budget MAX_NODES = 10000000\n")
        assert "OverflowError" not in printed.out + printed.err
        assert not out.exists()

    def test_two_factor_node_count_past_the_budget_is_validation_error(self, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert main(["martingale-check", "--model", "mg", *MG_ZETA, "0.1", "--x-min", "-1",
                     "--x-max", "1", "--n-points", "5000", "--y-min", "-4", "--y-max", "-2",
                     "--m-points", "2001", "--out", str(out)]) == 2
        assert "x_axis.n_points * y_axis.n_points exceeds the node budget" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_row_count_too_long_to_print_is_named_by_its_bound(self, tmp_path, capsys):
        # 4300 nines times 11 rows per path: a row count str refuses to print
        out = tmp_path / "x.csv"
        assert main(["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04",
                     "--drift", "0.05", "--s0", "1", "--t", "1", "--dt", "0.1",
                     "--n-paths", "9" * 4300, "--out", str(out)]) == 2
        assert f"message = export of 10**{sys.get_int_max_str_digits()} or more rows exceeds " \
            "the guard" in capsys.readouterr().err
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
            # 1e15 steps, past the step budget
            (["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1e6",
              "--dt", "1e-9", "--x-min", "-1", "--x-max", "1", "--n-points", "51"],
             "1000000000000000 steps (maturity 1000000.0 over dt 1e-09) exceed the step budget"),
            # counts past numpy's size and dimension limits: refused before any allocation
            (["price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "call", "--strike", "1",
              "--x-min", "-1", "--x-max", "1", "--n-points", "5", "--t", "700", "--dt", "1e-170"],
             f"{round(700 / 1e-170)} steps (maturity 700.0 over dt 1e-170) exceed the step "
             "budget"),
            (["price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "call", "--strike", "1",
              "--x-min", "-1", "--x-max", "1", "--n-points", "5", "--t", "1e200", "--dt", "1e150"],
             f"{round(1e200 / 1e150)} steps (maturity 1e+200 over dt 1e+150) exceed the step "
             "budget"),
            # evolve's n_steps is refused by its config, whatever the closure
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--boundary",
              "dirichlet", "--x-min", "-1", "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "1000000000000000"],
             "1000000000000000 steps (evolve's n_steps) exceed the step budget"),
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--x-min", "-1",
              "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "1000000000000000"],
             "1000000000000000 steps (evolve's n_steps) exceed the step budget"),
            (["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift", "0.05",
              "--s0", "100", "--t", "1e6", "--dt", "1e-9", "--n-paths", "1", "--force-big"],
             "1000000000000000 steps (horizon 1000000.0 over dt 1e-09) exceed the step budget"),
            (["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.01", "--mu", "-0.5",
              "--zeta", "0.1", "--alpha", "1.0", "--rho", "0.7", "--drift", "0.05", "--s0", "100",
              "--v0", "0.04", "--t", "1e6", "--dt", "1e-9", "--n-paths", "1", "--force-big"],
             "1000000000000000 steps (horizon 1000000.0 over dt 1e-09) exceed the step budget"),
        ],
        ids=["price_overflow", "simulate_overflow", "price_pin_table",
             "price_past_dimension_limit", "price_past_size_limit",
             "evolve_dirichlet_flow_series", "evolve_flow_series", "simulate_gbm_paths",
             "simulate_mg_paths"],
    )
    def test_unaffordable_step_count_is_validation_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.out"
        assert main([*argv, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["price", "--r", "1", "--sigma-sq", "0.04", "--payoff", "bond", "--t", "3", "--dt",
              "3", "--x-min", "-4", "--x-max", "4", "--n-points", "801"], "dt < 2/r = 2.0"),
            (["price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "bond", "--t", "60",
              "--dt", "60", "--x-min", "-4", "--x-max", "4", "--n-points", "801"],
             "dt < 2/r = 40.0"),
            (["evolve", "--r", "1", "--sigma-sq", "0.04", "--state", "bond", "--x-min", "-2",
              "--x-max", "2", "--n-points", "101", "--dt", "3", "--n-steps", "1", "--boundary",
              "dirichlet"], "dt < 2/r = 2.0"),
        ],
        ids=["price_bond_r1", "price_bond_t60", "evolve_dirichlet_bond"],
    )
    def test_negative_discount_step_is_validation_error(self, tmp_path, capsys, argv, bound):
        # each of these wrote about -0.2 at every node and exited 0
        out = tmp_path / "x.out"
        assert main([*argv, "--out", str(out)]) == 2
        assert bound in capsys.readouterr().err
        assert not out.exists()

    def test_unitary_step_past_two_over_r_runs(self, tmp_path):
        # a unitary step's factor (1 - i r dt/2)/(1 + i r dt/2) has modulus 1
        out = tmp_path / "x.out"
        assert main(["evolve", "--r", "1", "--sigma-sq", "0.04", "--state", "bond", "--mode",
                     "unitary", "--x-min", "-2", "--x-max", "2", "--n-points", "101", "--dt", "3",
                     "--n-steps", "1", "--boundary", "dirichlet", "--out", str(out)]) == 0

    def test_default_step_underflow_names_maturity(self, tmp_path, capsys):
        # t/400 of the smallest subnormal is 0: the refusal names --t, not a --dt never passed
        out = tmp_path / "x.out"
        assert main(["price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "call",
                     "--strike", "1", "--x-min", "-1", "--x-max", "1", "--n-points", "5",
                     "--t", "5e-324", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "default step t/400 of --t 5e-324 must be positive, got 0.0" in err
        assert "dt must be positive" not in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "9223372036854775808", "99999999999999999999999"])
    @pytest.mark.parametrize("model", ["gbm", "mg"])
    def test_seed_outside_philox_keys_is_validation_error(self, tmp_path, capsys, model, seed):
        out = tmp_path / "x.out"
        argv = ["simulate", "--model", model, "--r", "0.05", "--drift", "0.05", "--s0", "100",
                "--t", "0.1", "--dt", "0.05", "--n-paths", "2", "--seed", seed,
                "--out", str(out)]
        if model == "gbm":
            argv += ["--sigma-sq", "0.04"]
        else:
            argv += ["--lambda", "0.01", "--mu", "-0.5", "--zeta", "0.1", "--alpha", "1.0",
                     "--rho", "0.7", "--v0", "0.04"]
        assert main(argv) == 2
        assert "seed must lie in [0, 2**63)" in capsys.readouterr().err
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

    @pytest.mark.parametrize("argv", [
        ["price", "--payoff", "bond", "--t", "1"],
        ["martingale-check", "--model", "bs"],
    ], ids=["price", "martingale_check"])
    def test_overflowing_grid_width_is_validation_error(self, tmp_path, capsys, argv):
        out = tmp_path / "x.out"
        argv = [*argv, "--r", "0.05", "--sigma-sq", "0.04", "--x-min=-1e308", "--x-max", "1e308",
                "--n-points", "5", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the width must not reach np.linspace
            assert main(argv) == 2
        assert "spacing h is not finite" in capsys.readouterr().err
        assert not out.exists()

    LOW_VOL = ["--r", "0.05", "--sigma-sq", "1e-4", "--x-min", "0.605", "--x-max", "8.605",
               "--n-points", "801"]
    OVERFLOW = ["--r", "0.05", "--sigma-sq", "0.04", "--t", "1", "--n-points", "51",
                "--x-min", "700", "--x-max", "720"]

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            # Pe = 4.995: the put went negative (-0.1749) before the guard
            (["price", "--payoff", "put", "--strike", "100", "--t", "1", *LOW_VOL], 2,
             "Pe = h * |sigma_sq/2 - r| / sigma_sq = 4.995 exceeds 1 on 801 nodes"),
            (["evolve", "--mode", "euclidean", "--state", "bond", "--dt", "0.01",
              "--n-steps", "2", *LOW_VOL], 2, "3998 nodes or more"),
            # h = 5e-324 / 2 rounds to zero
            (["price", "--payoff", "bond", "--r", "0.05", "--sigma-sq", "0.04", "--t", "1",
              "--x-min", "0", "--x-max", "5e-324", "--n-points", "3"], 2,
             "invalid grid: the spacing h = 0.0"),
            # explicit Euler on zeta V^alpha dW blows up at alpha = 1.5
            (["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.05", "--mu", "0.5",
              "--zeta", "2", "--alpha", "1.5", "--rho", "-0.5", "--v0", "0.5", "--t", "5",
              "--dt", "0.05", "--n-paths", "200", "--drift", "0.05", "--s0", "100"], 1,
             "error = ArithmeticError\nverb = simulate\nmessage = variance path "),
            # e^x overflows past x = 709.78
            (["price", "--payoff", "call", "--strike", "100", *OVERFLOW], 2,
             "payoff is not finite on the grid"),
            (["price", "--payoff", "asset", *OVERFLOW], 2, "payoff is not finite on the grid"),
            # every payoff value is 0, but the low edge's far field -e^710 + k d is not finite
            (["price", "--payoff", "put", "--strike", "100", *OVERFLOW[:-4], "--x-min", "710",
              "--x-max", "720"], 2, "far-field price at the grid edge x = 710.0 is not finite"),
        ],
        ids=["price_peclet", "evolve_peclet", "grid_underflow", "simulate_non_finite",
             "call_overflow", "asset_overflow", "put_far_field_overflow"],
    )
    def test_unsafe_numerics_refused_without_warnings(self, tmp_path, capsys, argv, code,
                                                      message):
        out = tmp_path / "x.out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert message in (captured.err if code == 2 else captured.out)
        if code == 2:
            assert not out.exists()
        else:
            assert out.read_text() == captured.out
        assert not Path(f"{out}.manifest").exists()

    def test_unitary_evolve_is_not_guarded(self, tmp_path):
        out = tmp_path / "u.csv"
        argv = ["evolve", "--mode", "unitary", "--state", "gaussian", "--center", "4.6",
                "--dt", "0.01", "--n-steps", "2", *self.LOW_VOL, "--out", str(out)]
        assert main(argv) == 0

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "qflab" in capsys.readouterr().out


MG_ZETA = ["--r", "0.05", "--lambda", "0.01", "--mu", "-0.3", "--alpha", "1", "--rho", "-0.5",
           "--zeta"]
EDGE = ["--x-min", "709", "--x-max", "709.7", "--n-points", "5"]


class TestOverflowRule:
    """Every value computed past the float range is refused as a validation
    error (exit 2), before any warning and before any report is written."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            # zeta**2 raised a Python OverflowError: exit 1 with error = OverflowError
            (["martingale-check", "--model", "mg", *MG_ZETA, "1e200"],
             "the two-factor generator overflows a float on y in [-4.0, -2.0]"),
            (["classify", "--model", "mg", *MG_ZETA, "1e200", "--y", "-3"],
             "log-variance y = -3.0 leaves e^y or C(y) non-finite"),
            (["mg-vacuum", *MG_ZETA, "1e200", "--y", "-3", "--n", "1", "--m", "1"],
             "log-variance y = -3.0 leaves e^y or C(y) non-finite"),
            (["constraint-solve", *MG_ZETA, "1e200", "--bracket", "-7", "-0.8"],
             "the extended constraint overflows a float at y = -7.0"),
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "gaussian", "--width",
              "1e200", "--x-min", "-1", "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "2"], "--width 1e+200 leaves 2 width^2 outside the positive floats"),
            # 2 width^2 underflows to 0
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "gaussian", "--width",
              "1e-170", "--x-min", "-1", "--x-max", "1", "--n-points", "21", "--dt", "0.01",
              "--n-steps", "2"], "--width 1e-170 leaves 2 width^2 outside the positive floats"),
            # exit 0 with residual_l2 = inf: a pass, and a fail
            (["martingale-check", "--model", "bs", "--r", "700", "--sigma-sq", "0.01", "--x-min",
              "-0.3", "--x-max", "700", "--n-points", "21"],
             "the martingale residual of this state, or its tolerance, overflows a float"),
            (["martingale-check", "--model", "mg", *MG_ZETA, "1e150"],
             "the martingale residual of this state, or its tolerance, overflows a float"),
            # exit 0 after overflow warnings inside Brent's bracket
            (["constraint-solve", "--r", "1e150", "--lambda", "1e-12", "--mu", "1", "--zeta",
              "1e-4", "--alpha", "1", "--rho", "-1", "--bracket", "0", "1e6"],
             "the extended constraint overflows a float at y = 1000000.0"),
            # refused by FieldPoint only after a numpy warning
            (["bs-vacuum", "--r", "5e-324", "--sigma-sq", "1", "--n", "4"],
             "exact roots of order 4 overflow a float at r = 5e-324, sigma_sq = 1.0"),
            (["bs-vacuum", "--r", "5e-324", "--sigma-sq", "1", "--n", "4", "--family",
              "extremum"], "extremum roots of order 4 overflow a float"),
            # orders past the float range raised a Python OverflowError
            (["bs-vacuum", "--r", "0.05", "--sigma-sq", "0.04", "--n", str(10**400), "--family",
              "weak"], "weak-field roots of order 1000"),
            (["mg-vacuum", *MG_ZETA, "0.1", "--y", "-3", "--n", str(10**400), "--m", "2",
              "--regime", "strong-strong"], "the strong-strong formulas overflow a float"),
            # refused by StateVector or OperatorMatrix only after numpy warnings
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "asset", *EDGE, "--dt",
              "0.01", "--n-steps", "1"], "the evolved state, or its mass or norm, overflows"),
            (["price", "--r", "0.05", "--sigma-sq", "0.04", "--payoff", "asset", "--t", "1",
              *EDGE], "the price over T = 1.0 overflows a float"),
            (["evolve", "--r", "1e200", "--sigma-sq", "0.04", "--mode", "unitary", "--state",
              "bond", "--x-min", "-1", "--x-max", "0", "--n-points", "21", "--dt", "1e300",
              "--n-steps", "3"], "the generator times z dt/2 = 5e+299j overflows a float"),
            (["martingale-check", "--model", "bs", "--r", "0.05", "--sigma-sq", "1e308",
              "--x-min", "-1", "--x-max", "1", "--n-points", "21"],
             "the generator's entries overflow a float on spacing h = 0.1"),
            # exit 0 with an infinite time in the flow CSV, or an infinite record value
            (["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--x-min", "-1",
              "--x-max", "1", "--n-points", "21", "--dt", "1e308", "--n-steps", "3"],
             "the horizon n_steps * dt = 3 * 1e+308 overflows a float"),
            (["classify", "--model", "bs", "--r", "1e308", "--sigma-sq", "0.04"],
             "sigma_sq - 2r overflows a float"),
            (["classify", "--model", "mg", "--r", "1e308", "--lambda", "0.01", "--mu", "0.3",
              "--zeta", "0.1", "--alpha", "1", "--rho", "1", "--y", "0.5"],
             "e^y - 2r overflows a float"),
        ],
        ids=["mg_generator_zeta", "classify_zeta", "mg_vacuum_zeta", "constraint_zeta",
             "gaussian_wide", "gaussian_narrow", "bs_residual", "mg_residual",
             "constraint_bracket", "bs_exact_roots", "bs_extremum_roots", "bs_weak_order",
             "mg_regime_order", "evolve_edge", "price_edge", "factor_scale", "bs_entries",
             "evolve_horizon", "classify_bs_values", "classify_mg_values"],
    )
    def test_refused_without_warnings(self, tmp_path, capsys, argv, message):
        extra = ["--flow-out", str(tmp_path / "flow.csv")] if argv[0] == "evolve" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, *extra, "--out", str(tmp_path / "x.out")]) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # each verb's command lines, and its numeric flags with values the door
    # accepts (None: the flag is left out)
    MG_FLAGS = [("--r", "0.05"), ("--lambda", "0.01"), ("--mu", "-0.3"), ("--zeta", "0.1"),
                ("--alpha", "1.0"), ("--rho", "-0.5")]
    BS_FLAGS = [("--r", "0.05"), ("--sigma-sq", "0.04")]
    X_FLAGS = [("--x-min", "-1"), ("--x-max", "1")]
    PRICES = [["price", "--payoff", payoff, "--n-points", "5"]
              for payoff in ("call", "put", "bond", "asset")]
    PRICE_FLAGS = [*BS_FLAGS, *X_FLAGS, ("--strike", "1"), ("--t", "1")]
    VERBS = [
        ([["martingale-check", "--model", "bs", "--n-points", "5"]],
         [*BS_FLAGS, *X_FLAGS, ("--tol", None)]),
        ([["martingale-check", "--model", "mg", "--state", state, "--n-points", "5",
           "--m-points", "5"] for state in ("price", "extended")],
         [*MG_FLAGS, *X_FLAGS, ("--y-min", "-4"), ("--y-max", "-2"), ("--tol", None)]),
        ([["constraint-solve"]], [*MG_FLAGS, ("--bracket", "-7", "-0.8")]),
        ([["classify", "--model", "bs"]], BS_FLAGS),
        ([["classify", "--model", "mg"]], [*MG_FLAGS, ("--y", "-3")]),
        ([["mg-vacuum", "--n", n, "--m", m] for n, m in (("0", "1"), ("1", "0"), ("1", "1"))]
         + [["mg-vacuum", "--n", "2", "--m", "3", "--regime", regime] for regime in (
             "strong-strong", "weak-weak", "strong-x-weak-y", "weak-x-strong-y")],
         [*MG_FLAGS, ("--y", "-3"), ("--phi-x", None)]),
        ([["bs-vacuum", "--family", family, "--n", n] for family in (
            "exact", "weak", "strong", "extremum") for n in ("1", "2", "4")], BS_FLAGS),
        ([["evolve", "--mode", mode, "--boundary", boundary, "--state", state, "--n-points",
           "5", "--n-steps", "2"] for mode in ("euclidean", "unitary")
          for boundary in ("one-sided", "dirichlet") for state in ("asset", "bond", "gaussian")],
         [*BS_FLAGS, *X_FLAGS, ("--center", None), ("--width", None), ("--dt", "0.01")]),
        # no knock-out, a down-and-out level or a corridor; --dt left out
        # (the default step t/400) or extreme
        (PRICES, [*PRICE_FLAGS, ("--dt", None)]),
        (PRICES, [*PRICE_FLAGS, ("--barrier-level", "-0.6"), ("--dt", None)]),
        (PRICES, [*PRICE_FLAGS, ("--corridor", "-0.6", "0.6"), ("--dt", None)]),
        ([["simulate", "--model", "gbm", "--n-paths", "3"]],
         [*BS_FLAGS, ("--drift", "0.05"), ("--s0", "100"), ("--t", "1"), ("--dt", "0.1")]),
        ([["simulate", "--model", "mg", "--n-paths", "3"]],
         [*MG_FLAGS, ("--v0", "0.04"), ("--drift", "0.05"), ("--s0", "100"), ("--t", "1"),
          ("--dt", "0.1")]),
    ]
    EXTREMES = ["0", "-0", "5e-324", "-5e-324", "1e-170", "-1e-170", "700", "-700", "709.7",
                "1e150", "-1e150", "1e200", "-1e200"]

    @staticmethod
    @st.composite
    def command_lines(draw):
        fixed, numeric = draw(st.sampled_from(TestOverflowRule.VERBS))
        argv = list(draw(st.sampled_from(fixed)))
        for flag, *accepted in numeric:
            values = [draw(st.one_of(st.just(a), st.sampled_from(TestOverflowRule.EXTREMES)))
                      for a in accepted]
            if values == [None]:
                continue
            # --flag=value, so that argparse reads -5e-324 as a value
            argv += [f"{flag}={values[0]}"] if len(values) == 1 else [flag, *values]
        return argv

    @seed(20261019)
    @settings(max_examples=200, deadline=None, database=None)
    @given(argv=command_lines())
    def test_extreme_numeric_flags(self, argv):
        with tempfile.TemporaryDirectory() as d:
            outputs = [Path(d, "run.out")]
            argv = [*argv, "--out", str(outputs[0])]
            if argv[0] == "evolve":
                outputs.append(Path(d, "flow.csv"))
                argv += ["--flow-out", str(outputs[1])]
            elif argv[0] == "mg-vacuum":
                outputs.append(Path(d, "roots.csv"))
                argv += ["--csv-out", str(outputs[1])]
            printed = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(printed), \
                    contextlib.redirect_stderr(printed):
                warnings.simplefilter("error")
                code = main(argv)
            written = [path.read_text() for path in outputs if path.exists()]
        assert code in (0, 1, 2), argv
        assert "error = OverflowError" not in printed.getvalue() + "".join(written), argv
        if code == 1:
            assert written[0].startswith("error = "), argv
        if code == 0:
            for text in written:
                for token in re.split(r"[\s,=]+", text):
                    try:
                        number = float(token)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (argv, token)


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
