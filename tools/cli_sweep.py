"""Byte-identity sweep of the qflab command line.

Runs a fixed list of command lines through ``qflab.cli.main`` in-process
and prints, for each run, its exit code, what ``main`` printed, and one
``sha256 name`` line per file it wrote. Two checkouts whose printouts are
equal wrote the same bytes for every output and manifest:

    python tools/cli_sweep.py OLD/src /tmp/sweep-old > old.txt
    python tools/cli_sweep.py NEW/src /tmp/sweep-new > new.txt
    diff old.txt new.txt

SRC is a checkout's ``src`` directory, from which qflab is imported. OUT
is a directory, created if missing, that the runs work in; every output
name is relative to it, so the manifests hold no absolute path and the
tool writes nothing outside OUT. The config file the ``--config`` run
reads is written into OUT first. Runs are numbered, and each writes only
files named after its number; new runs go at the end of the list, so
that earlier runs keep their numbers. Every warning a run raises is printed as one line, by its
category and message, after what ``main`` printed. The first line names
the Python, numpy and scipy versions, since a float's last bits may
change with them.

``tests/cli_sweep_golden.txt`` holds this printout, and
``tests/test_cli_sweep.py`` runs ``sweep`` against it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import platform
import sys
import warnings
from pathlib import Path

BS = ["--r", "0.05", "--sigma-sq", "0.04"]
MG = ["--r", "0.05", "--lambda", "0.01", "--mu", "-0.3", "--zeta", "0.1", "--alpha", "1.0"]
PRICE_GRID = ["--x-min", "0.605", "--x-max", "8.605", "--n-points", "801"]
EVOLVE_GRID = ["--x-min", "-2", "--x-max", "2", "--n-points", "101"]
CONFIG_NAME = "sweep.cfg"
CONFIG_TEXT = "r = 0.05\nsigma_sq = 0.04\nx_min = -1\nx_max = 1\nn_points = 41\n"


def _runs() -> list[list[str]]:
    """Every command line of the sweep, without its output options."""
    runs = []
    for family in ("exact", "weak", "strong", "extremum"):
        runs += [["bs-vacuum", *BS, "--family", family, "--n", str(n)] for n in (1, 2, 3, 4)]
    two_field = ["mg-vacuum", *MG, "--rho", "0.9", "--y", "-3"]
    runs += [[*two_field, "--n", n, "--m", m] for n, m in (("0", "1"), ("1", "0"), ("1", "1"))]
    for regime in ("strong-strong", "weak-weak", "strong-x-weak-y", "weak-x-strong-y"):
        runs.append([*two_field, "--n", "2", "--m", "2", "--regime", regime])
    runs += [
        ["classify", "--model", "bs", *BS],
        ["classify", "--model", "mg", *MG, "--rho", "-0.5", "--y", "-3"],
        ["martingale-check", "--model", "bs", *BS],
        ["martingale-check", "--model", "mg", *MG, "--rho", "-0.5", "--state", "price"],
        ["martingale-check", "--model", "mg", *MG, "--rho", "-0.5", "--state", "extended"],
        ["constraint-solve", *MG, "--rho", "-0.5", "--bracket", "-7", "-0.8"],
        # no sign change on the bracket: exit 1
        ["constraint-solve", "--r", "0.05", "--lambda", "0.01", "--mu", "0.3", "--zeta", "0.1",
         "--alpha", "1.0", "--rho", "0.5", "--bracket", "-7", "-0.8"],
    ]
    payoffs = (["call", "--strike", "100"], ["put", "--strike", "100"], ["bond"], ["asset"])
    knocks = ([], ["--barrier-level", "4.382"], ["--corridor", "4.0", "5.2"])
    for payoff in payoffs:
        for knock in knocks:
            for step in ([], ["--dt", "0.25"]):
                runs.append(["price", *BS, "--payoff", *payoff, "--t", "1", *PRICE_GRID,
                             *knock, *step])
    for mode in ("euclidean", "unitary"):
        for boundary in ("one-sided", "dirichlet"):
            for state in ("asset", "bond", "gaussian"):
                runs.append(["evolve", *BS, "--mode", mode, "--boundary", boundary,
                             "--state", state, *EVOLVE_GRID, "--dt", "0.01", "--n-steps", "50"])
    paths = ["--drift", "0.05", "--s0", "100", "--t", "1", "--dt", "0.05", "--n-paths", "50",
             "--seed", "7"]
    runs += [
        ["simulate", "--model", "gbm", *BS, *paths],
        ["simulate", "--model", "mg", *MG, "--rho", "-0.5", "--v0", "0.04", *paths],
        # exit 1: a pole of the weak-field formula, and an exploding variance
        ["bs-vacuum", "--r", "0.05", "--sigma-sq", "0.1", "--family", "weak", "--n", "2"],
        ["simulate", "--model", "mg", "--r", "0.05", "--lambda", "0.05", "--mu", "0.5",
         "--zeta", "2", "--alpha", "1.5", "--rho", "-0.5", "--v0", "0.5", "--drift", "0.05",
         "--s0", "100", "--t", "5", "--dt", "0.05", "--n-paths", "200"],
        # exit 2: refused input
        ["price", *BS, "--payoff", "call", "--t", "1", *PRICE_GRID],
        ["price", *BS, "--payoff", "put", "--strike", "100", "--t", "1", "--x-min", "710",
         "--x-max", "720", "--n-points", "51"],
        ["price", *BS, "--payoff", "bond", "--t", "1", *PRICE_GRID, "--barrier-level", "4",
         "--corridor", "4", "5"],
        ["martingale-check", "--model", "bs", *BS, "--state", "extended"],
        ["evolve", "--r", "0.05", "--sigma-sq", "1e-4", "--state", "bond", *PRICE_GRID,
         "--dt", "0.01", "--n-steps", "2"],
        ["transmogrify"],
    ]
    runs += [
        # the config file fills the market and the grid; the flag wins over its sigma_sq
        ["price", "--config", CONFIG_NAME, "--sigma-sq", "0.09", "--payoff", "put", "--strike", "1",
         "--t", "1"],
    ]
    # exit 2: values computed past the float range, refused by one rule
    big_zeta = ["--r", "0.05", "--lambda", "0.01", "--mu", "-0.3", "--zeta", "1e200", "--alpha",
                "1", "--rho", "-0.5"]
    gaussian = ["evolve", *BS, "--state", "gaussian", "--x-min", "-1", "--x-max", "1",
                "--n-points", "21", "--dt", "0.01", "--n-steps", "2"]
    runs += [
        ["martingale-check", "--model", "mg", *big_zeta],
        ["classify", "--model", "mg", *big_zeta, "--y", "-3"],
        ["mg-vacuum", *big_zeta, "--y", "-3", "--n", "1", "--m", "1"],
        ["constraint-solve", *big_zeta, "--bracket", "-7", "-0.8"],
        [*gaussian, "--width", "1e200"],
        [*gaussian, "--width", "1e-170"],
        ["martingale-check", "--model", "bs", "--r", "700", "--sigma-sq", "0.01", "--x-min",
         "-0.3", "--x-max", "700", "--n-points", "21"],
        ["constraint-solve", "--r", "1e150", "--lambda", "1e-12", "--mu", "1", "--zeta", "1e-4",
         "--alpha", "1", "--rho", "-1", "--bracket", "0", "1e6"],
        ["bs-vacuum", "--r", "5e-324", "--sigma-sq", "1", "--n", "4"],
        ["bs-vacuum", "--r", "5e-324", "--sigma-sq", "1", "--n", "4", "--family", "extremum"],
        ["price", *BS, "--payoff", "asset", "--t", "1", "--x-min", "709", "--x-max", "709.7",
         "--n-points", "5"],
    ]
    # exit 2: a target step or a maturity the pricers refuse
    call = ["price", *BS, "--payoff", "call", "--strike", "100", *PRICE_GRID]
    runs += [[*call, "--t", "1", "--dt", dt] for dt in ("0", "-0.01", "nan", "inf", "1e-320")]
    runs.append([*call, "--t", "0"])
    # the generator at sizes past the other runs': the ladder's top rung, a
    # corridor and the Dirichlet closure
    big_grid = ["--x-min", "0.605", "--x-max", "8.605", "--n-points"]
    runs += [
        ["martingale-check", "--model", "bs", *BS, *big_grid, "25601"],
        ["price", *BS, "--payoff", "call", "--strike", "100", "--t", "1", *big_grid, "6401",
         "--corridor", "4.0", "5.2"],
        ["evolve", *BS, "--boundary", "dirichlet", "--state", "asset", *big_grid, "6401",
         "--dt", "0.01", "--n-steps", "20"],
    ]
    # the two-factor generator at the ladder's top rung, and with no cross
    # term on a grid whose y edge rows are four wide
    runs += [
        ["martingale-check", "--model", "mg", *MG, "--rho", "-0.5", "--x-min", "-1.0", "--x-max",
         "1.0", "--n-points", "401", "--y-min", "-4.0", "--y-max", "-2.0", "--m-points", "161"],
        ["martingale-check", "--model", "mg", *MG, "--rho", "0", "--x-min", "-1", "--x-max", "1",
         "--n-points", "21", "--y-min", "-4", "--y-max", "-2", "--m-points", "4"],
    ]
    # schedules with no Crank-Nicolson step: two damped steps (half-steps
    # only) and one, on the whole grid and on a corridor
    for dt in ("0.5", "1"):
        for knock in ([], ["--corridor", "4.0", "5.2"]):
            runs.append([*call, "--t", "1", "--dt", dt, *knock])
    # knock-outs whose knocked region borders the span differently: only
    # node 0 knocked, a corridor open at the high edge, a corridor of two
    # free nodes, and a down-and-out of 2,000 steps
    for knock in (["--barrier-level", "0.61"], ["--corridor", "4.0", "8.605"],
                  ["--corridor", "4.0", "4.02"], ["--dt", "0.0005", "--barrier-level", "4.382"]):
        runs.append([*call, "--t", "1", *knock])
    return runs


def _outputs(k: int, argv: list[str]) -> list[str]:
    """The output options of run ``k``: every file it may write is named
    after its number."""
    name = f"{k:03d}"
    extra = []
    if argv[0] == "mg-vacuum":
        extra = ["--csv-out", f"{name}.roots.csv"]
    elif argv[0] == "evolve":
        extra = ["--flow-out", f"{name}.flow.csv"]
    return [*extra, "--out", f"{name}.out"]


def versions() -> str:
    """The printout's first line: the Python, numpy and scipy versions."""
    import numpy
    import scipy

    return (f"# python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def sweep(out) -> list[str]:
    """Run every command line in the directory ``out``, created if
    missing, and return the printout's lines. The working directory is
    restored afterwards."""
    from qflab.cli import main as qflab_main

    lines = [versions()]
    Path(out).mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out)
    try:
        Path(CONFIG_NAME).write_text(CONFIG_TEXT)
        for k, argv in enumerate(_runs()):
            argv = [*argv, *_outputs(k, argv)]
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = qflab_main(argv)
            lines.append(f"# {k:03d} exit {code}: {' '.join(argv)}")
            lines += [f"| {line}" for line in printed.getvalue().splitlines()]
            lines += [f"| warning {w.category.__name__}: {w.message}" for w in caught]
            for path in sorted(Path(".").glob(f"{k:03d}.*")):
                lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()} {path.name}")
    finally:
        os.chdir(cwd)
    return lines


def main(src: str, out: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    print("\n".join(sweep(out)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tools/cli_sweep.py SRC OUT")
    main(sys.argv[1], sys.argv[2])
