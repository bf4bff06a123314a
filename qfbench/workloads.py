"""One workload of the qflab benchmark, run in a process of its own.

Started by ``run.py`` with BLAS and OpenMP pools pinned to one thread.
The workload's operations are generated once from ``--seed``; the
process then runs one untimed warm-up round and as many whole timed
rounds of the same operations as fit in ``--seconds``. Every output of
every round is checked against ``oracle.py`` or against a property the
method must have. With ``--trace 1`` the public layer functions are
wrapped in span timers and per-layer metrics replace the end-to-end
ones. The result is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import qflab  # noqa: E402
import qflab.cli  # noqa: E402
import qflab.evolution  # noqa: E402
import qflab.martingale  # noqa: E402
import qflab.operators  # noqa: E402
import qflab.sde  # noqa: E402
from qflab import MarketParams, MGParams, SDEParams  # noqa: E402
from tracing import QFLAB_MODULES, Tracer, layer_metrics  # noqa: E402

WORKLOADS = ("price-ladder", "grid-refine", "monte-carlo")

# The 801-node pricing grid spans ln(spot) -/+ 4, so the spot is node 400
# and h = 0.01; the default step is t / 400.
N_PRICE = 801
SPOT = 400
N_PRICE_STEPS = 400
EPS = float(np.finfo(float).eps)


@dataclass
class Op:
    """One timed call. ``run`` does the work; ``check`` receives its
    return value and returns the problems found in the outputs."""

    label: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    outputs: tuple = ()
    known_fault: bool = False


@dataclass
class Workload:
    ops: list
    cross_check: Callable[[], list]
    calibrate: Callable[[], dict] | None = None


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _read_record(path: Path) -> dict:
    rec = {}
    for line in path.read_text().splitlines():
        key, _, val = line.partition(" = ")
        rec[key] = val
    return rec


def _cli_op(label, kind, argv, outputs, check, known_fault=False) -> Op:
    """An operation that drives the command line in process."""

    def run():
        return qflab.cli.main(argv)

    def checked(rc):
        if rc != 0:
            return [f"{label}: exit code {rc}"]
        return check()

    return Op(label, kind, run, checked, tuple(outputs), known_fault)


def _finite(label: str, arr: np.ndarray) -> list:
    if not np.all(np.isfinite(arr)):
        return [f"{label}: non-finite values in output"]
    return []


def price_ladder(rng: np.random.Generator, work: Path) -> Workload:
    """The ``price`` verb on the default 801-node grid and step: call,
    put, bond and asset payoffs over a strike and maturity ladder,
    down-and-out and double-knockout barriers, a minority of unitary
    ``evolve`` runs whose flow series is read, and two coarse-step calls
    that show a known fault."""
    s0 = float(rng.uniform(50.0, 200.0))
    x0 = math.log(s0)
    grid = ["--x-min", repr(x0 - 4.0), "--x-max", repr(x0 + 4.0), "--n-points", str(N_PRICE)]
    r = float(rng.uniform(0.01, 0.06))
    s2 = float(rng.uniform(0.04, 0.09))
    market = ["--r", repr(r), "--sigma-sq", repr(s2)]
    # sigma^2 T >= 0.04 keeps the spot-node error of the h = 0.01 grid
    # (about (h / sigma sqrt(T))^2) at half the 1e-3 bound or less
    pairs = [(s0 * float(rng.uniform(0.95, 1.05)), float(rng.uniform(1.0, 2.0))) for _ in range(4)]
    curves: dict = {}
    ops: list = []

    def curve(label: str, path: Path):
        data = _read_csv(path)
        curves[label] = (data[:, 0], data[:, 1])
        return data[:, 0], data[:, 1]

    def vanilla(label, payoff, k, t):
        path = work / f"{label}.csv"
        argv = ["price", "--payoff", payoff, "--strike", repr(k), *market, "--t", repr(t),
                *grid, "--out", str(path)]

        def check():
            x, v = curve(label, path)
            s = math.exp(x[SPOT])
            ref = (oracle.bs_call if payoff == "call" else oracle.bs_put)(s, k, r, s2, t)
            return (_finite(label, v) + oracle.check_convex(x, v, label)
                    + oracle.check_relative(v[SPOT], ref, 1e-3, f"{label} at spot"))

        return _cli_op(label, f"price.{payoff}", argv, [path, f"{path}.manifest"], check)

    for i, (k, t) in enumerate(pairs):
        ops.append(vanilla(f"call{i}", "call", k, t))
        ops.append(vanilla(f"put{i}", "put", k, t))

    for label, payoff, t, tol in (("bond", "bond", pairs[0][1], 1e-8), ("asset", "asset", pairs[1][1], 2e-5)):
        path = work / f"{label}.csv"
        argv = ["price", "--payoff", payoff, *market, "--t", repr(t), *grid, "--out", str(path)]

        def check(label=label, path=path, payoff=payoff, t=t, tol=tol):
            x, v = curve(label, path)
            ref = np.full(x.size, math.exp(-r * t)) if payoff == "bond" else np.exp(x)
            err = float(np.max(np.abs(v / ref - 1.0)))
            if not err <= tol:
                return [f"{label}: max relative deviation {err:.3g} from its closed form > {tol:g}"]
            return []

        ops.append(_cli_op(label, f"price.{payoff}", argv, [path, f"{path}.manifest"], check))

    barriers = []
    x_nodes = np.linspace(x0 - 4.0, x0 + 4.0, N_PRICE)
    # barrier nodes sit at fixed offsets from the spot, below every strike,
    # so the count of knocked (pinned) rows and the cost do not vary by seed
    for i, ((k, t), (below, above)) in enumerate(zip(pairs, ((10, 40), (30, 70)))):
        lo, hi = float(x_nodes[SPOT - below]), float(x_nodes[SPOT + above])
        barriers.append((i, k, t, lo, hi))
        base = ["price", "--payoff", "call", "--strike", repr(k), *market, "--t", repr(t), *grid]

        do_label, do_path = f"do{i}", work / f"do{i}.csv"

        def check_do(label=do_label, path=do_path, k=k, t=t, lo=lo):
            x, v = curve(label, path)
            problems = _finite(label, v)
            s, b = math.exp(x[SPOT]), math.exp(lo)
            ref = oracle.down_and_out_call(s, k, b, r, s2, t)
            problems += oracle.check_relative(v[SPOT], ref, 1e-2, f"{label} at spot")
            if np.any(v[x <= lo] != 0.0):
                problems.append(f"{label}: nonzero price at or below the barrier")
            return problems

        ops.append(_cli_op(do_label, "price.down-and-out", [*base, "--barrier-level", repr(lo),
                                                             "--out", str(do_path)],
                           [do_path, f"{do_path}.manifest"], check_do))

        dko_label, dko_path = f"dko{i}", work / f"dko{i}.csv"

        def check_dko(label=dko_label, path=dko_path, lo=lo, hi=hi):
            x, v = curve(label, path)
            problems = _finite(label, v)
            if np.any(v[(x <= lo) | (x >= hi)] != 0.0):
                problems.append(f"{label}: nonzero price outside the corridor")
            if not v.min() >= -1e-9 * s0:
                problems.append(f"{label}: negative price {v.min()!r}")
            return problems

        ops.append(_cli_op(dko_label, "price.double-knockout",
                           [*base, "--corridor", repr(lo), repr(hi), "--out", str(dko_path)],
                           [dko_path, f"{dko_path}.manifest"], check_dko))

    # unitary runs with sigma^2 = 2r, where the generator is symmetric
    for i in range(2):
        ru = float(rng.uniform(0.01, 0.045))
        t_evolve = float(rng.uniform(0.5, 1.0))
        label = f"unitary{i}"
        out, flow = work / f"{label}.csv", work / f"{label}.flow.csv"
        argv = ["evolve", "--mode", "unitary", "--boundary", "dirichlet", "--state", "gaussian",
                "--center", repr(x0 + float(rng.uniform(-0.5, 0.5))),
                "--width", repr(float(rng.uniform(0.1, 0.4))),
                "--r", repr(ru), "--sigma-sq", repr(2.0 * ru), *grid,
                "--dt", repr(t_evolve / N_PRICE_STEPS), "--n-steps", str(N_PRICE_STEPS),
                "--out", str(out), "--flow-out", str(flow)]

        def check_unitary(label=label, out=out, flow=flow):
            series = _read_csv(flow)
            if series.shape[0] != N_PRICE_STEPS + 1:
                return [f"{label}: flow series has {series.shape[0]} rows, expected {N_PRICE_STEPS + 1}"]
            norms = series[:, 2]
            problems = oracle.check_norm_drift(norms, label)
            state = _read_csv(out)
            h = state[1, 0] - state[0, 0]
            final = math.sqrt(float(np.sum(state[:, 1] ** 2)) * h)
            problems += oracle.check_relative(final, norms[-1], 1e-10, f"{label} final norm")
            return problems

        ops.append(_cli_op(label, "evolve.unitary", argv,
                           [out, flow, f"{out}.manifest"], check_unitary))

    # Known fault: Crank-Nicolson without Rannacher startup leaves the payoff
    # kink undamped at dt = T/4, so Gamma goes negative near the strike.
    # Fixed inputs, independent of the seed, so these fail on every run.
    coarse_grid = ["--x-min", "0.605", "--x-max", "8.605", "--n-points", str(N_PRICE)]
    for payoff in ("call", "put"):
        label = f"coarse-{payoff}"
        path = work / f"{label}.csv"
        argv = ["price", "--payoff", payoff, "--strike", "100", "--r", "0.05", "--sigma-sq", "0.04",
                "--t", "1", "--dt", "0.25", *coarse_grid, "--out", str(path)]

        def check_coarse(label=label, path=path):
            x, v = curve(label, path)
            return _finite(label, v) + oracle.check_convex(x, v, label)

        ops.append(_cli_op(label, "price.coarse-step", argv, [path, f"{path}.manifest"],
                           check_coarse, known_fault=True))

    def cross_check():
        problems = []
        for i, (k, t) in enumerate(pairs):
            x, c = curves[f"call{i}"]
            _, p = curves[f"put{i}"]
            s = np.exp(x)
            gap = np.abs(c - p - (s - k * math.exp(-r * t)))
            if not np.all(gap <= 5e-5 * s + 1e-8 * k):
                problems.append(f"put-call parity {i}: max gap {gap.max():.3g}")
        for i, *_ in barriers:
            c, do, dko = (curves[f"{name}{i}"][1] for name in ("call", "do", "dko"))
            slack = 1e-9 * s0
            if not np.all(dko <= do + slack):
                problems.append(f"barrier {i}: double knockout above down-and-out")
            if not np.all(do <= c + slack):
                problems.append(f"barrier {i}: down-and-out above vanilla")
        curves.clear()
        return problems

    def calibrate():
        """Evolve on the ladder's own first call operator at one step
        and at the full step count, which splits the fixed cost
        (assembly of the stepping matrices, factorization) from the
        per-step cost."""
        from qflab import EvolutionConfig, Grid1D, StateVector, build_bs_hamiltonian, evolve

        k, t = pairs[0]
        g = Grid1D(x0 - 4.0, x0 + 4.0, N_PRICE)
        op = build_bs_hamiltonian(MarketParams(r=r, sigma_sq=s2), g)
        state = StateVector(np.maximum(np.exp(g.points) - k, 0.0), g)
        pins = {0: 0.0, N_PRICE - 1: math.exp(x0 + 4.0) - k * math.exp(-r * t)}
        dt = t / N_PRICE_STEPS
        one, full = [], []
        for _ in range(7):
            for steps, sink in ((1, one), (N_PRICE_STEPS, full)):
                t0 = time.process_time()
                evolve(op, state, EvolutionConfig(dt=dt, n_steps=steps), boundary_values=pins)
                sink.append(time.process_time() - t0)
        step = (statistics.median(full) - statistics.median(one)) / (N_PRICE_STEPS - 1)
        return {
            "evolution.fixed_ms": (statistics.median(one) - step) * 1e3,
            "evolution.step_us": step * 1e6,
        }

    return Workload(ops, cross_check, calibrate)


def _bs_floor(x_max: float, h: float, r: float, s2: float) -> float:
    """Roundoff level of the 1D generator applied to e^x."""
    scale = 2.0 * s2 / h**2 + abs(0.5 * s2 - r) / h + r
    return oracle.ROUNDOFF_UNITS * EPS * math.exp(x_max) * scale


def _mg_floor(p: dict, x_max: float, hx: float, y_max: float, y_min: float, hy: float) -> float:
    """Roundoff level of the 2D generator applied to e^x: largest
    stencil weights over the y range times the state's size."""
    y = np.array([y_min, y_max])
    ey = np.exp(y)
    drift_y = p["lambda"] * np.exp(-y) + p["mu"] - 0.5 * p["zeta"] ** 2 * np.exp(2 * y * (p["alpha"] - 1))
    cross = abs(p["rho"]) * p["zeta"] * np.exp(y * (p["alpha"] - 0.5))
    yy = p["zeta"] ** 2 * np.exp(2 * y * (p["alpha"] - 1))
    scale = float(np.max(2.0 * ey / hx**2 + np.abs(p["r"] - 0.5 * ey) / hx + np.abs(drift_y) / hy
                         + cross / (hx * hy) + 4.0 * yy / hy**2)) + p["r"]
    return oracle.ROUNDOFF_UNITS * EPS * math.exp(x_max) * scale


def grid_refine(rng: np.random.Generator, work: Path) -> Workload:
    """A refinement ladder of ``martingale-check``: the 1D generator at
    n = 801 .. 25601 (h halving each rung; the last rungs reach
    roundoff) and the 2D generator from 101x41 to 401x161. Nothing is
    stepped."""
    c = float(rng.uniform(-0.5, 0.5))
    x_min, x_max = c - 4.0, c + 4.0
    # the leading h^2 error of the generator on e^x is (sigma^2/24 - r/6) h^2 e^x;
    # sigma^2 <= 2r keeps it at least half its r-term, away from the
    # fourth-order cancellation at sigma^2 = 4r where the ratio tends to 16
    r = float(rng.uniform(0.03, 0.06))
    s2 = float(rng.uniform(0.02, 2.0 * r))
    mg = {
        "r": float(rng.uniform(0.01, 0.06)),
        "lambda": float(rng.uniform(0.02, 0.1)),
        "mu": float(rng.uniform(-2.0, -0.5)),
        "zeta": float(rng.uniform(0.1, 0.4)),
        "alpha": float(rng.uniform(0.5, 1.0)),
        "rho": float(rng.uniform(-0.8, -0.1)),
    }
    mg_flags = [f for key, val in mg.items() for f in (f"--{key}", repr(val))]
    reports: dict = {}
    ops: list = []
    ladders = {"bs": [], "mg": []}

    def add(label, argv, floor, ladder):
        path = work / f"{label}.txt"
        ladders[ladder].append((label, floor))

        def check():
            rec = _read_record(path)
            reports[label] = rec
            res, tol = float(rec["residual_max"]), float(rec["tolerance"])
            problems = []
            if rec.get("verdict") != "pass":
                problems.append(f"{label}: verdict {rec.get('verdict')!r}")
            if not res <= tol:
                problems.append(f"{label}: residual {res!r} above tolerance {tol!r}")
            return problems

        ops.append(_cli_op(label, f"martingale-check.{label}", [*argv, "--out", str(path)],
                           [path, f"{path}.manifest"], check))

    for n in (801, 1601, 3201, 6401, 12801, 25601):
        h = (x_max - x_min) / (n - 1)
        add(f"bs-{n}", ["martingale-check", "--model", "bs", "--r", repr(r), "--sigma-sq", repr(s2),
                        "--x-min", repr(x_min), "--x-max", repr(x_max), "--n-points", str(n)],
            _bs_floor(x_max, h, r, s2), "bs")
    y_min, y_max = -4.0, -2.0
    for nx, ny in ((101, 41), (201, 81), (401, 161)):
        hx, hy = 2.0 / (nx - 1), (y_max - y_min) / (ny - 1)
        add(f"mg-{nx}x{ny}", ["martingale-check", "--model", "mg", *mg_flags,
                              "--x-min", "-1.0", "--x-max", "1.0", "--n-points", str(nx),
                              "--y-min", repr(y_min), "--y-max", repr(y_max), "--m-points", str(ny)],
            _mg_floor(mg, 1.0, hx, y_max, y_min, hy), "mg")

    def cross_check():
        problems = []
        for name, ladder in ladders.items():
            residuals = [float(reports[label]["residual_max"]) for label, _ in ladder]
            floors = [floor for _, floor in ladder]
            problems += oracle.check_halving(residuals, floors, f"{name} refinement")
        reports.clear()
        return problems

    return Workload(ops, cross_check)


def monte_carlo(rng: np.random.Generator, work: Path) -> Workload:
    """The ``simulate`` verb for both models writing CSV, a same-seed
    rerun, and library calls of ``simulate_gbm``, ``simulate_mg`` and
    ``mc_martingale_check`` at 1e4 paths checked in memory."""
    s0 = float(rng.uniform(50.0, 200.0))
    r = float(rng.uniform(0.01, 0.06))
    s2 = float(rng.uniform(0.02, 0.09))
    t = float(rng.uniform(0.5, 1.5))
    tilt = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.02, 0.05))
    drifts = (r, r + tilt)
    mg = {
        "r": r,
        "lambda": float(rng.uniform(0.02, 0.1)),
        "mu": float(rng.uniform(-2.0, -0.5)),
        "zeta": float(rng.uniform(0.1, 0.4)),
        "alpha": float(rng.uniform(0.5, 1.0)),
        "rho": float(rng.uniform(-0.8, -0.1)),
    }
    v0 = float(rng.uniform(0.02, 0.06))
    seeds = [int(s) for s in rng.integers(0, 2**31, size=8)]
    ops: list = []
    files: dict = {}

    def check_table(label, data, n_paths, n_steps, drift, with_v):
        path_id, s = data[:, 0], data[:, 2]
        v = data[:, 3] if with_v else None
        problems = oracle.check_paths(path_id, s, n_paths, n_steps, s0, label, v)
        if problems:
            return problems
        t_col = data[:, 1].reshape(n_paths, n_steps + 1)
        if t_col[0, 0] != 0.0 or abs(t_col[0, -1] - t) > 1e-12 * t:
            problems.append(f"{label}: time column does not run from 0 to {t!r}")
        terminal = s.reshape(n_paths, n_steps + 1)[:, -1]
        problems += _check_terminal(label, terminal, drift, with_v)
        return problems

    def _check_terminal(label, terminal, drift, sample_se):
        discounted = math.exp(-r * t) * terminal
        mean, var = oracle.discounted_terminal_moments(s0, drift, r, s2, t)
        if sample_se:
            se = float(discounted.std(ddof=1)) / math.sqrt(discounted.size)
        else:
            se = math.sqrt(var / discounted.size)
        return oracle.check_mean(float(discounted.mean()), mean, se, f"{label} discounted mean")

    def simulate(label, model, n_paths, n_steps, drift, seed):
        path = work / f"{label}.csv"
        files[label] = path
        argv = ["simulate", "--model", model, "--drift", repr(drift), "--s0", repr(s0),
                "--t", repr(t), "--dt", repr(t / n_steps), "--n-paths", str(n_paths),
                "--seed", str(seed), "--out", str(path)]
        if model == "gbm":
            argv += ["--r", repr(r), "--sigma-sq", repr(s2)]
        else:
            argv += [f for key, val in mg.items() for f in (f"--{key}", repr(val))]
            argv += ["--v0", repr(v0)]

        def check():
            return check_table(label, _read_csv(path), n_paths, n_steps, drift, model == "mg")

        ops.append(_cli_op(label, f"simulate.{model}", argv, [path, f"{path}.manifest"], check))

    simulate("gbm-rn", "gbm", 500, 50, drifts[0], seeds[0])
    simulate("gbm-tilt", "gbm", 500, 50, drifts[1], seeds[1])
    simulate("mg-rn", "mg", 300, 40, drifts[0], seeds[2])
    simulate("mg-tilt", "mg", 300, 40, drifts[1], seeds[3])
    simulate("gbm-rn-rerun", "gbm", 500, 50, drifts[0], seeds[0])

    lib_paths, lib_gbm_steps, lib_mg_steps = 10_000, 100, 50
    market = MarketParams(r=r, sigma_sq=s2)

    def lib_gbm():
        return qflab.sde.simulate_gbm(SDEParams(drifts[1], market), s0, t, t / lib_gbm_steps,
                                      lib_paths, seeds[4])

    def check_lib_gbm(ens):
        s = ens.paths
        problems = oracle.check_paths(np.repeat(np.arange(lib_paths), lib_gbm_steps + 1),
                                      s.reshape(-1), lib_paths, lib_gbm_steps, s0, "simulate_gbm")
        return problems or _check_terminal("simulate_gbm", s[:, -1], drifts[1], False)

    def lib_mg():
        p = MGParams(r=r, lam=mg["lambda"], mu=mg["mu"], zeta=mg["zeta"], alpha=mg["alpha"],
                     rho=mg["rho"])
        return qflab.sde.simulate_mg(p, drifts[0], s0, v0, t, t / lib_mg_steps, lib_paths, seeds[5])

    def check_lib_mg(ens):
        s = ens.paths
        problems = oracle.check_paths(np.repeat(np.arange(lib_paths), lib_mg_steps + 1),
                                      s.reshape(-1), lib_paths, lib_mg_steps, s0, "simulate_mg",
                                      ens.v_paths.reshape(-1))
        return problems or _check_terminal("simulate_mg", s[:, -1], drifts[0], True)

    ops.append(Op("lib-gbm", "library.simulate_gbm", lib_gbm, check_lib_gbm))
    ops.append(Op("lib-mg", "library.simulate_mg", lib_mg, check_lib_mg))

    for i, drift in enumerate(drifts):
        def mc(drift=drift, seed=seeds[6 + i]):
            return qflab.martingale.mc_martingale_check(SDEParams(drift, market), s0, t,
                                                        lib_paths, seed)

        def check_mc(result, drift=drift, label=f"mc_martingale_check {i}"):
            statistic, se = result
            mean, var = oracle.discounted_terminal_moments(s0, drift, r, s2, t)
            se_ref = math.sqrt(var / lib_paths)
            problems = oracle.check_mean(statistic + s0, mean, se_ref, label)
            problems += oracle.check_relative(se, se_ref, 0.1, f"{label} standard error")
            return problems

        ops.append(Op(f"mc-{i}", "library.mc_martingale_check", mc, check_mc))

    def cross_check():
        first, rerun = files["gbm-rn"], files["gbm-rn-rerun"]
        if first.read_bytes() != rerun.read_bytes():
            return ["simulate rerun with the same seed is not byte-identical"]
        return []

    return Workload(ops, cross_check)


BUILDERS = {"price-ladder": price_ladder, "grid-refine": grid_refine, "monte-carlo": monte_carlo}


def _run_round(wl: Workload, tracer: Tracer | None, log: dict) -> None:
    for op in wl.ops:
        if tracer is not None:
            tracer.op_id = log["attempted"]
            span = tracer.start("op")
        t0 = time.process_time()
        try:
            value = op.run()
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            value, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.process_time() - t0
        if tracer is not None:
            tracer.stop(span)
            log["bytes_out"] += sum(Path(p).stat().st_size for p in op.outputs if Path(p).exists())
        problems = [error] if error else op.check(value)
        log["attempted"] += 1
        log["times"].setdefault(op.kind, []).append(elapsed)
        if problems:
            log["failed"] += 1
            key = "known_fault" if op.known_fault else "unexpected"
            log[key].extend(p for p in problems if p not in log[key])
    log["unexpected"].extend(p for p in wl.cross_check() if p not in log["unexpected"])


def _new_log() -> dict:
    return {"attempted": 0, "failed": 0, "times": {}, "known_fault": [], "unexpected": [],
            "bytes_out": 0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True, help="directory for the CLI's output files")
    ap.add_argument("--result", required=True, help="where to write the result JSON")
    ap.add_argument("--spans", default=None, help="where to write spans (traced runs)")
    args = ap.parse_args(argv)

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = BUILDERS[args.workload](np.random.default_rng(args.seed), work)

    warm = _new_log()
    _run_round(wl, None, warm)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install({name: sys.modules[name] for name in QFLAB_MODULES})
    log = _new_log()
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        _run_round(wl, tracer, log)
        rounds += 1

    all_times = [t for times in log["times"].values() for t in times]
    # a round in which every operation takes its kind's median time; the
    # host's other guests slow whole stretches of a run, and per-kind
    # medians are the steadiest estimate of a round found under that load
    typical_round = sum(len(ts) / rounds * statistics.median(ts) for ts in log["times"].values())
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "ops_per_round": len(wl.ops),
        "attempted": log["attempted"],
        "failed": log["failed"],
        "correct": not (warm["unexpected"] or log["unexpected"]),
        "unexpected": (warm["unexpected"] + log["unexpected"])[:20],
        "known_fault": log["known_fault"][:5],
        "ops_per_s": len(wl.ops) / typical_round,
        "op_p50_ms": statistics.median(all_times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kinds": {kind: {"n": len(ts), "p50_ms": statistics.median(ts) * 1e3}
                  for kind, ts in sorted(log["times"].items())},
    }
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, rounds, {"bytes_out": log["bytes_out"]})
        layers.update({"evolution.fixed_ms": 0.0, "evolution.step_us": 0.0})
        if wl.calibrate is not None:
            layers.update(wl.calibrate())
        layers["trace.ops_per_s"] = result["ops_per_s"]
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
