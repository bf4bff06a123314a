"""Command-line front door.

Eight verbs: bs-vacuum, mg-vacuum, martingale-check, constraint-solve,
price, evolve, simulate, classify. Options come from long-form flags,
optionally merged over a key-value config file (flags win). Every
successful run writes the declared output plus a ``<out>.manifest``
record (full parameter echo, seed where used, tool version, and the
exact argv for bit-identical reruns). Exit codes: 0 success, 1
numerical failure (no root, singular solve) with a machine-readable
error record, 2 validation error.
"""

from __future__ import annotations

import argparse
import functools
import shlex
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    PAYOFF_ASSET,
    EvolutionConfig,
    Payoff,
    _euclidean,
    evolve,
    price_barrier,
    price_option,
)
from .martingale import (
    MartingaleReport,
    martingale_residual,
    solve_extended_constraint,
)
from .model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    SDEParams,
    StateVector,
    _computed,
    _finite,
    _positive,
    _record,
    _row_blocks,
    _write_csv,
    load_config,
    sample_extended_martingale_state,
    sample_martingale_state,
)
from .operators import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_ONE_SIDED,
    Potential,
    build_bs_hamiltonian,
    build_mg_hamiltonian,
)
from .sde import _check_rows, _check_sizes, export_csv, simulate_gbm, simulate_mg
from .vacuum import (
    bs_extremum_roots,
    bs_vacuum_exact,
    bs_vacuum_strong,
    bs_vacuum_weak,
    classify_information_flow,
    mg_case_solver,
    mg_regime_solver,
)

_BS_FAMILIES = {
    "exact": bs_vacuum_exact,
    "weak": bs_vacuum_weak,
    "strong": bs_vacuum_strong,
    "extremum": bs_extremum_roots,
}


def _add_market_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=float, default=None, help="spot rate")
    sub.add_argument("--sigma-sq", type=float, default=None, help="squared volatility")


def _add_mg_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=float, default=None, help="spot rate")
    sub.add_argument("--lambda", dest="lam", type=float, default=None)
    sub.add_argument("--mu", type=float, default=None)
    sub.add_argument("--zeta", type=float, default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--rho", type=float, default=None)


def _add_grid_flags(sub: argparse.ArgumentParser, two_d: bool = False) -> None:
    sub.add_argument("--x-min", type=float, default=None)
    sub.add_argument("--x-max", type=float, default=None)
    sub.add_argument("--n-points", type=int, default=None)
    if two_d:
        sub.add_argument("--y-min", type=float, default=None)
        sub.add_argument("--y-max", type=float, default=None)
        sub.add_argument("--m-points", type=int, default=None)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflab",
        description="Operator, field-equilibrium, pricing, and path-simulation workbench",
    )
    parser.add_argument("--version", action="version", version=f"qflab {__version__}")
    subs = parser.add_subparsers(dest="verb", required=True)

    s = subs.add_parser("bs-vacuum", help="one-factor equilibrium field roots")
    _add_market_flags(s)
    s.add_argument("--n", type=int, required=True, help="expansion order")
    s.add_argument("--family", choices=sorted(_BS_FAMILIES), default="exact")

    s = subs.add_parser("mg-vacuum", help="two-factor equilibrium solutions")
    _add_mg_flags(s)
    s.add_argument("--y", type=float, required=True, help="log-variance point")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument(
        "--regime",
        default=None,
        help="strong-strong | weak-weak | strong-x-weak-y | weak-x-strong-y "
        "(omit for the closed-form low-order cases)",
    )
    s.add_argument("--phi-x", type=float, default=1.0)
    s.add_argument("--csv-out", default=None, help="also write roots as CSV")

    s = subs.add_parser("martingale-check", help="operator annihilation residual")
    s.add_argument("--model", choices=["bs", "mg"], required=True)
    _add_mg_flags(s)
    s.add_argument("--sigma-sq", type=float, default=None)
    s.add_argument("--state", choices=["price", "extended"], default="price")
    _add_grid_flags(s, two_d=True)
    s.add_argument("--tol", type=float, default=None)

    s = subs.add_parser("constraint-solve", help="root of the extended constraint")
    _add_mg_flags(s)
    s.add_argument("--bracket", type=float, nargs=2, required=True, metavar=("LO", "HI"))

    s = subs.add_parser("price", help="vanilla or knock-out price curve")
    _add_market_flags(s)
    s.add_argument("--payoff", choices=["call", "put", "bond", "asset"], required=True)
    s.add_argument("--strike", type=float, default=None)
    s.add_argument("--t", type=float, required=True, help="maturity")
    _add_grid_flags(s)
    s.add_argument("--dt", type=float, default=None, help="target step (default t/400)")
    s.add_argument("--barrier-level", type=float, default=None, help="down-and-out level (log-price)")
    s.add_argument(
        "--corridor", type=float, nargs=2, default=None, metavar=("LO", "HI"),
        help="double-knockout corridor (log-price)",
    )

    s = subs.add_parser("evolve", help="time evolution diagnostics")
    _add_market_flags(s)
    s.add_argument("--mode", choices=["euclidean", "unitary"], default="euclidean")
    s.add_argument("--boundary", choices=["one-sided", "dirichlet"], default="one-sided")
    s.add_argument("--state", choices=["asset", "bond", "gaussian"], required=True)
    s.add_argument("--center", type=float, default=0.0, help="gaussian state center")
    s.add_argument("--width", type=float, default=0.2, help="gaussian state width")
    _add_grid_flags(s)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--n-steps", type=int, required=True)
    s.add_argument("--flow-out", default=None, help="write mass/norm series CSV")

    s = subs.add_parser("simulate", help="Monte Carlo path ensembles")
    s.add_argument("--model", choices=["gbm", "mg"], required=True)
    _add_mg_flags(s)
    s.add_argument("--sigma-sq", type=float, default=None)
    s.add_argument("--drift", type=float, required=True, help="expected return")
    s.add_argument("--s0", type=float, required=True)
    s.add_argument("--v0", type=float, default=None, help="initial variance (mg)")
    s.add_argument("--t", type=float, required=True)
    s.add_argument("--dt", type=float, required=True)
    s.add_argument("--n-paths", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--force-big", action="store_true", help="lift the CSV size guard")

    s = subs.add_parser("classify", help="information-flow / symmetry report")
    s.add_argument("--model", choices=["bs", "mg"], required=True)
    _add_mg_flags(s)
    s.add_argument("--sigma-sq", type=float, default=None)
    s.add_argument("--y", type=float, default=None)

    for s in subs.choices.values():
        s.add_argument("--config", default=None)
        s.add_argument("--out", required=True)
    return parser


def _required(args: argparse.Namespace, *dests: str) -> list:
    """Values of the options ``dests``, refusing the first one left unset."""
    for dest in dests:
        if getattr(args, dest) is None:
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise ValueError(f"missing required option {flag} (flag or config)")
    return [getattr(args, dest) for dest in dests]


def _market_params(args) -> MarketParams:
    return MarketParams(*_required(args, "r", "sigma_sq"))


def _mg_params(args) -> MGParams:
    return MGParams(*_required(args, "r", "lam", "mu", "zeta", "alpha", "rho"))


_X_AXIS = ("x_min", "x_max", "n_points")
_Y_AXIS = ("y_min", "y_max", "m_points")


def _grid_1d(args, default: Grid1D | None = None) -> Grid1D:
    if default is not None and all(getattr(args, k) is None for k in _X_AXIS):
        return default
    return Grid1D(*_required(args, *_X_AXIS))


def _grid_2d(args, default: Grid2D | None = None) -> Grid2D:
    if default is not None and all(getattr(args, k) is None for k in _X_AXIS + _Y_AXIS):
        return default
    x = Grid1D(*_required(args, *_X_AXIS))
    return Grid2D(x_axis=x, y_axis=Grid1D(*_required(args, *_Y_AXIS)))


def _write_manifest(out: str, verb: str, opts: dict, argv: list[str]) -> None:
    echo = [
        (f"opt_{name}", " ".join(map(repr, val)) if isinstance(val, (list, tuple)) else val)
        for name, val in sorted(opts.items())
        if name not in ("verb", "config")
    ]
    Path(str(out) + ".manifest").write_text(_record([
        ("verb", verb),
        ("version", __version__),
        *echo,
        ("argv", shlex.join(str(a) for a in argv)),
    ]))


def _run_bs_vacuum(args) -> None:
    p = _market_params(args)
    Path(args.out).write_text(_BS_FAMILIES[args.family](p, args.n).to_csv())


def _run_mg_vacuum(args) -> None:
    p = _mg_params(args)
    if args.regime is None:
        sol = mg_case_solver(p, args.y, args.n, args.m)
    else:
        sol = mg_regime_solver(p, args.y, args.n, args.m, args.regime, phi_x=args.phi_x)
    Path(args.out).write_text(sol.to_record())
    if args.csv_out:
        Path(args.csv_out).write_text(sol.to_csv())


def _run_martingale_check(args) -> MartingaleReport:
    if args.model == "bs":
        if args.state == "extended":
            raise ValueError("--state extended needs --model mg: e^{x+y} lives on the 2D grid")
        p = _market_params(args)
        g = _grid_1d(args, default=Grid1D(-4.0, 4.0, 801))
        op = build_bs_hamiltonian(p, g)
        state = sample_martingale_state(g)
    else:
        p = _mg_params(args)
        g2 = _grid_2d(args, default=Grid2D(Grid1D(-1.0, 1.0, 201), Grid1D(-4.0, -2.0, 81)))
        op = build_mg_hamiltonian(p, g2)
        if args.state == "extended":
            state = sample_extended_martingale_state(g2)
        else:
            vals = np.repeat(sample_martingale_state(g2.x_axis).values, g2.y_axis.n_points)
            state = StateVector(vals, g2)
    report = martingale_residual(op, state, tol=args.tol)
    Path(args.out).write_text(report.to_record())
    return report


def _run_constraint_solve(args) -> None:
    p = _mg_params(args)
    root = solve_extended_constraint(p, (args.bracket[0], args.bracket[1]))
    Path(args.out).write_text(_record([
        ("y_star", root.y_star),
        ("residual", root.residual),
        ("bracket_lo", root.bracket[0]),
        ("bracket_hi", root.bracket[1]),
    ]))


def _run_price(args) -> None:
    if args.barrier_level is not None and args.corridor is not None:
        raise ValueError("choose one of --barrier-level or --corridor")
    p = _market_params(args)
    g = _grid_1d(args)
    if args.payoff in ("call", "put") and args.strike is None:
        raise ValueError("--strike is required for call and put payoffs")
    payoff = Payoff(PAYOFF_ASSET if args.payoff == "asset" else args.payoff, args.strike)
    # the pricers take a target step and derive the count from --t, so a bad
    # --t is named before the default step derived from it is checked
    dt = args.dt if args.dt is not None else _positive(
        _positive(args.t, "maturity") / 400.0, f"default step t/400 of --t {args.t!r}")
    barrier = None
    if args.barrier_level is not None:
        barrier = Potential.down_and_out(args.barrier_level)
    elif args.corridor is not None:
        barrier = Potential.double_knockout(*args.corridor)
    if barrier is None:
        curve = price_option(p, payoff, args.t, g, dt)
    else:
        curve = price_barrier(p, payoff, barrier, args.t, g, dt)
    _write_csv(args.out, "x,value", _row_blocks(g.points, curve.values))


def _run_evolve(args) -> None:
    p = _market_params(args)
    g = _grid_1d(args)
    boundary = BOUNDARY_DIRICHLET if args.boundary == "dirichlet" else BOUNDARY_ONE_SIDED
    op = build_bs_hamiltonian(p, g, boundary=boundary)
    if args.state == "asset":
        state = sample_martingale_state(g)
    elif args.state == "bond":
        state = StateVector(np.ones(g.n_points), g)
    else:
        center, width = _finite(args.center, "--center"), _positive(args.width, "--width")
        # 2 width^2 may overflow, or underflow to 0, where the state has no value
        refusal = f"--width {width!r} leaves 2 width^2 outside the positive floats"
        if _computed(lambda: 2.0 * width**2, refusal) == 0.0:
            raise ValueError(refusal)
        state = StateVector(_computed(
            lambda: np.exp(-((g.points - center) ** 2) / (2.0 * width**2)),
            f"the gaussian state of --width {width!r} at --center {center!r} is not finite",
        ), g)
    cfg_run = EvolutionConfig(dt=args.dt, n_steps=args.n_steps, mode=args.mode)
    if args.mode == "euclidean":
        _euclidean(p, g, cfg_run.dt)
    out, flow = evolve(op, state, cfg_run)
    vals = np.abs(out.values) if args.mode == "unitary" else np.real(out.values)
    header = "x,modulus" if args.mode == "unitary" else "x,value"
    _write_csv(args.out, header, _row_blocks(g.points, vals))
    if args.flow_out:
        flow.to_csv(args.flow_out)


def _run_simulate(args) -> None:
    # refuse an oversized CSV before simulating the ensemble
    n_steps = _check_sizes(args.s0, args.t, args.dt, args.n_paths, args.seed)
    _check_rows(args.n_paths * (n_steps + 1), force=args.force_big)
    if args.model == "gbm":
        sp = SDEParams(expected_return=args.drift, base=_market_params(args))
        ens = simulate_gbm(sp, args.s0, args.t, args.dt, args.n_paths, args.seed)
    else:
        p = _mg_params(args)
        (v0,) = _required(args, "v0")
        ens = simulate_mg(p, args.drift, args.s0, v0, args.t, args.dt, args.n_paths, args.seed)
    export_csv(ens, args.out, force=args.force_big)


def _run_classify(args) -> None:
    if args.model == "bs":
        report = classify_information_flow(_market_params(args))
    else:
        report = classify_information_flow(_mg_params(args), *_required(args, "y"))
    Path(args.out).write_text(report.to_record())


_RUNNERS = {
    "bs-vacuum": _run_bs_vacuum,
    "mg-vacuum": _run_mg_vacuum,
    "martingale-check": _run_martingale_check,
    "constraint-solve": _run_constraint_solve,
    "price": _run_price,
    "evolve": _run_evolve,
    "simulate": _run_simulate,
    "classify": _run_classify,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    cli_opts = dict(vars(args))  # the manifest echoes the command line only
    try:
        if args.config:
            # config values fill the options this verb declares and argv left unset
            for key, val in load_config(args.config).items():
                dest = "lam" if key == "lambda" else key
                if hasattr(args, dest) and getattr(args, dest) is None:
                    setattr(args, dest, val)
        result = _RUNNERS[args.verb](args)
    except (ArithmeticError, ValueError, OSError) as exc:
        numerical = isinstance(exc, ArithmeticError)
        record = _record([
            ("error", type(exc).__name__ if numerical else "validation"),
            ("verb", args.verb),
            ("message", exc),
        ])
        if not numerical:
            sys.stderr.write(record)
            return 2
        sys.stdout.write(record)
        if getattr(args, "out", None):
            Path(args.out).write_text(record)
        return 1

    _write_manifest(args.out, args.verb, cli_opts, argv)
    if isinstance(result, MartingaleReport):
        sys.stdout.write(_record([("verdict", result.verdict)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
