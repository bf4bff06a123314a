"""Byte-identity sweep of the qflab library's Crank-Nicolson paths.

Calls a fixed list of library functions in-process (the pricers,
``evolve`` and ``kernel_row``) and prints one line per case: its number,
its label, and either the sha256 of everything it returned or the
exception it raised, by type and message. Two checkouts whose printouts
are equal returned the same bytes for every case:

    python tools/lib_sweep.py OLD/src > old.txt
    python tools/lib_sweep.py NEW/src > new.txt
    diff old.txt new.txt

SRC is a checkout's ``src`` directory, from which qflab is imported. The
digest of a price curve or a kernel row covers its values; that of an
``evolve`` run covers the final state, the mass and norm series and both
drift fractions. Cases are numbered, and new cases go at the end of the
list, so that earlier cases keep their numbers. The first line names the
Python, numpy and scipy versions, since a float's last bits may change
with them.

The cases reach the paths no command line reaches: ``kernel_row``,
``evolve`` under a barrier operator's mask with constant, callable and
complex boundary values, two-factor ``evolve``, and tabulated payoffs
under knock-outs, beside vanilla and knock-out prices of every payoff,
and the refusals of the step budget, of an unknown closure, of
``kernel_row``'s step at r dt >= 2 and of the node budget.

``tests/lib_sweep_golden.txt`` holds this printout, and
``tests/test_lib_sweep.py`` runs ``sweep`` against it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path


def _digest(*arrays) -> str:
    """sha256 over each array's dtype and bytes, in order."""
    import numpy as np

    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _cases() -> list[tuple[str, object]]:
    """Every case of the sweep: a label and a function of no arguments
    that returns the arrays to hash."""
    import numpy as np

    from qflab import (
        EvolutionConfig,
        Grid1D,
        Grid2D,
        MarketParams,
        MGParams,
        OperatorMatrix,
        Payoff,
        Potential,
        StateVector,
        build_bs_hamiltonian,
        build_effective_bs,
        build_mg_hamiltonian,
        evolve,
        kernel_row,
        price_barrier,
        price_option,
    )
    from qflab.model import MAX_NODES, MAX_STEPS
    from qflab.operators import BOUNDARY_DIRICHLET
    from scipy import sparse

    p = MarketParams(r=0.05, sigma_sq=0.04)
    grids = {n: Grid1D(0.605, 8.605, n) for n in (201, 801)}
    cases: list[tuple[str, object]] = []

    def values(result):
        return (result.values,)

    def flow(result):
        state, report = result
        return state.values, report.mass_series, report.norm_series, report.mass_drift, \
            report.norm_drift

    # prices: every payoff, vanilla and under six knock-outs, on two grids
    # and at three target steps (50 steps, a damped start alone, 4 steps)
    knocks = {
        "vanilla": None,
        "down-and-out 4.382": Potential.down_and_out(4.382),
        "down-and-out 0.61": Potential.down_and_out(0.61),
        "corridor 4.0 5.2": Potential.double_knockout(4.0, 5.2),
        "corridor 2.0 7.5": Potential.double_knockout(2.0, 7.5),
        "corridor 4.0 8.605": Potential.double_knockout(4.0, 8.605),
    }
    for n, g in grids.items():
        payoffs = {
            "call 100": Payoff.call(100.0),
            "put 100": Payoff.put(100.0),
            "bond": Payoff.bond(),
            "asset": Payoff.martingale_asset(),
            "tabulated cap 150": Payoff.tabulated(np.minimum(np.exp(g.points), 150.0)),
        }
        for pname, payoff in payoffs.items():
            for kname, barrier in knocks.items():
                for dt in (0.02, 0.5, 0.3):
                    label = f"price {pname} {kname} n={n} dt={dt}"
                    if barrier is None:
                        run = lambda payoff=payoff, g=g, dt=dt: price_option(p, payoff, 1.0, g, dt)
                    else:
                        run = lambda payoff=payoff, b=barrier, g=g, dt=dt: price_barrier(
                            p, payoff, b, 1.0, g, dt)
                    cases.append((label, lambda run=run: values(run())))

    # kernel rows: a source on a node and between nodes, and at an edge
    for x, tau, n in ((4.6, 0.25, 201), (3.3333, 0.05, 201), (0.605, 0.1, 201), (4.6, 1.0, 801)):
        cases.append((f"kernel_row x={x} tau={tau} n={n}",
                      lambda x=x, tau=tau, n=n: values(kernel_row(p, x, tau, grids[n]))))

    # evolve: one-sided and Dirichlet closures, knock-out masks and a smooth
    # tabulated potential, in both modes, with and without boundary values
    for n, g in grids.items():
        x = g.points
        psi0 = StateVector(np.exp(-((x - 4.6) ** 2) / 0.5), g)
        ops = {
            "one-sided": build_bs_hamiltonian(p, g),
            "dirichlet": build_bs_hamiltonian(p, g, boundary=BOUNDARY_DIRICHLET),
            "corridor 4.0 5.2": build_effective_bs(p, Potential.double_knockout(4.0, 5.2), g),
            "corridor 2.0 7.5": build_effective_bs(p, Potential.double_knockout(2.0, 7.5), g),
            "down-and-out 4.382": build_effective_bs(p, Potential.down_and_out(4.382), g),
            "potential r + sin": build_effective_bs(
                p, Potential.tabulated(0.05 + 0.5 * np.sin(x)), g, BOUNDARY_DIRICHLET),
        }
        for oname, op in ops.items():
            knocked = np.flatnonzero(op.dirichlet_mask)
            deep = [] if knocked.size < 3 else [int(knocked[knocked.size // 2])]
            bounds = {
                "no values": None,
                "edges given": {0: 0.5, n - 1: lambda tau: 1.0 + tau},
                "interior given": {n // 2: 0.3, **{k: lambda tau: 0.5 + tau for k in deep}},
            }
            for mode in ("euclidean", "unitary"):
                cfg = EvolutionConfig(dt=0.01, n_steps=20, mode=mode)
                if mode == "unitary":
                    bounds["complex edges"] = {0: 0.5 + 0.25j, n - 1: lambda tau: complex(1.0, tau)}
                for bname, bv in bounds.items():
                    cases.append((f"evolve {oname} {mode} {bname} n={n}",
                                  lambda op=op, psi0=psi0, cfg=cfg, bv=bv:
                                  flow(evolve(op, psi0, cfg, bv))))

    # two-factor evolve, both modes, with and without a boundary value
    g2 = Grid2D(Grid1D(-1.0, 1.0, 21), Grid1D(-4.0, -2.0, 11))
    mg = build_mg_hamiltonian(MGParams(r=0.05, lam=0.02, mu=-0.5, zeta=0.3, alpha=1.0, rho=-0.4),
                              g2)
    psi2 = StateVector(np.exp(np.repeat(g2.x_axis.points, 11)), g2)
    for mode in ("euclidean", "unitary"):
        for bv in (None, {0: lambda tau: 0.5 + tau}):
            cases.append((f"evolve two-factor {mode} {'edge given' if bv else 'no values'}",
                          lambda mode=mode, bv=bv: flow(evolve(
                              mg, psi2, EvolutionConfig(dt=0.01, n_steps=10, mode=mode), bv))))

    # Euclidean evolve, Dirichlet closure, where an off-diagonal vanishes
    # (sigma_sq = 0, and a cell Peclet number of exactly 1 on h = 1/64),
    # where the off-diagonals' ratio compounds past 2^64 over the grid (a
    # Peclet number of 0.5), and under a deep well V = -300 with no drift
    # term, which makes I + dt/2 H indefinite at dt = 0.1
    g513 = Grid1D(0.0, 8.0, 513)
    x801 = grids[801].points
    well = sparse.diags([np.full(800, -200.0), 400.0 - 300.0 * (np.abs(x801 - 4.6) < 0.5),
                         np.full(800, -200.0)], [-1, 0, 1], format="csr")
    edges = np.isin(np.arange(801), [0, 800])
    wide = {
        "sigma_sq 0": build_bs_hamiltonian(MarketParams(r=0.05, sigma_sq=0.0), grids[801],
                                           boundary=BOUNDARY_DIRICHLET),
        "Peclet 1": build_bs_hamiltonian(MarketParams(r=1.0078125, sigma_sq=0.015625), g513,
                                         boundary=BOUNDARY_DIRICHLET),
        "Peclet 0.5": build_bs_hamiltonian(MarketParams(r=2.02, sigma_sq=0.04), grids[801],
                                           boundary=BOUNDARY_DIRICHLET),
        "deep well": OperatorMatrix(matrix=well.multiply((~edges)[:, None]).tocsr(),
                                    grid=grids[801], dirichlet_mask=edges),
    }
    for oname, op in wide.items():
        x = op.grid.points
        psi0 = StateVector(np.exp(-((x - 4.6) ** 2) / 0.5), op.grid)
        cases.append((f"evolve {oname} euclidean n={op.grid.n_points}",
                      lambda op=op, psi0=psi0: flow(evolve(
                          op, psi0, EvolutionConfig(dt=0.1, n_steps=5)))))

    # refusals
    g7 = Grid1D(-1.0, 1.0, 7)
    singular = OperatorMatrix(matrix=sparse.csr_matrix(-20.0 * np.eye(7)), grid=g7,
                              dirichlet_mask=np.zeros(7, dtype=bool))
    refusals = {
        "price Peclet above 1": lambda: price_option(p, Payoff.call(100.0), 1.0,
                                                     Grid1D(0.605, 8.605, 5), 0.01),
        "price every node knocked": lambda: price_barrier(
            p, Payoff.bond(), Potential.down_and_out(9.0), 1.0, grids[201], 0.01),
        "evolve singular": lambda: evolve(singular, StateVector(np.ones(7), g7),
                                          EvolutionConfig(dt=0.1, n_steps=2)),
        "kernel_row source outside": lambda: kernel_row(p, 9.0, 0.1, grids[201]),
        # the step budget, and a closure the builders do not know
        "kernel_row tau=1e12 n=201": lambda: kernel_row(p, 0.0, 1e12, Grid1D(-2.0, 2.0, 201)),
        "price one step past the budget": lambda: price_option(
            p, Payoff.call(100.0), 1.0, grids[201], 1.0 / (MAX_STEPS + 1)),
        "evolve one step past the budget": lambda: evolve(
            build_bs_hamiltonian(p, grids[201]), StateVector(np.ones(201), grids[201]),
            EvolutionConfig(dt=0.01, n_steps=MAX_STEPS + 1)),
        "build_bs_hamiltonian boundary dirichlet": lambda: build_bs_hamiltonian(
            p, grids[201], boundary="dirichlet"),
        # kernel_row's derived step at r dt = 200, and one node past the grid budget
        "kernel_row r=1e6 tau=0.01 n=201": lambda: kernel_row(
            MarketParams(r=1e6, sigma_sq=1e8), 0.0, 0.01, Grid1D(-2.0, 2.0, 201)),
        "Grid1D one node past the budget": lambda: Grid1D(0.0, 1.0, MAX_NODES + 1),
    }
    cases += [(f"refused {name}", run) for name, run in refusals.items()]
    return cases


def versions() -> str:
    """The printout's first line: the Python, numpy and scipy versions."""
    import platform

    import numpy
    import scipy

    return (f"# python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}")


def sweep() -> list[str]:
    """Run every case and return the printout's lines."""
    lines = [versions()]
    for k, (label, run) in enumerate(_cases()):
        try:
            outcome = _digest(*run())
        except Exception as exc:  # a refusal is an outcome like any other
            outcome = f"raises {type(exc).__name__}: {exc}"
        lines.append(f"{k:03d} {label}: {outcome}")
    return lines


def main(src: str) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    print("\n".join(sweep()))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/lib_sweep.py SRC")
    main(sys.argv[1])
