"""Crank-Nicolson time evolution, pricing, and propagator diagnostics.

Euclidean mode steps the pricing semigroup exp(-tau H); unitary mode
steps exp(-i tau H), where norm conservation is exactly the symmetry
statement for the generator. Pinned nodes (Dirichlet rows of the
operator, or caller-supplied boundary values) are held at prescribed
values by replacing their rows in the stepping matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .model import Grid1D, MarketParams, StateVector
from .operators import (
    KIND_DOUBLE_KNOCKOUT,
    KIND_DOWN_AND_OUT,
    OperatorMatrix,
    Potential,
    _pin_rows,
    build_bs_hamiltonian,
    build_double_knockout,
    build_effective_bs,
)

MODE_EUCLIDEAN = "euclidean"
MODE_UNITARY = "unitary"

PAYOFF_CALL = "call"
PAYOFF_PUT = "put"
PAYOFF_BOND = "bond"
PAYOFF_ASSET = "martingale-asset"
PAYOFF_TABULATED = "tabulated"

_EPS = 1e-300


class SingularSolveError(ArithmeticError):
    """The implicit Crank-Nicolson system could not be factorized."""


@dataclass(frozen=True)
class EvolutionConfig:
    """Crank-Nicolson stepping parameters. dt should not exceed the
    lattice spacing for accuracy (unconditional stability
    notwithstanding)."""

    dt: float
    n_steps: int
    mode: str = MODE_EUCLIDEAN

    def __post_init__(self) -> None:
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.mode not in (MODE_EUCLIDEAN, MODE_UNITARY):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff g(x). Kinds: call/put with a strike, the unit
    bond, the asset itself, or a table aligned to the pricing grid."""

    kind: str
    strike: float | None = None
    table: np.ndarray | None = None

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        if strike < 0.0:
            raise ValueError(f"strike must be nonnegative, got {strike}")
        return cls(kind=PAYOFF_CALL, strike=float(strike))

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        if strike < 0.0:
            raise ValueError(f"strike must be nonnegative, got {strike}")
        return cls(kind=PAYOFF_PUT, strike=float(strike))

    @classmethod
    def bond(cls) -> "Payoff":
        return cls(kind=PAYOFF_BOND)

    @classmethod
    def martingale_asset(cls) -> "Payoff":
        return cls(kind=PAYOFF_ASSET)

    @classmethod
    def tabulated(cls, values) -> "Payoff":
        return cls(kind=PAYOFF_TABULATED, table=np.asarray(values, dtype=float))

    def values_on(self, g: Grid1D) -> np.ndarray:
        s = np.exp(g.points)
        if self.kind == PAYOFF_CALL:
            vals = np.maximum(s - self.strike, 0.0)
        elif self.kind == PAYOFF_PUT:
            vals = np.maximum(self.strike - s, 0.0)
        elif self.kind == PAYOFF_BOND:
            vals = np.ones(g.n_points)
        elif self.kind == PAYOFF_ASSET:
            vals = s
        elif self.kind == PAYOFF_TABULATED:
            if self.table.shape != (g.n_points,):
                raise ValueError(
                    f"tabulated payoff has {self.table.shape[0]} entries for a grid "
                    f"of {g.n_points} points"
                )
            vals = self.table.astype(float, copy=True)
        else:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("payoff is not finite on the grid")
        return vals


@dataclass(frozen=True)
class FlowReport:
    """Per-step mass and norm series with total drift fractions.

    Mass is the discrete integral Re(sum psi) * cell, norm the discrete
    L2 norm sqrt(sum |psi|^2 * cell). Series include the initial state,
    so their length is n_steps + 1. Drift fractions are |end - start|
    relative to the starting magnitude.
    """

    mass_series: np.ndarray
    norm_series: np.ndarray
    mass_drift: float
    norm_drift: float
    dt: float
    mode: str

    def to_csv(self) -> str:
        lines = ["t,mass,norm"]
        for k in range(self.mass_series.size):
            lines.append(f"{k * self.dt!r},{float(self.mass_series[k])!r},{float(self.norm_series[k])!r}")
        return "\n".join(lines) + "\n"


BoundarySpec = Mapping[int, Union[float, Callable[[float], float]]]


def _cell_volume(op: OperatorMatrix) -> float:
    if isinstance(op.grid, Grid1D):
        return op.grid.h
    return op.grid.x_axis.h * op.grid.y_axis.h


def _cn_run(
    matrix: sparse.csr_matrix,
    psi0: np.ndarray,
    dt: float,
    n_steps: int,
    unitary: bool,
    pinned: np.ndarray,
    boundary_fns: dict,
    cell: float,
    rannacher: int = 0,
):
    """Core Crank-Nicolson loop.

    (I + z dt/2 H) psi' = (I - z dt/2 H) psi with z = 1 (Euclidean) or
    i (unitary). Pinned rows become identity on the left and zero on
    the right; their new-time values are injected into the right-hand
    side each step. Optional Rannacher startup replaces the first
    ``rannacher`` steps by pairs of implicit half-steps, whose matrix
    I + z dt/2 H is the left-hand side already factored (used for rough
    initial data; incompatible with pinning by construction).
    """
    if rannacher and pinned.any():
        raise ValueError("Rannacher startup does not support pinned nodes")
    z = 1j if unitary else 1.0
    ident = sparse.identity(psi0.size, format="csr", dtype=complex if unitary else float)
    step = (z * dt / 2.0) * matrix
    m_plus = _pin_rows(ident + step, pinned) + sparse.diags(pinned.astype(float))
    m_minus = _pin_rows(ident - step, pinned)
    pinned_idx = np.where(pinned)[0]
    try:
        lu = splu(m_plus.tocsc())
    except RuntimeError as exc:
        raise SingularSolveError(f"singular linear solve: {exc}") from exc

    psi = psi0.astype(complex) if unitary else psi0.astype(float)
    mass = [float(np.real(psi.sum()) * cell)]
    norm = [float(np.sqrt(np.sum(np.abs(psi) ** 2) * cell))]

    def record() -> None:
        mass.append(float(np.real(psi.sum()) * cell))
        norm.append(float(np.sqrt(np.sum(np.abs(psi) ** 2) * cell)))

    steps_done = 0
    if rannacher:
        for _ in range(min(rannacher, n_steps)):
            psi = lu.solve(lu.solve(psi))
            steps_done += 1
            record()

    for _ in range(n_steps - steps_done):
        tau_new = (steps_done + 1) * dt
        rhs = m_minus @ psi
        for i, fn in boundary_fns.items():
            rhs[i] = fn(tau_new) if callable(fn) else fn
        psi = lu.solve(rhs)
        # pinned rows are identity rows, but the factored solve can
        # smear roundoff into them; hold them at their targets exactly
        psi[pinned_idx] = rhs[pinned_idx]
        steps_done += 1
        record()

    mass_arr = np.array(mass)
    norm_arr = np.array(norm)
    report = FlowReport(
        mass_series=mass_arr,
        norm_series=norm_arr,
        mass_drift=abs(mass_arr[-1] - mass_arr[0]) / max(abs(mass_arr[0]), _EPS),
        norm_drift=abs(norm_arr[-1] - norm_arr[0]) / max(abs(norm_arr[0]), _EPS),
        dt=dt,
        mode=MODE_UNITARY if unitary else MODE_EUCLIDEAN,
    )
    return psi, report


def evolve(
    op: OperatorMatrix,
    state: StateVector,
    cfg: EvolutionConfig,
    boundary_values: BoundarySpec | None = None,
) -> tuple[StateVector, FlowReport]:
    """Step the state by Crank-Nicolson under the operator's generator.

    Nodes in the operator's Dirichlet mask are pinned; their values
    default to zero and can be prescribed per node through
    ``boundary_values`` (a constant or a function of elapsed time).
    Nodes named in ``boundary_values`` are pinned even when unmasked.
    """
    if op.grid.size != state.grid.size:
        raise ValueError("operator and state grids differ")
    if cfg.mode == MODE_EUCLIDEAN and np.iscomplexobj(state.values) and np.any(
        state.values.imag != 0.0
    ):
        raise ValueError("euclidean evolution requires a real state")
    pinned = op.dirichlet_mask.copy()
    boundary_fns: dict = {}
    if boundary_values:
        for i, fn in boundary_values.items():
            idx = int(i)
            if not 0 <= idx < op.grid.size:
                raise ValueError(f"boundary node {idx} outside grid")
            pinned[idx] = True
            boundary_fns[idx] = fn
    psi, report = _cn_run(
        op.matrix,
        state.values,
        cfg.dt,
        cfg.n_steps,
        unitary=cfg.mode == MODE_UNITARY,
        pinned=pinned,
        boundary_fns=boundary_fns,
        cell=_cell_volume(op),
    )
    return StateVector(psi, state.grid), report


def _far_field(payoff: Payoff, p: MarketParams, g: Grid1D) -> dict:
    """Asymptotic boundary values for vanilla pricing runs, as
    functions of time to expiry."""
    r = p.r
    lo, hi = g.x_min, g.x_max
    if payoff.kind == PAYOFF_CALL:
        k = payoff.strike
        return {0: 0.0, g.n_points - 1: lambda tau: np.exp(hi) - k * np.exp(-r * tau)}
    if payoff.kind == PAYOFF_PUT:
        k = payoff.strike
        return {0: lambda tau: k * np.exp(-r * tau) - np.exp(lo), g.n_points - 1: 0.0}
    if payoff.kind == PAYOFF_BOND:
        return {0: lambda tau: np.exp(-r * tau), g.n_points - 1: lambda tau: np.exp(-r * tau)}
    if payoff.kind == PAYOFF_ASSET:
        return {0: np.exp(lo), g.n_points - 1: np.exp(hi)}
    # tabulated: hold the discounted end values
    vals = payoff.values_on(g)
    return {
        0: lambda tau: vals[0] * np.exp(-r * tau),
        g.n_points - 1: lambda tau: vals[-1] * np.exp(-r * tau),
    }


def _steps_for(T: float, cfg: EvolutionConfig) -> tuple[float, int]:
    """Derive the actual step so the requested horizon is hit exactly;
    cfg.dt acts as a target step size."""
    n_steps = max(1, int(round(T / cfg.dt)))
    return T / n_steps, n_steps


def price_option(
    p: MarketParams, payoff: Payoff, T: float, g: Grid1D, cfg: EvolutionConfig
) -> StateVector:
    """Present-value curve of a vanilla payoff at every grid node.

    Euclidean Crank-Nicolson under the one-factor generator with
    far-field Dirichlet values at both edges. cfg.dt is a target step;
    the count is derived so the steps land exactly on T.
    """
    if T <= 0.0:
        raise ValueError(f"maturity must be positive, got {T}")
    op = build_bs_hamiltonian(p, g)
    dt, n_steps = _steps_for(T, cfg)
    run_cfg = EvolutionConfig(dt=dt, n_steps=n_steps, mode=MODE_EUCLIDEAN)
    state = StateVector(payoff.values_on(g), g)
    out, _ = evolve(op, state, run_cfg, boundary_values=_far_field(payoff, p, g))
    return out


def price_barrier(
    p: MarketParams,
    payoff: Payoff,
    barrier: Potential,
    T: float,
    g: Grid1D,
    cfg: EvolutionConfig,
) -> StateVector:
    """Knock-out price curve: zero in the knocked regions, far-field
    values at any free domain edge."""
    if T <= 0.0:
        raise ValueError(f"maturity must be positive, got {T}")
    if barrier.kind == KIND_DOWN_AND_OUT:
        op = build_effective_bs(p, barrier, g)
    elif barrier.kind == KIND_DOUBLE_KNOCKOUT:
        op = build_double_knockout(p, barrier, g)
    else:
        raise ValueError(
            f"barrier must be a knock-out potential, got kind {barrier.kind!r}"
        )
    if not (~op.dirichlet_mask).any():
        raise ValueError("corridor is empty: every node is knocked out")

    vals = payoff.values_on(g)
    vals[op.dirichlet_mask] = 0.0
    boundary: dict = {}
    far = _far_field(payoff, p, g)
    if not op.dirichlet_mask[0]:
        boundary[0] = far[0]
    if not op.dirichlet_mask[g.n_points - 1]:
        boundary[g.n_points - 1] = far[g.n_points - 1]
    dt, n_steps = _steps_for(T, cfg)
    run_cfg = EvolutionConfig(dt=dt, n_steps=n_steps, mode=MODE_EUCLIDEAN)
    out, _ = evolve(op, StateVector(vals, g), run_cfg, boundary_values=boundary)
    return out


def kernel_row(p: MarketParams, x: float, tau: float, g: Grid1D) -> StateVector:
    """Numeric propagator row: the pricing kernel from source point x.

    Evolves a discrete delta (unit mass at the nearest node, 1/h tall)
    under the transposed generator with a short implicit startup to damp
    the delta's high modes. The row integrates to the discount factor,
    reproduces e^x against the asset state, and is nonnegative on fine
    grids once the kernel width clears a few cells.
    """
    if tau <= 0.0:
        raise ValueError(f"kernel time must be positive, got {tau}")
    idx = int(np.argmin(np.abs(g.points - x)))
    op = build_bs_hamiltonian(p, g)
    delta = np.zeros(g.n_points)
    delta[idx] = 1.0 / g.h
    n_steps = max(50, int(np.ceil(8.0 * tau / g.h)))
    dt = tau / n_steps
    row, _ = _cn_run(
        op.matrix.T.tocsr(),
        delta,
        dt,
        n_steps,
        unitary=False,
        pinned=np.zeros(g.n_points, dtype=bool),
        boundary_fns={},
        cell=g.h,
        rannacher=2,
    )
    return StateVector(np.real(row), g)
