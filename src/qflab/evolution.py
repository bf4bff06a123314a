"""Crank-Nicolson time evolution, pricing, and propagator diagnostics.

Euclidean mode steps the pricing semigroup exp(-tau H); unitary mode
steps exp(-i tau H), where norm conservation is exactly the symmetry
statement for the generator. Each Crank-Nicolson step is an implicit
half-step through I + z dt/2 H followed by an extrapolation, so a run
factors one matrix and makes one solve per step. Pinned nodes (Dirichlet
rows of the operator, or caller-supplied boundary values) are held at
prescribed values by making their rows identity rows of that matrix. A
tridiagonal one is read straight from the generator's diagonals and
factored by LAPACK; any other by a sparse LU. One stepper serves
``evolve``, the pricers and ``kernel_row``; the pricers read only the
target step ``cfg.dt`` of their config.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Callable, Iterator, Mapping, Union

import numpy as np
from scipy import sparse

from .model import (
    Grid1D,
    MarketParams,
    StateVector,
    _affordable,
    _finite_table,
    _float_reprs,
    _integer,
    _positive,
    _real,
    _step_count,
)
from .operators import (
    KIND_DOUBLE_KNOCKOUT,
    KIND_DOWN_AND_OUT,
    OperatorMatrix,
    Potential,
    build_bs_hamiltonian,
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
_CSV_BLOCK = 8192  # flow CSV rows formatted per write


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
        _positive(self.dt, "dt")
        if _integer(self.n_steps, "n_steps") < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.mode not in (MODE_EUCLIDEAN, MODE_UNITARY):
            raise ValueError(f"unknown mode {self.mode!r}")


def _checked_strike(strike: float) -> float:
    if not (np.isfinite(_real(strike, "strike")) and strike >= 0.0):
        raise ValueError(f"strike must be finite and nonnegative, got {strike}")
    return float(strike)


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff g(x). Kinds: call/put with a strike, the unit
    bond, the asset itself, or a table aligned to the pricing grid."""

    kind: str
    strike: float | None = None
    table: np.ndarray | None = None

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind=PAYOFF_CALL, strike=_checked_strike(strike))

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(kind=PAYOFF_PUT, strike=_checked_strike(strike))

    @classmethod
    def bond(cls) -> "Payoff":
        return cls(kind=PAYOFF_BOND)

    @classmethod
    def martingale_asset(cls) -> "Payoff":
        return cls(kind=PAYOFF_ASSET)

    @classmethod
    def tabulated(cls, values) -> "Payoff":
        return cls(kind=PAYOFF_TABULATED, table=_finite_table(values, "tabulated payoff"))

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

    def to_csv(self, path) -> None:
        """Stream the series to ``path`` as a t,mass,norm CSV, one block of rows per write."""
        with Path(path).open("w") as f:
            f.write("t,mass,norm\n")
            for start in range(0, self.mass_series.size, _CSV_BLOCK):
                block = slice(start, start + _CSV_BLOCK)
                masses = _float_reprs(self.mass_series[block])
                norms = _float_reprs(self.norm_series[block])
                rows = enumerate(zip(masses, norms), start)
                f.write("".join([f"{k * self.dt!r},{m},{n}\n" for k, (m, n) in rows]))


BoundarySpec = Mapping[int, Union[float, Callable[[float], float]]]


def _factor(
    h: sparse.csr_matrix, scale: complex, pinned: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Solver for (I + scale H) x = b with the rows flagged in ``pinned``
    made identity rows, factored once. If every nonzero H stores in an
    unpinned row lies within one place of the diagonal, LAPACK's
    ?gttrf/?gttrs factor the three diagonals read from H; any wider band
    (a free one-sided closure row, a 2D operator) gets a sparse LU.
    """
    # imported here, so that a run that never steps loads neither solver
    from scipy.linalg import get_lapack_funcs
    from scipy.sparse.linalg import splu

    n = h.shape[0]
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    if np.all(np.abs(h.indices - rows)[(h.data != 0) & ~pinned[rows]] <= 1):
        d = 1 + scale * h.diagonal()
        dl, du = scale * h.diagonal(-1), scale * h.diagonal(1)
        d[pinned] = 1
        dl[pinned[1:]] = 0
        du[pinned[:-1]] = 0
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du)
        if info != 0:
            raise SingularSolveError(f"singular linear solve: zero pivot at row {info}")
        return lambda b: gttrs(dl, d, du, du2, ipiv, b)[0]
    m = sparse.identity(n, format="csr") + sparse.diags((~pinned).astype(float)) @ (scale * h)
    try:
        return splu(m.tocsc()).solve
    except RuntimeError as exc:
        raise SingularSolveError(f"singular linear solve: {exc}") from exc


def _pin_table(n_steps: int, n_pins: int, dtype=float) -> np.ndarray:
    """Zeroed pinned-node values, one row per step; a step count whose
    table cannot be allocated is refused as a ValueError that names it."""
    with _affordable(n_steps, f"a pin table of {n_steps} x {n_pins} values"):
        return np.zeros((n_steps, n_pins), dtype=dtype)


def _cn_run(
    matrix: sparse.csr_matrix,
    psi0: np.ndarray,
    dt: float,
    unitary: bool,
    pinned_idx: np.ndarray,
    pin_values: np.ndarray,
    rannacher: int = 0,
) -> Iterator[np.ndarray]:
    """Crank-Nicolson stepper: yields the state after each step.

    Each step solves (I + z dt/2 H) psi' = (I - z dt/2 H) psi, with
    z = 1 (Euclidean) or i (unitary), in implicit-midpoint form: one
    implicit half-step y = (I + z dt/2 H)^{-1} psi, then the
    extrapolation psi' = 2 y - psi. The rows of the nodes in
    ``pinned_idx`` (ascending) are identity rows of the matrix, which
    ``_factor`` forms from H and factors once; their right-hand side is
    the mean of the old value and the target, so the extrapolation lands
    on the target. Row s of ``pin_values`` holds the pinned values after
    step s + 1, so its length is the step count. Optional Rannacher
    startup replaces the first ``rannacher`` steps by pairs of implicit
    half-steps through the same factor (used for rough initial data;
    incompatible with pinning by construction).
    """
    if rannacher and pinned_idx.size:
        raise ValueError("Rannacher startup does not support pinned nodes")
    pinned = np.zeros(psi0.size, dtype=bool)
    pinned[pinned_idx] = True
    z = 1j if unitary else 1.0
    solve = _factor(matrix, z * dt / 2.0, pinned)

    psi = psi0
    n_startup = min(rannacher, len(pin_values))
    for _ in range(n_startup):
        psi = solve(solve(psi))
        yield psi
    for values in pin_values[n_startup:]:
        half = psi.copy()
        half[pinned_idx] = (values + psi[pinned_idx]) / 2.0
        psi = 2.0 * solve(half) - psi
        # the extrapolation reaches the targets only up to roundoff
        psi[pinned_idx] = values
        yield psi


def _final(steps: Iterator[np.ndarray]) -> np.ndarray:
    """The last state a stepper yields."""
    for psi in steps:
        pass
    return psi


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
    The mass and norm of the state are recorded before the first step
    and after each step.
    """
    if op.grid.size != state.grid.size:
        raise ValueError("operator and state grids differ")
    if cfg.mode == MODE_EUCLIDEAN and np.iscomplexobj(state.values) and np.any(
        state.values.imag != 0.0
    ):
        raise ValueError("euclidean evolution requires a real state")
    unitary = cfg.mode == MODE_UNITARY
    pinned = op.dirichlet_mask.copy()
    prescribed: dict = {}
    for i, value in (boundary_values or {}).items():
        idx = int(i)
        if not 0 <= idx < op.grid.size:
            raise ValueError(f"boundary node {idx} outside grid")
        pinned[idx] = True
        prescribed[idx] = value
    pinned_idx = np.flatnonzero(pinned)
    pin_values = _pin_table(cfg.n_steps, pinned_idx.size, complex if unitary else float)
    # only prescribed pins read the step times, and their table column
    # already holds one value per step
    taus = (np.arange(1, cfg.n_steps + 1) * cfg.dt).tolist() if prescribed else []
    for idx, value in prescribed.items():
        column = np.searchsorted(pinned_idx, idx)
        pin_values[:, column] = [value(tau) for tau in taus] if callable(value) else value
    with _affordable(cfg.n_steps, f"a flow series of 2 x {cfg.n_steps + 1} values"):
        mass_arr, norm_arr = np.empty((2, cfg.n_steps + 1))

    cell = op.grid.cell
    psi0 = state.values.astype(complex) if unitary else state.values.astype(float)
    steps = _cn_run(op.matrix, psi0, cfg.dt, unitary, pinned_idx, pin_values)
    for k, psi in enumerate(chain([psi0], steps)):
        mass_arr[k] = np.real(psi.sum()) * cell
        norm_arr[k] = np.sqrt(np.sum(np.abs(psi) ** 2) * cell)
    report = FlowReport(
        mass_series=mass_arr,
        norm_series=norm_arr,
        mass_drift=abs(mass_arr[-1] - mass_arr[0]) / max(abs(mass_arr[0]), _EPS),
        norm_drift=abs(norm_arr[-1] - norm_arr[0]) / max(abs(norm_arr[0]), _EPS),
        dt=cfg.dt,
        mode=cfg.mode,
    )
    return StateVector(psi, state.grid), report


def _edge_pairs(payoff: Payoff, vals: np.ndarray) -> tuple:
    """Far-field coefficients (a, b) at the low and the high edge: the
    price there is a e^{x_edge} + b e^{-r tau}. A tabulated payoff holds
    its discounted end values."""
    k = payoff.strike or 0.0  # only call and put payoffs carry a strike
    return {
        PAYOFF_CALL: ((0.0, 0.0), (1.0, -k)),
        PAYOFF_PUT: ((-1.0, k), (0.0, 0.0)),
        PAYOFF_BOND: ((0.0, 1.0), (0.0, 1.0)),
        PAYOFF_ASSET: ((1.0, 0.0), (1.0, 0.0)),
        PAYOFF_TABULATED: ((0.0, vals[0]), (0.0, vals[-1])),
    }[payoff.kind]


def _price(
    p: MarketParams, payoff: Payoff, T: float, cfg: EvolutionConfig, op: OperatorMatrix
) -> StateVector:
    """Present value over T under ``op``: knocked nodes (its Dirichlet
    mask) held at zero, each free edge at its far field. Only cfg.dt is
    read, as a target step; the count is derived so the steps land
    exactly on T."""
    g = op.grid
    n_steps = _step_count(T, cfg.dt, "maturity")
    dt = T / n_steps
    vals = payoff.values_on(g)
    pairs = _edge_pairs(payoff, vals)
    knocked = op.dirichlet_mask
    vals[knocked] = 0.0
    pinned_idx = np.union1d(np.flatnonzero(knocked), [0, g.n_points - 1])
    pin_values = _pin_table(n_steps, pinned_idx.size)
    discount = np.exp(-p.r * (np.arange(1, n_steps + 1) * dt))
    # node 0 and node -1 are also the first and the last pinned column
    for (a, b), end, x_edge in zip(pairs, (0, -1), (g.x_min, g.x_max)):
        if not knocked[end]:
            far = b * discount
            if a:  # e^{x_edge} may overflow where a = 0 leaves the value finite
                far = a * np.exp(x_edge) + far
            pin_values[:, end] = far
    return StateVector(_final(_cn_run(op.matrix, vals, dt, False, pinned_idx, pin_values)), g)


def price_option(
    p: MarketParams, payoff: Payoff, T: float, g: Grid1D, cfg: EvolutionConfig
) -> StateVector:
    """Present-value curve of a vanilla payoff at every grid node.

    Euclidean Crank-Nicolson under the one-factor generator with
    far-field Dirichlet values at both edges. Only cfg.dt is read, as a
    target step (its n_steps and mode are unused); the count is derived
    so the steps land exactly on T.
    """
    return _price(p, payoff, T, cfg, build_bs_hamiltonian(p, g))


def price_barrier(
    p: MarketParams,
    payoff: Payoff,
    barrier: Potential,
    T: float,
    g: Grid1D,
    cfg: EvolutionConfig,
) -> StateVector:
    """Knock-out price curve: zero in the knocked regions, far-field
    values at any free domain edge. Only cfg.dt is read, as a target
    step, as in price_option."""
    if barrier.kind not in (KIND_DOWN_AND_OUT, KIND_DOUBLE_KNOCKOUT):
        raise ValueError(
            f"barrier must be a knock-out potential, got kind {barrier.kind!r}"
        )
    op = build_effective_bs(p, barrier, g)
    if op.dirichlet_mask.all():
        if barrier.kind == KIND_DOWN_AND_OUT:
            raise ValueError(f"down-and-out level {barrier.level} knocks out every node")
        raise ValueError("corridor is empty: every node is knocked out")
    return _price(p, payoff, T, cfg, op)


def kernel_row(p: MarketParams, x: float, tau: float, g: Grid1D) -> StateVector:
    """Numeric propagator row: the pricing kernel from source point x.

    The source must lie in [g.x_min, g.x_max]; a source between nodes
    is snapped to the nearest node. Evolves a discrete delta (unit mass
    at that node, 1/h tall) under the transposed generator with a short
    implicit startup to damp the delta's high modes. The row integrates
    to the discount factor, reproduces e^x against the asset state, and
    is nonnegative on fine grids once the kernel width clears a few
    cells.
    """
    _positive(tau, "kernel time")
    if not g.x_min <= x <= g.x_max:
        raise ValueError(f"kernel source x={x} lies outside the grid [{g.x_min}, {g.x_max}]")
    idx = int(np.argmin(np.abs(g.points - x)))
    op = build_bs_hamiltonian(p, g)
    delta = np.zeros(g.n_points)
    delta[idx] = 1.0 / g.h
    steps_needed = 8.0 * tau / g.h
    if not np.isfinite(steps_needed):
        raise ValueError(
            f"kernel time {tau} over the step h/8 = {g.h / 8.0} gives no finite step count"
        )
    n_steps = max(50, int(np.ceil(steps_needed)))
    steps = _cn_run(
        op.matrix.T.tocsr(), delta, tau / n_steps, False, np.zeros(0, dtype=int),
        np.zeros((n_steps, 0)), rannacher=2,
    )
    return StateVector(np.real(_final(steps)), g)
