"""Crank-Nicolson time evolution, pricing, and propagator diagnostics.

Euclidean mode steps the pricing semigroup exp(-tau H); unitary mode
steps exp(-i tau H), where norm conservation is exactly the symmetry
statement for the generator. Each Crank-Nicolson step is an implicit
half-step through I + z dt/2 H followed by an extrapolation, so a run
factors one matrix and makes one solve per step. Pinned nodes (Dirichlet
rows of the operator, or caller-supplied boundary values) are held at
prescribed values by making their rows identity rows of that matrix. A
tridiagonal one is read straight from the generator's diagonals and
factored by LAPACK over the span of rows that can change (unpinned rows
where the generator stores a nonzero), from one row before the first to
one after the last; any other by a sparse LU. A long real span whose
rows form one chain of same-sign off-diagonal pairs (a cell Peclet
number below 1) is solved in its Hermitian gauge: the diagonal
similarity that ``operators.similarity_transform`` applies to the
generator makes it symmetric, and ?pttrf/?pttrs solve it with no
division on the back substitution's dependency chain, where ?gttrs has
one. Every other tridiagonal span keeps ?gttrf/?gttrs. Each solve
re-pins the prescribed nodes and only those zero-held ones that an
unpinned row reads. One stepper serves ``evolve``, the pricers and
``kernel_row``, and forms each step in place in one buffer. The pricers
take a target step ``dt`` and derive the count that lands on the
maturity; ``EvolutionConfig`` configures ``evolve`` alone. They start
rough (kinked or knocked) data with two damped Rannacher steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Union

import numpy as np

from .model import (
    Grid1D,
    MarketParams,
    StateVector,
    _computed,
    _finite,
    _finite_complex,
    _finite_table,
    _integer,
    _nonnegative,
    _positive,
    _row_blocks,
    _shown,
    _step_count,
    _within_budget,
    _write_csv,
)
from .operators import (
    KIND_DOUBLE_KNOCKOUT,
    KIND_DOWN_AND_OUT,
    OperatorMatrix,
    Potential,
    _cell_peclet,
    build_bs_hamiltonian,
    build_effective_bs,
)

if TYPE_CHECKING:
    from scipy import sparse

MODE_EUCLIDEAN = "euclidean"
MODE_UNITARY = "unitary"

PAYOFF_CALL = "call"
PAYOFF_PUT = "put"
PAYOFF_BOND = "bond"
PAYOFF_ASSET = "martingale-asset"
PAYOFF_TABULATED = "tabulated"

_EPS = 1e-300
_FLOW_BLOCK = 16  # states per mass and norm reduction in evolve
_DAMPED_STEPS = 2  # Rannacher steps that start a run from rough data
# A balanced solve's two scalings and edge eliminations cost a fixed
# ~1-1.5 us, against the ~5 ns per row that ?pttrs saves over ?gttrs.
# Per solve, balanced against ?gttrs: 12 rows 2.2 against 1.0 us; 102
# rows 2.8 against 2.2; 202 rows 3.5 against 3.6; 252 rows 3.8 against
# 4.4; 402 rows 5.1 against 6.3; 801 rows 7.9 against 11.8. The tie
# moved between 175 and 270 rows over three runs (numpy 2.4.6, scipy
# 1.17.1, 2 vCPUs).
_BALANCED_MIN_ROWS = 256  # tridiagonal spans at least this long solve in the Hermitian gauge
_GAUGE_RANGE = 2.0**64  # the widest max D / min D a balanced solve accepts


class SingularSolveError(ArithmeticError):
    """The implicit Crank-Nicolson system could not be factorized."""


@dataclass(frozen=True)
class EvolutionConfig:
    """The stepping parameters of ``evolve``. dt should not exceed the
    lattice spacing for accuracy (unconditional stability
    notwithstanding); n_steps may not exceed ``model.MAX_STEPS``."""

    dt: float
    n_steps: int
    mode: str = MODE_EUCLIDEAN

    def __post_init__(self) -> None:
        _positive(self.dt, "dt")
        if _integer(self.n_steps, "n_steps") < 1:
            raise ValueError(f"n_steps must be >= 1, got {_shown(self.n_steps)}")
        _within_budget(self.n_steps, "evolve's n_steps")
        _computed(
            lambda: self.n_steps * self.dt,
            f"the horizon n_steps * dt = {self.n_steps} * {self.dt} overflows a float",
        )
        if self.mode not in (MODE_EUCLIDEAN, MODE_UNITARY):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class Payoff:
    """Terminal payoff g(x). Kinds: call/put with a strike, the unit
    bond, the asset itself, or a table aligned to the pricing grid. The
    fields a kind reads are checked when it is built: a strike must be
    finite and nonnegative, a table a 1-D table of finite values."""

    kind: str
    strike: float | None = None
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind in (PAYOFF_CALL, PAYOFF_PUT):
            object.__setattr__(self, "strike", _nonnegative(self.strike, "strike"))
        elif self.kind == PAYOFF_TABULATED:
            object.__setattr__(self, "table", _finite_table(self.table, "tabulated payoff"))
        elif self.kind not in (PAYOFF_BOND, PAYOFF_ASSET):
            raise ValueError(f"unknown payoff kind {self.kind!r}")

    @classmethod
    def call(cls, strike: float) -> "Payoff":
        return cls(kind=PAYOFF_CALL, strike=strike)

    @classmethod
    def put(cls, strike: float) -> "Payoff":
        return cls(kind=PAYOFF_PUT, strike=strike)

    @classmethod
    def bond(cls) -> "Payoff":
        return cls(kind=PAYOFF_BOND)

    @classmethod
    def martingale_asset(cls) -> "Payoff":
        return cls(kind=PAYOFF_ASSET)

    @classmethod
    def tabulated(cls, values) -> "Payoff":
        return cls(kind=PAYOFF_TABULATED, table=values)

    def values_on(self, g: Grid1D) -> np.ndarray:
        if self.kind == PAYOFF_BOND:
            return np.ones(g.n_points)
        if self.kind == PAYOFF_TABULATED:
            if self.table.shape != (g.n_points,):
                raise ValueError(
                    f"tabulated payoff has {self.table.shape[0]} entries for a grid "
                    f"of {g.n_points} points"
                )
            return self.table.astype(float, copy=True)
        k = self.strike
        of_price = {  # e^x overflows past x = 709.78, where a put is still finite
            PAYOFF_CALL: lambda s: np.maximum(s - k, 0.0),
            PAYOFF_PUT: lambda s: np.maximum(k - s, 0.0),
            PAYOFF_ASSET: lambda s: s,
        }[self.kind]
        return _computed(lambda: of_price(np.exp(g.points)), "payoff is not finite on the grid")


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
        """Stream the series to ``path`` as a t,mass,norm CSV; step k is at t = k * dt."""
        t = np.arange(self.mass_series.size) * self.dt
        _write_csv(path, "t,mass,norm", _row_blocks(t, self.mass_series, self.norm_series))


BoundarySpec = Mapping[int, Union[float, Callable[[float], float]]]


def _balanced(
    d: np.ndarray, dl: np.ndarray, du: np.ndarray, c0: int, c1: int
) -> Callable[[np.ndarray], np.ndarray] | None:
    """Solver of the real tridiagonal system (diagonal ``d``, sub- and
    superdiagonal ``dl``, ``du``) in its Hermitian gauge, or None where
    that gauge does not apply. Rows ``c0:c1`` are the chain of rows that
    can change; every other row is an identity row.

    Where every bond of the chain pairs two off-diagonals l, u of one
    sign, D with D_{i+1}/D_i = sqrt(l/u) makes S = D^{-1} T D symmetric,
    with bond sign(l) sqrt(l u) (the balancing ``similarity_transform``
    applies to the generator). S is factored once by ?pttrf; a solve
    moves the identity rows' columns onto the right-hand side, scales by
    1/D, calls ?pttrs and scales by D. min D is 1, so 1/D only shrinks a
    value. None when a bond fails the sign test (a pinned or empty row in
    the chain, sigma_sq = 0, or a cell Peclet number of 1 or more), when
    D spans more than ``_GAUGE_RANGE``, or when S is not positive
    definite."""
    from scipy.linalg import get_lapack_funcs

    l, u = dl[c0 : c1 - 1], du[c0 : c1 - 1]
    with np.errstate(all="ignore"):  # an overflow, underflow or NaN fails a test below
        lu = l * u
        gauge = np.cumprod(np.concatenate(([1.0], np.sqrt(l / u))))
    low = gauge.min()  # at most gauge[0] = 1, so the bound times it is finite
    if not (np.all(lu > 0) and gauge.max() <= _GAUGE_RANGE * low):
        return None
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (d,))
    s_d, s_e, info = pttrf(d[c0:c1], np.copysign(np.sqrt(lu), l))
    if info != 0:
        return None
    gauge /= low
    inverse = 1.0 / gauge
    # the chain's first row's entry in the column of the row before it, and
    # its last row's entry in the column of the row after it
    before = dl[c0 - 1] if c0 else None
    after = du[c1 - 1] if c1 < d.size else None

    def solve(b: np.ndarray) -> np.ndarray:
        x = b[c0:c1]
        if before is not None:
            x[0] -= before * b[c0 - 1]
        if after is not None:
            x[-1] -= after * b[c1]
        x *= inverse
        pttrs(s_d, s_e, x, overwrite_b=1)  # in place: x is a contiguous float64 view
        x *= gauge
        return b

    return solve


def _factor(
    h: sparse.csr_matrix, scale: complex, pinned: np.ndarray
) -> tuple[slice, Callable[[np.ndarray], np.ndarray]]:
    """Solver for (I + scale H) x = b with the rows flagged in ``pinned``
    made identity rows, factored once. Returns ``(span, solve)``:
    ``solve(b)`` takes the right-hand side of the rows in ``span`` only,
    may overwrite ``b``, and returns those rows of x; every row outside
    the span is a pinned row or a row where H stores no nonzero, so an
    identity row either way, where x = b.

    A row can change when it is unpinned and stores a nonzero of H. If
    every such nonzero lies within one place of the diagonal, the three
    diagonals read from H are factored over the span from one row before
    the first row that can change to one row after the last. A real span
    of at least ``_BALANCED_MIN_ROWS`` rows is solved in its Hermitian
    gauge by ``_balanced`` (?pttrf/?pttrs) where that gauge applies.
    Otherwise, or where it does not (a complex scale, a pinned or empty
    row between the first and the last row that can change, an
    off-diagonal pair of opposite signs or with a zero, a gauge wider
    than ``_GAUGE_RANGE``, a matrix that is not positive definite),
    LAPACK's ?gttrf/?gttrs factor the span, and a zero pivot raises
    SingularSolveError. The rows outside the span are identity rows with
    zero multipliers, so either solve does the same arithmetic as over
    the whole grid. Any wider band (a free one-sided closure row, a 2D
    operator) gets a sparse LU of the whole grid, and only that branch
    loads SuperLU.
    """
    # imported here, so that a run that never steps loads no solver
    from scipy.linalg import get_lapack_funcs

    _computed(lambda: scale * h.data, f"the generator times z dt/2 = {scale} overflows a float")
    n = h.shape[0]
    rows = np.repeat(np.arange(n), np.diff(h.indptr))
    moving = (h.data != 0) & ~pinned[rows]  # the nonzeros of the rows that can change
    if np.all(np.abs(h.indices - rows)[moving] <= 1):
        if not moving.any():
            return slice(0, 0), lambda b: b
        # CSR stores its rows in order: the first and the last row that can change
        first, last = rows[moving.argmax()], rows[moving.size - 1 - moving[::-1].argmax()]
        lo, hi = max(first - 1, 0), min(last + 2, n)
        d = 1 + scale * h.diagonal()[lo:hi]
        dl, du = scale * h.diagonal(-1)[lo:hi - 1], scale * h.diagonal(1)[lo:hi - 1]
        pinned = pinned[lo:hi]
        d[pinned] = 1
        dl[pinned[1:]] = 0
        du[pinned[:-1]] = 0
        if hi - lo >= _BALANCED_MIN_ROWS and not np.iscomplexobj(d):
            solve = _balanced(d, dl, du, first - lo, last + 1 - lo)
            if solve is not None:
                return slice(lo, hi), solve
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
        dl, d, du, du2, ipiv, info = gttrf(dl, d, du)
        if info != 0:
            raise SingularSolveError(f"singular linear solve: zero pivot at row {info + lo}")
        return slice(lo, hi), lambda b: gttrs(dl, d, du, du2, ipiv, b, overwrite_b=1)[0]
    from scipy import sparse
    from scipy.sparse.linalg import splu

    m = sparse.identity(n, format="csr") + sparse.diags((~pinned).astype(float)) @ (scale * h)
    try:
        return slice(0, n), splu(m.tocsc()).solve
    except RuntimeError as exc:
        raise SingularSolveError(f"singular linear solve: {exc}") from exc


def _cn_run(
    matrix: sparse.csr_matrix,
    psi0: np.ndarray,
    dt: float,
    unitary: bool,
    mask: np.ndarray,
    held: np.ndarray,
    targets: np.ndarray,
    damped: int = 0,
) -> Iterator[np.ndarray]:
    """Crank-Nicolson stepper: yields the state after each step.

    Each step solves (I + z dt/2 H) psi' = (I - z dt/2 H) psi, with
    z = 1 (Euclidean) or i (unitary), in implicit-midpoint form: one
    implicit half-step y = (I + z dt/2 H)^{-1} psi, then the
    extrapolation psi' = 2 y - psi. The nodes flagged in ``mask`` are
    held at zero, those in ``held`` (ascending) at their ``targets``;
    their rows are identity rows of the matrix, which ``_factor`` forms
    from H and factors once, and only the span of rows it solves is
    stepped. A held node, or a masked node that an unpinned row of H
    reads, is pinned in every solve and written back after it; any other
    masked node is zeroed before the first step, and no solve reads it.

    A damped (Rannacher) start, for rough initial data, replaces the
    first ``damped`` steps by pairs of implicit half-steps through the
    same factor. ``targets`` holds one column per held node and one row
    per solve, in time order: one after each of the 2 * ``damped``
    half-steps, then one after each Crank-Nicolson step. A run of n steps
    so reads n + ``damped`` rows.

    ``psi0`` is copied once and never written. Every step is formed in
    place in that copy, so the stepper yields the same array each time:
    a caller that keeps a state past the next step must copy it.
    """
    pinned = mask.copy()
    pinned[held] = True
    z = 1j if unitary else 1.0
    span, solve = _factor(matrix, z * dt / 2.0, pinned)
    kept = pinned & (abs(matrix).T @ ~pinned != 0)
    kept[held] = True
    pinned_idx = np.flatnonzero(kept)
    values = np.zeros((targets.shape[0], pinned_idx.size), targets.dtype)
    values[:, np.searchsorted(pinned_idx, held)] = targets
    # the pinned nodes inside the span: their columns of the targets, and
    # their places in the span
    cols = slice(*np.searchsorted(pinned_idx, [span.start, span.stop]))
    local = pinned_idx[cols] - span.start
    half = 2 * damped  # the solves of the damped start

    # each solve's pinned right-hand side: a half-step's is its target; a
    # step's is the mean of the previous target (psi0 before the first
    # solve) and its own, so that the extrapolation lands on the target
    pins = values[:, cols].copy()
    pins[half + 1 :] += values[half:-1, cols]
    pins[half : half + 1] += values[half - 1, cols] if damped else psi0[pinned_idx[cols]]
    pins[half:] /= 2.0

    psi = np.where(pinned & ~kept, 0.0, psi0)
    free = psi[span]
    rhs = np.empty_like(free)
    for k, (target, pin) in enumerate(zip(values, pins)):
        rhs[:] = free
        rhs[local] = pin
        y = solve(rhs)
        if k < half:
            free[:] = y
        else:
            np.subtract(np.multiply(y, 2.0, out=y), free, out=free)
        # the extrapolation reaches the targets only up to roundoff
        psi[pinned_idx] = target
        if k >= half or k % 2:  # a step ends here
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

    Nodes in the operator's Dirichlet mask are held at zero, unless
    ``boundary_values`` prescribes their values per node (a constant or
    a function of elapsed time). Each value must be a finite real number,
    or a number with finite real and imaginary parts in unitary mode.
    Nodes named in ``boundary_values`` are held even when unmasked; only
    they take a column of targets.
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
    prescribed: dict = {}
    for i, value in (boundary_values or {}).items():
        idx = _integer(i, "boundary node")
        if not 0 <= idx < op.grid.size:
            raise ValueError(f"boundary node {_shown(idx)} outside grid")
        prescribed[idx] = value
    held = np.array(sorted(prescribed), dtype=int)
    targets = np.zeros((cfg.n_steps, held.size), complex if unitary else float)
    # step times only for prescribed nodes, whose columns hold one value per step
    taus = (np.arange(1, cfg.n_steps + 1) * cfg.dt).tolist() if prescribed else []
    number = _finite_complex if unitary else _finite
    for idx, value in prescribed.items():
        name = f"boundary value at node {idx}"
        targets[:, np.searchsorted(held, idx)] = (
            [number(value(tau), name) for tau in taus] if callable(value) else number(value, name)
        )
    mass_arr, norm_arr = np.empty((2, cfg.n_steps + 1))

    cell = op.grid.cell
    psi0 = state.values.astype(complex if unitary else float, copy=False)
    steps = _cn_run(op.matrix, psi0, cfg.dt, unitary, op.dirichlet_mask, held, targets)

    def run() -> tuple:
        # states are copied into a block and reduced a block at a time;
        # each row sums in the order a single state would
        block = np.empty((_FLOW_BLOCK, psi0.size), psi0.dtype)
        for k, psi in enumerate(chain([psi0], steps)):
            row = k % _FLOW_BLOCK
            block[row] = psi
            if row == _FLOW_BLOCK - 1 or k == cfg.n_steps:
                states, done = block[: row + 1], slice(k - row, k + 1)
                mass_arr[done] = np.real(states.sum(axis=1)) * cell
                norm_arr[done] = np.sqrt(np.sum(np.abs(states) ** 2, axis=1) * cell)
        mass_drift = abs(mass_arr[-1] - mass_arr[0]) / max(abs(mass_arr[0]), _EPS)
        norm_drift = abs(norm_arr[-1] - norm_arr[0]) / max(abs(norm_arr[0]), _EPS)
        return psi.copy(), mass_arr, norm_arr, mass_drift, norm_drift

    psi, mass_arr, norm_arr, mass_drift, norm_drift = _computed(
        run, "the evolved state, or its mass or norm, overflows a float"
    )
    report = FlowReport(
        mass_series=mass_arr,
        norm_series=norm_arr,
        mass_drift=mass_drift,
        norm_drift=norm_drift,
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


def _euclidean(p: MarketParams, g: Grid1D, dt: float) -> None:
    """Refuse a Euclidean Crank-Nicolson run of the one-factor generator
    on ``g`` that no longer reproduces the semigroup exp(-tau H): a cell
    Peclet number above 1, where a central row has a positive
    off-diagonal, the scheme is not monotone and a price can go negative
    (the message names a node count that satisfies it), then a step with
    r dt >= 2, where the discount of a constant per step,
    (1 - r dt/2)/(1 + r dt/2), is zero or negative (the message names
    the bound dt < 2/r)."""
    pe = _cell_peclet(p, p.r, g.h)
    if pe > 1.0:
        # more than (n - 1) Pe cells bring it to 1 or below
        fix = (
            f"{int((g.n_points - 1) * pe) + 2} nodes or more on [{g.x_min}, {g.x_max}]"
            if math.isfinite(pe)
            else "a positive sigma_sq"
        )
        raise ValueError(
            f"cell Peclet number Pe = h * |sigma_sq/2 - r| / sigma_sq = {pe:.6g} exceeds 1 "
            f"on {g.n_points} nodes, so the Euclidean scheme is not monotone; use {fix}"
        )
    if not p.r * dt < 2.0:
        raise ValueError(
            f"the step dt = {dt!r} at r = {p.r!r} turns the Crank-Nicolson discount "
            f"(1 - r dt/2)/(1 + r dt/2) zero or negative; use dt < 2/r = {2.0 / p.r!r}"
        )


def _price(
    p: MarketParams, payoff: Payoff, T: float, dt: float, op: OperatorMatrix
) -> StateVector:
    """Present value over T under ``op``: knocked nodes (its Dirichlet
    mask) held at zero, each free edge at its far field. ``dt`` is a
    target step; the count is derived so the steps land exactly on T. A
    grid whose cell Peclet number exceeds 1 is refused, and so is a
    derived step with r dt >= 2 (``_euclidean``).

    Only the free edges take a column of targets; the stepper holds the
    knocked nodes at zero. A knock-out starts damped, so no solve reads
    the payoff at a knocked node."""
    g = op.grid
    n_steps = _step_count(T, dt, "maturity")
    dt = T / n_steps
    _euclidean(p, g, dt)
    vals = payoff.values_on(g)
    pairs = _edge_pairs(payoff, vals)
    knocked = op.dirichlet_mask
    # a kink or a knock-out makes the data rough; the bond and the asset are smooth
    smooth = payoff.kind in (PAYOFF_BOND, PAYOFF_ASSET) and not knocked.any()
    damped = 0 if smooth else min(_DAMPED_STEPS, n_steps)
    held = np.array([0, g.n_points - 1])[~knocked[[0, -1]]]
    targets = np.zeros((n_steps + damped, held.size))
    if held.size:  # knocked edges read no discount, and allocate none
        # the scheme's own discount of a constant, which H maps to r times
        # itself after each solve: 1/(1 + a) per half-step of the damped
        # start, (1 - a)/(1 + a) per Crank-Nicolson step
        a_half = p.r * dt / 2.0
        factors = np.full(n_steps + damped, (1.0 - a_half) / (1.0 + a_half))
        factors[: 2 * damped] = 1.0 / (1.0 + a_half)
        discount = np.cumprod(factors)
    # a free node 0 or node -1 is also the first or the last held column
    for (a, b), end, x_edge in zip(pairs, (0, -1), (g.x_min, g.x_max)):
        if not knocked[end]:
            far = b * discount
            if a:  # e^{x_edge} may overflow where a = 0 leaves the value finite
                far = _computed(
                    lambda: a * np.exp(x_edge) + far,
                    f"the far-field price at the grid edge x = {x_edge} is not finite: "
                    f"e^{x_edge} overflows a float",
                )
            targets[:, end] = far
    steps = _cn_run(op.matrix, vals, dt, False, knocked, held, targets, damped)
    price = _computed(lambda: _final(steps), f"the price over T = {T} overflows a float")
    return StateVector(price, g)


def price_option(p: MarketParams, payoff: Payoff, T: float, g: Grid1D, dt: float) -> StateVector:
    """Present-value curve of a vanilla payoff at every grid node.

    Euclidean Crank-Nicolson under the one-factor generator with
    far-field Dirichlet values at both edges. ``dt`` is a target step;
    the count is derived so the steps land exactly on T.
    """
    return _price(p, payoff, T, dt, build_bs_hamiltonian(p, g))


def price_barrier(
    p: MarketParams,
    payoff: Payoff,
    barrier: Potential,
    T: float,
    g: Grid1D,
    dt: float,
) -> StateVector:
    """Knock-out price curve: zero in the knocked regions, far-field
    values at any free domain edge. ``dt`` is a target step, as in
    price_option."""
    if barrier.kind not in (KIND_DOWN_AND_OUT, KIND_DOUBLE_KNOCKOUT):
        raise ValueError(
            f"barrier must be a knock-out potential, got kind {barrier.kind!r}"
        )
    op = build_effective_bs(p, barrier, g)
    if op.dirichlet_mask.all():
        if barrier.kind == KIND_DOWN_AND_OUT:
            raise ValueError(f"down-and-out level {barrier.level} knocks out every node")
        raise ValueError("corridor is empty: every node is knocked out")
    return _price(p, payoff, T, dt, op)


def kernel_row(p: MarketParams, x: float, tau: float, g: Grid1D) -> StateVector:
    """Numeric propagator row: the pricing kernel from source point x.

    The source must lie in [g.x_min, g.x_max]; a source between nodes
    is snapped to the nearest node. Evolves a discrete delta (unit mass
    at that node, 1/h tall) under the transposed generator with a short
    implicit startup to damp the delta's high modes. The row integrates
    to the discount factor and reproduces e^x against the asset state.
    It is nonnegative to roundoff only while the kernel's tail stays
    clear of both grid edges: once it reaches one (the source plus its
    drift within a few sigma sqrt(tau) of x_min or x_max), a +, -, +
    sawtooth on the last nodes at that edge can go negative, and it grows
    as the grid is refined. A tau that needs more than ``model.MAX_STEPS``
    steps of h/8 is refused. As in the pricers, the grid's cell Peclet
    number must not exceed 1, and the derived step dt = tau / n_steps
    must satisfy r dt < 2 (``_euclidean``).
    """
    _positive(tau, "kernel time")
    if not g.x_min <= _finite(x, "kernel source x") <= g.x_max:
        raise ValueError(f"kernel source x={x} lies outside the grid [{g.x_min}, {g.x_max}]")
    what = f"kernel time {tau} over the step h/8 = {g.h / 8.0}"
    n_steps = max(50, int(np.ceil(_within_budget(8.0 * tau / g.h, what))))
    dt = tau / n_steps
    _euclidean(p, g, dt)
    idx = int(np.argmin(np.abs(g.points - x)))
    op = build_bs_hamiltonian(p, g)
    delta = np.zeros(g.n_points)
    delta[idx] = 1.0 / g.h
    steps = _cn_run(
        op.matrix.T.tocsr(), delta, dt, False, np.zeros(g.n_points, dtype=bool),
        np.zeros(0, dtype=int), np.zeros((n_steps + _DAMPED_STEPS, 0)), _DAMPED_STEPS,
    )
    return StateVector(np.real(_final(steps)), g)
