"""Discretized Hamiltonians and related operators on log-price lattices.

Builders produce sparse finite-difference matrices: the one-factor
pricing generator, its stochastic-volatility extension in (x, y), the
effective generator with a state-dependent potential, barrier variants
with Dirichlet-pinned knockout regions, and the Hermitian counterpart
obtained by an exact diagonal balancing of the drift term. Everything is
pure and immutable; builders can run concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np
from scipy import sparse

from .model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    StateVector,
    mg_cross_coef,
    mg_y_drift,
    mg_yy_coef,
)

BOUNDARY_ONE_SIDED = "one-sided"
BOUNDARY_DIRICHLET = "dirichlet-zero"

KIND_CONSTANT = "constant"
KIND_DOWN_AND_OUT = "down-and-out"
KIND_DOUBLE_KNOCKOUT = "double-knockout"
KIND_TABULATED = "tabulated"

# Matching a barrier bound against a domain edge: bounds at or beyond the
# edge knock nothing (the truncation already implies them).
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class Potential:
    """Non-derivative term V(x) of the effective generator.

    Four kinds: a constant value, a down-and-out barrier (infinite below
    ``level``, the spot rate inside), a double knockout (infinite outside
    [lo, hi]), and a table of values aligned to a grid. Barrier kinds are
    realized as Dirichlet-zero rows, never as literal infinities.
    """

    kind: str
    value: float | None = None
    level: float | None = None
    lo: float | None = None
    hi: float | None = None
    table: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> "Potential":
        if np.isnan(value):
            raise ValueError("constant potential is NaN")
        return cls(kind=KIND_CONSTANT, value=float(value))

    @classmethod
    def down_and_out(cls, level: float) -> "Potential":
        if np.isnan(level):
            raise ValueError("down-and-out level is NaN")
        return cls(kind=KIND_DOWN_AND_OUT, level=float(level))

    @classmethod
    def double_knockout(cls, lo: float, hi: float) -> "Potential":
        if np.isnan(lo) or np.isnan(hi):
            raise ValueError(f"double knockout bounds must not be NaN, got lo={lo}, hi={hi}")
        if lo >= hi:
            raise ValueError(f"double knockout needs lo < hi, got lo={lo}, hi={hi}")
        return cls(kind=KIND_DOUBLE_KNOCKOUT, lo=float(lo), hi=float(hi))

    @classmethod
    def tabulated(cls, values) -> "Potential":
        table = np.asarray(values, dtype=float)
        return cls(kind=KIND_TABULATED, table=table)

    def values_on(self, g: Grid1D, inside_value: float) -> np.ndarray:
        """Potential values at the grid nodes of the admissible region.

        Barrier kinds evaluate to ``inside_value`` (the vanilla rate);
        their knocked regions are handled by the operator builders.
        """
        if self.kind == KIND_CONSTANT:
            return np.full(g.n_points, self.value, dtype=float)
        if self.kind == KIND_TABULATED:
            if self.table.shape != (g.n_points,):
                raise ValueError(
                    f"tabulated potential has {self.table.shape[0]} entries "
                    f"for a grid of {g.n_points} points"
                )
            if not np.all(np.isfinite(self.table)):
                raise ValueError("tabulated potential has non-finite interior values")
            return self.table.astype(float, copy=True)
        if self.kind in (KIND_DOWN_AND_OUT, KIND_DOUBLE_KNOCKOUT):
            return np.full(g.n_points, inside_value, dtype=float)
        raise ValueError(f"unknown potential kind {self.kind!r}")


@dataclass(frozen=True)
class OperatorMatrix:
    """A discretized operator tied to its lattice.

    ``dirichlet_mask`` marks every pinned node: domain edges under the
    Dirichlet closure and all knocked-out barrier nodes. Pinned rows are
    zero in the matrix; time steppers hold their values fixed.
    """

    matrix: sparse.csr_matrix
    grid: Union[Grid1D, Grid2D]
    dirichlet_mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = sparse.csr_matrix(self.matrix)
        object.__setattr__(self, "matrix", m)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] != self.grid.size:
            raise ValueError(
                f"operator of size {m.shape[0]} does not match grid size {self.grid.size}"
            )
        if m.nnz and not np.all(np.isfinite(m.data)):
            raise ValueError("operator matrix has non-finite entries")
        if self.dirichlet_mask is None:
            object.__setattr__(self, "dirichlet_mask", np.zeros(m.shape[0], dtype=bool))
        else:
            mask = np.asarray(self.dirichlet_mask, dtype=bool)
            if mask.shape != (m.shape[0],):
                raise ValueError("dirichlet mask length does not match operator size")
            object.__setattr__(self, "dirichlet_mask", mask)

    def interior_mask(self) -> np.ndarray:
        """Nodes whose rows carry the interior stencil: not on a domain
        edge (where the closure is scheme-dependent) and not pinned."""
        if isinstance(self.grid, Grid1D):
            keep = np.ones(self.grid.n_points, dtype=bool)
            keep[0] = keep[-1] = False
        else:
            nx, ny = self.grid.shape
            keep2 = np.zeros((nx, ny), dtype=bool)
            keep2[1:-1, 1:-1] = True
            keep = keep2.reshape(-1)
        return keep & ~self.dirichlet_mask

    def to_coo_text(self) -> str:
        """Coordinate-list export: one 'row col value' line per entry,
        row-major order, round-trip float formatting."""
        coo = self.matrix.tocoo()
        coo.sum_duplicates()
        order = np.lexsort((coo.col, coo.row))
        lines = [
            f"{coo.row[k]} {coo.col[k]} {float(coo.data[k])!r}"
            for k in order
        ]
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class SimilarityTransform:
    """Gauge data for the Hermitian counterpart of the effective generator.

    ``s_values`` holds the gauge exponent s(x) = x/2 - (1/sigma_sq) *
    integral of V, accumulated by the trapezoid rule from the left edge.
    ``gamma`` and ``alpha_coef`` are the constant-potential transform
    constants (r + sigma_sq/2)^2 / (2 sigma_sq) and
    (sigma_sq/2 - r) / sigma_sq.
    """

    s_values: StateVector
    gamma: float
    alpha_coef: float


def _stencil(n: int, h: float, order: int, boundary: str) -> sparse.csr_matrix:
    """Central difference of the given order (1 or 2) as CSR with sorted
    indices. The one-sided closure adds second-order one-sided edge rows
    (the 3-point stencil when n < 4 leaves no other estimate for D2);
    the Dirichlet closure leaves the edge rows empty. The last D1 edge
    row mirrors the first with the sign flipped, the last D2 row without."""
    if order == 1:
        inv = 1.0 / (2.0 * h)
        offsets = np.array([-1, 1])
        weights = np.array([-inv, inv])
        first = np.array([-3.0, 4.0, -1.0]) * inv
        last = -first[::-1]
    else:
        inv = 1.0 / h**2
        offsets = np.array([-1, 0, 1])
        weights = np.array([inv, -2.0 * inv, inv])
        first = np.array([2.0, -5.0, 4.0, -1.0] if n >= 4 else [1.0, -2.0, 1.0]) * inv
        last = first[::-1]
    rows = np.repeat(np.arange(1, n - 1), offsets.size)
    cols = rows + np.tile(offsets, n - 2)
    vals = np.tile(weights, n - 2)
    if boundary == BOUNDARY_ONE_SIDED:
        k = first.size
        rows = np.concatenate((np.zeros(k, dtype=int), rows, np.full(k, n - 1)))
        cols = np.concatenate((np.arange(k), cols, np.arange(n - k, n)))
        vals = np.concatenate((first, vals, last))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _pin_rows(a: sparse.spmatrix, mask: np.ndarray) -> sparse.csr_matrix:
    """Copy of ``a`` with every row flagged in ``mask`` emptied.

    Indices come back sorted: products and factorizations sum each row
    in stored order, so the order is part of the result.
    """
    pinned = sparse.diags((~mask).astype(float)) @ a
    pinned.sort_indices()
    return pinned


def build_bs_hamiltonian(
    p: MarketParams, g: Grid1D, boundary: str = BOUNDARY_ONE_SIDED
) -> OperatorMatrix:
    """Generator -(sigma_sq/2) D2 + (sigma_sq/2 - r) D1 + r I.

    It annihilates the price state e^x up to discretization error; the
    drift term makes it non-symmetric unless sigma_sq = 2 r.
    """
    return build_effective_bs(p, Potential.constant(p.r), g, boundary=boundary)


def build_effective_bs(
    p: MarketParams, v: Potential, g: Grid1D, boundary: str = BOUNDARY_ONE_SIDED
) -> OperatorMatrix:
    """Generator with a state-dependent potential:
    -(sigma_sq/2) D2 + (sigma_sq/2 - V(x)) D1 + V(x) I.

    The drift/potential pairing keeps e^x annihilated for every bounded
    V. Barrier kinds evaluate to the vanilla rate inside the admissible
    region and pin every knocked node's row to zero (Dirichlet); a bound
    at or beyond a domain edge knocks nothing.
    """
    n = g.n_points
    h = g.h
    x = g.points
    vals = v.values_on(g, inside_value=p.r)

    d1 = _stencil(n, h, 1, boundary)
    d2 = _stencil(n, h, 2, boundary)
    drift = sparse.diags(0.5 * p.sigma_sq - vals)
    a = (-0.5 * p.sigma_sq) * d2 + drift @ d1 + sparse.diags(vals)

    knocked = np.zeros(n, dtype=bool)
    if v.kind == KIND_DOWN_AND_OUT:
        if v.level > g.x_min + _EDGE_TOL:
            knocked = x <= v.level + _EDGE_TOL
    elif v.kind == KIND_DOUBLE_KNOCKOUT:
        if v.lo >= v.hi:
            raise ValueError(f"double knockout needs lo < hi, got lo={v.lo}, hi={v.hi}")
        if v.lo < g.x_min - _EDGE_TOL or v.hi > g.x_max + _EDGE_TOL:
            raise ValueError(
                f"corridor [{v.lo}, {v.hi}] must lie inside the grid "
                f"[{g.x_min}, {g.x_max}]"
            )
        if v.lo > g.x_min + _EDGE_TOL:
            knocked |= x <= v.lo + _EDGE_TOL
        if v.hi < g.x_max - _EDGE_TOL:
            knocked |= x >= v.hi - _EDGE_TOL

    mask = knocked.copy()
    if boundary == BOUNDARY_DIRICHLET:
        mask[0] = mask[-1] = True
    return OperatorMatrix(matrix=_pin_rows(a, mask), grid=g, dirichlet_mask=mask)


def build_double_knockout(p: MarketParams, v: Potential, g: Grid1D) -> OperatorMatrix:
    """Vanilla generator with Dirichlet-zero rows outside the corridor
    (lo, hi). A corridor spanning the whole domain reduces to the
    vanilla operator."""
    if v.kind != KIND_DOUBLE_KNOCKOUT:
        raise ValueError(f"expected a double-knockout potential, got kind {v.kind!r}")
    return build_effective_bs(p, v, g)


def build_mg_hamiltonian(p: MGParams, g: Grid2D) -> OperatorMatrix:
    """Two-factor generator on the (x, y) lattice, y = log-variance.

    Encodes, with central differences and the symmetric four-point cross
    stencil:

        -(e^y/2) dxx - (r - e^y/2) dx - C(y) dy
        - rho zeta e^{y(alpha-1/2)} dxy - zeta^2 e^{2y(alpha-1)} dyy + r

    where C(y) = lam e^{-y} + mu - (zeta^2/2) e^{2y(alpha-1)}. Note the
    full zeta^2 weight on the dyy term. Flattening is row-major, x outer.
    """
    nx, ny = g.shape
    hx, hy = g.x_axis.h, g.y_axis.h
    y = g.y_axis.points

    dx1 = _stencil(nx, hx, 1, BOUNDARY_ONE_SIDED)
    dx2 = _stencil(nx, hx, 2, BOUNDARY_ONE_SIDED)
    dy1 = _stencil(ny, hy, 1, BOUNDARY_ONE_SIDED)
    dy2 = _stencil(ny, hy, 2, BOUNDARY_ONE_SIDED)
    ix = sparse.identity(nx, format="csr")
    iy = sparse.identity(ny, format="csr")

    def ydiag(vec_y: np.ndarray) -> sparse.dia_matrix:
        return sparse.diags(np.tile(vec_y, nx))

    ey = np.exp(y)
    a = (
        -ydiag(0.5 * ey) @ sparse.kron(dx2, iy, format="csr")
        - ydiag(p.r - 0.5 * ey) @ sparse.kron(dx1, iy, format="csr")
        - ydiag(mg_y_drift(p, y)) @ sparse.kron(ix, dy1, format="csr")
        - ydiag(mg_cross_coef(p, y)) @ sparse.kron(dx1, dy1, format="csr")
        - ydiag(mg_yy_coef(p, y)) @ sparse.kron(ix, dy2, format="csr")
        + p.r * sparse.identity(nx * ny, format="csr")
    )
    return OperatorMatrix(matrix=a, grid=g)


def hermiticity_defect(op: OperatorMatrix) -> float:
    """Max-norm of the antisymmetric part (M - M^T)/2 over interior
    rows and columns.

    Edge rows (scheme-dependent closure) and pinned rows are excluded on
    both axes, so the measure reflects model content, not the boundary
    discretization. Zero means the interior stencil is symmetric.
    """
    keep = np.where(op.interior_mask())[0]
    if keep.size == 0:
        return 0.0
    d = (op.matrix - op.matrix.T).tocsr()
    sub = d[keep][:, keep]
    if sub.nnz == 0:
        return 0.0
    return 0.5 * float(np.abs(sub.data).max())


def similarity_transform(
    p: MarketParams, v: Potential, g: Grid1D
) -> tuple[SimilarityTransform, OperatorMatrix]:
    """Hermitian counterpart of the effective generator, plus its gauge.

    The symmetric matrix is built by exact diagonal balancing of the
    tridiagonal ``build_effective_bs`` assembles under the Dirichlet
    closure: the diagonal is kept (sigma_sq/h^2 + V_i) and
    the bond between nodes i and i+1 becomes -sqrt of the product of the
    two opposing off-diagonal entries. Balancing is an exact similarity
    transform of the interior block (isospectral to roundoff) and is
    simultaneously a second-order discretization of

        -(sigma_sq/2) D2 + (1/2) V'(x) + (V + sigma_sq/2)^2 / (2 sigma_sq).

    Requires sigma_sq > 0 and the cell-scale drift bound
    h * max|sigma_sq/2 - V| < sigma_sq (grid Peclet condition); both are
    checked. Edge rows and columns are zeroed (Dirichlet closure).
    """
    if p.sigma_sq == 0.0:
        raise ValueError("similarity transform undefined at sigma_sq = 0")
    if v.kind in (KIND_DOWN_AND_OUT, KIND_DOUBLE_KNOCKOUT):
        raise ValueError("similarity transform needs a smoothly evaluable potential")

    h = g.h
    x = g.points
    vals = v.values_on(g, inside_value=p.r)

    peclet = h * float(np.abs(0.5 * p.sigma_sq - vals).max())
    if peclet >= p.sigma_sq:
        raise ValueError(
            "grid Peclet condition violated: need h * max|sigma_sq/2 - V| "
            f"< sigma_sq, got {peclet:.6g} >= {p.sigma_sq:.6g}; refine the grid"
        )

    # trapezoid rule accumulated from the left edge
    integral = np.concatenate(([0.0], np.cumsum(np.diff(x) * (vals[1:] + vals[:-1]) / 2.0)))
    s_vals = 0.5 * x - integral / p.sigma_sq
    transform = SimilarityTransform(
        s_values=StateVector(s_vals, g),
        gamma=(p.r + 0.5 * p.sigma_sq) ** 2 / (2.0 * p.sigma_sq),
        alpha_coef=(0.5 * p.sigma_sq - p.r) / p.sigma_sq,
    )

    op = build_effective_bs(p, v, g, BOUNDARY_DIRICHLET)
    # bond i <-> i+1 pairs row i's superdiagonal with row i+1's
    # subdiagonal; the pinned edge rows leave the bonds touching them zero
    bond = -np.sqrt(op.matrix.diagonal(1) * op.matrix.diagonal(-1))
    m = sparse.diags([bond, op.matrix.diagonal(), bond], [-1, 0, 1], format="csr")
    return transform, OperatorMatrix(matrix=m, grid=g, dirichlet_mask=op.dirichlet_mask)


def apply_momentum(state: StateVector, g: Grid1D) -> StateVector:
    """Price-translation generator: the first derivative of the state.

    Acting on the price state e^x it returns e^x again (up to O(h^2)),
    which is the discrete witness that the translation symmetry does not
    annihilate the equilibrium state.
    """
    if state.grid.size != g.size:
        raise ValueError("state and grid sizes differ")
    d1 = _stencil(g.n_points, g.h, 1, BOUNDARY_ONE_SIDED)
    return StateVector(d1 @ state.values, g)
