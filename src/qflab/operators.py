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
    _finite_table,
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
    realized as Dirichlet-zero rows, never as literal infinities; every
    value, level and bound given must be finite.
    """

    kind: str
    value: float | None = None
    level: float | None = None
    lo: float | None = None
    hi: float | None = None
    table: np.ndarray | None = None

    @classmethod
    def constant(cls, value: float) -> "Potential":
        if not np.isfinite(value):
            raise ValueError(f"constant potential must not be NaN or infinite, got {value}")
        return cls(kind=KIND_CONSTANT, value=float(value))

    @classmethod
    def down_and_out(cls, level: float) -> "Potential":
        if not np.isfinite(level):
            raise ValueError(f"down-and-out level must not be NaN or infinite, got {level}")
        return cls(kind=KIND_DOWN_AND_OUT, level=float(level))

    @classmethod
    def double_knockout(cls, lo: float, hi: float) -> "Potential":
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"double knockout bounds must not be NaN or infinite: {lo}, {hi}")
        if lo >= hi:
            raise ValueError(f"double knockout needs lo < hi, got lo={lo}, hi={hi}")
        return cls(kind=KIND_DOUBLE_KNOCKOUT, lo=float(lo), hi=float(hi))

    @classmethod
    def tabulated(cls, values) -> "Potential":
        return cls(kind=KIND_TABULATED, table=_finite_table(values, "tabulated potential"))

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


# Stencil weights, in units of 1/(2h) for D1 and 1/h^2 for D2, over the
# D2 pattern: the interior row on columns i-1, i, i+1 and the one-sided
# first row on columns 0..3. With n = 3 the first row keeps its first
# three columns, and D2 takes the interior weights there (no other
# estimate fits). The last row mirrors the first, with the sign flipped
# for D1.
_INTERIOR_WEIGHTS = {1: (-1.0, 0.0, 1.0), 2: (1.0, -2.0, 1.0)}
_FIRST_ROW_WEIGHTS = {1: (-3.0, 4.0, -1.0, 0.0), 2: (2.0, -5.0, 4.0, -1.0)}


def _stencil_pattern(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and sorted column indices of the D2 pattern."""
    k = min(n, 4)
    counts = np.full(n, 3)
    counts[0] = counts[-1] = k
    indptr = np.concatenate(([0], np.cumsum(counts)))
    interior = (np.arange(1, n - 1)[:, None] + np.arange(-1, 2)).ravel()
    cols = np.concatenate((np.arange(k), interior, np.arange(n - k, n)))
    return indptr, cols


def _stencil_weights(n: int, h: float, order: int) -> np.ndarray:
    """Weights of the order-1 or order-2 central difference over
    ``_stencil_pattern(n)``, zeros included."""
    inv = 1.0 / (2.0 * h) if order == 1 else 1.0 / h**2
    interior = np.tile(np.array(_INTERIOR_WEIGHTS[order]) * inv, n - 2)
    if order == 2 and n < 4:
        first = np.array(_INTERIOR_WEIGHTS[2]) * inv
    else:
        first = np.array(_FIRST_ROW_WEIGHTS[order][:n]) * inv
    last = -first[::-1] if order == 1 else first[::-1]
    return np.concatenate((first, interior, last))


def _stencil(n: int, h: float, order: int) -> sparse.csr_matrix:
    """Central difference of the given order (1 or 2), closed by
    second-order one-sided edge rows, as CSR with sorted indices and no
    stored zeros."""
    indptr, cols = _stencil_pattern(n)
    m = sparse.csr_matrix((_stencil_weights(n, h, order), cols, indptr), shape=(n, n))
    m.eliminate_zeros()
    return m


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
    x = g.points
    vals = v.values_on(g, inside_value=p.r)

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

    # Each entry is (c2 D2 + drift D1) + V I, summed in the order of the
    # sparse expression it replaces, so every bit matches it. Pinned rows
    # and exact zeros are dropped, as sparse sums and products drop them.
    indptr, cols = _stencil_pattern(n)
    rows = np.repeat(np.arange(n), np.diff(indptr))
    d1 = _stencil_weights(n, g.h, 1)
    d2 = _stencil_weights(n, g.h, 2)
    drift = 0.5 * p.sigma_sq - vals
    data = (-0.5 * p.sigma_sq) * d2 + drift[rows] * d1
    data[cols == rows] += vals
    keep = (data != 0.0) & ~mask[rows]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows[keep], minlength=n))))
    a = sparse.csr_matrix((data[keep], cols[keep], indptr), shape=(n, n))
    return OperatorMatrix(matrix=a, grid=g, dirichlet_mask=mask)


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

    dx1 = _stencil(nx, hx, 1)
    dx2 = _stencil(nx, hx, 2)
    dy1 = _stencil(ny, hy, 1)
    dy2 = _stencil(ny, hy, 2)
    diag = sparse.diags

    # Each y coefficient is I_x (x) diag(c), and (I_x (x) diag(c))(A (x) B)
    # is A (x) diag(c) B: grouped by their x factor, the terms make three
    # Kronecker products, whose CSR forms and sum have sorted indices.
    ey = np.exp(y)
    y_of_dx2 = diag(-0.5 * ey)
    y_of_dx1 = diag(-(p.r - 0.5 * ey)) - diag(mg_cross_coef(p, y)) @ dy1
    y_of_ix = (
        -diag(mg_y_drift(p, y)) @ dy1 - diag(mg_yy_coef(p, y)) @ dy2 + p.r * sparse.identity(ny)
    )
    a = (
        sparse.kron(dx2, y_of_dx2, format="csr")
        + sparse.kron(dx1, y_of_dx1, format="csr")
        + sparse.kron(sparse.identity(nx), y_of_ix, format="csr")
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
    d1 = _stencil(g.n_points, g.h, 1)
    return StateVector(d1 @ state.values, g)
