"""Discretized Hamiltonians and related operators on log-price lattices.

Builders produce sparse finite-difference matrices: the one-factor
pricing generator, its stochastic-volatility extension in (x, y), the
effective generator with a state-dependent potential, barrier variants
with Dirichlet-pinned knockout regions, and the Hermitian counterpart
obtained by an exact diagonal balancing of the drift term. Everything is
pure and immutable; builders can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np

from .model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    StateVector,
    _computed,
    _finite,
    _finite_table,
    mg_cross_coef,
    mg_y_drift,
    mg_yy_coef,
)

# scipy.sparse is imported where it is called, so that importing qflab
# loads no scipy: the vacuum solvers and the Monte Carlo check never call it
if TYPE_CHECKING:
    from scipy import sparse

BOUNDARY_ONE_SIDED = "one-sided"
BOUNDARY_DIRICHLET = "dirichlet-zero"

KIND_CONSTANT = "constant"
KIND_DOWN_AND_OUT = "down-and-out"
KIND_DOUBLE_KNOCKOUT = "double-knockout"
KIND_TABULATED = "tabulated"

# Matching a barrier bound against a domain edge: bounds at or beyond the
# edge knock nothing (the truncation already implies them).
_EDGE_TOL = 1e-12

# the scalar fields each potential kind reads
_POTENTIAL_SCALARS = {
    KIND_CONSTANT: ("value",),
    KIND_DOWN_AND_OUT: ("level",),
    KIND_DOUBLE_KNOCKOUT: ("lo", "hi"),
    KIND_TABULATED: (),
}


@dataclass(frozen=True)
class Potential:
    """Non-derivative term V(x) of the effective generator.

    Four kinds: a constant value, a down-and-out barrier (infinite below
    ``level``, the spot rate inside), a double knockout (infinite outside
    [lo, hi]), and a table of values aligned to a grid. Barrier kinds are
    realized as Dirichlet-zero rows, never as literal infinities. The
    fields a kind reads are checked when it is built: every value, level
    and bound must be finite, a corridor needs lo < hi, and a table must
    be a 1-D table of finite values.
    """

    kind: str
    value: float | None = None
    level: float | None = None
    lo: float | None = None
    hi: float | None = None
    table: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in tuple(_POTENTIAL_SCALARS):  # by equality, so any kind compares
            raise ValueError(f"unknown potential kind {self.kind!r}")
        for name in _POTENTIAL_SCALARS[self.kind]:
            value = _finite(getattr(self, name), f"{self.kind} potential {name}")
            object.__setattr__(self, name, value)
        if self.kind == KIND_TABULATED:
            object.__setattr__(self, "table", _finite_table(self.table, "tabulated potential"))
        if self.kind == KIND_DOUBLE_KNOCKOUT and not self.lo < self.hi:
            raise ValueError(f"double knockout needs lo < hi, got lo={self.lo}, hi={self.hi}")

    @classmethod
    def constant(cls, value: float) -> "Potential":
        return cls(kind=KIND_CONSTANT, value=value)

    @classmethod
    def down_and_out(cls, level: float) -> "Potential":
        return cls(kind=KIND_DOWN_AND_OUT, level=level)

    @classmethod
    def double_knockout(cls, lo: float, hi: float) -> "Potential":
        return cls(kind=KIND_DOUBLE_KNOCKOUT, lo=lo, hi=hi)

    @classmethod
    def tabulated(cls, values) -> "Potential":
        return cls(kind=KIND_TABULATED, table=values)

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
        return np.full(g.n_points, inside_value, dtype=float)


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
        from scipy import sparse

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


def _bands(n: int, first, interior, last, dtype=float) -> np.ndarray:
    """Values on the D2 pattern: the first row's, the interior rows' one
    stencil column at a time (``interior[j]``, a scalar or n - 2 values, on
    column i - 1 + j of row i), and the last row's."""
    k = min(n, 4)
    out = np.empty(2 * k + 3 * (n - 2), dtype=dtype)
    out[:k], out[out.size - k:] = first, last
    body = out[k:out.size - k].reshape(n - 2, 3)
    for j in range(3):
        body[:, j] = interior[j]
    return out


def _stencil_pattern(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row pointers and sorted column indices of the D2 pattern: rows of
    k, 3, ..., 3, k entries, k = min(n, 4), as int32: model.MAX_NODES keeps them in range."""
    k = min(n, 4)
    cols = _bands(n, np.arange(k), [np.arange(j, j + n - 2) for j in range(3)],
                  np.arange(n - k, n), np.int32)
    indptr = np.arange(k - 3, 3 * n + k - 2, 3, dtype=np.int32)
    indptr[0], indptr[-1] = 0, cols.size
    return indptr, cols


def _entries(n: int, h: float, c2, c1, c0) -> np.ndarray:
    """(c2 D2 + c1 D1) + c0 I on the D2 pattern, summed in that order; each
    coefficient is a scalar or one value per row."""
    inv1, inv2 = 1.0 / (2.0 * h), 1.0 / h**2
    m1, m2 = [w * inv1 for w in _INTERIOR_WEIGHTS[1]], [w * inv2 for w in _INTERIOR_WEIGHTS[2]]
    f1 = np.array(_FIRST_ROW_WEIGHTS[1][:n]) * inv1
    f2 = np.array(m2) if n < 4 else np.array(_FIRST_ROW_WEIGHTS[2]) * inv2

    def at(c, rows):
        return c[rows] if isinstance(c, np.ndarray) else c

    inner = slice(1, -1)
    first = at(c2, 0) * f2 + at(c1, 0) * f1
    last = at(c2, -1) * f2[::-1] + at(c1, -1) * -f1[::-1]
    mid = [at(c2, inner) * m2[j] + at(c1, inner) * m1[j] for j in range(3)]
    first[0], last[-1] = first[0] + at(c0, 0), last[-1] + at(c0, -1)
    mid[1] = mid[1] + at(c0, inner)
    return _bands(n, first, mid, last)


def _stencil(n: int, h: float, order: int) -> sparse.csr_matrix:
    """Central difference of the given order (1 or 2), closed by
    second-order one-sided edge rows, as CSR with sorted indices and no
    stored zeros."""
    from scipy import sparse

    indptr, cols = _stencil_pattern(n)
    data = _entries(n, h, float(order == 2), float(order == 1), 0.0)
    m = sparse.csr_matrix((data, cols, indptr), shape=(n, n))
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
    at or beyond a domain edge knocks nothing. Any ``boundary`` but the
    two closures is refused.
    """
    if boundary not in (BOUNDARY_ONE_SIDED, BOUNDARY_DIRICHLET):
        closures = f"{BOUNDARY_ONE_SIDED!r} or {BOUNDARY_DIRICHLET!r}"
        raise ValueError(f"unknown boundary {boundary!r}: use {closures}")
    from scipy import sparse

    n = g.n_points
    x = g.points
    vals = v.values_on(g, inside_value=p.r)

    mask = np.zeros(n, dtype=bool)
    if v.kind == KIND_DOWN_AND_OUT:
        if v.level > g.x_min + _EDGE_TOL:
            mask = x <= v.level + _EDGE_TOL
    elif v.kind == KIND_DOUBLE_KNOCKOUT:
        if v.lo < g.x_min - _EDGE_TOL or v.hi > g.x_max + _EDGE_TOL:
            raise ValueError(
                f"corridor [{v.lo}, {v.hi}] must lie inside the grid "
                f"[{g.x_min}, {g.x_max}]"
            )
        if v.lo > g.x_min + _EDGE_TOL:
            mask |= x <= v.lo + _EDGE_TOL
        if v.hi < g.x_max - _EDGE_TOL:
            mask |= x >= v.hi - _EDGE_TOL

    if boundary == BOUNDARY_DIRICHLET:
        mask[0] = mask[-1] = True

    # Entries summed as the sparse expression sums them, so every bit matches
    # it; pinned rows and exact zeros are dropped, as sparse sums drop them.
    indptr, cols = _stencil_pattern(n)
    data = _computed(
        lambda: _entries(n, g.h, -0.5 * p.sigma_sq, 0.5 * p.sigma_sq - vals, vals),
        f"the generator's entries overflow a float on spacing h = {g.h!r} "
        f"at sigma_sq = {p.sigma_sq!r}"
    )
    keep = data != 0.0
    if mask.any() or not keep.all():
        keep &= ~_bands(n, mask[0], (mask[1:-1],) * 3, mask[-1], bool)
        indptr = np.cumsum(np.r_[0, keep], dtype=np.int32)[indptr]
        cols, data = cols[keep], data[keep]
    a = sparse.csr_matrix((data, cols, indptr), shape=(n, n))
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
    from scipy import sparse

    nx, ny = g.shape
    y = g.y_axis.points

    # Each y coefficient is I_x (x) diag(c), and (I_x (x) diag(c))(A (x) B)
    # is A (x) diag(c) B, so the generator is dx2 (x) B2 + dx1 (x) B1 +
    # I_x (x) B0 with y factors on the D2 pattern of y. Each entry is
    # (T2 + T1) + T0, every term an x weight times a y entry, summed in the
    # order of those three Kronecker products, so every bit matches them.
    # An absent term is +-0.0 here, which leaves a nonzero sum unchanged,
    # and exact zeros are dropped, as sparse sums and products drop them.
    # the coefficients and every entry built from them are refused where
    # they leave the float range
    refusal = (
        f"the two-factor generator overflows a float on y in [{g.y_axis.x_min}, "
        f"{g.y_axis.x_max}] with spacings hx = {g.x_axis.h!r}, hy = {g.y_axis.h!r}"
    )

    def y_factors() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ey, hy = np.exp(y), g.y_axis.h
        return (
            _entries(ny, hy, 0.0, 0.0, -0.5 * ey),
            _entries(ny, hy, 0.0, -mg_cross_coef(p, y), -(p.r - 0.5 * ey)),
            _entries(ny, hy, -mg_yy_coef(p, y), -mg_y_drift(p, y), p.r),
        )

    b2, b1, b0 = _computed(y_factors, refusal)
    w2x, w1x = (_entries(nx, g.x_axis.h, *c) for c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    (xptr, xcols), (yptr, ycols) = _stencil_pattern(nx), _stencil_pattern(ny)
    ky = yptr[1]  # the first row's width

    def block(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries, columns and row pointers of x row i's ny rows, ordered
        by y row, x column and y column (sorted CSR rows): the y pattern's
        first row, (ny - 2, 3) interior and last row, each x column's in turn."""
        s = slice(xptr[i], xptr[i + 1])
        kx, cx = s.stop - s.start, xcols[s, None]
        pos = np.arange(kx * ycols.size).reshape(kx, ycols.size)
        order = np.concatenate((pos[:, :ky].ravel(),
                                pos[:, ky:-ky].reshape(kx, ny - 2, 3).swapaxes(0, 1).ravel(),
                                pos[:, -ky:].ravel()))
        vals = _computed(lambda: (w2x[s, None] * b2 + w1x[s, None] * b1) + (cx == i) * b0, refusal)
        vals = vals.ravel()[order]
        keep = vals != 0.0
        ptr = np.cumsum(np.r_[0, keep])[kx * yptr]
        return vals[keep], (cx * ny + ycols).ravel()[order[keep]], ptr

    # Every x row but the two edges holds x row 1's block, its columns
    # shifted by ny per row: three blocks make the whole matrix.
    (d0, c0, p0), (d1, c1, p1), (dl, cl, pl) = block(0), block(1), block(nx - 1)
    reps = nx - 2
    lo, hi = d0.size, d0.size + reps * d1.size
    nnz = hi + dl.size
    # model.MAX_NODES keeps the nnz, at most 16 per row, within int32 indices
    data, indices, indptr = np.empty(nnz), np.empty(nnz, np.int32), np.empty(nx * ny + 1, np.int32)
    data[:lo], indices[:lo], indptr[:ny] = d0, c0, p0[:-1]
    data[lo:hi].reshape(reps, d1.size)[:] = d1
    shift = np.arange(reps, dtype=np.int32)[:, None]
    np.add(c1, ny * shift, out=indices[lo:hi].reshape(reps, d1.size))
    np.add(p1[:-1], lo + d1.size * shift, out=indptr[ny:-ny - 1].reshape(reps, ny))
    data[hi:], indices[hi:], indptr[-ny - 1:] = dl, cl, pl + hi
    a = sparse.csr_matrix((data, indices, indptr), shape=(nx * ny, nx * ny))
    return OperatorMatrix(matrix=a, grid=g)


def hermiticity_defect(op: OperatorMatrix) -> float:
    """Max-norm of the antisymmetric part (M - M^T)/2 over interior
    rows and columns.

    Edge rows (scheme-dependent closure) and pinned rows are excluded on
    both axes, so the measure reflects model content, not the boundary
    discretization. Zero means the interior stencil is symmetric.
    """
    keep = np.flatnonzero(op.interior_mask())
    d = (op.matrix - op.matrix.T).tocsr()
    sub = d[keep][:, keep]
    if sub.nnz == 0:
        return 0.0
    return 0.5 * float(np.abs(sub.data).max())


def _cell_peclet(p: MarketParams, vals, h: float) -> float:
    """Cell Peclet number h max|sigma_sq/2 - V| / sigma_sq of the 1D
    generator with potential values ``vals`` on spacing h; inf at
    sigma_sq = 0. Above 1, an off-diagonal -sigma_sq/(2h^2) -+ (sigma_sq/2 -
    V)/(2h) of a central row turns positive."""
    if p.sigma_sq == 0.0:
        return math.inf
    return h * float(np.abs(0.5 * p.sigma_sq - vals).max()) / p.sigma_sq


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

    Requires sigma_sq > 0 and a cell Peclet number below 1, that is
    h * max|sigma_sq/2 - V| < sigma_sq (grid Peclet condition); both are
    checked. Edge rows and columns are zeroed (Dirichlet closure).
    """
    from scipy import sparse

    if p.sigma_sq == 0.0:
        raise ValueError("similarity transform undefined at sigma_sq = 0")
    if v.kind in (KIND_DOWN_AND_OUT, KIND_DOUBLE_KNOCKOUT):
        raise ValueError("similarity transform needs a smoothly evaluable potential")

    x = g.points
    vals = v.values_on(g, inside_value=p.r)

    peclet = _cell_peclet(p, vals, g.h)
    if peclet >= 1.0:
        raise ValueError(
            "grid Peclet condition violated: need h * max|sigma_sq/2 - V| "
            f"< sigma_sq, got Pe = {peclet:.6g} >= 1; refine the grid"
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
