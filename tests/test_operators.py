"""Discretized generators: stencils, barriers, hermiticity, gauge transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eig, eigh

from qflab.evolution import Payoff
from qflab.model import Grid1D, Grid2D, MarketParams, MGParams, StateVector
from qflab.model import mg_cross_coef, mg_y_drift, mg_yy_coef
from qflab.model import sample_extended_martingale_state, sample_martingale_state
from qflab.operators import (
    BOUNDARY_DIRICHLET,
    BOUNDARY_ONE_SIDED,
    OperatorMatrix,
    Potential,
    apply_momentum,
    build_bs_hamiltonian,
    build_double_knockout,
    build_effective_bs,
    build_mg_hamiltonian,
    hermiticity_defect,
    similarity_transform,
)
from qflab.operators import _stencil

DEFECT_ZERO_TOL = 1e-14
SPECTRUM_TOL = 1e-8
STENCIL_TOL = 1e-13


def annihilation_tolerance(g, state_values):
    return 10.0 * g.h**2 * np.max(np.abs(state_values))


class TestBSStencil:
    P = MarketParams(r=0.05, sigma_sq=0.04)

    def test_interior_row_entries(self):
        g = Grid1D(-1.0, 1.0, 21)
        h = g.h
        m = build_bs_hamiltonian(self.P, g).matrix.toarray()
        a = self.P.sigma_sq / 2.0
        b = a - self.P.r
        i = 10
        assert m[i, i - 1] == pytest.approx(-a / h**2 - b / (2 * h), rel=1e-14)
        assert m[i, i] == pytest.approx(2 * a / h**2 + self.P.r, rel=1e-14)
        assert m[i, i + 1] == pytest.approx(-a / h**2 + b / (2 * h), rel=1e-14)

    def test_one_sided_first_row(self):
        g = Grid1D(-1.0, 1.0, 21)
        h = g.h
        m = build_bs_hamiltonian(self.P, g, boundary=BOUNDARY_ONE_SIDED).matrix.toarray()
        a = self.P.sigma_sq / 2.0
        b = a - self.P.r
        want = np.zeros(21)
        want[:4] = -a * np.array([2.0, -5.0, 4.0, -1.0]) / h**2
        want[:3] += b * np.array([-3.0, 4.0, -1.0]) / (2 * h)
        want[0] += self.P.r
        assert np.max(np.abs(m[0] - want)) < STENCIL_TOL * np.max(np.abs(want))

    def test_dirichlet_rows_emptied(self):
        g = Grid1D(-1.0, 1.0, 21)
        op = build_bs_hamiltonian(self.P, g, boundary=BOUNDARY_DIRICHLET)
        m = op.matrix.toarray()
        assert not m[0].any() and not m[-1].any()
        assert op.dirichlet_mask[0] and op.dirichlet_mask[-1]
        assert not op.dirichlet_mask[1:-1].any()

    @pytest.mark.parametrize("boundary", ["dirichlet", "no-such-closure", None])
    def test_unknown_boundary_refused(self, boundary):
        # "dirichlet" is the command line's spelling, not the builders'
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="use 'one-sided' or 'dirichlet-zero'"):
            build_bs_hamiltonian(self.P, g, boundary=boundary)
        with pytest.raises(ValueError, match="use 'one-sided' or 'dirichlet-zero'"):
            build_effective_bs(self.P, Potential.down_and_out(0.0), g, boundary)

    def test_annihilates_exponential_state(self):
        g = Grid1D(-4.0, 4.0, 801)
        op = build_bs_hamiltonian(self.P, g)
        st_vals = sample_martingale_state(g).values
        res = np.abs(op.matrix @ st_vals)[op.interior_mask()]
        tol = annihilation_tolerance(g, st_vals)
        assert res.max() <= tol, f"residual {res.max():.3e} above gate {tol:.3e}"

    def test_annihilation_decays_at_second_order(self):
        maxes = []
        for n in (201, 401):
            g = Grid1D(-2.0, 2.0, n)
            op = build_bs_hamiltonian(self.P, g)
            vals = sample_martingale_state(g).values
            maxes.append(np.abs(op.matrix @ vals)[op.interior_mask()].max())
        ratio = maxes[0] / maxes[1]
        assert 3.5 <= ratio <= 4.5, f"halving h scaled the residual by {ratio:.3f}"

    def test_square_exponential_eigenvalue(self):
        # the generator maps e^{2x} to -(sigma_sq + r) e^{2x}
        g = Grid1D(-2.0, 2.0, 401)
        op = build_bs_hamiltonian(self.P, g)
        vals = np.exp(2.0 * g.points)
        target = -(self.P.sigma_sq + self.P.r) * vals
        err = np.abs(op.matrix @ vals - target)[op.interior_mask()]
        assert err.max() <= annihilation_tolerance(g, vals)


class TestHermiticityDefect:
    @pytest.mark.parametrize("sigma_sq,r", [(0.04, 0.05), (0.09, 0.02), (0.2, 0.1 + 0.003)])
    def test_defect_formula(self, sigma_sq, r):
        g = Grid1D(-1.0, 1.0, 101)
        op = build_bs_hamiltonian(MarketParams(r=r, sigma_sq=sigma_sq), g)
        want = abs(sigma_sq / 2.0 - r) / (2.0 * g.h)
        assert hermiticity_defect(op) == pytest.approx(want, rel=1e-12)

    def test_defect_vanishes_iff_hermitian(self):
        g = Grid1D(-1.0, 1.0, 101)
        for sigma_sq in np.linspace(0.02, 0.2, 19):
            p = MarketParams(r=0.05, sigma_sq=float(sigma_sq))
            defect = hermiticity_defect(build_bs_hamiltonian(p, g))
            if p.hermitian():
                assert defect <= DEFECT_ZERO_TOL
            else:
                assert defect > DEFECT_ZERO_TOL

    def test_defect_doubles_when_h_halves(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        d1 = hermiticity_defect(build_bs_hamiltonian(p, Grid1D(-1.0, 1.0, 101)))
        d2 = hermiticity_defect(build_bs_hamiltonian(p, Grid1D(-1.0, 1.0, 201)))
        assert d2 / d1 == pytest.approx(2.0, rel=1e-10)


    def test_no_interior_row_is_zero(self):
        # three nodes: both edges excluded, the middle one pinned
        g = Grid1D(-1.0, 1.0, 3)
        op = OperatorMatrix(sparse.csr_matrix(np.triu(np.ones((3, 3)))), g,
                            np.array([False, True, False]))
        assert hermiticity_defect(op) == 0.0


class TestOperatorMatrix:
    G = Grid1D(-1.0, 1.0, 3)

    @pytest.mark.parametrize(
        "matrix,mask,message",
        [
            (np.ones((3, 2)), None, "operator matrix must be square, got \\(3, 2\\)"),
            (np.eye(4), None, "operator of size 4 does not match grid size 3"),
            (np.diag([1.0, np.nan, 1.0]), None, "operator matrix has non-finite entries"),
            (np.eye(3), [True, False], "dirichlet mask length does not match operator size"),
        ],
        ids=["non_square", "mismatched", "non_finite", "bad_mask"],
    )
    def test_bad_operator_rejected(self, matrix, mask, message):
        with pytest.raises(ValueError, match=message):
            OperatorMatrix(sparse.csr_matrix(matrix), self.G, mask)


class TestBarriers:
    P = MarketParams(r=0.05, sigma_sq=0.04)

    def test_down_and_out_mask(self):
        g = Grid1D(0.0, 1.0, 11)
        op = build_effective_bs(self.P, Potential.down_and_out(0.3), g)
        m = op.matrix.toarray()
        knocked = g.points <= 0.3 + 1e-12
        assert np.array_equal(op.dirichlet_mask, knocked)
        for i in np.where(knocked)[0]:
            assert not m[i].any(), f"knocked row {i} not emptied"

    def test_barrier_below_domain_is_vacuous(self):
        g = Grid1D(0.0, 1.0, 11)
        op = build_effective_bs(self.P, Potential.down_and_out(-2.0), g)
        vanilla = build_bs_hamiltonian(self.P, g)
        assert not op.dirichlet_mask.any()
        assert (op.matrix != vanilla.matrix).nnz == 0

    def test_double_knockout_mask(self):
        g = Grid1D(0.0, 1.0, 11)
        op = build_double_knockout(self.P, Potential.double_knockout(0.25, 0.75), g)
        expect = (g.points <= 0.25 + 1e-12) | (g.points >= 0.75 - 1e-12)
        assert np.array_equal(op.dirichlet_mask, expect)

    def test_double_knockout_needs_ordered_bounds(self):
        with pytest.raises(ValueError):
            Potential.double_knockout(0.8, 0.2)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Potential.constant(np.nan),
            lambda: Potential.down_and_out(np.nan),
            lambda: Potential.double_knockout(np.nan, 0.75),
            lambda: Potential.double_knockout(0.25, np.nan),
            lambda: Potential.down_and_out(np.inf),
            lambda: Potential.down_and_out(-np.inf),
            lambda: Potential.double_knockout(-np.inf, 0.75),
            lambda: Potential.double_knockout(0.25, np.inf),
        ],
        ids=["constant", "down_and_out", "double_knockout_lo", "double_knockout_hi",
             "down_and_out_inf", "down_and_out_minus_inf", "double_knockout_minus_inf_lo",
             "double_knockout_inf_hi"],
    )
    def test_nan_rejected(self, make):
        with pytest.raises(ValueError, match="NaN"):
            make()

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kind="nope"), "unknown potential kind 'nope'"),
            (dict(kind="constant", value=np.nan), "constant potential value must be finite"),
            (dict(kind="down-and-out", level=True), "level must be a real number"),
            (dict(kind="double-knockout", lo=0.8, hi=0.2), "needs lo < hi"),
            (dict(kind="double-knockout", lo=0.2), "hi must be a real number, got None"),
            (dict(kind="tabulated", table=[[1.0]]), "tabulated potential must be a 1-D table"),
        ],
    )
    def test_direct_construction_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Potential(**kwargs)

    def test_direct_construction_equals_classmethod(self):
        direct = Potential(kind="double-knockout", lo=np.int64(0), hi=1)
        assert direct == Potential.double_knockout(0.0, 1.0) and type(direct.lo) is float

    def test_double_knockout_wrong_kind_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            build_double_knockout(self.P, Potential.down_and_out(0.3), g)

    def test_tabulated_potential_on_diagonal(self):
        g = Grid1D(0.0, 1.0, 11)
        table = 0.05 + 0.001 * np.sin(g.points)
        op = build_effective_bs(self.P, Potential.tabulated(table), g)
        diag = op.matrix.diagonal()
        want = self.P.sigma_sq / g.h**2 + table
        inner = slice(1, -1)
        assert np.allclose(diag[inner], want[inner], rtol=1e-13)

    def test_tabulated_length_mismatch(self):
        g = Grid1D(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            Potential.tabulated(np.ones(7)).values_on(g, 0.0)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=6))
def test_constructors_refuse_non_finite_and_non_1d_tables(values):
    # a constant or a table is accepted exactly when finite, and a table only as 1-D
    for v in values:
        if np.isfinite(v):
            assert Potential.constant(v).value == v
        else:
            with pytest.raises(ValueError):
                Potential.constant(v)
    table = np.array(values)
    for make in (Potential.tabulated, Payoff.tabulated):
        if np.all(np.isfinite(table)):
            assert np.array_equal(make(values).table, table)
        else:
            with pytest.raises(ValueError):
                make(values)
        for bad_shape in (table[:1].reshape(()), table.reshape(1, -1)):
            with pytest.raises(ValueError):
                make(bad_shape)


class TestStencilBuilder:
    H = 0.5  # a power of two keeps every weight exact

    @pytest.mark.parametrize("n,order,want", [
        (3, 1, [[-3, 4, -1], [-1, 0, 1], [1, -4, 3]]),
        (3, 2, [[1, -2, 1], [1, -2, 1], [1, -2, 1]]),
        (4, 1, [[-3, 4, -1, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 1, -4, 3]]),
        (4, 2, [[2, -5, 4, -1], [1, -2, 1, 0], [0, 1, -2, 1], [-1, 4, -5, 2]]),
    ])
    def test_rows_against_hand_written(self, n, order, want):
        scale = 1.0 / (2.0 * self.H) if order == 1 else 1.0 / self.H**2
        want = np.array(want, dtype=float) * scale
        one_sided = _stencil(n, self.H, order)
        assert np.array_equal(one_sided.toarray(), want)
        assert one_sided.nnz == np.count_nonzero(want), "stored zeros"


def _rows(m):
    return [
        (m.indices[m.indptr[i]:m.indptr[i + 1]], m.data[m.indptr[i]:m.indptr[i + 1]])
        for i in range(m.shape[0])
    ]


def _potentials(g):
    """Smooth potentials and barriers of every kind on the grid."""
    lo, hi = g.x_min, g.x_max
    smooth = [Potential.constant(0.03), Potential.tabulated(0.05 + 0.01 * np.sin(g.points))]
    barriers = [
        Potential.down_and_out(lo + 0.3 * (hi - lo)),
        Potential.double_knockout(lo + 0.2 * (hi - lo), lo + 0.7 * (hi - lo)),
        Potential.double_knockout(lo, hi - 0.2 * (hi - lo)),
    ]
    return smooth, barriers


def _pinned_builds(n):
    """(operator, its unpinned reference or None) for every builder."""
    p = MarketParams(r=0.05, sigma_sq=0.04)
    g = Grid1D(np.log(50.0), np.log(200.0), n)
    smooth, barriers = _potentials(g)
    vanilla = build_bs_hamiltonian(p, g)
    out = [(vanilla, None), (build_bs_hamiltonian(p, g, BOUNDARY_DIRICHLET), vanilla)]
    for v in smooth:
        ref = build_effective_bs(p, v, g)
        out += [(ref, None), (build_effective_bs(p, v, g, BOUNDARY_DIRICHLET), ref)]
    for v in barriers:
        out += [(build_effective_bs(p, v, g, b), vanilla) for b in (BOUNDARY_ONE_SIDED, BOUNDARY_DIRICHLET)]
    out.append((build_double_knockout(p, barriers[1], g), vanilla))
    out.append((similarity_transform(p, smooth[0], g)[1], None))
    g2 = Grid2D(g, Grid1D(-3.6, -3.2, n + 1))
    out.append((build_mg_hamiltonian(TestMGOperator.P, g2), None))
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 21])
def test_builders_sorted_and_pinned(n):
    for op, ref in _pinned_builds(n):
        rows = _rows(op.matrix)
        for i, (cols, _) in enumerate(rows):
            assert np.all(np.diff(cols) > 0), f"row {i} indices not sorted"
            if op.dirichlet_mask[i]:
                assert cols.size == 0, f"pinned row {i} not empty"
        if ref is None:
            continue
        for i in np.where(~op.dirichlet_mask)[0]:
            (cols, vals), (ref_cols, ref_vals) = rows[i], _rows(ref.matrix)[i]
            assert np.array_equal(cols, ref_cols) and np.array_equal(vals, ref_vals), f"row {i}"


@pytest.mark.parametrize("sigma_sq", [0.04, 0.0])
@pytest.mark.parametrize("n", [3, 4, 5, 21, 801])
def test_effective_bs_matches_sparse_expression(n, sigma_sq):
    # the CSR arrays are the bytes of the sparse-algebra form of the generator
    p = MarketParams(r=0.05, sigma_sq=sigma_sq)
    g = Grid1D(np.log(50.0), np.log(200.0), n)
    smooth, barriers = _potentials(g)
    # a zero drift, and at sigma_sq = 0 a zero potential too, leaves entries that must drop
    for v in [*smooth, Potential.constant(0.5 * sigma_sq), *barriers]:
        for boundary in (BOUNDARY_ONE_SIDED, BOUNDARY_DIRICHLET):
            op = build_effective_bs(p, v, g, boundary)
            vals = v.values_on(g, inside_value=p.r)
            ref = sparse.diags((~op.dirichlet_mask).astype(float)) @ (
                (-0.5 * sigma_sq) * _stencil(n, g.h, 2)
                + sparse.diags(0.5 * sigma_sq - vals) @ _stencil(n, g.h, 1)
                + sparse.diags(vals)
            )
            ref.sort_indices()
            for name in ("indptr", "indices", "data"):
                got, want = getattr(op.matrix, name), getattr(ref, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (
                    f"{v.kind} {boundary}: {name} differs"
                )


class TestSimilarityTransform:
    def test_gauge_constants(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        g = Grid1D(-2.0, 2.0, 201)
        tr, _ = similarity_transform(p, Potential.constant(p.r), g)
        assert tr.gamma == pytest.approx((p.r + p.sigma_sq / 2) ** 2 / (2 * p.sigma_sq), rel=1e-14)
        assert tr.alpha_coef == pytest.approx((p.sigma_sq / 2 - p.r) / p.sigma_sq, rel=1e-14)

    def test_gauge_exponent_linear_for_constant_potential(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        g = Grid1D(-2.0, 2.0, 201)
        tr, _ = similarity_transform(p, Potential.constant(p.r), g)
        x = g.points
        want = 0.5 * x - p.r * (x - g.x_min) / p.sigma_sq
        # the trapezoid accumulation is exact for a constant integrand,
        # up to the anchor at the left edge
        shift = tr.s_values.values[0] - want[0]
        assert np.max(np.abs(tr.s_values.values - want - shift)) < 1e-12

    @pytest.mark.parametrize("sigma_sq,r", [(0.04, 0.05), (0.1, 0.05), (0.09, 0.01)])
    def test_interior_spectra_agree(self, sigma_sq, r):
        p = MarketParams(r=r, sigma_sq=sigma_sq)
        g = Grid1D(-2.0, 2.0, 151)
        _, herm = similarity_transform(p, Potential.constant(p.r), g)
        full = build_bs_hamiltonian(p, g).matrix.toarray()
        sym = herm.matrix.toarray()
        ev_full = np.sort(eig(full[1:-1, 1:-1])[0].real)
        ev_sym = np.sort(eigh(sym[1:-1, 1:-1])[0])
        assert np.max(np.abs(ev_full - ev_sym)) < SPECTRUM_TOL

    def test_hermitian_matrix_is_symmetric(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        g = Grid1D(-2.0, 2.0, 151)
        _, herm = similarity_transform(p, Potential.constant(p.r), g)
        m = herm.matrix.toarray()
        assert np.max(np.abs(m - m.T)) == 0.0

    def test_conjugation_consistency_second_order(self):
        # e^{-s} H e^{s} applied to edge-vanishing vectors matches the
        # symmetric operator at second order in h
        p = MarketParams(r=0.05, sigma_sq=0.04)
        errs = []
        for n in (101, 201):
            g = Grid1D(-2.0, 2.0, n)
            tr, herm = similarity_transform(p, Potential.constant(p.r), g)
            full = build_bs_hamiltonian(p, g).matrix
            x = g.points
            phi = np.sin(np.pi * (x - g.x_min) / (g.x_max - g.x_min))
            s = tr.s_values.values
            lhs = np.exp(-s) * (full @ (np.exp(s) * phi))
            rhs = herm.matrix @ phi
            errs.append(np.abs(lhs - rhs)[2:-2].max())
        ratio = errs[0] / errs[1]
        assert 3.0 <= ratio <= 5.0, f"conjugation error fell by {ratio:.2f}, want ~4"

    def test_zero_volatility_rejected(self):
        g = Grid1D(-1.0, 1.0, 51)
        p = MarketParams(r=0.05, sigma_sq=0.0)
        build_bs_hamiltonian(p, g)  # building is allowed
        with pytest.raises(ValueError):
            similarity_transform(p, Potential.constant(p.r), g)

    def test_barrier_potential_rejected(self):
        g = Grid1D(0.0, 1.0, 51)
        p = MarketParams(r=0.05, sigma_sq=0.04)
        with pytest.raises(ValueError):
            similarity_transform(p, Potential.down_and_out(0.3), g)

    def test_grid_peclet_guard(self):
        g = Grid1D(-1.0, 1.0, 51)
        p = MarketParams(r=0.5, sigma_sq=0.01)
        with pytest.raises(ValueError, match="Peclet"):
            similarity_transform(p, Potential.constant(p.r), g)


class TestMomentum:
    def test_quadratic_is_exact(self):
        g = Grid1D(-1.0, 1.0, 41)
        sv = StateVector(g.points**2, g)
        out = apply_momentum(sv, g).values
        assert np.max(np.abs(out - 2.0 * g.points)) < 1e-12

    def test_state_of_another_size_rejected(self):
        g = Grid1D(-1.0, 1.0, 41)
        with pytest.raises(ValueError, match="state and grid sizes differ"):
            apply_momentum(sample_martingale_state(Grid1D(-1.0, 1.0, 21)), g)

    @given(freq=st.floats(0.5, 3.0))
    @settings(max_examples=20, deadline=None)
    def test_sine_derivative_second_order(self, freq):
        g = Grid1D(-1.0, 1.0, 201)
        sv = StateVector(np.sin(freq * g.points), g)
        out = apply_momentum(sv, g).values
        err = np.max(np.abs(out - freq * np.cos(freq * g.points)))
        assert err < 5.0 * freq**3 * g.h**2


class TestMGOperator:
    P = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)

    def test_every_term_wired(self):
        # the generator maps e^{2x + y} to a closed-form multiple per y node
        gx = Grid1D(-0.5, 0.5, 81)
        gy = Grid1D(-3.6, -3.2, 61)
        g2 = Grid2D(gx, gy)
        op = build_mg_hamiltonian(self.P, g2)
        x = np.repeat(gx.points, gy.n_points)
        y = np.tile(gy.points, gx.n_points)
        vals = np.exp(2.0 * x + y)
        p = self.P
        ey = np.exp(y)
        c_y = p.lam * np.exp(-y) + p.mu - 0.5 * p.zeta**2 * np.exp(2 * y * (p.alpha - 1))
        coef = (
            -0.5 * ey * 4.0
            - (p.r - 0.5 * ey) * 2.0
            - c_y
            - p.rho * p.zeta * np.exp(y * (p.alpha - 0.5)) * 2.0
            - p.zeta**2 * np.exp(2 * y * (p.alpha - 1))
            + p.r
        )
        target = coef * vals
        keep = op.interior_mask()
        err = np.abs(op.matrix @ vals - target)[keep]
        h = max(gx.h, gy.h)
        tol = 10.0 * h**2 * np.max(np.abs(vals))
        assert err.max() <= tol, f"residual {err.max():.3e} above {tol:.3e}"

    @pytest.mark.parametrize("nx,ny", [(3, 3), (4, 5), (21, 11)])
    @pytest.mark.parametrize(
        "p", [P, MGParams(r=0.03, lam=0.2, mu=0.1, zeta=0.4, alpha=1.5, rho=0.7)]
    )
    def test_matches_five_kron_form(self, nx, ny, p):
        # the sum of the five tiled-diagonal products, grouped differently:
        # the pattern matches and the entries agree to roundoff
        g2 = Grid2D(Grid1D(-0.5, 0.5, nx), Grid1D(-3.6, -3.2, ny))
        y = g2.y_axis.points
        dx1, dx2 = (_stencil(nx, g2.x_axis.h, k) for k in (1, 2))
        dy1, dy2 = (_stencil(ny, g2.y_axis.h, k) for k in (1, 2))
        ix, iy = sparse.identity(nx), sparse.identity(ny)

        def ydiag(vec_y):
            return sparse.diags(np.tile(vec_y, nx))

        ey = np.exp(y)
        c_y = p.lam * np.exp(-y) + p.mu - 0.5 * p.zeta**2 * np.exp(2 * y * (p.alpha - 1))
        ref = (
            -ydiag(0.5 * ey) @ sparse.kron(dx2, iy)
            - ydiag(p.r - 0.5 * ey) @ sparse.kron(dx1, iy)
            - ydiag(c_y) @ sparse.kron(ix, dy1)
            - ydiag(p.rho * p.zeta * np.exp(y * (p.alpha - 0.5))) @ sparse.kron(dx1, dy1)
            - ydiag(p.zeta**2 * np.exp(2 * y * (p.alpha - 1))) @ sparse.kron(ix, dy2)
            + p.r * sparse.identity(nx * ny)
        ).tocsr()
        ref.sort_indices()
        got = build_mg_hamiltonian(p, g2).matrix
        assert np.array_equal(got.indptr, ref.indptr) and np.array_equal(got.indices, ref.indices)
        row_max = np.maximum.reduceat(np.abs(ref.data), ref.indptr[:-1])
        err = np.abs(got.data - ref.data) / np.repeat(row_max, np.diff(ref.indptr))
        assert err.max() <= 1e-13, f"entries moved by {err.max():.2e} of their row's largest"

    @pytest.mark.parametrize("nx,ny", [(3, 3), (3, 7), (7, 3), (4, 5), (21, 11), (201, 81)])
    @pytest.mark.parametrize("case", ["P", "alpha_1.5", "rho_0", "zeta_0_dx_coef_0_at_node"])
    def test_matches_three_kron_form_exactly(self, nx, ny, case):
        # the three Kronecker products, one per x factor, summed as sparse
        # matrices: every index and every bit of every entry matches
        g2 = Grid2D(Grid1D(-0.5, 0.5, nx), Grid1D(-3.6, -3.2, ny))
        y = g2.y_axis.points
        ey = np.exp(y)
        p = {
            "P": self.P,
            "alpha_1.5": MGParams(r=0.03, lam=0.2, mu=0.1, zeta=0.4, alpha=1.5, rho=0.7),
            # the cross term vanishes and its entries are dropped
            "rho_0": MGParams(r=0.03, lam=0.2, mu=0.1, zeta=0.4, alpha=1.5, rho=0.0),
            # the dx coefficient -(r - e^y/2) is an exact zero at one y node
            "zeta_0_dx_coef_0_at_node": MGParams(
                r=0.5 * float(ey[ny // 2]), lam=0.2, mu=0.1, zeta=0.0, alpha=1.0, rho=0.3
            ),
        }[case]
        dx1, dx2 = (_stencil(nx, g2.x_axis.h, k) for k in (1, 2))
        dy1, dy2 = (_stencil(ny, g2.y_axis.h, k) for k in (1, 2))
        diag = sparse.diags
        y_of_dx2 = diag(-0.5 * ey)
        y_of_dx1 = diag(-(p.r - 0.5 * ey)) - diag(mg_cross_coef(p, y)) @ dy1
        y_of_ix = (
            -diag(mg_y_drift(p, y)) @ dy1 - diag(mg_yy_coef(p, y)) @ dy2 + p.r * sparse.identity(ny)
        )
        ref = (
            sparse.kron(dx2, y_of_dx2, format="csr")
            + sparse.kron(dx1, y_of_dx1, format="csr")
            + sparse.kron(sparse.identity(nx), y_of_ix, format="csr")
        )
        got = build_mg_hamiltonian(p, g2).matrix
        assert got.has_canonical_format
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data.view(np.uint64), ref.data.view(np.uint64))

    def test_annihilation_decays_at_second_order_in_x(self):
        # the y and cross stencils are exact on a state constant in y, so
        # what is left of H e^x is the x stencils' error
        p = MGParams(r=0.05, lam=0.05, mu=-1.0, zeta=0.2, alpha=0.8, rho=-0.5)
        gy = Grid1D(-3.6, -3.2, 21)
        maxes = []
        for nx in (51, 101, 201, 401):
            g2 = Grid2D(Grid1D(-0.5, 0.5, nx), gy)
            op = build_mg_hamiltonian(p, g2)
            vals = np.repeat(np.exp(g2.x_axis.points), gy.n_points)
            maxes.append(np.abs(op.matrix @ vals)[op.interior_mask()].max())
        ratios = [a / b for a, b in zip(maxes, maxes[1:])]
        assert all(3.5 <= q <= 4.5 for q in ratios), f"halving hx scaled it by {ratios}"

    def test_interior_mask_excludes_both_edges(self):
        g2 = Grid2D(Grid1D(0.0, 1.0, 5), Grid1D(0.0, 1.0, 4))
        op = build_mg_hamiltonian(self.P, g2)
        keep = op.interior_mask().reshape(5, 4)
        assert not keep[0].any() and not keep[-1].any()
        assert not keep[:, 0].any() and not keep[:, -1].any()
        assert keep[1:-1, 1:-1].all()


class TestKineticAsPotential:
    """A tabulated V enters the drift and the potential together: near the
    vacuum e^x the kinetic term acts as a potential term."""

    P = MarketParams(r=0.05, sigma_sq=0.04)
    SIZES = (201, 401, 801, 1601)

    @staticmethod
    def potential(x):
        return 0.05 + 0.01 * np.sin(2.0 * x)

    def test_exponential_annihilated_at_second_order(self):
        maxes = []
        for n in self.SIZES:
            g = Grid1D(-1.0, 1.0, n)
            op = build_effective_bs(self.P, Potential.tabulated(self.potential(g.points)), g)
            maxes.append(np.abs(op.matrix @ np.exp(g.points))[op.interior_mask()].max())
        ratios = np.array(maxes[:-1]) / maxes[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), f"halving h scaled H e^x by {ratios}"

    def test_hermitian_potential_at_second_order(self):
        # M 1 is the potential of the balanced operator, since D2 1 = 0:
        # V'/2 + (V + sigma_sq/2)^2 / (2 sigma_sq)
        s2 = self.P.sigma_sq
        errs = []
        for n in self.SIZES:
            g = Grid1D(-1.0, 1.0, n)
            v = self.potential(g.points)
            _, herm = similarity_transform(self.P, Potential.tabulated(v), g)
            want = 0.01 * np.cos(2.0 * g.points) + (v + 0.5 * s2) ** 2 / (2.0 * s2)
            errs.append(np.abs(herm.matrix @ np.ones(n) - want)[2:-2].max())
        ratios = np.array(errs[:-1]) / errs[1:]
        assert np.all((3.5 <= ratios) & (ratios <= 4.5)), f"halving h scaled the error by {ratios}"
