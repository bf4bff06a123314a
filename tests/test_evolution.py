"""Crank-Nicolson evolution, pricing curves, and the numeric kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import qflab.evolution
from qflab.evolution import (
    EvolutionConfig,
    Payoff,
    SingularSolveError,
    evolve,
    kernel_row,
    price_barrier,
    price_option,
)
from qflab.model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    StateVector,
    sample_martingale_state,
)
from qflab.operators import (
    BOUNDARY_DIRICHLET,
    OperatorMatrix,
    Potential,
    build_bs_hamiltonian,
    build_effective_bs,
    build_mg_hamiltonian,
)
import scipy.sparse.linalg
from scipy import sparse
from scipy.sparse.linalg import splu

STEP_REL_TOL = 1e-12
PRICE_REL_TOL = 1e-3
PARITY_REL_TOL = 2e-3
KERNEL_REL_TOL = 5e-3
NORM_CONSERVED_TOL = 1e-10
NORM_LEAK_FLOOR = 1e-6

P = MarketParams(r=0.05, sigma_sq=0.04)


def closed_form_call(s, k, r, sigma, t):
    d1 = (np.log(s / k) + (r + sigma**2 / 2) * t) / (sigma * np.sqrt(t))
    d2 = d1 - sigma * np.sqrt(t)
    return s * norm.cdf(d1) - k * np.exp(-r * t) * norm.cdf(d2)


def closed_form_put(s, k, r, sigma, t):
    d1 = (np.log(s / k) + (r + sigma**2 / 2) * t) / (sigma * np.sqrt(t))
    d2 = d1 - sigma * np.sqrt(t)
    return k * np.exp(-r * t) * norm.cdf(-d2) - s * norm.cdf(-d1)


class TestConfig:
    @pytest.mark.parametrize(
        "dt,n_steps,mode",
        [
            (0.0, 10, "euclidean"),
            (0.01, 0, "euclidean"),
            (0.01, 10, "sideways"),
            (float("nan"), 10, "euclidean"),
            (float("inf"), 10, "euclidean"),
            (0.01, 2.5, "euclidean"),
            (0.01, True, "euclidean"),
        ],
    )
    def test_invalid_config(self, dt, n_steps, mode):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=dt, n_steps=n_steps, mode=mode)


class TestPayoffs:
    G = Grid1D(np.log(50.0), np.log(200.0), 31)

    def test_call_values(self):
        vals = Payoff.call(100.0).values_on(self.G)
        assert np.allclose(vals, np.maximum(np.exp(self.G.points) - 100.0, 0.0))

    def test_put_values(self):
        vals = Payoff.put(100.0).values_on(self.G)
        assert np.allclose(vals, np.maximum(100.0 - np.exp(self.G.points), 0.0))

    def test_bond_is_ones(self):
        assert np.array_equal(Payoff.bond().values_on(self.G), np.ones(31))

    def test_asset_is_exponential(self):
        assert np.allclose(Payoff.martingale_asset().values_on(self.G), np.exp(self.G.points))

    def test_negative_strike_rejected(self):
        with pytest.raises(ValueError):
            Payoff.call(-1.0)

    @pytest.mark.parametrize("make", [Payoff.call, Payoff.put])
    @pytest.mark.parametrize("strike", [float("nan"), float("inf")])
    def test_non_finite_strike_rejected(self, make, strike):
        with pytest.raises(ValueError):
            make(strike)

    def test_tabulated_wrong_length(self):
        with pytest.raises(ValueError):
            Payoff.tabulated(np.ones(7)).values_on(self.G)


class TestEvolve:
    def test_bond_state_decays_exactly(self):
        g = Grid1D(-4.0, 4.0, 401)
        op = build_bs_hamiltonian(P, g)
        cfg = EvolutionConfig(dt=0.01, n_steps=100)
        out, flow = evolve(op, StateVector(np.ones(401), g), cfg)
        # the constant vector is an exact discrete eigenvector with value r
        assert np.max(np.abs(out.values.real - np.exp(-0.05))) < 1e-8
        assert flow.mass_series.size == 101

    def test_martingale_state_is_stationary(self):
        g = Grid1D(-4.0, 4.0, 401)
        op = build_bs_hamiltonian(P, g)
        cfg = EvolutionConfig(dt=0.01, n_steps=100)
        state = sample_martingale_state(g)
        out, _ = evolve(op, state, cfg)
        inner = slice(10, -10)
        rel = np.abs(out.values.real - state.values)[inner] / state.values[inner]
        assert rel.max() < 1e-4

    def test_flow_csv_shape(self, tmp_path):
        g = Grid1D(-1.0, 1.0, 51)
        op = build_bs_hamiltonian(P, g)
        _, flow = evolve(op, sample_martingale_state(g), EvolutionConfig(dt=0.01, n_steps=7))
        flow.to_csv(tmp_path / "flow.csv")
        lines = (tmp_path / "flow.csv").read_text().strip().split("\n")
        assert lines[0] == "t,mass,norm"
        assert len(lines) == 9

    def test_flow_csv_blocks_join_seamlessly(self, tmp_path, monkeypatch):
        # blocks of 3 rows over 8 rows: every row is written once, with its own time
        monkeypatch.setattr(qflab.evolution, "_CSV_BLOCK", 3)
        g = Grid1D(-1.0, 1.0, 51)
        op = build_bs_hamiltonian(P, g)
        _, flow = evolve(op, sample_martingale_state(g), EvolutionConfig(dt=0.01, n_steps=7))
        flow.to_csv(tmp_path / "flow.csv")
        rows = enumerate(zip(flow.mass_series.tolist(), flow.norm_series.tolist()))
        want = "t,mass,norm\n" + "".join(f"{k * 0.01!r},{m!r},{n!r}\n" for k, (m, n) in rows)
        assert (tmp_path / "flow.csv").read_text() == want

    def test_flow_csv_is_streamed(self, tmp_path):
        # formatting all rows at once peaks near 240 bytes per row, about 12 MB here
        n_rows = 50_001
        flow = qflab.evolution.FlowReport(
            mass_series=np.linspace(1.0, 2.0, n_rows), norm_series=np.linspace(3.0, 4.0, n_rows),
            mass_drift=0.0, norm_drift=0.0, dt=0.01, mode="euclidean",
        )
        tracemalloc.start()
        try:
            flow.to_csv(tmp_path / "flow.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, f"to_csv peaked at {peak / 1e6:.1f} MB"

    def test_flow_series_holds_two_floats_per_step(self):
        # one-sided edges pin nothing: no step times, and the series as arrays
        g = Grid1D(-1.0, 1.0, 21)
        op = build_bs_hamiltonian(P, g)
        n_steps = 5000
        tracemalloc.start()
        try:
            evolve(op, sample_martingale_state(g), EvolutionConfig(dt=0.01, n_steps=n_steps))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * n_steps, f"evolve peaked at {peak / n_steps:.0f} bytes per step"

    def test_injected_boundary_value_held(self):
        g = Grid1D(-1.0, 1.0, 51)
        op = build_bs_hamiltonian(P, g)
        cfg = EvolutionConfig(dt=0.01, n_steps=20)
        out, _ = evolve(
            op,
            StateVector(np.zeros(51), g),
            cfg,
            boundary_values={0: lambda tau: 2.0 * tau, 50: 1.5},
        )
        assert out.values[0].real == pytest.approx(2.0 * 0.2, rel=1e-12)
        assert out.values[50].real == pytest.approx(1.5, rel=1e-12)

    def test_complex_state_rejected_in_euclidean_mode(self):
        g = Grid1D(-1.0, 1.0, 51)
        op = build_bs_hamiltonian(P, g)
        psi = StateVector(np.exp(1j * g.points), g)
        with pytest.raises(ValueError):
            evolve(op, psi, EvolutionConfig(dt=0.01, n_steps=5))

    def test_grid_mismatch_rejected(self):
        op = build_bs_hamiltonian(P, Grid1D(-1.0, 1.0, 51))
        state = sample_martingale_state(Grid1D(-1.0, 1.0, 41))
        with pytest.raises(ValueError):
            evolve(op, state, EvolutionConfig(dt=0.01, n_steps=5))

    def test_singular_solve_raises(self):
        g = Grid1D(-1.0, 1.0, 5)
        dt = 0.1
        # eigenvalue -2/dt makes (I + dt/2 H) exactly singular
        m = sparse.csr_matrix(-2.0 / dt * np.eye(5))
        op = OperatorMatrix(matrix=m, grid=g, dirichlet_mask=np.zeros(5, dtype=bool))
        with pytest.raises(SingularSolveError):
            evolve(op, StateVector(np.ones(5), g), EvolutionConfig(dt=dt, n_steps=2))


def dense_cn(matrix, psi, dt, z, pinned, pin_rows):
    """Reference Crank-Nicolson steps from dense solves: pinned rows of
    I + z dt/2 H become identity rows, and their right-hand side the
    step's pinned values."""
    eye = np.eye(psi.size)
    step = (z * dt / 2.0) * matrix.toarray()
    left = eye + step
    left[pinned] = eye[pinned]
    for values in pin_rows:
        rhs = (eye - step) @ psi
        rhs[pinned] = values
        psi = np.linalg.solve(left, rhs)
    return psi


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the sparse LU factorizations the stepper makes."""
    calls = []

    def counting_splu(a):
        calls.append(a.shape)
        return splu(a)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


class TestStepper:
    """One stepper, two factorizations: a tridiagonal stepping matrix is
    solved by LAPACK, any wider band by a sparse LU. Both must give the
    Crank-Nicolson step."""

    G = Grid1D(-1.0, 1.0, 41)
    DT = 0.01
    STEPS = 3

    def assert_close(self, got, want):
        err = np.max(np.abs(got - want))
        assert err <= STEP_REL_TOL * np.max(np.abs(want)), f"relative error {err:.2e}"

    def test_pricing_pins_tridiagonal(self, splu_calls):
        g, k = self.G, 1.0
        cfg = EvolutionConfig(dt=self.DT, n_steps=1)
        got = price_option(P, Payoff.call(k), self.STEPS * self.DT, g, cfg).values
        pinned = np.zeros(g.n_points, dtype=bool)
        pinned[[0, -1]] = True
        taus = self.DT * np.arange(1, self.STEPS + 1)
        pins = [(0.0, np.exp(g.x_max) - k * np.exp(-P.r * tau)) for tau in taus]
        op = build_bs_hamiltonian(P, g)
        want = dense_cn(op.matrix, Payoff.call(k).values_on(g), self.DT, 1.0, pinned, pins)
        self.assert_close(got, want)
        assert splu_calls == []

    def test_knocked_pins_tridiagonal(self, splu_calls):
        g = self.G
        barrier = Potential.down_and_out(-0.5)
        cfg = EvolutionConfig(dt=self.DT, n_steps=1)
        got = price_barrier(P, Payoff.bond(), barrier, self.STEPS * self.DT, g, cfg).values
        op = build_effective_bs(P, barrier, g)
        pinned = op.dirichlet_mask.copy()
        pinned[-1] = True
        taus = self.DT * np.arange(1, self.STEPS + 1)
        # knocked nodes hold zero, the free top edge the discounted bond
        pins = [np.append(np.zeros(pinned.sum() - 1), np.exp(-P.r * tau)) for tau in taus]
        psi0 = np.where(op.dirichlet_mask, 0.0, 1.0)
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, pinned, pins)
        self.assert_close(got, want)
        assert splu_calls == []

    def test_dirichlet_unitary_tridiagonal(self, splu_calls):
        g = self.G
        op = build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET)
        psi0 = np.exp(-g.points**2 / 0.08)
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS, mode="unitary")
        got, _ = evolve(op, StateVector(psi0, g), cfg)
        pins = [np.zeros(2)] * self.STEPS
        want = dense_cn(op.matrix, psi0.astype(complex), self.DT, 1j, op.dirichlet_mask, pins)
        self.assert_close(got.values, want)
        assert splu_calls == []

    def test_one_sided_with_both_edges_given_tridiagonal(self, splu_calls):
        g = self.G
        op = build_bs_hamiltonian(P, g)
        psi0 = np.exp(g.points)
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS)
        got, _ = evolve(op, StateVector(psi0, g), cfg,
                        boundary_values={0: lambda tau: 0.5 + tau, g.n_points - 1: 3.0})
        pinned = np.zeros(g.n_points, dtype=bool)
        pinned[[0, -1]] = True
        pins = [(0.5 + self.DT * s, 3.0) for s in range(1, self.STEPS + 1)]
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, pinned, pins)
        self.assert_close(got.values, want)
        assert splu_calls == []

    @pytest.mark.parametrize("mode,z", [("euclidean", 1.0), ("unitary", 1j)])
    def test_unpinned_one_sided_sparse_lu(self, splu_calls, mode, z):
        g = self.G
        op = build_bs_hamiltonian(P, g)
        psi0 = np.exp(g.points)
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS, mode=mode)
        got, _ = evolve(op, StateVector(psi0, g), cfg)
        no_pins = np.zeros(g.n_points, dtype=bool)
        want = dense_cn(op.matrix, psi0.astype(type(z)), self.DT, z, no_pins,
                        [np.zeros(0)] * self.STEPS)
        self.assert_close(got.values, want)
        assert splu_calls == [(g.n_points, g.n_points)]

    def test_one_sided_with_low_edge_given_sparse_lu(self, splu_calls):
        # the free high edge row is 4 wide, so the pinned low edge does not make a band
        g = self.G
        op = build_bs_hamiltonian(P, g)
        psi0 = np.exp(g.points)
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS)
        got, _ = evolve(op, StateVector(psi0, g), cfg, boundary_values={0: 0.25})
        pinned = np.zeros(g.n_points, dtype=bool)
        pinned[0] = True
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, pinned, [(0.25,)] * self.STEPS)
        self.assert_close(got.values, want)
        assert splu_calls == [(g.n_points, g.n_points)]

    def test_cancelled_diagonal_tridiagonal(self, splu_calls):
        # V_i = -sigma_sq/h^2 cancels the D2 diagonal exactly: H stores no entry at (i, i)
        g, i = self.G, 20
        v = np.full(g.n_points, P.r)
        v[i] = -((-0.5 * P.sigma_sq) * (-2.0 * (1.0 / g.h**2)))
        op = build_effective_bs(P, Potential.tabulated(v), g, BOUNDARY_DIRICHLET)
        row = op.matrix.indices[op.matrix.indptr[i]:op.matrix.indptr[i + 1]]
        assert i not in row
        psi0 = np.exp(-g.points**2 / 0.08)
        got, _ = evolve(op, StateVector(psi0, g), EvolutionConfig(dt=self.DT, n_steps=self.STEPS))
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, op.dirichlet_mask,
                        [np.zeros(2)] * self.STEPS)
        self.assert_close(got.values, want)
        assert splu_calls == []

    def test_stored_zero_outside_band_tridiagonal(self, splu_calls):
        g = self.G
        op = build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET)
        coo = op.matrix.tocoo()
        # an explicit zero at (5, 9) of an unpinned row
        m = sparse.csr_matrix(
            (np.append(coo.data, 0.0), (np.append(coo.row, 5), np.append(coo.col, 9))),
            shape=coo.shape,
        )
        op0 = OperatorMatrix(matrix=m, grid=g, dirichlet_mask=op.dirichlet_mask)
        assert op0.matrix.nnz == op.matrix.nnz + 1
        psi0 = np.exp(-g.points**2 / 0.08)
        got, _ = evolve(op0, StateVector(psi0, g), EvolutionConfig(dt=self.DT, n_steps=self.STEPS))
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, op.dirichlet_mask,
                        [np.zeros(2)] * self.STEPS)
        self.assert_close(got.values, want)
        assert splu_calls == []

    def test_two_factor_sparse_lu(self, splu_calls):
        p = MGParams(r=0.05, lam=0.02, mu=-0.5, zeta=0.3, alpha=1.0, rho=-0.4)
        g2 = Grid2D(Grid1D(-1.0, 1.0, 9), Grid1D(-4.0, -2.0, 7))
        op = build_mg_hamiltonian(p, g2)
        psi0 = np.exp(np.repeat(g2.x_axis.points, 7))
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS)
        got, _ = evolve(op, StateVector(psi0, g2), cfg)
        no_pins = np.zeros(g2.size, dtype=bool)
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, no_pins, [np.zeros(0)] * self.STEPS)
        self.assert_close(got.values, want)
        assert splu_calls == [(g2.size, g2.size)]

    def test_singular_wide_band_raises(self, splu_calls):
        g = Grid1D(-1.0, 1.0, 7)
        dt = 0.1
        # I + dt/2 H keeps only the second superdiagonal: its first column is zero
        m = sparse.csr_matrix(-2.0 / dt * np.eye(7) + np.eye(7, k=2))
        op = OperatorMatrix(matrix=m, grid=g, dirichlet_mask=np.zeros(7, dtype=bool))
        with pytest.raises(SingularSolveError):
            evolve(op, StateVector(np.ones(7), g), EvolutionConfig(dt=dt, n_steps=2))
        assert splu_calls == [(7, 7)]

    def test_singular_tridiagonal_raises(self, splu_calls):
        g = Grid1D(-1.0, 1.0, 7)
        dt = 0.1
        # a zero pivot in the middle row of a tridiagonal I + dt/2 H
        h = np.diag(np.full(6, 1.0), 1) + np.diag(np.full(6, 1.0), -1)
        h[3, 3] = -2.0 / dt
        h[3, 2] = h[3, 4] = 0.0
        op = OperatorMatrix(
            matrix=sparse.csr_matrix(h), grid=g, dirichlet_mask=np.zeros(7, dtype=bool)
        )
        with pytest.raises(SingularSolveError):
            evolve(op, StateVector(np.ones(7), g), EvolutionConfig(dt=dt, n_steps=2))
        assert splu_calls == []


class TestUnitaryMode:
    def test_hermitian_generator_conserves_norm(self):
        ph = MarketParams(r=0.05, sigma_sq=0.1)
        g = Grid1D(-2.0, 2.0, 201)
        op = build_bs_hamiltonian(ph, g, boundary=BOUNDARY_DIRICHLET)
        psi = StateVector(np.exp(-g.points**2 / 0.08), g)
        cfg = EvolutionConfig(dt=0.002, n_steps=300, mode="unitary")
        _, flow = evolve(op, psi, cfg)
        assert flow.norm_drift < NORM_CONSERVED_TOL, f"norm drifted by {flow.norm_drift:.2e}"

    def test_non_hermitian_generator_leaks_norm(self):
        g = Grid1D(-2.0, 2.0, 201)
        op = build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET)
        psi = StateVector(np.exp(-g.points**2 / 0.08), g)
        cfg = EvolutionConfig(dt=0.002, n_steps=300, mode="unitary")
        _, flow = evolve(op, psi, cfg)
        assert flow.norm_drift > NORM_LEAK_FLOOR, f"drift {flow.norm_drift:.2e} suspiciously small"


class TestPricing:
    K = 100.0
    T = 1.0
    G = Grid1D(np.log(100.0) - 4.0, np.log(100.0) + 4.0, 601)
    CFG = EvolutionConfig(dt=1.0 / 300, n_steps=300)

    def spot_index(self, g):
        return int(np.argmin(np.abs(g.points - np.log(100.0))))

    def test_call_against_closed_form(self):
        curve = price_option(P, Payoff.call(self.K), self.T, self.G, self.CFG)
        got = curve.values[self.spot_index(self.G)].real
        want = closed_form_call(100.0, self.K, 0.05, 0.2, self.T)
        assert abs(got / want - 1.0) < PRICE_REL_TOL, f"{got:.6f} vs {want:.6f}"

    def test_bond_curve_is_discount_factor(self):
        curve = price_option(P, Payoff.bond(), self.T, self.G, self.CFG)
        assert np.max(np.abs(curve.values.real - np.exp(-0.05))) < 1e-6

    def test_put_call_parity(self):
        i = self.spot_index(self.G)
        call = price_option(P, Payoff.call(self.K), self.T, self.G, self.CFG).values[i].real
        put = price_option(P, Payoff.put(self.K), self.T, self.G, self.CFG).values[i].real
        lhs = call - put
        rhs = 100.0 - self.K * np.exp(-0.05)
        assert abs(lhs - rhs) / self.K < PARITY_REL_TOL, f"parity gap {lhs - rhs:.5f}"

    def test_maturity_must_be_positive(self):
        with pytest.raises(ValueError):
            price_option(P, Payoff.call(self.K), 0.0, self.G, self.CFG)

    @pytest.mark.parametrize("T", [float("nan"), float("inf")])
    def test_non_finite_maturity_named(self, T):
        with pytest.raises(ValueError, match="maturity must be finite"):
            price_option(P, Payoff.bond(), T, self.G, self.CFG)
        with pytest.raises(ValueError, match="maturity must be finite"):
            price_barrier(P, Payoff.bond(), Potential.down_and_out(4.0), T, self.G, self.CFG)

    @pytest.mark.parametrize(
        "payoff", [Payoff.call(K), Payoff.put(K), Payoff.bond(), Payoff.martingale_asset(),
                   Payoff.tabulated(np.linspace(1.0, 3.0, 601))],
        ids=lambda pf: pf.kind,
    )
    def test_edges_hold_far_field(self, payoff):
        # 300 steps of T/300 land exactly on T, so the last pins use e^{-rT}
        curve = price_option(P, payoff, self.T, self.G, self.CFG).values
        lo, hi = np.exp(self.G.x_min), np.exp(self.G.x_max)
        d = np.exp(-0.05 * self.T)
        want = {
            "call": (0.0, hi - self.K * d),
            "put": (self.K * d - lo, 0.0),
            "bond": (d, d),
            "martingale-asset": (lo, hi),
            "tabulated": (1.0 * d, 3.0 * d),
        }[payoff.kind]
        assert (curve[0], curve[-1]) == want

    def test_spatial_convergence_is_second_order(self):
        # dt = 1/2000 keeps the time error well below the spatial one
        # down to 1601 nodes, so each halving of h should cut the error ~4x
        def cdf(z):
            return 0.5 * math.erfc(-z / math.sqrt(2.0))

        vol_t = math.sqrt(0.04 * self.T)
        d1 = (0.05 + 0.04 / 2) * self.T / vol_t  # at the money: ln(S0 / K) = 0
        want = 100.0 * cdf(d1) - self.K * math.exp(-0.05 * self.T) * cdf(d1 - vol_t)
        cfg = EvolutionConfig(dt=1.0 / 2000, n_steps=1)
        errors = []
        for n in (101, 201, 401, 801, 1601):
            g = Grid1D(np.log(100.0) - 4.0, np.log(100.0) + 4.0, n)
            curve = price_option(P, Payoff.call(self.K), self.T, g, cfg)
            errors.append(abs(curve.values[n // 2] - want))
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(3.5 <= q <= 4.5 for q in ratios), ratios


class TestBarrierPricing:
    T = 1.0
    B = 80.0

    def make_grid(self):
        # barrier node-exact so the knocked region ends on a grid point
        b = np.log(self.B)
        h = 0.01
        return Grid1D(b - 40 * h, b + 240 * h, 281)

    def test_down_and_out_zero_below_barrier(self):
        g = self.make_grid()
        cfg = EvolutionConfig(dt=1.0 / 200, n_steps=200)
        curve = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, cfg)
        below = g.points <= np.log(self.B) + 1e-12
        assert np.max(np.abs(curve.values[below])) == 0.0
        assert curve.values[~below].real.max() > 0.0

    def test_knocked_low_edge_and_far_field_top(self):
        g = self.make_grid()
        cfg = EvolutionConfig(dt=1.0 / 200, n_steps=200)
        curve = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, cfg)
        assert curve.values[0] == 0.0
        assert curve.values[-1] == np.exp(g.x_max) - 100.0 * np.exp(-0.05 * self.T)

    def test_knocked_price_below_vanilla(self):
        g = self.make_grid()
        cfg = EvolutionConfig(dt=1.0 / 200, n_steps=200)
        barrier = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, cfg)
        vanilla = price_option(P, Payoff.call(100.0), self.T, g, cfg)
        i = int(np.argmin(np.abs(g.points - np.log(100.0))))
        assert barrier.values[i].real < vanilla.values[i].real

    def test_vacuous_barrier_matches_vanilla(self):
        g = Grid1D(np.log(90.0), np.log(120.0), 201)
        cfg = EvolutionConfig(dt=1.0 / 100, n_steps=100)
        with_barrier = price_barrier(
            P, Payoff.call(100.0), Potential.down_and_out(np.log(10.0)), self.T, g, cfg
        )
        vanilla = price_option(P, Payoff.call(100.0), self.T, g, cfg)
        assert np.allclose(with_barrier.values, vanilla.values, rtol=0, atol=1e-12)

    def test_double_knockout_zero_outside_corridor(self):
        g = Grid1D(np.log(60.0), np.log(160.0), 301)
        cfg = EvolutionConfig(dt=1.0 / 100, n_steps=100)
        lo, hi = np.log(80.0), np.log(130.0)
        curve = price_barrier(P, Payoff.call(100.0), Potential.double_knockout(lo, hi), self.T, g, cfg)
        outside = (g.points <= lo + 1e-12) | (g.points >= hi - 1e-12)
        assert np.max(np.abs(curve.values[outside])) == 0.0

    def test_empty_corridor_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        cfg = EvolutionConfig(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            price_barrier(P, Payoff.call(1.0), Potential.double_knockout(-5.0, 5.0), self.T, g, cfg)

    @pytest.mark.parametrize(
        "barrier,message",
        [
            # the level sits on the top node, so every node lies at or below it
            (Potential.down_and_out(1.0), "down-and-out level 1.0 knocks out every node"),
            # inside the grid, but between the nodes 0.4 and 0.5
            (Potential.double_knockout(0.41, 0.49), "corridor is empty"),
        ],
        ids=["down_and_out", "double_knockout"],
    )
    def test_barrier_knocking_every_node_is_named(self, barrier, message):
        g = Grid1D(0.0, 1.0, 11)
        cfg = EvolutionConfig(dt=0.01, n_steps=10)
        with pytest.raises(ValueError, match=message):
            price_barrier(P, Payoff.bond(), barrier, self.T, g, cfg)

    def test_vanilla_potential_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        cfg = EvolutionConfig(dt=0.01, n_steps=10)
        with pytest.raises(ValueError):
            price_barrier(P, Payoff.call(1.0), Potential.constant(0.05), self.T, g, cfg)


class TestKernel:
    def test_row_integrates_to_discount_factor(self):
        g = Grid1D(-1.0, 1.0, 201)
        row = kernel_row(P, 0.0, 0.5, g).values
        mass = row.sum() * g.h
        assert abs(mass / np.exp(-0.025) - 1.0) < KERNEL_REL_TOL

    def test_row_reproduces_martingale_state(self):
        g = Grid1D(-1.0, 1.0, 201)
        row = kernel_row(P, 0.0, 0.5, g).values
        mart = (row * np.exp(g.points)).sum() * g.h
        assert abs(mart - 1.0) < KERNEL_REL_TOL

    def test_row_is_nonnegative_to_solver_floor(self):
        g = Grid1D(-1.0, 1.0, 201)
        row = kernel_row(P, 0.0, 0.5, g).values
        assert row.min() > -1e-7, f"kernel dipped to {row.min():.2e}"

    @pytest.mark.parametrize("x", [5.0, -1.5, float("nan")])
    def test_source_outside_grid_rejected(self, x):
        with pytest.raises(ValueError):
            kernel_row(P, x, 0.5, Grid1D(-1.0, 1.0, 201))

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            kernel_row(P, 0.0, 0.0, Grid1D(-1.0, 1.0, 51))

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_non_finite_time_named(self, tau):
        with pytest.raises(ValueError, match="kernel time must be finite"):
            kernel_row(P, 0.0, tau, Grid1D(-1.0, 1.0, 51))

    def test_overflowing_step_count_refused(self):
        # 8 tau / h overflows to inf: refused, not an OverflowError from ceil
        with pytest.raises(ValueError, match="kernel time 1e\\+308 .* no finite step count"):
            kernel_row(P, 0.0, 1e308, Grid1D(-1.0, 1.0, 51))
