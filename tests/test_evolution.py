"""Crank-Nicolson evolution, pricing curves, and the numeric kernel."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

import qflab.evolution
import qflab.model
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
import scipy.linalg
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

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kind="nope"), "unknown payoff kind 'nope'"),
            (dict(kind="call", strike=-5.0), "strike must be finite and non-negative, got -5.0"),
            (dict(kind="put"), "strike must be a real number, got None"),
            (dict(kind="tabulated", table=[1.0, np.nan]), "tabulated payoff must be a 1-D table"),
        ],
    )
    def test_direct_construction_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Payoff(**kwargs)

    def test_direct_construction_equals_classmethod(self):
        assert Payoff(kind="call", strike=100) == Payoff.call(100.0)
        assert Payoff(kind="call", strike=np.float64(100.0)).strike.__class__ is float


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
        monkeypatch.setattr(qflab.model, "_CSV_BLOCK", 3)
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

    @pytest.mark.parametrize("node", [0.7, True, "3", 3.0], ids=repr)
    def test_boundary_node_must_be_an_integer(self, node):
        # int() used to read these as nodes 0, 1, 3 and 3
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="boundary node must be an integer"):
            evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                   EvolutionConfig(dt=0.01, n_steps=5), boundary_values={node: 1.0})

    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), lambda tau: 1.0 if tau < 0.03 else float("inf")],
        ids=["nan", "inf", "callable_inf"],
    )
    def test_non_finite_boundary_value_refused_before_stepping(self, stepper_runs, mode,
                                                               value):
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="boundary value at node 3 must be finite"):
            evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                   EvolutionConfig(dt=0.01, n_steps=5, mode=mode),
                   boundary_values={np.int64(3): value})
        assert stepper_runs == []

    @pytest.mark.parametrize("node", [21, -1, 10**30])
    def test_boundary_node_outside_grid_refused(self, node):
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match=f"boundary node {node} outside grid"):
            evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                   EvolutionConfig(dt=0.01, n_steps=5), boundary_values={node: 1.0})

    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    @pytest.mark.parametrize(
        "value", ["1.5", True, [1.0, 2.0], None, lambda tau: "1.5", lambda tau: True],
        ids=["string", "bool", "list", "none", "callable_string", "callable_bool"],
    )
    def test_boundary_value_must_be_a_number(self, stepper_runs, mode, value):
        # numpy's conversion used to pin "1.5" at 1.5 and True at 1.0
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="boundary value at node 3 must be a"):
            evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                   EvolutionConfig(dt=0.01, n_steps=5, mode=mode), boundary_values={3: value})
        assert stepper_runs == []

    @pytest.mark.parametrize("value", [1j, 0.5 + 0.25j, np.complex128(1.0)])
    def test_complex_boundary_value_refused_in_euclidean_mode(self, value):
        g = Grid1D(-1.0, 1.0, 21)
        with pytest.raises(ValueError, match="boundary value at node 3 must be a real number"):
            evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                   EvolutionConfig(dt=0.01, n_steps=5), boundary_values={3: value})

    def test_real_boundary_values_held_in_unitary_mode(self):
        g = Grid1D(-1.0, 1.0, 21)
        out, _ = evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                        EvolutionConfig(dt=0.01, n_steps=5, mode="unitary"),
                        boundary_values={3: 2, 4: np.float64(0.5), 5: lambda tau: tau})
        assert out.values[3:6].tolist() == [2 + 0j, 0.5 + 0j, 0.05 + 0j]

    def test_complex_boundary_value_held_in_unitary_mode(self):
        g = Grid1D(-1.0, 1.0, 21)
        out, _ = evolve(build_bs_hamiltonian(P, g), StateVector(np.ones(21), g),
                        EvolutionConfig(dt=0.01, n_steps=5, mode="unitary"),
                        boundary_values={3: 0.5 + 0.25j})
        assert out.values[3] == 0.5 + 0.25j

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


def dense_cn(matrix, psi, dt, z, pinned, pin_rows, startup=()):
    """Reference Crank-Nicolson steps from dense solves: pinned rows of
    I + z dt/2 H become identity rows, and their right-hand side the
    step's pinned values. Each (mid, end) pair of ``startup`` first makes
    one damped step of two implicit half-steps through the same matrix,
    pinned at ``mid`` and then at ``end``."""
    eye = np.eye(psi.size)
    step = (z * dt / 2.0) * matrix.toarray()
    left = eye + step
    left[pinned] = eye[pinned]
    for halves in startup:
        for values in halves:
            rhs = psi.copy()
            rhs[pinned] = values
            psi = np.linalg.solve(left, rhs)
    for values in pin_rows:
        rhs = (eye - step) @ psi
        rhs[pinned] = values
        psi = np.linalg.solve(left, rhs)
    return psi


def scheme_discounts(r, dt, n_steps, n_startup):
    """The pricers' edge discounts, the scheme's own decay of a constant,
    multiplied in one factor at a time: 1/(1 + a), a = r dt/2, per
    half-step of a damped start of ``n_startup`` steps, then
    (1 - a)/(1 + a) per Crank-Nicolson step. Returns the discounts
    after each first half-step of the start and after each step."""
    a = r * dt / 2.0
    d, halves, ends = 1.0, [], []
    for _ in range(n_startup):
        for _half in range(2):
            d *= 1.0 / (1.0 + a)
            halves.append(d)
        ends.append(d)
    for _ in range(n_steps - n_startup):
        d *= (1.0 - a) / (1.0 + a)
        ends.append(d)
    return halves[0::2], ends


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the sparse LU factorizations the stepper makes."""
    calls = []

    def counting_splu(a):
        calls.append(a.shape)
        return splu(a)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


@pytest.fixture
def lapack_factors(monkeypatch):
    """Records each tridiagonal factorization the stepper asks LAPACK for:
    ("pttrf", rows) for the Hermitian-gauge factor, ("gttrf", rows) for
    the general one."""
    calls = []
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def recording(names, arrays=(), *args, **kwargs):
        funcs = get_lapack_funcs(names, arrays, *args, **kwargs)

        def counted(name, func):
            def factor(*f_args, **f_kwargs):
                # gttrf(dl, d, du), pttrf(d, e): the diagonal gives the rows
                calls.append((name, f_args[1 if name == "gttrf" else 0].size))
                return func(*f_args, **f_kwargs)
            return factor

        return [counted(n, f) if n in ("gttrf", "pttrf") else f for n, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", recording)
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
        got = price_option(P, Payoff.call(k), self.STEPS * self.DT, g, self.DT).values
        pinned = np.zeros(g.n_points, dtype=bool)
        pinned[[0, -1]] = True
        # a call starts with two damped steps; its top edge is discounted
        # by the scheme's own factors
        mid, ends = scheme_discounts(P.r, self.DT, self.STEPS, 2)
        pins = [(0.0, np.exp(g.x_max) - k * d) for d in mid + ends]
        op = build_bs_hamiltonian(P, g)
        want = dense_cn(op.matrix, Payoff.call(k).values_on(g), self.DT, 1.0, pinned, pins[4:],
                        startup=[(pins[0], pins[2]), (pins[1], pins[3])])
        self.assert_close(got, want)
        assert splu_calls == []

    def test_knocked_pins_tridiagonal(self, splu_calls):
        g = self.G
        barrier = Potential.down_and_out(-0.5)
        got = price_barrier(P, Payoff.bond(), barrier, self.STEPS * self.DT, g, self.DT).values
        op = build_effective_bs(P, barrier, g)
        pinned = op.dirichlet_mask.copy()
        pinned[-1] = True
        # knocked nodes hold zero, the free top edge the bond discounted by
        # the scheme's own factors; a knock-out starts with two damped steps
        mid, ends = scheme_discounts(P.r, self.DT, self.STEPS, 2)
        pins = [np.append(np.zeros(pinned.sum() - 1), d) for d in mid + ends]
        psi0 = np.where(op.dirichlet_mask, 0.0, 1.0)
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, pinned, pins[4:],
                        startup=[(pins[0], pins[2]), (pins[1], pins[3])])
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

    @pytest.mark.parametrize("barrier,nodes,lu_calls", [
        (Potential.double_knockout(-0.3, 0.4), (3, 14), []),
        (Potential.down_and_out(-0.5), (3, 10), [(41, 41)]),
    ], ids=["corridor_tridiagonal", "down_and_out_sparse_lu"])
    def test_prescribed_masked_nodes(self, splu_calls, barrier, nodes, lu_calls):
        # a knocked node deep inside and one on the border that a free row
        # reads are prescribed; every other knocked node holds zero
        g = self.G
        op = build_effective_bs(P, barrier, g)
        deep, border = nodes
        psi0 = np.exp(-g.points**2 / 0.08)
        cfg = EvolutionConfig(dt=self.DT, n_steps=self.STEPS)
        got, _ = evolve(op, StateVector(psi0, g), cfg,
                        boundary_values={deep: lambda tau: 0.5 + tau, border: 0.25})
        knocked = np.flatnonzero(op.dirichlet_mask)
        pins = [np.select([knocked == deep, knocked == border], [0.5 + self.DT * s, 0.25])
                for s in range(1, self.STEPS + 1)]
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, op.dirichlet_mask, pins)
        self.assert_close(got.values, want)
        assert splu_calls == lu_calls

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

    # spans of 301 and more rows, past the crossover, solve in the Hermitian
    # gauge: 399 chain rows between the pinned edges, 299 under a knock-out
    WIDE = Grid1D(-2.0, 2.0, 401)

    def test_balanced_vanilla_price(self, splu_calls, lapack_factors):
        g, k = self.WIDE, 1.0
        got = price_option(P, Payoff.call(k), self.STEPS * self.DT, g, self.DT).values
        pinned = np.isin(np.arange(g.n_points), [0, g.n_points - 1])
        mid, ends = scheme_discounts(P.r, self.DT, self.STEPS, 2)
        pins = [(0.0, np.exp(g.x_max) - k * d) for d in mid + ends]
        op = build_bs_hamiltonian(P, g)
        want = dense_cn(op.matrix, Payoff.call(k).values_on(g), self.DT, 1.0, pinned, pins[4:],
                        startup=[(pins[0], pins[2]), (pins[1], pins[3])])
        self.assert_close(got, want)
        assert (splu_calls, lapack_factors) == ([], [("pttrf", 399)])

    @pytest.mark.parametrize("barrier,payoff,chain", [
        (Potential.down_and_out(-1.0), Payoff.bond(), 299),
        (Potential.double_knockout(-1.5, 1.5), Payoff.call(1.0), 299),
    ], ids=["down_and_out", "wide_corridor"])
    def test_balanced_knock_out_price(self, splu_calls, lapack_factors, barrier, payoff, chain):
        g = self.WIDE
        got = price_barrier(P, payoff, barrier, self.STEPS * self.DT, g, self.DT).values
        op = build_effective_bs(P, barrier, g)
        pinned = op.dirichlet_mask | np.isin(np.arange(g.n_points), [0, g.n_points - 1])
        # knocked nodes hold zero, a free top edge the far field discounted
        # by the scheme's own factors; a knock-out starts with two damped steps
        mid, ends = scheme_discounts(P.r, self.DT, self.STEPS, 2)
        top = {"bond": lambda d: d, "call": lambda d: np.exp(g.x_max) - d}[payoff.kind]
        free_top = not op.dirichlet_mask[-1]
        pins = [np.append(np.zeros(pinned.sum() - 1), top(d) if free_top else 0.0)
                for d in mid + ends]
        psi0 = np.where(op.dirichlet_mask, 0.0, payoff.values_on(g))
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, pinned, pins[4:],
                        startup=[(pins[0], pins[2]), (pins[1], pins[3])])
        self.assert_close(got, want)
        assert (splu_calls, lapack_factors) == ([], [("pttrf", chain)])

    def test_balanced_dirichlet_evolve(self, splu_calls, lapack_factors):
        g = self.WIDE
        op = build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET)
        psi0 = np.exp(-g.points**2 / 0.08)
        got, _ = evolve(op, StateVector(psi0, g), EvolutionConfig(dt=self.DT, n_steps=self.STEPS))
        want = dense_cn(op.matrix, psi0, self.DT, 1.0, op.dirichlet_mask,
                        [np.zeros(2)] * self.STEPS)
        self.assert_close(got.values, want)
        assert (splu_calls, lapack_factors) == ([], [("pttrf", 399)])

    @staticmethod
    def deep_well(g):
        """-(0.02/2) D2 plus a well V = -300 on |x| < 0.5, no drift term,
        edge rows zero: I + dt/2 H is symmetric, and not positive definite
        once dt/2 times the well outweighs the rest (dt = 0.1 does)."""
        c = 0.01 / g.h**2
        well = np.where(np.abs(g.points) < 0.5, -300.0, 0.0)
        h = sparse.diags([np.full(g.n_points - 1, -c), 2.0 * c + well,
                          np.full(g.n_points - 1, -c)], [-1, 0, 1]).tolil()
        h[[0, -1], :] = 0.0
        mask = np.isin(np.arange(g.n_points), [0, g.n_points - 1])
        return OperatorMatrix(matrix=sparse.csr_matrix(h), grid=g, dirichlet_mask=mask)

    # every way out of the Hermitian gauge takes ?gttrf, and still steps
    # by Crank-Nicolson: (operator, dt, mode, boundary values, factors)
    @pytest.mark.parametrize("case", [
        "unitary", "interior_pin", "sigma_sq_0", "peclet_1", "not_positive_definite",
        "gauge_past_bound", "narrow_span",
    ])
    def test_fallback_to_gttrf(self, splu_calls, lapack_factors, case):
        wide, dirichlet = self.WIDE, BOUNDARY_DIRICHLET
        h64 = Grid1D(0.0, 8.0, 513)  # h = 1/64: sigma_sq/h = 1 exactly
        op, dt, mode, values, factors = {
            "unitary": (build_bs_hamiltonian(P, wide, dirichlet), self.DT, "unitary", None,
                        [("gttrf", 401)]),
            "interior_pin": (build_bs_hamiltonian(P, wide, dirichlet), self.DT, "euclidean",
                             {200: 0.3}, [("gttrf", 401)]),
            "sigma_sq_0": (build_bs_hamiltonian(MarketParams(r=0.05, sigma_sq=0.0), wide,
                                                dirichlet), self.DT, "euclidean", None,
                           [("gttrf", 401)]),
            # |sigma_sq/2 - r| = sigma_sq/h: every subdiagonal entry is 0
            "peclet_1": (build_bs_hamiltonian(MarketParams(r=1.0078125, sigma_sq=0.015625), h64,
                                              dirichlet), self.DT, "euclidean", None,
                         [("gttrf", 513)]),
            "not_positive_definite": (self.deep_well(wide), 0.1, "euclidean", None,
                                      [("pttrf", 399), ("gttrf", 401)]),
            # a cell Peclet number of 0.5 over 400 cells: D spans about e^220
            "gauge_past_bound": (build_bs_hamiltonian(MarketParams(r=2.02, sigma_sq=0.04), wide,
                                                      dirichlet), self.DT, "euclidean", None,
                                 [("gttrf", 401)]),
            "narrow_span": (build_bs_hamiltonian(P, self.G, dirichlet), self.DT, "euclidean", None,
                            [("gttrf", 41)]),
        }[case]
        g = op.grid
        z = 1j if mode == "unitary" else 1.0
        psi0 = np.exp(-(g.points - g.points.mean()) ** 2 / 0.08).astype(type(z))
        got, _ = evolve(op, StateVector(psi0, g), EvolutionConfig(dt=dt, n_steps=self.STEPS,
                                                                  mode=mode), values)
        pinned = op.dirichlet_mask.copy()
        pinned[list(values or ())] = True
        pins = [np.where(np.flatnonzero(pinned) == 200, 0.3, 0.0)] * self.STEPS
        want = dense_cn(op.matrix, psi0, dt, z, pinned, pins)
        self.assert_close(got.values, want)
        assert (splu_calls, lapack_factors) == ([], factors)


def whole_grid_factor(h, scale, pinned):
    """LAPACK's tridiagonal factor of I + scale H over every row, pinned
    rows made identity rows: ``gttrs`` and the output of ``gttrf``."""
    from scipy.linalg import get_lapack_funcs

    d = 1 + scale * h.diagonal()
    dl, du = scale * h.diagonal(-1), scale * h.diagonal(1)
    d[pinned] = 1
    dl[pinned[1:]] = 0
    du[pinned[:-1]] = 0
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (d,))
    return gttrs, gttrf(dl, d, du)


def whole_grid_balanced(h, scale, pinned, b):
    """The Hermitian-gauge solve of I + scale H over every row, pinned
    rows made identity rows: the chain from the first to the last row that
    can change (unpinned, storing a nonzero) balanced by D with
    D_{i+1}/D_i = sqrt(l/u), min D = 1, its end rows' outside columns
    moved to the right-hand side, then 1/D, ?pttrs and D."""
    from scipy.linalg import get_lapack_funcs

    d = 1 + scale * h.diagonal()
    dl, du = scale * h.diagonal(-1), scale * h.diagonal(1)
    d[pinned] = 1
    dl[pinned[1:]] = 0
    du[pinned[:-1]] = 0
    changing = np.flatnonzero(~pinned & (np.diff(h.indptr) > 0))
    c0, c1 = changing[0], changing[-1] + 1
    l, u = dl[c0:c1 - 1], du[c0:c1 - 1]
    gauge = np.cumprod(np.concatenate(([1.0], np.sqrt(l / u))))
    gauge /= gauge.min()
    pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (d,))
    s_d, s_e, info = pttrf(d[c0:c1], np.copysign(np.sqrt(l * u), l))
    assert info == 0
    x = b.copy()
    y = x[c0:c1].copy()
    if c0:
        y[0] -= dl[c0 - 1] * b[c0 - 1]
    if c1 < b.size:
        y[-1] -= du[c1 - 1] * b[c1]
    x[c0:c1] = pttrs(s_d, s_e, y * (1.0 / gauge))[0] * gauge
    return x


def _one_free(n, i):
    pinned = np.ones(n, dtype=bool)
    pinned[i] = False
    return pinned


class TestSpanSolve:
    """The tridiagonal solve covers only the rows from one before the
    first unpinned row to one after the last, and is bit for bit the
    whole-grid solve there."""

    G = Grid1D(-1.0, 1.0, 41)
    ONE_SIDED = build_bs_hamiltonian(P, G).matrix
    DIRICHLET = build_bs_hamiltonian(P, G, boundary=BOUNDARY_DIRICHLET).matrix
    DOWN_AND_OUT = build_effective_bs(P, Potential.down_and_out(-0.5), G)
    CORRIDOR = build_effective_bs(P, Potential.double_knockout(-0.3, 0.4), G)
    EDGES = np.isin(np.arange(41), [0, 40])

    # H stores nothing in a knocked row, so pinning only the knocked
    # nodes next to a free one gives the span that pinning all gives
    @pytest.mark.parametrize("h,pinned,scale,span", [
        (ONE_SIDED, EDGES, 0.005, (0, 41)),
        (DOWN_AND_OUT.matrix, DOWN_AND_OUT.dirichlet_mask | EDGES, 0.005, (10, 41)),
        (DOWN_AND_OUT.matrix, np.isin(np.arange(41), [10, 40]), 0.005, (10, 41)),
        (CORRIDOR.matrix, CORRIDOR.dirichlet_mask, 0.005, (14, 29)),
        (CORRIDOR.matrix, np.isin(np.arange(41), [14, 28]), 0.005, (14, 29)),
        (DIRICHLET, EDGES | np.isin(np.arange(41), [20]), 0.005, (0, 41)),
        (DIRICHLET, _one_free(41, 17), 0.005, (16, 19)),
        (DIRICHLET, np.ones(41, dtype=bool), 0.005, (0, 0)),
        (DIRICHLET, EDGES, 0.005j, (0, 41)),
        (CORRIDOR.matrix, CORRIDOR.dirichlet_mask, 0.005j, (14, 29)),
    ], ids=["vanilla", "down_and_out", "down_and_out_border_pinned", "corridor",
            "corridor_borders_pinned", "interior_pin", "one_free_node", "every_node_pinned",
            "complex_scale", "complex_corridor"])
    def test_span_solve_is_whole_grid_solve(self, h, pinned, scale, span):
        b = np.cos(np.arange(41.0)) * (1.0 + 0.5j if isinstance(scale, complex) else 1.0)
        got_span, solve = qflab.evolution._factor(h, scale, pinned)
        assert (got_span.start, got_span.stop) == span
        got = b.copy()
        got[got_span] = solve(b[got_span].copy())
        gttrs, lu = whole_grid_factor(h, scale, pinned)
        want = gttrs(*lu[:5], b)[0]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    # past the crossover a real span solves in the Hermitian gauge, bit for
    # bit the whole-grid balanced solve; a complex scale or an interior pin
    # keeps ?gttrs, bit for bit the whole-grid ?gttrs solve
    N = 401
    WIDE = Grid1D(-2.0, 2.0, N)
    WIDE_ONE_SIDED = build_bs_hamiltonian(P, WIDE).matrix
    WIDE_DIRICHLET = build_bs_hamiltonian(P, WIDE, boundary=BOUNDARY_DIRICHLET).matrix
    WIDE_DOWN_AND_OUT = build_effective_bs(P, Potential.down_and_out(-1.0), WIDE)
    WIDE_CORRIDOR = build_effective_bs(P, Potential.double_knockout(-1.5, 1.5), WIDE)
    WIDE_EDGES = np.isin(np.arange(N), [0, N - 1])

    @pytest.mark.parametrize("h,pinned,scale,span,route", [
        (WIDE_ONE_SIDED, WIDE_EDGES, 0.005, (0, 401), "pttrf"),
        (WIDE_DOWN_AND_OUT.matrix, WIDE_DOWN_AND_OUT.dirichlet_mask | WIDE_EDGES, 0.005,
         (100, 401), "pttrf"),
        (WIDE_DOWN_AND_OUT.matrix, np.isin(np.arange(N), [100, 400]), 0.005, (100, 401), "pttrf"),
        (WIDE_CORRIDOR.matrix, WIDE_CORRIDOR.dirichlet_mask, 0.005, (50, 351), "pttrf"),
        (WIDE_CORRIDOR.matrix, np.isin(np.arange(N), [50, 350]), 0.005, (50, 351), "pttrf"),
        (WIDE_DIRICHLET, WIDE_EDGES, 0.005, (0, 401), "pttrf"),
        (WIDE_DIRICHLET, WIDE_EDGES | np.isin(np.arange(N), [200]), 0.005, (0, 401), "gttrf"),
        (WIDE_DIRICHLET, WIDE_EDGES, 0.005j, (0, 401), "gttrf"),
        (WIDE_CORRIDOR.matrix, WIDE_CORRIDOR.dirichlet_mask, 0.005j, (50, 351), "gttrf"),
    ], ids=["vanilla", "down_and_out", "down_and_out_border_pinned", "corridor",
            "corridor_borders_pinned", "dirichlet", "interior_pin", "complex_scale",
            "complex_corridor"])
    def test_wide_span_solve_is_whole_grid_solve(self, lapack_factors, h, pinned, scale, span,
                                                 route):
        b = np.cos(np.arange(float(self.N))) * (1.0 + 0.5j if isinstance(scale, complex) else 1.0)
        got_span, solve = qflab.evolution._factor(h, scale, pinned)
        assert (got_span.start, got_span.stop) == span
        assert [name for name, _ in lapack_factors] == [route]
        got = b.copy()
        got[got_span] = solve(b[got_span].copy())
        if route == "pttrf":
            want = whole_grid_balanced(h, scale, pinned, b)
        else:
            gttrs, lu = whole_grid_factor(h, scale, pinned)
            want = gttrs(*lu[:5], b)[0]
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_zero_pivot_row_counts_from_the_grid(self):
        # rows 0-2 pinned, so the span starts at row 2; row 4 is singular
        h = np.diag(np.full(6, 1.0), 1) + np.diag(np.full(6, 1.0), -1)
        h[4, 4] = -2.0 / 0.1
        h[4, 3] = h[4, 5] = 0.0
        h = sparse.csr_matrix(h)
        pinned = np.isin(np.arange(7), [0, 1, 2])
        info = whole_grid_factor(h, 0.05, pinned)[1][-1]
        assert info > 0
        with pytest.raises(SingularSolveError, match=f"zero pivot at row {info}$"):
            qflab.evolution._factor(h, 0.05, pinned)


@pytest.fixture
def stepper_runs(monkeypatch):
    """Records each stepper run: the initial state it was passed, a copy
    of that state, every array it yields, and a copy of each as it was
    yielded."""
    runs = []
    cn_run = qflab.evolution._cn_run

    def recording(matrix, psi0, *args, **kwargs):
        run = {"psi0": psi0, "before": psi0.copy(), "yielded": [], "states": []}
        runs.append(run)
        for psi in cn_run(matrix, psi0, *args, **kwargs):
            run["yielded"].append(psi)
            run["states"].append(psi.copy())
            yield psi

    monkeypatch.setattr(qflab.evolution, "_cn_run", recording)
    return runs


class TestStepBuffers:
    """The stepper forms each step in place in one copy of the initial
    state; no caller's array is written, and evolve's flow series is
    reduced a block of states at a time."""

    G = Grid1D(-2.0, 2.0, 201)

    def assert_untouched(self, runs):
        assert len(runs) == 1
        assert runs[0]["psi0"].tobytes() == runs[0]["before"].tobytes()

    def test_kernel_delta_untouched(self, stepper_runs):
        kernel_row(P, 0.3, 0.05, self.G)
        self.assert_untouched(stepper_runs)
        assert np.count_nonzero(stepper_runs[0]["psi0"]) == 1

    @pytest.mark.parametrize("barrier", [None, Potential.double_knockout(-0.5, 0.5)])
    def test_payoff_table_untouched(self, stepper_runs, barrier):
        if barrier is None:
            price_option(P, Payoff.call(1.0), 0.5, self.G, 0.01)
        else:
            price_barrier(P, Payoff.call(1.0), barrier, 0.5, self.G, 0.01)
        self.assert_untouched(stepper_runs)

    @pytest.mark.parametrize("dt", [0.01, 0.25])
    def test_knocked_nodes_zero_after_every_step(self, stepper_runs, dt):
        # at dt = 0.25 the pivoting solve moves a border row, and only the
        # write-back of its zero target clears it
        corridor = Potential.double_knockout(-0.5, 0.5)
        price_barrier(P, Payoff.call(1.0), corridor, 0.5, self.G, dt)
        knocked = build_effective_bs(P, corridor, self.G).dirichlet_mask
        states = stepper_runs[0]["states"]
        assert len(states) == round(0.5 / dt)
        for psi in states:
            assert np.all(psi[knocked] == 0.0)

    @pytest.mark.parametrize("barrier", [Potential.down_and_out(4.382),
                                         Potential.double_knockout(4.0, 5.2)],
                             ids=["down_and_out", "corridor"])
    def test_knock_out_holds_no_table_per_knocked_node(self, barrier):
        # a pin table of one column per knocked node would hold 400 x 3,000
        # or more values here, against the vanilla run's two columns
        g = Grid1D(0.605, 8.605, 6401)
        peaks = []
        for price in (lambda: price_option(P, Payoff.call(100.0), 1.0, g, 1.0 / 400),
                      lambda: price_barrier(P, Payoff.call(100.0), barrier, 1.0, g, 1.0 / 400)):
            tracemalloc.start()
            try:
                price()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        vanilla, knock_out = peaks
        assert knock_out <= 1.5 * vanilla, f"{knock_out / 1e6:.2f} MB against {vanilla / 1e6:.2f} MB"

    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    @pytest.mark.parametrize("barrier", [Potential.down_and_out(4.382),
                                         Potential.double_knockout(4.0, 5.2)],
                             ids=["down_and_out", "corridor"])
    def test_evolve_holds_no_table_per_masked_node(self, barrier, mode):
        # a table of one column per masked node would hold 400 x 3,000 or
        # more values here, against the Dirichlet vanilla run's two columns
        g = Grid1D(0.605, 8.605, 6401)
        state = StateVector(np.exp(-(g.points - 4.6) ** 2), g)
        cfg = EvolutionConfig(dt=1.0 / 400, n_steps=400, mode=mode)
        peaks = []
        for op in (build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET),
                   build_effective_bs(P, barrier, g)):
            tracemalloc.start()
            try:
                evolve(op, state, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        vanilla, knock_out = peaks
        assert knock_out <= 1.5 * vanilla, f"{knock_out / 1e6:.2f} MB against {vanilla / 1e6:.2f} MB"

    @pytest.mark.parametrize("dt", [0.01, 0.25])
    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    def test_unprescribed_masked_nodes_zero_after_every_step(self, stepper_runs, mode, dt):
        # the state is nonzero on the knocked region; a deep and a border
        # node are prescribed, and every other knocked node reads zero
        op = build_effective_bs(P, Potential.double_knockout(-0.5, 0.5), self.G)
        knocked = op.dirichlet_mask.copy()
        deep, border = 10, np.flatnonzero(knocked[:100])[-1]
        knocked[[deep, border]] = False
        evolve(op, StateVector(np.cos(self.G.points) + 2.0, self.G),
               EvolutionConfig(dt=dt, n_steps=8, mode=mode),
               boundary_values={deep: 0.5, border: lambda tau: tau})
        states = stepper_runs[0]["states"]
        assert len(states) == 8
        for k, psi in enumerate(states, 1):
            assert np.all(psi[knocked] == 0.0)
            assert psi[deep] == 0.5 and psi[border] == k * dt

    @pytest.mark.parametrize("dt, n_yields", [(0.01, 50), (0.25, 2), (0.5, 1)])
    @pytest.mark.parametrize("kind", ["call", "corridor", "bond"])
    def test_one_state_per_step_damped_or_not(self, stepper_runs, kind, dt, n_yields):
        # the call and the corridor start with damped steps, two solves
        # each; the bond has none
        if kind == "corridor":
            price_barrier(P, Payoff.call(1.0), Potential.double_knockout(-0.5, 0.5), 0.5,
                          self.G, dt)
        else:
            price_option(P, Payoff.call(1.0) if kind == "call" else Payoff.bond(), 0.5,
                         self.G, dt)
        assert len(stepper_runs[0]["yielded"]) == n_yields

    def test_kernel_yields_one_state_per_step(self, stepper_runs):
        kernel_row(P, 0.3, 0.05, self.G)
        assert len(stepper_runs[0]["yielded"]) == 50

    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    def test_evolve_state_untouched_and_not_aliased(self, stepper_runs, mode):
        op = build_bs_hamiltonian(P, self.G, boundary=BOUNDARY_DIRICHLET)
        values = np.exp(-self.G.points**2 / 0.08)
        if mode == "unitary":
            values = values.astype(complex)
        before = values.copy()
        state = StateVector(values, self.G)
        out, _ = evolve(op, state, EvolutionConfig(dt=0.01, n_steps=5, mode=mode),
                        boundary_values={100: 0.5})
        assert state.values.tobytes() == before.tobytes()
        self.assert_untouched(stepper_runs)
        yielded = stepper_runs[0]["yielded"]
        assert len(yielded) == 5
        # one reused buffer, which the returned state does not share
        assert all(psi is yielded[0] for psi in yielded)
        assert not np.shares_memory(out.values, yielded[0])

    @pytest.mark.parametrize("n_steps", [1, 15, 16, 17, 400])
    @pytest.mark.parametrize("mode", ["euclidean", "unitary"])
    def test_block_flow_is_per_step_sums(self, mode, n_steps):
        g = self.G
        op = build_bs_hamiltonian(P, g, boundary=BOUNDARY_DIRICHLET)
        state = StateVector(np.exp(-(g.points - 0.2) ** 2 / 0.08), g)
        cfg = EvolutionConfig(dt=0.002, n_steps=n_steps, mode=mode)
        _, flow = evolve(op, state, cfg)
        unitary = mode == "unitary"
        psi0 = state.values.astype(complex if unitary else float)
        targets = np.zeros((n_steps, 0), dtype=psi0.dtype)
        steps = qflab.evolution._cn_run(op.matrix, psi0, cfg.dt, unitary, op.dirichlet_mask,
                                        np.zeros(0, dtype=int), targets)
        states = [psi0, *(psi.copy() for psi in steps)]
        mass = np.array([np.real(psi.sum()) * g.cell for psi in states])
        norm = np.array([np.sqrt(np.sum(np.abs(psi) ** 2) * g.cell) for psi in states])
        assert flow.mass_series.tobytes() == mass.tobytes()
        assert flow.norm_series.tobytes() == norm.tobytes()


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
    DT = 1.0 / 300

    def spot_index(self, g):
        return int(np.argmin(np.abs(g.points - np.log(100.0))))

    def test_call_against_closed_form(self):
        curve = price_option(P, Payoff.call(self.K), self.T, self.G, self.DT)
        got = curve.values[self.spot_index(self.G)].real
        want = closed_form_call(100.0, self.K, 0.05, 0.2, self.T)
        assert abs(got / want - 1.0) < PRICE_REL_TOL, f"{got:.6f} vs {want:.6f}"

    def test_bond_curve_is_discount_factor(self):
        curve = price_option(P, Payoff.bond(), self.T, self.G, self.DT)
        assert np.max(np.abs(curve.values.real - np.exp(-0.05))) < 1e-6

    def test_put_call_parity(self):
        i = self.spot_index(self.G)
        call = price_option(P, Payoff.call(self.K), self.T, self.G, self.DT).values[i].real
        put = price_option(P, Payoff.put(self.K), self.T, self.G, self.DT).values[i].real
        lhs = call - put
        rhs = 100.0 - self.K * np.exp(-0.05)
        assert abs(lhs - rhs) / self.K < PARITY_REL_TOL, f"parity gap {lhs - rhs:.5f}"

    def test_maturity_must_be_positive(self):
        with pytest.raises(ValueError):
            price_option(P, Payoff.call(self.K), 0.0, self.G, self.DT)

    @pytest.mark.parametrize("T", [float("nan"), float("inf")])
    def test_non_finite_maturity_named(self, T):
        with pytest.raises(ValueError, match="maturity must be finite"):
            price_option(P, Payoff.bond(), T, self.G, self.DT)
        with pytest.raises(ValueError, match="maturity must be finite"):
            price_barrier(P, Payoff.bond(), Potential.down_and_out(4.0), T, self.G, self.DT)

    # the target step is a plain float; a config, a bool or a string is refused
    @pytest.mark.parametrize(
        "dt,message",
        [
            (EvolutionConfig(0.01, 1), r"dt must be a real number, got EvolutionConfig\("),
            (True, "dt must be a real number, got True"),
            ("0.01", "dt must be a real number, got '0.01'"),
            (0, "dt must be positive, got 0"),
            (float("nan"), "dt must be finite, not NaN or infinite, got nan"),
        ],
        ids=["config", "bool", "string", "zero", "nan"],
    )
    def test_bad_step_named(self, dt, message):
        with pytest.raises(ValueError, match=message):
            price_option(P, Payoff.bond(), self.T, self.G, dt)
        with pytest.raises(ValueError, match=message):
            price_barrier(P, Payoff.bond(), Potential.down_and_out(4.0), self.T, self.G, dt)

    @pytest.mark.parametrize(
        "payoff", [Payoff.call(K), Payoff.put(K), Payoff.bond(), Payoff.martingale_asset(),
                   Payoff.tabulated(np.linspace(1.0, 3.0, 601))],
        ids=lambda pf: pf.kind,
    )
    def test_edges_hold_far_field(self, payoff):
        # 300 steps of T/300 land exactly on T; the last pins use the
        # scheme's discount over them, with a damped start for kinked data
        curve = price_option(P, payoff, self.T, self.G, self.DT).values
        lo, hi = np.exp(self.G.x_min), np.exp(self.G.x_max)
        n_startup = 0 if payoff.kind in ("bond", "martingale-asset") else 2
        d = scheme_discounts(0.05, self.T / 300, 300, n_startup)[1][-1]
        want = {
            "call": (0.0, hi - self.K * d),
            "put": (self.K * d - lo, 0.0),
            "bond": (d, d),
            "martingale-asset": (lo, hi),
            "tabulated": (1.0 * d, 3.0 * d),
        }[payoff.kind]
        assert (curve[0], curve[-1]) == want

    # a down-and-out level below the grid knocks no node
    @pytest.mark.parametrize("barrier", [None, Potential.down_and_out(705.0)])
    def test_overflowing_far_field_refused_before_stepping(self, stepper_runs, barrier):
        # a put pays 0 on [710, 720], but its low-edge far field -e^710 + K d is not finite
        g = Grid1D(710.0, 720.0, 51)
        with pytest.raises(ValueError, match="far-field price at the grid edge x = 710.0"):
            if barrier is None:
                price_option(P, Payoff.put(self.K), self.T, g, self.DT)
            else:
                price_barrier(P, Payoff.put(self.K), barrier, self.T, g, self.DT)
        assert stepper_runs == []

    @pytest.mark.parametrize("payoff", [Payoff.call(K), Payoff.martingale_asset()],
                             ids=lambda pf: pf.kind)
    def test_overflowing_payoff_refused(self, payoff):
        with pytest.raises(ValueError, match="payoff is not finite on the grid"):
            price_option(P, payoff, self.T, Grid1D(700.0, 720.0, 51), self.DT)

    def test_spatial_convergence_is_second_order(self):
        # dt = 1/2000 keeps the time error well below the spatial one
        # down to 1601 nodes, so each halving of h should cut the error ~4x
        def cdf(z):
            return 0.5 * math.erfc(-z / math.sqrt(2.0))

        vol_t = math.sqrt(0.04 * self.T)
        d1 = (0.05 + 0.04 / 2) * self.T / vol_t  # at the money: ln(S0 / K) = 0
        want = 100.0 * cdf(d1) - self.K * math.exp(-0.05 * self.T) * cdf(d1 - vol_t)
        dt = 1.0 / 2000
        errors = []
        for n in (101, 201, 401, 801, 1601):
            g = Grid1D(np.log(100.0) - 4.0, np.log(100.0) + 4.0, n)
            curve = price_option(P, Payoff.call(self.K), self.T, g, dt)
            errors.append(abs(curve.values[n // 2] - want))
        ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
        assert all(3.5 <= q <= 4.5 for q in ratios), ratios


class TestDampedStart:
    """The kinked call and put start with two damped steps, so a coarse
    step neither leaves negative gamma at the strike nor costs the
    scheme its second order in time."""

    G = Grid1D(0.605, 8.605, 801)
    SPOT = 400  # x = 4.605, the node nearest ln 100

    def price(self, payoff, dt):
        return price_option(P, payoff, 1.0, self.G, dt).values

    @pytest.mark.parametrize("payoff", [Payoff.call(100.0), Payoff.put(100.0)],
                             ids=lambda pf: pf.kind)
    @pytest.mark.parametrize("dt", [0.5, 0.25, 0.2, 0.1, 0.05, 0.01, 0.0025])
    def test_gamma_nonnegative_at_every_step(self, payoff, dt):
        v, h, s = self.price(payoff, dt), self.G.h, np.exp(self.G.points[1:-1])
        v_x = (v[2:] - v[:-2]) / (2.0 * h)
        v_xx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
        gamma = (v_xx - v_x) / s**2
        # roundoff in the deep in-the-money tail reads about -3e-8
        assert gamma.min() >= -1e-6, f"gamma {gamma.min():.3g} at S = {s[gamma.argmin()]:.1f}"

    def test_time_convergence_is_second_order(self):
        # dt = 0.0025 stands in for the spatial floor of this grid
        floor = self.price(Payoff.call(100.0), 0.0025)[self.SPOT]
        errors = [abs(self.price(Payoff.call(100.0), dt)[self.SPOT] - floor)
                  for dt in (0.1, 0.05, 0.025)]
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
        dt = 1.0 / 200
        curve = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, dt)
        below = g.points <= np.log(self.B) + 1e-12
        assert np.max(np.abs(curve.values[below])) == 0.0
        assert curve.values[~below].real.max() > 0.0

    def test_knocked_low_edge_and_far_field_top(self):
        g = self.make_grid()
        dt = 1.0 / 200
        curve = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, dt)
        assert curve.values[0] == 0.0
        d = scheme_discounts(0.05, self.T / 200, 200, 2)[1][-1]
        assert curve.values[-1] == np.exp(g.x_max) - 100.0 * d

    def test_knocked_price_below_vanilla(self):
        g = self.make_grid()
        dt = 1.0 / 200
        barrier = price_barrier(P, Payoff.call(100.0), Potential.down_and_out(np.log(self.B)), self.T, g, dt)
        vanilla = price_option(P, Payoff.call(100.0), self.T, g, dt)
        i = int(np.argmin(np.abs(g.points - np.log(100.0))))
        assert barrier.values[i].real < vanilla.values[i].real

    def test_vacuous_barrier_matches_vanilla(self):
        g = Grid1D(np.log(90.0), np.log(120.0), 201)
        dt = 1.0 / 100
        with_barrier = price_barrier(
            P, Payoff.call(100.0), Potential.down_and_out(np.log(10.0)), self.T, g, dt
        )
        vanilla = price_option(P, Payoff.call(100.0), self.T, g, dt)
        assert np.allclose(with_barrier.values, vanilla.values, rtol=0, atol=1e-12)

    def test_double_knockout_zero_outside_corridor(self):
        g = Grid1D(np.log(60.0), np.log(160.0), 301)
        dt = 1.0 / 100
        lo, hi = np.log(80.0), np.log(130.0)
        curve = price_barrier(P, Payoff.call(100.0), Potential.double_knockout(lo, hi), self.T, g, dt)
        outside = (g.points <= lo + 1e-12) | (g.points >= hi - 1e-12)
        assert np.max(np.abs(curve.values[outside])) == 0.0

    def test_unaffordable_corridor_names_its_pin_table(self):
        # refused by the step budget before any table is allocated
        g = Grid1D(np.log(60.0), np.log(160.0), 301)
        corridor = Potential.double_knockout(np.log(80.0), np.log(130.0))
        with pytest.raises(ValueError, match=r"1000000000000000 steps \(maturity 1000000.0 "
                                             r"over dt 1e-09\) exceed the step budget"):
            price_barrier(P, Payoff.call(100.0), corridor, 1e6, g, 1e-9)

    def test_empty_corridor_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        dt = 0.01
        with pytest.raises(ValueError):
            price_barrier(P, Payoff.call(1.0), Potential.double_knockout(-5.0, 5.0), self.T, g, dt)

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
        dt = 0.01
        with pytest.raises(ValueError, match=message):
            price_barrier(P, Payoff.bond(), barrier, self.T, g, dt)

    def test_vanilla_potential_rejected(self):
        g = Grid1D(0.0, 1.0, 11)
        dt = 0.01
        with pytest.raises(ValueError):
            price_barrier(P, Payoff.call(1.0), Potential.constant(0.05), self.T, g, dt)


class TestMonotoneGuard:
    """A Euclidean pricing run is refused once the cell Peclet number
    h |sigma_sq/2 - r| / sigma_sq exceeds 1, where a central row of the
    generator turns a positive off-diagonal and prices can go negative."""

    LOW_VOL = MarketParams(r=0.05, sigma_sq=1e-4)
    G = Grid1D(0.605, 8.605, 801)  # Pe = 0.01 * 0.04995 / 1e-4 = 4.995

    def test_price_refused_with_pe_and_node_count(self):
        with pytest.raises(ValueError, match=r"Pe = .* = 4\.995 exceeds 1 .* 3998 nodes or more"):
            price_option(self.LOW_VOL, Payoff.put(100.0), 1.0, self.G, 0.01)

    def test_named_node_count_prices_without_negative_values(self):
        g = Grid1D(0.605, 8.605, 3998)
        curve = price_option(self.LOW_VOL, Payoff.put(100.0), 1.0, g, 0.01)
        assert curve.values.min() >= 0.0

    def test_barrier_price_refused(self):
        barrier = Potential.down_and_out(3.0)
        with pytest.raises(ValueError, match="Peclet"):
            price_barrier(self.LOW_VOL, Payoff.put(100.0), barrier, 1.0, self.G, 0.01)

    def test_zero_volatility_refused(self):
        with pytest.raises(ValueError, match="Pe = .* = inf .* positive sigma_sq"):
            price_option(MarketParams(r=0.05, sigma_sq=0.0), Payoff.bond(), 1.0, self.G, 0.01)

    def test_kernel_refused(self):
        with pytest.raises(ValueError, match="Peclet"):
            kernel_row(self.LOW_VOL, 4.0, 0.1, self.G)

    def test_library_evolve_unguarded(self):
        # evolve steps any operator it is given, monotone or not
        op = build_bs_hamiltonian(self.LOW_VOL, self.G)
        state = StateVector(np.ones(self.G.n_points), self.G)
        out, _ = evolve(op, state, EvolutionConfig(0.01, 3))
        assert np.all(np.isfinite(out.values))


class TestDiscountGuard:
    """A pricing step with r dt >= 2 is refused: Crank-Nicolson's discount
    of a constant per step, (1 - r dt/2)/(1 + r dt/2), is then zero or
    negative, and the bond would price at -0.2 where e^{-rT} is positive."""

    P = MarketParams(r=1.0, sigma_sq=0.04)
    G = Grid1D(-4.0, 4.0, 801)

    def test_bond_refused_with_the_bound(self):
        with pytest.raises(ValueError, match=r"dt = 3\.0 at r = 1\.0 .* dt < 2/r = 2\.0"):
            price_option(self.P, Payoff.bond(), 3.0, self.G, 3.0)

    def test_barrier_price_refused(self):
        with pytest.raises(ValueError, match="dt < 2/r"):
            price_barrier(self.P, Payoff.call(1.0), Potential.down_and_out(-1.0), 9.0, self.G, 3.0)

    def test_kernel_refused(self):
        # 50 steps of 2e-4 at r = 1e6: r dt = 200, and each step discounts by
        # (1 - 100)/(1 + 100) = -0.98; the row's min was -24.6
        with pytest.raises(ValueError, match=r"r = 1000000\.0 .* dt < 2/r = 2e-06"):
            kernel_row(MarketParams(r=1e6, sigma_sq=1e8), 0.0, 0.01, Grid1D(-2.0, 2.0, 201))

    def test_step_below_the_bound_prices_a_positive_bond(self):
        # two steps of 1.5: each discounts by (1 - 0.75)/(1 + 0.75) = 1/7
        curve = price_option(self.P, Payoff.bond(), 3.0, self.G, 1.5)
        assert np.allclose(curve.values, 1.0 / 49.0, rtol=1e-12)


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
        with pytest.raises(ValueError, match=r"inf steps \(kernel time 1e\+308 .*\) exceed the step"):
            kernel_row(P, 0.0, 1e308, Grid1D(-1.0, 1.0, 51))
