"""Path ensembles: lognormal exactness, variance dynamics, reproducibility."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qflab.sde
from qflab.model import MarketParams, MGParams, SDEParams, _float_reprs
from qflab.sde import (
    _CHUNK_VALUES,
    PATH_BLOCK,
    PathEnsemble,
    export_csv,
    simulate_gbm,
    simulate_mg,
)

ODE_LIMIT_TOL = 5e-6
SE_FACTOR = 3.5

BASE = MarketParams(r=0.05, sigma_sq=0.04)
SP = SDEParams(expected_return=0.05, base=BASE)
MG = MGParams(r=0.05, lam=0.04, mu=-0.5, zeta=0.05, alpha=1.0, rho=0.7)


class TestShapes:
    def test_path_array_layout(self):
        ens = simulate_gbm(SP, 100.0, 1.0, 0.1, 7, seed=1)
        assert ens.paths.shape == (7, 11)
        assert np.all(ens.paths[:, 0] == 100.0)
        assert ens.n_paths == 7 and ens.n_steps == 10

    @pytest.mark.parametrize("s0", [0.1, 3.7, 100.0, 1e-300, 1e300])
    def test_first_column_is_exact_start(self, s0):
        ens = simulate_gbm(SDEParams(0.07, MarketParams(r=0.05, sigma_sq=0.25)), s0, 1.0, 0.1,
                           9000, seed=4)
        assert np.all(ens.paths[:, 0] == s0)

    def test_step_size_snaps_to_horizon(self):
        ens = simulate_gbm(SP, 100.0, 1.0, 0.3, 3, seed=1)
        assert ens.n_steps == 3
        assert ens.dt == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_terminal_is_last_column(self):
        ens = simulate_gbm(SP, 100.0, 1.0, 0.25, 5, seed=2)
        assert np.array_equal(ens.terminal(), ens.paths[:, -1])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(s0=0.0, T=1.0, dt=0.1, n_paths=10),
            dict(s0=100.0, T=0.0, dt=0.1, n_paths=10),
            dict(s0=100.0, T=1.0, dt=0.0, n_paths=10),
            dict(s0=100.0, T=1.0, dt=0.1, n_paths=0),
            dict(s0=float("nan"), T=1.0, dt=0.1, n_paths=10),
            dict(s0=float("inf"), T=1.0, dt=0.1, n_paths=10),
            dict(s0=100.0, T=float("inf"), dt=0.1, n_paths=10),
            dict(s0=100.0, T=1.0, dt=float("nan"), n_paths=10),
        ],
    )
    def test_invalid_inputs(self, kwargs):
        with pytest.raises(ValueError):
            simulate_gbm(SP, kwargs["s0"], kwargs["T"], kwargs["dt"], kwargs["n_paths"], seed=1)

    def test_gbm_requires_market_base(self):
        sp = SDEParams(expected_return=0.05, base=MG)
        with pytest.raises(ValueError):
            simulate_gbm(sp, 100.0, 1.0, 0.1, 10, seed=1)

    def test_mg_requires_two_factor_params(self):
        with pytest.raises(ValueError, match="simulate_mg needs two-factor parameters"):
            simulate_mg(BASE, 0.05, 100.0, 0.04, 1.0, 0.1, 2, 0)

    def test_mg_requires_positive_v0(self):
        with pytest.raises(ValueError):
            simulate_mg(MG, 0.05, 100.0, 0.0, 1.0, 0.01, 10, seed=1)

    @pytest.mark.parametrize(
        "drift,v0", [(0.05, float("nan")), (0.05, float("inf")), (float("nan"), 0.04)]
    )
    def test_mg_rejects_non_finite_drift_and_v0(self, drift, v0):
        with pytest.raises(ValueError):
            simulate_mg(MG, drift, 100.0, v0, 1.0, 0.01, 10, seed=1)

    @pytest.mark.parametrize(
        "n_paths,seed",
        [(2.5, 1), (True, 1), (10.0, 1), ("10", 1), (10, 1.5), (10, -1), (10, 2**63),
         (10, 10**23), (10, True), (10, "1"), (10, None)],
    )
    @pytest.mark.parametrize("model", ["gbm", "mg"])
    def test_non_integer_count_or_seed_outside_philox_keys_refused(self, model, n_paths, seed):
        with pytest.raises(ValueError, match="n_paths|seed"):
            if model == "gbm":
                simulate_gbm(SP, 100.0, 1.0, 0.1, n_paths, seed)
            else:
                simulate_mg(MG, 0.05, 100.0, 0.04, 1.0, 0.1, n_paths, seed)

    def test_widest_seed_and_numpy_integers_accepted(self):
        ens = simulate_gbm(SP, 100.0, 1.0, 0.5, np.int64(3), seed=np.uint64(2**63 - 1))
        assert ens.paths.shape == (3, 3) and ens.seed == 2**63 - 1


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = simulate_gbm(SP, 100.0, 1.0, 0.01, 9000, seed=42)
        b = simulate_gbm(SP, 100.0, 1.0, 0.01, 9000, seed=42)
        assert np.array_equal(a.paths, b.paths)

    def test_different_seed_differs(self):
        a = simulate_gbm(SP, 100.0, 1.0, 0.01, 100, seed=1)
        b = simulate_gbm(SP, 100.0, 1.0, 0.01, 100, seed=2)
        assert not np.array_equal(a.paths, b.paths)

    def test_path_prefix_stable_in_count(self):
        # counter-based substreams: growing the ensemble must not move
        # the paths already drawn
        small = simulate_gbm(SP, 100.0, 1.0, 0.05, 100, seed=7)
        big = simulate_gbm(SP, 100.0, 1.0, 0.05, 200, seed=7)
        assert np.array_equal(small.paths, big.paths[:100])

    def test_prefix_stable_across_block_boundary(self):
        small = simulate_gbm(SP, 100.0, 0.2, 0.1, 8192 + 50, seed=3)
        big = simulate_gbm(SP, 100.0, 0.2, 0.1, 8192 + 130, seed=3)
        assert np.array_equal(small.paths, big.paths[: 8192 + 50])

    def test_mg_bit_identical(self):
        a = simulate_mg(MG, 0.05, 100.0, 0.04, 0.5, 0.01, 500, seed=5)
        b = simulate_mg(MG, 0.05, 100.0, 0.04, 0.5, 0.01, 500, seed=5)
        assert np.array_equal(a.paths, b.paths)
        assert np.array_equal(a.v_paths, b.v_paths)


def _whole_block_draws(seed, n_paths, tail):
    """The reference stream: each block of PATH_BLOCK paths drawn by one
    ``standard_normal`` call from its (seed, first path) Philox key."""
    for start in range(0, n_paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, n_paths)
        gen = np.random.Generator(np.random.Philox(key=[int(seed), start]))
        yield slice(start, stop), gen.standard_normal((stop - start, *tail))


def _simulate(model, n_steps, n_paths, seed):
    if model == "gbm":
        ens = simulate_gbm(SP, 100.0, 1.0, 1.0 / n_steps, n_paths, seed)
        return ens.paths, None
    ens = simulate_mg(MG, 0.05, 100.0, 0.04, 1.0, 1.0 / n_steps, n_paths, seed)
    return ens.paths, ens.v_paths


def _reference(model, n_steps, n_paths, seed):
    """``_simulate`` by the pre-chunking formulas: one draw per block,
    and the two-factor step loop reading that draw directly."""
    dt = 1.0 / n_steps
    paths = np.empty((n_paths, n_steps + 1))
    if model == "gbm":
        paths[:, 0] = 0.0
        for rows, z in _whole_block_draws(seed, n_paths, (n_steps,)):
            z *= np.sqrt(BASE.sigma_sq) * np.sqrt(dt)
            z += (SP.expected_return - 0.5 * BASE.sigma_sq) * dt
            np.cumsum(z, axis=1, out=paths[rows, 1:])
        np.exp(paths, out=paths)
        paths *= 100.0
        return paths, None
    v_paths = np.empty_like(paths)
    paths[:, 0], v_paths[:, 0] = 100.0, 0.04
    sq_dt, rho_perp = np.sqrt(dt), np.sqrt(1.0 - MG.rho**2)
    for rows, z in _whole_block_draws(seed, n_paths, (n_steps, 2)):
        z1 = z[:, :, 0]
        z2 = MG.rho * z1 + rho_perp * z[:, :, 1]
        x = np.full(z.shape[0], np.log(100.0))
        v = np.full(z.shape[0], 0.04)
        for k in range(n_steps):
            x = x + (0.05 - 0.5 * v) * dt + np.sqrt(v) * sq_dt * z1[:, k]
            v = np.abs(v + (MG.lam + MG.mu * v) * dt + MG.zeta * v**MG.alpha * sq_dt * z2[:, k])
            paths[rows, k + 1] = np.exp(x)
            v_paths[rows, k + 1] = v
    return paths, v_paths


class TestChunkedDraws:
    """Normals are drawn in chunks of at most _CHUNK_VALUES values, and
    the paths are bit for bit those of one draw per 8192-path block."""

    @pytest.mark.parametrize(
        "model,n_paths,n_steps,budget",
        [
            ("gbm", PATH_BLOCK + 1000, 100, None),  # 1310-row chunks: ragged in both blocks
            ("mg", PATH_BLOCK + 1000, 50, None),
            ("gbm", 3, _CHUNK_VALUES + 3, None),  # one path exceeds the budget: 1-row chunks
            ("mg", 3, 40, 64),  # 80 normals a path against a budget of 64
            ("gbm", 1, 1, None),
        ],
    )
    def test_paths_match_whole_block_draws(self, monkeypatch, model, n_paths, n_steps, budget):
        if budget is not None:
            monkeypatch.setattr(qflab.sde, "_CHUNK_VALUES", budget)
        got = _simulate(model, n_steps, n_paths, seed=11)
        want = _reference(model, n_steps, n_paths, seed=11)
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "n_paths,tail", [(PATH_BLOCK + 1000, (100,)), (PATH_BLOCK + 5, (50, 2)), (3, (2**18,))]
    )
    def test_chunks_are_bounded_and_tile_the_rows(self, n_paths, tail):
        rows, draws = [], []
        for r, z in qflab.sde._path_blocks(4, n_paths, tail):
            assert z.shape == (r.stop - r.start, *tail)
            assert z.shape[0] == 1 or z.size <= _CHUNK_VALUES
            rows.append(r)
            draws.append(z.copy())  # the next chunk overwrites this one
        assert [r.start for r in rows] == [0] + [r.stop for r in rows[:-1]]
        assert rows[-1].stop == n_paths
        whole = np.concatenate([z for _, z in _whole_block_draws(4, n_paths, tail)])
        assert np.concatenate(draws).tobytes() == whole.tobytes()


class TestSimulationMemory:
    """The traced peak of a simulation is its output tables plus a
    bounded chunk of normals and the step temporaries."""

    SLACK = 4_000_000

    @pytest.mark.parametrize("model,n_steps", [("gbm", 100), ("mg", 50)])
    def test_peak_is_tables_plus_bounded_draws(self, model, n_steps):
        tracemalloc.start()
        try:
            tables = _simulate(model, n_steps, 10_000, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        table_bytes = sum(t.nbytes for t in tables if t is not None)
        assert peak - table_bytes <= self.SLACK, (
            f"peak {peak / 1e6:.1f} MB for {table_bytes / 1e6:.1f} MB of tables"
        )


class TestGBMDistribution:
    def test_single_step_lognormal_moments(self):
        # the log-Euler step is exact in distribution, so one step over
        # the whole horizon must already match the lognormal moments
        n = 200_000
        ens = simulate_gbm(SP, 100.0, 1.0, 1.0, n, seed=13)
        logs = np.log(ens.terminal() / 100.0)
        want_mean = 0.05 - 0.02
        want_sd = 0.2
        se_mean = want_sd / np.sqrt(n)
        assert abs(logs.mean() - want_mean) < SE_FACTOR * se_mean
        se_sd = want_sd / np.sqrt(2.0 * n)
        assert abs(logs.std(ddof=1) - want_sd) < SE_FACTOR * se_sd

    def test_zero_volatility_is_deterministic_growth(self):
        sp = SDEParams(expected_return=0.03, base=MarketParams(r=0.05, sigma_sq=0.0))
        ens = simulate_gbm(sp, 50.0, 2.0, 0.25, 16, seed=4)
        t = np.arange(9) * 0.25
        want = 50.0 * np.exp(0.03 * t)
        assert np.allclose(ens.paths, want[None, :], rtol=1e-12)

    def test_many_steps_match_one_step_in_law(self):
        n = 100_000
        one = simulate_gbm(SP, 100.0, 1.0, 1.0, n, seed=21)
        many = simulate_gbm(SP, 100.0, 1.0, 0.02, n, seed=22)
        m1, m2 = one.terminal().mean(), many.terminal().mean()
        pooled_se = np.sqrt(one.terminal().var() / n + many.terminal().var() / n)
        assert abs(m1 - m2) < SE_FACTOR * pooled_se


class TestVarianceProcess:
    def test_variance_never_negative(self):
        wild = MGParams(r=0.05, lam=0.001, mu=-2.0, zeta=0.9, alpha=0.6, rho=-0.9)
        ens = simulate_mg(wild, 0.05, 100.0, 0.01, 1.0, 0.01, 2000, seed=6)
        assert ens.v_paths.min() >= 0.0

    def test_zero_vol_of_vol_solves_the_ode(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.5, zeta=0.0, alpha=1.0, rho=0.0)
        ens = simulate_mg(p, 0.05, 100.0, 0.04, 1.0, 1e-3, 32, seed=9)
        want = (0.04 + 0.01 / -0.5) * np.exp(-0.5) - 0.01 / -0.5
        got = ens.v_paths[:, -1]
        assert np.max(np.abs(got - want)) < ODE_LIMIT_TOL, (
            f"V(T) off by {np.max(np.abs(got - want)):.2e}"
        )
        assert np.ptp(got) == 0.0, "paths should coincide when zeta = 0"

    def test_increment_correlation_recovers_rho(self):
        n, steps = 20_000, 50
        ens = simulate_mg(MG, 0.05, 100.0, 0.04, 0.5, 0.01, n, seed=31)
        dx = np.diff(np.log(ens.paths), axis=1).ravel()
        dv = np.diff(ens.v_paths, axis=1).ravel()
        corr = np.corrcoef(dx, dv)[0, 1]
        se = (1.0 - 0.7**2) / np.sqrt(dx.size)
        assert abs(corr - 0.7) < max(SE_FACTOR * se, 0.01), f"corr {corr:.4f}"

    def test_asset_leg_prices_forward(self):
        n = 100_000
        ens = simulate_mg(MG, 0.05, 100.0, 0.04, 1.0, 0.02, n, seed=17)
        term = ens.terminal()
        se = term.std(ddof=1) / np.sqrt(n)
        assert abs(term.mean() - 100.0 * np.exp(0.05)) < SE_FACTOR * se


GBM_CSV = (
    "path_id,t,S\n"
    "0,0.0,100.0\n0,0.09999999999999999,109.84858712165611\n"
    "0,0.19999999999999998,116.16168166919482\n0,0.3,125.55339734819877\n"
    "1,0.0,100.0\n1,0.09999999999999999,113.010222871402\n"
    "1,0.19999999999999998,138.29122594112147\n1,0.3,136.72029847588288\n"
)
MG_CSV = (
    "path_id,t,S,V\n"
    "0,0.0,100.0,0.04\n0,0.1,97.28561148414528,0.04192394275051273\n"
    "0,0.2,99.17779370107408,0.04398464540110792\n"
    "1,0.0,100.0,0.04\n1,0.1,93.30448122894181,0.04154775251686574\n"
    "1,0.2,91.44734219281194,0.043997756100906886\n"
)


@pytest.mark.parametrize(
    "run,tables",
    [(lambda n: simulate_gbm(SP, 100.0, 1.0, 0.5, n, 0), "a path table"),
     (lambda n: simulate_mg(MG, 0.05, 100.0, 0.04, 1.0, 0.5, n, 0), "two path tables")],
    ids=["gbm", "mg"],
)
def test_unallocatable_path_count_refused(run, tables):
    # the step budget leaves the path count free: 1e15 paths of 2 steps
    # are refused by the allocation itself
    with pytest.raises(
        ValueError, match=f"^{tables} of 1000000000000000 x 3 values cannot be allocated$"
    ):
        run(10**15)


class TestNonFinitePaths:
    """A path table that leaves the finite range is refused, naming its
    first bad path and step; the suite turns any numpy warning into an
    error, so none escapes on the way."""

    def test_exploding_variance_refused(self):
        # explicit Euler on zeta V^alpha dW with alpha = 1.5 blows up
        p = MGParams(r=0.05, lam=0.05, mu=0.5, zeta=2.0, alpha=1.5, rho=-0.5)
        with pytest.raises(ArithmeticError, match=r"variance path \d+ .* at step \d+ \(t = "):
            simulate_mg(p, 0.05, 100.0, 0.5, 5.0, 0.05, 200, seed=0)

    def test_overflowing_price_refused(self):
        sp = SDEParams(expected_return=800.0, base=BASE)
        with pytest.raises(ArithmeticError, match="price path 0 leaves the finite range at step"):
            simulate_gbm(sp, 100.0, 1.0, 0.01, 3, seed=0)

    def test_first_bad_path_and_step_named(self):
        table = np.ones((4, 6))
        table[2, 4] = table[3, 1] = np.inf
        table[2, 5] = np.nan
        with pytest.raises(ArithmeticError, match=r"^price path 2 .* at step 4 \(t = 0\.5\)$"):
            qflab.sde._check_finite(table, "price", 0.125)

    def test_underflow_to_zero_is_kept(self):
        # prices that reach 0.0 are finite: nothing is refused
        sp = SDEParams(expected_return=-800.0, base=BASE)
        assert simulate_gbm(sp, 100.0, 1.0, 0.01, 3, seed=0).terminal().max() == 0.0


class TestStreamedExport:
    """The export's full text is pinned, and its memory stays at one
    path's text however many rows it writes."""

    def test_gbm_text_is_pinned(self, tmp_path):
        out = tmp_path / "paths.csv"
        export_csv(simulate_gbm(SP, 100.0, 0.3, 0.1, 2, seed=5), out)
        assert out.read_text() == GBM_CSV

    def test_mg_text_is_pinned(self, tmp_path):
        out = tmp_path / "paths.csv"
        export_csv(simulate_mg(MG, 0.05, 100.0, 0.04, 0.2, 0.1, 2, seed=6), out)
        assert out.read_text() == MG_CSV

    @pytest.mark.parametrize(
        "values",
        [[0.0, -0.0, 5e-324, 1e-5, 1e16, 1.0 / 3.0, np.nan, np.inf, -np.inf], [1e16], []],
        ids=["specials", "one", "empty"],
    )
    def test_float_reprs_match_repr(self, values):
        a = np.array(values, dtype=float)
        assert _float_reprs(a) == [repr(v) for v in a.tolist()]

    @pytest.mark.parametrize("model", ["gbm", "mg"])
    def test_peak_memory_is_one_path(self, tmp_path, model):
        if model == "gbm":
            ens = simulate_gbm(SP, 100.0, 1.0, 0.02, 2000, seed=3)
        else:
            ens = simulate_mg(MG, 0.05, 100.0, 0.04, 1.0, 0.02, 2000, seed=3)
        tracemalloc.start()
        try:
            rows = export_csv(ens, tmp_path / "paths.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 2000 * 51 >= 100_000
        assert peak < 1_000_000, f"export peak {peak / 1e6:.1f} MB"


class TestExport:
    def test_csv_layout_gbm(self, tmp_path):
        ens = simulate_gbm(SP, 100.0, 0.2, 0.1, 3, seed=1)
        out = tmp_path / "paths.csv"
        rows = export_csv(ens, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path_id,t,S"
        assert rows == 3 * 3 and len(lines) == rows + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 0.0 and float(first[2]) == 100.0

    def test_csv_includes_variance_leg(self, tmp_path):
        ens = simulate_mg(MG, 0.05, 100.0, 0.04, 0.2, 0.1, 2, seed=1)
        out = tmp_path / "paths.csv"
        export_csv(ens, out)
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "path_id,t,S,V"
        assert float(lines[1].split(",")[3]) == 0.04

    def test_round_trip_is_exact(self, tmp_path):
        ens = simulate_gbm(SP, 100.0, 0.5, 0.1, 4, seed=8)
        out = tmp_path / "paths.csv"
        export_csv(ens, out)
        back = np.zeros_like(ens.paths)
        for line in out.read_text().strip().split("\n")[1:]:
            pid, t, s = line.split(",")
            back[int(pid), int(round(float(t) / ens.dt))] = float(s)
        assert np.array_equal(back, ens.paths), "repr round trip lost bits"

    def test_size_guard(self, tmp_path, monkeypatch):
        monkeypatch.setattr(qflab.sde, "CSV_ROW_GUARD", 1000)
        ens = simulate_gbm(SP, 100.0, 1.0, 0.01, 200, seed=1)
        out = tmp_path / "big.csv"
        with pytest.raises(ValueError, match="guard of 1000"):
            export_csv(ens, out)
        rows = export_csv(ens, out, force=True)
        assert rows == 200 * 101 and out.exists()
