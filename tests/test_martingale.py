"""Annihilation residuals, the variance-level constraint, and MC checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.martingale import (
    MartingaleReport,
    NoRootError,
    cross_parameter_identity,
    default_tolerance,
    extended_constraint_residual,
    martingale_residual,
    mc_martingale_check,
    solve_extended_constraint,
)
from qflab.model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    SDEParams,
    StateVector,
    sample_extended_martingale_state,
    sample_martingale_state,
)
from qflab.operators import build_bs_hamiltonian, build_mg_hamiltonian

ROOT_RESIDUAL_TOL = 1e-12
MC_SE_FACTOR = 3.0


def tight_variance_window(p, y_star, hx, n=201):
    """Variance-axis window around the constraint root, shrunk until the
    constraint mismatch at the edges sits well under the h^2 gate."""
    half = 0.02
    for _ in range(60):
        edge = max(
            abs(extended_constraint_residual(p, y_star - half)),
            abs(extended_constraint_residual(p, y_star + half)),
        )
        if edge <= 2.0 * hx**2 * np.exp(y_star):
            break
        half *= 0.5
    return Grid1D(y_star - half, y_star + half, n)


class TestReport:
    def test_default_tolerance_formula(self):
        g = Grid1D(-1.0, 1.0, 21)
        sv = StateVector(3.0 * np.ones(21), g)
        assert default_tolerance(g.h, sv) == pytest.approx(10.0 * 0.1**2 * 3.0, rel=1e-14)

    def test_record_round_trip(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        g = Grid1D(-4.0, 4.0, 401)
        rep = martingale_residual(build_bs_hamiltonian(p, g), sample_martingale_state(g))
        rec = rep.to_record()
        fields = dict(line.split(" = ") for line in rec.strip().split("\n"))
        assert float(fields["residual_max"]) == rep.residual_max
        assert float(fields["tolerance"]) == rep.tolerance
        assert fields["verdict"] == "pass"

    def test_record_text(self):
        rep = MartingaleReport(
            residual_max=np.float64(1.5e-07),
            residual_l2=np.float64(-0.0),
            h=0.01,
            tolerance=0.1 + 0.2,
            passed=False,
        )
        assert rep.to_record() == (
            "residual_max = 1.5e-07\n"
            "residual_l2 = -0.0\n"
            "h = 0.01\n"
            "tolerance = 0.30000000000000004\n"
            "verdict = fail\n"
        )

    def test_verdict_tracks_passed(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        g = Grid1D(-4.0, 4.0, 401)
        op = build_bs_hamiltonian(p, g)
        state = sample_martingale_state(g)
        strict = martingale_residual(op, state, tol=1e-30)
        assert strict.verdict == "fail" and not strict.passed


class TestResidual1D:
    P = MarketParams(r=0.05, sigma_sq=0.04)

    def test_exponential_state_passes(self):
        g = Grid1D(-4.0, 4.0, 801)
        rep = martingale_residual(build_bs_hamiltonian(self.P, g), sample_martingale_state(g))
        assert rep.passed, f"residual {rep.residual_max:.3e} vs gate {rep.tolerance:.3e}"
        assert rep.h == pytest.approx(g.h)

    def test_non_martingale_state_fails(self):
        g = Grid1D(-4.0, 4.0, 801)
        sv = StateVector(np.exp(2.0 * g.points), g)
        rep = martingale_residual(build_bs_hamiltonian(self.P, g), sv)
        assert not rep.passed

    def test_l2_not_larger_than_max_times_volume(self):
        g = Grid1D(-4.0, 4.0, 801)
        rep = martingale_residual(build_bs_hamiltonian(self.P, g), sample_martingale_state(g))
        assert rep.residual_l2 <= rep.residual_max * np.sqrt(8.0) + 1e-30

    def test_grid_mismatch_rejected(self):
        g = Grid1D(-4.0, 4.0, 801)
        other = Grid1D(-4.0, 4.0, 401)
        with pytest.raises(ValueError):
            martingale_residual(build_bs_hamiltonian(self.P, g), sample_martingale_state(other))

    def test_tolerance_override(self):
        g = Grid1D(-4.0, 4.0, 401)
        rep = martingale_residual(
            build_bs_hamiltonian(self.P, g), sample_martingale_state(g), tol=0.5
        )
        assert rep.tolerance == 0.5

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-300])
    def test_meaningless_tolerance_refused(self, tol):
        # NaN fails every residual and +inf passes any: neither is a check
        g = Grid1D(-4.0, 4.0, 41)
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            martingale_residual(build_bs_hamiltonian(self.P, g), sample_martingale_state(g), tol=tol)

    def test_zero_tolerance_allowed(self):
        g = Grid1D(-4.0, 4.0, 41)
        rep = martingale_residual(
            build_bs_hamiltonian(self.P, g), sample_martingale_state(g), tol=0.0
        )
        assert rep.tolerance == 0.0 and rep.passed == (rep.residual_max == 0.0)


class TestResidual2D:
    P = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)

    def test_extended_state_passes_at_constraint_root(self):
        root = solve_extended_constraint(self.P, (-7.0, -0.8))
        gx = Grid1D(-1.0, 1.0, 201)
        gy = tight_variance_window(self.P, root.y_star, gx.h)
        g2 = Grid2D(gx, gy)
        rep = martingale_residual(
            build_mg_hamiltonian(self.P, g2), sample_extended_martingale_state(g2)
        )
        assert rep.passed, f"residual {rep.residual_max:.3e} vs gate {rep.tolerance:.3e}"

    def test_h_is_coarser_axis(self):
        gx = Grid1D(-1.0, 1.0, 201)
        gy = Grid1D(-3.0, -2.0, 11)
        g2 = Grid2D(gx, gy)
        rep = martingale_residual(
            build_mg_hamiltonian(self.P, g2), sample_extended_martingale_state(g2)
        )
        assert rep.h == pytest.approx(gy.h), "2-D h should be the coarser spacing"

    def test_off_root_window_fails(self):
        gx = Grid1D(-1.0, 1.0, 201)
        gy = Grid1D(-1.5, -1.3, 51)  # far from any constraint root
        g2 = Grid2D(gx, gy)
        rep = martingale_residual(
            build_mg_hamiltonian(self.P, g2), sample_extended_martingale_state(g2)
        )
        assert not rep.passed


class TestConstraint:
    def test_zero_vol_of_vol_closed_form(self):
        # zeta = 0 reduces the constraint to lam + mu e^y
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.0, alpha=1.0, rho=0.0)
        root = solve_extended_constraint(p, (-7.0, -0.8))
        assert root.y_star == pytest.approx(np.log(0.01 / 0.3), abs=1e-12)
        assert abs(root.residual) <= ROOT_RESIDUAL_TOL

    def test_uncorrelated_closed_form(self):
        # rho = 0, alpha = 1: root at ln(lam / -(mu + zeta^2/2))
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=0.0)
        root = solve_extended_constraint(p, (-7.0, -0.8))
        assert root.y_star == pytest.approx(np.log(0.01 / 0.295), abs=1e-12)

    def test_residual_expression_vectorized(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.5, rho=-0.5)
        ys = np.array([-4.0, -3.0, -2.0])
        vals = extended_constraint_residual(p, ys)
        for y, v in zip(ys, vals):
            ey = np.exp(y)
            want = 0.01 + ey * (
                -0.3 + 0.005 * np.exp(2 * y * 0.5) - 0.05 * np.exp(y * 1.0)
            )
            assert v == pytest.approx(want, rel=1e-14), f"y={y}"

    def test_bracket_endpoints_keep_signs(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        root = solve_extended_constraint(p, (-7.0, -0.8))
        assert root.bracket == (-7.0, -0.8)
        lo = extended_constraint_residual(p, -7.0)
        hi = extended_constraint_residual(p, -0.8)
        assert lo * hi < 0.0

    @pytest.mark.parametrize("bracket", [(0.0, 1.0), (-1.0, 0.0)])
    def test_root_at_a_bracket_end_returned_as_is(self, bracket):
        # zeta = 0: the expression is lam + mu e^y, exactly -1 + 1 = 0 at y = 0
        p = MGParams(r=0.05, lam=-1.0, mu=1.0, zeta=0.0, alpha=1.0, rho=0.0)
        root = solve_extended_constraint(p, bracket)
        assert (root.y_star, root.residual, root.bracket) == (0.0, 0.0, bracket)

    def test_no_root_raises(self):
        # positive mean-reversion target keeps the expression positive
        p = MGParams(r=0.05, lam=0.01, mu=0.3, zeta=0.1, alpha=1.0, rho=0.5)
        with pytest.raises(NoRootError):
            solve_extended_constraint(p, (-7.0, -0.8))

    def test_bad_bracket_rejected(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=0.0)
        with pytest.raises(ValueError):
            solve_extended_constraint(p, (-0.8, -7.0))

    @given(
        lam=st.floats(0.005, 0.05),
        mu=st.floats(-0.6, -0.1),
        zeta=st.floats(0.0, 0.2),
        rho=st.floats(-1.0, 1.0),
        alpha=st.floats(1.0, 1.5),
    )
    @settings(max_examples=40, deadline=None)
    def test_found_roots_satisfy_gate(self, lam, mu, zeta, rho, alpha):
        p = MGParams(r=0.05, lam=lam, mu=mu, zeta=zeta, alpha=alpha, rho=rho)
        lo, hi = -9.0, -0.5
        if extended_constraint_residual(p, lo) * extended_constraint_residual(p, hi) >= 0:
            return  # no sign change for this draw
        root = solve_extended_constraint(p, (lo, hi))
        assert abs(root.residual) <= ROOT_RESIDUAL_TOL
        assert lo < root.y_star < hi


class TestCrossIdentity:
    def test_alpha_three_halves_is_y_independent(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.3, alpha=1.5, rho=-0.3)
        out = cross_parameter_identity(p)
        assert out["y_independent"] and out["holds"]

    def test_identity_fails_for_positive_rho(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.3, alpha=1.5, rho=0.3)
        out = cross_parameter_identity(p)
        assert out["y_independent"] and not out["holds"]

    def test_generic_alpha_depends_on_y(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.3, alpha=1.2, rho=-0.3)
        assert not cross_parameter_identity(p)["y_independent"]


class TestMCCheck:
    BASE = MarketParams(r=0.05, sigma_sq=0.04)

    def test_path_count_floor(self):
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        with pytest.raises(ValueError):
            mc_martingale_check(sp, 100.0, 1.0, 999, 1)

    @pytest.mark.parametrize("n_paths,seed", [(2000.5, 1), (True, 1), (2000, 1.5), (2000, -1),
                                              (2000, 2**63), (2000, 10**23), (2000, False)])
    def test_non_integer_count_or_seed_refused(self, n_paths, seed):
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        with pytest.raises(ValueError, match="n_paths|seed"):
            mc_martingale_check(sp, 100.0, 1.0, n_paths, seed)

    def test_zero_volatility_statistic_is_exact_zero(self):
        sp = SDEParams(expected_return=0.05, base=MarketParams(r=0.05, sigma_sq=0.0))
        stat, se = mc_martingale_check(sp, 100.0, 1.0, 2000, 1)
        assert stat == 0.0 and se == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_risk_neutral_within_three_se(self, seed):
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        stat, se = mc_martingale_check(sp, 100.0, 1.0, 50_000, seed)
        assert abs(stat) <= MC_SE_FACTOR * se, f"seed {seed}: {stat:.4f} vs 3SE {3*se:.4f}"

    def test_excess_drift_shifts_the_mean(self):
        sp = SDEParams(expected_return=0.07, base=self.BASE)
        stat, se = mc_martingale_check(sp, 100.0, 1.0, 200_000, 11)
        want = 100.0 * (np.exp(0.02) - 1.0)
        assert abs(stat - want) <= MC_SE_FACTOR * se, f"{stat:.4f} not near {want:.4f}"

    @pytest.mark.parametrize(
        "s0,T", [(np.nan, 1.0), (np.inf, 1.0), (100.0, np.nan), (100.0, np.inf)]
    )
    def test_non_finite_start_or_horizon_refused(self, s0, T):
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        with pytest.raises(ValueError, match="must be finite"):
            mc_martingale_check(sp, s0, T, 1000, 1)

    def test_pinned_statistics(self):
        # the Philox stream and the lognormal draw are fixed: any drift in
        # either shows here first (the second case spans two path blocks)
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        assert mc_martingale_check(sp, 100.0, 1.0, 20_000, 3) == (
            -0.05840558921690331, 0.14227437753409725
        )
        sp = SDEParams(expected_return=0.08, base=MarketParams(r=0.03, sigma_sq=0.1))
        assert mc_martingale_check(sp, 50.0, 0.5, 8193, 12) == (
            1.3583136955106454, 0.12864955576936188
        )

    def test_same_seed_bitwise_identical(self):
        sp = SDEParams(expected_return=0.05, base=self.BASE)
        a = mc_martingale_check(sp, 100.0, 1.0, 30_000, 9)
        b = mc_martingale_check(sp, 100.0, 1.0, 30_000, 9)
        assert a == b
