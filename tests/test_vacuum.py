"""Equilibrium-field solvers for the one- and two-factor potentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.model import Grid1D, Grid2D, MarketParams, MGParams
from qflab.operators import build_bs_hamiltonian, build_mg_hamiltonian
from qflab.vacuum import (
    FieldPoint,
    SingularRegimeError,
    bs_extremum_roots,
    bs_potential_residual,
    bs_vacuum_exact,
    bs_vacuum_strong,
    bs_vacuum_weak,
    classify_information_flow,
    extremum_quadratic_residual,
    mg_case_solver,
    mg_polynomial_residual,
    mg_regime_solver,
)

NAMED_VALUE_TOL = 1e-5
FIDELITY_SCALE = 1e-10

P = MarketParams(r=0.05, sigma_sq=0.04)


def scale_aware_gate(p, n, phi):
    """Fidelity gate that tracks the size of the polynomial's terms."""
    terms = (
        abs(0.5 * p.sigma_sq * n * (n - 1)) * abs(phi) ** max(n - 2, 0)
        + abs((0.5 * p.sigma_sq - p.r) * n) * abs(phi) ** max(n - 1, 0)
        + abs(p.r) * abs(phi) ** n
    )
    return FIDELITY_SCALE * max(1.0, terms)


class TestPotentialResidual:
    def test_n0_is_pure_rate_term(self):
        assert bs_potential_residual(P, 0, 0.0) == pytest.approx(P.r, rel=1e-15)
        assert bs_potential_residual(P, 0, 7.3) == pytest.approx(P.r, rel=1e-15)

    def test_n1_at_zero_field(self):
        # the drift term survives through phi^0 = 1; only the rate term dies
        want = 0.5 * P.sigma_sq - P.r
        assert bs_potential_residual(P, 1, 0.0) == pytest.approx(want, rel=1e-14)

    def test_n1_nontrivial_root(self):
        phi = 1.0 - P.sigma_sq / (2.0 * P.r)
        assert abs(bs_potential_residual(P, 1, phi)) < 1e-15

    @pytest.mark.parametrize("n,phi", [(2, 1.5), (3, -0.7), (5, 0.4)])
    def test_matches_direct_evaluation(self, n, phi):
        want = (
            -0.5 * P.sigma_sq * n * (n - 1) * phi ** (n - 2)
            + (0.5 * P.sigma_sq - P.r) * n * phi ** (n - 1)
            + P.r * phi**n
        )
        assert bs_potential_residual(P, n, phi) == pytest.approx(want, rel=1e-13)

    def test_zero_coefficient_never_touches_negative_power(self):
        # n = 1 makes the diffusion coefficient vanish; phi = 0 must not
        # raise through the phi^{-1} it would otherwise require
        bs_potential_residual(P, 1, 0.0)

    def test_unconstrained_field_exercised_raises(self):
        point = FieldPoint(phi_x=1.0, phi_y=None, n=1, m=1)
        with pytest.raises(ValueError, match="unconstrained"):
            mg_polynomial_residual(
                MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=0.5),
                point,
                np.log(0.04),
            )


class TestExactFamily:
    def test_n1_roots_and_trivial_branch(self):
        sol = bs_vacuum_exact(P, 1)
        got = sorted(pt.phi_x for pt in sol.roots)
        assert got == pytest.approx([0.0, 0.6], abs=NAMED_VALUE_TOL)
        assert any("trivial" in note for note in sol.notes)
        assert sol.degeneracy == 1

    def test_n1_collapses_at_hermitian_point(self):
        ph = MarketParams(r=0.05, sigma_sq=0.1)
        sol = bs_vacuum_exact(ph, 1)
        assert [pt.phi_x for pt in sol.roots] == [0.0]
        assert sol.degeneracy == 0
        assert sol.price_translation_broken is False

    def test_n2_quadratic_roots(self):
        sol = bs_vacuum_exact(P, 2)
        got = sorted(pt.phi_x for pt in sol.roots)
        assert got == pytest.approx([-0.4770329614269007, 1.677032961426901], abs=1e-12)
        assert sol.divided_out_trivial is None

    def test_n3_divides_out_trivial_root(self):
        sol = bs_vacuum_exact(P, 3)
        assert sol.divided_out_trivial == 0.0
        got = sorted(pt.phi_x for pt in sol.roots)
        # quadratic 0.05 phi^2 - 0.09 phi - 0.12
        assert got == pytest.approx([-0.8916472867168918, 2.6916472867168917], abs=1e-12)

    def test_order_below_one_rejected(self):
        with pytest.raises(ValueError):
            bs_vacuum_exact(P, 0)

    @given(
        r=st.floats(0.005, 0.2),
        sigma_sq=st.floats(0.0, 0.5),
        n=st.integers(1, 6),
    )
    @settings(max_examples=80, deadline=None)
    def test_roots_satisfy_polynomial(self, r, sigma_sq, n):
        p = MarketParams(r=r, sigma_sq=sigma_sq)
        sol = bs_vacuum_exact(p, n)
        assert not sol.no_real_solution
        for pt in sol.roots:
            phi = pt.phi_x
            if n == 1 and phi == 0.0:
                # multiplied-in branch: check the quadratic it came from
                resid = r * phi**2 + (0.5 * sigma_sq - r) * phi
            else:
                resid = bs_potential_residual(p, n, phi)
            assert abs(resid) <= scale_aware_gate(p, n, phi), (
                f"root {phi} fails fidelity at n={n}, r={r}, sigma_sq={sigma_sq}"
            )


class TestApproximateFamilies:
    def test_weak_value(self):
        sol = bs_vacuum_weak(P, 3)
        assert sol.approximate
        want = P.sigma_sq * 2.0 / (P.sigma_sq - 2.0 * P.r)
        assert sol.roots[0].phi_x == pytest.approx(want, rel=1e-12)

    def test_weak_singular_at_hermitian_point(self):
        with pytest.raises(SingularRegimeError):
            bs_vacuum_weak(MarketParams(r=0.05, sigma_sq=0.1), 2)

    def test_weak_n1_is_zero(self):
        assert bs_vacuum_weak(P, 1).roots[0].phi_x == pytest.approx(0.0, abs=1e-15)

    def test_strong_values(self):
        sol = bs_vacuum_strong(P, 2)
        got = sorted(pt.phi_x for pt in sol.roots)
        assert got == pytest.approx([0.0, 1.2], abs=NAMED_VALUE_TOL)
        assert sol.approximate

    @given(r=st.floats(0.01, 0.2), sigma_sq=st.floats(0.001, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_strong_n1_matches_exact(self, r, sigma_sq):
        p = MarketParams(r=r, sigma_sq=sigma_sq)
        strong = {round(pt.phi_x, 12) for pt in bs_vacuum_strong(p, 1).roots}
        exact = {round(pt.phi_x, 12) for pt in bs_vacuum_exact(p, 1).roots}
        assert strong == exact

    def test_extremum_n3(self):
        sol = bs_extremum_roots(P, 3)
        got = sorted(pt.phi_x for pt in sol.roots)
        assert got == pytest.approx([-0.4770329614269007, 1.677032961426901], abs=1e-9)
        for pt in sol.roots:
            assert abs(extremum_quadratic_residual(P, 3, pt.phi_x)) < 1e-12

    def test_extremum_n1_only_trivial(self):
        sol = bs_extremum_roots(P, 1)
        assert [pt.phi_x for pt in sol.roots] == [0.0]


class TestMGPolynomial:
    def test_case11_hyperbola_point(self):
        # at this variance level the y-drift vanishes and the product
        # phi_x phi_y = cross / r closes the polynomial exactly
        p = MGParams(r=0.05, lam=0.0, mu=0.05, zeta=0.1, alpha=0.5, rho=0.5)
        y = np.log(0.1)
        point = FieldPoint(phi_x=1.0, phi_y=1.0, n=1, m=1)
        assert abs(mg_polynomial_residual(p, point, y)) < 1e-15

    def test_terms_against_direct_evaluation(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.2, rho=-0.4)
        y = -2.5
        n, m, px, py = 2, 3, 0.7, -1.1
        ey = np.exp(y)
        c_y = 0.01 * np.exp(2.5) + 0.02 - 0.005 * np.exp(2 * y * 0.2)
        want = (
            -0.5 * ey * n * (n - 1) * px ** (n - 2) * py**m
            - (0.05 - 0.5 * ey) * n * px ** (n - 1) * py**m
            - c_y * m * px**n * py ** (m - 1)
            - (-0.4) * 0.1 * np.exp(y * 0.7) * n * m * px ** (n - 1) * py ** (m - 1)
            - 0.01 * np.exp(2 * y * 0.2) * m * (m - 1) * px**n * py ** (m - 2)
            + 0.05 * px**n * py**m
        )
        got = mg_polynomial_residual(p, FieldPoint(px, py, n, m), y)
        assert got == pytest.approx(want, rel=1e-13)

    def test_zero_orders_give_rate_term(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=0.5)
        assert mg_polynomial_residual(p, FieldPoint(2.0, 3.0, 0, 0), -2.0) == pytest.approx(0.05)


class TestMGCases:
    P_CASE = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
    Y = np.log(0.04)

    def test_case_0_1(self):
        sol = mg_case_solver(self.P_CASE, self.Y, 0, 1)
        pt = sol.roots[0]
        assert pt.phi_x is None, "phi_x should stay unconstrained"
        assert pt.phi_y == pytest.approx(5.3, abs=NAMED_VALUE_TOL)
        assert sol.volatility_translation_broken

    def test_case_1_0(self):
        sol = mg_case_solver(self.P_CASE, self.Y, 1, 0)
        pt = sol.roots[0]
        assert pt.phi_x == pytest.approx(0.6, abs=NAMED_VALUE_TOL)
        assert pt.phi_y is None

    def test_case_1_1_generic_is_a_curve(self):
        sol = mg_case_solver(self.P_CASE, self.Y, 1, 1)
        assert sol.roots == ()
        assert sol.curve_coeffs is not None
        assert sol.relation is not None
        assert any("curve" in note for note in sol.notes)

    def test_case_1_1_curve_coefficients(self):
        sol = mg_case_solver(self.P_CASE, self.Y, 1, 1)
        ey = 0.04
        c_y = 0.01 / 0.04 + 0.02 - 0.005
        cross = 1.0 * 0.1 * np.sqrt(0.04)
        coeffs = sol.curve_coeffs
        assert coeffs["phi_x_phi_y"] == pytest.approx(0.05, rel=1e-12)
        assert coeffs["phi_y"] == pytest.approx(-(0.05 - ey / 2), rel=1e-12)
        assert coeffs["phi_x"] == pytest.approx(-c_y, rel=1e-12)
        assert coeffs["const"] == pytest.approx(-cross, rel=1e-12)

    def test_case_1_1_hermitian_product(self):
        # y-drift zero and e^y = 2r turn the curve into a hyperbola
        p = MGParams(r=0.05, lam=0.0, mu=0.005, zeta=0.1, alpha=1.0, rho=0.8)
        y = np.log(0.1)
        sol = mg_case_solver(p, y, 1, 1)
        want = 0.8 * 0.1 * np.exp(y * 0.5) / 0.05
        assert sol.product_value == pytest.approx(want, rel=1e-12)

    def test_unsupported_orders_rejected(self):
        with pytest.raises(ValueError):
            mg_case_solver(self.P_CASE, self.Y, 2, 2)


class TestMGRegimes:
    Y = np.log(0.04)

    def test_weak_weak_known_values(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
        sol = mg_regime_solver(p, self.Y, 2, 2, "weak-weak", phi_x=1.0)
        got = sorted(pt.phi_y for pt in sol.roots)
        assert got == pytest.approx([-0.34142135623730, -0.05857864376269], abs=1e-10)
        assert sol.approximate

    def test_weak_weak_camel_case_alias(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
        sol = mg_regime_solver(p, self.Y, 2, 2, "WeakWeak", phi_x=1.0)
        assert len(sol.roots) == 2

    @given(phi_x=st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_weak_weak_scales_linearly_in_phi_x(self, phi_x):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
        base = mg_regime_solver(p, self.Y, 2, 2, "weak-weak", phi_x=1.0)
        scaled = mg_regime_solver(p, self.Y, 2, 2, "weak-weak", phi_x=phi_x)
        for b, s in zip(base.roots, scaled.roots):
            assert s.phi_y == pytest.approx(phi_x * b.phi_y, rel=1e-12)

    def test_weak_weak_n1_falls_back_to_product(self):
        # at unit order the coupled branch degenerates: both fields are
        # small, so the product collapses to zero
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
        sol = mg_regime_solver(p, self.Y, 1, 2, "weak-weak", phi_x=1.0)
        assert sol.roots == ()
        assert sol.product_value == pytest.approx(0.0, abs=1e-15)
        assert any("product" in note for note in sol.notes)

    def test_weak_weak_negative_discriminant_flagged(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=0.5)
        sol = mg_regime_solver(p, self.Y, 2, 2, "weak-weak", phi_x=1.0)
        assert sol.no_real_solution and sol.roots == ()

    def test_weak_weak_zero_correlation_singular(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=0.0)
        with pytest.raises(SingularRegimeError):
            mg_regime_solver(p, self.Y, 2, 2, "weak-weak")

    def test_weak_weak_zero_order_singular(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
        with pytest.raises(SingularRegimeError):
            mg_regime_solver(p, self.Y, 0, 2, "weak-weak")

    def test_strong_x_weak_y_value(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=0.5)
        sol = mg_regime_solver(p, self.Y, 0, 2, "strong-x-weak-y")
        pt = sol.roots[0]
        assert pt.phi_x == 0.0
        # zeta^2 e^{2y(alpha-1)} (1-m) / C(y) with C = 0.265
        assert pt.phi_y == pytest.approx(-0.01 / 0.265, rel=1e-12)

    def test_strong_x_weak_y_singular_when_drift_vanishes(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.05, zeta=0.1, alpha=0.5, rho=0.5)
        with pytest.raises(SingularRegimeError):
            mg_regime_solver(p, np.log(0.1), 0, 2, "strong-x-weak-y")

    def test_weak_x_strong_y_value_and_limit(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
        sol = mg_regime_solver(p, self.Y, 2, 0, "weak-x-strong-y")
        pt = sol.roots[0]
        assert pt.phi_x == pytest.approx(-2.0 / 3.0, abs=NAMED_VALUE_TOL)
        assert pt.phi_y == 0.0
        assert sol.limit_value == pytest.approx(1.0, rel=1e-12)

    def test_weak_x_strong_y_singular_at_hermitian_level(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
        with pytest.raises(SingularRegimeError):
            mg_regime_solver(p, np.log(0.1), 2, 0, "weak-x-strong-y")

    def test_strong_strong_relation(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
        sol = mg_regime_solver(p, self.Y, 2, 3, "strong-strong")
        assert sol.relation is not None
        a_y = (1.0 - 0.04 / 0.1) * 2
        a_x = (0.265 / 0.05) * 3
        assert sol.curve_coeffs["a_y"] == pytest.approx(a_y, rel=1e-12)
        assert sol.curve_coeffs["a_x"] == pytest.approx(a_x, rel=1e-12)

    def test_strong_strong_hermitian_product_zero(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.005, zeta=0.1, alpha=1.0, rho=0.8)
        sol = mg_regime_solver(p, np.log(0.1), 2, 3, "strong-strong")
        assert sol.product_value == 0.0

    def test_unknown_regime_rejected(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
        with pytest.raises(ValueError):
            mg_regime_solver(p, self.Y, 2, 2, "medium-rare")


class TestClassify:
    def test_bs_hermitian_point(self):
        rep = classify_information_flow(MarketParams(r=0.05, sigma_sq=0.1))
        assert rep.flags["sigma_sq_equals_2r"]
        assert rep.preserved and rep.verdict == "preserved"

    def test_bs_generic_point(self):
        rep = classify_information_flow(MarketParams(r=0.05, sigma_sq=0.04))
        assert not rep.preserved
        assert rep.values["sigma_sq_minus_2r"] == pytest.approx(-0.06, rel=1e-12)

    def test_mg_preserved_example(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.005, zeta=0.1, alpha=1.0, rho=0.0)
        rep = classify_information_flow(p, y=np.log(0.1))
        assert rep.flags["y_drift_zero"] and rep.flags["ey_equals_2r"]
        assert rep.preserved

    def test_mg_broken_example(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        rep = classify_information_flow(p, y=-2.0)
        assert not rep.preserved

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_y_rejected(self, y):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        with pytest.raises(ValueError, match="finite"):
            classify_information_flow(p, y=y)
        with pytest.raises(ValueError, match="finite"):
            mg_case_solver(p, y, 1, 1)
        with pytest.raises(ValueError, match="finite"):
            mg_regime_solver(p, y, 2, 2, "strong-strong")
        with pytest.raises(ValueError, match="finite"):
            mg_polynomial_residual(p, FieldPoint(1.0, 1.0, 1, 1), y)

    def test_mg_requires_variance_level(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        with pytest.raises(ValueError):
            classify_information_flow(p)

    def test_record_contains_flags_and_values(self):
        rep = classify_information_flow(MarketParams(r=0.05, sigma_sq=0.1))
        rec = rep.to_record()
        assert "flag_sigma_sq_equals_2r = True" in rec
        assert "information_flow = preserved" in rec
        leaking = classify_information_flow(MarketParams(r=0.05, sigma_sq=0.04))
        assert leaking.verdict == "leaking"
        assert "information_flow = leaking" in leaking.to_record()


GEN = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)
HERM = MGParams(r=0.05, lam=0.0, mu=0.005, zeta=0.1, alpha=1.0, rho=0.8)
Y_GEN = float(np.log(0.04))
Y_HERM = float(np.log(0.1))  # e^y = 2r and C(y) = 0 for HERM
CURVE_11 = (
    "relation = r*phi_x*phi_y - (r - e^y/2)*phi_y - C(y)*phi_x "
    "- rho*zeta*e^{y(alpha-1/2)} = 0\n"
)
CURVE_SS = "relation = phi_x*phi_y = a_y*phi_y + a_x*phi_x\n"
BROKEN = "price_translation_broken = True\nvolatility_translation_broken = True\n"
NO_ROWS = "index,phi_x,phi_y\n"


class TestOverflow:
    @pytest.mark.parametrize("phi", [10.0, np.float64(10.0), 10], ids=["float", "float64", "int"])
    def test_term_overflow_is_one_value_error(self, phi):
        with pytest.raises(ValueError, match="term diffusion: .* overflows"):
            bs_potential_residual(P, 400, phi)
        with pytest.raises(ValueError, match="term xx/x: .* overflows"):
            mg_polynomial_residual(GEN, FieldPoint(phi, 1.0, 400, 1), -3.0)

    def test_large_powers_that_fit_still_evaluate(self):
        assert np.isfinite(bs_potential_residual(P, 300, 10.0))

    @pytest.mark.parametrize("y", [800.0, -800.0], ids=["ey", "y_drift"])
    def test_overflowing_y_refused_by_every_two_field_solver(self, y):
        # the suite turns warnings into errors, so no overflow warning escapes either
        with pytest.raises(ValueError, match="non-finite"):
            classify_information_flow(GEN, y=y)
        with pytest.raises(ValueError, match="non-finite"):
            mg_case_solver(GEN, y, 1, 1)
        with pytest.raises(ValueError, match="non-finite"):
            mg_regime_solver(GEN, y, 2, 2, "strong-strong")
        with pytest.raises(ValueError, match="non-finite"):
            mg_polynomial_residual(GEN, FieldPoint(1.0, 1.0, 1, 1), y)


class TestOrderAndScaleChecks:
    @pytest.mark.parametrize(
        "n,m,regime",
        [(-2, -1, "strong-strong"), (1, -4, "weak-weak"), (-1, 2, "weak-x-strong-y")],
    )
    def test_negative_order_refused(self, n, m, regime):
        with pytest.raises(ValueError, match="order . must be >= 0"):
            mg_regime_solver(GEN, Y_GEN, n, m, regime)

    def test_negative_order_beats_singular_correlation(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=0.0)
        with pytest.raises(ValueError, match="order m must be >= 0"):
            mg_regime_solver(p, Y_GEN, 2, -1, "weak-weak")

    @pytest.mark.parametrize("phi_x", [np.nan, np.inf])
    def test_non_finite_phi_x_refused(self, phi_x):
        with pytest.raises(ValueError, match="phi_x must be finite"):
            mg_regime_solver(GEN, Y_GEN, 2, 2, "weak-weak", phi_x=phi_x)

    @pytest.mark.parametrize("phi_x,phi_y", [(np.nan, 1.0), (1.0, np.inf), (None, -np.inf)])
    def test_field_point_rejects_non_finite_values(self, phi_x, phi_y):
        with pytest.raises(ValueError, match="must be finite"):
            FieldPoint(phi_x, phi_y, 1, 1)

    @pytest.mark.parametrize("order", [2.5, 2.0, 1.0, True])
    @pytest.mark.parametrize(
        "solve",
        [
            pytest.param(lambda k: bs_vacuum_exact(P, k), id="exact"),
            pytest.param(lambda k: bs_vacuum_weak(P, k), id="weak"),
            pytest.param(lambda k: bs_vacuum_strong(P, k), id="strong"),
            pytest.param(lambda k: bs_extremum_roots(P, k), id="extremum"),
            pytest.param(lambda k: mg_case_solver(GEN, Y_GEN, k, 1), id="case"),
            pytest.param(lambda k: mg_regime_solver(GEN, Y_GEN, k, 3, "strong-strong"), id="ss"),
            pytest.param(lambda k: mg_regime_solver(GEN, Y_GEN, k, 2, "weak-weak"), id="ww"),
            pytest.param(lambda k: mg_regime_solver(GEN, Y_GEN, 1, k, "weak-weak"), id="ww-m"),
            pytest.param(
                lambda k: mg_regime_solver(GEN, Y_GEN, k, 2, "strong-x-weak-y"), id="sxwy"
            ),
            pytest.param(
                lambda k: mg_regime_solver(GEN, Y_GEN, k, 0, "weak-x-strong-y"), id="wxsy"
            ),
            pytest.param(lambda k: bs_potential_residual(P, k, 1.3), id="residual"),
        ],
    )
    def test_non_integer_order_refused(self, solve, order):
        # the case solver names (2.5, 1) and (2.0, 1) as unsupported cases
        with pytest.raises(ValueError, match="must be an integer|unsupported case"):
            solve(order)

    def test_regime_matched_without_separators_or_case(self):
        sol = mg_regime_solver(GEN, Y_GEN, 0, 2, "StrongX-WeakY")
        assert sol.regime == "strong-x-weak-y"


class TestGridIdentity:
    """The order-n potential polynomial is the generator applied to the
    field monomial, so the grid operators reproduce it node by node."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6])
    def test_one_factor_generator_on_monomial(self, n):
        gaps = []
        for size in (201, 401, 801):
            g = Grid1D(-3.0, 3.0, size)
            x = g.points
            h_xn = build_bs_hamiltonian(P, g).matrix @ x**n
            want = np.array([bs_potential_residual(P, n, float(v)) for v in x])
            gaps.append(float(np.max(np.abs(h_xn - want)[1:-1])))
        if n <= 2:
            # central differences are exact on quadratics
            assert max(gaps) <= 1e-10
        else:
            for coarse, fine in zip(gaps, gaps[1:]):
                assert 3.5 <= coarse / fine <= 4.5

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
    def test_two_factor_generator_on_monomial(self, n, m):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.2, rho=-0.4)
        gaps = []
        for size in (41, 81):
            g = Grid2D(Grid1D(-1.0, 1.0, size), Grid1D(-4.0, -2.0, size))
            xs, ys = g.x_axis.points, g.y_axis.points
            monomial = (xs[:, None] ** n * ys[None, :] ** m).reshape(-1)
            got = (build_mg_hamiltonian(p, g).matrix @ monomial).reshape(g.shape)
            want = np.array(
                [[mg_polynomial_residual(p, FieldPoint(float(a), float(b), n, m), float(b))
                  for b in ys] for a in xs]
            )
            gaps.append(float(np.max(np.abs(got - want)[1:-1, 1:-1])))
        if n <= 2 and m <= 2:
            assert max(gaps) <= 1e-10
        else:
            assert 3.5 <= gaps[0] / gaps[1] <= 4.5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_grid_zero_set_follows_exact_roots_not_truncations(self, n):
        # the kinetic terms shift the vacuum: the exact roots keep them,
        # the weak- and strong-field truncations drop them
        g = Grid1D(-6.0, 6.0, 1201)
        x = g.points
        h_xn = build_bs_hamiltonian(P, g).matrix @ x**n

        def sign_changes_around(phi):
            i = int(np.searchsorted(x, phi)) - 1
            left, right = (h_xn[k] / x[k] ** (n - 2) for k in (i, i + 1))
            return np.sign(left) != np.sign(right)

        for pt in bs_vacuum_exact(P, n).roots:
            assert sign_changes_around(pt.phi_x), pt.phi_x
        truncated = bs_vacuum_weak(P, n).roots + bs_vacuum_strong(P, n).roots
        for pt in truncated:
            if pt.phi_x != 0.0:
                assert not sign_changes_around(pt.phi_x), pt.phi_x


class TestPinnedRecords:
    """One-field families, every two-field branch and both classify models,
    byte for byte."""

    @pytest.mark.parametrize(
        "solve,record,csv",
        [
            pytest.param(
                lambda: bs_vacuum_exact(P, 1),
                "regime = exact\nn = 1\ndegeneracy = 1\napproximate = False\n"
                "price_translation_broken = True\nroot_0 = 0.0, free\n"
                "root_1 = 0.6000000000000001, free\n",
                "index,phi\n0,0.0\n1,0.6000000000000001\n",
                id="exact-n1",
            ),
            pytest.param(
                lambda: bs_vacuum_exact(P, 3),
                "regime = exact\nn = 3\ndegeneracy = 2\napproximate = False\n"
                "divided_out_trivial = 0.0\nprice_translation_broken = True\n"
                "root_0 = 2.6916472867168917, free\nroot_1 = -0.8916472867168918, free\n",
                "index,phi\n0,2.6916472867168917\n1,-0.8916472867168918\n",
                id="exact-n3",
            ),
            pytest.param(
                lambda: bs_vacuum_weak(P, 1),
                "regime = weak-field\nn = 1\ndegeneracy = 0\napproximate = True\n"
                "price_translation_broken = False\nroot_0 = -0.0, free\n",
                "index,phi\n0,-0.0\n",
                id="weak-n1",
            ),
            pytest.param(
                # both roots are 0.0 at the Hermitian point, kept once
                lambda: bs_vacuum_strong(MarketParams(r=0.05, sigma_sq=0.1), 2),
                "regime = strong-field\nn = 2\ndegeneracy = 0\napproximate = True\n"
                "price_translation_broken = False\nroot_0 = 0.0, free\n",
                "index,phi\n0,0.0\n",
                id="strong-hermitian",
            ),
            pytest.param(
                lambda: bs_extremum_roots(P, 3),
                "regime = extremum\nn = 3\ndegeneracy = 2\napproximate = False\n"
                "price_translation_broken = True\nroot_0 = 1.677032961426901, free\n"
                "root_1 = -0.4770329614269007, free\n",
                "index,phi\n0,1.677032961426901\n1,-0.4770329614269007\n",
                id="extremum-n3",
            ),
        ],
    )
    def test_one_field_record_and_csv(self, solve, record, csv):
        sol = solve()
        assert sol.to_record() == record
        assert sol.to_csv() == csv

    @pytest.mark.parametrize(
        "solve,record,csv",
        [
            pytest.param(
                lambda: mg_case_solver(GEN, Y_GEN, 0, 1),
                "regime = case(0,1)\nn = 0\nm = 1\ndegeneracy = 1\napproximate = False\n"
                + BROKEN + "root_0 = free, 5.395999999999999\n",
                NO_ROWS + "0,free,5.395999999999999\n",
                id="case-0-1",
            ),
            pytest.param(
                lambda: mg_case_solver(GEN, Y_GEN, 1, 0),
                "regime = case(1,0)\nn = 1\nm = 0\ndegeneracy = 1\napproximate = False\n"
                + BROKEN + "root_0 = 0.5999999999999999, free\n",
                NO_ROWS + "0,0.5999999999999999,free\n",
                id="case-1-0",
            ),
            pytest.param(
                lambda: mg_case_solver(GEN, Y_GEN, 1, 1),
                "regime = case(1,1)\nn = 1\nm = 1\ndegeneracy = 0\napproximate = False\n"
                + CURVE_11 + BROKEN,
                NO_ROWS,
                id="case-1-1",
            ),
            pytest.param(
                lambda: mg_case_solver(HERM, Y_HERM, 1, 1),
                "regime = case(1,1)\nn = 1\nm = 1\ndegeneracy = 0\napproximate = False\n"
                + CURVE_11 + "product_value = 0.5059644256269408\n" + BROKEN,
                NO_ROWS,
                id="case-1-1-hermitian",
            ),
            pytest.param(
                lambda: mg_regime_solver(GEN, Y_GEN, 2, 3, "strong-strong"),
                "regime = strong-strong\nn = 2\nm = 3\ndegeneracy = 0\napproximate = True\n"
                + CURVE_SS + BROKEN,
                NO_ROWS,
                id="strong-strong",
            ),
            pytest.param(
                lambda: mg_regime_solver(HERM, Y_HERM, 2, 3, "strong-strong"),
                "regime = strong-strong\nn = 2\nm = 3\ndegeneracy = 0\napproximate = True\n"
                + CURVE_SS + "product_value = 0.0\n" + BROKEN,
                NO_ROWS,
                id="strong-strong-hermitian",
            ),
            pytest.param(
                lambda: mg_regime_solver(GEN, Y_GEN, 1, 2, "weak-weak"),
                "regime = weak-weak\nn = 1\nm = 2\ndegeneracy = 0\napproximate = True\n"
                "relation = phi_x*phi_y = 0\nproduct_value = 0.0\n" + BROKEN,
                NO_ROWS,
                id="weak-weak-unit-order",
            ),
            pytest.param(
                lambda: mg_regime_solver(
                    MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=0.5),
                    Y_GEN, 2, 2, "weak-weak",
                ),
                "regime = weak-weak\nn = 2\nm = 2\ndegeneracy = 0\napproximate = True\n"
                "no_real_solution = True\n",
                NO_ROWS,
                id="weak-weak-no-real",
            ),
            pytest.param(
                lambda: mg_regime_solver(GEN, Y_GEN, 2, 2, "weak-weak", phi_x=1.5),
                "regime = weak-weak\nn = 2\nm = 2\ndegeneracy = 2\napproximate = True\n"
                + BROKEN + "root_0 = 1.5, -0.5121320343559643\n"
                "root_1 = 1.5, -0.08786796564403575\n",
                NO_ROWS + "0,1.5,-0.5121320343559643\n1,1.5,-0.08786796564403575\n",
                id="weak-weak-roots",
            ),
            pytest.param(
                # the second root is zero, so it does not count toward degeneracy
                lambda: mg_regime_solver(GEN, Y_GEN, 2, 1, "weak-weak"),
                "regime = weak-weak\nn = 2\nm = 1\ndegeneracy = 1\napproximate = True\n"
                + BROKEN + "root_0 = 1.0, -0.2\nroot_1 = 1.0, -0.0\n",
                NO_ROWS + "0,1.0,-0.2\n1,1.0,-0.0\n",
                id="weak-weak-zero-root",
            ),
            pytest.param(
                lambda: mg_regime_solver(GEN, Y_GEN, 0, 2, "strong-x-weak-y"),
                "regime = strong-x-weak-y\nn = 0\nm = 2\ndegeneracy = 1\napproximate = True\n"
                "price_translation_broken = False\nvolatility_translation_broken = True\n"
                "root_0 = 0.0, -0.0014825796886582662\n",
                NO_ROWS + "0,0.0,-0.0014825796886582662\n",
                id="strong-x-weak-y",
            ),
            pytest.param(
                lambda: mg_regime_solver(GEN, Y_GEN, 2, 0, "weak-x-strong-y"),
                "regime = weak-x-strong-y\nn = 2\nm = 0\ndegeneracy = 1\napproximate = True\n"
                "limit_value = 1.0\n"
                "price_translation_broken = True\nvolatility_translation_broken = False\n"
                "root_0 = -0.6666666666666669, 0.0\n",
                NO_ROWS + "0,-0.6666666666666669,0.0\n",
                id="weak-x-strong-y",
            ),
        ],
    )
    def test_two_field_record_and_csv(self, solve, record, csv):
        sol = solve()
        assert sol.to_record() == record
        assert sol.to_csv() == csv

    @pytest.mark.parametrize(
        "classify,record",
        [
            pytest.param(
                lambda: classify_information_flow(MarketParams(r=0.05, sigma_sq=0.04)),
                "flag_sigma_sq_equals_2r = False\n"
                "value_sigma_sq_minus_2r = -0.060000000000000005\n"
                "information_flow = leaking\n",
                id="bs-leaking",
            ),
            pytest.param(
                lambda: classify_information_flow(MarketParams(r=0.05, sigma_sq=0.1)),
                "flag_sigma_sq_equals_2r = True\nvalue_sigma_sq_minus_2r = 0.0\n"
                "information_flow = preserved\n",
                id="bs-preserved",
            ),
            pytest.param(
                lambda: classify_information_flow(GEN, y=Y_GEN),
                "y = -3.2188758248682006\nflag_y_drift_zero = False\nflag_ey_equals_2r = False\n"
                "value_y_drift = 0.2698\nvalue_ey_minus_2r = -0.06\ninformation_flow = leaking\n",
                id="mg-leaking",
            ),
            pytest.param(
                lambda: classify_information_flow(HERM, y=Y_HERM),
                "y = -2.3025850929940455\nflag_y_drift_zero = True\nflag_ey_equals_2r = True\n"
                "value_y_drift = -8.673617379884035e-19\n"
                "value_ey_minus_2r = 1.3877787807814457e-17\ninformation_flow = preserved\n",
                id="mg-preserved",
            ),
        ],
    )
    def test_classify_record(self, classify, record):
        assert classify().to_record() == record
