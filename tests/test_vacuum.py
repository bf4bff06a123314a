"""Equilibrium-field solvers for the one- and two-factor potentials."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.model import MarketParams, MGParams
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
