"""The martingale condition in its three testable guises.

Operator form: the generator annihilates the equilibrium state, measured
as an interior residual with a grid-aware tolerance. Constraint form: the
scalar expression in y whose root makes the two-factor generator
annihilate e^{x+y}. Monte Carlo form: the discounted terminal price has
zero mean under the risk-neutral drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    IDENTITY_TOL,
    MGParams,
    SDEParams,
    StateVector,
    _computed,
    _finite,
    _integer,
    _nonnegative,
    _record,
    _shown,
    mg_cross_coef,
    mg_yy_coef,
)
from .operators import OperatorMatrix
from .sde import simulate_gbm


class NoRootError(ArithmeticError):
    """The constraint expression has no sign change on the given bracket."""


@dataclass(frozen=True)
class MartingaleReport:
    """Interior annihilation residual of an operator applied to a state."""

    residual_max: float
    residual_l2: float
    h: float
    tolerance: float
    passed: bool

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def to_record(self) -> str:
        """Flat key-value serialization, one field per line."""
        return _record([
            ("residual_max", self.residual_max),
            ("residual_l2", self.residual_l2),
            ("h", self.h),
            ("tolerance", self.tolerance),
            ("verdict", self.verdict),
        ])


@dataclass(frozen=True)
class ConstraintRoot:
    """A root of the extended-constraint expression with its bracket."""

    y_star: float
    residual: float
    bracket: tuple[float, float]


def default_tolerance(h: float, state: StateVector) -> float:
    """Grid-aware annihilation tolerance 10 * h^2 * max|state|."""
    return 10.0 * h**2 * float(np.abs(state.values).max())


def martingale_residual(
    op: OperatorMatrix, state: StateVector, tol: float | None = None
) -> MartingaleReport:
    """Interior residual of op applied to the state, with a verdict.

    The residual is measured on interior rows only (domain-edge rows use
    a different closure stencil and pinned rows are identically zero).
    ``tol`` defaults to 10 h^2 max|state| with h the coarser spacing and
    must otherwise be finite and non-negative; residual_l2 is the
    cell-weighted discrete L2 norm. A residual or a default tolerance
    that leaves the float range is refused, so no verdict rests on one.
    """
    if tol is not None:
        tol = _nonnegative(tol, "tol")
    if op.grid.size != state.grid.size:
        raise ValueError(
            f"operator size {op.grid.size} does not match state size {state.grid.size}"
        )
    h, cell = op.grid.h, op.grid.cell

    def measured() -> tuple[float, float, float]:
        res = (op.matrix @ state.values)[op.interior_mask()]
        residual_max = float(np.abs(res).max()) if res.size else 0.0
        residual_l2 = float(np.sqrt(np.sum(np.abs(res) ** 2) * cell))
        return residual_max, residual_l2, default_tolerance(h, state) if tol is None else tol

    residual_max, residual_l2, tol = _computed(
        measured, "the martingale residual of this state, or its tolerance, overflows a float"
    )
    return MartingaleReport(
        residual_max=residual_max,
        residual_l2=residual_l2,
        h=h,
        tolerance=float(tol),
        passed=residual_max <= tol,
    )


def extended_constraint_residual(p: MGParams, y) -> float:
    """lam + e^y (mu + (zeta^2/2) e^{2y(alpha-1)} + rho zeta e^{y(alpha-1/2)}).

    The two-factor generator annihilates e^{x+y} exactly where this
    expression vanishes. Entire in y; accepts scalars or arrays.
    """
    return p.lam + np.exp(y) * (p.mu + 0.5 * mg_yy_coef(p, y) + mg_cross_coef(p, y))


def solve_extended_constraint(
    p: MGParams, bracket: tuple[float, float]
) -> ConstraintRoot:
    """Brent root of the extended-constraint expression on a bracket.

    The caller owns the bracket choice (the expression can have several
    roots); its ends must be finite. Raises NoRootError when the end
    values do not change sign. The expression is refused wherever it is
    evaluated, a bracket end included, at a y where it overflows a float.
    """
    y_lo, y_hi = _finite(bracket[0], "bracket y_lo"), _finite(bracket[1], "bracket y_hi")
    if not y_lo < y_hi:
        raise ValueError(f"bracket must satisfy y_lo < y_hi, got ({y_lo}, {y_hi})")

    def f(y: float) -> float:
        return _computed(
            lambda: extended_constraint_residual(p, y),
            f"the extended constraint overflows a float at y = {y!r}",
        )

    f_lo, f_hi = f(y_lo), f(y_hi)
    if f_lo == 0.0:
        return ConstraintRoot(y_star=y_lo, residual=0.0, bracket=(y_lo, y_hi))
    if f_hi == 0.0:
        return ConstraintRoot(y_star=y_hi, residual=0.0, bracket=(y_lo, y_hi))
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoRootError(
            f"no sign change on bracket ({y_lo}, {y_hi}): "
            f"f(y_lo)={float(f_lo)!r}, f(y_hi)={float(f_hi)!r}"
        )
    # imported here, so that importing qflab does not load scipy.optimize
    from scipy.optimize import brentq

    y_star = brentq(f, y_lo, y_hi, xtol=1e-15, rtol=1e-15)
    return ConstraintRoot(y_star=float(y_star), residual=float(f(y_star)), bracket=(y_lo, y_hi))


def cross_parameter_identity(p: MGParams) -> dict:
    """Joint consistency of the mixed-term symmetry with the y-root form.

    Making the cross coupling satisfy e^{y(alpha - 3/2)} = -rho / zeta
    is y-independent exactly at alpha = 3/2, where it collapses to the
    parameter identity zeta = -rho (requiring rho <= 0). Reported as an
    identity record, never as a y-root.
    """
    y_independent = abs(p.alpha - 1.5) <= IDENTITY_TOL
    holds = y_independent and abs(p.zeta + p.rho) <= IDENTITY_TOL
    return {
        "y_independent": y_independent,
        "zeta": p.zeta,
        "minus_rho": -p.rho,
        "holds": holds,
    }


def mc_martingale_check(
    sp: SDEParams, s0: float, T: float, n_paths: int, seed: int
) -> tuple[float, float]:
    """Mean of e^{-rT} S_T minus s0, and its standard error.

    The discounted price is itself a GBM with drift phi - r, drawn by
    ``simulate_gbm`` in one step of length T: the exact lognormal
    terminal, so a zero-volatility risk-neutral run returns a statistic
    of exactly 0. The martingale property holds iff |statistic| <= 3 *
    SE. The draw shares simulate_gbm's counter-based substreams, so the
    result is identical under any worker decomposition.
    """
    if _integer(n_paths, "n_paths") < 1000:
        raise ValueError(f"need n_paths >= 1000, got {_shown(n_paths)}")
    discounted_sp = SDEParams(sp.expected_return - sp.base.r, sp.base)
    discounted = simulate_gbm(discounted_sp, s0, T, T, n_paths, seed).terminal()
    statistic = float(discounted.mean() - s0)
    se = float(discounted.std(ddof=1) / np.sqrt(n_paths))
    return statistic, se
