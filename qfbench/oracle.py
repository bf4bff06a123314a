"""Reference values and output checks for the qflab benchmark.

Everything here is computed apart from qflab and never imports it:
closed-form Black-Scholes prices, the reflection formula for a
down-and-out call, lognormal moments of the discounted terminal price,
and the h-halving ratio of a second-order residual. Each ``check_*``
function returns a list of problems; an empty list means the output
passed. The normal distribution function comes from ``math.erfc`` so
that the workload process imports nothing beyond what qflab imports
(``selftest.py`` compares it with ``scipy.stats.norm``).
"""

from __future__ import annotations

import math

import numpy as np

# Largest negative Gamma accepted on a call or put curve. Roundoff at the
# default step reaches a few 1e-8; the coarse-step fault reaches -0.17.
GAMMA_TOL = 1e-5
# Roundoff of a stencil row applied to a state: this many units of eps
# times the sum of |weight * value| over the row (entries and products
# are each rounded). A residual pair is used for the halving ratio only
# when the finer residual is ROUNDOFF_MARGIN times above that floor, so
# roundoff moves a ratio of 4 by at most about a tenth.
ROUNDOFF_UNITS = 8.0
ROUNDOFF_MARGIN = 10.0
# Monte Carlo means are checked at 5 standard errors: at 4 a correct
# program fails a mean with probability ~6e-5, ~5e-4 per run of nine
# means (seed 1022 of monte-carlo sits at 4.3 SE while the z-scores of
# 300 seeds have mean 0.00 and spread 0.97); at 5 it is ~6e-7 per mean.
MEAN_SE = 5.0


def norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _d1_d2(s: float, k: float, r: float, sigma_sq: float, t: float) -> tuple[float, float]:
    vol = math.sqrt(sigma_sq * t)
    d1 = (math.log(s / k) + (r + 0.5 * sigma_sq) * t) / vol
    return d1, d1 - vol


def bs_call(s: float, k: float, r: float, sigma_sq: float, t: float) -> float:
    """Black-Scholes European call."""
    d1, d2 = _d1_d2(s, k, r, sigma_sq, t)
    return s * norm_cdf(d1) - k * math.exp(-r * t) * norm_cdf(d2)


def bs_put(s: float, k: float, r: float, sigma_sq: float, t: float) -> float:
    """Black-Scholes European put."""
    d1, d2 = _d1_d2(s, k, r, sigma_sq, t)
    return k * math.exp(-r * t) * norm_cdf(-d2) - s * norm_cdf(-d1)


def down_and_out_call(
    s: float, k: float, b: float, r: float, sigma_sq: float, t: float
) -> float:
    """Reflection formula for a continuously monitored down-and-out call
    with the barrier at or below the strike and no rebate."""
    if not b <= k:
        raise ValueError(f"reflection formula needs barrier <= strike, got b={b}, k={k}")
    if s <= b:
        return 0.0
    return bs_call(s, k, r, sigma_sq, t) - (b / s) ** (2.0 * r / sigma_sq - 1.0) * bs_call(
        b * b / s, k, r, sigma_sq, t
    )


def discounted_terminal_moments(
    s0: float, drift: float, r: float, sigma_sq: float, t: float
) -> tuple[float, float]:
    """Mean and variance of e^{-rT} S_T for geometric Brownian motion
    with expected return ``drift``."""
    mean = s0 * math.exp((drift - r) * t)
    return mean, mean * mean * math.expm1(sigma_sq * t)


def halving_ratios(residuals) -> list[float]:
    """Ratios of consecutive residuals on grids whose spacing halves."""
    return [a / b for a, b in zip(residuals[:-1], residuals[1:])]


def gamma_on_log_grid(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Second derivative in S = e^x at the interior nodes of a uniform
    log grid: e^{-2x} (V_xx - V_x)."""
    h = x[1] - x[0]
    vxx = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    vx = (v[2:] - v[:-2]) / (2.0 * h)
    return np.exp(-2.0 * x[1:-1]) * (vxx - vx)


def check_relative(value: float, ref: float, tol: float, what: str) -> list[str]:
    err = abs(value - ref) / abs(ref)
    if not err <= tol:
        return [f"{what}: {value!r} against {ref!r}, relative error {err:.3g} > {tol:g}"]
    return []


def check_convex(x: np.ndarray, v: np.ndarray, what: str, tol: float = GAMMA_TOL) -> list[str]:
    gamma = gamma_on_log_grid(x, v)
    worst = float(gamma.min())
    if not worst >= -tol:
        i = int(gamma.argmin()) + 1
        return [f"{what}: Gamma {worst:.3g} at S={math.exp(x[i]):.6g} is below -{tol:g}"]
    return []


def check_halving(
    residuals, floors, what: str, lo: float = 3.5, hi: float = 4.5
) -> list[str]:
    """Consecutive residual ratios in [lo, hi] wherever the finer
    residual is well above its roundoff floor."""
    problems = []
    for k, ratio in enumerate(halving_ratios(residuals)):
        if residuals[k + 1] <= ROUNDOFF_MARGIN * floors[k + 1]:
            continue
        if not lo <= ratio <= hi:
            problems.append(
                f"{what}: residual ratio {ratio:.4g} between rungs {k} and {k + 1} "
                f"is outside [{lo}, {hi}]"
            )
    return problems


def check_norm_drift(norms: np.ndarray, what: str, tol: float = 1e-8) -> list[str]:
    drift = float(np.max(np.abs(norms / norms[0] - 1.0)))
    if not drift <= tol:
        return [f"{what}: norm drift {drift:.3g} > {tol:g}"]
    return []


def check_paths(
    path_id: np.ndarray,
    s: np.ndarray,
    n_paths: int,
    n_steps: int,
    s0: float,
    what: str,
    v: np.ndarray | None = None,
) -> list[str]:
    """Long-format path table: row count, path order, S > 0, V >= 0 and
    the first S of each path equal to s0."""
    rows = n_paths * (n_steps + 1)
    if s.shape != (rows,):
        return [f"{what}: {s.shape[0]} rows, expected {n_paths} x ({n_steps} + 1) = {rows}"]
    problems = []
    expected_ids = np.repeat(np.arange(n_paths), n_steps + 1)
    if not np.array_equal(path_id, expected_ids):
        problems.append(f"{what}: path ids are not {n_paths} blocks of {n_steps + 1} rows")
    if not np.all(s > 0.0):
        problems.append(f"{what}: {int(np.sum(~(s > 0.0)))} rows with S <= 0")
    if v is not None and not np.all(v >= 0.0):
        problems.append(f"{what}: {int(np.sum(~(v >= 0.0)))} rows with V < 0")
    first = s.reshape(n_paths, n_steps + 1)[:, 0]
    if not np.all(first == s0):
        problems.append(f"{what}: first S differs from s0={s0!r} on {int(np.sum(first != s0))} paths")
    return problems


def check_mean(
    mean: float, expected: float, se: float, what: str, n_se: float = MEAN_SE
) -> list[str]:
    """Sample mean within n_se standard errors of its expected value."""
    if not abs(mean - expected) <= n_se * se:
        return [
            f"{what}: mean {mean!r} is {abs(mean - expected) / se:.2f} SE from {expected!r}"
        ]
    return []
