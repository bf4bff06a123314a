"""Self-test of the benchmark's checks: each must pass a good output and
flag a known-bad one.

    python3 qfbench/selftest.py

Known-bad outputs: a call curve shifted by 1 %, a path table with a row
where S <= 0, a residual ladder that halves instead of quartering, a
unitary norm drift of 1e-3, a concave dip in a call curve and a Monte
Carlo mean 6 standard errors off. It also compares the oracle's normal
distribution function and Black-Scholes prices with ``scipy.stats.norm``.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.stats import norm

import oracle

R, SIGMA_SQ, T, K, S0 = 0.05, 0.04, 1.0, 100.0, 100.0


def _call_curve() -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(math.log(S0) - 4.0, math.log(S0) + 4.0, 801)
    v = np.array([oracle.bs_call(math.exp(xi), K, R, SIGMA_SQ, T) for xi in x])
    return x, v


def _paths(rng) -> tuple[np.ndarray, np.ndarray, int, int]:
    n_paths, n_steps = 50, 20
    dt = T / n_steps
    z = rng.standard_normal((n_paths, n_steps))
    logs = np.cumsum((R - 0.5 * SIGMA_SQ) * dt + math.sqrt(SIGMA_SQ * dt) * z, axis=1)
    s = np.hstack([np.full((n_paths, 1), S0), S0 * np.exp(logs)])
    return np.repeat(np.arange(n_paths), n_steps + 1), s.reshape(-1), n_paths, n_steps


def cases():
    """(name, problems for the good output, problems for the bad one)."""
    x, v = _call_curve()
    spot = 400
    ref = oracle.bs_call(math.exp(x[spot]), K, R, SIGMA_SQ, T)
    yield ("call curve shifted by 1 %",
           oracle.check_relative(v[spot], ref, 1e-3, "good"),
           oracle.check_relative(1.01 * v[spot], ref, 1e-3, "shifted"))

    dipped = v.copy()
    dipped[spot] -= 0.05
    yield ("concave dip in a call curve",
           oracle.check_convex(x, v, "good"),
           oracle.check_convex(x, dipped, "dipped"))

    path_id, s, n_paths, n_steps = _paths(np.random.default_rng(0))
    bad = s.copy()
    bad[n_steps + 5] = 0.0
    yield ("path row with S <= 0",
           oracle.check_paths(path_id, s, n_paths, n_steps, S0, "good"),
           oracle.check_paths(path_id, bad, n_paths, n_steps, S0, "bad"))

    floors = [1e-12] * 4
    yield ("residual that halves instead of quartering",
           oracle.check_halving([1e-4, 2.5e-5, 6.25e-6, 1.5625e-6], floors, "good"),
           oracle.check_halving([1e-4, 5e-5, 2.5e-5, 1.25e-5], floors, "halving"))

    norms = np.full(401, 0.7)
    drifting = norms * (1.0 + np.linspace(0.0, 1e-3, 401))
    yield ("unitary norm drift of 1e-3",
           oracle.check_norm_drift(norms, "good"),
           oracle.check_norm_drift(drifting, "drifting"))

    mean, var = oracle.discounted_terminal_moments(S0, R, R, SIGMA_SQ, T)
    se = math.sqrt(var / 10_000)
    yield ("Monte Carlo mean 6 SE off",
           oracle.check_mean(mean + 1.0 * se, mean, se, "good"),
           oracle.check_mean(mean + 6.0 * se, mean, se, "off"))


def reference_problems() -> list:
    problems = []
    for z in np.linspace(-8.0, 8.0, 161):
        if abs(oracle.norm_cdf(z) - norm.cdf(z)) > 1e-15:
            problems.append(f"norm_cdf({z}) differs from scipy.stats.norm.cdf")
    for s in (60.0, 100.0, 150.0):
        vol = math.sqrt(SIGMA_SQ * T)
        d1 = (math.log(s / K) + (R + 0.5 * SIGMA_SQ) * T) / vol
        call = s * norm.cdf(d1) - K * math.exp(-R * T) * norm.cdf(d1 - vol)
        put = K * math.exp(-R * T) * norm.cdf(vol - d1) - s * norm.cdf(-d1)
        problems += oracle.check_relative(oracle.bs_call(s, K, R, SIGMA_SQ, T), call, 1e-12, "bs_call")
        problems += oracle.check_relative(oracle.bs_put(s, K, R, SIGMA_SQ, T), put, 1e-12, "bs_put")
    # a barrier far below the spot knocks almost nothing out
    far = oracle.down_and_out_call(S0, K, 1e-3, R, SIGMA_SQ, T)
    problems += oracle.check_relative(far, oracle.bs_call(S0, K, R, SIGMA_SQ, T), 1e-12, "far barrier")
    return problems


def main() -> int:
    ok = True
    for name, good, bad in cases():
        passed = not good and bool(bad)
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: good output {good or 'passes'}, "
              f"bad output {'flagged' if bad else 'NOT flagged'}")
    ref = reference_problems()
    ok &= not ref
    print(f"{'ok  ' if not ref else 'FAIL'} oracle against scipy.stats.norm: {ref or 'agrees'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
