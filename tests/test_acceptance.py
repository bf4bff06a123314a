"""Whole-surface checklist: the ten numbered commitments the package makes.

Each test prints one visible verdict line, so a full run reads as a
ten-point report. Oracles are computed in-test from closed forms or
from simulation schemes independent of the code under test; every
tolerance is stated next to the quantity it gates. Everything is
seeded, so a rerun reproduces the same numbers bit for bit.
"""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm

from qflab import (
    EvolutionConfig,
    Grid1D,
    Grid2D,
    MGParams,
    MarketParams,
    NoRootError,
    Payoff,
    Potential,
    SDEParams,
    StateVector,
    bs_vacuum_exact,
    bs_vacuum_strong,
    bs_vacuum_weak,
    build_bs_hamiltonian,
    build_mg_hamiltonian,
    evolve,
    extended_constraint_residual,
    hermiticity_defect,
    kernel_row,
    martingale_residual,
    mc_martingale_check,
    mg_case_solver,
    mg_regime_solver,
    price_barrier,
    price_option,
    similarity_transform,
    simulate_mg,
    solve_extended_constraint,
)

RNG_SEED = 42
MC_ORACLE_SEED = 977


def _verdict(capsys, k: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {k:2d}] {'PASS' if ok else 'FAIL'} {label}: {detail}")


def tight_variance_window(p: MGParams, y_star: float, hx: float) -> float:
    """Half-width of a variance window centered on the constraint root,
    shrunk until the constraint mismatch at the window edges is below
    the annihilation scale 2 hx^2 e^{y*}."""
    half = 0.02
    cap = 2.0 * hx**2 * np.exp(y_star)
    for _ in range(60):
        edge = max(
            abs(extended_constraint_residual(p, y_star - half)),
            abs(extended_constraint_residual(p, y_star + half)),
        )
        if edge <= cap:
            break
        half *= 0.5
    return half


def test_criterion_01_price_annihilation(capsys):
    """One-factor generator kills the asset state on a fine grid for 50
    random parameter draws; the residual decays at second order."""
    rng = np.random.default_rng(RNG_SEED)
    g = Grid1D(-4.0, 4.0, 801)
    state = StateVector(np.exp(g.points), g)
    worst_excess = 0.0
    failures = []
    for _ in range(50):
        p = MarketParams(
            r=float(rng.uniform(0.005, 0.15)),
            sigma_sq=float(rng.uniform(0.01, 0.4)),
        )
        rep = martingale_residual(build_bs_hamiltonian(p, g), state)
        worst_excess = max(worst_excess, rep.residual_max / rep.tolerance)
        if not rep.passed:
            failures.append((p.r, p.sigma_sq, rep.residual_max, rep.tolerance))

    p0 = MarketParams(r=0.05, sigma_sq=0.04)
    res = []
    for n in (201, 401, 801):
        gk = Grid1D(-4.0, 4.0, n)
        sk = StateVector(np.exp(gk.points), gk)
        res.append(martingale_residual(build_bs_hamiltonian(p0, gk), sk).residual_max)
    ratios = (res[0] / res[1], res[1] / res[2])
    order_ok = all(3.5 <= q <= 4.5 for q in ratios)

    ok = not failures and order_ok
    _verdict(
        capsys, 1, "asset-state annihilation",
        ok,
        f"50/50 draws within 10 h^2 max|state| (worst fill {worst_excess:.1e}), "
        f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f} in [3.5, 4.5]",
    )
    assert not failures, f"annihilation failures: {failures}"
    assert order_ok, f"residual halving ratios {ratios} outside [3.5, 4.5]"


def test_criterion_02_extended_annihilation(capsys):
    """Two-factor generator kills e^{x+y} at the constraint root for 20
    random parameter sets that admit one."""
    rng = np.random.default_rng(RNG_SEED)
    failures = []
    accepted = 0
    attempts = 0
    worst_fill = 0.0
    while accepted < 20 and attempts < 400:
        attempts += 1
        p = MGParams(
            r=float(rng.uniform(0.01, 0.1)),
            lam=float(rng.uniform(0.001, 0.05)),
            mu=float(rng.uniform(-0.6, -0.1)),
            zeta=float(rng.uniform(0.05, 0.3)),
            alpha=float(rng.uniform(0.5, 1.5)),
            rho=float(rng.uniform(-0.9, 0.9)),
        )
        try:
            root = solve_extended_constraint(p, (-7.0, -0.5))
        except NoRootError:
            continue
        accepted += 1
        hx = 2.0 / 200.0
        half = tight_variance_window(p, root.y_star, hx)
        g2 = Grid2D(
            Grid1D(-1.0, 1.0, 201),
            Grid1D(root.y_star - half, root.y_star + half, 201),
        )
        xx = np.repeat(g2.x_axis.points, 201)
        yy = np.tile(g2.y_axis.points, 201)
        state = StateVector(np.exp(xx + yy), g2)
        rep = martingale_residual(build_mg_hamiltonian(p, g2), state)
        worst_fill = max(worst_fill, rep.residual_max / rep.tolerance)
        if not rep.passed:
            failures.append((p, rep.residual_max, rep.tolerance))

    ok = accepted == 20 and not failures
    _verdict(
        capsys, 2, "extended-state annihilation",
        ok,
        f"{accepted}/20 parameter sets (from {attempts} draws) within the "
        f"grid-scaled tolerance, worst fill {worst_fill:.2f}",
    )
    assert accepted == 20, f"only {accepted} admissible sets in {attempts} draws"
    assert not failures, f"extended annihilation failures: {failures}"


def test_criterion_03_vacuum_root_fidelity(capsys):
    """Every closed-form vacuum root satisfies its defining polynomial
    and matches an independent scan-and-bisect root hunt, over 1000
    random draws of order and market parameters."""
    rng = np.random.default_rng(RNG_SEED)
    residual_fails = []
    match_fails = []
    for _ in range(1000):
        r = float(rng.uniform(0.005, 0.2))
        sig2 = float(rng.uniform(0.01, 0.5))
        n = int(rng.integers(1, 7))
        sol = bs_vacuum_exact(MarketParams(r=r, sigma_sq=sig2), n)
        if n == 1:
            a, b, c = r, sig2 / 2.0 - r, 0.0
        else:
            a, b, c = r, (sig2 / 2.0 - r) * n, -(sig2 / 2.0) * n * (n - 1)

        def poly(phi):
            return a * phi * phi + b * phi + c

        roots = [pt.phi_x for pt in sol.roots]
        for phi in roots:
            scale = max(1.0, abs(a * phi * phi) + abs(b * phi) + abs(c))
            if abs(poly(phi)) / scale > 1e-10:
                residual_fails.append((r, sig2, n, phi, poly(phi)))

        bound = 1.0 + (abs(b) + abs(c)) / a
        xs = np.linspace(-bound, bound, 4001)
        vals = poly(xs)
        sign = np.sign(vals)
        brute = [
            brentq(poly, xs[i], xs[i + 1], xtol=1e-14, rtol=8.9e-16)
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        ]
        brute = sorted(brute + xs[vals == 0.0].tolist())
        mine = sorted(roots)
        if len(brute) != len(mine) or any(
            abs(u - v) > 1e-8 for u, v in zip(mine, brute)
        ):
            match_fails.append((r, sig2, n, mine, brute))

    ok = not residual_fails and not match_fails
    _verdict(
        capsys, 3, "vacuum root fidelity",
        ok,
        "1000 draws, n in 1..6: polynomial residual <= 1e-10 and "
        "scan-and-bisect match <= 1e-8 on every root",
    )
    assert not residual_fails, f"residual > 1e-10 for: {residual_fails[:5]}"
    assert not match_fails, f"root-set mismatches: {match_fails[:5]}"


def test_criterion_04_named_values(capsys):
    """Hand-computed reference values for every solver family, to 1e-5."""
    p = MarketParams(r=0.05, sigma_sq=0.04)
    y = float(np.log(0.04))
    pmg = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=0.5)
    pww = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.5, rho=1.0)

    n1 = [pt.phi_x for pt in bs_vacuum_exact(p, 1).roots if pt.phi_x != 0.0]
    n2 = sorted(pt.phi_x for pt in bs_vacuum_exact(p, 2).roots)
    weak2 = bs_vacuum_weak(p, 2).roots[0].phi_x
    strong2 = [pt.phi_x for pt in bs_vacuum_strong(p, 2).roots if pt.phi_x != 0.0]
    case10 = mg_case_solver(pmg, y, 1, 0).roots[0].phi_x
    case01 = mg_case_solver(pmg, y, 0, 1).roots[0].phi_y
    ww = sorted(
        pt.phi_y for pt in mg_regime_solver(pww, y, 2, 2, "weak-weak", phi_x=1.0).roots
    )

    checks = [
        ("exact n=1 nontrivial root", n1[0], 0.6),
        ("exact n=2 lower root", n2[0], -0.47703),
        ("exact n=2 upper root", n2[1], 1.67703),
        ("weak field n=2", weak2, -0.66667),
        ("strong field n=2 nontrivial root", strong2[0], 1.2),
        ("two-factor case (1,0)", case10, 0.6),
        ("two-factor case (0,1)", case01, 5.3),
        ("coupled weak-weak lower root", ww[0], -0.34142),
        ("coupled weak-weak upper root", ww[1], -0.05858),
    ]
    bad = [(lbl, got, want) for lbl, got, want in checks if abs(got - want) > 1e-5]
    ok = not bad
    _verdict(
        capsys, 4, "named values",
        ok,
        f"{len(checks) - len(bad)}/{len(checks)} reference values within 1e-5",
    )
    assert not bad, f"named-value misses: {bad}"


def test_criterion_05_hermiticity_link(capsys):
    """The asymmetry measure vanishes exactly on the balanced-rate
    condition and scales linearly in the drift imbalance off it."""
    g = Grid1D(-2.0, 2.0, 101)
    r = 0.05
    sweep = [0.06, 0.08, 0.09, 0.1, 0.11, 0.12, 0.2]
    iff_fails = []
    for sig2 in sweep:
        d = hermiticity_defect(build_bs_hamiltonian(MarketParams(r=r, sigma_sq=sig2), g))
        on_condition = abs(sig2 - 2.0 * r) <= 1e-12
        if (d <= 1e-14) != on_condition:
            iff_fails.append((sig2, d))

    d1 = hermiticity_defect(build_bs_hamiltonian(MarketParams(r=r, sigma_sq=0.14), g))
    d2 = hermiticity_defect(build_bs_hamiltonian(MarketParams(r=r, sigma_sq=0.2), g))
    want_ratio = abs(0.14 / 2.0 - r) / abs(0.2 / 2.0 - r)
    ratio_err = abs(d1 / d2 - want_ratio)

    ok = not iff_fails and ratio_err <= 1e-10
    _verdict(
        capsys, 5, "asymmetry-condition link",
        ok,
        f"defect = 0 exactly on sigma_sq = 2r across the sweep; "
        f"off-condition ratio error {ratio_err:.2e} <= 1e-10",
    )
    assert not iff_fails, f"defect/condition disagreements: {iff_fails}"
    assert ratio_err <= 1e-10, f"defect ratio error {ratio_err:.3e} > 1e-10"


def test_criterion_06_similarity_transform(capsys):
    """The balanced symmetric operator is isospectral to the effective
    one, and conjugating by the gauge reproduces it at second order."""
    from scipy.linalg import eig, eigh

    rng = np.random.default_rng(RNG_SEED)
    g = Grid1D(-2.0, 2.0, 201)
    worst_gap = 0.0
    for _ in range(10):
        p = MarketParams(
            r=float(rng.uniform(0.005, 0.12)),
            sigma_sq=float(rng.uniform(0.02, 0.3)),
        )
        _, herm = similarity_transform(p, Potential.constant(p.r), g)
        full = build_bs_hamiltonian(p, g).matrix.toarray()
        ev_full = np.sort(eig(full[1:-1, 1:-1])[0].real)
        ev_sym = np.sort(eigh(herm.matrix.toarray()[1:-1, 1:-1])[0])
        worst_gap = max(worst_gap, float(np.max(np.abs(ev_full - ev_sym))))
    spectra_ok = worst_gap <= 1e-8

    p0 = MarketParams(r=0.05, sigma_sq=0.04)
    ratios = []
    for _ in range(5):
        coeffs = rng.uniform(-1.0, 1.0, size=3)
        errs = []
        for n in (101, 201):
            gk = Grid1D(-2.0, 2.0, n)
            xi = (gk.points - gk.x_min) / (gk.x_max - gk.x_min)
            phi = sum(c * np.sin((k + 1) * np.pi * xi) for k, c in enumerate(coeffs))
            tr, herm = similarity_transform(p0, Potential.constant(p0.r), gk)
            full = build_bs_hamiltonian(p0, gk).matrix
            s = tr.s_values.values
            lhs = np.exp(-s) * (full @ (np.exp(s) * phi))
            rhs = herm.matrix @ phi
            errs.append(float(np.abs(lhs - rhs)[2:-2].max()))
        ratios.append(errs[0] / errs[1])
    conj_ok = all(2.8 <= q <= 5.2 for q in ratios)

    ok = spectra_ok and conj_ok
    _verdict(
        capsys, 6, "similarity transform",
        ok,
        f"10 spectra agree to {worst_gap:.2e} (gate 1e-8); conjugation "
        f"error halving ratios {min(ratios):.2f}..{max(ratios):.2f} ~ 4",
    )
    assert spectra_ok, f"worst eigenvalue gap {worst_gap:.3e} > 1e-8"
    assert conj_ok, f"conjugation ratios {ratios} stray from second order"


def test_criterion_07_pricing(capsys):
    """Vanilla prices against the lognormal closed form, parity, and a
    knock-out price against a bridge-corrected simulation oracle."""
    r, sig2, s0, strike, T = 0.05, 0.04, 100.0, 100.0, 1.0
    sig = float(np.sqrt(sig2))
    p = MarketParams(r=r, sigma_sq=sig2)
    price_dt = 1.0 / 400.0

    def closed_call(s, k):
        d1 = (np.log(s / k) + (r + sig2 / 2.0) * T) / (sig * np.sqrt(T))
        d2 = d1 - sig * np.sqrt(T)
        return s * norm.cdf(d1) - k * np.exp(-r * T) * norm.cdf(d2)

    g = Grid1D(float(np.log(s0)) - 4.0, float(np.log(s0)) + 4.0, 801)
    spot = 400  # log(s0) sits exactly on this node
    call = float(price_option(p, Payoff.call(strike), T, g, price_dt).values[spot])
    put = float(price_option(p, Payoff.put(strike), T, g, price_dt).values[spot])
    bond = float(price_option(p, Payoff.bond(), T, g, price_dt).values[spot])

    call_ref = float(closed_call(s0, strike))
    call_rel = abs(call - call_ref) / call_ref
    bond_rel = abs(bond - np.exp(-r * T)) / np.exp(-r * T)
    parity_rel = abs((call - put) - (s0 - strike * np.exp(-r * T))) / (
        strike * np.exp(-r * T)
    )

    # knock-out: barrier and spot both node-exact by construction
    barrier_level = 80.0
    b = float(np.log(barrier_level))
    h = float(np.log(s0 / barrier_level)) / 45.0
    gb = Grid1D(b - 50.0 * h, b + 450.0 * h, 501)
    curve = price_barrier(p, Payoff.call(strike), Potential.down_and_out(b), T, gb, price_dt)
    dao = float(curve.values[95])

    # oracle: exact lognormal skeleton with per-step bridge survival
    n_paths, n_steps, chunk = 1_000_000, 50, 125_000
    dt = T / n_steps
    drift = (r - sig2 / 2.0) * dt
    sqdt = sig * np.sqrt(dt)
    x0 = float(np.log(s0))
    total = total_sq = 0.0
    for c in range(n_paths // chunk):
        z = np.random.Generator(
            np.random.Philox(key=[MC_ORACLE_SEED, c])
        ).standard_normal((chunk, n_steps))
        x = x0 + np.cumsum(drift + sqdt * z, axis=1)
        xprev = np.concatenate([np.full((chunk, 1), x0), x[:, :-1]], axis=1)
        expo = -2.0 * (xprev - b) * (x - b) / (sig2 * dt)
        surv = np.prod(np.where((xprev > b) & (x > b), 1.0 - np.exp(expo), 0.0), axis=1)
        pay = np.exp(-r * T) * np.maximum(np.exp(x[:, -1]) - strike, 0.0) * surv
        total += float(pay.sum())
        total_sq += float((pay**2).sum())
    mc = total / n_paths
    se = float(np.sqrt((total_sq / n_paths - mc * mc) / n_paths))

    lam_refl = 2.0 * r / sig2 - 1.0
    dao_closed = closed_call(s0, strike) - (barrier_level / s0) ** lam_refl * closed_call(
        barrier_level**2 / s0, strike
    )
    oracle_gap = abs(mc - dao_closed) / se
    dao_rel = abs(dao - mc) / mc

    ok = (
        call_rel <= 1e-3
        and bond_rel <= 1e-3
        and parity_rel <= 2e-3
        and dao_rel <= 1e-2
        and oracle_gap <= 4.0
    )
    _verdict(
        capsys, 7, "pricing",
        ok,
        f"call {call_rel:.2e} (gate 1e-3), bond {bond_rel:.2e} (1e-3), "
        f"parity {parity_rel:.2e} (2e-3), knock-out vs oracle {dao_rel:.2e} "
        f"(1e-2, oracle {mc:.4f} +- {se:.4f})",
    )
    assert call_rel <= 1e-3, f"call off by {call_rel:.3e} (got {call}, want {call_ref})"
    assert bond_rel <= 1e-3, f"bond off by {bond_rel:.3e}"
    assert parity_rel <= 2e-3, f"parity violated by {parity_rel:.3e}"
    assert oracle_gap <= 4.0, (
        f"oracle drifted {oracle_gap:.1f} standard errors from the reflection "
        f"value {dao_closed}"
    )
    assert dao_rel <= 1e-2, f"knock-out price {dao} vs oracle {mc} off {dao_rel:.3e}"


def test_criterion_08_kernel_identities(capsys):
    """The numeric propagator row integrates to the discount factor and
    reprices the asset state, at the percent scale of its stencil."""
    p = MarketParams(r=0.05, sigma_sq=0.04)
    g = Grid1D(-1.0, 1.0, 201)
    tau, x = 0.5, 0.0
    row = kernel_row(p, x, tau, g).values
    mass = float(np.sum(row) * g.h)
    forward = float(np.sum(row * np.exp(g.points)) * g.h)
    mass_rel = abs(mass - np.exp(-p.r * tau)) / np.exp(-p.r * tau)
    forward_rel = abs(forward - np.exp(x)) / np.exp(x)

    ok = mass_rel <= 5e-3 and forward_rel <= 5e-3
    _verdict(
        capsys, 8, "kernel identities",
        ok,
        f"discount {mass_rel:.2e}, reprice {forward_rel:.2e} (gates 5e-3)",
    )
    assert mass_rel <= 5e-3, f"kernel mass off by {mass_rel:.3e}"
    assert forward_rel <= 5e-3, f"kernel reprice off by {forward_rel:.3e}"


def test_criterion_09_unitary_norm(capsys):
    """Norm is conserved under oscillatory stepping exactly when the
    generator is symmetric, and leaks at a visible rate when not."""
    g = Grid1D(-2.0, 2.0, 201)
    state = np.exp(-g.points**2 / 0.08).astype(complex)
    cfg = EvolutionConfig(dt=0.002, n_steps=1000, mode="unitary")
    edges = {0: 0.0, g.n_points - 1: 0.0}
    drifts = {}
    for sig2 in (0.1, 0.04):
        op = build_bs_hamiltonian(MarketParams(r=0.05, sigma_sq=sig2), g)
        _, rep = evolve(op, StateVector(state.copy(), g), cfg, boundary_values=edges)
        drifts[sig2] = rep.norm_drift

    ok = drifts[0.1] <= 1e-8 and drifts[0.04] > 1e-4
    _verdict(
        capsys, 9, "norm conservation split",
        ok,
        f"balanced drift {drifts[0.1]:.2e} <= 1e-8; "
        f"unbalanced drift {drifts[0.04]:.2e} > 1e-4",
    )
    assert drifts[0.1] <= 1e-8, f"balanced case drifted {drifts[0.1]:.3e}"
    assert drifts[0.04] > 1e-4, f"unbalanced case only drifted {drifts[0.04]:.3e}"


def test_criterion_10_simulation_checks(capsys):
    """Discounted-terminal statistic inside 3 SE for at least 95 of 100
    seeds, the zero-noise variance path against its exact ODE value,
    and correlation recovery from standardized increments."""
    sp = SDEParams(expected_return=0.05, base=MarketParams(r=0.05, sigma_sq=0.04))
    wins = 0
    for seed in range(100):
        stat, se = mc_martingale_check(sp, 100.0, 1.0, 20_000, seed)
        if abs(stat) <= 3.0 * se:
            wins += 1

    pz = MGParams(r=0.05, lam=0.01, mu=-0.5, zeta=0.0, alpha=1.0, rho=0.0)
    dt = 1e-3
    ens = simulate_mg(pz, drift=0.05, s0=100.0, v0=0.04, T=1.0, dt=dt, n_paths=16, seed=7)
    v_final = ens.v_paths[:, -1]
    ode_value = (0.04 + pz.lam / pz.mu) * np.exp(pz.mu * 1.0) - pz.lam / pz.mu
    spread = float(np.ptp(v_final))
    ode_err = float(abs(v_final[0] - ode_value))

    rho = 0.7
    pc = MGParams(r=0.05, lam=0.01, mu=-0.5, zeta=0.1, alpha=1.0, rho=rho)
    ens2 = simulate_mg(
        pc, drift=0.05, s0=100.0, v0=0.04, T=0.5, dt=0.01, n_paths=20_000, seed=5
    )
    x = np.log(ens2.paths)
    v_prev = ens2.v_paths[:, :-1]
    z1 = (np.diff(x, axis=1) - (0.05 - v_prev / 2.0) * ens2.dt) / np.sqrt(
        v_prev * ens2.dt
    )
    z2 = (np.diff(ens2.v_paths, axis=1) - (pc.lam + pc.mu * v_prev) * ens2.dt) / (
        pc.zeta * v_prev**pc.alpha * np.sqrt(ens2.dt)
    )
    rho_hat = float(np.corrcoef(z1.ravel(), z2.ravel())[0, 1])
    rho_se = (1.0 - rho * rho) / np.sqrt(z1.size)
    rho_err = abs(rho_hat - rho)

    ok = wins >= 95 and spread == 0.0 and ode_err <= 5e-6 and rho_err <= 3.0 * rho_se
    _verdict(
        capsys, 10, "simulation checks",
        ok,
        f"{wins}/100 seeds inside 3 SE (need 95); zero-noise variance off "
        f"by {ode_err:.1e} (gate 5e-6 at dt={dt}); rho recovered to "
        f"{rho_err:.1e} (3 SE = {3 * rho_se:.1e})",
    )
    assert wins >= 95, f"only {wins}/100 seeds inside 3 SE"
    assert spread == 0.0, f"zero-noise variance paths spread {spread:.3e}"
    assert ode_err <= 5e-6, f"variance ODE error {ode_err:.3e} > 5e-6"
    assert rho_err <= 3.0 * rho_se, f"rho error {rho_err:.3e} > {3 * rho_se:.3e}"
