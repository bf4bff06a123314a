"""Monte Carlo path simulation for the one- and two-factor models.

These simulators are the independent stochastic side of the martingale
checks: log-Euler for the price (structurally positive), explicit Euler
with reflection at zero for the variance. Randomness is counter-based
(Philox) with substreams keyed by (seed, path block), so an ensemble is
bit-identical no matter how the work is distributed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator

import numpy as np

from .model import (
    MarketParams,
    MGParams,
    SDEParams,
    _finite,
    _float_reprs,
    _integer,
    _positive,
    _shown,
    _step_count,
    _write_csv,
)

PATH_BLOCK = 8192
_CHUNK_VALUES = 2**17  # normals drawn per call: 1 MiB of float64
CSV_ROW_GUARD = 2_000_000


@contextmanager
def _affordable(what: str) -> Iterator[None]:
    """Refuse path tables, as wide as the caller's path count, that cannot
    be allocated: a MemoryError, or numpy's ValueError for a shape past its
    size limit, raised inside becomes a ValueError that names ``what``."""
    try:
        yield
    except (MemoryError, ValueError):
        raise ValueError(f"{what} cannot be allocated") from None


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated paths: prices in ``paths`` (n_paths x (n_steps + 1)),
    variances in ``v_paths`` when the model carries them."""

    paths: np.ndarray
    dt: float
    seed: int
    v_paths: np.ndarray | None = None

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    def terminal(self) -> np.ndarray:
        return self.paths[:, -1]


def _path_blocks(seed: int, n_paths: int, tail: tuple) -> Iterator[tuple[slice, np.ndarray]]:
    """Consecutive row chunks of the standard normals of every block of
    PATH_BLOCK paths, as (rows, z) with z of shape (rows, *tail).

    A block draws from the Philox substream keyed by (seed, first path
    index of the block); its chunks come from that one generator in row
    order, so they hold exactly the values one draw of the whole block
    would. A chunk holds at most _CHUNK_VALUES normals (but at least one
    row) and is drawn into one buffer that the next chunk overwrites.
    """
    chunk = min(max(1, _CHUNK_VALUES // math.prod(tail)), PATH_BLOCK, n_paths)
    buf = np.empty((chunk, *tail))
    for start in range(0, n_paths, PATH_BLOCK):
        stop = min(start + PATH_BLOCK, n_paths)
        gen = np.random.Generator(np.random.Philox(key=[int(seed), start]))
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            yield slice(lo, hi), gen.standard_normal(out=buf[: hi - lo])


def _check_sizes(s0: float, T: float, dt: float, n_paths: int, seed: int) -> int:
    """The step count of an ensemble, refusing a bad start, size or seed."""
    _positive(s0, "s0")
    if _integer(n_paths, "n_paths") < 1:
        raise ValueError(f"n_paths must be positive, got {_shown(n_paths)}")
    if not 0 <= _integer(seed, "seed") < 2**63:
        raise ValueError(f"seed must lie in [0, 2**63), got {_shown(seed)}")
    return _step_count(T, dt)


def _check_rows(rows: int, force: bool = False) -> None:
    """Refuse a CSV export of more than ``CSV_ROW_GUARD`` rows unless forced."""
    if rows > CSV_ROW_GUARD and not force:
        raise ValueError(
            f"export of {_shown(rows)} rows exceeds the guard of {CSV_ROW_GUARD}; "
            "pass force=True to override"
        )


def _check_finite(table: np.ndarray, what: str, dt: float) -> None:
    """Refuse a path table that left the finite range, naming its first
    path and step that did. Every entry is >= 0 or NaN, and NaN
    propagates through the max, so one max tests the whole table."""
    if not np.isfinite(table.max()):
        path, step = np.argwhere(~np.isfinite(table))[0].tolist()
        raise ArithmeticError(
            f"{what} path {path} leaves the finite range at step {step} (t = {step * dt!r})"
        )


def simulate_gbm(
    sp: SDEParams, s0: float, T: float, dt: float, n_paths: int, seed: int
) -> PathEnsemble:
    """Log-Euler geometric Brownian paths.

    dS = phi S dt + sigma S dW with phi = sp.expected_return; stepped in
    the log so every path stays positive, with increments
    (phi - sigma_sq/2) dt + sigma sqrt(dt) z. A path is s0 times the
    exponential of their running sum, so it starts at s0 exactly. The
    requested dt is adjusted to divide the horizon evenly. Zero
    volatility gives the deterministic exponential on every path. A path
    that overflows raises ArithmeticError.
    """
    base = sp.base
    if not isinstance(base, MarketParams):
        raise ValueError("simulate_gbm needs a constant-volatility base")
    n_steps = _check_sizes(s0, T, dt, n_paths, seed)
    dt_eff = T / n_steps
    sig = np.sqrt(base.sigma_sq)
    drift = (sp.expected_return - 0.5 * base.sigma_sq) * dt_eff
    scale = sig * np.sqrt(dt_eff)

    with _affordable(f"a path table of {_shown(n_paths)} x {n_steps + 1} values"):
        paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, z in _path_blocks(seed, n_paths, (n_steps,)):
            z *= scale  # the increments are built in place: no second block in memory
            z += drift
            np.cumsum(z, axis=1, out=paths[rows, 1:])
        np.exp(paths, out=paths)
        paths *= s0
    _check_finite(paths, "price", dt_eff)
    return PathEnsemble(paths=paths, dt=dt_eff, seed=int(seed))


def simulate_mg(
    p: MGParams,
    drift: float,
    s0: float,
    v0: float,
    T: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> PathEnsemble:
    """Joint price/variance paths of the two-factor model.

    The price is log-Euler with the running variance; the variance is
    explicit Euler on dV = (lam + mu V) dt + zeta V^alpha dW2, reflected
    at zero. The two normal streams are correlated by the Cholesky
    construction z2 = rho z1 + sqrt(1 - rho^2) z_perp. A path that
    leaves the finite range (explicit Euler blows up for alpha > 1 and
    large zeta) raises ArithmeticError.
    """
    if not isinstance(p, MGParams):
        raise ValueError("simulate_mg needs two-factor parameters (MGParams)")
    drift = _finite(drift, "drift")
    _positive(v0, "v0")
    n_steps = _check_sizes(s0, T, dt, n_paths, seed)
    dt_eff = T / n_steps
    sq_dt = np.sqrt(dt_eff)
    rho_perp = np.sqrt(1.0 - p.rho**2)

    with _affordable(f"two path tables of {_shown(n_paths)} x {n_steps + 1} values"):
        s_paths = np.empty((n_paths, n_steps + 1))
        v_paths = np.empty((n_paths, n_steps + 1))
    s_paths[:, 0] = s0
    v_paths[:, 0] = v0
    # each step's normals wait in the cells its results overwrite (z1 in
    # the price table, z2 in the variance table), so a whole block steps
    # in lockstep however small the chunks it was drawn in; stepping a
    # block, not the ensemble, keeps the step temporaries at PATH_BLOCK
    for rows, z in _path_blocks(seed, n_paths, (n_steps, 2)):
        s_paths[rows, 1:] = z[:, :, 0]
        v_paths[rows, 1:] = p.rho * z[:, :, 0] + rho_perp * z[:, :, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_paths, PATH_BLOCK):
            rows = slice(start, min(start + PATH_BLOCK, n_paths))
            s_block, v_block = s_paths[rows], v_paths[rows]
            x = np.full(s_block.shape[0], np.log(s0))
            v = np.full(s_block.shape[0], float(v0))
            for k in range(1, n_steps + 1):
                z1, z2 = s_block[:, k], v_block[:, k]
                x = x + (drift - 0.5 * v) * dt_eff + np.sqrt(v) * sq_dt * z1
                v = np.abs(v + (p.lam + p.mu * v) * dt_eff + p.zeta * v**p.alpha * sq_dt * z2)
                s_block[:, k] = np.exp(x)
                v_block[:, k] = v
    # the variance leaves the finite range first; the price follows it
    _check_finite(v_paths, "variance", dt_eff)
    _check_finite(s_paths, "price", dt_eff)
    return PathEnsemble(paths=s_paths, dt=dt_eff, seed=int(seed), v_paths=v_paths)


def export_csv(ens: PathEnsemble, path, force: bool = False) -> int:
    """Long-format CSV export (path_id, t, S[, V]); returns rows written.

    Refuses ensembles larger than ``CSV_ROW_GUARD`` rows unless forced, so a
    sweep script cannot silently fill a disk. The file is streamed one path
    per block, so memory stays at one path's text however many rows are
    written; the t cells, the same on every path, are formatted once.
    """
    rows = ens.n_paths * (ens.n_steps + 1)
    _check_rows(rows, force)
    tables = (ens.paths,) if ens.v_paths is None else (ens.paths, ens.v_paths)
    times = _float_reprs(np.arange(ens.n_steps + 1) * ens.dt)
    blocks = ((repeat(str(i)), times, *(_float_reprs(table[i]) for table in tables))
              for i in range(ens.n_paths))
    _write_csv(path, "path_id,t,S,V" if ens.v_paths is not None else "path_id,t,S", blocks)
    return rows
