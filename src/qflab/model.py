"""Domain parameters, lattices, and state containers shared by every other module.

All types are frozen dataclasses: immutable after construction and safe to
share read-only across workers. Rates are per year; the framework is
otherwise unitless (no currency handling).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral
from pathlib import Path
from typing import Union

import numpy as np

HERMITIAN_TOL = 1e-12

CONFIG_INT_KEYS = frozenset({"n_points", "m_points"})
CONFIG_KEYS = frozenset(
    {
        "r",
        "sigma_sq",
        "lambda",
        "mu",
        "zeta",
        "alpha",
        "rho",
        "x_min",
        "x_max",
        "n_points",
        "y_min",
        "y_max",
        "m_points",
    }
)


@dataclass(frozen=True)
class MarketParams:
    """Constant-rate, constant-volatility market description.

    Parameters
    ----------
    r : float
        Spot interest rate, per year. Must be positive and finite.
    sigma_sq : float
        Squared volatility, per year. Must be nonnegative and finite.
    """

    r: float
    sigma_sq: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"spot rate must be positive, got r={self.r}")
        if self.sigma_sq < 0.0:
            raise ValueError(
                f"squared volatility must be nonnegative, got sigma_sq={self.sigma_sq}"
            )
        if not (np.isfinite(self.r) and np.isfinite(self.sigma_sq)):
            raise ValueError(
                f"market parameters must be finite, got r={self.r}, sigma_sq={self.sigma_sq}"
            )

    def hermitian(self) -> bool:
        """True when drift and diffusion balance, i.e. sigma_sq equals 2 r.

        The comparison is absolute, |sigma_sq - 2 r| <= 1e-12.
        """
        return abs(self.sigma_sq - 2.0 * self.r) <= HERMITIAN_TOL


@dataclass(frozen=True)
class MGParams:
    """Parameters of the stochastic-volatility market with log-variance y.

    The instantaneous variance is e^y. The field ``lam`` holds the
    volatility drift offset (the config-file key for it is "lambda").
    Every field must be finite.

    Parameters
    ----------
    r : float
        Spot interest rate, per year.
    lam : float
        Volatility drift offset.
    mu : float
        Volatility drift slope.
    zeta : float
        Volatility-of-volatility coupling, nonnegative.
    alpha : float
        Volatility exponent.
    rho : float
        Correlation between the price and volatility noises, in [-1, 1].
    """

    r: float
    lam: float
    mu: float
    zeta: float
    alpha: float
    rho: float

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"spot rate must be positive, got r={self.r}")
        if self.zeta < 0.0:
            raise ValueError(f"zeta must be nonnegative, got zeta={self.zeta}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got rho={self.rho}")
        bad = [f.name for f in fields(self) if not np.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"volatility parameters must be finite, got non-finite {bad}")


@dataclass(frozen=True)
class SDEParams:
    """Drift and market inputs for path simulation.

    ``expected_return`` is the real-world drift of the security; the
    risk-neutral case substitutes the spot rate here explicitly at the call
    site. ``base`` carries the rest of the market description.
    """

    expected_return: float
    base: Union[MarketParams, MGParams]


@dataclass(frozen=True)
class Grid1D:
    """Uniform lattice on a closed interval of the log-price axis.

    The bounds must be finite and ``n_points`` an integer (not a bool) of
    at least 3.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not self.x_min < self.x_max:
            raise ValueError(
                f"invalid grid: need x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError(
                f"invalid grid: bounds must be finite, got [{self.x_min}, {self.x_max}]"
            )
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, Integral):
            raise ValueError(f"invalid grid: n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 3:
            raise ValueError(f"invalid grid: need n_points >= 3, got {self.n_points}")

    @property
    def h(self) -> float:
        """Lattice spacing (x_max - x_min) / (n_points - 1)."""
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    @property
    def size(self) -> int:
        return self.n_points


@dataclass(frozen=True)
class Grid2D:
    """Tensor lattice: x is log-price, y is log-variance (variance = e^y).

    Flattening is row-major with x outer and y inner: the node (i, j) maps
    to flat index i * y_axis.n_points + j.
    """

    x_axis: Grid1D
    y_axis: Grid1D

    @property
    def size(self) -> int:
        return self.x_axis.n_points * self.y_axis.n_points

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_axis.n_points, self.y_axis.n_points)

    def flat_index(self, i: int, j: int) -> int:
        return i * self.y_axis.n_points + j


@dataclass(frozen=True)
class StateVector:
    """Values aligned to a grid, one entry per lattice node.

    Complex entries are allowed (needed for unitary-mode evolution);
    every entry must be finite.
    """

    values: np.ndarray
    grid: Union[Grid1D, Grid2D]

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if not np.iscomplexobj(arr):
            arr = arr.astype(float, copy=False)
        object.__setattr__(self, "values", arr)
        if arr.ndim != 1 or arr.shape[0] != self.grid.size:
            raise ValueError(
                f"state length {arr.shape} does not match grid size {self.grid.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("state contains non-finite entries")


def sample_martingale_state(grid: Grid1D) -> StateVector:
    """The price state S = e^x sampled on the lattice."""
    return StateVector(np.exp(grid.points), grid)


def sample_extended_martingale_state(grid: Grid2D) -> StateVector:
    """The two-field state S = e^{x+y}, flattened row-major (x outer, y inner)."""
    x = grid.x_axis.points
    y = grid.y_axis.points
    vals = np.exp(x[:, None] + y[None, :]).reshape(-1)
    return StateVector(vals, grid)


# Scalar coefficient helpers shared by the operator assembly, the constraint
# algebra, and the field polynomials. All accept scalars or ndarrays in y.


def mg_y_drift(p: MGParams, y):
    """Drift coefficient of the log-variance direction.

    lam * e^{-y} + mu - (zeta^2 / 2) * e^{2 y (alpha - 1)}
    """
    return p.lam * np.exp(-y) + p.mu - 0.5 * p.zeta**2 * np.exp(2.0 * y * (p.alpha - 1.0))


def mg_cross_coef(p: MGParams, y):
    """Mixed second-derivative coefficient rho * zeta * e^{y (alpha - 1/2)}."""
    return p.rho * p.zeta * np.exp(y * (p.alpha - 0.5))


def mg_yy_coef(p: MGParams, y):
    """Pure-y second-derivative coefficient zeta^2 * e^{2 y (alpha - 1)}.

    Note the absence of a 1/2 factor; the evolution operator carries the
    full zeta^2 weight on this term.
    """
    return p.zeta**2 * np.exp(2.0 * y * (p.alpha - 1.0))


def load_config(path) -> dict:
    """Parse a plain-text ``key = value`` configuration file.

    Recognized keys: r, sigma_sq, lambda, mu, zeta, alpha, rho, x_min,
    x_max, n_points, y_min, y_max, m_points. Lines starting with '#' and
    blank lines are skipped. Unknown keys raise ValueError.
    """
    cfg: dict = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            cfg[key] = int(val) if key in CONFIG_INT_KEYS else float(val)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad value for {key!r}: {val!r}") from exc
    return cfg
