"""Domain parameters, lattices, and state containers shared by every other module.

All types are frozen dataclasses: immutable after construction and safe to
share read-only across workers. Rates are per year; the framework is
otherwise unitless (no currency handling).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from numbers import Complex, Integral, Real
from pathlib import Path
from typing import Callable, Iterable, Iterator, Union

import numpy as np

# a parameter identity (sigma_sq = 2 r, alpha = 3/2, zeta = -rho, e^y = 2 r,
# C(y) = 0) counts as holding when its two sides differ by at most this
IDENTITY_TOL = 1e-12

MAX_STEPS = 10**7  # the most steps a run takes: 0.72 GB at a price's 72 bytes per step
# the most nodes a grid holds: it keeps a 1D generator's 3 n + 2 entries and
# a 2D one's at most 16 per row within int32 indices
MAX_NODES = 10**7
_CSV_BLOCK = 8192  # CSV rows formatted per write

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
        if not _finite(self.r, "r") > 0.0:
            raise ValueError(f"spot rate must be positive, got r={self.r}")
        _nonnegative(self.sigma_sq, "sigma_sq")

    def hermitian(self) -> bool:
        """True when drift and diffusion balance, i.e. sigma_sq equals 2 r.

        The comparison is absolute, |sigma_sq - 2 r| <= 1e-12.
        """
        return abs(self.sigma_sq - 2.0 * self.r) <= IDENTITY_TOL


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
        for f in fields(self):
            _finite(getattr(self, f.name), f.name)
        if not self.r > 0.0:
            raise ValueError(f"spot rate must be positive, got r={self.r}")
        _nonnegative(self.zeta, "zeta")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got rho={self.rho}")


@dataclass(frozen=True)
class SDEParams:
    """Drift and market inputs for path simulation.

    ``expected_return`` is the real-world drift of the security; the
    risk-neutral case substitutes the spot rate here explicitly at the call
    site. ``base`` carries the rest of the market description. The
    drift must be finite.
    """

    expected_return: float
    base: Union[MarketParams, MGParams]

    def __post_init__(self) -> None:
        _finite(self.expected_return, "expected_return")
        if not isinstance(self.base, (MarketParams, MGParams)):
            raise ValueError(f"base must be MarketParams or MGParams, got {self.base!r}")


@dataclass(frozen=True)
class Grid1D:
    """Uniform lattice on a closed interval of the log-price axis.

    The bounds must be finite and ``n_points`` an integer (not a bool) of
    at least 3 and at most ``MAX_NODES``. The spacing h must leave h^2
    and 1/h^2, the scales of the difference stencils, positive finite
    floats.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        x_min = _finite(self.x_min, "invalid grid: x_min")
        x_max = _finite(self.x_max, "invalid grid: x_max")
        if not x_min < x_max:
            raise ValueError(f"invalid grid: need x_min < x_max, got [{x_min}, {x_max}]")
        if _integer(self.n_points, "invalid grid: n_points") < 3:
            raise ValueError(f"invalid grid: need n_points >= 3, got {_shown(self.n_points)}")
        if self.n_points > MAX_NODES:
            raise ValueError(
                f"invalid grid: n_points exceeds the node budget MAX_NODES = {MAX_NODES}"
            )
        # as Python floats, so that an overflow or underflow raises no numpy warning
        h = (x_max - x_min) / (int(self.n_points) - 1)
        if not math.isfinite(h):
            raise ValueError(
                f"invalid grid: the width of [{x_min}, {x_max}] overflows, "
                "so the spacing h is not finite"
            )
        if not (0.0 < h * h < math.inf and 1.0 / (h * h) < math.inf):
            raise ValueError(
                f"invalid grid: the spacing h = {h!r} of [{x_min}, {x_max}] leaves "
                "h^2 or 1/h^2 outside the positive finite floats"
            )

    @property
    def h(self) -> float:
        """Lattice spacing (x_max - x_min) / (n_points - 1)."""
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def cell(self) -> float:
        """Length of one lattice cell, the spacing h."""
        return self.h

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
    to flat index i * y_axis.n_points + j. It holds at most ``MAX_NODES``
    nodes.
    """

    x_axis: Grid1D
    y_axis: Grid1D

    def __post_init__(self) -> None:
        if not (isinstance(self.x_axis, Grid1D) and isinstance(self.y_axis, Grid1D)):
            raise ValueError(f"both axes must be Grid1D, got {self.x_axis!r}, {self.y_axis!r}")
        if self.size > MAX_NODES:
            raise ValueError(
                "invalid grid: x_axis.n_points * y_axis.n_points exceeds the node budget "
                f"MAX_NODES = {MAX_NODES}"
            )

    @property
    def size(self) -> int:
        return self.x_axis.n_points * self.y_axis.n_points

    @property
    def shape(self) -> tuple[int, int]:
        return (self.x_axis.n_points, self.y_axis.n_points)

    @property
    def h(self) -> float:
        """The coarser of the two axis spacings."""
        return max(self.x_axis.h, self.y_axis.h)

    @property
    def cell(self) -> float:
        """Area of one lattice cell, hx * hy."""
        return self.x_axis.h * self.y_axis.h


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
    """The price state S = e^x sampled on the lattice; refused where e^x
    overflows a float."""
    vals = _computed(
        lambda: np.exp(grid.points),
        f"the price state e^x overflows a float on [{grid.x_min}, {grid.x_max}]",
    )
    return StateVector(vals, grid)


def sample_extended_martingale_state(grid: Grid2D) -> StateVector:
    """The two-field state S = e^{x+y}, flattened row-major (x outer, y
    inner); refused where e^{x+y} overflows a float."""
    x = grid.x_axis.points
    y = grid.y_axis.points
    vals = _computed(
        lambda: np.exp(x[:, None] + y[None, :]).reshape(-1),
        f"the state e^(x+y) overflows a float at x = {grid.x_axis.x_max}, "
        f"y = {grid.y_axis.x_max}",
    )
    return StateVector(vals, grid)


def _integer(value, name: str) -> int:
    """``value`` if it is an integer, numpy's included; refuses bools and all else."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _shown(count) -> str:
    """``str(count)``, or, for an integer with more digits than ``str``
    converts (``sys.get_int_max_str_digits()``, say 4300), the bound it
    passes, "10**4300 or more" or "-10**4300 or less": a count in a
    refusal text, which must not itself fail to print."""
    try:
        return str(count)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        return f"-10**{limit} or less" if count < 0 else f"10**{limit} or more"


def _finite(value, name: str, need: str = "finite, not NaN or infinite") -> float:
    """``value`` as a float if it is a real number, numpy's included, that
    is not a bool and is finite: the one rule for every scalar input.
    Anything else is refused with ValueError; the message for a NaN, an
    infinity or an integer beyond the float range says ``name`` must be
    ``need``."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be {need}, got {value}")
    return float(value)


def _finite_complex(value, name: str) -> complex:
    """``value`` as a complex if it is a number, numpy's included, that is
    not a bool and whose real and imaginary parts pass ``_finite``: the
    complex counterpart of that rule."""
    if isinstance(value, bool) or not isinstance(value, Complex):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return complex(_finite(value.real, name), _finite(value.imag, name))


def _computed(compute: Callable, refusal: str):
    """``compute()`` with numpy's overflow, invalid and divide warnings
    silenced, the one rule for arithmetic that may leave the float range:
    a NaN or an infinity in the result (in any item of a tuple), or a
    Python OverflowError on the way, is refused with
    ValueError(``refusal``)."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            value = compute()
    except OverflowError:
        raise ValueError(refusal) from None
    parts = value if isinstance(value, tuple) else (value,)
    if not all(np.isfinite(part).all() for part in parts):
        raise ValueError(refusal)
    return value


def _positive(value, name: str) -> float:
    """``value`` as a float if it is finite and > 0; refuses all else."""
    if not _finite(value, name) > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return float(value)


def _nonnegative(value, name: str) -> float:
    """``value`` as a float if it is finite and >= 0; refuses all else."""
    need = "finite and non-negative"
    if not _finite(value, name, need) >= 0.0:
        raise ValueError(f"{name} must be {need}, got {value}")
    return float(value)


def _finite_table(values, what: str) -> np.ndarray:
    """``values`` as a 1-D float array; refuses any other shape and NaN or infinite entries."""
    refused = ValueError(f"{what} must be a 1-D table of finite values")
    try:
        table = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise refused from None
    if table.ndim != 1 or not np.all(np.isfinite(table)):
        raise refused
    return table


def _within_budget(n_steps, what: str):
    """``n_steps`` if at most ``MAX_STEPS``; refuses a larger or NaN count, naming ``what``."""
    if not n_steps <= MAX_STEPS:
        raise ValueError(
            f"{_shown(n_steps)} steps ({what}) exceed the step budget MAX_STEPS = {MAX_STEPS}"
        )
    return n_steps


def _step_count(T: float, dt: float, horizon: str = "horizon") -> int:
    """Steps of about ``dt`` that land exactly on ``T``: max(1, round(T / dt)).

    Refuses a T or a dt that is not positive and finite, a ratio that
    overflows and a count past ``MAX_STEPS``; ``horizon`` names T.
    """
    ratio = _positive(T, horizon) / _positive(dt, "dt")
    if not np.isfinite(ratio):
        raise ValueError(f"{horizon} {T} over dt {dt} gives no finite step count")
    return _within_budget(max(1, int(round(ratio))), f"{horizon} {T} over dt {dt}")


def _float_reprs(a: np.ndarray) -> list[str]:
    """``repr(float(v))`` of every value of a 1D array, through one list
    repr: the CSV cells of the path, price and flow exports."""
    return str(np.asarray(a, dtype=float).tolist())[1:-1].split(", ") if a.size else []


def _row_blocks(*arrays: np.ndarray) -> Iterator[tuple[list[str], ...]]:
    """The ``_float_reprs`` cells of equal-length 1D arrays, one tuple of
    columns per block of ``_CSV_BLOCK`` rows."""
    for start in range(0, len(arrays[0]), _CSV_BLOCK):
        yield tuple(_float_reprs(a[start:start + _CSV_BLOCK]) for a in arrays)


def _write_csv(path, header: str, blocks: Iterable[tuple[Iterable[str], ...]]) -> None:
    """The one CSV writer of the price, evolve, flow and path exports: the
    ``header`` line, then each block (a tuple of string-cell columns) as its
    rows in one write, so memory stays at one block however many are written."""
    with Path(path).open("w") as f:
        f.write(header + "\n")
        for cells in blocks:
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _record(pairs) -> str:
    """The ``key = value`` record of every report, manifest and error:
    one line per ``(key, value)`` pair whose value is not None, in order.
    A float, numpy floats included, is written as ``repr(float(v))``,
    which round-trips; any other value as ``str(v)``."""
    return "".join(
        f"{key} = {repr(float(val)) if isinstance(val, (float, np.floating)) else val}\n"
        for key, val in pairs
        if val is not None
    )


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
