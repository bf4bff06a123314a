"""Parameter containers, grids, states, config parsing, and the record writer."""

import struct
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.evolution import EvolutionConfig, Payoff
from qflab.model import (
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    SDEParams,
    StateVector,
    _record,
    load_config,
    mg_cross_coef,
    mg_y_drift,
    mg_yy_coef,
    sample_extended_martingale_state,
    sample_martingale_state,
)
from qflab.operators import Potential
from qflab.vacuum import FieldPoint

HERMITIAN_TOL = 1e-12
GRID_UNIFORMITY_TOL = 1e-12


class TestMarketParams:
    def test_valid_construction(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        assert p.r == 0.05 and p.sigma_sq == 0.04

    @pytest.mark.parametrize("r", [0.0, -0.01])
    def test_rate_must_be_positive(self, r):
        with pytest.raises(ValueError):
            MarketParams(r=r, sigma_sq=0.04)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            MarketParams(r=0.05, sigma_sq=-1e-9)

    @pytest.mark.parametrize(
        "r,sigma_sq", [(np.inf, 0.04), (0.05, np.nan), (0.05, np.inf)]
    )
    def test_non_finite_rejected(self, r, sigma_sq):
        with pytest.raises(ValueError, match="finite"):
            MarketParams(r=r, sigma_sq=sigma_sq)

    def test_zero_variance_allowed(self):
        assert MarketParams(r=0.05, sigma_sq=0.0).sigma_sq == 0.0

    @pytest.mark.parametrize(
        "sigma_sq,r,expected",
        [
            (0.04, 0.05, False),
            (0.1, 0.05, True),
            (0.1 + 5e-13, 0.05, True),
            (0.1 + 1e-11, 0.05, False),
        ],
    )
    def test_hermitian_flag(self, sigma_sq, r, expected):
        p = MarketParams(r=r, sigma_sq=sigma_sq)
        assert p.hermitian() is expected, (
            f"hermitian() gave {p.hermitian()} for sigma_sq={sigma_sq}, r={r}"
        )

    def test_frozen(self):
        p = MarketParams(r=0.05, sigma_sq=0.04)
        with pytest.raises(Exception):
            p.r = 0.06


class TestMGParams:
    def test_valid_construction(self):
        p = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        assert p.lam == 0.01

    def test_negative_vol_of_vol_rejected(self):
        with pytest.raises(ValueError):
            MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=-0.1, alpha=1.0, rho=0.0)

    @pytest.mark.parametrize("rho", [1.0000001, -1.1])
    def test_correlation_bounds(self, rho):
        with pytest.raises(ValueError):
            MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=rho)

    @pytest.mark.parametrize("rho", [-1.0, 0.0, 1.0])
    def test_correlation_endpoints_allowed(self, rho):
        MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=rho)

    @pytest.mark.parametrize("field", ["r", "lam", "mu", "zeta", "alpha", "rho"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, field, bad):
        kw = dict(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)
        kw[field] = bad
        with pytest.raises(ValueError):
            MGParams(**kw)


class TestSDEParams:
    def test_wraps_market_base(self):
        base = MarketParams(r=0.05, sigma_sq=0.04)
        sp = SDEParams(expected_return=0.07, base=base)
        assert sp.expected_return == 0.07 and sp.base is base

    def test_wraps_mg_base(self):
        base = MGParams(r=0.05, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=0.0)
        assert SDEParams(expected_return=0.05, base=base).base is base

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_drift_rejected(self, bad):
        with pytest.raises(ValueError):
            SDEParams(expected_return=bad, base=MarketParams(r=0.05, sigma_sq=0.04))


class TestGrid1D:
    def test_spacing_and_endpoints(self):
        g = Grid1D(-4.0, 4.0, 801)
        assert g.h == pytest.approx(0.01, abs=1e-15)
        assert g.points[0] == -4.0 and g.points[-1] == 4.0
        assert g.size == 801

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_few_points(self, n):
        with pytest.raises(ValueError, match="invalid grid"):
            Grid1D(0.0, 1.0, n)

    def test_degenerate_interval(self):
        with pytest.raises(ValueError, match="invalid grid"):
            Grid1D(1.0, 1.0, 11)

    @pytest.mark.parametrize("x_min,x_max", [(0.0, np.inf), (-np.inf, 1.0), (-np.inf, np.inf)])
    def test_infinite_bounds_rejected(self, x_min, x_max):
        with pytest.raises(ValueError, match="finite"):
            Grid1D(x_min, x_max, 11)

    @pytest.mark.parametrize("n", [5.5, 11.0, True, "11"])
    def test_non_integer_points_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            Grid1D(0.0, 1.0, n)

    def test_numpy_integer_points_allowed(self):
        assert Grid1D(0.0, 1.0, np.int64(11)).points.shape == (11,)

    @given(
        x_min=st.floats(-50.0, 49.0),
        width=st.floats(0.01, 100.0),
        n=st.integers(3, 2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_uniform_spacing(self, x_min, width, n):
        g = Grid1D(x_min, x_min + width, n)
        gaps = np.diff(g.points)
        assert np.max(np.abs(gaps - g.h)) <= GRID_UNIFORMITY_TOL * max(1.0, abs(x_min) + width), (
            f"non-uniform spacing on [{x_min}, {x_min + width}] with {n} points"
        )


class TestGrid2D:
    def test_shape_and_size(self):
        g = Grid2D(Grid1D(0.0, 1.0, 5), Grid1D(-1.0, 0.0, 4))
        assert g.shape == (5, 4)
        assert g.size == 20

    def test_cell_and_coarser_spacing(self):
        g = Grid2D(Grid1D(0.0, 1.0, 5), Grid1D(-1.0, 0.0, 3))
        assert (g.h, g.cell) == (0.5, 0.25 * 0.5)
        assert Grid1D(0.0, 1.0, 5).cell == 0.25


class TestStateVector:
    def test_length_mismatch(self):
        g = Grid1D(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            StateVector(np.ones(4), g)

    def test_non_finite_rejected(self):
        g = Grid1D(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, np.nan, 1.0, 1.0, 1.0]), g)

    def test_complex_values_accepted(self):
        g = Grid1D(0.0, 1.0, 5)
        sv = StateVector(np.exp(1j * g.points), g)
        assert np.iscomplexobj(sv.values)

    def test_martingale_state_is_exp(self):
        g = Grid1D(-2.0, 2.0, 41)
        sv = sample_martingale_state(g)
        assert np.allclose(sv.values, np.exp(g.points), rtol=0, atol=0)

    def test_extended_state_layout(self):
        g = Grid2D(Grid1D(-1.0, 1.0, 5), Grid1D(-3.0, -2.0, 4))
        sv = sample_extended_martingale_state(g)
        for i in (0, 2, 4):
            for j in (0, 3):
                want = np.exp(g.x_axis.points[i] + g.y_axis.points[j])
                got = sv.values[i * 4 + j]
                assert got == pytest.approx(want, rel=1e-15), f"node ({i},{j})"


class TestCoefficients:
    def test_y_drift_value(self):
        p = MGParams(r=0.05, lam=0.01, mu=0.02, zeta=0.1, alpha=1.0, rho=1.0)
        y = np.log(0.04)
        # lam e^{-y} + mu - (zeta^2/2) e^{2y(alpha-1)} = 0.25 + 0.02 - 0.005
        assert mg_y_drift(p, y) == pytest.approx(0.265, rel=1e-12)

    def test_cross_coef_value(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.0, zeta=0.2, alpha=1.5, rho=-0.5)
        y = -2.0
        assert mg_cross_coef(p, y) == pytest.approx(-0.1 * np.exp(-2.0), rel=1e-12)

    def test_yy_coef_has_no_half(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.0, zeta=0.3, alpha=1.0, rho=0.0)
        assert mg_yy_coef(p, 1.7) == pytest.approx(0.09, rel=1e-12)

    def test_yy_coef_alpha_dependence(self):
        p = MGParams(r=0.05, lam=0.0, mu=0.0, zeta=0.2, alpha=1.25, rho=0.0)
        y = -1.2
        assert mg_yy_coef(p, y) == pytest.approx(0.04 * np.exp(-0.6), rel=1e-12)


class TestConfig:
    CONFIG_TEXT = """\
# one-factor block
r = 0.05
sigma_sq = 0.04

# two-factor block
lambda = 0.01
mu = -0.3
zeta = 0.1
alpha = 1.0
rho = -0.5

x_min = -4.0
x_max = 4.0
n_points = 801
y_min = -5.0
y_max = -2.0
m_points = 61
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(self.CONFIG_TEXT)
        cfg = load_config(path)
        assert cfg["r"] == 0.05
        assert cfg["lambda"] == 0.01
        assert cfg["n_points"] == 801 and isinstance(cfg["n_points"], int)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("r = 0.05\nspeed = 11\n")
        with pytest.raises(ValueError, match="speed"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "sparse.cfg"
        path.write_text("\n# note\n\nr = 0.03\n")
        assert load_config(path) == {"r": 0.03}


# anything that is not an integer (bools and integral floats included)
NOT_INTEGERS = st.one_of(st.booleans(), st.floats(), st.text(max_size=3))
SCALARS = st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3))
# anything that is not a finite real number
NOT_FINITE = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.complex_numbers(min_magnitude=1.0),
    st.lists(st.floats(), max_size=2),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)
NOT_TABLES = st.one_of(
    st.none(),
    st.text(alphabet="xyz", max_size=3),
    st.lists(st.complex_numbers(min_magnitude=1.0), min_size=1, max_size=3),
    st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1, max_size=3),
    st.just([[1.0, 2.0]]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-300, max_value=1e300)
NONNEGATIVE = st.floats(min_value=0.0, max_value=1e300)
ORDERS = st.integers(0, 50)
BOUNDS = st.tuples(FINITE, FINITE).filter(lambda b: b[0] < b[1])
GRIDS = st.builds(lambda b, n: Grid1D(*b, n), BOUNDS, st.integers(3, 20))
MARKETS = st.builds(MarketParams, POSITIVE, NONNEGATIVE)
VOL_MARKETS = st.builds(
    MGParams, POSITIVE, FINITE, FINITE, NONNEGATIVE, FINITE, st.floats(-1.0, 1.0)
)
NOT_MARKETS = st.one_of(SCALARS, GRIDS)
NOT_GRIDS = st.one_of(SCALARS, MARKETS)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


def _table(obj) -> tuple:
    return (obj.table.tolist(),)


# every public constructor that takes input: its valid argument lists, the
# strategy that spoils each argument, and how to read the arguments back
CONSTRUCTORS = {
    "MarketParams": (MarketParams, st.tuples(POSITIVE, NONNEGATIVE), [NOT_FINITE] * 2, _fields),
    "MGParams": (MGParams, VOL_MARKETS.map(_fields), [NOT_FINITE] * 6, _fields),
    "SDEParams": (
        SDEParams, st.tuples(FINITE, MARKETS | VOL_MARKETS), [NOT_FINITE, NOT_MARKETS], _fields
    ),
    "Grid1D": (Grid1D, GRIDS.map(_fields), [NOT_FINITE, NOT_FINITE, NOT_INTEGERS], _fields),
    "Grid2D": (Grid2D, st.tuples(GRIDS, GRIDS), [NOT_GRIDS] * 2, _fields),
    "Potential.constant": (
        Potential.constant, st.tuples(FINITE), [NOT_FINITE], lambda v: (v.value,)
    ),
    "Potential.down_and_out": (
        Potential.down_and_out, st.tuples(FINITE), [NOT_FINITE], lambda v: (v.level,)
    ),
    "Potential.double_knockout": (
        Potential.double_knockout, BOUNDS, [NOT_FINITE] * 2, lambda v: (v.lo, v.hi)
    ),
    "Potential.tabulated": (
        Potential.tabulated, st.tuples(st.lists(FINITE)), [NOT_TABLES], _table
    ),
    "Payoff.call": (Payoff.call, st.tuples(NONNEGATIVE), [NOT_FINITE], lambda pf: (pf.strike,)),
    "Payoff.put": (Payoff.put, st.tuples(NONNEGATIVE), [NOT_FINITE], lambda pf: (pf.strike,)),
    "Payoff.tabulated": (Payoff.tabulated, st.tuples(st.lists(FINITE)), [NOT_TABLES], _table),
    "EvolutionConfig": (
        EvolutionConfig,
        st.tuples(POSITIVE, st.integers(1, 10**6), st.sampled_from(["euclidean", "unitary"])),
        [NOT_FINITE, NOT_INTEGERS, SCALARS],
        _fields,
    ),
    "FieldPoint": (
        FieldPoint,
        st.tuples(st.none() | FINITE, st.none() | FINITE, ORDERS, st.none() | ORDERS),
        [NOT_FINITE.filter(lambda v: v is not None)] * 2 + [NOT_INTEGERS] * 2,
        _fields,
    ),
}


@given(data=st.data(), name=st.sampled_from(sorted(CONSTRUCTORS)))
@settings(max_examples=300, deadline=None)
def test_constructors_refuse_ill_typed_input(data, name):
    # valid input round-trips; one spoiled argument is refused
    make, valid, spoilers, read = CONSTRUCTORS[name]
    args = list(data.draw(valid, label="args"))
    assert read(make(*args)) == tuple(args)
    k = data.draw(st.integers(0, len(args) - 1), label="argument")
    args[k] = data.draw(spoilers[k], label="value")
    with pytest.raises(ValueError):
        make(*args)


RECORD_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(alphabet="abc XYZ-=.,_", max_size=8),
    st.floats(allow_nan=False),
    st.floats(allow_nan=False).map(np.float64),
)


@given(pairs=st.lists(st.tuples(st.from_regex(r"[a-z_]{1,8}", fullmatch=True), RECORD_VALUES)))
@settings(max_examples=200, deadline=None)
def test_record_lines(pairs):
    kept = [(key, val) for key, val in pairs if val is not None]
    lines = _record(pairs).split("\n")
    assert lines.pop() == ""
    assert len(lines) == len(kept)
    for line, (key, val) in zip(lines, kept):
        name, sep, cell = line.partition(" = ")
        assert (name, sep) == (key, " = ")
        if isinstance(val, float):
            # shortest round-trip repr, bit for bit, the sign of -0.0 included
            assert "np.float64(" not in cell
            assert struct.pack("<d", float(cell)) == struct.pack("<d", val)
        else:
            assert cell == str(val)
