"""Parameter containers, grids, states, config parsing, and the record writer."""

import re
import struct
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab.cli import main
from qflab.evolution import (
    EvolutionConfig,
    Payoff,
    evolve,
    kernel_row,
    price_barrier,
    price_option,
)
from qflab.martingale import martingale_residual, mc_martingale_check, solve_extended_constraint
from qflab.model import (
    MAX_NODES,
    MAX_STEPS,
    Grid1D,
    Grid2D,
    MarketParams,
    MGParams,
    SDEParams,
    StateVector,
    _computed,
    _finite_complex,
    _record,
    _within_budget,
    load_config,
    mg_cross_coef,
    mg_y_drift,
    mg_yy_coef,
    sample_extended_martingale_state,
    sample_martingale_state,
)
from qflab.operators import Potential, build_bs_hamiltonian
from qflab.sde import simulate_gbm, simulate_mg
from qflab.vacuum import (
    FieldPoint,
    bs_vacuum_exact,
    bs_vacuum_weak,
    classify_information_flow,
    mg_case_solver,
    mg_polynomial_residual,
    mg_regime_solver,
)

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

    @pytest.mark.parametrize("r", [0.0, -0.01])
    def test_rate_must_be_positive(self, r):
        with pytest.raises(ValueError, match=f"spot rate must be positive, got r={r}"):
            MGParams(r=r, lam=0.01, mu=-0.3, zeta=0.1, alpha=1.0, rho=-0.5)

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

    @pytest.mark.parametrize("x_min,x_max", [(-1e308, 1e308), (np.float64(-1e308), 1e308)])
    def test_overflowing_width_rejected(self, x_min, x_max):
        with pytest.raises(ValueError, match="spacing h is not finite"):
            Grid1D(x_min, x_max, 11)

    @pytest.mark.parametrize(
        "x_min,x_max,n",
        [(0.0, 5e-324, 3), (0.0, 1e-200, 3), (-1e300, 1e300, 3), (0.0, 1e200, 11)],
        ids=["h_zero", "inverse_square_overflows", "square_overflows", "square_overflows_n11"],
    )
    def test_spacing_outside_the_stencil_range_rejected(self, x_min, x_max, n):
        # the stencils scale by 1/h and 1/h^2: h^2 and 1/h^2 must be finite and nonzero
        with pytest.raises(ValueError, match="h\\^2 or 1/h\\^2 outside the positive finite"):
            Grid1D(x_min, x_max, n)

    @pytest.mark.parametrize("n", [5.5, 11.0, True, "11"])
    def test_non_integer_points_rejected(self, n):
        with pytest.raises(ValueError, match="integer"):
            Grid1D(0.0, 1.0, n)

    @pytest.mark.parametrize("n", [MAX_NODES + 1, 10**13, 10**400],
                             ids=["one_past", "past_memory", "past_float_range"])
    def test_node_budget(self, n):
        # refused before h is formed, and without printing the count
        with pytest.raises(ValueError, match=re.escape(
                f"invalid grid: n_points exceeds the node budget MAX_NODES = {MAX_NODES}")):
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

    def test_node_budget(self):
        # each axis within the budget, their 11 x 909091 = MAX_NODES + 1 nodes past it
        with pytest.raises(ValueError, match=re.escape(
                "invalid grid: x_axis.n_points * y_axis.n_points exceeds the node budget "
                f"MAX_NODES = {MAX_NODES}")):
            Grid2D(Grid1D(0.0, 1.0, 11), Grid1D(-1.0, 0.0, 909091))

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


class TestOverflowRule:
    """``_computed``: the one rule for a value computed past the float range."""

    def test_numpy_overflow_is_refused_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^e\\^x overflows$"):
                _computed(lambda: np.exp(np.array([1.0, 710.0])), "e^x overflows")

    @pytest.mark.parametrize("compute", [
        lambda: np.float64(0.0) / np.float64(0.0),  # invalid
        lambda: np.float64(1.0) / np.float64(0.0),  # divide
        lambda: (1.0, np.array([1.0, np.inf])),  # any item of a tuple
    ], ids=["nan", "divide", "tuple_item"])
    def test_nan_and_infinity_are_refused(self, compute):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="refused"):
                _computed(compute, "refused")

    @pytest.mark.parametrize("compute", [lambda: 1e200**2, lambda: 1.0 * 10**400],
                             ids=["float_power", "int_to_float"])
    def test_python_overflow_error_is_refused(self, compute):
        with pytest.raises(ValueError, match="past the range") as info:
            _computed(compute, "past the range")
        assert info.value.__cause__ is None and info.value.__suppress_context__

    def test_finite_value_passes_unchanged(self):
        value = np.array([1.0, -2.5, 1e308])
        assert _computed(lambda: value, "unused") is value
        pair = (0.5, np.zeros(3))
        assert _computed(lambda: pair, "unused") is pair
        assert _computed(lambda: 3, "unused") == 3

    def test_numpy_error_state_is_restored(self):
        before = np.geterr()
        _computed(lambda: 1.0, "unused")
        with pytest.raises(ValueError):
            _computed(lambda: np.exp(1000.0), "refused")
        assert np.geterr() == before


class TestFiniteComplex:
    @pytest.mark.parametrize("value,expected", [
        (1, 1 + 0j), (0.5 + 0.25j, 0.5 + 0.25j), (np.complex128(2 - 1j), 2 - 1j),
        (np.float64(-3.0), -3 + 0j),
    ])
    def test_numbers_become_complex(self, value, expected):
        got = _finite_complex(value, "z")
        assert type(got) is complex and got == expected

    @pytest.mark.parametrize("value", [True, "1", None, [1.0], complex(np.nan, 0.0),
                                       complex(0.0, np.inf), 10**400])
    def test_everything_else_is_refused(self, value):
        with pytest.raises(ValueError, match="^z must be"):
            _finite_complex(value, "z")


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

    @pytest.mark.parametrize(
        "text,message",
        [
            ("r = 0.05\nsigma_sq 0.04\n", "config line 2: expected 'key = value'"),
            ("n_points = 80.5\n", "config line 1: bad value for 'n_points': '80.5'"),
            ("r = fast\n", "config line 1: bad value for 'r': 'fast'"),
        ],
    )
    def test_malformed_line_rejected(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
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
# bounds whose spacing over 2..19 cells leaves h^2 and 1/h^2 finite floats
GRID_BOUNDS = st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)).filter(
    lambda b: b[1] - b[0] > 1e-150
)
GRIDS = st.builds(lambda b, n: Grid1D(*b, n), GRID_BOUNDS, st.integers(3, 20))
MARKETS = st.builds(MarketParams, POSITIVE, NONNEGATIVE)
VOL_MARKETS = st.builds(
    MGParams, POSITIVE, FINITE, FINITE, NONNEGATIVE, FINITE, st.floats(-1.0, 1.0)
)
NOT_MARKETS = st.one_of(SCALARS, GRIDS)
NOT_GRIDS = st.one_of(SCALARS, MARKETS)
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False)
NOT_PAYOFF_KINDS = SCALARS.filter(
    lambda k: k not in ("call", "put", "bond", "martingale-asset", "tabulated")
)
NOT_POTENTIAL_KINDS = SCALARS.filter(
    lambda k: k not in ("constant", "down-and-out", "double-knockout", "tabulated")
)


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
    # the direct forms check what the classmethods used to check
    "Payoff": (
        Payoff,
        st.tuples(st.sampled_from(["call", "put"]), NONNEGATIVE),
        [NOT_PAYOFF_KINDS, NOT_FINITE | NEGATIVE],
        lambda pf: (pf.kind, pf.strike),
    ),
    "Payoff(tabulated)": (
        lambda table: Payoff("tabulated", table=table), st.tuples(st.lists(FINITE)),
        [NOT_TABLES], _table,
    ),
    "Potential(constant)": (
        Potential, st.tuples(st.just("constant"), FINITE),
        [NOT_POTENTIAL_KINDS, NOT_FINITE], lambda v: (v.kind, v.value),
    ),
    "Potential(down-and-out)": (
        lambda level: Potential("down-and-out", level=level), st.tuples(FINITE),
        [NOT_FINITE], lambda v: (v.level,),
    ),
    "Potential(double-knockout)": (
        lambda lo, hi: Potential("double-knockout", lo=lo, hi=hi), BOUNDS,
        [NOT_FINITE] * 2, lambda v: (v.lo, v.hi),
    ),
    "Potential(tabulated)": (
        lambda table: Potential("tabulated", table=table), st.tuples(st.lists(FINITE)),
        [NOT_TABLES], _table,
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


MG = MGParams(r=0.05, lam=0.01, mu=0.005, zeta=0.1, alpha=1.0, rho=-0.5)
KERNEL_GRID = Grid1D(-1.0, 1.0, 21)
MARTINGALE_OP = build_bs_hamiltonian(MarketParams(r=0.05, sigma_sq=0.04), KERNEL_GRID)

# every entry point that takes a loose scalar, called with one scalar
# varied: each refuses anything that is not a finite real number
ENTRY_SCALARS = {
    "mg_case_solver y": lambda v: mg_case_solver(MG, v, 0, 1),
    "mg_regime_solver y": lambda v: mg_regime_solver(MG, v, 2, 2, "strong-strong"),
    "mg_regime_solver phi_x": lambda v: mg_regime_solver(MG, -3.0, 2, 2, "weak-weak", phi_x=v),
    "mg_polynomial_residual y": lambda v: mg_polynomial_residual(
        MG, FieldPoint(1.0, 1.0, 1, 1), v
    ),
    "classify_information_flow y": lambda v: classify_information_flow(MG, y=v),
    "simulate_mg drift": lambda v: simulate_mg(MG, v, 100.0, 0.04, 0.1, 0.05, 2, 0),
    "martingale_residual tol": lambda v: martingale_residual(
        MARTINGALE_OP, sample_martingale_state(KERNEL_GRID), tol=v
    ),
    "solve_extended_constraint y_lo": lambda v: solve_extended_constraint(MG, (v, 1.0)),
    "solve_extended_constraint y_hi": lambda v: solve_extended_constraint(MG, (-5.0, v)),
    "kernel_row x": lambda v: kernel_row(MarketParams(r=0.05, sigma_sq=0.04), v, 0.01,
                                         KERNEL_GRID),
}


@given(data=st.data(), name=st.sampled_from(sorted(ENTRY_SCALARS)))
@settings(max_examples=200, deadline=None)
def test_entry_points_refuse_ill_typed_scalars(data, name):
    # None is the default tol, so it is no spoiler there
    spoiler = NOT_FINITE.filter(lambda v: v is not None) if "tol" in name else NOT_FINITE
    with pytest.raises(ValueError):
        ENTRY_SCALARS[name](data.draw(spoiler, label="value"))


@pytest.mark.parametrize(
    "name,value",
    [(name, value) for name in sorted(ENTRY_SCALARS) for value in (True, "-5", 1j, np.nan)],
)
def test_entry_points_refuse_bools_strings_complex_and_nan(name, value):
    # a bool or a numeric string used to slip through some of these
    with pytest.raises(ValueError):
        ENTRY_SCALARS[name](value)


@pytest.mark.parametrize("name", sorted(ENTRY_SCALARS))
def test_entry_points_accept_a_finite_scalar(name):
    # 0.0 is a valid y, phi_x, drift, tol and kernel source; MG has a root in (-5, 1)
    ENTRY_SCALARS[name]({"y_lo": -5.0, "y_hi": 1.0}.get(name.split()[-1], 0.0))


PAST = MAX_STEPS + 1
BUDGET_P = MarketParams(r=0.05, sigma_sq=0.04)
# every stepped entry point, asked for one step past the budget; a count
# at the bound is never run, since it steps for minutes
PAST_BUDGET = {
    "price_option": lambda: price_option(BUDGET_P, Payoff.call(1.0), 1.0, KERNEL_GRID, 1 / PAST),
    "price_barrier": lambda: price_barrier(
        BUDGET_P, Payoff.call(1.0), Potential.double_knockout(-0.5, 0.5), 1.0, KERNEL_GRID,
        1 / PAST),
    "EvolutionConfig": lambda: EvolutionConfig(dt=0.01, n_steps=PAST),
    # h = 1/8, so 8 tau / h = 64 tau is exactly PAST
    "kernel_row": lambda: kernel_row(BUDGET_P, 0.0, PAST / 64, Grid1D(-1.0, 1.0, 17)),
    "simulate_gbm": lambda: simulate_gbm(SDEParams(0.05, BUDGET_P), 1.0, 1.0, 1 / PAST, 1, 0),
    "simulate_mg": lambda: simulate_mg(MG, 0.05, 1.0, 0.04, 1.0, 1 / PAST, 1, 0),
}
PAST_BUDGET_ARGV = {
    "price": ["price", "--payoff", "call", "--strike", "1", "--r", "0.05", "--sigma-sq", "0.04",
              "--t", "1", "--dt", repr(1 / PAST), "--x-min", "-1", "--x-max", "1",
              "--n-points", "21"],
    "evolve": ["evolve", "--r", "0.05", "--sigma-sq", "0.04", "--state", "bond", "--x-min", "-1",
               "--x-max", "1", "--n-points", "21", "--dt", "0.01", "--n-steps", str(PAST)],
    "simulate": ["simulate", "--model", "gbm", "--r", "0.05", "--sigma-sq", "0.04", "--drift",
                 "0.05", "--s0", "1", "--t", "1", "--dt", repr(1 / PAST), "--n-paths", "1"],
}
BUDGET_MESSAGE = rf"{PAST}(\.0)? steps \(.+\) exceed the step budget MAX_STEPS = {MAX_STEPS}"


class TestStepBudget:
    def test_bound_itself_is_accepted(self):
        assert _within_budget(MAX_STEPS, "a run") == MAX_STEPS
        with pytest.raises(ValueError, match=re.escape(
                f"{PAST} steps (a run) exceed the step budget MAX_STEPS = {MAX_STEPS}")):
            _within_budget(PAST, "a run")

    @pytest.mark.parametrize("name", sorted(PAST_BUDGET))
    def test_entry_point_refuses_one_step_past(self, name):
        with pytest.raises(ValueError, match=f"^{BUDGET_MESSAGE}$"):
            PAST_BUDGET[name]()

    @pytest.mark.parametrize("verb", sorted(PAST_BUDGET_ARGV))
    def test_verb_refuses_one_step_past(self, verb, tmp_path, capsys):
        out = tmp_path / "x.out"
        assert main([*PAST_BUDGET_ARGV[verb], "--out", str(out)]) == 2
        assert re.search(f"message = {BUDGET_MESSAGE}\n", capsys.readouterr().err)
        assert not out.exists()

    def test_long_kernel_time_refused_at_once(self):
        # 8 tau / h asks for 4e14 steps, which used to step until killed
        start = time.process_time()
        with pytest.raises(ValueError, match=f"400000000000000.0 steps .* {MAX_STEPS}"):
            kernel_row(BUDGET_P, 0.0, 1e12, Grid1D(-2.0, 2.0, 201))
        assert time.process_time() - start < 1.0


LONG = 10**5000  # past the digits str converts, 4300 unless the interpreter sets another limit
ABOVE = f"10**{sys.get_int_max_str_digits()} or more"
BELOW = f"-10**{sys.get_int_max_str_digits()} or less"
BOND_21 = StateVector(np.ones(21), KERNEL_GRID)
GBM = SDEParams(0.05, BUDGET_P)
# every refusal that names an integer input, given one too long to print
TOO_LONG_TO_PRINT = {
    "EvolutionConfig": (lambda: EvolutionConfig(dt=0.01, n_steps=LONG),
                        f"{ABOVE} steps (evolve's n_steps) exceed the step budget "
                        f"MAX_STEPS = {MAX_STEPS}"),
    "EvolutionConfig negative": (lambda: EvolutionConfig(dt=0.01, n_steps=-LONG),
                                 f"n_steps must be >= 1, got {BELOW}"),
    "Grid1D negative": (lambda: Grid1D(0.0, 1.0, -LONG),
                        f"invalid grid: need n_points >= 3, got {BELOW}"),
    "evolve boundary node": (lambda: evolve(build_bs_hamiltonian(BUDGET_P, KERNEL_GRID), BOND_21,
                                            EvolutionConfig(0.01, 1), {LONG: 1.0}),
                             f"boundary node {ABOVE} outside grid"),
    "simulate_gbm n_paths": (lambda: simulate_gbm(GBM, 1.0, 1.0, 0.1, -LONG, 0),
                             f"n_paths must be positive, got {BELOW}"),
    "simulate_gbm seed": (lambda: simulate_gbm(GBM, 1.0, 1.0, 0.1, 1, LONG),
                          f"seed must lie in [0, 2**63), got {ABOVE}"),
    "simulate_gbm path table": (lambda: simulate_gbm(GBM, 1.0, 1.0, 0.1, LONG, 0),
                                f"a path table of {ABOVE} x 11 values cannot be allocated"),
    "mc_martingale_check": (lambda: mc_martingale_check(GBM, 1.0, 1.0, -LONG, 0),
                            f"need n_paths >= 1000, got {BELOW}"),
    "bs_vacuum_exact negative order": (lambda: bs_vacuum_exact(BUDGET_P, -LONG),
                                       f"order n must be >= 0, got {BELOW}"),
    "bs_vacuum_weak order": (lambda: bs_vacuum_weak(BUDGET_P, LONG),
                             f"weak-field roots of order {ABOVE} overflow a float at r = 0.05, "
                             "sigma_sq = 0.04"),
}


@pytest.mark.parametrize("name", sorted(TOO_LONG_TO_PRINT))
def test_integer_too_long_to_print_named_by_its_bound(name):
    # not Python's "Exceeds the limit (4300 digits) for integer string conversion"
    run, message = TOO_LONG_TO_PRINT[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()


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
