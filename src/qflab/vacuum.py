"""Field-expansion potential polynomials and their equilibrium solutions.

The equilibrium state is rewritten as a power of a field value and each
order's vanishing condition becomes a polynomial in the field. This
module evaluates those polynomials with explicit power conventions,
solves every closed-form family (exact, weak-field, strong-field,
extremum-shifted, and the two-field cases and regimes), and classifies
the information-flow / symmetry-breaking status of a parameter point.

Power conventions: 0^0 = 1, and a term whose coefficient is exactly zero
never evaluates its power (so order n = 1 skips its inverse-power term
instead of failing). A nonzero coefficient multiplying a negative power
of a zero field value is an error, and so is a term that overflows a
float, whatever the field value's type.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .model import (
    MarketParams, MGParams, _integer, _real, _record, mg_cross_coef, mg_y_drift, mg_yy_coef
)

FLAG_TOL = 1e-12

REGIME_EXACT = "exact"
REGIME_WEAK = "weak-field"
REGIME_STRONG = "strong-field"
REGIME_EXTREMUM = "extremum"
REGIME_STRONG_STRONG = "strong-strong"
REGIME_WEAK_WEAK = "weak-weak"
REGIME_STRONG_X_WEAK_Y = "strong-x-weak-y"
REGIME_WEAK_X_STRONG_Y = "weak-x-strong-y"

# one entry per regime, keyed by its name without separators
_REGIMES = {
    tag.replace("-", ""): tag
    for tag in (
        REGIME_STRONG_STRONG, REGIME_WEAK_WEAK, REGIME_STRONG_X_WEAK_Y, REGIME_WEAK_X_STRONG_Y
    )
}


class SingularRegimeError(ArithmeticError):
    """A regime formula has no finite value at these parameters."""


@dataclass(frozen=True)
class FieldPoint:
    """One field configuration. A value of None marks a direction the
    solution leaves unconstrained (any value solves the equation); a
    given value must be finite. The orders are integers >= 0, and ``m``
    may be None for a one-field point."""

    phi_x: float | None
    phi_y: float | None = None
    n: int = 0
    m: int | None = None

    def __post_init__(self) -> None:
        _orders(self.n, self.m)
        values = (self.phi_x, self.phi_y)
        if any(v is not None and not np.isfinite(_real(v, "field value")) for v in values):
            raise ValueError(f"field values must be finite, got {self.phi_x}, {self.phi_y}")


@dataclass(frozen=True)
class VacuumSolution:
    """Solution set of one potential polynomial.

    ``degeneracy`` counts distinct nontrivial (nonzero) roots.
    ``divided_out_trivial`` records a zero root removed by the exact
    solver's division step; ``approximate`` marks regime truncations.
    Curve-valued solutions carry ``relation``/``curve_coeffs`` and a
    ``product_value`` when the symmetric parameter conditions collapse
    the curve to a product constraint. Symmetry verdicts are None when
    the corresponding generator does not apply.
    """

    roots: tuple[FieldPoint, ...]
    regime: str
    n: int | None = None
    m: int | None = None
    degeneracy: int = 0
    price_translation_broken: bool | None = None
    volatility_translation_broken: bool | None = None
    approximate: bool = False
    no_real_solution: bool = False
    divided_out_trivial: float | None = None
    relation: str | None = None
    curve_coeffs: dict | None = None
    product_value: float | None = None
    limit_value: float | None = None
    notes: tuple[str, ...] = ()

    def to_record(self) -> str:
        """Flat key-value serialization; unset fields are omitted, and
        ``no_real_solution`` is written only when it holds."""
        return _record([
            ("regime", self.regime),
            ("n", self.n),
            ("m", self.m),
            ("degeneracy", self.degeneracy),
            ("approximate", self.approximate),
            ("no_real_solution", True if self.no_real_solution else None),
            ("divided_out_trivial", self.divided_out_trivial),
            ("relation", self.relation),
            ("product_value", self.product_value),
            ("limit_value", self.limit_value),
            ("price_translation_broken", self.price_translation_broken),
            ("volatility_translation_broken", self.volatility_translation_broken),
            *(
                (f"root_{k}", f"{_cell(pt.phi_x)}, {_cell(pt.phi_y)}")
                for k, pt in enumerate(self.roots)
            ),
        ])

    def to_csv(self) -> str:
        """One root per row for sweep plotting: ``index,phi`` for a
        one-field solution (``m`` None), ``index,phi_x,phi_y`` otherwise."""
        one_field = self.m is None
        lines = ["index,phi" if one_field else "index,phi_x,phi_y"]
        for k, pt in enumerate(self.roots):
            cells = (pt.phi_x,) if one_field else (pt.phi_x, pt.phi_y)
            lines.append(",".join([str(k), *map(_cell, cells)]))
        return "\n".join(lines) + "\n"


def _cell(v: float | None) -> str:
    """A root's field value as written: "free" when unconstrained."""
    return "free" if v is None else repr(float(v))


def _orders(n: int, m: int | None) -> None:
    """Refuse expansion orders that are not integers >= 0 (bools
    included); ``m`` may be None for a one-field point."""
    for name, order in (("n", n), ("m", m)):
        if order is not None and _integer(order, f"order {name}") < 0:
            raise ValueError(f"order {name} must be >= 0, got {order}")


@dataclass(frozen=True)
class RegimeReport:
    """Hermiticity flags of a parameter point and the resulting
    information-flow verdict (preserved iff all applicable flags hold)."""

    flags: dict
    values: dict
    preserved: bool
    y: float | None = None

    @property
    def verdict(self) -> str:
        return "preserved" if self.preserved else "leaking"

    def to_record(self) -> str:
        return _record([
            ("y", self.y),
            *((f"flag_{name}", ok) for name, ok in self.flags.items()),
            *((f"value_{name}", val) for name, val in self.values.items()),
            ("information_flow", self.verdict),
        ])


def _term(coeff: float, base: float | None, exponent: int, label: str) -> float:
    """One polynomial term under the module's power conventions."""
    if coeff == 0.0:
        return 0.0
    if exponent == 0:
        return coeff
    if base is None:
        raise ValueError(f"term {label}: unconstrained field value exercised")
    if base == 0.0:
        if exponent < 0:
            raise ValueError(
                f"term {label}: nonzero coefficient multiplies a negative power "
                "of a zero field value"
            )
        return 0.0
    try:
        with np.errstate(over="raise"):
            value = coeff * base**exponent
    except (OverflowError, FloatingPointError):
        value = math.inf
    if math.isinf(value) and math.isfinite(coeff):
        raise ValueError(
            f"term {label}: field value {base} to the power {exponent} overflows a float"
        )
    return value


def bs_potential_residual(p: MarketParams, n: int, phi: float) -> float:
    """Order-n potential polynomial at field value phi:

    -(sigma_sq/2) n(n-1) phi^{n-2} + (sigma_sq/2 - r) n phi^{n-1} + r phi^n
    """
    _orders(n, None)
    half = 0.5 * p.sigma_sq
    t1 = _term(-half * n * (n - 1), phi, n - 2, "diffusion")
    t2 = _term((half - p.r) * n, phi, n - 1, "drift")
    t3 = _term(p.r, phi, n, "rate")
    return t1 + t2 + t3


def _quadratic_real_roots(a: float, b: float, c: float) -> tuple[list[float], bool]:
    """Real roots of a x^2 + b x + c, with a no-real-solution flag."""
    if a == 0.0:
        if b == 0.0:
            return ([], c != 0.0)
        return ([-c / b], False)
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return ([], True)
    sq = np.sqrt(disc)
    # Citardauq pairing avoids cancellation for the small root
    if b >= 0.0:
        r1 = (-b - sq) / (2.0 * a)
    else:
        r1 = (-b + sq) / (2.0 * a)
    r2 = c / (a * r1) if r1 != 0.0 else -b / a
    return ([float(r1), float(r2)], False)


def _solution(
    regime: str,
    n: int,
    m: int | None,
    roots: Iterable[FieldPoint] = (),
    *,
    x_is_scale: bool = False,
    **fields,
) -> VacuumSolution:
    """The solution of every family: its degeneracy and symmetry verdicts
    follow from its roots by one rule.

    Equal roots are kept once (0.0 equals -0.0). A translation symmetry
    is broken when some root leaves its field nonzero or unconstrained;
    a curve (a ``relation``) breaks both, no real solution leaves both
    verdicts None, and a one-field solution (``m`` None) has no
    volatility verdict. Degeneracy counts the roots with a nonzero
    solved field; ``x_is_scale`` marks phi_x as a scale the caller set
    rather than a solved value. The orders must be integers >= 0.
    """
    _orders(n, m)
    roots = tuple(dict.fromkeys(roots))
    if fields.get("relation") is not None:
        price = vol = True
    elif fields.get("no_real_solution"):
        price = vol = None
    else:
        price = any(pt.phi_x is None or pt.phi_x != 0.0 for pt in roots)
        vol = any(pt.phi_y is None or pt.phi_y != 0.0 for pt in roots)

    def solved_nonzero(pt: FieldPoint) -> bool:
        solved = (pt.phi_y,) if x_is_scale else (pt.phi_x, pt.phi_y)
        return any(v is not None and v != 0.0 for v in solved)

    return VacuumSolution(
        roots=roots, regime=regime, n=n, m=m,
        degeneracy=sum(1 for pt in roots if solved_nonzero(pt)),
        price_translation_broken=price,
        volatility_translation_broken=None if m is None else vol,
        **fields,
    )


def bs_vacuum_exact(p: MarketParams, n: int) -> VacuumSolution:
    """Exact equilibrium field values at order n.

    For n >= 2 solves the quadratic obtained by dividing the order-n
    polynomial by phi^{n-2}:

        r phi^2 + (sigma_sq/2 - r) n phi - (sigma_sq/2) n (n-1) = 0.

    Zero roots removed by that division (n >= 3) are reported as
    ``divided_out_trivial`` metadata. For n = 1 returns {0, 1 -
    sigma_sq/2r}; the 0 there is the multiplied-in trivial branch and
    satisfies the divided (quadratic) form rather than the literal
    order-1 polynomial.
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    notes: tuple[str, ...] = ()
    if n == 1:
        roots, no_real = [0.0, float(1.0 - p.sigma_sq / (2.0 * p.r))], False
        notes = ("root 0.0 is the multiplied-in trivial branch",)
    else:
        b = (0.5 * p.sigma_sq - p.r) * n
        roots, no_real = _quadratic_real_roots(p.r, b, -0.5 * p.sigma_sq * n * (n - 1))
    return _solution(
        REGIME_EXACT, n, None, [FieldPoint(r, n=n) for r in roots],
        no_real_solution=no_real, divided_out_trivial=0.0 if n >= 3 else None, notes=notes,
    )


def bs_vacuum_weak(p: MarketParams, n: int) -> VacuumSolution:
    """Weak-field truncation: the single root sigma_sq (n-1) / (sigma_sq - 2r).

    Trivial (0) at n = 1 for any parameters and at sigma_sq = 0. The
    formula has a pole at sigma_sq = 2r, raised as SingularRegimeError.
    """
    _orders(n, None)
    denom = p.sigma_sq - 2.0 * p.r
    if denom == 0.0:
        raise SingularRegimeError(
            "weak-field formula is singular at sigma_sq = 2 r"
        )
    root = FieldPoint(float(p.sigma_sq * (n - 1) / denom), n=n)
    return _solution(REGIME_WEAK, n, None, (root,), approximate=True)


def bs_vacuum_strong(p: MarketParams, n: int) -> VacuumSolution:
    """Strong-field truncation: roots {0, (1 - sigma_sq/2r) n}.

    Collapses to the unique trivial vacuum at sigma_sq = 2r; at n = 1 the
    nontrivial root coincides with the exact solver's.
    """
    nontrivial = float((1.0 - p.sigma_sq / (2.0 * p.r)) * n)
    roots = (FieldPoint(0.0, n=n), FieldPoint(nontrivial, n=n))
    return _solution(REGIME_STRONG, n, None, roots, approximate=True)


def bs_extremum_roots(p: MarketParams, n: int) -> VacuumSolution:
    """Roots of the extremum-shifted quadratic

        phi^2 + (sigma_sq/2r - 1)(n-1) phi - (sigma_sq/2r)(n-1)(n-2) = 0.

    Trivial at n = 1 (both non-constant coefficients vanish).
    """
    if n < 1:
        raise ValueError(f"order n must be >= 1, got {n}")
    ratio = p.sigma_sq / (2.0 * p.r)
    if n == 1:
        roots, no_real = [0.0], False
    else:
        b = (ratio - 1.0) * (n - 1)
        roots, no_real = _quadratic_real_roots(1.0, b, -ratio * (n - 1) * (n - 2))
    return _solution(
        REGIME_EXTREMUM, n, None, [FieldPoint(r, n=n) for r in roots], no_real_solution=no_real
    )


def extremum_quadratic_residual(p: MarketParams, n: int, phi: float) -> float:
    """Defining residual of the extremum family (used by fidelity checks)."""
    ratio = p.sigma_sq / (2.0 * p.r)
    return phi**2 + (ratio - 1.0) * (n - 1) * phi - ratio * (n - 1) * (n - 2)


def mg_polynomial_residual(p: MGParams, point: FieldPoint, y: float) -> float:
    """Two-field potential polynomial at (phi_x, phi_y, n, m) and log-variance y:

        -(e^y/2) n(n-1) phi_x^{n-2} phi_y^m
        - (r - e^y/2) n phi_x^{n-1} phi_y^m
        - C(y) m phi_x^n phi_y^{m-1}
        - rho zeta e^{y(alpha-1/2)} n m phi_x^{n-1} phi_y^{m-1}
        - zeta^2 e^{2y(alpha-1)} m(m-1) phi_x^n phi_y^{m-2}
        + r phi_x^n phi_y^m

    with C(y) = lam e^{-y} + mu - (zeta^2/2) e^{2y(alpha-1)}. ``y`` must
    be finite and keep e^y and C(y) finite.
    """
    n = point.n
    m = point.m if point.m is not None else 0
    y, ey, cy, _ = _two_field_point(p, y)
    phi_x, phi_y = point.phi_x, point.phi_y

    def pair(cx: float, ex: int, ey_: int, label: str) -> float:
        """coeff * phi_x^ex * phi_y^ey_ under the power conventions."""
        if cx == 0.0:
            return 0.0
        px = _term(1.0, phi_x, ex, label + "/x")
        return _term(cx * px, phi_y, ey_, label + "/y") if px != 0.0 else 0.0

    t1 = pair(-0.5 * ey * n * (n - 1), n - 2, m, "xx")
    t2 = pair(-(p.r - 0.5 * ey) * n, n - 1, m, "x")
    t3 = pair(-cy * m, n, m - 1, "y")
    t4 = pair(-float(mg_cross_coef(p, y)) * n * m, n - 1, m - 1, "xy")
    t5 = pair(-float(mg_yy_coef(p, y)) * m * (m - 1), n, m - 2, "yy")
    t6 = pair(p.r, n, m, "rate")
    return t1 + t2 + t3 + t4 + t5 + t6


def _two_field_point(p: MGParams, y: float) -> tuple[float, float, float, dict]:
    """The checked log-variance y with e^y, C(y) and the Hermiticity flags
    of the two-field point: C(y) = 0 and e^y = 2r, each to FLAG_TOL.

    Refuses a y at which e^y or C(y) is not a finite float.
    """
    if not np.isfinite(y):
        raise ValueError(f"log-variance y must be finite, got {y}")
    y = float(y)
    with np.errstate(over="ignore", invalid="ignore"):
        ey = float(np.exp(y))
        cy = float(mg_y_drift(p, y))
    if not (np.isfinite(ey) and np.isfinite(cy)):
        raise ValueError(
            f"log-variance y = {y!r} leaves e^y = {ey!r} or C(y) = {cy!r} non-finite"
        )
    flags = {
        "y_drift_zero": abs(cy) <= FLAG_TOL,
        "ey_equals_2r": abs(ey - 2.0 * p.r) <= FLAG_TOL,
    }
    return y, ey, cy, flags


def mg_case_solver(p: MGParams, y: float, n: int, m: int) -> VacuumSolution:
    """Closed-form solutions of the low-order two-field cases.

    (0,1): phi_y = C(y)/r with phi_x unconstrained. (1,0): phi_x =
    1 - e^y/2r with phi_y unconstrained. (1,1): the bilinear solution
    curve; under the full symmetric parameter conditions (e^y = 2r and
    C(y) = 0) it collapses to the product constraint
    phi_x phi_y = rho zeta e^{y(alpha-1/2)} / r. ``y`` must be finite and
    keep e^y and C(y) finite.
    """
    y, ey, cy, flags = _two_field_point(p, y)
    if (n, m) == (0, 1):
        return _solution("case(0,1)", n, m, (FieldPoint(None, cy / p.r, n, m),))
    if (n, m) == (1, 0):
        return _solution("case(1,0)", n, m, (FieldPoint(1.0 - ey / (2.0 * p.r), None, n, m),))
    if (n, m) == (1, 1):
        cross = float(mg_cross_coef(p, y))
        return _solution(
            "case(1,1)", n, m,
            relation=(
                "r*phi_x*phi_y - (r - e^y/2)*phi_y - C(y)*phi_x "
                "- rho*zeta*e^{y(alpha-1/2)} = 0"
            ),
            curve_coeffs={
                "phi_x_phi_y": p.r,
                "phi_y": -(p.r - 0.5 * ey),
                "phi_x": -cy,
                "const": -cross,
            },
            product_value=cross / p.r if all(flags.values()) else None,
            notes=("solution set is a curve; degeneracy is continuous",),
        )
    raise ValueError(f"unsupported case (n, m) = ({n}, {m}); expected (0,1), (1,0), (1,1)")


def mg_regime_solver(
    p: MGParams, y: float, n: int, m: int, regime: str, phi_x: float = 1.0
) -> VacuumSolution:
    """Truncated-regime solutions of the two-field polynomial.

    Regime formulas are evaluated as given, flagged approximate; no
    in-regime validation is attempted. ``regime`` is matched without
    case and without ``-`` or ``_`` separators. ``phi_x`` sets the free
    price field scale where a branch needs one (the coupled weak-weak
    roots are linear in it) and must be finite; the orders must be
    integers >= 0.
    Division by zero in a branch raises SingularRegimeError naming the
    offending condition. ``y`` must be finite and keep e^y and C(y)
    finite.
    """
    y, ey, cy, flags = _two_field_point(p, y)
    tag = _REGIMES.get(regime.replace("-", "").replace("_", "").lower())
    if tag is None:
        raise ValueError(f"unknown regime {regime!r}")
    _orders(n, m)
    if not np.isfinite(phi_x):
        raise ValueError(f"price field scale phi_x must be finite, got {phi_x}")
    solution = functools.partial(_solution, tag, n, m, approximate=True)

    if tag == REGIME_STRONG_STRONG:
        a_y = (1.0 - ey / (2.0 * p.r)) * n
        a_x = (cy / p.r) * m
        return solution(
            relation="phi_x*phi_y = a_y*phi_y + a_x*phi_x",
            curve_coeffs={"a_y": a_y, "a_x": a_x},
            product_value=0.0 if all(flags.values()) else None,
        )

    if tag == REGIME_WEAK_WEAK:
        if n == 1:
            return solution(
                relation="phi_x*phi_y = 0",
                product_value=0.0,
                notes=("unit order collapses the coupled branch to the product form",),
            )
        if p.rho == 0.0:
            raise SingularRegimeError(
                "coupled weak-weak discriminant is singular at rho = 0"
            )
        if n == 0 or m == 0:
            raise SingularRegimeError(
                "coupled weak-weak formula needs n, m >= 2 (division by n*m)"
            )
        pref = p.rho * p.zeta * float(np.exp(y * (p.alpha - 1.5))) * m * phi_x / (1.0 - n)
        disc = 1.0 - 2.0 * (m - 1) * (n - 1) / (p.rho**2 * n * m)
        if disc < 0.0:
            return solution(no_real_solution=True)
        sq = float(np.sqrt(disc))
        r1 = pref * (1.0 + sq)
        r2 = pref * (1.0 - sq)
        roots = (FieldPoint(phi_x, r1, n, m), FieldPoint(phi_x, r2, n, m))
        return solution(roots, x_is_scale=True)

    if tag == REGIME_STRONG_X_WEAK_Y:
        if flags["y_drift_zero"]:
            raise SingularRegimeError(
                "strong-x/weak-y denominator C(y) vanishes at these parameters"
            )
        phi_y = float(mg_yy_coef(p, y)) * (1 - m) / cy
        return solution((FieldPoint(phi_x=0.0, phi_y=phi_y, n=n, m=m),))

    # weak-x / strong-y
    denom = p.r - 0.5 * ey
    if abs(denom) <= FLAG_TOL:
        raise SingularRegimeError("weak-x/strong-y denominator r - e^y/2 vanishes")
    val = (1 - n) * (0.5 * ey) / denom
    return solution(
        (FieldPoint(phi_x=val, phi_y=0.0, n=n, m=m),),
        limit_value=float(n - 1),
        notes=("limit_value is the y -> infinity value, parameter-free",),
    )


def classify_information_flow(p, y: float | None = None) -> RegimeReport:
    """Hermiticity flags and the information-flow verdict.

    One-factor parameters: the single flag sigma_sq = 2r (``MarketParams.
    hermitian``). Two-factor parameters (a y that keeps e^y and C(y)
    finite is required): the y-drift C(y) must vanish and e^y must equal
    2r. Preserved iff all applicable flags hold; the raw
    flag expressions are echoed so a leaking verdict shows its source.
    """
    if isinstance(p, MarketParams):
        flags = {"sigma_sq_equals_2r": p.hermitian()}
        values = {"sigma_sq_minus_2r": float(p.sigma_sq - 2.0 * p.r)}
        return RegimeReport(flags=flags, values=values, preserved=all(flags.values()), y=None)
    if isinstance(p, MGParams):
        if y is None:
            raise ValueError("two-factor classification requires a log-variance y")
        y, ey, cy, flags = _two_field_point(p, y)
        values = {"y_drift": cy, "ey_minus_2r": ey - 2.0 * p.r}
        return RegimeReport(flags=flags, values=values, preserved=all(flags.values()), y=y)
    raise ValueError(f"unsupported parameter type {type(p).__name__}")
