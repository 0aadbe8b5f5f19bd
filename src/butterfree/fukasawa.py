"""Fukasawa-side admissibility: where the normalized shift mu may live.

For a normalized smile N(l) = alpha + b*(rho*l + sqrt(l^2 + 1)) the two
slope factors of the butterfly diagnostic stay positive exactly when mu
lies in an open interval

    I(alpha, b, rho) = ( sup L_minus, inf L_plus ),

where L_pm(l) = 2N(l)*(1/N'(l) -+ 1/4) - l are evaluated on the half-lines
left and right of the vertex l_star = -rho/sqrt(1-rho^2), the only point
where N' vanishes.  The one-sided optima are attained at interior critical
points l_minus < l_star < l_plus characterized by

    g_pm(l) = alpha / b,

with g_pm an alpha-free function of (b, rho).  On each side g_pm is either
monotone toward the vertex or dips through a single minimum m_pm, which is
what makes the critical points unique and bracketable.

The interval is non-empty exactly when alpha exceeds a threshold F(b, rho),
the root of the strictly increasing gap alpha -> inf L_plus - sup L_minus.
Everything here requires the wing slopes b*(1 -+ rho) to stay at or below
2; beyond that limit no smile is arbitrage free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BracketFailure,
    DomainError,
    FukasawaViolated,
    NoFiniteOptimum,
)
from .numerics import DEFAULT_X_TOL, Bracket, expand_bracket, find_root
from .svi import n_funcs

#: Slope-equality tolerance: |b*(1 -+ rho) - 2| below this is treated as the
#: boundary regime, where the one-sided optimum moves to infinity, and a
#: slope above 2 + SLOPE_EQ_TOL is over the limit (a DomainError here and
#: Failure1 in the domain waterfall).
SLOPE_EQ_TOL = 1e-12

#: Offset above the lower alpha boundary used when probing the interval gap.
_ALPHA_EDGE = 1e-9


@dataclass(frozen=True)
class MuInterval:
    """Open interval of admissible normalized shifts."""

    lower: float
    upper: float

    def contains(self, mu: float) -> bool:
        """Strict interior test; endpoints do not count."""
        return self.lower < mu < self.upper

    def width(self) -> float:
        return self.upper - self.lower


def l_star(rho: float) -> float:
    """Vertex of the normalized smile, the unique zero of N'."""
    if abs(rho) >= 1.0:
        raise DomainError(f"l_star requires |rho| < 1, got rho={rho}")
    return -rho / math.sqrt(1.0 - rho * rho)


def L_minus(l: float, alpha: float, b: float, rho: float) -> float:
    """Shift bound factor on the left half-line l < l_star (all of the real
    line when rho = -1)."""
    _require_side(l, rho, "-")
    n0, n1, _, _ = n_funcs(alpha, b, rho, l)
    return 2.0 * n0 * (1.0 / n1 + 0.25) - l


def L_plus(l: float, alpha: float, b: float, rho: float) -> float:
    """Shift bound factor on the right half-line l > l_star (all of the real
    line when rho = +1)."""
    _require_side(l, rho, "+")
    n0, n1, _, _ = n_funcs(alpha, b, rho, l)
    return 2.0 * n0 * (1.0 / n1 - 0.25) - l


def bound_partials(
    l: float, alpha: float, b: float, rho: float, side: str
) -> tuple[float, float, float]:
    """Partials (d/dalpha, d/db, d/drho) of L_minus (side '-') or L_plus
    (side '+') at a fixed l.

    At the one-sided critical point l_pm(alpha) the l-derivative vanishes,
    so by the envelope theorem these are also the partials of the interval
    bound sup L_minus or inf L_plus itself.
    """
    if side not in ("-", "+"):
        raise DomainError(f"side must be '-' or '+', got {side!r}")
    n0, n1, _, _ = n_funcs(alpha, b, rho, l)
    factor = 1.0 / n1 + (0.25 if side == "-" else -0.25)
    d_alpha = 2.0 * factor
    d_b = 2.0 * (rho * l + math.sqrt(l * l + 1.0)) * factor - 2.0 * n0 / (b * n1)
    d_rho = 2.0 * b * l * factor - 2.0 * n0 * b / (n1 * n1)
    return d_alpha, d_b, d_rho


def _require_side(l: float, rho: float, side: str) -> None:
    if rho == -1.0:
        if side == "+":
            raise DomainError("the right half-line is empty at rho = -1")
        return
    if rho == 1.0:
        if side == "-":
            raise DomainError("the left half-line is empty at rho = +1")
        return
    ls = l_star(rho)
    if side == "-" and not l < ls:
        raise DomainError(f"l = {l} is not left of the vertex {ls}")
    if side == "+" and not l > ls:
        raise DomainError(f"l = {l} is not right of the vertex {ls}")


def g_pm(b: float, rho: float, l: float, side: str) -> float:
    """The alpha-free criticality function: l_pm solves g_pm(l) = alpha/b.

    Explicit form; an equivalent implicit form in terms of N', N'' is

        g_pm(l) = (N'^2/(2 N'') * (1 +- N'/2) - N'' * (l^2+1) - l N') / b

    which the tests cross-check against this one.
    """
    if side not in ("-", "+"):
        raise DomainError(f"side must be '-' or '+', got {side!r}")
    r = math.sqrt(l * l + 1.0)
    base = rho * r + l
    if side == "-":
        factor = r * (0.5 + b * rho / 4.0) + b * l / 4.0
    else:
        factor = r * (0.5 - b * rho / 4.0) - b * l / 4.0
    return base * base * factor - (rho * l + r)


def _anchor(b: float, rho: float, side: str) -> tuple[bool, float]:
    """Monotonicity flag and bracketing anchor for g_pm on one half-line.

    In the monotone case g_pm runs straight into the vertex and the anchor
    is l_star itself; otherwise g_pm turns at a single interior point m and
    the anchor is m.  Either way g_pm is strictly monotone on the far side
    of the anchor with g_pm(anchor) below every admissible level, so
    expanding away from the anchor always brackets the critical point.
    """
    if b <= 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if side == "-":
        if rho >= 1.0:
            raise DomainError("the left half-line is empty at rho = +1")
        slope = b * (1.0 - rho)
    elif side == "+":
        if rho <= -1.0:
            raise DomainError("the right half-line is empty at rho = -1")
        slope = b * (1.0 + rho)
    else:
        raise DomainError(f"side must be '-' or '+', got {side!r}")
    if slope >= 2.0 - SLOPE_EQ_TOL:
        raise NoFiniteOptimum(
            f"wing slope b*(1 {'-' if side == '-' else '+'} rho) = {slope} is at "
            "its limit; the one-sided optimum is attained only at infinity"
        )
    one_m_r2 = 1.0 - rho * rho
    if side == "-":
        if rho > 0.0 and b * one_m_r2 <= 2.0 * rho:
            return True, l_star(rho)
        m = -b / math.sqrt((2.0 - b * (1.0 - rho)) * (2.0 + b * (1.0 + rho)))
    else:
        if rho < 0.0 and b * one_m_r2 <= -2.0 * rho:
            return True, l_star(rho)
        m = b / math.sqrt((2.0 - b * (1.0 + rho)) * (2.0 + b * (1.0 - rho)))
    return False, m


def l_pm_of_alpha(alpha: float, b: float, rho: float, side: str) -> float:
    """Locate the one-sided critical point l_minus (side '-') or l_plus
    (side '+') for the given alpha.

    Brackets against the turning point (or the vertex in the monotone case)
    and expands away from it; g_pm is strictly monotone there, so the root
    is unique.  Raises NoFiniteOptimum at the slope limit and DomainError
    for alpha below the admissible floor -b*sqrt(1-rho^2).
    """
    monotone, anchor = _anchor(b, rho, side)
    floor = -b * math.sqrt(1.0 - rho * rho)
    if alpha < floor or (monotone and alpha <= floor):
        raise DomainError(
            f"alpha = {alpha} is below the admissible floor {floor} for this smile"
        )
    level = alpha / b

    def f(l: float) -> float:
        return g_pm(b, rho, l, side) - level

    direction = -1 if side == "-" else 1
    bracket = expand_bracket(f, anchor, direction)
    return find_root(f, bracket, DEFAULT_X_TOL)


def mu_interval(alpha: float, b: float, rho: float) -> MuInterval:
    """Open interval of shifts mu keeping both slope factors positive.

    The bounds are the one-sided optima of L_minus and L_plus.  When a wing
    slope sits at its limit 2 the corresponding bound collapses to -+alpha/2;
    at rho = -+1 the far side is unconstrained.  Raises FukasawaViolated when
    the interval is empty, which happens exactly for alpha <= F(b, rho).
    """
    if b <= 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    slope_left = b * (1.0 - rho)
    slope_right = b * (1.0 + rho)
    if slope_left > 2.0 + SLOPE_EQ_TOL or slope_right > 2.0 + SLOPE_EQ_TOL:
        raise DomainError(
            f"wing slopes ({slope_left}, {slope_right}) exceed the limit 2"
        )
    if rho == -1.0:
        lower = _lower_bound(alpha, b, rho, slope_left)
        interval = MuInterval(lower, math.inf)
    elif rho == 1.0:
        upper = _upper_bound(alpha, b, rho, slope_right)
        interval = MuInterval(-math.inf, upper)
    else:
        floor = -b * math.sqrt(1.0 - rho * rho)
        if alpha <= floor:
            raise FukasawaViolated(
                f"alpha = {alpha} is at or below the floor {floor}; "
                "the smile minimum is not positive"
            )
        interval = MuInterval(
            _lower_bound(alpha, b, rho, slope_left),
            _upper_bound(alpha, b, rho, slope_right),
        )
    if not interval.lower < interval.upper:
        raise FukasawaViolated(
            f"empty shift interval ({interval.lower}, {interval.upper}): "
            f"alpha = {alpha} does not exceed the threshold for (b, rho) = ({b}, {rho})"
        )
    return interval


def _lower_bound(alpha: float, b: float, rho: float, slope_left: float) -> float:
    if slope_left >= 2.0 - SLOPE_EQ_TOL:
        return -alpha / 2.0
    l_m = l_pm_of_alpha(alpha, b, rho, "-")
    return L_minus(l_m, alpha, b, rho)


def _upper_bound(alpha: float, b: float, rho: float, slope_right: float) -> float:
    if slope_right >= 2.0 - SLOPE_EQ_TOL:
        return alpha / 2.0
    l_p = l_pm_of_alpha(alpha, b, rho, "+")
    return L_plus(l_p, alpha, b, rho)


def fukasawa_threshold(b: float, rho: float) -> float:
    """The critical alpha below which no shift is admissible.

    The interval gap D(alpha) = inf L_plus - sup L_minus is strictly
    increasing with slope above one, so a short bracket expansion plus a
    Brent solve pins the root down to 1e-12.  Symmetric in rho.  At
    |rho| = 1 the threshold is 0; at the double slope limit b*(1-+rho) = 2
    it is 0 as well.
    """
    if b <= 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    if abs(rho) == 1.0:
        if 2.0 * b > 2.0 + SLOPE_EQ_TOL:
            raise DomainError(f"wing slope 2b = {2 * b} exceeds the limit 2")
        return 0.0
    slope_left = b * (1.0 - rho)
    slope_right = b * (1.0 + rho)
    if slope_left > 2.0 + SLOPE_EQ_TOL or slope_right > 2.0 + SLOPE_EQ_TOL:
        raise DomainError(
            f"wing slopes ({slope_left}, {slope_right}) exceed the limit 2"
        )
    if slope_left >= 2.0 - SLOPE_EQ_TOL and slope_right >= 2.0 - SLOPE_EQ_TOL:
        return 0.0

    def gap(alpha: float) -> float:
        return (
            _upper_bound(alpha, b, rho, slope_right)
            - _lower_bound(alpha, b, rho, slope_left)
        )

    floor = -b * math.sqrt(1.0 - rho * rho)
    lo = floor + _ALPHA_EDGE
    gap_lo = gap(lo)
    if gap_lo > 0.0:
        # Open near the floor already; the threshold collapses onto it.
        return floor
    # The gap grows with slope > 1, so the root sits within |gap_lo| of lo.
    hi = lo + 1.25 * abs(gap_lo) + _ALPHA_EDGE
    gap_hi = gap(hi)
    for _ in range(100):
        if gap_hi > 0.0:
            break
        hi = lo + 2.0 * (hi - lo)
        gap_hi = gap(hi)
    else:
        raise BracketFailure(
            f"could not bracket the threshold for (b, rho) = ({b}, {rho})"
        )
    return find_root(gap, Bracket(lo, hi, gap_lo, gap_hi), DEFAULT_X_TOL)


def threshold_rho0_closed_form(b: float) -> float:
    """Closed form of the threshold on the symmetric axis rho = 0.

    Valid for 0 < b < 2: the critical point solves a cubic whose relevant
    root is l = -6b/sqrt((b^2-4)(b^2-16)), and the threshold is b*g_minus
    there.  Serves as an independent check of the root-finding route.
    """
    if not 0.0 < b < 2.0:
        raise DomainError(f"closed form requires 0 < b < 2, got b={b}")
    disc = (b * b - 4.0) * (b * b - 16.0)
    l_hat = -6.0 * b / math.sqrt(disc)
    return b * g_pm(b, 0.0, l_hat, "-")
