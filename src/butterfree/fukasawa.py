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
Every solve here is a safeguarded Newton iteration on exact derivatives:
g_pm' in closed form for the critical points and, by the envelope theorem,
the gap's slope from the bound partials at them.  Everything here requires
the wing slopes b*(1 -+ rho) to stay at or below 2; beyond that limit no
smile is arbitrage free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    FukasawaViolated,
    NoFiniteOptimum,
)
from .numerics import Bracket, expand_bracket, newton_root, require_finite
from .svi import n_funcs

#: Slope-equality tolerance: |b*(1 -+ rho) - 2| below this is treated as the
#: boundary regime, where the one-sided optimum moves to infinity, and a
#: slope above 2 + SLOPE_EQ_TOL is over the limit (a DomainError here and
#: Failure1 in the domain waterfall).
SLOPE_EQ_TOL = 1e-12

#: Offset of the threshold search above the positivity floor, in the level
#: alpha/b, so that it holds its meaning at every scale of b.
_LEVEL_EDGE = 1e-11


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
    return _bound_at(l, alpha, b, rho, "-")[0]


def L_plus(l: float, alpha: float, b: float, rho: float) -> float:
    """Shift bound factor on the right half-line l > l_star (all of the real
    line when rho = +1)."""
    _require_side(l, rho, "+")
    return _bound_at(l, alpha, b, rho, "+")[0]


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
    return _g_pm_slope(b, rho, l, side)[0]


def _g_pm_slope(b: float, rho: float, l: float, side: str) -> tuple[float, float]:
    """g_pm(l) and its l-derivative."""
    r = math.sqrt(l * l + 1.0)
    dr = l / r
    base = rho * r + l
    d_base = rho * dr + 1.0
    if side == "-":
        c = 0.5 + b * rho / 4.0
        factor = r * c + b * l / 4.0
        d_factor = dr * c + b / 4.0
    else:
        c = 0.5 - b * rho / 4.0
        factor = r * c - b * l / 4.0
        d_factor = dr * c - b / 4.0
    value = base * base * factor - (rho * l + r)
    slope = base * (2.0 * d_base * factor + base * d_factor) - (rho + dr)
    return value, slope


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
    return _critical_point(b, rho, side, level, *_expand(b, rho, side, level, anchor))[0]


#: An evaluated point (l, g_pm(l)) of one half-line.
_Probe = tuple[float, float]


def _expand(
    b: float, rho: float, side: str, level: float, start: float
) -> tuple[_Probe, _Probe]:
    """Evaluated points under and over the level, found by walking away
    from the vertex from a point ``start`` where g_pm is under it."""

    def f(l: float) -> float:
        return g_pm(b, rho, l, side) - level

    bracket = expand_bracket(f, start, -1 if side == "-" else 1)
    lo = (bracket.lo, bracket.f_lo + level)
    hi = (bracket.hi, bracket.f_hi + level)
    return (lo, hi) if bracket.f_lo < 0.0 else (hi, lo)


def _critical_point(
    b: float, rho: float, side: str, level: float, under: _Probe, over: _Probe,
    start: float | None = None,
) -> tuple[float, _Probe, _Probe, float]:
    """The root of g_pm(l) = level between an evaluated point under the
    level and one over it, by Newton on the closed-form g_pm' from
    ``start`` (by default the secant point of the two).

    Returns the root, the tightest evaluated points under and over the
    level, and g_pm' at the last point evaluated.  g_pm is monotone on the
    far side of its anchor, so those points bracket the root for every
    level between their values.
    """
    slope_seen = math.nan

    def f(l: float) -> tuple[float, float]:
        nonlocal under, over, slope_seen
        g, slope_seen = _g_pm_slope(b, rho, l, side)
        if g < level:
            if g > under[1]:
                under = (l, g)
        elif g > level and g < over[1]:
            over = (l, g)
        return g - level, slope_seen

    (l_u, g_u), (l_o, g_o) = under, over
    if start is None:
        start = l_u + (level - g_u) * (l_o - l_u) / (g_o - g_u)
    if l_u < l_o:
        bracket = Bracket(l_u, l_o, g_u - level, g_o - level)
    else:
        bracket = Bracket(l_o, l_u, g_o - level, g_u - level)
    root = newton_root(f, bracket, start)
    return root, under, over, slope_seen


def _wing_slopes(b: float, rho: float) -> tuple[float, float]:
    """The wing slopes b*(1 -+ rho), once b and rho are checked: finite,
    b > 0, |rho| <= 1 and both slopes at most 2 + SLOPE_EQ_TOL."""
    require_finite(b=b, rho=rho)
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
    return slope_left, slope_right


def mu_interval(alpha: float, b: float, rho: float) -> MuInterval:
    """Open interval of shifts mu keeping both slope factors positive.

    The bounds are the one-sided optima of L_minus and L_plus.  When a wing
    slope sits at its limit 2 the corresponding bound collapses to -+alpha/2;
    at rho = -+1 the far side is unconstrained.  Raises FukasawaViolated when
    the interval is empty, which happens exactly for alpha <= F(b, rho).
    """
    return interval_with_optimizers(alpha, b, rho)[0]


def interval_with_optimizers(
    alpha: float, b: float, rho: float
) -> tuple[MuInterval, float, float]:
    """mu_interval together with the optimizers l_minus and l_plus of its
    bounds; an optimizer is nan where its bound is -+alpha/2 or infinite."""
    require_finite(alpha=alpha)
    slope_left, slope_right = _wing_slopes(b, rho)
    l_m = l_p = math.nan
    if rho == -1.0:
        lower, l_m = _bound(alpha, b, rho, "-", slope_left)
        interval = MuInterval(lower, math.inf)
    elif rho == 1.0:
        upper, l_p = _bound(alpha, b, rho, "+", slope_right)
        interval = MuInterval(-math.inf, upper)
    else:
        floor = -b * math.sqrt(1.0 - rho * rho)
        if alpha <= floor:
            raise FukasawaViolated(
                f"alpha = {alpha} is at or below the floor {floor}; "
                "the smile minimum is not positive"
            )
        lower, l_m = _bound(alpha, b, rho, "-", slope_left)
        upper, l_p = _bound(alpha, b, rho, "+", slope_right)
        interval = MuInterval(lower, upper)
    if not interval.lower < interval.upper:
        raise FukasawaViolated(
            f"empty shift interval ({interval.lower}, {interval.upper}): "
            f"alpha = {alpha} does not exceed the threshold for (b, rho) = ({b}, {rho})"
        )
    return interval, l_m, l_p


def _bound(
    alpha: float, b: float, rho: float, side: str, slope: float
) -> tuple[float, float]:
    """sup L_minus (side '-') or inf L_plus (side '+'), and its optimizer."""
    sign = -1.0 if side == "-" else 1.0
    if slope >= 2.0 - SLOPE_EQ_TOL:
        return sign * alpha / 2.0, math.nan
    l = l_pm_of_alpha(alpha, b, rho, side)
    return _bound_at(l, alpha, b, rho, side)[0], l


def _bound_at(
    l: float, alpha: float, b: float, rho: float, side: str
) -> tuple[float, float]:
    """L_minus or L_plus at l, and its alpha-derivative."""
    n0, n1, _, _ = n_funcs(alpha, b, rho, l)
    factor = 1.0 / n1 + (0.25 if side == "-" else -0.25)
    return 2.0 * n0 * factor - l, 2.0 * factor


def fukasawa_threshold(b: float, rho: float) -> float:
    """The critical alpha below which no shift is admissible.

    The interval gap D(alpha) = inf L_plus - sup L_minus is strictly
    increasing with slope above one; see threshold_with_optimizers for the
    solve.  Symmetric in rho.  At |rho| = 1 the threshold is 0; at the
    double slope limit b*(1-+rho) = 2 it is 0 as well.
    """
    return threshold_with_optimizers(b, rho)[0]


def threshold_with_optimizers(b: float, rho: float) -> tuple[float, float, float]:
    """F(b, rho) together with the optimizers l_minus(F) and l_plus(F) of
    the interval bounds there (nan on a side at its slope limit, and
    wherever F is 0 or the positivity floor).

    Newton runs on the gap in the level alpha/b, where D and its slope
    b*D'(alpha) = b*(2/N'(l_plus) - 2/N'(l_minus) - 1) stay of order one
    however small b is.  It starts at the floor plus _LEVEL_EDGE; if the
    gap is already open there, F is the floor -b*sqrt(1-rho^2) itself.
    Since D' > 1, the gap is positive a level distance 1.25*|D|/b further
    on, which certifies the bracket.  l_minus falls and l_plus rises with
    the level, so points evaluated at the bracket's ends bracket every
    critical point inside it: after one walk out to the upper end no
    bracket expansion is needed.
    """
    slope_left, slope_right = _wing_slopes(b, rho)
    if abs(rho) == 1.0:
        return 0.0, math.nan, math.nan
    limited = {"-": slope_left >= 2.0 - SLOPE_EQ_TOL, "+": slope_right >= 2.0 - SLOPE_EQ_TOL}
    if all(limited.values()):
        return 0.0, math.nan, math.nan
    level_floor = -math.sqrt(1.0 - rho * rho)
    level_lo = level_floor + _LEVEL_EDGE
    lines = {
        side: _HalfLine(b, rho, side, level_lo) for side in "-+" if not limited[side]
    }
    points = {"-": math.nan, "+": math.nan}

    def gap(level: float) -> tuple[float, float]:
        alpha = b * level
        # the bounds are -+alpha/2 on a side at its slope limit
        lower, d_lower, upper, d_upper = -alpha / 2.0, -0.5, alpha / 2.0, 0.5
        for side, line in lines.items():
            points[side] = l = line.solve(level)
            if side == "-":
                lower, d_lower = _bound_at(l, alpha, b, rho, side)
            else:
                upper, d_upper = _bound_at(l, alpha, b, rho, side)
        value = upper - lower
        for line in lines.values():
            line.narrow(value < 0.0)
        return value, b * (d_upper - d_lower)

    gap_lo, slope_lo = gap(level_lo)
    if gap_lo > 0.0:
        # Open near the floor already; the threshold collapses onto it.
        return -b * math.sqrt(1.0 - rho * rho), math.nan, math.nan
    if gap_lo == 0.0:
        return b * level_lo, points["-"], points["+"]
    level_hi = level_lo + 1.25 * abs(gap_lo) / b + _LEVEL_EDGE
    for side, line in lines.items():
        line.over = _expand(b, rho, side, level_hi, points[side])[1]
    # D' > 1 gives D(level_hi) > gap_lo + 1.25*|gap_lo|, a certified bound
    bracket = Bracket(level_lo, level_hi, gap_lo, 0.25 * abs(gap_lo))
    level = newton_root(gap, bracket, level_lo - gap_lo / slope_lo)
    return b * level, points["-"], points["+"]


class _HalfLine:
    """The critical point l(level) of one side, tracked along the
    threshold's Newton iteration.

    ``under`` and ``over`` are evaluated points under and over every level
    still inside the iteration's bracket; narrow() tightens them once the
    gap's sign says which end of the bracket moved.  The first solve starts
    from their secant point, each later one a Newton step on from the last
    root.  On a side where g_pm runs monotone into the vertex l_star, g_pm'
    and g_pm'' vanish there, so Newton creeps toward a root near it; there
    the starts follow g_pm(l) + sqrt(1-rho^2) ~ c*(l - l_star)^3, with
    c = (1-rho^2)^2 * (-+b*(1-rho^2)/4 - rho/2) the side's factor' at
    l_star: the first from c itself, each later one by rescaling the last
    root's offset from l_star.
    """

    def __init__(self, b: float, rho: float, side: str, level: float) -> None:
        self.b, self.rho, self.side = b, rho, side
        monotone, anchor = _anchor(b, rho, side)
        self.under, self.over = _expand(b, rho, side, level, anchor)
        one_m_r2 = 1.0 - rho * rho
        wing = b * one_m_r2 / 4.0
        cubic = one_m_r2 * one_m_r2 * ((wing if side == "-" else -wing) - rho / 2.0)
        # (l_star, |c|, sqrt(1-rho^2)) where the cubic model applies
        self.cubic = None
        if monotone and cubic != 0.0:
            self.cubic = anchor, abs(cubic), math.sqrt(one_m_r2)
        self.last: tuple[float, float, float] | None = None
        self.probes = self.under, self.over

    def solve(self, level: float) -> float:
        start = None
        if self.cubic is not None:
            vertex, c, depth = self.cubic
            if self.last is None:
                offset = ((level + depth) / c) ** (1.0 / 3.0)
                start = vertex + (offset if self.side == "+" else -offset)
            else:
                level_0, l_0, _ = self.last
                ratio = (level + depth) / (level_0 + depth)
                start = vertex + (l_0 - vertex) * ratio ** (1.0 / 3.0)
        elif self.last is not None:
            level_0, l_0, slope_0 = self.last
            if slope_0 != 0.0:
                start = l_0 + (level - level_0) / slope_0
        l, under, over, slope = _critical_point(
            self.b, self.rho, self.side, level, self.under, self.over, start
        )
        self.probes = under, over
        self.last = level, l, slope
        return l

    def narrow(self, below_root: bool) -> None:
        """The last level solved becomes the bracket's lower end if
        ``below_root``, its upper end otherwise."""
        if below_root:
            self.under = self.probes[0]
        else:
            self.over = self.probes[1]


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
