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
on the closed-form g_pm' for a critical point alone, and for F on the
level and both critical points together, each step moving every l once
toward the level and the level by the envelope slope of the gap.  All of
it requires the wing slopes b*(1 -+ rho) to stay at or below 2; beyond
that limit no smile is arbitrage free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError,
    FukasawaViolated,
    NoBracketFound,
    NoFiniteOptimum,
    NumericFailure,
)
from .numerics import _X_TOL, Bracket, expand_bracket, newton_root, require_finite
from .smile import omega, shape

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
    return -rho / math.sqrt(omega(rho))


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
    p, s, _ = shape(rho, l)
    factor = _inverse_slope(b * s, l) + (0.25 if side == "-" else -0.25)
    ratio = 2.0 * (alpha + b * p) / (b * s)
    return 2.0 * factor, 2.0 * p * factor - ratio / b, 2.0 * b * l * factor - ratio / s


def _require_side(l: float, rho: float, side: str) -> None:
    name = "left" if side == "-" else "right"
    if abs(rho) == 1.0:
        if (side == "+") == (rho == -1.0):
            raise DomainError(f"the {name} half-line is empty at rho = {rho:+g}")
    elif not (l < l_star(rho) if side == "-" else l > l_star(rho)):
        raise DomainError(f"l = {l} is not {name} of the vertex {l_star(rho)}")


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
    """g_pm(l) = base^2*(r/2 + w*base) - (rho*l + r) and its l-derivative,
    with w = +-b/4 on side -+ and base = rho*r + l = (rho + l/r)*r."""
    p, s, r = shape(rho, l)
    base = s * r
    d_base = p / r
    w = b / 4.0 if side == "-" else -b / 4.0
    factor = 0.5 * r + w * base
    d_factor = 0.5 * l / r + w * d_base
    value = base * base * factor - p
    slope = base * (2.0 * d_base * factor + base * d_factor) - s
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
    if side not in ("-", "+"):
        raise DomainError(f"side must be '-' or '+', got {side!r}")
    # s*rho is rho's component toward the side
    s = -1.0 if side == "-" else 1.0
    if s * rho <= -1.0:
        name = "left" if side == "-" else "right"
        raise DomainError(f"the {name} half-line is empty at rho = {rho:+g}")
    slope = b * (1.0 + s * rho)
    if slope >= 2.0 - SLOPE_EQ_TOL:
        raise NoFiniteOptimum(
            f"wing slope b*(1 {side} rho) = {slope} is at "
            "its limit; the one-sided optimum is attained only at infinity"
        )
    if s * rho < 0.0 and b * omega(rho) <= -2.0 * s * rho:
        return True, l_star(rho)
    return False, s * b / math.sqrt((2.0 - slope) * (2.0 + b * (1.0 - s * rho)))


def l_pm_of_alpha(alpha: float, b: float, rho: float, side: str) -> float:
    """Locate the one-sided critical point l_minus (side '-') or l_plus
    (side '+') for the given alpha.

    Brackets against the turning point (or the vertex in the monotone case)
    and expands away from it; g_pm is strictly monotone there, so the root
    is unique.  Raises NoFiniteOptimum at the slope limit and DomainError
    for alpha below the admissible floor -b*sqrt(1-rho^2).
    """
    monotone, anchor = _anchor(b, rho, side)
    floor = -b * math.sqrt(omega(rho))
    if alpha < floor or (monotone and alpha <= floor):
        raise DomainError(
            f"alpha = {alpha} is below the admissible floor {floor} for this smile"
        )
    return _critical_point(b, rho, side, anchor, alpha / b)


def _critical_point(
    b: float, rho: float, side: str, anchor: float, level: float,
    start: float = math.nan,
) -> float:
    """The root of g_pm(l) = level, bracketed by walking away from the
    side's anchor (_anchor), by Newton on the closed-form g_pm' from
    ``start`` (where it is not finite, the bracket's secant point)."""
    bracket, secant = _bracket_secant(b, rho, side, anchor, level)
    start = start if math.isfinite(start) else secant
    return newton_root(lambda l: _residual(b, rho, side, level, l), bracket, start)


def _bracket_secant(
    b: float, rho: float, side: str, anchor: float, level: float,
    root_form: tuple[int, float] = (1, 0.0),
) -> tuple[Bracket, float]:
    """The bracket of g_pm(l) = level walked out from the side's anchor,
    and the secant point of its ends in the units of _residual's root_form
    (nan where they do not tell the two ends apart)."""
    bracket = expand_bracket(
        lambda l: g_pm(b, rho, l, side) - level, anchor, -1 if side == "-" else 1
    )
    (l_u, f_u), (l_o, f_o) = (bracket.lo, bracket.f_lo), (bracket.hi, bracket.f_hi)
    if f_u > 0.0:
        (l_u, f_u), (l_o, f_o) = (l_o, f_o), (l_u, f_u)
    power, base = root_form
    r_u, r_o, r = (_root(g - base, power) for g in (f_u + level, f_o + level, level))
    if r_o == r_u:
        return bracket, math.nan
    return bracket, l_u + (r - r_u) * (l_o - l_u) / (r_o - r_u)


def _residual(
    b: float, rho: float, side: str, level: float, l: float,
    root_form: tuple[int, float] | None = None,
) -> tuple[float, float]:
    """g_pm(l) - level and its l-derivative, or with root_form = (p,
    g_pm(anchor)) the difference of the p-th roots of g_pm(l) -
    g_pm(anchor) and level - g_pm(anchor).

    Away from the side's anchor, g_pm - g_pm(anchor) grows like
    |l - anchor|^p: p = 3 where g_pm runs monotone into the vertex, at
    level -sqrt(1-rho^2), and p = 2 at a turning point.  So g_pm' vanishes
    at the anchor and Newton on g_pm creeps toward a root near it, while
    the p-th root grows about linearly.  Both residuals have the sign of
    g_pm(l) - level.
    """
    g, slope = _g_pm_slope(b, rho, l, side)
    if root_form is None:
        return g - level, slope
    power, base = root_form
    root = _root(g - base, power)
    d_root = slope / (power * abs(root) ** (power - 1)) if root else 0.0
    return root - _root(level - base, power), d_root


def _root(x: float, power: int) -> float:
    """The real power-th root of x, signed: ** of a negative float to a
    fractional power is complex, and math.cbrt needs Python 3.11."""
    return math.copysign(abs(x) ** (1.0 / power), x)


def _vertex_start(b: float, rho: float, side: str, level: float) -> float:
    """Newton's start for the root of g_pm(l) = level on a side where g_pm
    runs monotone into the vertex, or nan where the cubic below is flat.

    Near l_star, g_pm(l) + sqrt(1-rho^2) ~ c*(l - l_star)^3, with
    c = (1-rho^2)^2 * (-+b*(1-rho^2)/4 - rho/2) the side's factor' at
    l_star; the start is the root of that cubic.
    """
    one_m_r2 = omega(rho)
    wing = b * one_m_r2 / 4.0
    cubic = abs(one_m_r2 * one_m_r2 * ((wing if side == "-" else -wing) - rho / 2.0))
    if cubic == 0.0:
        return math.nan
    offset = ((level + math.sqrt(one_m_r2)) / cubic) ** (1.0 / 3.0)
    return l_star(rho) + (offset if side == "+" else -offset)


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
    floor = -b * math.sqrt(omega(rho))
    if abs(rho) < 1.0 and alpha <= floor:
        raise FukasawaViolated(
            f"alpha = {alpha} is at or below the floor {floor}; "
            "the smile minimum is not positive"
        )
    lower, upper, l_m, l_p = -math.inf, math.inf, math.nan, math.nan
    try:
        if rho != 1.0:
            lower, l_m = _bound(alpha, b, rho, "-", slope_left)
        if rho != -1.0:
            upper, l_p = _bound(alpha, b, rho, "+", slope_right)
    except NoBracketFound:
        # an optimizer's walk finds no sign change where the level sits
        # within rounding of g_pm's minimum; below F that is an empty
        # interval, not a numeric failure
        threshold = fukasawa_threshold(b, rho)
        if alpha <= threshold:
            raise FukasawaViolated(
                f"alpha = {alpha} does not exceed the threshold {threshold} "
                f"for (b, rho) = ({b}, {rho})"
            ) from None
        raise
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
    if slope >= 2.0 - SLOPE_EQ_TOL:
        return (-alpha if side == "-" else alpha) / 2.0, math.nan
    l = l_pm_of_alpha(alpha, b, rho, side)
    return _bound_at(l, alpha, b, rho, side)[0], l


def _bound_at(
    l: float, alpha: float, b: float, rho: float, side: str
) -> tuple[float, float]:
    """L_minus or L_plus at l, and its alpha-derivative."""
    p, s, _ = shape(rho, l)
    factor = _inverse_slope(b * s, l) + (0.25 if side == "-" else -0.25)
    return 2.0 * (alpha + b * p) * factor - l, 2.0 * factor


def _inverse_slope(n1: float, l: float) -> float:
    """1/N'(l), or NumericFailure where N' rounds to 0: so close to the
    vertex that floating point no longer tells it from l."""
    if n1 == 0.0:
        raise NumericFailure(f"N'({l}) rounds to 0; the bound is not resolved there")
    return 1.0 / n1


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

    F solves three equations in (level, l_minus, l_plus), with the level
    alpha/b: g_pm(l_pm) = level on each side, and D = 0 for the gap
    D = L_plus(l_plus) - L_minus(l_minus), whose level slope
    b*D'(alpha) = b*(2/N'(l_plus) - 2/N'(l_minus) - 1) stays of order one
    however small b is.  L_minus(l) <= sup L_minus and L_plus(l) >=
    inf L_plus at every l of their half-lines, so a negative gap certifies
    a level below F wherever it is evaluated.  The level bracket starts at
    the floor plus _LEVEL_EDGE, certified by the gap at each side's start
    point there (_vertex_start, _bracket_secant) with no critical point
    solved.  Only where that gap is not negative, or cannot be formed, is
    this first level solved exactly; if the gap is open there too, F is the
    floor -b*sqrt(1-rho^2).  The bracket ends at level 0: with alpha >= 0
    the unshifted mu = 0 is admissible (Martini & Mingone,
    arXiv:2005.03340), so F < 0.

    In it one safeguarded Newton iteration runs on the level.  At each
    level each l takes one Newton step toward it, on the p-th root of
    g_pm - g_pm(anchor) (_residual), and the gap is evaluated at those l:
    L_pm has zero l-derivative at a critical point, so that gap is off by
    the square of the l error, and the envelope slope steps the level.  A
    gap that is not negative counts only at converged critical points: the
    l step on at that level while their steps at least halve, and a side
    whose steps do not is solved exactly, as is one whose step would fall
    back past its first-level point or leave the floats.
    """
    slope_left, slope_right = _wing_slopes(b, rho)
    if abs(rho) == 1.0:
        return 0.0, math.nan, math.nan
    sides = [
        side for side, slope in (("-", slope_left), ("+", slope_right))
        if slope < 2.0 - SLOPE_EQ_TOL
    ]
    if not sides:
        return 0.0, math.nan, math.nan
    depth = math.sqrt(omega(rho))
    level_lo = _LEVEL_EDGE - depth
    anchors = {side: _anchor(b, rho, side) for side in sides}
    root_forms = {
        side: (3, -depth) if monotone else (2, g_pm(b, rho, anchor, side))
        for side, (monotone, anchor) in anchors.items()
    }
    points = {
        side: _vertex_start(b, rho, side, level_lo) if monotone
        else _bracket_secant(b, rho, side, anchor, level_lo, root_forms[side])[1]
        for side, (monotone, anchor) in anchors.items()
    }

    def step_sides(level: float, which) -> dict[str, float]:
        """One Newton step toward level of the l on each side in ``which``;
        by side, each step's size relative to max(1, |l|) that exceeds the
        root tolerance."""
        moved = {}
        for side in which:
            l = points[side]
            value, slope = _residual(b, rho, side, level, l, root_forms[side])
            l_next = l - value / slope if slope else math.nan
            outward = l_next < first[side] if side == "-" else l_next > first[side]
            if outward and math.isfinite(l_next):
                points[side] = l_next
                step = abs(l_next - l) / max(1.0, abs(l))
                if step > _X_TOL:
                    moved[side] = step
            else:
                points[side] = _critical_point(b, rho, side, anchors[side][1], level)
        return moved

    def gap(level: float) -> tuple[float, float]:
        alpha = b * level
        # the bounds are -+alpha/2 on a side at its slope limit
        lower, d_lower, upper, d_upper = -alpha / 2.0, -0.5, alpha / 2.0, 0.5
        if "-" in points:
            lower, d_lower = _bound_at(points["-"], alpha, b, rho, "-")
        if "+" in points:
            upper, d_upper = _bound_at(points["+"], alpha, b, rho, "+")
        return upper - lower, b * (d_upper - d_lower)

    def joint(level: float) -> tuple[float, float]:
        moved = step_sides(level, points)
        value, slope = gap(level)
        while value >= 0.0 and moved:
            # a gap that is not negative counts only at critical points:
            # step on while Newton converges, and solve the rest exactly
            last, moved = moved, step_sides(level, moved)
            for side in [side for side in moved if moved[side] > 0.5 * last[side]]:
                points[side] = _critical_point(b, rho, side, anchors[side][1], level)
                del moved[side]
            value, slope = gap(level)
        return value, slope

    gap_lo = math.nan
    # a start point counts only where N' has its side's sign (never at nan)
    if all(shape(rho, l)[1] * (1.0 if side == "+" else -1.0) > 0.0
           for side, l in points.items()):
        gap_lo, slope_lo = gap(level_lo)
    if not gap_lo < 0.0:
        # the start points certify nothing: solve the first level exactly
        points = {
            side: _critical_point(
                b, rho, side, anchor, level_lo, points[side] if monotone else math.nan
            )
            for side, (monotone, anchor) in anchors.items()
        }
        gap_lo, slope_lo = gap(level_lo)
        if gap_lo > 0.0:
            # Open near the floor already; the threshold collapses onto it.
            return -b * depth, math.nan, math.nan
    first = dict(points)
    level = level_lo
    if gap_lo < 0.0:
        # only the sign of the gap at level 0 counts, and it is positive
        bracket = Bracket(level_lo, 0.0, gap_lo, 1.0)
        level = newton_root(joint, bracket, level_lo - gap_lo / slope_lo)
    return b * level, points.get("-", math.nan), points.get("+", math.nan)

