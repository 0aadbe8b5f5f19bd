"""Full butterfly-arbitrage classification and the free-domain box.

The diagnostic g(k) of a positive SVI smile splits in normalized
coordinates as G(l) = G1(l) + G2(l)/(2*sigma).  The waterfall below checks,
in order:

  1. wing slopes b*(1 -+ rho) <= 2, otherwise arbitrage regardless of the
     remaining parameters (failure type 1);
  2. a non-empty interval of shifts mu keeping G1 > 0: the same test as
     alpha > F(b, rho), where it closes, with no solve of F (type 2);
  3. mu strictly inside that interval, which makes G1 > 0 everywhere
     (type 3);
  4. sigma >= sigma_star(alpha, b, rho, mu), the smallest curvature scale
     for which the negative tails of G2 cannot drag G below zero (type 4).

Surviving all four steps is equivalent to g >= 0 on the whole line.  The
same four quantities give a bijection between the strictly free region and
a simple box (rho, b', u, q, v), which is what the calibrator optimizes
over: every box point's image (BoxChart.image, box_to_params) is a smile
that this waterfall certifies Free, in floats, or a typed error where
there is none.  This module owns that chart's forward map, its image and
the projection of a raw smile into the box; calibration owns its partials.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DegenerateSigma, DomainError, FukasawaViolated, InvalidParams, NotInDomain
from .fukasawa import (
    SLOPE_EQ_TOL,
    MuInterval,
    bound_partials,
    fukasawa_threshold,
    interval_with_optimizers,
    l_star,
    mu_interval,
    threshold_with_optimizers,
)
from .numerics import Bracket, expand_bracket, newton_root, require_finite
from .smile import SviParams, n_funcs, omega, shape

#: Doublings of l, out from a G2 root, allowed to bracket a tail's peak.
_MAX_DOUBLINGS = 60

#: Box coordinate indices, which are also the chart Jacobian's columns.
_RHO, _BP, _U, _Q, _V = range(5)


class Status(enum.Enum):
    """Outcome of the waterfall; the numbers match the failure types."""

    FREE = "Free"
    FAILURE1 = "Failure1"
    FAILURE2 = "Failure2"
    FAILURE3 = "Failure3"
    FAILURE4 = "Failure4"


@dataclass(frozen=True)
class G2Zeros:
    """The two roots of the curvature excess G2; G2 > 0 strictly between.

    At rho = -1 the right root escapes to +inf (G2 stays positive on the
    right tail); symmetrically for rho = +1.
    """

    l1: float
    l2: float


@dataclass(frozen=True)
class ArbitrageDiagnostic:
    """Waterfall verdict, what it computed on the way down and F(b, rho)."""

    status: Status
    params: SviParams
    slope_left: float
    slope_right: float
    alpha: float | None = None
    mu: float | None = None
    interval: MuInterval | None = None
    sigma_star: float | None = None
    message: str = ""

    @cached_property
    def threshold(self) -> float | None:
        """F(b, rho), solved when first read; None for b = 0 and Failure1."""
        if self.alpha is None or self.status is Status.FAILURE1:
            return None
        return fukasawa_threshold(self.params.b, self.params.rho)

    @property
    def is_free(self) -> bool:
        return self.status is Status.FREE

    @property
    def exit_code(self) -> int:
        """Shell-friendly mapping: Free -> 0, failure type n -> n + 1."""
        if self.status is Status.FREE:
            return 0
        return int(self.status.value[-1]) + 1


@dataclass(frozen=True)
class BoxCoords:
    """Free-domain box coordinates.

    rho and q live in (-1, 1), b' in (0, 1], u > 0 and v >= 0.  b' rescales
    the larger wing slope to its admissible range, u is the margin of alpha
    over the threshold, q the relative position of mu inside its interval
    and v the margin of sigma over sigma_star.
    """

    rho: float
    b_prime: float
    u: float
    q: float
    v: float

    def __post_init__(self) -> None:
        values = (self.rho, self.b_prime, self.u, self.q, self.v)
        if not all(math.isfinite(x) for x in values):
            raise NotInDomain(f"box coordinates must be finite, got {values}")
        if not -1.0 < self.rho < 1.0:
            raise NotInDomain(f"rho must lie in (-1, 1), got {self.rho}")
        if not 0.0 < self.b_prime <= 1.0:
            raise NotInDomain(f"b' must lie in (0, 1], got {self.b_prime}")
        if not self.u > 0.0:
            raise NotInDomain(f"u must be positive, got {self.u}")
        if not -1.0 < self.q < 1.0:
            raise NotInDomain(f"q must lie in (-1, 1), got {self.q}")
        if self.v < 0.0:
            raise NotInDomain(f"v must be non-negative, got {self.v}")


def g2_zeros(alpha: float, b: float, rho: float) -> G2Zeros:
    """Roots of G2(l) = N''(l) - N'(l)^2/(2 N(l)).

    G2 has the sign of q(l) = 2*alpha/b + (2 - l^2)*sqrt(l^2+1)
    - rho^2*(l^2+1)^(3/2) - 2*rho*l^3, positive at both the vertex and the
    origin and negative in the tails, with exactly one root on each side
    (the matching tail vanishes at |rho| = 1 and the root moves to
    infinity).  With r = sqrt(l^2+1), q = 2*alpha/b + 2(rho*l + r) -
    r*(rho*r + l)^2, read from smile.shape's terms, whose far-side form
    keeps the far root's digits as |rho| -> 1.  Each root is a Newton
    solve started from the secant point of the bracket walked out from the
    vertex or the origin.
    """
    _require_positive(alpha, b, rho)
    level = 2.0 * alpha / b

    def q_slope(l: float) -> tuple[float, float]:
        # base = rho*r + l, and base' = (rho*l + r)/r
        p, s, r = shape(rho, l)
        base = s * r
        return level + 2.0 * p - r * base * base, 2.0 * s - base * (l / r * base + 2.0 * p)

    def root(anchor: float, direction: int) -> float:
        br = expand_bracket(lambda l: q_slope(l)[0], anchor, direction)
        secant = br.lo - br.f_lo * (br.hi - br.lo) / (br.f_hi - br.f_lo)
        return newton_root(q_slope, br, secant)

    anchor = l_star(rho) if abs(rho) < 1.0 else 0.0
    l1 = -math.inf if rho == 1.0 else root(min(anchor, 0.0), -1)
    l2 = math.inf if rho == -1.0 else root(max(anchor, 0.0), 1)
    return G2Zeros(l1, l2)


def _require_positive(alpha: float, b: float, rho: float) -> None:
    """Raise DomainError unless (alpha, b, rho) is a positive smile: finite,
    b > 0, |rho| <= 1 and N > 0 at every finite l, since G2 and the tail
    deficit divide by N."""
    require_finite(alpha=alpha, b=b, rho=rho)
    if b <= 0.0:
        raise DomainError(f"b must be positive, got {b}")
    if abs(rho) > 1.0:
        raise DomainError(f"rho must lie in [-1, 1], got {rho}")
    min_n = alpha + b * math.sqrt(omega(rho))
    # At |rho| = 1 the infimum is reached only in the wing limit, so the
    # smile stays positive at every finite l as long as alpha >= 0.
    if (abs(rho) < 1.0 and min_n <= 0.0) or (abs(rho) == 1.0 and alpha < 0.0):
        raise DomainError(
            f"a positive smile is required: alpha + b*sqrt(1-rho^2) = {min_n}"
        )


class _Deficit(NamedTuple):
    """The tail deficit -G2/(2*G1) at a log-strike l and the terms it is
    built from.  G1 is the product of the slope factors
    1 - N'*(shift +- 1/4), with shift = (l + mu)/(2N); value is inf where
    G1 rounds to zero or below."""

    value: float
    n: tuple[float, float, float, float]
    shift: float
    factors: tuple[float, float]
    g1: float


def _deficit(alpha: float, b: float, rho: float, mu: float, l: float) -> _Deficit:
    n = n0, n1, n2, _ = n_funcs(alpha, b, rho, l)
    shift = (l + mu) / (2.0 * n0)
    factors = 1.0 - n1 * (shift + 0.25), 1.0 - n1 * (shift - 0.25)
    g1 = factors[0] * factors[1]
    g2 = n2 - n1 * n1 / (2.0 * n0)
    value = -g2 / (2.0 * g1) if g1 > 0.0 else math.inf
    return _Deficit(value, n, shift, factors, g1)


def sigma_star_profile(alpha: float, b: float, rho: float, mu: float, h: float) -> float:
    """The tail deficit -G2/(2*G1) at l = 1/h.

    Parametrized by the reciprocal h so each tail beyond a G2 root maps to a
    bounded interval; the profile vanishes toward h -> 0 and at the roots.
    Returns +inf, and so does sigma_star, where G1 rounds to zero or below:
    only when mu sits within rounding of an interval wall.  Raises
    DomainError for h = 0 and where the smile is not positive, as g2_zeros
    does.
    """
    if h == 0.0:
        raise DomainError("h must be non-zero")
    _require_positive(alpha, b, rho)
    return _deficit(alpha, b, rho, mu, 1.0 / h).value


def sigma_star(alpha: float, b: float, rho: float, mu: float) -> float:
    """Smallest sigma for which the smile is butterfly free, given that the
    slope factors already pass (types 1-3).

    Equals the supremum of -G2/(2*G1) over the two tails where G2 < 0,
    each tail's single peak placed by a root of the deficit's
    l-derivative, bracketed by doubling l out from the tail's G2 root.
    It is +inf where G1 rounds to zero or below on a tail.  Raises
    FukasawaViolated when mu is not strictly admissible, since G1 must be
    positive on both tails.
    """
    interval = mu_interval(alpha, b, rho)
    if not interval.contains(mu):
        raise FukasawaViolated(
            f"mu = {mu} is not strictly inside ({interval.lower}, {interval.upper})"
        )
    return _sigma_star_trusted(alpha, b, rho, mu)[0]


def _sigma_star_trusted(
    alpha: float, b: float, rho: float, mu: float
) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """sigma_star, its argmax h (the dangerous log-strike is l = 1/h) and
    the (supremum, argmax h) of the tail deficit on each finite tail, left
    tail first.  Each tail's walk starts from its root of G2, solved here;
    the caller vouches that mu lies strictly inside its interval."""
    zeros = g2_zeros(alpha, b, rho)
    tails = []
    if math.isfinite(zeros.l1):
        tails.append(_side_max(alpha, b, rho, mu, zeros.l1))
    if math.isfinite(zeros.l2):
        tails.append(_side_max(alpha, b, rho, mu, zeros.l2))
    best, h_best = 0.0, math.nan
    for value, h in tails:
        if value > best:
            best, h_best = value, h
    return best, h_best, tuple(tails)


def _profile_partials(
    alpha: float, b: float, rho: float, mu: float, h: float
) -> tuple[float, float, float, float]:
    """Partials (d/dalpha, d/db, d/drho, d/dmu) of the tail supremum whose
    argmax is h.

    By the envelope theorem these are the partials of the tail deficit
    -G2/(2*G1) at the argmax, a root of its l-derivative that _side_max
    solves to roundoff.
    """
    l = 1.0 / h
    value, (n0, n1, _, _), shift, (f_lo, f_hi), g1 = _deficit(alpha, b, rho, mu, l)
    out = []
    # (dN, dN', dN'', d(l + mu)) along each direction
    for dn0, dn1, dn2, d_num in (
        (1.0, 0.0, 0.0, 0.0),
        (*n_funcs(0.0, 1.0, rho, l)[:3], 0.0),
        (b * l, b, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ):
        d_shift = d_num / (2.0 * n0) - shift * dn0 / n0
        d_f_lo = -(dn1 * (shift + 0.25) + n1 * d_shift)
        d_f_hi = -(dn1 * (shift - 0.25) + n1 * d_shift)
        d_g1 = d_f_lo * f_hi + f_lo * d_f_hi
        d_g2 = dn2 - n1 * dn1 / n0 + n1 * n1 * dn0 / (2.0 * n0 * n0)
        out.append(-(d_g2 + 2.0 * value * d_g1) / (2.0 * g1))
    return tuple(out)


def _profile_slope(
    alpha: float, b: float, rho: float, mu: float, l: float
) -> tuple[float, float]:
    """First and second l-derivatives of the tail deficit -G2/(2*G1) at l.

    Where G1 rounds to zero or below, the deficit is +inf, and both are 0
    there: a root for _side_max's walk and Newton solve, which then read a
    supremum of +inf.
    """
    value, (n0, n1, n2, n3), shift, (f_lo, f_hi), g1 = _deficit(alpha, b, rho, mu, l)
    if value == math.inf:
        return 0.0, 0.0
    r = math.hypot(l, 1.0)
    n4 = 3.0 * b * (4.0 * (l / r) ** 2 - 1.0 / (r * r)) / (r * r * r * r * r)
    d_shift = (1.0 - 2.0 * n1 * shift) / (2.0 * n0)
    dd_shift = -(2.0 * n1 * d_shift + n2 * shift) / n0
    # each slope factor is 1 - N'*(shift + c) with c = +-1/4
    d_lo = -(n2 * (shift + 0.25) + n1 * d_shift)
    d_hi = -(n2 * (shift - 0.25) + n1 * d_shift)
    dd_lo = -(n3 * (shift + 0.25) + 2.0 * n2 * d_shift + n1 * dd_shift)
    dd_hi = -(n3 * (shift - 0.25) + 2.0 * n2 * d_shift + n1 * dd_shift)
    d_g1 = d_lo * f_hi + f_lo * d_hi
    dd_g1 = dd_lo * f_hi + 2.0 * d_lo * d_hi + f_lo * dd_hi
    u = n1 / n0
    d_g2 = n3 - u * n2 + u * u * n1 / 2.0
    dd_g2 = n4 - (n2 * n2 + n1 * n3) / n0 + 2.5 * u * u * n2 - u * u * u * n1
    d_value = -(d_g2 + 2.0 * value * d_g1) / (2.0 * g1)
    dd_value = -(dd_g2 + 2.0 * value * dd_g1 + 4.0 * d_value * d_g1) / (2.0 * g1)
    return d_value, dd_value


def _side_max(
    alpha: float, b: float, rho: float, mu: float, root: float
) -> tuple[float, float]:
    """(supremum, argmax h) of the tail deficit beyond the G2 root, toward
    h = 0.

    The deficit is 0 at the root and rises outward to a single peak.  Far
    out it decays like 1/|l|, or on a wing at slope 2 keeps rising until
    G1 loses its digits.  So l doubles from the root until the profile's
    l-derivative turns, and one Newton solve inside that bracket places
    the peak; if it never turns, the best value seen stands.  A deficit of
    +inf on the way (G1 rounded to zero) is the supremum.
    """
    def slope(x: float) -> tuple[float, float]:
        return _profile_slope(alpha, b, rho, mu, x)

    l, (d, dd) = root, slope(root)
    if d == 0.0:
        return _deficit(alpha, b, rho, mu, l).value, 1.0 / l
    for _ in range(_MAX_DOUBLINGS):
        l_next = 2.0 * l
        d_next, dd_next = slope(l_next)
        if d_next == 0.0:
            l = l_next
            break
        if d * d_next < 0.0:
            if l < l_next:
                bracket = Bracket(l, l_next, d, d_next)
            else:
                bracket = Bracket(l_next, l, d_next, d)
            # the walk holds the slope and curvature at l, so the first
            # Newton step from there is free; a start outside the bracket
            # (here also l itself) makes newton_root bisect instead
            l = newton_root(slope, bracket, l - d / dd if dd != 0.0 else l)
            break
        l, d, dd = l_next, d_next, dd_next
    else:
        seen = (root * 2.0**k for k in range(_MAX_DOUBLINGS + 1))
        return max((_deficit(alpha, b, rho, mu, x).value, 1.0 / x) for x in seen)
    return _deficit(alpha, b, rho, mu, l).value, 1.0 / l


def check_no_arbitrage(params: SviParams) -> ArbitrageDiagnostic:
    """Run the four-step waterfall and report the first failure, if any.

    Every valid smile (the SviParams constructor enforces that) gets a
    verdict.  The steps read alpha = a/sigma and mu = m/sigma, reported
    in the diagnostic, so a minimum that rounds below zero there fails step
    1 or 2.  Step 2 fails exactly where mu_interval finds the interval at
    alpha empty, with no solve of F.  sigma = 0 raises DegenerateSigma, as
    the normalized analysis needs a curvature scale, and an a/sigma or
    m/sigma that overflows InvalidParams.  b = 0 is Free: a flat smile is
    plain Black-Scholes.
    """
    b, rho, sigma = params.b, params.rho, params.sigma
    if sigma <= 0.0:
        raise DegenerateSigma(f"sigma must be positive, got {sigma}")
    slope_left, slope_right = b * (1.0 - rho), b * (1.0 + rho)
    alpha = mu = interval = s_star = None

    def verdict(status: Status, message: str) -> ArbitrageDiagnostic:
        return ArbitrageDiagnostic(
            status, params, slope_left, slope_right, alpha=alpha, mu=mu,
            interval=interval, sigma_star=s_star, message=message)

    if b == 0.0:
        return verdict(Status.FREE, "b = 0: flat smile, trivially free")
    alpha, mu = params.a / sigma, params.m / sigma
    if not (math.isfinite(alpha) and math.isfinite(mu)):
        raise InvalidParams(f"a/sigma and m/sigma must be finite, got ({alpha}, {mu})")
    if slope_left > 2.0 + SLOPE_EQ_TOL or slope_right > 2.0 + SLOPE_EQ_TOL:
        return verdict(Status.FAILURE1, f"wing slopes b*(1-rho) = {slope_left:.6g}, "
                       f"b*(1+rho) = {slope_right:.6g} exceed the limit 2")
    try:
        interval = mu_interval(alpha, b, rho)
    except FukasawaViolated:
        return verdict(Status.FAILURE2, f"the shift interval at alpha = {alpha:.6g} "
                       "is empty: alpha is at or below F(b, rho)")
    if not interval.contains(mu):
        return verdict(Status.FAILURE3, f"mu = {mu:.6g} outside the open interval "
                       f"({interval.lower:.6g}, {interval.upper:.6g})")
    s_star = _sigma_star_trusted(alpha, b, rho, mu)[0]
    if sigma < s_star:
        return verdict(Status.FAILURE4, f"sigma = {sigma!r} below the minimal "
                       f"curvature scale sigma_star = {s_star!r}")
    return verdict(Status.FREE, "no butterfly arbitrage")


class ChartPoint(NamedTuple):
    """One box point and every intermediate of its image under the chart."""

    x: tuple[float, float, float, float, float]
    b: float
    threshold: float
    #: optimizers (l_minus, l_plus) of the interval bounds at alpha = F
    threshold_optimizers: tuple[float, float]
    room: float
    u_eff: float
    alpha: float
    interval: MuInterval
    #: optimizers (l_minus, l_plus) of the interval bounds at alpha
    optimizers: tuple[float, float]
    mu: float
    tails: tuple[tuple[float, float], ...]
    sigma_star: float
    sigma: float

    @property
    def raw(self) -> tuple[float, float, float, float, float]:
        """(a, b, rho, m, sigma)."""
        return (
            self.alpha * self.sigma, self.b, self.x[0], self.mu * self.sigma, self.sigma
        )


class BoxChart:
    """The box (rho, b', u, q, v) -> smile chart and the projection of a
    raw smile into the box.

    b = 2b'/(1+|rho|), alpha = F(b, rho) + u, mu sits at relative position
    q inside its interval and sigma = sigma_star + v.  An optional cap on
    alpha is enforced by clamping the margin u inside the mapping, which
    keeps a solver's rectangle fixed while keeping alpha <= alpha_cap at
    every evaluated point.  ``image`` turns a point into raw parameters
    that the waterfall certifies Free; with the default infinite cap that
    is box_to_params.  Its exact partials are calibration's
    (_Objective.partials).  Where G1 rounds to zero on a tail, sigma_star
    and the point's sigma are +inf, and it has no image.
    """

    def __init__(self, alpha_cap: float = math.inf) -> None:
        self.alpha_cap = alpha_cap

    def point(self, x) -> ChartPoint:
        rho, b_prime, u, q, v = (float(c) for c in x)
        b = b_prime * 2.0 / (1.0 + abs(rho))
        threshold, *at_threshold = threshold_with_optimizers(b, rho)
        room, u_eff, alpha = self._clamp(threshold, u)
        interval, *optimizers = interval_with_optimizers(alpha, b, rho)
        mu, floor, tails = _shift_and_floor(alpha, b, rho, interval, q)
        return ChartPoint(
            (rho, b_prime, u, q, v), b, threshold, tuple(at_threshold), room,
            u_eff, alpha, interval, tuple(optimizers), mu, tails, floor, floor + v,
        )

    def image(self, p: ChartPoint) -> SviParams:
        """p's raw parameters, which the waterfall, reading alpha = a/sigma
        and mu = m/sigma, certifies Free.  Where (alpha*sigma, mu*sigma)
        does not divide back to the pair whose floor is held, that pair is
        checked and its floor solved as steps 2-4 do, and a sigma below it
        rises to floor + v; sigma only rises, and each rebuilt pair, within
        an ulp of p's, raises it once at most.  A pair that fails step 2 or 3
        or has no finite floor raises InvalidParams (or mu_interval's error).
        """
        b, rho, v = p.b, p.x[_RHO], p.x[_V]
        alpha, mu, interval, floor, sigma = p.alpha, p.mu, p.interval, p.sigma_star, p.sigma
        while alpha > p.threshold and interval.contains(mu) and floor < math.inf:
            sigma = floor + v if sigma < floor else sigma
            a, m = p.alpha * sigma, p.mu * sigma
            if (a / sigma, m / sigma) == (alpha, mu):
                return SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma)
            if a / sigma != alpha:
                interval = mu_interval(a / sigma, b, rho)
            alpha, mu = a / sigma, m / sigma
            if alpha > p.threshold and interval.contains(mu):
                floor = _sigma_star_trusted(alpha, b, rho, mu)[0]
        raise InvalidParams(f"box point {p.x} has no image: (alpha, mu) = ({alpha}, {mu}), "
                            f"F = {p.threshold}, {interval}, sigma_star = {floor}")

    def _clamp(self, threshold: float, u: float) -> tuple[float, float, float]:
        """(room, u_eff, alpha): the margin u clamped so alpha stays at or
        below the cap, exactly; room = alpha_cap - F > 0, as F <= 0 < alpha_cap."""
        room = self.alpha_cap - threshold
        u_eff = min(u, room)
        return room, u_eff, min(threshold + u_eff, self.alpha_cap)

    def project(self, params: SviParams, lower, upper) -> ChartPoint:
        """The chart point of the box coordinates whose image is the closest
        expressible free smile; its ``x`` holds the coordinates.

        Each coordinate is clipped into [lower, upper], except q, which
        keeps a margin of a thousandth of the interval width because
        sigma_star blows up against the walls.  params need not be free.
        The point is the one ``point(x)`` would give, solved once.
        """
        lower = [float(c) for c in lower]
        upper = [float(c) for c in upper]
        sigma = max(params.sigma, 1e-6)
        rho = min(max(params.rho, lower[_RHO]), upper[_RHO])
        b_prime = min(max(params.b * (1.0 + abs(rho)) / 2.0, lower[_BP]), upper[_BP])
        b = b_prime * 2.0 / (1.0 + abs(rho))
        threshold, *at_threshold = threshold_with_optimizers(b, rho)
        u = min(max(params.a / sigma - threshold, lower[_U]), upper[_U])
        room, u_eff, alpha = self._clamp(threshold, u)
        interval, *optimizers = interval_with_optimizers(alpha, b, rho)
        q = (2.0 * params.m / sigma - interval.upper - interval.lower) / interval.width()
        q = min(max(q, -1.0 + 1e-3), 1.0 - 1e-3)
        mu, floor, tails = _shift_and_floor(alpha, b, rho, interval, q)
        v = min(max(sigma - floor, lower[_V]), upper[_V])
        return ChartPoint(
            (rho, b_prime, u, q, v), b, threshold, tuple(at_threshold), room,
            u_eff, alpha, interval, tuple(optimizers), mu, tails, floor, floor + v,
        )


def _shift_and_floor(
    alpha: float, b: float, rho: float, interval: MuInterval, q: float
) -> tuple[float, float, tuple[tuple[float, float], ...]]:
    """(mu, sigma_star, tails): mu at relative position q inside the
    interval, and the curvature floor there with its tail maxima."""
    mu = 0.5 * (1.0 + q) * interval.upper + 0.5 * (1.0 - q) * interval.lower
    floor, _, tails = _sigma_star_trusted(alpha, b, rho, mu)
    return mu, floor, tails


def _threshold_partials(
    b: float, rho: float, threshold: float, l_minus: float, l_plus: float
) -> tuple[float, float]:
    """(dF/db, dF/drho) off the slope limits.

    F solves D(F) = 0 for the gap D = inf L_plus - sup L_minus, so
    dF = -D_(b, rho)/D_alpha, each partial of D taken at the optimizers
    l_minus = l-(F), l_plus = l+(F).  Where the gap is open at the
    positivity floor, fukasawa_threshold returns the floor
    -b*sqrt(1-rho^2) itself.
    """
    root = math.sqrt(omega(rho))
    if threshold == -b * root:
        return -root, b * rho / root
    la, lb, lr = bound_partials(l_minus, threshold, b, rho, "-")
    ua, ub, ur = bound_partials(l_plus, threshold, b, rho, "+")
    d_alpha = ua - la
    return -(ub - lb) / d_alpha, -(ur - lr) / d_alpha


def box_to_params(box: BoxCoords) -> SviParams:
    """Map box coordinates to raw smile parameters that the waterfall
    certifies Free: the image of their point under the uncapped BoxChart.
    Raises InvalidParams where the point has no image in floats, as where
    G1 rounds to zero on a tail and sigma_star is +inf.
    """
    chart = BoxChart()
    return chart.image(chart.point((box.rho, box.b_prime, box.u, box.q, box.v)))


def params_to_box(params: SviParams) -> BoxCoords:
    """Invert box_to_params on the strictly free region.

    Raises NotInDomain for anything the waterfall does not classify Free,
    for |rho| = 1 (the box keeps rho open), for b = 0 (no wing scale to
    invert) and for a Free smile whose alpha does not exceed the float F
    (its float shift interval is open, but u = alpha - F is not positive).
    """
    return box_from_diagnostic(check_no_arbitrage(params))


def box_from_diagnostic(diag: ArbitrageDiagnostic) -> BoxCoords:
    """params_to_box for a smile whose waterfall diagnostic is in hand,
    with the same NotInDomain cases."""
    params = diag.params
    if params.b <= 0.0:
        raise NotInDomain(f"b must be positive to invert, got {params.b}")
    if abs(params.rho) >= 1.0:
        raise NotInDomain(f"|rho| must be below 1 to invert, got {params.rho}")
    if not diag.is_free:
        raise NotInDomain(f"parameters are not arbitrage free: {diag.message}")
    u = diag.alpha - diag.threshold
    if not u > 0.0:
        raise NotInDomain(
            f"alpha = {diag.alpha} does not exceed the float threshold F = "
            f"{diag.threshold}; u = alpha - F must be positive"
        )
    interval = diag.interval
    q = (2.0 * diag.mu - interval.upper - interval.lower) / interval.width()
    return BoxCoords(
        rho=params.rho,
        b_prime=params.b * (1.0 + abs(params.rho)) / 2.0,
        u=u,
        q=q,
        # Free means sigma >= sigma_star, so the rounded difference is >= 0
        v=params.sigma - diag.sigma_star,
    )
