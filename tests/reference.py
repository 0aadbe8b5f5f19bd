"""Independent reference formulas that the tests compare the solvers with."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import mpmath

from butterfree.errors import (
    DomainError,
    MaxIterations,
    NonPositiveVariance,
    PriceOutOfRange,
)
from butterfree.fukasawa import fukasawa_threshold, g_pm
from butterfree.smile import SviParams, n_funcs


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


class Normalized(NamedTuple):
    """A smile with sigma divided out: alpha = a/sigma, mu = m/sigma.
    Unvalidated, so a test can place it anywhere."""

    alpha: float
    b: float
    rho: float
    mu: float
    sigma: float

    @classmethod
    def of(cls, params: SviParams) -> Normalized:
        return cls(params.a / params.sigma, params.b, params.rho,
                   params.m / params.sigma, params.sigma)


def denormalize(norm: Normalized) -> SviParams:
    """Reattach sigma: (alpha, mu) scale back to (a, m)."""
    return SviParams(
        a=norm.alpha * norm.sigma,
        b=norm.b,
        rho=norm.rho,
        m=norm.mu * norm.sigma,
        sigma=norm.sigma,
    )


@dataclass(frozen=True)
class GSplit:
    """The butterfly diagnostic split into its sigma-independent factors."""

    g1_plus: float
    g1_minus: float
    g1: float
    g2: float


def g_split(norm: Normalized, l: float) -> GSplit:
    """Evaluate the split diagnostic at reduced log-strike l.

    Recombines to the raw diagnostic as
    g(k) = G1(l) + G2(l)/(2*sigma) at k = sigma*(l + mu).
    """
    n0, n1, n2, _ = n_funcs(norm.alpha, norm.b, norm.rho, l)
    if n0 <= 0.0:
        raise NonPositiveVariance("normalized variance must be positive at l")
    shift = (l + norm.mu) / (2.0 * n0)
    g1p = 1.0 - n1 * (shift + 0.25)
    g1m = 1.0 - n1 * (shift - 0.25)
    g2 = n2 - n1 * n1 / (2.0 * n0)
    return GSplit(g1_plus=g1p, g1_minus=g1m, g1=g1p * g1m, g2=g2)


def bounds_50_digits(b: float, rho: float, level) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(sup L_minus, inf L_plus) at alpha = b*level, in 50 digits: the
    interval of shifts mu that keeps both slope factors positive.

    Each bound's optimizer is the root of g_pm(l) = level on the far side
    of the side's anchor, bisected in 50 digits in a bracket walked out
    from the anchor.  The anchor is placed in 50 digits too: the vertex
    where g_pm runs monotone into it, otherwise g_pm's turning point
    m = +-b/sqrt((2 - s)*(2 + b*(1 -+ rho))) for the side's wing slope s.
    At s = 2 exactly the bound is -+alpha/2, and above 2 there is none.
    """
    with mpmath.workdps(50):
        b_, r_, level = mpmath.mpf(b), mpmath.mpf(rho), mpmath.mpf(level)
        vertex = -r_ / mpmath.sqrt(1 - r_ * r_)

        def g(l, c):
            r = mpmath.sqrt(l * l + 1)
            base = r_ * r + l
            return base * base * (r * (mpmath.mpf(0.5) + c * r_) + c * l) - (r_ * l + r)

        def bound(side):
            # c = +-b/4 and the sign of the slope-factor term, by side
            sign = -1 if side == "-" else 1
            c = -sign * b_ / 4
            slope = b_ * (1 + sign * r_)
            if slope > 2:
                raise DomainError(f"wing slope {slope} exceeds the limit 2")
            if slope == 2:
                return sign * b_ * level / 2
            if sign * r_ < 0 and b_ * (1 - r_ * r_) <= -2 * sign * r_:
                lo = vertex
            else:
                lo = sign * b_ / mpmath.sqrt((2 - slope) * (2 + b_ * (1 - sign * r_)))
            hi = lo + sign
            while g(hi, c) < level:
                lo, hi = hi, hi + 2 * (hi - lo)
            for _ in range(250):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if g(mid, c) < level else (lo, mid)
            r = mpmath.sqrt(lo * lo + 1)
            n0 = b_ * (level + r_ * lo + r)
            n1 = b_ * (r_ + lo / r)
            return 2 * n0 * (1 / n1 - sign * mpmath.mpf(0.25)) - lo

        return bound("-"), bound("+")


def gap_50_digits(b: float, rho: float, level) -> mpmath.mpf:
    """inf L_plus - sup L_minus at alpha = b*level, in 50 digits."""
    with mpmath.workdps(50):
        lower, upper = bounds_50_digits(b, rho, level)
        return upper - lower


def threshold_50_digits(b: float, rho: float) -> mpmath.mpf:
    """F(b, rho) in 50 digits: the secant iteration on gap_50_digits in the
    level, from the float threshold's level and 1e-9 above it."""
    with mpmath.workdps(50):
        x0 = mpmath.mpf(fukasawa_threshold(b, rho) / b)
        x1 = x0 + mpmath.mpf(1e-9)
        g0, g1 = gap_50_digits(b, rho, x0), gap_50_digits(b, rho, x1)
        while abs(x1 - x0) > mpmath.mpf(10) ** -35:
            x0, g0, x1 = x1, g1, x1 - g1 * (x1 - x0) / (g1 - g0)
            g1 = gap_50_digits(b, rho, x1)
        return x1 * b


def g_50_digits(params: SviParams, k: float) -> mpmath.mpf:
    """Durrleman's g(k) of the raw smile in 50 digits, the float parameters
    and log-strike taken as exact:
    g = (1 - k*w'/(2w))^2 - (w'^2/4)*(1/w + 1/4) + w''/2."""
    with mpmath.workdps(50):
        a, b, rho, m, sigma = (
            mpmath.mpf(x) for x in (params.a, params.b, params.rho, params.m, params.sigma)
        )
        k_ = mpmath.mpf(k)
        dk = k_ - m
        r = mpmath.sqrt(dk * dk + sigma * sigma)
        w = a + b * (rho * dk + r)
        w1 = b * (rho + dk / r)
        w2 = b * sigma * sigma / r**3
        return +((1 - k_ * w1 / (2 * w)) ** 2 - w1 * w1 / 4 * (1 / w + 0.25) + w2 / 2)


# Scalar Black-Scholes pricing and the one-quote implied-vol loop, with the
# operation order that the batched black_scholes.implied_total_vols keeps
# element by element; the batched inverter must match them bit for bit.

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _norm_pdf(x: float) -> float:
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def _d1_d2(k: float, theta: float) -> tuple[float, float]:
    half = 0.5 * theta
    ratio = k / theta
    return -ratio + half, -ratio - half


def scalar_call(k: float, theta: float) -> float:
    d1, d2 = _d1_d2(k, theta)
    if k > 700.0:
        # e^k Phi(d2) = phi(d1) * Phi(d2)/phi(d2), the latter by its
        # asymptotic series in 1/d2^2, d2 < -37
        z = 1.0 / (d2 * d2)
        series = 1.0 + z * (-1.0 + z * (3.0 + z * (-15.0 + z * (105.0 + z * (-945.0 + z * 10395.0)))))
        return _norm_cdf(d1) - _norm_pdf(d1) * (series / -d2)
    return _norm_cdf(d1) - math.exp(k) * _norm_cdf(d2)


def scalar_put(k: float, theta: float) -> float:
    d1, d2 = _d1_d2(k, theta)
    return math.exp(k) * _norm_cdf(-d2) - _norm_cdf(-d1)


def scalar_implied_total_vol(k: float, price: float, kind: str = "call") -> float:
    """One quote at a time: Newton steps with the analytic vega inside a
    maintained bisection bracket on [1e-9, 50], 200 steps at most."""
    theta_min, theta_max = 1e-9, 50.0
    if kind == "call":
        model = scalar_call
        intrinsic = 0.0 if k >= 0.0 else max(1.0 - math.exp(k), 0.0)
        upper = 1.0
    elif kind == "put":
        model = scalar_put
        try:
            upper = math.exp(k)
        except OverflowError:
            upper = math.inf
        intrinsic = max(upper - 1.0, 0.0)
    else:
        raise DomainError(f"kind must be 'call' or 'put', got {kind!r}")
    if not math.isfinite(price):
        raise PriceOutOfRange(f"price must be finite, got {price}")
    if price <= intrinsic:
        raise PriceOutOfRange(
            f"{kind} price {price} at or below intrinsic value {intrinsic}"
        )
    if price >= upper:
        raise PriceOutOfRange(f"{kind} price {price} at or above upper bound {upper}")
    if price < 1e-14:
        raise PriceOutOfRange(f"{kind} price {price} below the smallest invertible price 1e-14")

    lo, hi = theta_min, theta_max
    f_lo = model(k, lo) - price
    f_hi = model(k, hi) - price
    if f_lo > 0.0:
        raise PriceOutOfRange(
            f"{kind} price {price} below the price at total vol {theta_min}"
        )
    if f_hi < 0.0:
        raise PriceOutOfRange(
            f"{kind} price {price} above the price at total vol {theta_max}"
        )

    theta = min(max(math.sqrt(2.0 * abs(k)) + 0.1, lo), hi)
    for _ in range(200):
        diff = model(k, theta) - price
        if abs(diff) <= min(1e-16, 1e-6 * price):
            return theta
        if diff > 0.0:
            hi = theta
        else:
            lo = theta
        if hi - lo <= 1e-14 * (1.0 + theta):
            return 0.5 * (lo + hi)
        vega = _norm_pdf(_d1_d2(k, theta)[0])
        if vega > 1e-300:
            candidate = theta - diff / vega
        else:
            candidate = 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        theta = candidate
    raise MaxIterations("implied total vol did not converge within 200 iterations")


def slice_one_quote_at_a_time(chain, fd) -> tuple[list, list, list, list, list]:
    """(k, w_mid, w_bid, w_ask, skips) of a chain, inverting each strike's
    out-of-the-money mid, bid and ask in turn with the scalar loop.  The
    later of two strikes on one log-moneyness is skipped, and a side
    inverted across the mid takes the mid's variance."""
    ks, w_mid, w_bid, w_ask, skipped = [], [], [], [], []
    scale = fd.discount * fd.forward
    for strike in sorted({q.strike for q in chain.quotes}):
        call, put = (next((q for q in chain.quotes if q.strike == strike and q.kind == kind), None)
                     for kind in ("call", "put"))
        preferred = (call, put) if strike >= fd.forward else (put, call)
        quote = preferred[0] if preferred[0] is not None else preferred[1]
        if quote is None:
            continue
        if quote.bid == 0.0:
            skipped.append((strike, f"{quote.kind} bid is zero"))
            continue
        k = math.log(strike / fd.forward)
        try:
            theta = scalar_implied_total_vol(k, quote.mid / scale, quote.kind)
        except PriceOutOfRange as exc:
            skipped.append((strike, f"{quote.kind} mid: {exc}"))
            continue
        sides = []
        for price in (quote.bid, quote.ask):
            try:
                side = scalar_implied_total_vol(k, price / scale, quote.kind)
                sides.append(side * side)
            except PriceOutOfRange:
                sides.append(math.nan)
        if ks and k <= ks[-1]:
            skipped.append((strike, f"log-moneyness {k!r} collides with strike {kept!r}"))
            continue
        kept = strike
        ks.append(k)
        w_mid.append(theta * theta)
        w_bid.append(min(sides[0], theta * theta))
        w_ask.append(max(sides[1], theta * theta))
    return ks, w_mid, w_bid, w_ask, skipped
