"""Normalized Black-Scholes pricing in total-volatility form.

Prices are quoted with unit spot and unit discount factor; the strike
enters through log-forward moneyness k = log(K/F) and the volatility
through total vol theta = sigma*sqrt(t).  In these units

    call(k, theta) = Phi(d1) - exp(k) * Phi(d2),   d_{1,2} = -k/theta +- theta/2,

and the vega against total vol is simply phi(d1).
"""

from __future__ import annotations

import math

from .errors import DomainError, MaxIterations, PriceOutOfRange

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Above this log-moneyness exp(k) overflows a double and the call formula
#: switches to log space for the second term.
_LOG_SPACE_K = 700.0

#: Total-vol search interval used by the implied solver.
THETA_MIN = 1e-9
THETA_MAX = 50.0

_MAX_NEWTON_ITER = 200


def norm_cdf(x: float) -> float:
    """Standard normal distribution function via the complementary error
    function, accurate to about 1e-15 in absolute terms over the whole line."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def d1_d2(k: float, theta: float) -> tuple[float, float]:
    """The two Black-Scholes arguments for log-moneyness k and total vol theta."""
    if theta <= 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    half = 0.5 * theta
    ratio = k / theta
    return -ratio + half, -ratio - half


def call_price(k: float, theta: float) -> float:
    """Normalized undiscounted call price; theta = 0 returns the intrinsic value."""
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")
    if theta == 0.0:
        return max(1.0 - math.exp(k), 0.0)
    d1, d2 = d1_d2(k, theta)
    if k > _LOG_SPACE_K:
        # exp(k) overflows although the product with Phi(d2) stays bounded;
        # scipy is imported only here, off every path check and ingest take
        from scipy.special import log_ndtr

        return norm_cdf(d1) - math.exp(k + float(log_ndtr(d2)))
    return norm_cdf(d1) - math.exp(k) * norm_cdf(d2)


def put_price(k: float, theta: float) -> float:
    """Normalized undiscounted put price; theta = 0 returns the intrinsic value."""
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")
    if theta == 0.0:
        return max(math.exp(k) - 1.0, 0.0)
    d1, d2 = d1_d2(k, theta)
    return math.exp(k) * norm_cdf(-d2) - norm_cdf(-d1)


def vega_total(k: float, theta: float) -> float:
    """Sensitivity of either option price to total vol: phi(d1)."""
    d1, _ = d1_d2(k, theta)
    return norm_pdf(d1)


def implied_total_vol(k: float, price: float, kind: str = "call") -> float:
    """Invert the normalized price for total vol on [THETA_MIN, THETA_MAX].

    Newton steps with the analytic vega, safeguarded by a maintained
    bisection bracket, so the iteration cannot escape [THETA_MIN, THETA_MAX].
    The result reproduces the input price to better than 1e-12 absolutely.
    """
    if kind == "call":
        model = call_price
        intrinsic = max(1.0 - math.exp(k), 0.0)
        upper = 1.0
    elif kind == "put":
        model = put_price
        intrinsic = max(math.exp(k) - 1.0, 0.0)
        upper = math.exp(k)
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

    lo, hi = THETA_MIN, THETA_MAX
    f_lo = model(k, lo) - price
    f_hi = model(k, hi) - price
    if f_lo > 0.0:
        raise PriceOutOfRange(
            f"{kind} price {price} below the price at total vol {THETA_MIN}"
        )
    if f_hi < 0.0:
        raise PriceOutOfRange(
            f"{kind} price {price} above the price at total vol {THETA_MAX}"
        )

    theta = min(max(math.sqrt(2.0 * abs(k)) + 0.1, lo), hi)
    for _ in range(_MAX_NEWTON_ITER):
        diff = model(k, theta) - price
        if abs(diff) <= 1e-16:
            return theta
        if diff > 0.0:
            hi = theta
        else:
            lo = theta
        if hi - lo <= 1e-14 * (1.0 + theta):
            return 0.5 * (lo + hi)
        vega = vega_total(k, theta)
        if vega > 1e-300:
            candidate = theta - diff / vega
        else:
            candidate = 0.5 * (lo + hi)
        if not lo < candidate < hi:
            candidate = 0.5 * (lo + hi)
        theta = candidate
    raise MaxIterations(
        f"implied total vol did not converge within {_MAX_NEWTON_ITER} iterations"
    )
