"""Normalized Black-Scholes pricing in total-volatility form.

Prices are quoted with unit spot and unit discount factor; the strike
enters through log-forward moneyness k = log(K/F) and the volatility
through total vol theta = sigma*sqrt(t).  In these units

    call(k, theta) = Phi(d1) - exp(k) * Phi(d2),   d_{1,2} = -k/theta +- theta/2,

and the vega against total vol is simply phi(d1).  On arrays every element
gets the bits of a scalar call: math.erfc and math.exp run per element.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import DomainError, MaxIterations, PriceOutOfRange

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Above this log-moneyness exp(k) nears overflow and the call's second term
#: is phi(d1) times the Mills ratio of d2 <= -sqrt(2k), by its series.
_MILLS_K = 700.0
#: The largest k whose exp(k) is a finite double.
_LOG_MAX = math.log(sys.float_info.max)

#: Total-vol search interval used by the implied solver.
THETA_MIN = 1e-9
THETA_MAX = 50.0

_MAX_NEWTON_ITER = 200

#: The smallest price inverted.  The solver stops within min(1e-16, 1e-6 *
#: price) of a price; the float call and put are differences of two larger
#: terms, so far below this they cannot resolve even 1e-6 of the price and
#: the solve runs out of steps.
MIN_PRICE = 1e-14

#: implied_total_vols' failure codes, in the order its checks run (0 is
#: success); MAX_ITERATIONS raises MaxIterations, the rest PriceOutOfRange.
(NON_FINITE, AT_INTRINSIC, AT_UPPER, BELOW_MIN_PRICE, BELOW_FLOOR, ABOVE_CEILING,
 MAX_ITERATIONS) = range(1, 8)
_MESSAGES = (
    None,
    "price must be finite, got {price}",
    "{kind} price {price} at or below intrinsic value {intrinsic}",
    "{kind} price {price} at or above upper bound {upper}",
    f"{{kind}} price {{price}} below the smallest invertible price {MIN_PRICE}",
    f"{{kind}} price {{price}} below the price at total vol {THETA_MIN}",
    f"{{kind}} price {{price}} above the price at total vol {THETA_MAX}",
    f"implied total vol did not converge within {_MAX_NEWTON_ITER} iterations",
)


def _each(f, x):
    """f(x), or f on every element of an array as a float array."""
    if isinstance(x, np.ndarray):
        return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)
    return f(x)


def norm_cdf(x):
    """Standard normal distribution function via the complementary error
    function, accurate to about 1e-15 in absolute terms over the whole line;
    on an array, element by element."""
    return 0.5 * _each(math.erfc, -x / _SQRT2)


def norm_pdf(x):
    """Standard normal density, on a scalar or element by element."""
    return _INV_SQRT_2PI * _each(math.exp, -0.5 * x * x)


def d1_d2(k, theta):
    """The two Black-Scholes arguments for log-moneyness k and total vol
    theta, scalars or arrays."""
    if np.any(theta <= 0.0):
        raise DomainError(f"theta must be positive, got {theta}")
    half = 0.5 * theta
    ratio = k / theta
    return -ratio + half, -ratio - half


def _prices(k, theta, is_call, ek) -> np.ndarray:
    """Call or put prices per element, given ek = exp(k) finite for puts."""
    d1, d2 = d1_d2(k, theta)
    out = np.empty_like(k)
    put, near = ~is_call, is_call & (k <= _MILLS_K)
    far = is_call & ~near
    if put.any():
        out[put] = ek[put] * norm_cdf(-d2[put]) - norm_cdf(-d1[put])
    if near.any():
        out[near] = norm_cdf(d1[near]) - ek[near] * norm_cdf(d2[near])
    if far.any():
        # e^k Phi(d2) = phi(d1) Phi(d2)/phi(d2), and seven terms of the
        # ratio's series in 1/d2^2 reach double precision at d2 < -37.4
        d1, d2 = d1[far], d2[far]
        z = 1.0 / (d2 * d2)
        series = 1.0 + z * (-1.0 + z * (3.0 + z * (-15.0 + z * (105.0 + z * (-945.0 + z * 10395.0)))))
        out[far] = norm_cdf(d1) - norm_pdf(d1) * (series / -d2)
    return out


def _bounds(k, is_call) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(intrinsic, upper) price bounds and exp(k), which is infinite where
    it would overflow; a call's intrinsic value is 0 for k >= 0."""
    ek = np.full_like(k, math.inf)
    finite = k <= _LOG_MAX
    ek[finite] = _each(math.exp, k[finite])
    intrinsic = np.where(is_call, np.where(k < 0.0, 1.0 - ek, 0.0),
                         np.where(k > 0.0, ek - 1.0, 0.0))
    return intrinsic, np.where(is_call, 1.0, ek), ek


def _price(k: float, theta: float, is_call: bool) -> float:
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")
    kk, cc = np.array([k], dtype=float), np.array([is_call])
    intrinsic, _, ek = _bounds(kk, cc)
    if theta == 0.0:
        return float(intrinsic[0])
    return float(_prices(kk, np.array([theta], dtype=float), cc, ek)[0])


def call_price(k: float, theta: float) -> float:
    """Normalized undiscounted call price; theta = 0 returns the intrinsic value."""
    return _price(k, theta, True)


def put_price(k: float, theta: float) -> float:
    """Normalized undiscounted put price; theta = 0 returns the intrinsic value."""
    return _price(k, theta, False)


def vega_total(k: float, theta: float) -> float:
    """Sensitivity of either option price to total vol: phi(d1)."""
    return norm_pdf(d1_d2(k, theta)[0])


def implied_total_vols(k, price, is_call) -> tuple[np.ndarray, np.ndarray]:
    """Invert normalized prices for total vol on [THETA_MIN, THETA_MAX].

    Every element runs Newton steps with the analytic vega, safeguarded by
    a maintained bisection bracket, so it cannot escape [THETA_MIN,
    THETA_MAX]; a result reproduces its price to better than 1e-12
    absolutely, and one below 1e-10 to about 1e-6 of itself, as the stop
    is min(1e-16, 1e-6 * price); a price below MIN_PRICE is refused.
    Returns (theta, code): theta is NaN where the failure code is nonzero,
    and inversion_error turns a code into its exception.
    """
    k, price, is_call = (a.ravel() for a in np.broadcast_arrays(
        np.asarray(k, dtype=float), np.asarray(price, dtype=float),
        np.asarray(is_call, dtype=bool)))
    theta = np.full(k.shape, math.nan)
    intrinsic, upper, ek = _bounds(k, is_call)
    code = np.select(
        [~np.isfinite(price), price <= intrinsic, price >= upper, price < MIN_PRICE],
        [NON_FINITE, AT_INTRINSIC, AT_UPPER, BELOW_MIN_PRICE]).astype(np.int8)

    idx = np.flatnonzero(code == 0)
    kk, pp, cc, ee = k[idx], price[idx], is_call[idx], ek[idx]
    code[idx] = np.select(
        [_prices(kk, np.full_like(kk, THETA_MIN), cc, ee) - pp > 0.0,
         _prices(kk, np.full_like(kk, THETA_MAX), cc, ee) - pp < 0.0],
        [BELOW_FLOOR, ABOVE_CEILING])

    keep = code[idx] == 0
    idx, kk, pp, cc, ee = idx[keep], kk[keep], pp[keep], cc[keep], ee[keep]
    lo, hi = np.full_like(kk, THETA_MIN), np.full_like(kk, THETA_MAX)
    th = np.minimum(np.maximum(np.sqrt(2.0 * np.abs(kk)) + 0.1, lo), hi)
    for _ in range(_MAX_NEWTON_ITER):
        if not idx.size:
            break
        diff = _prices(kk, th, cc, ee) - pp
        hit = np.abs(diff) <= np.minimum(1e-16, 1e-6 * pp)
        over = diff > 0.0
        hi, lo = np.where(over, th, hi), np.where(over, lo, th)
        mid = 0.5 * (lo + hi)
        done = hit | (hi - lo <= 1e-14 * (1.0 + th))
        theta[idx[done]] = np.where(hit, th, mid)[done]
        idx, kk, pp, cc, ee, th, diff, lo, hi, mid = (
            a[~done] for a in (idx, kk, pp, cc, ee, th, diff, lo, hi, mid))
        vega = norm_pdf(d1_d2(kk, th)[0])
        step = vega > 1e-300
        candidate = mid.copy()
        candidate[step] = th[step] - diff[step] / vega[step]
        th = np.where((lo < candidate) & (candidate < hi), candidate, mid)
    code[idx] = MAX_ITERATIONS
    return theta, code


def inversion_error(code: int, k: float, price: float, is_call: bool) -> Exception:
    """The exception for a nonzero failure code of implied_total_vols."""
    if code == MAX_ITERATIONS:
        return MaxIterations(_MESSAGES[code])
    intrinsic, upper, _ = _bounds(np.array([k], dtype=float), np.array([is_call]))
    return PriceOutOfRange(_MESSAGES[code].format(
        kind="call" if is_call else "put", price=price,
        intrinsic=float(intrinsic[0]), upper=float(upper[0])))


def implied_total_vol(k: float, price: float, kind: str = "call") -> float:
    """Invert one normalized price for total vol: implied_total_vols on one
    element, raising its failure as an exception."""
    if kind not in ("call", "put"):
        raise DomainError(f"kind must be 'call' or 'put', got {kind!r}")
    theta, code = implied_total_vols(k, price, kind == "call")
    if code[0]:
        raise inversion_error(int(code[0]), k, price, kind == "call")
    return float(theta[0])
