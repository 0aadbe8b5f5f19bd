"""The SVI total-variance smile: its parameters and scalar shape terms.

Raw parameters (a, b, rho, m, sigma) define

    w(k) = a + b * (rho*(k - m) + sqrt((k - m)^2 + sigma^2)).

Dividing out sigma gives the normalized smile N(l) = alpha + b*(rho*l +
sqrt(l^2 + 1)) in the reduced log-strike l = k/sigma - mu, with
alpha = a/sigma and mu = m/sigma.  All of the no-arbitrage analysis in the
sibling modules runs on (alpha, b, rho, mu, sigma); ``check_no_arbitrage``
forms alpha and mu itself and reports them in its diagnostic.

The butterfly diagnostic is the classic density multiplier

    g(k) = (1 - k*w'/(2w))^2 - (w'^2/4)*(1/w + 1/4) + w''/2,

which splits in normalized coordinates as G = G1 + G2/(2*sigma) with
G1 = G1p*G1m a product of two slope factors and G2 = N'' - N'^2/(2N) a
curvature excess that does not depend on mu.  This module runs on the
standard library; ``arrays`` evaluates w and g on numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams


@dataclass(frozen=True)
class SviParams:
    """Raw smile parameters.

    Constraints enforced here are the ones that make w a real-valued smile
    with non-negative minimum: b >= 0, |rho| <= 1, sigma >= 0 and
    a + b*sigma*sqrt(1 - rho^2) >= 0.  Whether the smile is also free of
    butterfly arbitrage is a separate question answered by the domain module.
    """

    a: float
    b: float
    rho: float
    m: float
    sigma: float

    def __post_init__(self) -> None:
        values = (self.a, self.b, self.rho, self.m, self.sigma)
        if not all(math.isfinite(v) for v in values):
            raise InvalidParams(f"parameters must be finite, got {values}")
        if self.b < 0.0:
            raise InvalidParams(f"b must be non-negative, got {self.b}")
        if abs(self.rho) > 1.0:
            raise InvalidParams(f"rho must lie in [-1, 1], got {self.rho}")
        if self.sigma < 0.0:
            raise InvalidParams(f"sigma must be non-negative, got {self.sigma}")
        min_w = self.a + self.b * self.sigma * math.sqrt(omega(self.rho))
        if min_w < 0.0:
            raise InvalidParams(
                f"minimum total variance a + b*sigma*sqrt(1-rho^2) = {min_w} "
                "is negative"
            )


def omega(rho: float) -> float:
    """1 - rho^2, formed as (1 - |rho|)(1 + |rho|): 1 - |rho| is exact, so
    this keeps its digits as |rho| -> 1, where 1 - rho*rho does not."""
    s = abs(rho)
    return (1.0 - s) * (1.0 + s)


def shape(rho: float, l: float) -> tuple[float, float, float]:
    """(rho*l + r, rho + l/r, r), r = sqrt(l^2 + 1): N and N' at l with
    alpha and b taken out.  Where rho*l < 0 both cancel as |rho| -> 1, so
    they are taken as rho*l + r = (1 + om*l^2)/(r - rho*l) and rho + l/r =
    (rho^2 - om*l^2)/((rho*r - l)*r), om = omega(rho), in l/r and 1/r so
    that nothing overflows out to the largest float."""
    r = math.hypot(l, 1.0)
    if rho * l < 0.0:
        om, u, v = omega(rho), l / r, 1.0 / r
        return (
            (om * r + rho * rho * v) / (1.0 - rho * u),
            (rho * rho * v * v - om * u * u) / (rho - u),
            r,
        )
    return rho * l + r, rho + l / r, r


def n_funcs(alpha: float, b: float, rho: float, l: float) -> tuple[float, float, float, float]:
    """Normalized smile N and its first three derivatives at l.

    N'' > 0 everywhere for b > 0 and N''' has the sign of -l, so the
    curvature peaks at l = 0.
    """
    p, s, r = shape(rho, l)
    return alpha + b * p, b * s, b / (r * r * r), -3.0 * b * (l / r) / (r * r * r * r)
