"""The SVI total-variance smile and its shape diagnostics.

Raw parameters (a, b, rho, m, sigma) define

    w(k) = a + b * (rho*(k - m) + sqrt((k - m)^2 + sigma^2)).

Dividing out sigma gives the normalized smile N(l) = alpha + b*(rho*l +
sqrt(l^2 + 1)) in the reduced log-strike l = k/sigma - mu, with
alpha = a/sigma and mu = m/sigma.  All of the no-arbitrage analysis in the
sibling modules runs on (alpha, b, rho, mu, sigma).

The butterfly diagnostic is the classic density multiplier

    g(k) = (1 - k*w'/(2w))^2 - (w'^2/4)*(1/w + 1/4) + w''/2,

which splits in normalized coordinates as G = G1 + G2/(2*sigma) with
G1 = G1p*G1m a product of two slope factors and G2 = N'' - N'^2/(2N) a
curvature excess that does not depend on mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .black_scholes import d1_d2
from .errors import DegenerateSigma, InvalidParams, NonPositiveVariance


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
        min_w = self.a + self.b * self.sigma * math.sqrt(1.0 - self.rho * self.rho)
        if min_w < 0.0:
            raise InvalidParams(
                f"minimum total variance a + b*sigma*sqrt(1-rho^2) = {min_w} "
                "is negative"
            )


@dataclass(frozen=True)
class NormalizedParams:
    """Smile parameters with the curvature scale sigma divided out."""

    alpha: float
    b: float
    rho: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        values = (self.alpha, self.b, self.rho, self.mu, self.sigma)
        if not all(math.isfinite(v) for v in values):
            raise InvalidParams(f"parameters must be finite, got {values}")
        if self.b < 0.0:
            raise InvalidParams(f"b must be non-negative, got {self.b}")
        if abs(self.rho) > 1.0:
            raise InvalidParams(f"rho must lie in [-1, 1], got {self.rho}")
        if self.sigma <= 0.0:
            raise DegenerateSigma(f"sigma must be positive, got {self.sigma}")
        min_n = self.alpha + self.b * math.sqrt(1.0 - self.rho * self.rho)
        if min_n < 0.0:
            raise InvalidParams(
                f"minimum normalized variance alpha + b*sqrt(1-rho^2) = {min_n} "
                "is negative"
            )


def svi_raw(k, a, b, rho, m, sigma):
    """Total variance w(k) from raw values, with no SviParams validation.

    The calibrator's polish searches a box that admits non-smiles, so it
    evaluates through here.  sigma is squared as sigma*sigma: sigma**2
    differs from it in the last bit for some floats.
    """
    dk = k - m
    return a + b * (rho * dk + np.sqrt(dk * dk + sigma * sigma))


def svi(params: SviParams, k):
    """Total variance w(k).  Accepts scalars or numpy arrays."""
    w = svi_raw(
        np.asarray(k, dtype=float), params.a, params.b, params.rho, params.m, params.sigma
    )
    return w if w.ndim else float(w)


def svi_d1(params: SviParams, k):
    """First derivative w'(k)."""
    x = np.asarray(k, dtype=float) - params.m
    d = params.b * (params.rho + x / np.sqrt(x * x + params.sigma**2))
    return d if d.ndim else float(d)


def svi_d2(params: SviParams, k):
    """Second derivative w''(k); strictly positive whenever b > 0 and sigma > 0."""
    x = np.asarray(k, dtype=float) - params.m
    d = params.b * params.sigma**2 / (x * x + params.sigma**2) ** 1.5
    return d if d.ndim else float(d)


def normalize(params: SviParams) -> NormalizedParams:
    """Divide out sigma.  Degenerate smiles with sigma = 0 cannot be scaled."""
    if params.sigma <= 0.0:
        raise DegenerateSigma(f"sigma must be positive, got {params.sigma}")
    return NormalizedParams(
        alpha=params.a / params.sigma,
        b=params.b,
        rho=params.rho,
        mu=params.m / params.sigma,
        sigma=params.sigma,
    )


def n_funcs(alpha: float, b: float, rho: float, l: float) -> tuple[float, float, float, float]:
    """Normalized smile N and its first three derivatives at l.

    N'' > 0 everywhere for b > 0 and N''' has the sign of -l, so the
    curvature peaks at l = 0.
    """
    r = math.sqrt(l * l + 1.0)
    n0 = alpha + b * (rho * l + r)
    n1 = b * (rho + l / r)
    n2 = b / r**3
    n3 = -3.0 * b * l / r**5
    return n0, n1, n2, n3


def durrleman_g(params: SviParams, k):
    """Butterfly diagnostic g(k); the smile is arbitrage free iff g >= 0.

    Requires w(k) > 0 at every requested point.  Accepts scalars or arrays.
    For the flat smile b = 0, a > 0 this is identically 1.
    """
    w = np.asarray(svi(params, k), dtype=float)
    if np.any(w <= 0.0):
        raise NonPositiveVariance("total variance must be positive where g is evaluated")
    kk = np.asarray(k, dtype=float)
    w1 = svi_d1(params, k)
    w2 = svi_d2(params, k)
    g = (1.0 - kk * w1 / (2.0 * w)) ** 2 - (w1 * w1 / 4.0) * (1.0 / w + 0.25) + w2 / 2.0
    return g if g.ndim else float(g)


def density(params: SviParams, k: float) -> float:
    """Implied terminal density at strike K = exp(k) for unit spot.

    p(K) = g(k) * exp(-d2^2/2) / (K * sqrt(2*pi*w(k))).  Integrates to at
    most one over K in (0, inf); mass may escape to zero or infinity when
    the smile touches its arbitrage bounds.
    """
    w = svi(params, k)
    if w <= 0.0:
        raise NonPositiveVariance(f"total variance must be positive, got {w}")
    theta = math.sqrt(w)
    _, d2 = d1_d2(k, theta)
    g = durrleman_g(params, k)
    return g * math.exp(-0.5 * d2 * d2) / (math.exp(k) * math.sqrt(2.0 * math.pi * w))

