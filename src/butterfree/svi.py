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
        min_w = self.a + self.b * self.sigma * math.sqrt(omega(self.rho))
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
        min_n = self.alpha + self.b * math.sqrt(omega(self.rho))
        if min_n < 0.0:
            raise InvalidParams(
                f"minimum normalized variance alpha + b*sqrt(1-rho^2) = {min_n} "
                "is negative"
            )


def svi_raw(k, a, b, rho, m, sigma):
    """Total variance w(k) from raw values, with no SviParams validation.

    The calibrator's polish searches a box that admits non-smiles, so it
    evaluates through here.  sigma is squared as sigma*sigma: sigma**2
    differs from it in the last bit for some floats.  It and
    svi_raw_jacobian keep the plain rho*dk + root, which loses digits where
    rho*dk < 0 as |rho| -> 1: rho is boxed to 1 - 1e-6 there, only quote
    strikes are evaluated, the waterfall re-certifies every fit, and shape's
    far form, selected per element, costs each call half its time again.
    """
    import numpy as np

    dk = k - m
    return a + b * (rho * dk + np.sqrt(dk * dk + sigma * sigma))


def svi_raw_jacobian(k, weights, b, rho, m, sigma) -> np.ndarray:
    """d(weights * w(k))/d(a, b, rho, m, sigma) of svi_raw, in its plain form."""
    import numpy as np

    dk = k - m
    root = np.sqrt(dk * dk + sigma * sigma)
    return np.column_stack([
        np.ones_like(dk), rho * dk + root, b * dk,
        -b * (rho + dk / root), b * sigma / root,
    ]) * weights[:, None]


def svi(params: SviParams, k):
    """Total variance w(k).  Accepts scalars or numpy arrays."""
    import numpy as np

    w = svi_raw(
        np.asarray(k, dtype=float), params.a, params.b, params.rho, params.m, params.sigma
    )
    return w if w.ndim else float(w)


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


def smile_terms(a: float, b: float, rho: float, x: np.ndarray, scale: float = 1.0):
    """(w, w', w'') at x = k - m for w = a + b*(rho*x + R), R = sqrt(x^2 +
    scale^2), in shape's forms (N, N', N'' at l for scale 1).  x[0]'s side
    picks the form for all of x, which must lie on it (0 counts as near)."""
    import numpy as np

    r = np.hypot(x, scale)
    u, v = x / r, scale / r
    if x.size and rho * x[0] < 0.0:
        om = omega(rho)
        p = (om * r + rho * rho * scale * v) / (1.0 - rho * u)
        s = (rho * rho * v * v - om * u * u) / (rho - u)
    else:
        p, s = rho * x + r, rho + u
    return a + b * p, b * s, b * v * v / r


def durrleman_g(params: SviParams, k):
    """Butterfly diagnostic g(k); the smile is arbitrage free iff g >= 0.

    Requires w(k) > 0 at every requested point.  Accepts scalars or arrays.
    For the flat smile b = 0, a > 0 this is identically 1.
    """
    import numpy as np

    x = np.asarray(k, dtype=float) - params.m
    terms = np.empty((3,) + x.shape)
    far = params.rho * x < 0.0
    for side in (far, ~far):
        terms[:, side] = smile_terms(params.a, params.b, params.rho, x[side], params.sigma)
    w, w1, w2 = terms
    if np.any(w <= 0.0):
        raise NonPositiveVariance("total variance must be positive where g is evaluated")
    kk = np.asarray(k, dtype=float)
    g = (1.0 - kk * w1 / (2.0 * w)) ** 2 - (w1 * w1 / 4.0) * (1.0 / w + 0.25) + w2 / 2.0
    return g if g.ndim else float(g)


def density(params: SviParams, k: float) -> float:
    """Implied terminal density at strike K = exp(k) for unit spot.

    p(K) = g(k) * exp(-d2^2/2) / (K * sqrt(2*pi*w(k))).  Integrates to at
    most one over K in (0, inf); mass may escape to zero or infinity when
    the smile touches its arbitrage bounds.
    """
    from .black_scholes import d1_d2

    w = svi(params, k)
    if w <= 0.0:
        raise NonPositiveVariance(f"total variance must be positive, got {w}")
    theta = math.sqrt(w)
    _, d2 = d1_d2(k, theta)
    g = durrleman_g(params, k)
    return g * math.exp(-0.5 * d2 * d2) / (math.exp(k) * math.sqrt(2.0 * math.pi * w))

