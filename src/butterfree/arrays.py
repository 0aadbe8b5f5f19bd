"""The SVI smile on numpy arrays: total variance, the calibrator's residual
and its Jacobian, the Durrleman function g and the implied density.
"""

from __future__ import annotations

import math

import numpy as np

from .black_scholes import d1_d2
from .errors import NonPositiveVariance
from .smile import SviParams, omega


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
    dk = k - m
    return a + b * (rho * dk + np.sqrt(dk * dk + sigma * sigma))


def svi_raw_jacobian(k, weights, b, rho, m, sigma) -> np.ndarray:
    """d(weights * w(k))/d(a, b, rho, m, sigma) of svi_raw, in its plain form."""
    dk = k - m
    root = np.sqrt(dk * dk + sigma * sigma)
    return np.column_stack([
        np.ones_like(dk), rho * dk + root, b * dk,
        -b * (rho + dk / root), b * sigma / root,
    ]) * weights[:, None]


def svi(params: SviParams, k):
    """Total variance w(k).  Accepts scalars or numpy arrays."""
    w = svi_raw(
        np.asarray(k, dtype=float), params.a, params.b, params.rho, params.m, params.sigma
    )
    return w if w.ndim else float(w)


def smile_terms(a: float, b: float, rho: float, x: np.ndarray, scale: float = 1.0):
    """(w, w', w'') at x = k - m for w = a + b*(rho*x + R), R = sqrt(x^2 +
    scale^2), in shape's forms (N, N', N'' at l for scale 1).  x[0]'s side
    picks the form for all of x, which must lie on it (0 counts as near)."""
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
    w = svi(params, k)
    if w <= 0.0:
        raise NonPositiveVariance(f"total variance must be positive, got {w}")
    theta = math.sqrt(w)
    _, d2 = d1_d2(k, theta)
    g = durrleman_g(params, k)
    return g * math.exp(-0.5 * d2 * d2) / (math.exp(k) * math.sqrt(2.0 * math.pi * w))
