"""Independent output checks.  Nothing here calls butterfree.

The butterfly diagnostic g is evaluated from its textbook formula on a
dense window in normalized log-strike l = (k - m)/sigma, and refined by a
bounded scalar minimization around the lowest grid points, so a verdict
can be compared with where g actually goes negative.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar

#: Normalized log-strike window: dense near the vertex, geometric in the
#: wings out to |l| = 1e8.
_CORE = np.linspace(-40.0, 40.0, 4001)
_WING = np.geomspace(40.0, 1e8, 1200)[1:]
L_GRID = np.concatenate([-_WING[::-1], _CORE, _WING])

#: A Free smile may dip this far below zero through rounding (criterion 5).
G_TOL = 1e-10


def durrleman_g(params, k):
    a, b, rho, m, sigma = params
    x = np.asarray(k, dtype=float) - m
    r = np.sqrt(x * x + sigma * sigma)
    w = a + b * (rho * x + r)
    w1 = b * (rho + x / r)
    w2 = b * sigma * sigma / (r * r * r)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (1.0 - k * w1 / (2.0 * w)) ** 2 - (w1 * w1 / 4.0) * (1.0 / w + 0.25) + w2 / 2.0
    return np.where(w > 0.0, g, -np.inf)


def _g_scalar(params, k: float) -> float:
    """durrleman_g at one point without numpy: the local refinement calls
    it a hundred times per smile, where array overhead would dominate."""
    a, b, rho, m, sigma = params
    x = k - m
    r = math.sqrt(x * x + sigma * sigma)
    w = a + b * (rho * x + r)
    if not w > 0.0:
        return -math.inf
    w1 = b * (rho + x / r)
    w2 = b * sigma * sigma / (r * r * r)
    return (1.0 - k * w1 / (2.0 * w)) ** 2 - (w1 * w1 / 4.0) * (1.0 / w + 0.25) + w2 / 2.0


def g_min(params) -> tuple[float, float]:
    """(min g, log-strike of the min) over the window, refined locally."""
    a, b, rho, m, sigma = params
    ks = m + sigma * L_GRID
    gs = durrleman_g(params, ks)
    best_k = float(ks[int(np.argmin(gs))])
    best = float(np.min(gs))
    if best < 0.0:
        return best, best_k
    # Refine around the lowest local minima of the grid, so a narrow dip
    # between grid points is not missed.
    interior = np.flatnonzero((gs[1:-1] <= gs[:-2]) & (gs[1:-1] <= gs[2:])) + 1
    for i in interior[np.argsort(gs[interior])][:4]:
        lo, hi = float(ks[i - 1]), float(ks[i + 1])
        res = minimize_scalar(
            lambda k: _g_scalar(params, k),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12 * max(1.0, abs(lo))},
        )
        if res.fun < best:
            best, best_k = float(res.fun), float(res.x)
    return best, best_k


def wing_limit(params) -> float:
    """Limit of g as |k| -> infinity along the steeper wing: 1/4 - s^2/16."""
    a, b, rho, m, sigma = params
    s = b * (1.0 + abs(rho))
    return 0.25 - s * s / 16.0


def check_verdict(params, status: str) -> str | None:
    """None when the verdict agrees with g, else a description."""
    a, b, rho, m, sigma = params
    slope = b * (1.0 + abs(rho))
    if status == "Failure1":
        if slope > 2.0 and wing_limit(params) < 0.0:
            return None
        return f"Failure1 but the steeper wing slope is {slope!r}"
    if slope > 2.0:
        return f"{status} but the wing slope {slope!r} exceeds 2"
    low, at = g_min(params)
    if status == "Free":
        if low >= -G_TOL:
            return None
        return f"Free but g({at!r}) = {low!r}"
    if low < 0.0:
        return None
    return f"{status} but g >= 0 on the window (min {low!r} at k = {at!r})"


def check_free(params) -> str | None:
    """None when g >= -G_TOL on the window, else a description."""
    low, at = g_min(params)
    if low >= -G_TOL:
        return None
    return f"g({at!r}) = {low!r} on a smile meant to be free"


def rel_err(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def close(got: float, want: float, tol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= tol * abs(want)
