"""Shared numeric plumbing: bracketed root finding, bound-constrained least
squares and the checks on numeric settings.

Roots are found by a local safeguarded Newton iteration on certified
brackets; the dogbox trust region comes from scipy and always runs on the
caller's exact Jacobian, never on finite differences.  scipy is imported
at the first least-squares solve rather than with this module (and
black_scholes imports it only for a call price at k > 700), so code that
never calibrates never loads it.  This module pins down brackets,
tolerances and failure modes so the rest of the package gets
deterministic behaviour and typed errors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    InfeasibleStart,
    InvalidInput,
    MaxIterations,
    NoBracketFound,
    NoSignChange,
)

#: Root tolerance: a Newton step of at most this times max(1, |x|) ends
#: the iteration.
_X_TOL = 1e-12

_MAX_ROOT_ITER = 200
_MAX_EXPANSIONS = 100


@dataclass(frozen=True)
class Bracket:
    """An interval [lo, hi] certified to contain a sign change of f."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self) -> None:
        if not (self.lo < self.hi):
            raise NoSignChange(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.f_lo) and math.isfinite(self.f_hi)):
            raise NoSignChange("bracket endpoint values must be finite")
        if self.f_lo * self.f_hi >= 0.0:
            raise NoSignChange(
                f"no sign change over [{self.lo}, {self.hi}]: "
                f"f(lo)={self.f_lo}, f(hi)={self.f_hi}"
            )


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidInput unless value is an integer, not a bool, and at
    least ``least``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


def require_finite(**values: float) -> None:
    """Raise DomainError naming the first of ``values`` that is not a finite
    number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def is_real(value) -> bool:
    """Whether value is a real number.  A bool is not one, although Python
    and JSON let it stand for 1 or 0."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_real(name: str, value, least: float, strict: bool = False) -> None:
    """Raise InvalidInput unless value is a finite real number (is_real)
    and at least ``least`` (above it when ``strict``)."""
    got = None
    try:
        finite = is_real(value) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range; its repr may fail too
        finite, got = False, "an integer too large for a float"
    if not finite or value < least or (strict and value == least):
        relation = ">" if strict else ">="
        raise InvalidInput(
            f"{name} must be a finite number {relation} {least}, got {got or repr(value)}"
        )


def expand_bracket(f: Callable[[float], float], start: float, direction: int) -> Bracket:
    """Walk geometrically from ``start`` until a sign change is straddled.

    ``direction`` is +1 (rightward) or -1 (leftward); the steps start at 1
    and double.  The bracket returned is the last probed sub-interval, so
    it is as tight as the stepping allows.  Raises NoBracketFound after the
    expansion budget is spent.
    """
    if direction not in (-1, 1):
        raise DomainError(f"direction must be +1 or -1, got {direction}")
    x_prev = float(start)
    f_prev = f(x_prev)
    if not math.isfinite(f_prev):
        raise DomainError(f"f(start) is not finite at start={start}")
    step = 1.0
    for _ in range(_MAX_EXPANSIONS):
        x_next = x_prev + direction * step
        f_next = f(x_next)
        if not math.isfinite(f_next):
            raise DomainError(f"f({x_next}) is not finite during bracket expansion")
        if f_next == 0.0:
            # Exact zero at a probe: nudge past it so the bracket is strict.
            x_past = x_next + direction * max(abs(x_next), 1.0) * 1e-9
            f_past = f(x_past)
            if f_prev * f_past < 0.0:
                x_next, f_next = x_past, f_past
            else:
                x_prev, f_prev = x_past, f_past
                step *= 2.0
                continue
        if f_prev * f_next < 0.0:
            if direction > 0:
                return Bracket(x_prev, x_next, f_prev, f_next)
            return Bracket(x_next, x_prev, f_next, f_prev)
        x_prev, f_prev = x_next, f_next
        step *= 2.0
    raise NoBracketFound(
        f"no sign change within {_MAX_EXPANSIONS} expansions from {start} "
        f"(direction {direction:+d})"
    )


def newton_root(f: Callable[[float], tuple[float, float]], bracket: Bracket, x: float) -> float:
    """Locate the root of f inside a certified bracket by safeguarded Newton.

    f returns its value and its derivative.  The iteration starts at x (the
    midpoint if x is not inside the bracket) and shrinks the bracket by the
    sign of every value it sees.  Each step is a Newton step from the latest
    point, or a bisection when that step would leave the open bracket or
    is not converging: it turns back on the last step and is at least half
    as long.  Where rounding noise in f is wider than the
    tolerance, Newton would otherwise hop between two points while the
    bracket hardly shrinks; steps that keep shrinking or keep their
    direction are plain Newton steps.  It stops when a Newton step is at
    most _X_TOL*max(1, |x|), returning the stepped point, or when the
    bracket is narrower than that.  The step test comes first, so a final
    step that lands on a bracket end is kept.  Raises MaxIterations after
    _MAX_ROOT_ITER evaluations.
    """
    lo, hi = bracket.lo, bracket.hi
    rising = bracket.f_lo < 0.0
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    moved = 0.0
    for _ in range(_MAX_ROOT_ITER):
        fx, dfx = f(x)
        if not math.isfinite(fx):
            raise DomainError(f"objective is not finite at x={x}")
        if fx == 0.0:
            return x
        if (fx < 0.0) == rising:
            lo = x
        else:
            hi = x
        step = fx / dfx if dfx != 0.0 else math.inf
        width = _X_TOL * max(1.0, abs(x))
        if abs(step) <= width:
            return min(max(x - step, lo), hi)
        x_next = x - step
        hop = step * moved > 0.0 and abs(step) >= 0.5 * abs(moved)
        if hop or not lo < x_next < hi:
            x_next = 0.5 * (lo + hi)
        moved = x_next - x
        x = x_next
        if hi - lo <= width:
            return x
    raise MaxIterations(
        f"root not found within {_MAX_ROOT_ITER} iterations in [{bracket.lo}, {bracket.hi}]"
    )


def least_squares_bounded(
    residuals: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    tol: float,
    max_evals: int,
) -> tuple[np.ndarray, float, bool]:
    """Bound-constrained nonlinear least squares with an exact Jacobian.

    Runs a dogbox trust-region iteration.  ``jac`` returns the residual
    Jacobian at x; it is asked once per accepted step, at the point whose
    residuals were just evaluated, with any coordinate that reached a bound
    set exactly onto it.  Every residual evaluation stays inside
    [lower, upper].  ``tol`` is the relative tolerance on the cost, the
    step and the scaled gradient alike, and ``max_evals`` caps the residual
    evaluations.  Returns (x, cost, converged) with cost = 0.5*||r||^2.
    When the evaluation budget runs out the best point found is returned
    with converged=False rather than raising.
    """
    x0 = np.asarray(x0, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise InfeasibleStart(f"start point {x0.tolist()} violates bounds")
    # deferred: scipy's import costs more than everything else the package
    # loads, and only calibrate reaches this solve
    from scipy.optimize import least_squares

    result = least_squares(
        residuals,
        x0,
        jac=jac,
        bounds=(lower, upper),
        method="dogbox",
        ftol=tol,
        xtol=tol,
        gtol=tol,
        max_nfev=max_evals,
    )
    converged = result.status > 0
    return result.x, float(result.cost), bool(converged)
