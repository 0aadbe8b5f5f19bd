"""Shared numeric plumbing: bracketed root finding, with and without
derivatives, bound-constrained least squares and the checks on numeric
settings.

Brent's method and the dogbox trust region come from scipy; the
safeguarded Newton iteration is local.  This module pins down brackets,
tolerances and failure modes so the rest of the package gets
deterministic behaviour and typed errors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, least_squares

from .errors import (
    DomainError,
    InfeasibleStart,
    InvalidInput,
    MaxIterations,
    NoBracketFound,
    NoSignChange,
)

#: Absolute x tolerance used for quantities that sit on domain boundaries.
DEFAULT_X_TOL = 1e-12

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


@dataclass(frozen=True)
class LsqOptions:
    """Termination controls for least_squares_bounded.

    The tolerance defaults are machine epsilon, which in practice means the
    solver runs until progress stalls or ``max_evals`` is exhausted.
    ``max_evals`` is also the horizon of calibrate's stall rule, which ends
    a start early once it lags far behind the best cost found before it
    and, at its recent rate, cannot catch up within that budget.
    """

    f_tol: float = field(default_factory=lambda: float(np.finfo(float).eps))
    x_tol: float = field(default_factory=lambda: float(np.finfo(float).eps))
    g_tol: float = field(default_factory=lambda: float(np.finfo(float).eps))
    max_evals: int = 1000

    def __post_init__(self) -> None:
        for name in ("f_tol", "x_tol", "g_tol"):
            require_real(name, getattr(self, name), 0.0)
        if max(self.f_tol, self.x_tol, self.g_tol) < np.finfo(float).eps:
            raise InvalidInput(
                "at least one of f_tol, x_tol and g_tol must reach machine epsilon"
            )
        require_int("max_evals", self.max_evals, 1)


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidInput unless value is an integer, not a bool, and at
    least ``least``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < least
    ):
        raise InvalidInput(f"{name} must be an integer >= {least}, got {value!r}")


def require_real(name: str, value, least: float, strict: bool = False) -> None:
    """Raise InvalidInput unless value is a finite real number, not a bool,
    and at least ``least`` (above it when ``strict``)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
        or value < least
        or (strict and value == least)
    ):
        relation = ">" if strict else ">="
        raise InvalidInput(
            f"{name} must be a finite number {relation} {least}, got {value!r}"
        )


def find_root(f: Callable[[float], float], bracket: Bracket, tol: float = DEFAULT_X_TOL) -> float:
    """Locate the root of f inside a certified bracket with Brent's method.

    Converges when the interval width falls below ``tol`` in the combined
    absolute/relative sense used by Brent iterations.  Deterministic for a
    given (f, bracket, tol).
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    rtol = max(tol, 4.0 * float(np.finfo(float).eps))
    try:
        root = brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=rtol,
                      maxiter=_MAX_ROOT_ITER, disp=True)
    except ValueError as exc:
        raise NoSignChange(str(exc)) from exc
    except RuntimeError as exc:
        raise MaxIterations(
            f"root not found within {_MAX_ROOT_ITER} iterations in "
            f"[{bracket.lo}, {bracket.hi}]"
        ) from exc
    return float(root)


def expand_bracket(
    f: Callable[[float], float],
    start: float,
    direction: int,
    growth: float = 2.0,
    initial_step: float = 1.0,
) -> Bracket:
    """Walk geometrically from ``start`` until a sign change is straddled.

    ``direction`` is +1 (rightward) or -1 (leftward).  The bracket returned
    is the last probed sub-interval, so it is as tight as the stepping
    allows.  Raises NoBracketFound after the expansion budget is spent.
    """
    if direction not in (-1, 1):
        raise DomainError(f"direction must be +1 or -1, got {direction}")
    if growth <= 1.0:
        raise DomainError(f"growth must exceed 1, got {growth}")
    x_prev = float(start)
    f_prev = f(x_prev)
    if not math.isfinite(f_prev):
        raise DomainError(f"f(start) is not finite at start={start}")
    step = float(initial_step)
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
                step *= growth
                continue
        if f_prev * f_next < 0.0:
            if direction > 0:
                return Bracket(x_prev, x_next, f_prev, f_next)
            return Bracket(x_next, x_prev, f_next, f_prev)
        x_prev, f_prev = x_next, f_next
        step *= growth
    raise NoBracketFound(
        f"no sign change within {_MAX_EXPANSIONS} expansions from {start} "
        f"(direction {direction:+d})"
    )


def newton_root(
    f: Callable[[float], tuple[float, float]],
    bracket: Bracket,
    x: float,
    tol: float = DEFAULT_X_TOL,
) -> float:
    """Locate the root of f inside a certified bracket by safeguarded Newton.

    f returns its value and its derivative.  The iteration starts at x (the
    midpoint if x is not inside the bracket) and shrinks the bracket by the
    sign of every value it sees.  Each step is a Newton step from the latest
    point, or a bisection when that step would leave the open bracket.  It
    stops when a Newton step is at most tol*max(1, |x|), returning the
    stepped point, or when the bracket is narrower than that.  The step
    test comes first, so a final step that lands on a bracket end is kept.
    Raises MaxIterations after _MAX_ROOT_ITER evaluations.
    """
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    rising = bracket.f_lo < 0.0
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
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
        width = tol * max(1.0, abs(x))
        if abs(step) <= width:
            return min(max(x - step, lo), hi)
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        if hi - lo <= width:
            return x
    raise MaxIterations(
        f"root not found within {_MAX_ROOT_ITER} iterations in [{bracket.lo}, {bracket.hi}]"
    )


def least_squares_bounded(
    residuals: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    opts: LsqOptions | None = None,
    jac: Callable[[np.ndarray], np.ndarray] | str = "2-point",
) -> tuple[np.ndarray, float, bool]:
    """Bound-constrained nonlinear least squares.

    Runs a dogbox trust-region iteration.  ``jac`` is either a callable
    returning the residual Jacobian at x or a scipy finite-difference
    scheme ("2-point", the default, is a forward difference).  A callable
    is asked for the Jacobian once per accepted step, at the point whose
    residuals were just evaluated, with any coordinate that reached a bound
    set exactly onto it.  Every residual evaluation, including differencing,
    stays inside [lower, upper].  Returns (x, cost, converged) with
    cost = 0.5*||r||^2.
    When the evaluation budget runs out the best point found is returned
    with converged=False rather than raising.
    """
    if opts is None:
        opts = LsqOptions()
    x0 = np.asarray(x0, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(x0 < lower) or np.any(x0 > upper):
        raise InfeasibleStart(f"start point {x0.tolist()} violates bounds")
    result = least_squares(
        residuals,
        x0,
        jac=jac,
        bounds=(lower, upper),
        method="dogbox",
        ftol=opts.f_tol,
        xtol=opts.x_tol,
        gtol=opts.g_tol,
        max_nfev=opts.max_evals,
    )
    converged = result.status > 0
    return result.x, float(result.cost), bool(converged)
