"""Shared numeric plumbing: bracketed root finding and the checks on
numeric settings.

Roots are found by a local safeguarded Newton iteration on certified
brackets, on the standard library alone: one bracket walk, and Newton from
the secant point of the bracket it walked (walk_root).  This module pins
down brackets, tolerances and failure modes so the rest of the package
gets deterministic behaviour and typed errors.  The bound-constrained least
squares that calibration runs is ``calibration.dogbox``.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import (
    DomainError,
    InvalidInput,
    MaxIterations,
    NoBracketFound,
    NoSignChange,
)

#: Root tolerance: a Newton step of at most this times max(1, |x|) ends
#: the iteration.
_X_TOL = 1e-12

_MAX_ROOT_ITER = 200


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
        if not (self.f_lo < 0.0 < self.f_hi or self.f_hi < 0.0 < self.f_lo):
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


def expand_bracket(
    f: Callable[[float], float | tuple[float, float]], start: float, step: float
) -> tuple[float, float | tuple[float, float], Bracket | None]:
    """Walk x <- x + step, step <- 2*step from ``start`` until f changes sign.

    f returns a value or a (value, slope) pair.  A first step of +-1 probes
    start +- 1, 3, 7, ...; a first step of ``start`` itself probes
    start*2^k exactly.  Returns the last probe before the sign change, f
    there and the bracket of the last probed sub-interval, so the bracket
    is as tight as the stepping allows.  A probe where f is exactly 0, the
    start included, is the root: it comes back with f there and no
    bracket.  Raises DomainError for a step that is 0 or not finite, and
    NoBracketFound once x or f(x) leaves the floats.
    """
    if not 0.0 < abs(step) < math.inf:
        raise DomainError(f"step must be finite and non-zero, got {step}")
    x, x_prev, v_prev, out_prev = float(start), math.nan, math.nan, None
    while math.isfinite(x):
        out = f(x)
        v = out[0] if isinstance(out, tuple) else out
        if not math.isfinite(v):
            break
        if v == 0.0:
            return x, out, None
        if v < 0.0 < v_prev or v_prev < 0.0 < v:
            if step > 0.0:
                return x_prev, out_prev, Bracket(x_prev, x, v_prev, v)
            return x_prev, out_prev, Bracket(x, x_prev, v, v_prev)
        x_prev, v_prev, out_prev = x, v, out
        x += step
        step *= 2.0
    raise NoBracketFound(f"no sign change from {start} before x or f(x) leaves the floats")


def walk_secant(
    f: Callable[[float], float | tuple[float, float]], start: float, step: float
) -> tuple[Bracket | None, float]:
    """expand_bracket's bracket and the secant point of its ends, or no
    bracket and the root where a probe hits an exact zero."""
    x, _, bracket = expand_bracket(f, start, step)
    if bracket is None:
        return None, x
    lo, hi, f_lo = bracket.lo, bracket.hi, bracket.f_lo
    return bracket, lo - f_lo * (hi - lo) / (bracket.f_hi - f_lo)


def walk_root(f: Callable[[float], tuple[float, float]], start: float, step: float) -> float:
    """The root of f that expand_bracket's walk from start brackets, by
    newton_root from the bracket's secant point (walk_secant)."""
    bracket, x = walk_secant(f, start, step)
    return x if bracket is None else newton_root(f, bracket, x)


def newton_root(f: Callable[[float], tuple[float, float]], bracket: Bracket, x: float) -> float:
    """Locate the root of f inside a certified bracket by safeguarded Newton.

    f returns its value and its derivative.  The iteration starts at x (the
    midpoint if x is not inside the bracket) and shrinks the bracket by the
    sign of every value it sees.  Each step is a Newton step from the latest
    point, or a bisection when that step would leave the open bracket,
    is not converging (it turns back on the last step and is at least half
    as long) or divides by a subnormal derivative, which has no digits.
    Where rounding noise in f is wider than the tolerance, Newton would
    otherwise hop between two points while the bracket hardly shrinks;
    steps that keep shrinking or keep their direction are plain Newton
    steps.  It stops when a Newton step is at
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
        step = fx / dfx if abs(dfx) >= sys.float_info.min else math.inf
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
