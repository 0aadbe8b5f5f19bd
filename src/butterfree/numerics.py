"""Shared numeric plumbing: bracketed root finding, bound-constrained least
squares and the checks on numeric settings.

Roots are found by a local safeguarded Newton iteration on certified
brackets.  Least squares is a port of scipy's dogbox trust region that
always runs on the caller's exact Jacobian, never on finite differences,
and yields after every residual evaluation so a caller can stop a run
between evaluations; the package needs no scipy.  This module pins down
brackets, tolerances and failure modes so the rest of the package gets
deterministic behaviour and typed errors.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Sequence

import numpy as np
from numpy.linalg import lstsq, norm

from .errors import (
    DomainError,
    InfeasibleStart,
    InvalidInput,
    MaxIterations,
    NoBracketFound,
    NoSignChange,
    NumericFailure,
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




class LsqResult(NamedTuple):
    """Where a dogbox run ended: the point x, its cost 0.5*||r||^2, whether
    a tolerance was met (False when the evaluation budget ran out), and the
    residual and Jacobian evaluations made."""

    x: np.ndarray
    cost: float
    converged: bool
    nfev: int
    njev: int


def dogbox(
    residuals: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    tol: float,
    max_evals: int,
) -> Generator[tuple[float, int], None, LsqResult]:
    """Bound-constrained nonlinear least squares by the rectangular
    trust-region dogleg of Voglis & Lagaris (2004), as a generator.

    This is scipy's ``least_squares(method="dogbox")`` (scipy/optimize/
    _lsq/dogbox.py, BSD-3-Clause, Copyright (c) 2001-2002 Enthought, Inc.
    and 2003-2024 SciPy Developers) for a dense exact Jacobian, the linear
    loss and unit x_scale, with scipy's numpy operations in scipy's order,
    so that every iterate matches scipy's bit for bit.  Each iteration
    takes the Gauss-Newton step ``lstsq(J_free, -f, rcond=-1)`` over the
    coordinates not held at a bound, or, when that leaves the rectangle
    of the trust region and the bounds, the dogleg from the Cauchy step
    toward it; clips the trial point into [lower, upper]; and, after a
    step that lowers the cost, sets each coordinate the step took to a
    bound exactly onto it and asks ``jac`` there.  Delta shrinks to a
    quarter of the step on a poor or non-finite trial and doubles after a
    good one that hit the trust region.  The run converges once the cost
    falls by less than ``tol`` relative with a fair step ratio, the step
    is under ``tol`` relative to x, or the free gradient is under ``tol``.

    ``max_evals`` caps the trial points, counting the start.  Like
    scipy's, the residuals and the Jacobian are kept for the last point
    either was asked at, so a trial point equal to it spends budget
    without a new evaluation.  After each residual evaluation the
    generator yields (cost, njev): that evaluation's 0.5*||r||^2 and the
    Jacobian evaluations so far, so a caller can stop the run between
    evaluations.  Run to the end it returns an LsqResult.  Raises
    InfeasibleStart for x0 outside the bounds and NumericFailure for
    non-finite residuals at x0.
    """
    x = np.array(x0, dtype=float)
    lb = np.asarray(lower, dtype=float)
    ub = np.asarray(upper, dtype=float)
    if np.any(x < lb) or np.any(x > ub):
        raise InfeasibleStart(f"start point {x.tolist()} violates bounds")
    f = residuals(x.copy())
    cost = 0.5 * np.dot(f, f)
    yield cost, 0
    if not np.all(np.isfinite(f)):
        raise NumericFailure(f"residuals are not finite at the start point {x.tolist()}")
    J = jac(x.copy())
    nfev = njev = spent = 1
    # the point the residuals or the Jacobian were last asked at, and what
    # is known there
    at, f_at, J_at = x, f, J
    g = J.T.dot(f)
    Delta = norm(x, ord=np.inf)
    if Delta == 0:
        Delta = 1.0
    on_bound = np.zeros_like(x, dtype=int)
    on_bound[np.equal(x, lb)] = -1
    on_bound[np.equal(x, ub)] = 1
    step = np.empty_like(x)
    converged = False
    while True:
        active = on_bound * g < 0
        free = ~active
        g_free = g[free]
        g[active] = 0
        if norm(g, ord=np.inf) < tol:
            converged = True
        if converged or spent == max_evals:
            break
        x_free, lb_free, ub_free = x[free], lb[free], ub[free]
        J_free = J[:, free]
        newton_step = lstsq(J_free, -f, rcond=-1)[0]
        # the model along the anti-gradient: a*t^2 + b*t
        v = J_free.dot(-g_free)
        a = np.dot(v, v)
        a *= 0.5
        b = np.dot(g_free, -g_free)

        actual_reduction = -1.0
        while actual_reduction <= 0 and spent < max_evals:
            step_free, on_bound_free, tr_hit = _dogleg_step(
                x_free, newton_step, g_free, a, b, Delta, lb_free, ub_free)
            step.fill(0.0)
            step[free] = step_free
            Js = J_free.dot(step_free)
            predicted_reduction = -(0.5 * np.dot(Js, Js) + np.dot(step_free, g_free))
            x_new = np.clip(x + step, lb, ub)
            if not np.array_equal(x_new, at):
                at, f_at, J_at = x_new, None, None
            if f_at is None:
                f_at = residuals(x_new.copy())
                nfev += 1
                yield 0.5 * np.dot(f_at, f_at), njev
            f_new = f_at
            spent += 1
            step_h_norm = norm(step, ord=np.inf)
            if not np.all(np.isfinite(f_new)):
                Delta = 0.25 * step_h_norm
                continue
            cost_new = 0.5 * np.dot(f_new, f_new)
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            elif predicted_reduction == actual_reduction == 0:
                ratio = 1
            else:
                ratio = 0
            if ratio < 0.25:
                Delta = 0.25 * step_h_norm
            elif ratio > 0.75 and tr_hit:
                Delta *= 2.0
            converged = (
                actual_reduction < tol * cost and ratio > 0.25
                or norm(step) < tol * (tol + norm(x))
            )
            if converged:
                break

        if actual_reduction > 0:
            on_bound[free] = on_bound_free
            x = x_new.copy()
            mask = on_bound == -1
            x[mask] = lb[mask]
            mask = on_bound == 1
            x[mask] = ub[mask]
            f = f_new
            cost = cost_new
            if not np.array_equal(x, at):
                at, f_at, J_at = x, None, None
            if J_at is None:
                J_at = jac(x.copy())
                njev += 1
            J = J_at
            g = J.T.dot(f)
    return LsqResult(x, float(cost), converged, nfev, njev)


def _dogleg_step(
    x: np.ndarray, newton_step: np.ndarray, g: np.ndarray, a: float, b: float,
    Delta: float, lb: np.ndarray, ub: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """(step, bound_hits, tr_hit): the dogleg step inside the intersection
    of the trust region |step| <= Delta with [lb - x, ub - x].  bound_hits
    is -1 or 1 where the step ends on a lower or upper bound of [lb, ub],
    and tr_hit says whether it ends on the trust region's edge."""
    lb_centered = lb - x
    ub_centered = ub - x
    lb_total = np.maximum(lb_centered, -Delta)
    ub_total = np.minimum(ub_centered, Delta)
    bound_hits = np.zeros_like(x, dtype=int)
    if np.all((newton_step >= lb_total) & (newton_step <= ub_total)):
        return newton_step, bound_hits, False

    to_bounds, _ = _to_bound(np.zeros_like(x), -g, lb_total, ub_total)
    # the least of the model a*t^2 + b*t over [0, to_bounds]
    t = [0, to_bounds]
    if a != 0:
        extremum = -0.5 * b / a
        if 0 < extremum < to_bounds:
            t.append(extremum)
    t = np.asarray(t)
    cauchy_step = -t[np.argmin(t * (a * t + b))] * g

    step_diff = newton_step - cauchy_step
    step_size, hits = _to_bound(cauchy_step, step_diff, lb_total, ub_total)
    bound_hits[(hits < 0) & np.equal(lb_total, lb_centered)] = -1
    bound_hits[(hits > 0) & np.equal(ub_total, ub_centered)] = 1
    tr_hit = np.any(
        (hits < 0) & np.equal(lb_total, -Delta) | (hits > 0) & np.equal(ub_total, Delta)
    )
    return cauchy_step + step_size * step_diff, bound_hits, tr_hit


def _to_bound(
    x: np.ndarray, s: np.ndarray, lb: np.ndarray, ub: np.ndarray
) -> tuple[float, np.ndarray]:
    """(t, hits): the least t >= 0 at which x + t*s reaches a bound, and
    -1 or 1 for each coordinate that reaches its lower or upper bound."""
    non_zero = np.nonzero(s)
    s_non_zero = s[non_zero]
    steps = np.empty_like(x)
    steps.fill(np.inf)
    with np.errstate(over="ignore"):
        steps[non_zero] = np.maximum((lb - x)[non_zero] / s_non_zero,
                                     (ub - x)[non_zero] / s_non_zero)
    min_step = np.min(steps)
    return min_step, np.equal(steps, min_step) * np.sign(s).astype(int)


def least_squares_bounded(
    residuals: Callable[[np.ndarray], np.ndarray],
    jac: Callable[[np.ndarray], np.ndarray],
    x0: Sequence[float],
    lower: Sequence[float],
    upper: Sequence[float],
    tol: float,
    max_evals: int,
) -> tuple[np.ndarray, float, bool]:
    """Bound-constrained nonlinear least squares with an exact Jacobian:
    dogbox run to the end.

    ``jac`` returns the residual Jacobian at x; it is asked once per
    accepted step, at the point whose residuals were just evaluated, with
    any coordinate that reached a bound set exactly onto it.  Every
    residual evaluation stays inside [lower, upper].  ``tol`` is the
    relative tolerance on the cost, the step and the scaled gradient
    alike, and ``max_evals`` caps the residual evaluations.  Returns (x,
    cost, converged) with cost = 0.5*||r||^2.  When the evaluation budget
    runs out the best point found is returned with converged=False rather
    than raising.
    """
    steps = dogbox(residuals, jac, x0, lower, upper, tol, max_evals)
    while True:
        try:
            next(steps)
        except StopIteration as done:
            return done.value[:3]
