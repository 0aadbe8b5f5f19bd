"""Arbitrage-free smile calibration over the free-domain box.

Least squares runs on total variances in the box coordinates
(rho, b', u, q, v), so every iterate corresponds to a butterfly-free smile
and no penalty terms or post-hoc repairs are needed.  Multi-start with a
seeded generator keeps the whole procedure deterministic.

The box-to-smile chart (domain.BoxChart) evaluates the threshold, the
shift interval and the curvature floor once per residual evaluation.  The
solver gets the exact Jacobian of the residuals in box coordinates, from
the chart's partials; only at the chart's kinks does a column fall back to
a one-sided difference quotient.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .black_scholes import d1_d2, norm_pdf
from .domain import (
    ArbitrageDiagnostic,
    BoxChart,
    BoxCoords,
    ChartPoint,
    Status,
    check_no_arbitrage,
    params_to_box,
)
from .errors import (
    ButterfreeError,
    InsufficientData,
    InvalidInput,
    NoConvergedStart,
    NumericFailure,
)
from .numerics import LsqOptions, least_squares_bounded, require_int, require_real
from .svi import SviParams, svi, svi_raw

#: Margin keeping box samples off the open boundaries of the rectangle.
_EDGE = 1e-6

_EPS = float(np.finfo(float).eps)

#: Relative step of the one-sided difference quotients at the kinks.
_FD_STEP = _EPS ** 0.5

#: Residual size, in ulps of the largest weighted variance, that counts as
#: rounding when deciding whether a start has fitted the data.
_FLOOR_ULPS = 16.0

#: The stall rule: evaluations over which a start's progress is measured,
#: and how many times the best cost so far a start must exceed before the
#: rule can stop it.
_STALL_WINDOW = 50
_STALL_RATIO = 1e3


@dataclass(frozen=True)
class MarketSlice:
    """One maturity of market total variances on a log-forward strike grid.

    w_bid and w_ask may carry NaN where a side was missing or not
    invertible; w_mid must be positive everywhere and k strictly
    increasing.
    """

    k: np.ndarray
    w_mid: np.ndarray
    w_bid: np.ndarray | None = None
    w_ask: np.ndarray | None = None
    t: float | None = None
    forward: float | None = None
    discount: float | None = None
    expiry: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "k", np.asarray(self.k, dtype=float))
        object.__setattr__(self, "w_mid", np.asarray(self.w_mid, dtype=float))
        if self.k.ndim != 1 or self.k.size == 0:
            raise InvalidInput("k must be a non-empty one-dimensional array")
        if self.w_mid.shape != self.k.shape:
            raise InvalidInput("w_mid must match the shape of k")
        if not np.all(np.isfinite(self.k)):
            raise InvalidInput("k must be finite")
        if np.any(np.diff(self.k) <= 0.0):
            raise InvalidInput("k must be strictly increasing")
        if not np.all(np.isfinite(self.w_mid)) or np.any(self.w_mid <= 0.0):
            raise InvalidInput("w_mid must be finite and positive")
        for name in ("w_bid", "w_ask"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, name, arr)
            if arr.shape != self.k.shape:
                raise InvalidInput(f"{name} must match the shape of k")
        if self.w_bid is not None:
            ok = np.isnan(self.w_bid) | (self.w_bid <= self.w_mid)
            if not np.all(ok):
                raise InvalidInput("w_bid must not exceed w_mid")
        if self.w_ask is not None:
            ok = np.isnan(self.w_ask) | (self.w_ask >= self.w_mid)
            if not np.all(ok):
                raise InvalidInput("w_ask must not fall below w_mid")
        for name in ("t", "forward", "discount"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise InvalidInput(f"{name} must be positive, got {value}")

    def __len__(self) -> int:
        return int(self.k.size)


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the multi-start box calibration.

    alpha_cap bounds the normalized level a/sigma; around 1 is plenty for
    index smiles, raise it for synthetic or long-dated data.  r controls
    the sigma ceiling max(|k_first|, |k_last|)/r.
    """

    n_starts: int = 8
    seed: int = 0
    r: float = 0.1
    alpha_cap: float = 1.0
    vega_weighted: bool = False
    lsq: LsqOptions = field(default_factory=LsqOptions)

    def __post_init__(self) -> None:
        require_int("n_starts", self.n_starts, 1)
        require_int("seed", self.seed, 0)
        require_real("r", self.r, 0.0, strict=True)
        require_real("alpha_cap", self.alpha_cap, 0.0, strict=True)
        if not isinstance(self.vega_weighted, bool):
            raise InvalidInput(
                f"vega_weighted must be true or false, got {self.vega_weighted!r}"
            )


@dataclass(frozen=True)
class StartResult:
    """Outcome of one start: where it began, where it stopped, and the cost.

    ``nfev`` counts the start's residual evaluations.  ``stop`` says why it
    ended: "converged" (a solver tolerance was met), "budget" (``max_evals``
    ran out), "stalled" (the stall rule ended it far above the best cost of
    the starts before it), "not run" (an earlier start reached the rounding
    floor) or "failed" (the solver raised); ``converged`` is true for the
    first only.  Budget and stalled starts keep their best point and cost.
    ``x is None`` (with ``cost`` infinite) means the start failed or was
    not run; ``error`` gives the reason.
    """

    index: int
    x0: tuple[float, ...]
    x: tuple[float, ...] | None
    cost: float
    nfev: int
    stop: str
    error: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop == "converged"


@dataclass(frozen=True)
class CalibrationResult:
    params: SviParams
    box: BoxCoords
    cost: float
    rel_error_fro: float
    diagnostic: ArbitrageDiagnostic
    starts: tuple[StartResult, ...]
    wall_time: float


def sigma_upper_bound(slice_: MarketSlice, sigma_star: float, r: float) -> float:
    """Ceiling for sigma: the observed strike span scaled by 1/r, never
    below 1.5 times the curvature floor."""
    if not r > 0.0:
        raise InvalidInput(f"r must be positive, got {r}")
    return max(abs(float(slice_.k[0])) / r, abs(float(slice_.k[-1])) / r, 1.5 * sigma_star)


def vega_weights(slice_: MarketSlice) -> np.ndarray:
    """Black-Scholes total-vol vegas of the mid quotes, used as residual
    weights; computed once from the data, not from the model."""
    out = np.empty(len(slice_))
    for i, (k, w) in enumerate(zip(slice_.k, slice_.w_mid)):
        d1, _ = d1_d2(float(k), math.sqrt(float(w)))
        out[i] = norm_pdf(d1)
    return out


class _Objective:
    """Weighted total-variance residuals over the chart, and their Jacobian.

    The solver asks for the Jacobian at the point whose residuals it has
    just evaluated, so jacobian() reuses that chart point and adds only the
    partials.  Kinked columns are one-sided difference quotients whose step
    stays inside [lower, upper].
    """

    def __init__(
        self,
        slice_: MarketSlice,
        weights: np.ndarray,
        pipeline: BoxChart,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        self.k = slice_.k
        self.w_mid = slice_.w_mid
        self.weights = weights
        self.pipeline = pipeline
        self.lower = lower
        self.upper = upper
        self._last: ChartPoint | None = None

    def _of_raw(self, raw: tuple[float, float, float, float, float]) -> np.ndarray:
        return (svi_raw(self.k, *raw) - self.w_mid) * self.weights

    def residuals(self, x: np.ndarray) -> np.ndarray:
        self._last = self.pipeline.point(x)
        return self._of_raw(self._last.raw)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        p = self._last
        if p is None or p.x != tuple(float(c) for c in x):
            p = self.pipeline.point(x)
        _, b, rho, m, sigma = p.raw
        dk = self.k - m
        root = np.sqrt(dk * dk + sigma * sigma)
        d_res = np.column_stack([
            np.ones_like(dk), rho * dk + root, b * dk,
            -b * (rho + dk / root), b * sigma / root,
        ]) * self.weights[:, None]
        d_raw, kinks = self.pipeline.partials(p)
        jac = d_res @ d_raw
        if kinks:
            x0 = np.asarray(p.x)
            r0 = self._of_raw(p.raw)
            for j in sorted(kinks):
                jac[:, j] = self._one_sided_column(x0, r0, j)
        return jac

    def _one_sided_column(self, x0: np.ndarray, r0: np.ndarray, j: int) -> np.ndarray:
        h = _FD_STEP * max(1.0, abs(x0[j]))
        if x0[j] + h > self.upper[j]:
            h = -h
        x1 = x0.copy()
        x1[j] += h
        return (self._of_raw(self.pipeline.point(x1).raw) - r0) / (x1[j] - x0[j])


class _Stalled(Exception):
    """Raised through the solver when the stall rule ends a start; caught
    in calibrate."""


class _StallWatch:
    """One start's residuals, with the stall rule applied after each
    evaluation.

    The watch counts the evaluations (``nfev``) and keeps the lowest-cost
    point among them (``best_x``, ``best_cost``).  At evaluation n > W
    (W = _STALL_WINDOW), with c_n the start's best cost so far, it raises
    _Stalled when c_n exceeds _STALL_RATIO * best and

        ln(c_n / best) > ((max_evals - n) / W) * ln(c_{n-W} / c_n),

    that is, when the start sits far above ``best`` and, at its rate over
    the last W evaluations, would not come down to it within its budget.
    That is an extrapolation, not a guarantee: a start that idles on a
    plateau and then drops is kept only while its plateau is within
    _STALL_RATIO of ``best``.  Criterion 4's winner idles at 18x the
    informed start's cost, a margin of about 55x below the ratio.  With
    ``best`` infinite the watch never stops a start.
    """

    def __init__(
        self,
        residuals: Callable[[np.ndarray], np.ndarray],
        best: float,
        max_evals: int,
    ) -> None:
        self.residuals = residuals
        self.best = best
        self.max_evals = max_evals
        self.nfev = 0
        self.best_x: np.ndarray | None = None
        self.best_cost = math.inf
        # c_{n-W}, ..., c_n
        self._recent: deque[float] = deque(maxlen=_STALL_WINDOW + 1)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        r = self.residuals(x)
        self.nfev += 1
        cost = 0.5 * float(np.dot(r, r))
        if cost < self.best_cost:
            self.best_x, self.best_cost = np.array(x, dtype=float), cost
        self._recent.append(self.best_cost)
        if self.nfev > _STALL_WINDOW and self.best_cost > _STALL_RATIO * self.best:
            recent = math.log(self._recent[0] / self.best_cost)
            horizon = (self.max_evals - self.nfev) / _STALL_WINDOW
            if math.log(self.best_cost / self.best) > horizon * recent:
                raise _Stalled
        return r


def _quasi_explicit_guess(
    k: np.ndarray, w_mid: np.ndarray, weights: np.ndarray
) -> SviParams:
    """Coarse smile fit by scanning (m, sigma) and solving the inner
    linear problem in (a, b*rho, b) exactly.

    For fixed shift and curvature scale the smile is linear in the
    remaining three parameters, so a modest outer grid plus least squares
    gives a start that already matches the data's level, slope and
    asymmetry.  The output may violate the free-domain conditions; the
    caller projects it into the box.
    """
    span = float(k[-1] - k[0])
    best = None
    for m in np.linspace(k[0] - span, k[-1] + span, 41):
        dk = k - m
        for sigma in np.geomspace(5e-3, 3.0, 25):
            cols = np.column_stack(
                [np.ones_like(k), dk, np.sqrt(dk * dk + sigma * sigma)]
            )
            sol, *_ = np.linalg.lstsq(cols * weights[:, None], w_mid * weights, rcond=None)
            resid = cols @ sol - w_mid
            cost = float(np.dot(resid * weights, resid * weights))
            if best is None or cost < best[0]:
                best = (cost, float(m), float(sigma), sol)
    _, m, sigma, (a, c, d) = best
    b = max(float(d), 1e-9)
    rho = min(max(float(c) / b, -1.0 + _EDGE), 1.0 - _EDGE)
    # keep the smile valid even if the linear part dipped below the floor
    a = max(float(a), -b * sigma * math.sqrt(1.0 - rho * rho) + 1e-12)
    return SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma)


def _natural_polish(
    k: np.ndarray, w_mid: np.ndarray, weights: np.ndarray, guess: SviParams
) -> SviParams:
    """Refine the coarse guess by unconstrained-smile least squares.

    The raw parameter space has none of the box chart's warping, so a few
    dozen cheap iterations land on the natural optimum; the result may sit
    outside the free domain and is only ever used after projection.
    """
    span = float(k[-1] - k[0])
    w_scale = float(np.max(w_mid))
    lo = np.array([-10.0 * w_scale, 0.0, -1.0 + _EDGE, float(k[0]) - 2.0 * span, 1e-4])
    hi = np.array([10.0 * w_scale, 4.0, 1.0 - _EDGE, float(k[-1]) + 2.0 * span, 10.0])
    x0 = np.clip(
        np.array([guess.a, guess.b, guess.rho, guess.m, guess.sigma]), lo, hi
    )

    def residuals(x: np.ndarray) -> np.ndarray:
        return (svi_raw(k, *x) - w_mid) * weights

    from scipy.optimize import least_squares

    fit = least_squares(
        residuals, x0, bounds=(lo, hi), method="dogbox", jac="2-point",
        ftol=1e-14, xtol=1e-14, gtol=1e-14, max_nfev=400,
    )
    a, b, rho, m, sigma = (float(c) for c in fit.x)
    b = max(b, 1e-9)
    a = max(a, -b * sigma * math.sqrt(1.0 - rho * rho) + 1e-12)
    return SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma)


def calibrate(slice_: MarketSlice, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Fit an arbitrage-free smile to one maturity of total variances.

    Draws ``n_starts`` uniform box starts plus one deterministic
    quasi-explicit start, polishes each with bounded least squares on the
    (optionally vega-weighted) total-variance residuals, and keeps the
    lowest cost.  The quasi-explicit start runs first, then the uniform
    ones in index order; once a start's cost is at or below the rounding
    floor 0.5*n*(16*eps*max|weights*w_mid|)^2 the data is one smile to
    rounding, and the remaining starts are recorded as not run.  Each
    later start is watched by the stall rule (_StallWatch): after 50
    evaluations it is stopped once its cost sits more than 1e3 times
    above the best cost so far and its recent progress cannot close that
    gap within ``max_evals``.  The rule extrapolates: a start that idles
    on a plateau and then drops is protected only by the 1e3 ratio, and
    one idling further above the best cost so far is stopped even if it
    would have gone on to win.  Starts that exhaust their evaluation budget
    or stall still report their best point; starts that die outright or
    are not run are discarded, and NoConvergedStart is raised if none
    survive.  ``starts`` is ordered by index, with the quasi-explicit
    start last; each records its ``nfev`` and why it stopped.
    """
    if config is None:
        config = CalibrationConfig()
    if len(slice_) < 5:
        raise InsufficientData(
            f"need at least 5 strikes to identify 5 parameters, got {len(slice_)}"
        )
    t_begin = time.perf_counter()
    k = slice_.k
    w_mid = slice_.w_mid
    weights = vega_weights(slice_) if config.vega_weighted else np.ones(len(slice_))

    v_max = sigma_upper_bound(slice_, 0.0, config.r)
    u_max = config.alpha_cap + 2.0
    lower = np.array([-1.0 + _EDGE, _EDGE, _EDGE, -1.0 + _EDGE, 0.0])
    upper = np.array([1.0 - _EDGE, 1.0, u_max, 1.0 - _EDGE, v_max])

    pipeline = BoxChart(config.alpha_cap)
    objective = _Objective(slice_, weights, pipeline, lower, upper)

    rng = np.random.default_rng(config.seed)
    x0s = list(rng.uniform(lower, upper, size=(config.n_starts, 5)))
    try:
        guess = _quasi_explicit_guess(k, w_mid, weights)
        guess = _natural_polish(k, w_mid, weights, guess)
        x0s.append(pipeline.project(guess, lower, upper))
    except ButterfreeError:
        pass  # the uniform starts still run

    # A cost at or below this floor leaves every residual within a few ulps
    # of the largest weighted variance: the data is one smile to rounding,
    # and no later start can improve on it by more than rounding.
    scale = float(np.max(np.abs(weights * w_mid)))
    floor = 0.5 * len(slice_) * (_FLOOR_ULPS * _EPS * scale) ** 2
    starts: list[StartResult] = []
    stopped_by: int | None = None
    best_cost = math.inf
    # the informed start (index n_starts, when present) runs first
    for i in [*range(config.n_starts, len(x0s)), *range(config.n_starts)]:
        x0 = tuple(x0s[i])
        if stopped_by is not None:
            starts.append(StartResult(
                i, x0, None, math.inf, 0, "not run",
                error=f"not run: start {stopped_by} reached the rounding floor",
            ))
            continue
        watch = _StallWatch(objective.residuals, best_cost, config.lsq.max_evals)
        try:
            x, cost, converged = least_squares_bounded(
                watch, x0s[i], lower, upper, config.lsq, jac=objective.jacobian,
            )
            stop = "converged" if converged else "budget"
        except _Stalled:
            x, cost, stop = watch.best_x, watch.best_cost, "stalled"
        except ButterfreeError as exc:
            starts.append(StartResult(
                i, x0, None, math.inf, watch.nfev, "failed", error=str(exc),
            ))
            continue
        starts.append(StartResult(i, x0, tuple(x), float(cost), watch.nfev, stop))
        best_cost = min(best_cost, float(cost))
        if cost <= floor:
            stopped_by = i
    starts.sort(key=lambda s: s.index)

    usable = [s for s in starts if s.x is not None]
    if not usable:
        raise NoConvergedStart(
            "every calibration start failed: "
            + "; ".join(s.error or "?" for s in starts)
        )
    best = min(usable, key=lambda s: (s.cost, s.index))

    x_best = np.asarray(best.x)
    a, b, rho, m, sigma = pipeline.point(x_best).raw
    params = SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma)
    diagnostic = check_no_arbitrage(params)
    # Rebuilding (a, m) from (alpha, mu) and back moves alpha = a/sigma by an
    # ulp or two; when v sits on its zero bound that can land sigma just
    # under the recertified floor.  Nudge sigma up by a growing hair until
    # the certificate holds; one pass suffices in practice.
    margin = 1e-12
    while diagnostic.status is Status.FAILURE4 and margin <= 1e-8:
        sigma_up = diagnostic.sigma_star * (1.0 + margin)
        params = SviParams(
            a=params.a / params.sigma * sigma_up,
            b=b,
            rho=rho,
            m=params.m / params.sigma * sigma_up,
            sigma=sigma_up,
        )
        diagnostic = check_no_arbitrage(params)
        margin *= 100.0
    if not diagnostic.is_free:
        raise NumericFailure(
            f"calibrated smile failed the free-domain certificate: "
            f"{diagnostic.status.value}"
        )
    box = params_to_box(params)
    rel = float(np.linalg.norm(svi(params, k) - w_mid) / np.linalg.norm(w_mid))
    return CalibrationResult(
        params=params,
        box=box,
        cost=best.cost,
        rel_error_fro=rel,
        diagnostic=diagnostic,
        starts=tuple(starts),
        wall_time=time.perf_counter() - t_begin,
    )
