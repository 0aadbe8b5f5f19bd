"""Arbitrage-free smile calibration over the free-domain box.

Least squares runs on total variances in the box coordinates
(rho, b', u, q, v), so every iterate corresponds to a butterfly-free smile
and no penalty terms or post-hoc repairs are needed.  Multi-start with a
seeded generator keeps the whole procedure deterministic.

The box-to-smile chart (domain.BoxChart) evaluates the threshold, the
shift interval and the curvature floor once per residual evaluation.  The
solver gets the exact Jacobian of the residuals in box coordinates from the
chart's partials, one-sided at the chart's kinks, with no further chart
evaluation.  The box stops short of the face b' = 1, where the steeper
wing slope is 2 and the chart has no finite partials.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .arrays import svi, svi_raw, svi_raw_jacobian
from .black_scholes import d1_d2, norm_pdf
from .domain import (
    _Q,
    _RHO,
    _U,
    _V,
    ArbitrageDiagnostic,
    BoxChart,
    BoxCoords,
    ChartPoint,
    _profile_partials,
    _threshold_partials,
    box_from_diagnostic,
    check_no_arbitrage,
)
from .errors import (
    ButterfreeError,
    DomainError,
    InfeasibleStart,
    InsufficientData,
    InvalidInput,
    NoConvergedStart,
    NumericFailure,
)
from .fukasawa import SLOPE_EQ_TOL, bound_partials
from .numerics import require_int, require_real
from .smile import SviParams, omega

#: Margin keeping box samples off the open boundaries of the rectangle.
_EDGE = 1e-6

#: The sigma ceiling is the larger end of the strike span over this.
_R = 0.1

#: Machine epsilon, also the box solve's tolerance: a start runs until its
#: progress stalls or its budget runs out.
_EPS = float(np.finfo(float).eps)

#: Residual evaluations a start may spend; also the stall rule's horizon.
_MAX_EVALS = 1000

#: Residual size, in ulps of the largest weighted variance, that counts as
#: rounding when deciding whether a start has fitted the data.
_FLOOR_ULPS = 16.0

#: The stall rule: evaluations over which a start's progress is measured,
#: and how many times the best cost so far a start must exceed before the
#: rule can stop it.
_STALL_WINDOW = 50
_STALL_RATIO = 1e3

#: Relative gap below which the two tail maxima of sigma_star count as a
#: tie, where sigma_star has a kink.
_TIE_TOL = 1e-10


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
            if value is not None:
                require_real(name, value, 0.0, strict=True)

    def __len__(self) -> int:
        return int(self.k.size)


@dataclass(frozen=True)
class CalibrationConfig:
    """Knobs of the multi-start box calibration.

    alpha_cap bounds the normalized level a/sigma; around 1 is plenty for
    index smiles, raise it for synthetic or long-dated data.
    """

    n_starts: int = 8
    seed: int = 0
    alpha_cap: float = 1.0
    vega_weighted: bool = False

    def __post_init__(self) -> None:
        require_int("n_starts", self.n_starts, 1)
        require_int("seed", self.seed, 0)
        require_real("alpha_cap", self.alpha_cap, 0.0, strict=True)
        if not isinstance(self.vega_weighted, bool):
            raise InvalidInput(
                f"vega_weighted must be true or false, got {self.vega_weighted!r}"
            )


@dataclass(frozen=True)
class StartResult:
    """Outcome of one start: where it began, where it stopped, and the cost.

    ``nfev`` counts the start's residual evaluations and ``njev`` its
    Jacobian evaluations.  ``stop`` says why it
    ended: "converged" (a solver tolerance was met), "budget" (its 1,000
    evaluations ran out), "stalled" (the stall rule ended it far above the
    best cost of the starts before it), "not run" (an earlier start reached
    the rounding floor) or "failed" (the solver raised); ``converged`` is
    true for the first only.  Budget, stalled and failed starts keep their
    best evaluated point and cost.  ``x is None`` (with ``cost`` infinite)
    means the start was not run or failed before its first evaluation.
    ``error`` gives the reason a start failed or was not run.
    """

    index: int
    x0: tuple[float, ...]
    x: tuple[float, ...] | None
    cost: float
    nfev: int
    stop: str
    error: str | None = None
    njev: int = 0

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


def sigma_upper_bound(slice_: MarketSlice) -> float:
    """Ceiling for sigma: the larger end of the strike span over _R."""
    return max(abs(float(slice_.k[0])), abs(float(slice_.k[-1]))) / _R


def vega_weights(slice_: MarketSlice) -> np.ndarray:
    """Black-Scholes total-vol vegas of the mid quotes, used as residual
    weights; computed once from the data, not from the model."""
    return norm_pdf(d1_d2(slice_.k, np.sqrt(slice_.w_mid))[0])


class _Objective:
    """Weighted total-variance residuals over the chart, and their exact
    Jacobian.

    The chart point of the last x asked for is kept (``last``) and reused
    while x stays equal, so the Jacobian at the point whose residuals the
    solver has just evaluated adds only the chart's partials.  A caller
    may hand it a chart point it already holds, such as the projection of
    the informed start.  ``njev`` counts the Jacobian calls since the
    caller last set it.
    """

    def __init__(
        self, slice_: MarketSlice, weights: np.ndarray, pipeline: BoxChart
    ) -> None:
        self.k = slice_.k
        self.w_mid = slice_.w_mid
        self.weights = weights
        self.pipeline = pipeline
        self.last: ChartPoint | None = None
        self.njev = 0

    def point(self, x: np.ndarray) -> ChartPoint:
        if self.last is None or self.last.x != tuple(float(c) for c in x):
            self.last = self.pipeline.point(x)
        return self.last

    def residuals(self, x: np.ndarray) -> np.ndarray:
        p = self.point(x)
        if p.sigma_star == math.inf:  # no smile there; dogbox rejects the trial
            return np.full(self.k.shape, math.inf)
        return (svi_raw(self.k, *p.raw) - self.w_mid) * self.weights

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        self.njev += 1
        p = self.point(x)
        d_res = svi_raw_jacobian(self.k, self.weights, *p.raw[1:])
        return d_res @ self.partials(p)

    def partials(self, p: ChartPoint) -> np.ndarray:
        """d(a, b, rho, m, sigma)/d(rho, b', u, q, v) at p, as a 5x5 array.

        Every chart quantity is a root or an optimum, so its partials come
        from the solved point alone: the threshold F(b, rho) by the implicit
        function theorem on the interval gap, the interval bounds and
        sigma_star by the envelope theorem at their optimizers l-, l+ and
        h*.  Where the chart has a kink it is the max or min of two smooth
        branches: |rho| at rho = 0, the clamp u_eff = min(u, alpha_cap - F),
        and a tie between the two tail maxima; there column j is the
        one-sided derivative toward increasing x_j.  On the face b' = 1,
        where the steeper wing slope is exactly 2, the chart moves like
        sqrt(1 - b') and has no finite partials.  Raises DomainError there
        and at sigma_star = +inf.
        """
        rho, b_prime, u, q, _ = p.x
        b, alpha, mu, sigma = p.b, p.alpha, p.mu, p.sigma
        if b * (1.0 + abs(rho)) >= 2.0 - SLOPE_EQ_TOL:
            raise DomainError(
                f"b' = {b_prime} puts a wing slope at its limit 2, "
                "where the chart has no finite partials"
            )
        if p.sigma_star == math.inf:
            raise DomainError("sigma_star is +inf here, so the chart has no image")
        eye = np.eye(5)
        # d|rho|/drho is +1 at rho = +-0, toward increasing rho; F, the
        # bounds and the tail maxima are smooth in rho there
        sign = -1.0 if rho < 0.0 else 1.0
        d_rho = eye[_RHO]
        d_b = np.array([
            -sign * b / (1.0 + abs(rho)), 2.0 / (1.0 + abs(rho)), 0.0, 0.0, 0.0,
        ])
        f_b, f_rho = _threshold_partials(b, rho, p.threshold, *p.threshold_optimizers)
        d_threshold = f_b * d_b + f_rho * d_rho

        # u_eff = min(u, room) with room = alpha_cap - F
        d_u_eff = _kink_gradient(np.minimum, u, eye[_U], p.room, -d_threshold)
        d_alpha = d_threshold + d_u_eff

        d_bounds = []
        for side, l in zip("-+", p.optimizers):
            pa, pb, pr = bound_partials(l, alpha, b, rho, side)
            d_bounds.append(pa * d_alpha + pb * d_b + pr * d_rho)
        d_lower, d_upper = d_bounds
        d_mu = 0.5 * (1.0 + q) * d_upper + 0.5 * (1.0 - q) * d_lower
        d_mu[_Q] += 0.5 * p.interval.width()

        # sigma_star is the larger tail maximum, or 0 where neither rises
        d_sigma = eye[_V].copy()
        if p.sigma_star > 0.0:
            d_tails = []
            for value, h in p.tails:
                if p.sigma_star - value <= _TIE_TOL * p.sigma_star:
                    sa, sb, sr, sm = _profile_partials(alpha, b, rho, mu, h)
                    d_tails.append(sa * d_alpha + sb * d_b + sr * d_rho + sm * d_mu)
            d_sigma += np.maximum.reduce(d_tails)
        return np.vstack([
            sigma * d_alpha + alpha * d_sigma,
            d_b,
            d_rho,
            sigma * d_mu + mu * d_sigma,
            d_sigma,
        ])


def _kink_gradient(
    pick, f: float, d_f: np.ndarray, g: float, d_g: np.ndarray
) -> np.ndarray:
    """Gradient of pick(f, g), with pick np.maximum or np.minimum, toward
    increasing coordinates: that of the branch pick selects, or on a tie
    the elementwise pick of both, which is each one-sided derivative of a
    max or min of smooth branches."""
    if f == g:
        return pick(d_f, d_g)
    return d_f if pick(f, g) == f else d_g


class _StallWatch:
    """One start's evaluations, and the stall rule applied after each.

    The watch counts the evaluations (``nfev``) and keeps the lowest-cost
    one among them (``best_cost`` and ``best_at``, whatever the caller
    passes along with the cost).  At evaluation n > W (W =
    _STALL_WINDOW), with c_n the start's best cost so far, the start has
    stalled when c_n exceeds _STALL_RATIO * best and

        ln(c_n / best) > ((max_evals - n) / W) * ln(c_{n-W} / c_n),

    that is, when the start sits far above ``best`` and, at its rate over
    the last W evaluations, would not come down to it within its budget.
    That is an extrapolation, not a guarantee: a start that idles on a
    plateau and then drops is kept only while its plateau is within
    _STALL_RATIO of ``best``.  On criterion 4, random start 3 idles at 18x
    the informed start's cost, about 55x below the ratio,
    before it drops to the best minimum (which start 6 reaches too, so the
    two tie to rounding for the win).  With ``best`` infinite the watch
    never stops a start.
    """

    def __init__(self, best: float, max_evals: int) -> None:
        self.best = best
        self.max_evals = max_evals
        self.nfev = 0
        self.best_at: ChartPoint | None = None
        self.best_cost = math.inf
        # c_{n-W}, ..., c_n
        self._recent: deque[float] = deque(maxlen=_STALL_WINDOW + 1)

    def stalled(self, cost: float, at: ChartPoint | None = None) -> bool:
        """Count one evaluation, of this cost at ``at``; return whether the
        start has stalled."""
        self.nfev += 1
        if cost < self.best_cost:
            self.best_at, self.best_cost = at, cost
        self._recent.append(self.best_cost)
        if self.nfev > _STALL_WINDOW and self.best_cost > _STALL_RATIO * self.best:
            recent = math.log(self._recent[0] / self.best_cost)
            horizon = (self.max_evals - self.nfev) / _STALL_WINDOW
            return math.log(self.best_cost / self.best) > horizon * recent
        return False


def _floored(a: float, b: float, rho: float, m: float, sigma: float) -> SviParams:
    """The smile with b >= 1e-9 and a lifted just above -b*sigma*sqrt(1-rho^2)."""
    b = max(b, 1e-9)
    a = max(a, -b * sigma * math.sqrt(omega(rho)) + 1e-12)
    return SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma)


def _quasi_explicit_guess(k: np.ndarray, w_mid: np.ndarray, weights: np.ndarray) -> SviParams:
    """Coarse smile fit by scanning (m, sigma) and solving the inner
    linear problem in (a, b*rho, b) exactly.

    For fixed shift and curvature scale the smile is linear in the other
    three parameters.  As {1, k - m} spans {1, k} for every m, the whole
    grid is one projection: a point's cost is that of fitting its column
    sqrt((k-m)^2 + sigma^2) to the data once the weighted {1, k} is
    projected out of both.  The first minimum wins, never a point whose
    projected column is zero or not finite.  The output may violate the
    free-domain conditions; the caller projects it into the box.
    """
    span = float(k[-1] - k[0])
    ms = np.linspace(k[0] - span, k[-1] + span, 41)
    sigmas = np.geomspace(5e-3, 3.0, 25)
    q, _ = np.linalg.qr(np.column_stack([weights, k * weights]))
    y = w_mid * weights - q @ (q.T @ (w_mid * weights))
    dk = k - ms[:, None, None]
    z = (np.sqrt(dk * dk + (sigmas * sigmas)[:, None]) * weights).reshape(-1, k.size)
    z -= (z @ q) @ q.T
    zz = np.einsum("ij,ij->i", z, z)
    resid = y - (z @ y / zz)[:, None] * z  # keeps its digits at costs near 0
    cost = np.einsum("ij,ij->i", resid, resid)
    cost[~(np.isfinite(zz) & (zz > 0.0) & np.isfinite(cost))] = np.inf
    i, j = divmod(int(np.argmin(cost)), sigmas.size)
    m, sigma = float(ms[i]), float(sigmas[j])
    dk = k - m
    cols = np.column_stack([np.ones_like(k), dk, np.sqrt(dk * dk + sigma * sigma)])
    sol, *_ = np.linalg.lstsq(cols * weights[:, None], w_mid * weights, rcond=None)
    a, c, d = (float(v) for v in sol)
    return _floored(a, d, min(max(c / max(d, 1e-9), -1.0 + _EDGE), 1.0 - _EDGE), m, sigma)


def _natural_polish(
    k: np.ndarray, w_mid: np.ndarray, weights: np.ndarray, guess: SviParams
) -> SviParams:
    """Refine the coarse guess by unconstrained-smile least squares.

    The raw parameter space has none of the box chart's warping, so a few
    dozen cheap iterations on the exact raw-SVI Jacobian land on the
    natural optimum; the result may sit outside the free domain and is only
    ever used after projection.
    """
    span = float(k[-1] - k[0])
    w_scale = float(np.max(w_mid))
    lo = np.array([-10.0 * w_scale, 0.0, -1.0 + _EDGE, float(k[0]) - 2.0 * span, 1e-4])
    hi = np.array([10.0 * w_scale, 4.0, 1.0 - _EDGE, float(k[-1]) + 2.0 * span, 10.0])
    x0 = np.clip([guess.a, guess.b, guess.rho, guess.m, guess.sigma], lo, hi)

    def residuals(x: np.ndarray) -> np.ndarray:
        return (svi_raw(k, *x) - w_mid) * weights

    def jacobian(x: np.ndarray) -> np.ndarray:
        return svi_raw_jacobian(k, weights, *x[1:])

    x = dogbox(residuals, jacobian, x0, lo, hi, 1e-14, 400).x
    return _floored(*(float(c) for c in x))


def calibrate(slice_: MarketSlice, config: CalibrationConfig | None = None) -> CalibrationResult:
    """Fit an arbitrage-free smile to one maturity of total variances.

    Draws ``n_starts`` uniform box starts plus one deterministic
    quasi-explicit start, polishes each with one bounded least-squares
    call (dogbox) on the (optionally vega-weighted) total-variance
    residuals, and keeps the lowest cost.  The quasi-explicit start runs
    first, then the uniform ones in index order; once a start's cost is at
    or below the rounding floor 0.5*n*(16*eps*max|weights*w_mid|)^2 the
    data is one smile to rounding, and the remaining starts are recorded as
    not run.  Each later start is watched by the stall rule (_StallWatch,
    dogbox's ``stop`` callback): after 50 evaluations it is stopped once
    its cost sits more than 1e3 times above the best cost so far and its
    recent progress cannot close that gap within 1,000 evaluations.  The
    rule extrapolates: a start that idles on a plateau and then drops is
    protected only by the 1e3 ratio, and one idling further above the best
    cost so far is stopped even if it would have gone on to win.  Starts
    that exhaust their evaluation budget, stall or fail still report their
    best evaluated point and compete with it; starts that fail before their
    first evaluation or are not run are discarded, and NoConvergedStart is
    raised if none survive.  ``starts`` is ordered by index, with the
    quasi-explicit start last; each records its ``nfev``, its ``njev`` and
    why it stopped.  The winner is its chart point's image, Free in floats
    (BoxChart.image); NumericFailure is raised should its check fail.
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

    v_max = sigma_upper_bound(slice_)
    u_max = config.alpha_cap + 2.0
    lower = np.array([-1.0 + _EDGE, _EDGE, _EDGE, -1.0 + _EDGE, 0.0])
    upper = np.array([1.0 - _EDGE, 1.0 - _EDGE, u_max, 1.0 - _EDGE, v_max])

    pipeline = BoxChart(config.alpha_cap)
    objective = _Objective(slice_, weights, pipeline)

    rng = np.random.default_rng(config.seed)
    x0s = list(rng.uniform(lower, upper, size=(config.n_starts, 5)))
    try:
        guess = _quasi_explicit_guess(k, w_mid, weights)
        guess = _natural_polish(k, w_mid, weights, guess)
        objective.last = pipeline.project(guess, lower, upper)
        x0s.append(np.array(objective.last.x))
    except ButterfreeError:
        pass  # the uniform starts still run

    # A cost at or below this floor leaves every residual within a few ulps
    # of the largest weighted variance: the data is one smile to rounding,
    # and no later start can improve on it by more than rounding.
    scale = float(np.max(np.abs(weights * w_mid)))
    floor = 0.5 * len(slice_) * (_FLOOR_ULPS * _EPS * scale) ** 2
    starts: list[StartResult] = []
    # each start's chart point at its lowest-cost evaluation
    points: dict[int, ChartPoint | None] = {}
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
        watch = _StallWatch(best_cost, _MAX_EVALS)
        objective.njev, error = 0, None
        try:
            x, cost, stop, _, _ = dogbox(
                objective.residuals, objective.jacobian, x0s[i], lower, upper, _EPS, _MAX_EVALS,
                stop=lambda c: watch.stalled(float(c), objective.last),
            )
        except ButterfreeError as exc:
            stop, error = "failed", str(exc)
        if stop == "stopped":
            stop = "stalled"
        if stop in ("stalled", "failed"):
            # the start's best evaluated point, if it has one
            x = None if watch.best_at is None else watch.best_at.x
            cost = watch.best_cost
        starts.append(StartResult(
            i, x0, None if x is None else tuple(x), float(cost), watch.nfev, stop, error,
            objective.njev,
        ))
        points[i] = watch.best_at
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

    # the winner's lowest-cost evaluation is its end point, unless the
    # solver then set a coordinate onto a bound it had reached
    point = points[best.index]
    if point.x != best.x:
        point = pipeline.point(best.x)
    diagnostic = check_no_arbitrage(pipeline.image(point))
    if not diagnostic.is_free:
        raise NumericFailure(
            f"calibrated smile failed the free-domain certificate: "
            f"{diagnostic.status.value}"
        )
    box = box_from_diagnostic(diagnostic)
    rel = float(np.linalg.norm(svi(diagnostic.params, k) - w_mid) / np.linalg.norm(w_mid))
    return CalibrationResult(
        params=diagnostic.params,
        box=box,
        cost=best.cost,
        rel_error_fro=rel,
        diagnostic=diagnostic,
        starts=tuple(starts),
        wall_time=time.perf_counter() - t_begin,
    )


class LsqResult(NamedTuple):
    """Where a dogbox run ended: the point x, its cost 0.5*||r||^2, why it
    ended ("converged" when a tolerance was met, "budget" when the
    evaluation budget ran out, "stopped" when ``stop`` answered true), and
    the residual and Jacobian evaluations made."""

    x: np.ndarray
    cost: float
    converged: str
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
    stop: Callable[[float], bool] | None = None,
) -> LsqResult:
    """Bound-constrained nonlinear least squares by the rectangular
    trust-region dogleg of Voglis & Lagaris (2004).

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
    without a new evaluation.  After each residual evaluation, the
    start's included, ``stop`` (if given) is called with that evaluation's
    0.5*||r||^2; when it answers true the run ends there, at the last
    accepted point.  Every residual evaluation stays inside [lower, upper].
    Returns an LsqResult.  Raises InfeasibleStart for x0 outside the bounds
    and NumericFailure for non-finite residuals at x0.
    """
    lstsq, norm = np.linalg.lstsq, np.linalg.norm
    x = np.array(x0, dtype=float)
    lb = np.asarray(lower, dtype=float)
    ub = np.asarray(upper, dtype=float)
    if np.any(x < lb) or np.any(x > ub):
        raise InfeasibleStart(f"start point {x.tolist()} violates bounds")
    f = residuals(x.copy())
    cost = 0.5 * np.dot(f, f)
    if stop is not None and stop(cost):
        return LsqResult(x, float(cost), "stopped", 1, 0)
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
                if stop is not None and stop(0.5 * np.dot(f_at, f_at)):
                    return LsqResult(x, float(cost), "stopped", nfev, njev)
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
    return LsqResult(x, float(cost), "converged" if converged else "budget", nfev, njev)


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
