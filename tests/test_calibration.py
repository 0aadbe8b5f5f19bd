"""Box-coordinate calibration: slices, config, the solver and determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest

import butterfree.calibration as calibration_module
from butterfree.calibration import (
    CalibrationConfig,
    MarketSlice,
    _Objective,
    calibrate,
    sigma_upper_bound,
    vega_weights,
)
from butterfree.domain import BoxChart, box_to_params
from butterfree.fukasawa import fukasawa_threshold
from butterfree.errors import (
    InfeasibleStart,
    InsufficientData,
    InvalidInput,
    NoConvergedStart,
)
from butterfree.numerics import least_squares_bounded
from butterfree.svi import SviParams, svi
from conftest import MODEL_GRID, MODEL_ROWS, VOGT, model_slice, params_vector

#: Cheap but reliable config for module-level tests; the informed start is
#: appended on top of the uniform ones, so even one draw is a 2-start run.
FAST = CalibrationConfig(n_starts=2, seed=0)


class TestMarketSlice:
    def test_accepts_model_slice(self):
        s = model_slice(MODEL_ROWS[0])
        assert len(s) == len(MODEL_GRID)

    def test_rejects_unsorted_k(self):
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([0.0, -0.1, 0.1]), w_mid=np.ones(3))

    def test_rejects_duplicate_k(self):
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([-0.1, 0.0, 0.0]), w_mid=np.ones(3))

    def test_rejects_non_positive_w(self):
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([-0.1, 0.0, 0.1]), w_mid=np.array([0.1, 0.0, 0.1]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([-0.1, 0.0, 0.1]), w_mid=np.ones(2))
        with pytest.raises(InvalidInput):
            MarketSlice(
                k=np.array([-0.1, 0.0, 0.1]), w_mid=np.ones(3), w_bid=np.ones(2)
            )

    def test_rejects_crossed_bid(self):
        with pytest.raises(InvalidInput):
            MarketSlice(
                k=np.array([-0.1, 0.0, 0.1]),
                w_mid=np.full(3, 0.04),
                w_bid=np.array([0.03, 0.05, 0.03]),
            )

    def test_nan_sides_are_fine(self):
        s = MarketSlice(
            k=np.array([-0.1, 0.0, 0.1]),
            w_mid=np.full(3, 0.04),
            w_bid=np.array([0.03, math.nan, 0.03]),
            w_ask=np.array([math.nan, 0.05, 0.05]),
        )
        assert len(s) == 3

    def test_rejects_bad_metadata(self):
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([0.0, 0.1]), w_mid=np.ones(2), t=-1.0)
        with pytest.raises(InvalidInput):
            MarketSlice(k=np.array([0.0, 0.1]), w_mid=np.ones(2), forward=0.0)


class TestConfig:
    def test_defaults(self):
        c = CalibrationConfig()
        assert c.n_starts == 8
        assert c.seed == 0
        assert not c.vega_weighted

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidInput):
            CalibrationConfig(n_starts=0)
        with pytest.raises(InvalidInput):
            CalibrationConfig(r=0.0)
        with pytest.raises(InvalidInput):
            CalibrationConfig(alpha_cap=-1.0)


class TestSigmaUpperBound:
    def test_strike_span_rule(self):
        s = MarketSlice(k=np.array([-0.5, 0.0, 0.4]), w_mid=np.full(3, 0.04))
        assert sigma_upper_bound(s, 2.0, 0.1) == pytest.approx(5.0)
        assert sigma_upper_bound(s, 0.0, 0.1) == pytest.approx(5.0)

    def test_floor_rule_dominates(self):
        s = MarketSlice(k=np.array([-0.1, 0.0, 0.1]), w_mid=np.full(3, 0.04))
        assert sigma_upper_bound(s, 0.0, 0.1) == pytest.approx(1.0)
        assert sigma_upper_bound(s, 10.0, 0.1) == pytest.approx(15.0)

    def test_rejects_bad_r(self):
        s = MarketSlice(k=np.array([-0.1, 0.1]), w_mid=np.full(2, 0.04))
        with pytest.raises(InvalidInput):
            sigma_upper_bound(s, 1.0, 0.0)


class TestVegaWeights:
    def test_decay_away_from_the_money(self):
        s = MarketSlice(k=MODEL_GRID, w_mid=np.full(len(MODEL_GRID), 0.04))
        w = vega_weights(s)
        assert w.shape == (len(MODEL_GRID),)
        i_atm = int(np.argmin(np.abs(MODEL_GRID)))
        assert int(np.argmax(w)) in (i_atm, i_atm + 1)
        assert w[0] < w[i_atm] and w[-1] < w[i_atm]
        assert np.all(w > 0.0)


class TestCalibrate:
    def test_needs_five_strikes(self):
        s = MarketSlice(k=np.array([-0.2, -0.1, 0.0, 0.1]), w_mid=np.full(4, 0.04))
        with pytest.raises(InsufficientData):
            calibrate(s, FAST)

    def test_recovers_exact_data(self):
        truth = MODEL_ROWS[2]
        result = calibrate(model_slice(truth), FAST)
        assert result.diagnostic.is_free
        assert result.rel_error_fro < 1e-8
        got = params_vector(result.params)
        want = params_vector(truth)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_result_is_consistent(self):
        result = calibrate(model_slice(MODEL_ROWS[2]), FAST)
        rebuilt = box_to_params(result.box)
        assert rebuilt.a == pytest.approx(result.params.a, abs=1e-9)
        assert rebuilt.sigma == pytest.approx(result.params.sigma, abs=1e-9)
        assert result.wall_time > 0.0
        # one informed start is appended to the uniform draws
        assert len(result.starts) == FAST.n_starts + 1
        assert min(s.cost for s in result.starts) == result.cost

    def test_deterministic_under_seed(self):
        s = model_slice(MODEL_ROWS[0])
        first = calibrate(s, FAST)
        second = calibrate(s, FAST)
        assert params_vector(first.params).tolist() == params_vector(second.params).tolist()
        assert first.cost == second.cost

    def test_seed_changes_starts_not_quality(self):
        s = model_slice(MODEL_ROWS[2])
        a = calibrate(s, CalibrationConfig(n_starts=2, seed=1))
        b = calibrate(s, CalibrationConfig(n_starts=2, seed=2))
        assert a.starts[0].x0 != b.starts[0].x0
        assert a.rel_error_fro < 1e-6 and b.rel_error_fro < 1e-6

    def test_refits_own_output(self):
        first = calibrate(model_slice(MODEL_ROWS[1]), FAST)
        second = calibrate(model_slice(first.params), FAST)
        got = params_vector(second.params)
        want = params_vector(first.params)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6

    def test_vega_weighting_still_fits_exact_data(self):
        truth = MODEL_ROWS[2]
        cfg = CalibrationConfig(n_starts=2, seed=0, vega_weighted=True)
        result = calibrate(model_slice(truth), cfg)
        assert result.rel_error_fro < 1e-7

    def test_alpha_cap_binds_and_releases(self):
        # row 4 has alpha = a/sigma = 2.8; the default cap of 1 cannot
        # express it, a cap of 3 can
        truth = MODEL_ROWS[4]
        s = model_slice(truth)
        capped = calibrate(s, CalibrationConfig(n_starts=1, seed=0, alpha_cap=1.0))
        released = calibrate(s, CalibrationConfig(n_starts=1, seed=0, alpha_cap=3.0))
        assert released.rel_error_fro < 1e-7
        assert capped.rel_error_fro > 1e-4
        assert capped.params.a / capped.params.sigma <= 1.0 + 1e-9

    def test_noisy_data_still_certified(self):
        truth = MODEL_ROWS[0]
        rng = np.random.default_rng(5)
        w = np.asarray(svi(truth, MODEL_GRID)) * (1.0 + 0.002 * rng.standard_normal(len(MODEL_GRID)))
        s = MarketSlice(k=MODEL_GRID.copy(), w_mid=w)
        result = calibrate(s, FAST)
        assert result.diagnostic.is_free
        assert result.rel_error_fro < 0.01

    def test_no_converged_start(self, monkeypatch):
        def always_fails(*args, **kwargs):
            raise InfeasibleStart("forced failure")

        monkeypatch.setattr(
            calibration_module, "least_squares_bounded", always_fails
        )
        with pytest.raises(NoConvergedStart):
            calibrate(model_slice(MODEL_ROWS[2]), FAST)


class TestRoundingFloor:
    """The informed start runs first; once a start fits the data to
    rounding, the remaining starts are recorded as not run."""

    def test_exact_row_stops_after_the_informed_start(self):
        s = model_slice(MODEL_ROWS[2])
        config = CalibrationConfig()
        n = config.n_starts
        result = calibrate(s, config)
        assert [st.index for st in result.starts] == list(range(n + 1))

        floor = 0.5 * len(s) * (16.0 * np.finfo(float).eps * np.max(s.w_mid)) ** 2
        informed = result.starts[n]
        assert informed.x is not None
        assert informed.cost <= floor
        for st in result.starts[:n]:
            assert st.x is None
            assert st.cost == math.inf
            assert st.converged is False
            assert st.error == f"not run: start {n} reached the rounding floor"

        # the uniform starts are still drawn, and recorded, as before
        lower = np.array([-1.0 + 1e-6, 1e-6, 1e-6, -1.0 + 1e-6, 0.0])
        upper = np.array([
            1.0 - 1e-6, 1.0, config.alpha_cap + 2.0, 1.0 - 1e-6,
            sigma_upper_bound(s, 0.0, config.r),
        ])
        x0s = np.random.default_rng(config.seed).uniform(lower, upper, (n, 5))
        assert [st.x0 for st in result.starts[:n]] == [tuple(x0) for x0 in x0s]

        assert calibrate(s, config).starts == result.starts

    def test_noisy_data_runs_every_start(self):
        truth = MODEL_ROWS[0]
        rng = np.random.default_rng(5)
        w = np.asarray(svi(truth, MODEL_GRID)) * (1.0 + 0.002 * rng.standard_normal(len(MODEL_GRID)))
        result = calibrate(MarketSlice(k=MODEL_GRID.copy(), w_mid=w), FAST)
        assert len(result.starts) == FAST.n_starts + 1
        assert all(st.x is not None for st in result.starts)


def noisy_slice() -> MarketSlice:
    """Row 0 on the model grid with 0.2% multiplicative noise (rng 5)."""
    rng = np.random.default_rng(5)
    w = np.asarray(svi(MODEL_ROWS[0], MODEL_GRID)) * (1.0 + 0.002 * rng.standard_normal(len(MODEL_GRID)))
    return MarketSlice(k=MODEL_GRID.copy(), w_mid=w)


def stops_at(trail, best: float, max_evals: int = 1000):
    """The evaluation at which the stall rule stops a start whose cost at
    each evaluation follows ``trail``, or None."""
    costs = iter(trail)
    watch = calibration_module._StallWatch(
        lambda x: np.array([math.sqrt(2.0 * next(costs))]), best, max_evals
    )
    for n in range(1, len(trail) + 1):
        try:
            watch(np.zeros(1))
        except calibration_module._Stalled:
            return n
    return None


def criterion_4_winner_trail() -> list[float]:
    """The cost trail of criterion 4's winner (random start 3): down to
    1.61e-3 by evaluation 50, 2.5% lower over evaluations 50-100, then
    down to the winning cost by evaluation 200."""
    trail = [1e-1 * (1.61e-3 / 1e-1) ** (n / 50) for n in range(1, 51)]
    trail += [1.61e-3 * (1.57e-3 / 1.61e-3) ** (n / 50) for n in range(1, 51)]
    trail += [1.57e-3 * (6.46e-6 / 1.57e-3) ** (n / 100) for n in range(1, 101)]
    return trail + [6.46e-6] * 800


class TestStallRule:
    """A start is stopped after evaluation n > 50 when its best cost is
    more than 1e3 times the best of the earlier starts and its rate over
    the last 50 evaluations cannot close that gap within its budget."""

    def test_flat_plateau_far_above_stops_after_one_window(self):
        assert stops_at([1e7] * 1000, 1.0) == 51

    def test_slow_eventual_winner_is_not_stopped(self):
        # criterion 4's winner idles at 18x the informed start's cost
        assert stops_at(criterion_4_winner_trail(), 1.61e-3 / 18.0) is None

    def test_only_the_ratio_protects_a_plateau_then_drop_winner(self):
        # The same trail with its plateau (1.61e-3 to 1.57e-3) just under
        # and just over 1e3x the best: its rate over the plateau never
        # closes the gap within the budget, so the ratio alone decides.
        # Changing _STALL_RATIO or _STALL_WINDOW moves this line.
        trail = criterion_4_winner_trail()
        assert stops_at(trail, 1.61e-3 / 1e3 * 1.01) is None
        assert stops_at(trail, 1.57e-3 / 1e3 / 1.01) is not None

    def test_creep_far_above_stops(self):
        # 1e4x the best, losing 10% per 100 evaluations
        trail = [1e4 * 0.9 ** (n / 100) for n in range(1, 1001)]
        assert stops_at(trail, 1.0) == 51

    def test_fast_descent_far_above_is_not_stopped(self):
        # 1e6x the best but halving every 10 evaluations: it gets there
        trail = [1e6 * 0.5 ** (n / 10) for n in range(1, 1001)]
        assert stops_at(trail, 1.0) is None

    def test_budget_sets_the_horizon(self):
        # 1e4x the best, losing 20% per 50 evaluations: it needs about
        # 2,060 evaluations to get there
        trail = [1e4 * 0.8 ** (n / 50) for n in range(1, 3001)]
        assert stops_at(trail, 1.0, max_evals=1000) == 51
        assert stops_at(trail, 1.0, max_evals=3000) is None

    def test_infinite_best_never_stops(self):
        assert stops_at([1e300] * 1000, math.inf) is None

    def test_stalled_start_keeps_its_best_evaluated_point(self, monkeypatch):
        seen = []
        residuals = _Objective.residuals

        def recorded(objective, x):
            r = residuals(objective, x)
            seen.append((0.5 * float(np.dot(r, r)), tuple(x)))
            return r

        monkeypatch.setattr(_Objective, "residuals", recorded)
        result = calibrate(noisy_slice(), FAST)
        # run order: the informed start, then random starts 0 and 1
        informed, first = result.starts[FAST.n_starts], result.starts[0]
        assert first.stop == "stalled"
        trail = seen[informed.nfev:informed.nfev + first.nfev]
        assert len(trail) == first.nfev > 50
        best_cost, best_x = min(trail, key=lambda s: s[0])
        assert first.cost == best_cost
        assert first.x == best_x
        # calibrate's box
        v_max = sigma_upper_bound(noisy_slice(), 0.0, FAST.r)
        lower = [-1.0 + 1e-6, 1e-6, 1e-6, -1.0 + 1e-6, 0.0]
        upper = [1.0 - 1e-6, 1.0, FAST.alpha_cap + 2.0, 1.0 - 1e-6, v_max]
        assert all(lo <= c <= hi for lo, c, hi in zip(lower, first.x, upper))

    def test_watch_that_never_fires_changes_nothing(self):
        def residuals(x):
            return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

        args = ([-1.2, 1.0], [-2.0, -2.0], [0.5, 2.0])
        watch = calibration_module._StallWatch(residuals, math.inf, 1000)
        x, cost, converged = least_squares_bounded(residuals, *args)
        x2, cost2, converged2 = least_squares_bounded(watch, *args)
        assert x.tolist() == x2.tolist()
        assert cost == cost2 and converged == converged2
        assert watch.best_cost == pytest.approx(cost2, abs=1e-30)

    def test_noisy_random_starts_stall(self):
        result = calibrate(noisy_slice(), FAST)
        informed = result.starts[FAST.n_starts]
        assert informed.stop == "converged" and informed.converged
        random = result.starts[:FAST.n_starts]
        assert [st.stop for st in random] == ["stalled"] * FAST.n_starts
        for st in random:
            # a stalled start keeps its best point and cost
            assert st.x is not None and not st.converged
            assert st.cost > 1e3 * informed.cost
            assert st.error is None
        assert sum(st.nfev for st in random) <= 200
        assert calibrate(noisy_slice(), FAST).starts == result.starts

    def test_criterion_4_winner_is_a_random_start(self):
        # the informed start loses here; the winner, random start 3, sits
        # 18x above it for a while and must not be stopped
        result = calibrate(model_slice(VOGT), CalibrationConfig(alpha_cap=1.0))
        best = min((st for st in result.starts if st.x is not None), key=lambda st: st.cost)
        assert best.index == 3
        assert result.cost == pytest.approx(6.456533129911123e-06, rel=1e-12)
        assert {st.stop for st in result.starts} <= {"converged", "budget", "stalled"}


def chart_objective(alpha_cap: float = 1.0) -> _Objective:
    """Unweighted residuals of a criterion-3 slice over calibrate's box."""
    s = model_slice(MODEL_ROWS[0])
    lower = np.array([-1.0 + 1e-6, 1e-6, 1e-6, -1.0 + 1e-6, 0.0])
    upper = np.array([1.0 - 1e-6, 1.0, alpha_cap + 2.0, 1.0 - 1e-6, 10.0])
    return _Objective(s, np.ones(len(s)), BoxChart(alpha_cap), lower, upper)


def quotient(objective: _Objective, x: np.ndarray, j: int, h: float, central: bool):
    """Central or one-sided (step h, either sign) difference quotient of
    the residuals along box coordinate j."""
    ahead, behind = x.copy(), x.copy()
    ahead[j] += h
    if central:
        behind[j] -= h
    return (objective.residuals(ahead) - objective.residuals(behind)) / (ahead[j] - behind[j])


def column_error(got: np.ndarray, want: np.ndarray) -> float:
    """Distance between two Jacobian columns relative to the reference."""
    scale = np.linalg.norm(want)
    diff = np.linalg.norm(got - want)
    return diff / scale if scale > 0.0 else diff


def jacobian_at(objective: _Objective, x: np.ndarray):
    """The solver's order: residuals at x, then the Jacobian reusing them."""
    objective.residuals(x)
    jac = objective.jacobian(x)
    kinks = objective.pipeline.partials(objective.pipeline.point(x))[1]
    return jac, kinks


class TestJacobian:
    def test_matches_central_differences(self):
        # criterion 5's ranges; with the default cap of 1 about half of the
        # points have the alpha cap binding
        objective = chart_objective()
        rng = np.random.default_rng(2024)
        capped = 0
        for _ in range(200):
            x = np.array([
                rng.uniform(-0.95, 0.95), rng.uniform(0.05, 1.0),
                rng.uniform(1e-3, 3.0), rng.uniform(-0.95, 0.95),
                rng.uniform(0.0, 2.0),
            ])
            jac, kinks = jacobian_at(objective, x)
            assert not kinks, x
            capped += objective.pipeline.point(x).u_eff < x[2]
            for j in range(5):
                want = quotient(objective, x, j, 1e-5, central=True)
                assert column_error(jac[:, j], want) <= 1e-6, (x.tolist(), j)
        assert 20 <= capped <= 180

    def test_rho_zero_kink(self):
        objective = chart_objective()
        x = np.array([0.0, 0.6, 0.5, 0.2, 0.3])
        jac, kinks = jacobian_at(objective, x)
        assert kinks == {0}
        ahead = quotient(objective, x, 0, 1e-7, central=False)
        behind = quotient(objective, x, 0, -1e-7, central=False)
        # a genuine kink: the two one-sided slopes differ
        assert column_error(behind, ahead) > 1e-3
        assert column_error(jac[:, 0], ahead) <= 1e-5
        for j in range(1, 5):
            want = quotient(objective, x, j, 1e-5, central=True)
            assert column_error(jac[:, j], want) <= 1e-6

    def test_cap_kink(self):
        # u exactly at the cap's room alpha_cap - F
        objective = chart_objective(alpha_cap=1.0)
        rho, b_prime = -0.4, 0.7
        threshold = fukasawa_threshold(b_prime * 2.0 / (1.0 + abs(rho)), rho)
        x = np.array([rho, b_prime, 1.0 - threshold, 0.1, 0.4])
        jac, kinks = jacobian_at(objective, x)
        assert {0, 1, 2} <= kinks
        assert objective.pipeline.point(x).alpha == pytest.approx(1.0, abs=1e-15)
        for j in sorted(kinks):
            want = quotient(objective, x, j, 1e-7, central=False)
            assert column_error(jac[:, j], want) <= 1e-5, j
        # past the cap the margin no longer moves the smile
        assert np.all(quotient(objective, x, 2, 1e-3, central=False) == 0.0)

    def test_v_on_its_lower_bound(self):
        objective = chart_objective()
        x = np.array([0.3, 0.5, 0.8, -0.3, 0.0])
        jac, kinks = jacobian_at(objective, x)
        assert not kinks
        # v cannot step below zero, so its column is checked one-sided
        want = quotient(objective, x, 4, 1e-7, central=False)
        assert column_error(jac[:, 4], want) <= 1e-6
        for j in range(4):
            want = quotient(objective, x, j, 1e-5, central=True)
            assert column_error(jac[:, j], want) <= 1e-6

    def test_wing_limit_kink(self):
        # b' = 1 puts the steeper wing slope exactly at 2; the box ends there
        objective = chart_objective()
        x = np.array([0.35, 1.0, 0.6, 0.1, 0.5])
        jac, kinks = jacobian_at(objective, x)
        assert {0, 1} <= kinks
        # The chart goes like sqrt(1 - b') there, so the one-sided slope
        # grows without bound as the step shrinks: the fallback column is
        # the quotient at its own step sqrt(eps), taken downward.
        step = float(np.finfo(float).eps) ** 0.5
        want = quotient(objective, x, 1, -step, central=False)
        assert column_error(jac[:, 1], want) <= 1e-9
        coarse = quotient(objective, x, 1, -100.0 * step, central=False)
        assert np.linalg.norm(want) > 5.0 * np.linalg.norm(coarse)

    def test_tail_tie_kink(self):
        # rho = 0 and q = 0 make the smile symmetric, so both tail maxima tie
        objective = chart_objective()
        x = np.array([0.0, 0.6, 0.5, 0.0, 0.3])
        jac, kinks = jacobian_at(objective, x)
        assert kinks == {0, 1, 2, 3}
        for j in sorted(kinks):
            want = quotient(objective, x, j, 1e-7, central=False)
            assert column_error(jac[:, j], want) <= 1e-5, j
