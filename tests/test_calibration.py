"""Box-coordinate calibration: slices, config, the solver and determinism."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import butterfree.calibration as calibration_module
from butterfree.arrays import durrleman_g, svi
from butterfree.calibration import (
    CalibrationConfig,
    MarketSlice,
    _Objective,
    calibrate,
    dogbox,
    sigma_upper_bound,
    vega_weights,
)
from butterfree.domain import BoxChart, Status, box_to_params, params_to_box
from butterfree.fukasawa import fukasawa_threshold
from butterfree.errors import (
    DomainError,
    InfeasibleStart,
    InsufficientData,
    InvalidInput,
    NoConvergedStart,
    NumericFailure,
)
from butterfree.smile import SviParams
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
            CalibrationConfig(alpha_cap=-1.0)


class TestSigmaUpperBound:
    def test_strike_span_rule(self):
        s = MarketSlice(k=np.array([-0.5, 0.0, 0.4]), w_mid=np.full(3, 0.04))
        assert sigma_upper_bound(s) == pytest.approx(5.0)


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

    def test_certificate_runs_the_waterfall_once(self, monkeypatch):
        import butterfree.domain as domain_module

        calls = []
        check = domain_module.check_no_arbitrage

        def counted(params):
            calls.append(params)
            return check(params)

        monkeypatch.setattr(domain_module, "check_no_arbitrage", counted)
        monkeypatch.setattr(calibration_module, "check_no_arbitrage", counted)
        result = calibrate(model_slice(MODEL_ROWS[2]), FAST)
        assert calls == [result.params]
        assert result.box == params_to_box(result.params)

    def test_winner_on_the_floor_certifies_in_one_run(self, monkeypatch):
        # exact data from a box point with v = 0: the winner's point lands
        # on its floor, where (alpha*sigma, mu*sigma) alone came back
        # Failure4; its image is Free on the one waterfall run
        x = (-0.09804701224547985, 0.3993145912055063, 0.3300942573560835,
             -0.5638410662339465, 0.0)
        k = np.linspace(-0.8, 0.8, 17)
        s = MarketSlice(k=k, w_mid=svi(SviParams(*BoxChart(5.0).point(x).raw), k))
        check = calibration_module.check_no_arbitrage
        verdicts = []

        def counted(params):
            verdicts.append(check(params))
            return verdicts[-1]

        monkeypatch.setattr(calibration_module, "check_no_arbitrage", counted)
        result = calibrate(s, CalibrationConfig(alpha_cap=5.0, n_starts=2, seed=0))
        assert [d.status for d in verdicts] == [Status.FREE]
        assert result.diagnostic is verdicts[0]
        assert result.params is verdicts[0].params
        p = result.params
        l = np.geomspace(1e-6, 1e4, 2000)
        ks = p.sigma * np.concatenate([-l[::-1], l]) + p.m
        assert float(np.min(durrleman_g(p, ks))) >= -1e-10

    def test_no_converged_start(self, monkeypatch):
        def always_fails(*args, **kwargs):
            raise InfeasibleStart("forced failure")

        monkeypatch.setattr(calibration_module, "dogbox", always_fails)
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
            1.0 - 1e-6, 1.0 - 1e-6, config.alpha_cap + 2.0, 1.0 - 1e-6,
            sigma_upper_bound(s),
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
    watch = calibration_module._StallWatch(best, max_evals)
    for n, cost in enumerate(trail, 1):
        if watch.stalled(cost):
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
        v_max = sigma_upper_bound(noisy_slice())
        lower = [-1.0 + 1e-6, 1e-6, 1e-6, -1.0 + 1e-6, 0.0]
        upper = [1.0 - 1e-6, 1.0 - 1e-6, FAST.alpha_cap + 2.0, 1.0 - 1e-6, v_max]
        assert all(lo <= c <= hi for lo, c, hi in zip(lower, first.x, upper))

    def test_failed_start_keeps_its_best_evaluated_point(self, monkeypatch):
        # with no informed start, random start 0 runs alone; it raises at
        # its 60th evaluation, and its best point before that is the fit
        def no_guess(*args):
            raise NumericFailure("no informed start")

        seen, jacobians = [], []
        residuals, jacobian = _Objective.residuals, _Objective.jacobian

        def failing(objective, x):
            if len(seen) == 59:
                raise NumericFailure("forced failure at evaluation 60")
            r = residuals(objective, x)
            seen.append((0.5 * float(np.dot(r, r)), tuple(x)))
            return r

        def counted(objective, x):
            jacobians.append(tuple(x))
            return jacobian(objective, x)

        monkeypatch.setattr(calibration_module, "_quasi_explicit_guess", no_guess)
        monkeypatch.setattr(_Objective, "residuals", failing)
        monkeypatch.setattr(_Objective, "jacobian", counted)
        result = calibrate(noisy_slice(), CalibrationConfig(n_starts=1, seed=0))
        (start,) = result.starts
        assert start.stop == "failed" and not start.converged
        assert start.error == "forced failure at evaluation 60"
        assert start.nfev == len(seen) == 59
        # the Jacobian taken after the last evaluation counts too
        assert start.njev == len(jacobians) >= 1
        best_cost, best_x = min(seen, key=lambda s: s[0])
        assert start.cost == best_cost == result.cost
        assert start.x == best_x
        assert result.diagnostic.is_free

    def test_watch_that_never_fires_changes_nothing(self):
        def residuals(x):
            return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

        def jac(x):
            return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])

        eps = calibration_module._EPS
        args = (residuals, jac, [-1.2, 1.0], [-2.0, -2.0], [0.5, 2.0], eps, 1000)
        x, cost, converged, _, _ = dogbox(*args)
        watch = calibration_module._StallWatch(math.inf, 1000)
        result = dogbox(*args, stop=watch.stalled)
        assert x.tolist() == result.x.tolist()
        assert cost == result.cost and converged == result.converged
        assert watch.nfev == result.nfev
        assert watch.best_cost == pytest.approx(result.cost, abs=1e-30)

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
        # the informed start loses here.  Random start 3 sits 18x above it
        # for a while before dropping to the best minimum, and must not be
        # stopped; start 6 reaches the same minimum, and which of the two
        # wins is a rounding tie
        config = CalibrationConfig(alpha_cap=1.0)
        result = calibrate(model_slice(VOGT), config)
        best = min((st for st in result.starts if st.x is not None), key=lambda st: st.cost)
        assert best.index < config.n_starts
        assert result.starts[3].stop == "converged"
        assert result.starts[3].cost == pytest.approx(result.cost, rel=1e-12)
        assert result.cost == pytest.approx(6.456533129911123e-06, rel=1e-12)
        assert {st.stop for st in result.starts} <= {"converged", "budget", "stalled"}


def chart_objective(alpha_cap: float = 1.0) -> _Objective:
    """Unweighted residuals of a criterion-3 slice over the chart."""
    s = model_slice(MODEL_ROWS[0])
    return _Objective(s, np.ones(len(s)), BoxChart(alpha_cap))


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


def jacobian_at(objective: _Objective, x: np.ndarray) -> np.ndarray:
    """The solver's order: residuals at x, then the Jacobian, which must
    reuse that chart point and evaluate no other."""
    objective.residuals(x)
    chart = objective.pipeline
    calls = []
    point = chart.point
    chart.point = lambda y: calls.append(y) or point(y)
    try:
        jac = objective.jacobian(x)
    finally:
        del chart.point
    assert calls == [], x
    return jac


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
            jac = jacobian_at(objective, x)
            capped += objective.pipeline.point(x).u_eff < x[2]
            for j in range(5):
                want = quotient(objective, x, j, 1e-5, central=True)
                assert column_error(jac[:, j], want) <= 1e-6, (x.tolist(), j)
        assert 20 <= capped <= 180

    def test_rho_zero_kink(self):
        objective = chart_objective()
        x = np.array([0.0, 0.6, 0.5, 0.2, 0.3])
        jac = jacobian_at(objective, x)
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
        jac = jacobian_at(objective, x)
        assert objective.pipeline.point(x).alpha == pytest.approx(1.0, abs=1e-15)
        for j in range(3):
            want = quotient(objective, x, j, 1e-7, central=False)
            assert column_error(jac[:, j], want) <= 1e-5, j
        # past the cap the margin no longer moves the smile
        assert np.all(quotient(objective, x, 2, 1e-3, central=False) == 0.0)
        assert np.all(jac[:, 2] == 0.0)

    def test_v_on_its_lower_bound(self):
        objective = chart_objective()
        x = np.array([0.3, 0.5, 0.8, -0.3, 0.0])
        jac = jacobian_at(objective, x)
        # v cannot step below zero, so its column is checked one-sided
        want = quotient(objective, x, 4, 1e-7, central=False)
        assert column_error(jac[:, 4], want) <= 1e-6
        for j in range(4):
            want = quotient(objective, x, j, 1e-5, central=True)
            assert column_error(jac[:, j], want) <= 1e-6

    def test_infinite_floor_gives_infinite_residuals(self):
        # at this corner of calibrate's box G1 rounds to zero on a tail, so
        # the floor is +inf and the point has no smile: the residuals are
        # +inf, which dogbox rejects like any non-finite trial, with no
        # inf - inf on the way, and the chart has no partials there
        objective = chart_objective()
        x = np.array([0.06497735129832838, 0.999999, 1e-06, 0.999999, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            residuals = objective.residuals(x)
        assert np.all(residuals == math.inf)
        with pytest.raises(DomainError):
            objective.partials(objective.point(x))

    def test_wing_limit_kink(self):
        # b' = 1 puts the steeper wing slope exactly at 2, a face that
        # calibrate's box stops short of
        objective = chart_objective()
        x = np.array([0.35, 1.0, 0.6, 0.1, 0.5])
        with pytest.raises(DomainError):
            objective.partials(objective.pipeline.point(x))
        # The chart goes like sqrt(1 - b') there, so the one-sided slope
        # grows without bound as the step shrinks: no column is finite.
        step = float(np.finfo(float).eps) ** 0.5
        fine = quotient(objective, x, 1, -step, central=False)
        coarse = quotient(objective, x, 1, -100.0 * step, central=False)
        assert np.linalg.norm(fine) > 5.0 * np.linalg.norm(coarse)

    def test_next_to_the_wing_limit(self):
        # On calibrate's face b' = 1 - 1e-6 the b' column is still exact,
        # though the chart curves like sqrt(1 - b') there.  The reference
        # extrapolates backward quotients at steps 4e-9 and 2e-9, which
        # cancels their first-order error of about 2.5e5 times the step.
        objective = chart_objective()
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = np.array([
                rng.uniform(-0.95, 0.95), 1.0 - 1e-6, rng.uniform(1e-3, 3.0),
                rng.uniform(-0.95, 0.95), rng.uniform(0.0, 2.0),
            ])
            jac = jacobian_at(objective, x)
            want = (
                2.0 * quotient(objective, x, 1, -2e-9, central=False)
                - quotient(objective, x, 1, -4e-9, central=False)
            )
            assert column_error(jac[:, 1], want) <= 1e-4, x.tolist()

    def test_tail_tie_kink(self):
        # rho = 0 and q = 0 make the smile symmetric, so both tail maxima tie
        objective = chart_objective()
        x = np.array([0.0, 0.6, 0.5, 0.0, 0.3])
        tails = objective.pipeline.point(x).tails
        assert abs(tails[0][0] - tails[1][0]) <= 1e-10 * max(tails)[0]
        jac = jacobian_at(objective, x)
        for j in range(4):
            want = quotient(objective, x, j, 1e-7, central=False)
            assert column_error(jac[:, j], want) <= 1e-5, j

    def test_polish_jacobian_matches_central_differences(self, monkeypatch):
        calls = []

        def record(*args):
            calls.append(args)
            return dogbox(*args)

        monkeypatch.setattr(calibration_module, "dogbox", record)
        s = noisy_slice()
        weights = vega_weights(s)
        guess = calibration_module._quasi_explicit_guess(s.k, s.w_mid, weights)
        calibration_module._natural_polish(s.k, s.w_mid, weights, guess)
        ((residuals, jac, x0, lower, upper, _, _),) = calls
        rng = np.random.default_rng(11)
        for x in [x0, *rng.uniform(lower, upper, size=(50, 5))]:
            # keep sigma off its tiny lower bound, where the columns are steep
            x[4] = max(x[4], 0.05)
            got = jac(x)
            for j in range(5):
                h = 1e-6 * max(1.0, abs(x[j]))
                ahead, behind = x.copy(), x.copy()
                ahead[j] += h
                behind[j] -= h
                want = (residuals(ahead) - residuals(behind)) / (2.0 * h)
                assert column_error(got[:, j], want) <= 1e-7, (x.tolist(), j)

    def test_every_solve_gets_an_exact_jacobian(self, monkeypatch):
        jacs = []

        def record(residuals, jac, *args, **kwargs):
            jacs.append(jac)
            return dogbox(residuals, jac, *args, **kwargs)

        monkeypatch.setattr(calibration_module, "dogbox", record)
        result = calibrate(noisy_slice(), FAST)
        ran = [st for st in result.starts if st.stop != "not run"]
        # the polish, then one solve per start that ran
        assert len(jacs) == 1 + len(ran) >= 3
        assert all(callable(jac) for jac in jacs)

    def test_njev_counts_each_starts_jacobian_calls(self, monkeypatch):
        # starts run one after another, the informed one first, and each
        # begins with a residual evaluation: a start's calls are its nfev
        # residual evaluations and the Jacobian calls up to the next one
        calls = []
        residuals, jacobian = _Objective.residuals, _Objective.jacobian

        def counted(name, fn):
            return lambda objective, x: calls.append(name) or fn(objective, x)

        monkeypatch.setattr(_Objective, "residuals", counted("r", residuals))
        monkeypatch.setattr(_Objective, "jacobian", counted("j", jacobian))
        result = calibrate(noisy_slice(), CalibrationConfig(n_starts=4, seed=0))
        ran = sorted((st for st in result.starts if st.stop != "not run"),
                     key=lambda st: (st.index != 4, st.index))
        assert {st.stop for st in ran} >= {"converged", "stalled"}
        pos = 0
        for st in ran:
            seen = {"r": 0, "j": 0}
            while pos < len(calls) and (calls[pos] == "j" or seen["r"] < st.nfev):
                seen[calls[pos]] += 1
                pos += 1
            assert seen == {"r": st.nfev, "j": st.njev}
            assert st.njev >= 1
        assert pos == len(calls)


def loop_guess(k: np.ndarray, w_mid: np.ndarray, weights: np.ndarray):
    """The grid scan of _quasi_explicit_guess as one lstsq per (m, sigma)
    point, first minimum winning: the reference the batched scan must
    match.  Returns the guess and every point's cost."""
    span = float(k[-1] - k[0])
    best = None
    costs = {}
    for m in np.linspace(k[0] - span, k[-1] + span, 41):
        dk = k - m
        for sigma in np.geomspace(5e-3, 3.0, 25):
            cols = np.column_stack(
                [np.ones_like(k), dk, np.sqrt(dk * dk + sigma * sigma)]
            )
            sol, *_ = np.linalg.lstsq(cols * weights[:, None], w_mid * weights, rcond=None)
            resid = cols @ sol - w_mid
            cost = float(np.dot(resid * weights, resid * weights))
            costs[float(m), float(sigma)] = cost
            if best is None or cost < best[0]:
                best = (cost, float(m), float(sigma), sol)
    _, m, sigma, (a, c, d) = best
    b = max(float(d), 1e-9)
    rho = min(max(float(c) / b, -1.0 + 1e-6), 1.0 - 1e-6)
    a = max(float(a), -b * sigma * math.sqrt(1.0 - rho * rho) + 1e-12)
    return SviParams(a=a, b=b, rho=rho, m=m, sigma=sigma), costs


def bits(p: SviParams) -> list[str]:
    return [float(c).hex() for c in params_vector(p)]


class TestQuasiExplicitGuess:
    @pytest.mark.parametrize("slice_, weighted", [
        *(pytest.param(model_slice(row), False, id=f"criterion 3 row {i}")
          for i, row in enumerate(MODEL_ROWS)),
        pytest.param(model_slice(VOGT), False, id="criterion 4"),
        pytest.param(noisy_slice(), True, id="noisy, vega-weighted"),
    ])
    def test_matches_the_loop_bit_for_bit(self, slice_, weighted):
        weights = vega_weights(slice_) if weighted else np.ones(len(slice_))
        want, _ = loop_guess(slice_.k, slice_.w_mid, weights)
        got = calibration_module._quasi_explicit_guess(slice_.k, slice_.w_mid, weights)
        assert bits(got) == bits(want)

    def test_narrow_spans_pick_a_grid_minimum_to_rounding(self):
        # at spans near 1e-4 two grid points can tie to rounding, so only
        # the chosen point's cost is checked, against calibrate's floor
        rng = np.random.default_rng(12)
        eps = np.finfo(float).eps
        for _ in range(12):
            n = int(rng.integers(5, 21))
            k = np.sort(rng.uniform(-1e-4, 1e-4, n))
            truth = SviParams(
                a=rng.uniform(0.01, 0.1), b=rng.uniform(0.05, 0.5),
                rho=rng.uniform(-0.9, 0.9), m=rng.uniform(-0.2, 0.2),
                sigma=rng.uniform(0.05, 0.5),
            )
            w = np.asarray(svi(truth, k))
            weights = np.ones(n)
            _, costs = loop_guess(k, w, weights)
            got = calibration_module._quasi_explicit_guess(k, w, weights)
            floor = n * (16.0 * eps * float(np.max(w))) ** 2
            assert costs[got.m, got.sigma] <= min(costs.values()) + floor

    def test_one_lstsq_per_guess(self, monkeypatch):
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(
            calibration_module.np.linalg, "lstsq", lambda *a, **kw: calls.append(1) or lstsq(*a, **kw)
        )
        s = model_slice(MODEL_ROWS[2])
        calibration_module._quasi_explicit_guess(s.k, s.w_mid, np.ones(len(s)))
        assert len(calls) == 1

    def test_non_finite_grid_points_never_win(self, monkeypatch):
        # argmin would return a NaN cost's index; such points cost inf
        s = model_slice(MODEL_ROWS[2])
        args = (s.k, s.w_mid, np.ones(len(s)))
        want = calibration_module._quasi_explicit_guess(*args)
        geomspace = np.geomspace

        def with_bad_points(*a, **kw):
            sigmas = geomspace(*a, **kw)
            sigmas[:2] = [math.nan, math.inf]
            return sigmas

        monkeypatch.setattr(calibration_module.np, "geomspace", with_bad_points)
        with np.errstate(invalid="ignore"):
            got = calibration_module._quasi_explicit_guess(*args)
        assert math.isfinite(got.sigma)
        assert bits(got) == bits(want)
