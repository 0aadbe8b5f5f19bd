"""Bracket certification and expansion, safeguarded Newton root finding,
bounded least squares."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from butterfree.errors import (
    ButterfreeError,
    DomainError,
    InfeasibleStart,
    InvalidInput,
    MaxIterations,
    NoBracketFound,
    NoSignChange,
)
from butterfree.calibration import dogbox
from butterfree.numerics import (
    Bracket,
    expand_bracket,
    newton_root,
    require_real,
    walk_root,
    walk_secant,
)


class TestBracket:
    def test_requires_sign_change(self):
        with pytest.raises(NoSignChange):
            Bracket(0.0, 1.0, 1.0, 2.0)

    def test_requires_order(self):
        with pytest.raises(NoSignChange):
            Bracket(1.0, 0.0, -1.0, 1.0)

    def test_requires_finite_values(self):
        with pytest.raises(NoSignChange):
            Bracket(0.0, 1.0, -1.0, math.inf)


class TestExpandBracket:
    def test_walks_right(self):
        _, _, br = expand_bracket(lambda x: x - 10.0, 0.0, 1.0)
        assert br.lo <= 10.0 <= br.hi

    def test_walks_left(self):
        _, _, br = expand_bracket(lambda x: x + 4.0, 0.0, -1.0)
        assert br.lo <= -4.0 <= br.hi

    def test_no_root_exhausts_budget(self):
        # 1 + x^2 leaves the floats before x does, which ends the walk too
        with pytest.raises(NoBracketFound):
            expand_bracket(lambda x: 1.0 + x * x, 0.0, 1.0)

    def test_returns_the_inner_probe_and_f_there(self):
        # probes 0, 1, 3, 7, 15: the sign changes between 7 and 15
        x, out, br = expand_bracket(lambda x: (x - 10.0, 1.0), 0.0, 1.0)
        assert (x, out) == (7.0, (-3.0, 1.0))
        assert (br.lo, br.hi, br.f_lo, br.f_hi) == (7.0, 15.0, -3.0, 5.0)

    def test_exact_zero_at_a_probe_is_the_root(self):
        seen = []

        def f(x):
            seen.append(x)
            return x - 3.0

        assert expand_bracket(f, 0.0, 1.0) == (3.0, 0.0, None)
        assert seen == [0.0, 1.0, 3.0]

    def test_exact_zero_at_the_start_is_the_root(self):
        assert expand_bracket(lambda x: (x + 2.0, 1.0), -2.0, -1.0) == (-2.0, (0.0, 1.0), None)

    @pytest.mark.parametrize("step", [0.0, -0.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_step_that_is_zero_or_not_finite(self, step):
        with pytest.raises(DomainError):
            expand_bracket(lambda x: x, 1.0, step)

    def test_walk_that_leaves_the_floats_raises_no_bracket_found(self):
        seen = []

        def f(x):
            seen.append(x)
            return 1.0

        with pytest.raises(NoBracketFound) as info:
            expand_bracket(f, 0.0, 1.0)
        assert not isinstance(info.value, DomainError)
        # probes 2^k - 1 up to 2^1023; the next, 2^1024, is not a float
        assert len(seen) == 1024 and seen[-1] == 2.0**1023

    def test_step_from_start_probes_its_doublings_bit_for_bit(self):
        root = -0.8538107395591117
        seen = []

        def f(x):
            seen.append(x)
            return x + 1e30

        x, _, br = expand_bracket(f, root, root)
        assert seen == [root * 2.0**k for k in range(len(seen))]
        assert (br.hi, br.lo) == (x, seen[-1])

    def test_sign_change_between_tiny_values_is_seen(self):
        # the product of the two ends underflows to -0.0
        _, _, br = expand_bracket(lambda x: 1e-200 * (x - 5.0), 0.0, 1.0)
        assert (br.lo, br.hi) == (3.0, 7.0)

    @given(
        root=st.floats(-50.0, 50.0),
        scale=st.floats(0.05, 20.0),
        start_off=st.floats(0.5, 30.0),
    )
    def test_bracket_invariants_on_monotone_functions(self, root, scale, start_off):
        f = lambda x: scale * (x - root)
        x, _, br = expand_bracket(f, root - start_off, 1.0)
        if br is None:
            assert x == root
            return
        assert br.lo < br.hi
        assert br.f_lo * br.f_hi < 0.0
        assert br.lo <= root <= br.hi


class TestWalkSecant:
    def test_secant_point_of_the_walked_bracket(self):
        # x^3 - 10 walked from 0 by 1, 2, 4: bracket [1, 3], f -9 and 17
        bracket, x = walk_secant(lambda x: x ** 3 - 10.0, 0.0, 1.0)
        assert (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi) == (1.0, 3.0, -9.0, 17.0)
        assert x == 1.0 + 9.0 * 2.0 / 26.0

    def test_exact_zero_at_a_probe_is_the_root(self):
        assert walk_secant(lambda x: (x - 3.0, 1.0), 0.0, 1.0) == (None, 3.0)
        assert walk_root(lambda x: (x - 3.0, 1.0), 0.0, 1.0) == 3.0

    def test_walk_root_solves_from_the_secant_point(self):
        seen = []

        def f(x):
            seen.append(x)
            return x ** 3 - 10.0, 3.0 * x * x

        root = walk_root(f, 0.0, 1.0)
        assert root == pytest.approx(10.0 ** (1.0 / 3.0), rel=1e-15)
        # the probes 0, 1, 3, then Newton from the secant point
        assert seen[:4] == [0.0, 1.0, 3.0, 1.0 + 9.0 * 2.0 / 26.0]


class TestNewtonRoot:
    @staticmethod
    def recorded(f):
        """f with its derivative, recording every point it is asked for."""
        seen = []

        def fd(x):
            seen.append(x)
            return f(x)

        return fd, seen

    def test_quadratic(self):
        f, seen = self.recorded(lambda x: (x * x - 4.0, 2.0 * x))
        root = newton_root(f, Bracket(0.0, 3.0, -4.0, 5.0), 3.0)
        assert root == pytest.approx(2.0, abs=1e-15)
        # quadratic convergence from the midpoint
        assert len(seen) <= 6

    def test_stays_in_bracket(self):
        # tanh flattens out, so plain Newton from 1.2 would jump far left
        f, seen = self.recorded(lambda x: (math.tanh(x - 0.3), 1.0 - math.tanh(x - 0.3) ** 2))
        br = Bracket(-2.0, 5.0, math.tanh(-2.3), math.tanh(4.7))
        root = newton_root(f, br, 4.9)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert all(br.lo < x < br.hi for x in seen)

    def test_bisects_when_the_derivative_misleads(self):
        # a derivative a hundred times too small sends every Newton step
        # out of the bracket, so each step is a bisection
        f, seen = self.recorded(lambda x: (x - 1.0, 0.01))
        root = newton_root(f, Bracket(0.0, 4.0, -1.0, 3.0), 3.0)
        assert root == pytest.approx(1.0, abs=1e-8)
        assert seen[:4] == [3.0, 1.5, 0.75, 1.125]

    def test_start_outside_is_replaced_by_midpoint(self):
        f, seen = self.recorded(lambda x: (x - 1.0, 1.0))
        assert newton_root(f, Bracket(0.0, 4.0, -1.0, 3.0), 7.0) == 1.0
        assert seen[0] == 2.0

    def test_decreasing_function(self):
        f = lambda x: (math.cos(x) - x, -math.sin(x) - 1.0)
        root = newton_root(f, Bracket(0.0, 1.0, 1.0, math.cos(1.0) - 1.0), 0.5)
        assert root == pytest.approx(0.7390851332151607, abs=1e-15)

    def test_subnormal_derivative_bisects(self):
        # the value is about 1e-225 over a bracket near 1e100, so the true
        # derivative, -1e-325, is below the smallest subnormal and reads as
        # -5e-324: Newton would move 1/50 of the way a step and run out of
        # budget.  A subnormal derivative has no digits, so each step bisects
        f, seen = self.recorded(lambda x: ((1.7 - x / 1e100) * 1e-225, -5e-324))
        root = newton_root(f, Bracket(1e100, 4e100, 0.7e-225, -2.3e-225), 3e100)
        assert root == pytest.approx(1.7e100, rel=1e-12)
        assert seen[:3] == [3e100, 2e100, 1.5000000000000001e100]

    def test_budget_exhaustion_raises(self):
        # a derivative far too large makes Newton creep: each step moves
        # about 2e-6, so the budget runs out long before the root
        with pytest.raises(MaxIterations):
            newton_root(lambda x: (x - 1.0, 1e6), Bracket(0.0, 4.0, -1.0, 3.0), 3.0)

    def test_bisection_budget_exhaustion_raises(self):
        # every Newton step leaves the bracket, so each step is a bisection,
        # and 200 halvings cannot narrow a bracket 1e60 wide to the root
        with pytest.raises(MaxIterations):
            newton_root(lambda x: (x - 1.0, 0.01), Bracket(0.0, 1e60, -1.0, 1e60), 5e59)

    def test_hopping_is_bisected(self):
        # a jump of 1e-6 at the root, as rounding noise can make, and a
        # derivative a little over half the slope: every Newton step
        # overshoots to the other side, landing just inside the bracket,
        # so without bisection the bracket never narrows to the tolerance
        # and the budget runs out
        f, seen = self.recorded(
            lambda x: (x - 1.0 + math.copysign(1e-6, x - 1.0), 0.52)
        )
        root = newton_root(f, Bracket(0.0, 4.0, -1.0, 3.0), 1.5)
        assert root == pytest.approx(1.0, abs=1e-11)
        assert len(seen) <= 40

    def test_non_finite_value_raises(self):
        with pytest.raises(DomainError):
            newton_root(lambda x: (math.nan, 1.0), Bracket(0.0, 1.0, -1.0, 1.0), 0.5)


EPS = float(np.finfo(float).eps)


def identity_jacobian(x):
    return np.eye(len(x))


def rosenbrock(x):
    return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])


def rosenbrock_jacobian(x):
    return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])


class TestLeastSquaresBounded:
    def test_linear_residual(self):
        c = 3.7
        x, cost, converged, _, _ = dogbox(
            lambda x: x - c, identity_jacobian, [0.0], [-10.0], [10.0], EPS, 1000
        )
        assert x[0] == pytest.approx(c, abs=1e-10)
        assert cost == pytest.approx(0.0, abs=1e-18)
        assert converged == "converged"

    def test_active_bound(self):
        x, cost, *_ = dogbox(
            lambda x: x - 5.0, identity_jacobian, [0.5], [0.0], [1.0], EPS, 1000
        )
        assert x[0] == pytest.approx(1.0, abs=1e-12)
        assert cost == pytest.approx(0.5 * 16.0, rel=1e-10)

    def test_rosenbrock(self):
        x, cost, *_ = dogbox(
            rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0],
            EPS, 1000,
        )
        assert np.allclose(x, [1.0, 1.0], atol=1e-8)
        assert cost < 1e-16

    def test_callable_jacobian(self):
        seen = []

        def residuals(x):
            seen.append(x.copy())
            return rosenbrock(x)

        def jac(x):
            # away from the bounds the solver asks for the Jacobian only
            # where it has just evaluated the residuals
            assert np.array_equal(x, seen[-1])
            return rosenbrock_jacobian(x)

        x, cost, converged, _, _ = dogbox(
            residuals, jac, [-1.2, 1.0], [-2.0, -2.0], [2.0, 2.0], EPS, 1000
        )
        assert np.allclose(x, [1.0, 1.0], atol=1e-8)
        assert cost < 1e-16
        assert converged == "converged"

    def test_infeasible_start(self):
        with pytest.raises(InfeasibleStart):
            dogbox(lambda x: x, identity_jacobian, [2.0], [0.0], [1.0], EPS, 1000)

    def test_never_evaluates_outside_bounds(self):
        lower = np.array([-1.0, 0.0])
        upper = np.array([1.0, 2.0])
        seen = []

        def residuals(x):
            seen.append(x.copy())
            return np.array([x[0] - 0.3, x[1] - 1.4])

        def jac(x):
            seen.append(x.copy())
            return np.eye(2)

        dogbox(residuals, jac, [0.0, 1.0], lower, upper, EPS, 1000)
        for x in seen:
            assert np.all(x >= lower - 1e-15) and np.all(x <= upper + 1e-15)

    def test_budget_exhaustion_returns_best(self):
        def residuals(x):
            return np.array([math.tanh(x[0]) - 0.9, x[1] ** 3])

        def jac(x):
            return np.diag([1.0 - math.tanh(x[0]) ** 2, 3.0 * x[1] ** 2])

        x, cost, converged, _, _ = dogbox(
            residuals, jac, [0.0, 1.0], [-5.0, -5.0], [5.0, 5.0], EPS, 3
        )
        assert converged == "budget"
        assert np.isfinite(cost)


def bounded_problem(rng: np.random.Generator):
    """(residuals, jac, x0, lower, upper) of a seeded problem in 1-5
    unknowns: an exponential fit, an extended Rosenbrock valley or a sine
    fit whose residuals are inf or nan past x[0] = 1.  About a third of the
    start coordinates sit on a bound."""
    n = int(rng.integers(1, 6))
    m = n + int(rng.integers(0, 8))
    a = rng.standard_normal((m, n))
    c = rng.standard_normal(m)
    kind = int(rng.integers(3))
    if kind == 0:
        t = np.linspace(0.0, 2.0, m)[:, None]

        def residuals(x):
            return np.exp(-t * x * x).sum(axis=1) + a @ x - c

        def jac(x):
            return -2.0 * t * x * np.exp(-t * x * x) + a
    elif kind == 1:
        def residuals(x):
            return np.concatenate([a @ x - c, 10.0 * (x[1:] - x[:-1] ** 2)])

        def jac(x):
            valley = np.zeros((n - 1, n))
            valley[range(n - 1), range(1, n)] = 10.0
            valley[range(n - 1), range(n - 1)] = -20.0 * x[:-1]
            return np.vstack([a, valley])
    else:
        bad = rng.choice([math.inf, math.nan])

        def residuals(x):
            r = a @ np.sin(x) - c
            if x[0] > 1.0:
                r[0] = bad
            return r

        def jac(x):
            return a * np.cos(x)
    lower = -rng.uniform(0.1, 3.0, n)
    upper = rng.uniform(0.1, 3.0, n)
    x0 = rng.uniform(lower, upper)
    on = rng.random(n) < 0.3
    x0[on] = np.where(rng.random(n) < 0.5, lower, upper)[on]
    return residuals, jac, x0, lower, upper


class TestDogboxMatchesScipy:
    """dogbox is scipy's least_squares(method="dogbox") with an exact
    Jacobian, bit for bit: the same x, cost, evaluations and verdict."""

    def test_seeded_bounded_problems(self):
        from scipy.optimize import least_squares

        rng = np.random.default_rng(2018)
        seen = {"budget": 0, "start on a bound": 0, "non-finite trial": 0}
        for trial in range(300):
            residuals, jac, x0, lower, upper = bounded_problem(rng)
            tol = (EPS, 1e-14, 1e-8)[trial % 3]
            budget = int(rng.choice([3, 10, 50, 1000]))
            calls = {"f": 0, "j": 0}

            def f(x):
                calls["f"] += 1
                r = residuals(x)
                seen["non-finite trial"] += calls["f"] > 1 and not np.all(np.isfinite(r))
                return r

            def j(x):
                calls["j"] += 1
                return jac(x)

            if not np.all(np.isfinite(residuals(x0))):
                with pytest.raises(ButterfreeError, match="not finite at the start"):
                    dogbox(residuals, jac, x0, lower, upper, tol, budget)
                continue
            want = least_squares(f, x0, jac=j, bounds=(lower, upper), method="dogbox",
                                 ftol=tol, xtol=tol, gtol=tol, max_nfev=budget)
            got = dogbox(residuals, jac, x0, lower, upper, tol, budget)
            assert got.x.tobytes() == want.x.tobytes(), trial
            assert got.cost == want.cost, trial
            assert got.stop == ("converged" if want.status > 0 else "budget"), trial
            assert (got.nfev, got.njev) == (calls["f"], calls["j"]), trial
            seen["budget"] += want.status == 0
            seen["start on a bound"] += bool(np.any((x0 == lower) | (x0 == upper)))
        assert min(seen.values()) >= 5, seen

    def test_non_finite_residuals_at_the_start_raise(self):
        with pytest.raises(ButterfreeError, match="not finite at the start"):
            dogbox(lambda x: np.array([math.nan]), identity_jacobian,
                   [0.5], [0.0], [1.0], EPS, 100)

    def test_stop_sees_each_evaluation(self):
        seen, asked = [], []

        def residuals(x):
            seen.append(0.5 * float(np.dot(rosenbrock(x), rosenbrock(x))))
            return rosenbrock(x)

        def stop(cost):
            asked.append(cost)
            return False

        result = dogbox(residuals, rosenbrock_jacobian, [-1.2, 1.0], [-2.0, -2.0],
                        [2.0, 2.0], EPS, 1000, stop)
        assert asked == seen
        assert result.nfev == len(seen)
        # a stop that never answers true changes nothing
        plain = dogbox(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], [-2.0, -2.0],
                       [2.0, 2.0], EPS, 1000)
        assert result.x.tobytes() == plain.x.tobytes()
        assert result[1:] == plain[1:]

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_stop_ends_the_run(self, n):
        asked = []

        def stop(cost):
            asked.append(cost)
            return len(asked) == n

        result = dogbox(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], [-2.0, -2.0],
                        [2.0, 2.0], EPS, 1000, stop)
        assert len(asked) == result.nfev == n
        assert result.stop == "stopped"
        # the run ends at its last accepted point, never above the start
        assert result.cost <= asked[0]


class TestRequireReal:
    def test_accepts_a_finite_number_at_the_least(self):
        require_real("t", 0.0, 0.0)
        require_real("t", 10**300, 0.0)

    @pytest.mark.parametrize("value", [True, "1", math.nan, math.inf, -1.0])
    def test_refuses_bad_values(self, value):
        with pytest.raises(InvalidInput, match="t must be a finite number"):
            require_real("t", value, 0.0)

    def test_strict_refuses_the_least(self):
        with pytest.raises(InvalidInput, match="> 0.0"):
            require_real("t", 0.0, 0.0, strict=True)

    def test_integer_too_long_to_print(self):
        # Python will not turn an integer of over 4,300 digits into a string,
        # so the message must not repr it
        with pytest.raises(InvalidInput, match="t must be .* too large for a float"):
            require_real("t", 10**5000, 0.0)
