"""Admissible-shift intervals, their one-sided optima and the alpha threshold."""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from butterfree import fukasawa
from butterfree.domain import (
    BoxCoords,
    Status,
    _threshold_partials,
    box_to_params,
    check_no_arbitrage,
)
from butterfree.errors import (
    ButterfreeError,
    DomainError,
    FukasawaViolated,
    NoBracketFound,
    NoFiniteOptimum,
    NumericFailure,
)
from butterfree.fukasawa import (
    _LEVEL_EDGE,
    L_minus,
    L_plus,
    MuInterval,
    _anchor,
    _g_pm_slope,
    bound_partials,
    fukasawa_threshold,
    g_pm,
    l_pm_of_alpha,
    l_star,
    mu_interval,
    threshold_with_optimizers,
)
from butterfree.smile import SviParams, n_funcs
from conftest import VOGT
from reference import (
    Normalized,
    bounds_50_digits,
    g_split,
    gap_50_digits,
    threshold_50_digits,
    threshold_rho0_closed_form,
)

#: Vogt alpha/b/rho in normalized coordinates; the running example.
V_ALPHA = VOGT.a / VOGT.sigma
V_B = VOGT.b
V_RHO = VOGT.rho


class TestLStar:
    def test_symmetric_smile(self):
        assert l_star(0.0) == 0.0

    def test_known_value(self):
        # rho = 0.6: -0.6/0.8 = -0.75 exactly
        assert l_star(0.6) == pytest.approx(-0.75, abs=1e-15)

    @given(rho=st.floats(-0.99, 0.99))
    def test_slope_vanishes_there(self, rho):
        _, n1, _, _ = n_funcs(0.3, 1.1, rho, l_star(rho))
        assert n1 == pytest.approx(0.0, abs=1e-14)

    def test_rejects_boundary_rho(self):
        with pytest.raises(DomainError):
            l_star(1.0)
        with pytest.raises(DomainError):
            l_star(-1.0)


class TestShiftBounds:
    @given(
        alpha=st.floats(-0.2, 1.0),
        b=st.floats(0.05, 1.9),
        rho=st.floats(-0.9, 0.9),
        d=st.floats(1e-3, 10.0),
    )
    def test_reflection_symmetry(self, alpha, b, rho, d):
        # L_minus(l; rho) = -L_plus(-l; -rho) with l = l_star - d
        l = l_star(rho) - d
        left = L_minus(l, alpha, b, rho)
        right = L_plus(-l, alpha, b, -rho)
        assert left == pytest.approx(-right, abs=1e-12, rel=1e-10)

    def test_saturated_left_wing_limit(self):
        # b*(1-rho) = 2: far out on the left L_minus flattens to -alpha/2
        alpha, b, rho = 0.3, 1.6, -0.25
        assert b * (1.0 - rho) == 2.0
        assert L_minus(-1e8, alpha, b, rho) == pytest.approx(-alpha / 2.0, abs=1e-6)

    def test_negative_for_non_negative_alpha(self):
        # with alpha >= 0 the left bound factor stays below zero, which is
        # why those smiles always admit the unshifted mu = 0
        for alpha, b, rho in [(0.0, 0.5, -0.3), (0.3, 1.0, 0.2), (1.5, 0.3, 0.0)]:
            ls = l_star(rho)
            for d in np.geomspace(1e-6, 50, 30):
                assert L_minus(float(ls - d), alpha, b, rho) < 0.0

    def test_blows_down_at_vertex(self):
        # 1/N' drives L_minus to -inf approaching the vertex from the left
        ls = l_star(0.2)
        assert L_minus(ls - 1e-9, 0.1, 0.9, 0.2) < -1e6

    def test_half_line_enforcement(self):
        ls = l_star(0.3)
        with pytest.raises(DomainError):
            L_minus(ls + 0.1, 0.1, 0.5, 0.3)
        with pytest.raises(DomainError):
            L_plus(ls - 0.1, 0.1, 0.5, 0.3)
        with pytest.raises(DomainError):
            L_minus(ls, 0.1, 0.5, 0.3)

    def test_boundary_rho_sides(self):
        # at rho = -1 the right half-line is empty and the left is everything
        with pytest.raises(DomainError):
            L_plus(5.0, 0.1, 0.5, -1.0)
        L_minus(5.0, 0.1, 0.5, -1.0)
        with pytest.raises(DomainError):
            L_minus(-5.0, 0.1, 0.5, 1.0)
        L_plus(-5.0, 0.1, 0.5, 1.0)


class TestGPm:
    def test_vertex_value(self):
        # both branches meet the vertex at level -sqrt(1-rho^2)
        for rho in (-0.7, -0.1, 0.0, 0.4):
            ls = l_star(rho)
            want = -math.sqrt(1.0 - rho * rho)
            assert g_pm(0.8, rho, ls, "-") == pytest.approx(want, abs=1e-13)
            assert g_pm(0.8, rho, ls, "+") == pytest.approx(want, abs=1e-13)

    @given(
        b=st.floats(0.05, 1.95),
        rho=st.floats(-0.95, 0.95),
        l=st.floats(-8.0, 8.0),
    )
    def test_reflection_symmetry(self, b, rho, l):
        assert g_pm(b, rho, l, "+") == pytest.approx(
            g_pm(b, -rho, -l, "-"), abs=1e-12, rel=1e-10
        )

    def test_symmetric_axis_reduced_form(self):
        # rho = 0 collapses to (l^2/4)*(2*sqrt(l^2+1) + b*l) - sqrt(l^2+1)
        for b in (0.3, 1.0, 1.8):
            for l in (-3.0, -1.0, -0.2, 0.5, 2.0):
                r = math.sqrt(l * l + 1.0)
                want = (l * l / 4.0) * (2.0 * r + b * l) - r
                assert g_pm(b, 0.0, l, "-") == pytest.approx(want, abs=1e-14)

    def test_known_value(self):
        # b=1, rho=0, l=-1: (1/4)*(2*sqrt(2) - 1) - sqrt(2)
        want = 0.25 * (2.0 * math.sqrt(2.0) - 1.0) - math.sqrt(2.0)
        assert g_pm(1.0, 0.0, -1.0, "-") == want
        assert want == pytest.approx(-0.9571067811865476, abs=1e-16)

    @given(
        b=st.floats(0.05, 1.95),
        rho=st.floats(-0.95, 0.95),
        d=st.floats(1e-3, 8.0),
    )
    @settings(max_examples=150)
    def test_matches_implicit_form(self, b, rho, d):
        # same function written through N', N'': the route the critical
        # point equation is usually stated in
        def implicit(l: float, side: str) -> float:
            _, n1, n2, _ = n_funcs(0.0, b, rho, l)
            sign = 1.0 if side == "-" else -1.0
            term = n1 * n1 / (2.0 * n2) * (1.0 + sign * n1 / 2.0)
            return (term - n2 * (l * l + 1.0) - l * n1) / b

        ls = l_star(rho)
        for l, side in ((ls - d, "-"), (ls + d, "+")):
            assert g_pm(b, rho, l, side) == pytest.approx(
                implicit(l, side), abs=1e-11, rel=1e-9
            )

    def test_rejects_bad_side(self):
        with pytest.raises(DomainError):
            g_pm(1.0, 0.0, 0.5, "x")

    @given(
        b=st.floats(0.05, 1.95),
        rho=st.floats(-0.95, 0.95),
        l=st.floats(-8.0, 8.0),
    )
    def test_slope_matches_central_differences(self, b, rho, l):
        step = 1e-5 * max(1.0, abs(l))
        for side in "-+":
            want = (g_pm(b, rho, l + step, side) - g_pm(b, rho, l - step, side)) / (2 * step)
            assert _g_pm_slope(b, rho, l, side)[1] == pytest.approx(
                want, abs=1e-6, rel=1e-6
            )

    def test_flat_to_second_order_at_the_vertex(self):
        # g_pm' and g_pm'' vanish at l_star, so on a monotone side
        # g_pm + sqrt(1-rho^2) grows like (l - l_star)^3: the threshold
        # steps such a side on its cube root, whose slope does not vanish
        for rho in (-0.6, 0.0, 0.3):
            ls = l_star(rho)
            for side in "-+":
                assert _g_pm_slope(0.8, rho, ls, side)[1] == pytest.approx(0.0, abs=1e-14)
                step = 1e-4
                second = (
                    _g_pm_slope(0.8, rho, ls + step, side)[1]
                    - _g_pm_slope(0.8, rho, ls - step, side)[1]
                ) / (2 * step)
                assert second == pytest.approx(0.0, abs=1e-7)


class TestGShape:
    """The shape of g_pm on its half-line, as fukasawa._anchor reports it:
    monotone toward the vertex, or a single turn at m."""

    def test_turning_case(self):
        # rho = -1, b = 1/2: turn at -b/sqrt((2-2b)*2)
        m, power, _ = _anchor(0.5, -1.0, "-")
        assert power == 2
        assert m == pytest.approx(-0.5 / math.sqrt(2.0), abs=1e-14)

    def test_slope_limit_escapes(self):
        with pytest.raises(NoFiniteOptimum):
            _anchor(1.0, -1.0, "-")
        with pytest.raises(NoFiniteOptimum):
            _anchor(2.0, 0.0, "+")

    def test_mixed_sides(self):
        # b = 2/3, rho = 1/2: monotone toward the vertex on the left,
        # turning on the right with the dip below the vertex level
        b, rho = 2.0 / 3.0, 0.5
        anchor, power, base = _anchor(b, rho, "-")
        assert power == 3
        assert anchor == l_star(rho)
        assert base == pytest.approx(-math.sqrt(1.0 - rho * rho), abs=1e-15)
        m, power, base = _anchor(b, rho, "+")
        assert power == 2
        assert base == g_pm(b, rho, m, "+")
        want_m = b / math.sqrt((2.0 - b * (1.0 + rho)) * (2.0 + b * (1.0 - rho)))
        assert m == pytest.approx(want_m, abs=1e-14)
        assert g_pm(b, rho, m, "+") < -math.sqrt(1.0 - rho * rho)

    def test_rejects_empty_half_line(self):
        with pytest.raises(DomainError):
            _anchor(0.5, 1.0, "-")
        with pytest.raises(DomainError):
            _anchor(0.5, -1.0, "+")


class TestCriticalPoints:
    @given(
        alpha=st.floats(-0.05, 1.5),
        b=st.floats(0.1, 1.8),
        rho=st.floats(-0.85, 0.85),
    )
    @settings(max_examples=100)
    def test_solves_criticality_equation(self, alpha, b, rho):
        assume(b * (1.0 + abs(rho)) < 2.0 - 1e-9)
        assume(alpha > -b * math.sqrt(1.0 - rho * rho) + 1e-6)
        for side in ("-", "+"):
            l = l_pm_of_alpha(alpha, b, rho, side)
            assert g_pm(b, rho, l, side) == pytest.approx(
                alpha / b, abs=1e-10, rel=1e-8
            )

    def test_straddle_the_vertex(self):
        lm = l_pm_of_alpha(0.2, 0.9, -0.2, "-")
        lp = l_pm_of_alpha(0.2, 0.9, -0.2, "+")
        assert lm < l_star(-0.2) < lp

    @given(alpha=st.floats(-0.05, 1.0), b=st.floats(0.1, 1.8), rho=st.floats(-0.85, 0.85))
    @settings(max_examples=50)
    def test_reflection_symmetry(self, alpha, b, rho):
        assume(b * (1.0 + abs(rho)) < 2.0 - 1e-9)
        assume(alpha > -b * math.sqrt(1.0 - rho * rho) + 1e-6)
        lp = l_pm_of_alpha(alpha, b, rho, "+")
        lm = l_pm_of_alpha(alpha, b, -rho, "-")
        assert lp == pytest.approx(-lm, abs=1e-9, rel=1e-8)

    def test_spread_with_alpha(self):
        lms, lps = [], []
        for alpha in (0.0, 0.3, 0.8):
            lms.append(l_pm_of_alpha(alpha, 0.9, -0.2, "-"))
            lps.append(l_pm_of_alpha(alpha, 0.9, -0.2, "+"))
        assert lms[0] > lms[1] > lms[2]
        assert lps[0] < lps[1] < lps[2]

    def test_rejects_alpha_below_floor(self):
        floor = -0.9 * math.sqrt(1.0 - 0.04)
        with pytest.raises(DomainError):
            l_pm_of_alpha(floor - 1e-6, 0.9, -0.2, "-")

    def test_slope_limit_escapes(self):
        with pytest.raises(NoFiniteOptimum):
            l_pm_of_alpha(0.1, 1.0, -1.0, "-")

    def test_slope_over_the_limit_is_a_domain_error(self):
        # a wing slope of 3 is bad input, as in mu_interval, not a solve
        # that failed at its limit
        with pytest.raises(DomainError, match="exceeds the limit 2"):
            l_pm_of_alpha(0.1, 2.0, 0.5, "+")
        with pytest.raises(DomainError):
            _anchor(2.0, 0.5, "+")


INVALID_INPUT = [
    # unchecked, rho = 2 takes a square root of a negative number
    (l_pm_of_alpha, (0.0, 0.5, 2.0, "+")),
    # and alpha = nan walks until the floats run out
    (l_pm_of_alpha, (math.nan, 0.5, 0.3, "+")),
    (l_pm_of_alpha, (0.1, math.inf, 0.3, "-")),
    (l_pm_of_alpha, (0.1, 0.5, 0.3, "up")),
    # unchecked, these return nan, or a value for b < 0
    (g_pm, (0.5, 0.3, math.inf, "-")),
    (g_pm, (-0.5, 0.3, 0.1, "-")),
    (g_pm, (0.5, math.nan, 0.1, "+")),
    (L_minus, (-1.0, math.nan, 0.5, 0.3)),
    (L_plus, (1.0, 0.1, 0.0, 0.3)),
    (L_plus, (1.0, 0.1, 0.5, -1.5)),
    # unchecked, b = 0 reads as "N' rounds to 0"
    (bound_partials, (0.1, 0.1, 0.0, 0.3, "-")),
    (bound_partials, (0.1, 0.1, 0.5, 1.5, "+")),
    (bound_partials, (math.nan, 0.1, 0.5, 0.3, "+")),
]


@pytest.mark.parametrize(
    "func, args", INVALID_INPUT, ids=[f"{func.__name__}{args}" for func, args in INVALID_INPUT]
)
def test_public_entry_points_reject_invalid_input(func, args):
    # non-finite input, b <= 0, |rho| > 1 or an unknown side
    with pytest.raises(DomainError):
        func(*args)


class TestMuInterval:
    def test_running_example(self):
        iv = mu_interval(V_ALPHA, V_B, V_RHO)
        assert iv.lower == pytest.approx(-0.7240745419453567, abs=1e-12)
        assert iv.upper == pytest.approx(0.829386180708516, abs=1e-12)
        assert iv.lower == pytest.approx(-0.72407, abs=1e-4)
        assert iv.upper == pytest.approx(0.82939, abs=1e-4)
        # the fitted shift 0.86347 falls outside on the right
        assert not iv.contains(VOGT.m / VOGT.sigma)

    def test_one_sided_at_boundary_rho(self):
        iv = mu_interval(0.0, 0.5, -1.0)
        assert iv.upper == math.inf
        assert iv.lower == pytest.approx(-math.sqrt(1.5), abs=1e-12)
        mirrored = mu_interval(0.0, 0.5, 1.0)
        assert mirrored.lower == -math.inf
        assert mirrored.upper == pytest.approx(math.sqrt(1.5), abs=1e-12)

    def test_double_slope_limit(self):
        # both wings saturated: the interval is (-alpha/2, alpha/2)
        iv = mu_interval(0.5, 2.0, 0.0)
        assert iv.lower == pytest.approx(-0.25, abs=1e-15)
        assert iv.upper == pytest.approx(0.25, abs=1e-15)

    def test_contains_zero_for_non_negative_alpha(self):
        for alpha, b, rho in [(0.0, 0.5, -0.3), (0.4, 1.2, 0.5), (2.0, 0.1, 0.0)]:
            assert mu_interval(alpha, b, rho).contains(0.0)

    def test_empty_below_threshold(self):
        # floor < alpha < F(b, rho): both optima exist but cross over
        with pytest.raises(FukasawaViolated):
            mu_interval(-0.1267, V_B, V_RHO)

    def test_empty_within_rounding_of_the_floor(self):
        # alpha a hair above the floor and below F: the optimizer walk
        # sees no sign change, and the refusal is still the typed one
        alpha, b, rho = -1.0228837764812151e-11, 8.246624592017745e-07, -0.9999999999230745
        assert alpha <= fukasawa_threshold(b, rho)
        with pytest.raises(FukasawaViolated):
            mu_interval(alpha, b, rho)

    def test_empty_within_ulps_of_the_floor(self):
        # one ulp above the floor, and 4.7e-4 below F, the left optimizer
        # landed on the vertex, where N and N' have no digits, and the
        # interval read (-0.647, 0.398); a smile there raised
        # ZeroDivisionError in sigma_star had the waterfall gone on
        b, rho = 0.21200253006670902, 0.40354910527549626
        floor = -b * math.sqrt((1.0 - rho) * (1.0 + rho))
        assert floor + 8.0 * math.ulp(floor) < fukasawa_threshold(b, rho)
        for k in range(1, 9):
            with pytest.raises(FukasawaViolated):
                mu_interval(floor + k * math.ulp(floor), b, rho)
        p = SviParams(-1.1085565746546397, b, rho, -0.28847351855742853, 5.714992504065111)
        assert check_no_arbitrage(p).status is Status.FAILURE2

    @pytest.mark.parametrize("above_f, error", [
        (-1e-3, FukasawaViolated), (0.0, FukasawaViolated), (1e-3, NoBracketFound),
    ])
    def test_walk_without_a_sign_change(self, monkeypatch, above_f, error):
        # an optimizer's walk that finds no sign change is an empty
        # interval at or below F, and the solver's own error above it
        def no_bracket(*args):
            raise NoBracketFound("no sign change")

        monkeypatch.setattr(fukasawa, "_optimizer", no_bracket)
        with pytest.raises(error):
            mu_interval(fukasawa_threshold(V_B, V_RHO) + above_f, V_B, V_RHO)

    def test_raises_at_floor(self):
        floor = -V_B * math.sqrt(1.0 - V_RHO * V_RHO)
        with pytest.raises(FukasawaViolated):
            mu_interval(floor - 0.05, V_B, V_RHO)

    def test_rejects_over_limit_slopes(self):
        with pytest.raises(DomainError):
            mu_interval(0.1, 3.0, 0.0)
        with pytest.raises(DomainError):
            mu_interval(0.1, -0.5, 0.0)

    def test_width_grows_faster_than_alpha(self):
        # the gap has slope above one in alpha, which is what makes the
        # threshold root simple to bracket
        w1 = mu_interval(0.0, 0.9, -0.2).width()
        w2 = mu_interval(0.1, 0.9, -0.2).width()
        assert w2 - w1 > 0.1

    def test_factors_positive_inside_only(self):
        alpha, b, rho = 0.1, 0.8, -0.3
        iv = mu_interval(alpha, b, rho)
        grid = np.linspace(-60.0, 60.0, 2001)

        def factor_mins(mu: float) -> tuple[float, float]:
            norm = Normalized(alpha=alpha, b=b, rho=rho, mu=mu, sigma=1.0)
            splits = [g_split(norm, float(l)) for l in grid]
            return (
                min(s.g1_plus for s in splits),
                min(s.g1_minus for s in splits),
            )

        mid_p, mid_m = factor_mins(0.5 * (iv.lower + iv.upper))
        assert mid_p > 0.0 and mid_m > 0.0
        above_p, _ = factor_mins(iv.upper + 0.05)
        assert above_p < 0.0
        _, below_m = factor_mins(iv.lower - 0.05)
        assert below_m < 0.0


class TestThreshold:
    def test_running_example(self):
        f = fukasawa_threshold(V_B, V_RHO)
        assert f == pytest.approx(-0.12662927687043507, abs=1e-12)
        assert f == pytest.approx(-0.12663, abs=1e-4)
        # Vogt's alpha clears it, so the failure is the shift, not the level
        assert V_ALPHA > f

    def test_double_limit_is_zero(self):
        assert fukasawa_threshold(2.0, 0.0) == 0.0

    def test_boundary_rho_is_zero(self):
        assert fukasawa_threshold(0.7, 1.0) == 0.0
        assert fukasawa_threshold(0.7, -1.0) == 0.0
        with pytest.raises(DomainError):
            fukasawa_threshold(1.5, 1.0)

    def test_matches_closed_form_on_symmetric_axis(self):
        for b in np.arange(0.1, 2.0, 0.1):
            got = fukasawa_threshold(float(b), 0.0)
            want = threshold_rho0_closed_form(float(b))
            assert got == pytest.approx(want, abs=1e-8)
            assert got > -float(b)

    @given(b=st.floats(0.05, 1.9), rho=st.floats(0.0, 0.9))
    @settings(max_examples=60, deadline=None)
    def test_even_in_rho(self, b, rho):
        assume(b * (1.0 + rho) < 2.0 - 1e-9)
        assert fukasawa_threshold(b, rho) == pytest.approx(
            fukasawa_threshold(b, -rho), abs=1e-10
        )

    def test_frozen_regression(self):
        assert fukasawa_threshold(0.5, -0.3) == pytest.approx(
            -0.47495696535988646, abs=1e-12
        )

    def test_interval_opens_exactly_above(self):
        f = fukasawa_threshold(0.5, -0.3)
        assert mu_interval(f + 1e-6, 0.5, -0.3).width() > 0.0
        with pytest.raises(FukasawaViolated):
            mu_interval(f - 1e-6, 0.5, -0.3)

    def test_small_b_is_resolved(self):
        # F - floor is about 1e-9 here, below any fixed alpha offset; in the
        # level alpha/b the two stay apart
        b = 1e-7
        f = fukasawa_threshold(b, 0.73)
        assert f / b == pytest.approx(-0.67483, abs=1e-5)
        assert f > -b * math.sqrt(1.0 - 0.73**2)
        b = 1e-6
        f = fukasawa_threshold(b, -0.4)
        assert f > -b * math.sqrt(1.0 - 0.4**2) + 1e-4 * b
        assert f == pytest.approx(fukasawa_threshold(b, 0.4), abs=1e-10 * b)

    def test_brackets_the_gap_sign_change(self):
        # the interval is empty just below F and open just above it, at
        # every scale of b and up to a wing slope of 2 - 1e-9
        rng = np.random.default_rng(23)
        for i in range(400):
            rho = float(rng.uniform(-0.999, 0.999))
            cap = 2.0 / (1.0 + abs(rho))
            if i % 4 == 0:
                b = (2.0 - 10.0 ** rng.uniform(-9.0, -3.0)) / (1.0 + abs(rho))
            else:
                b = math.exp(rng.uniform(math.log(1e-8), math.log(cap)))
            b = min(b, (2.0 - 1e-9) / (1.0 + abs(rho)))
            f = fukasawa_threshold(b, rho)
            with pytest.raises(FukasawaViolated):
                mu_interval(f - 1e-10 * b, b, rho)
            assert mu_interval(f + 1e-10 * b, b, rho).width() > 0.0, (b, rho)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            fukasawa_threshold(0.0, 0.0)
        with pytest.raises(DomainError):
            fukasawa_threshold(2.5, 0.0)
        with pytest.raises(DomainError):
            fukasawa_threshold(0.5, 1.5)

    def test_floor_conjecture_probe(self):
        # F(b, rho) > -b*sqrt(1-rho^2) is proven on the symmetric axis and
        # observed everywhere else; warn rather than fail if a counterexample
        # ever shows up, since nothing downstream depends on it
        rng = np.random.default_rng(11)
        for _ in range(40):
            b = float(rng.uniform(0.05, 1.9))
            rho = float(rng.uniform(-0.9, 0.9))
            if b * (1.0 + abs(rho)) > 2.0:
                continue
            f = fukasawa_threshold(b, rho)
            floor = -b * math.sqrt(1.0 - rho * rho)
            if not f > floor:
                warnings.warn(
                    f"threshold {f} at or below floor {floor} for (b, rho) = ({b}, {rho})",
                    stacklevel=1,
                )


#: (b, rho) at which the threshold's gap is already open at the first level
#: of its search, floor + _LEVEL_EDGE: a tiny b.
FLOOR_TINY_B = (1.373349053970226e-08, 0.0007057328590045486)
#: (b, rho) with 1 - |rho| of 5.4e-11, where the float gap at the critical
#: points of the first level reads +1.49e5 but 50 digits give -9.66e4: F is
#: above the floor there, although an exact float solve of that level says
#: otherwise.
NEAR_RHO_ONE = (0.4568528468207588, -0.9999999999464029)


class TestThresholdAtTheFloor:
    """Where the gap is already open at the first level of the search,
    floor + _LEVEL_EDGE, F is the positivity floor -b*sqrt(1-rho^2)."""

    @pytest.mark.parametrize("b, rho", [FLOOR_TINY_B], ids=["tiny-b"])
    def test_threshold_is_the_floor(self, b, rho):
        f, l_minus, l_plus = threshold_with_optimizers(b, rho)
        assert f == -b * math.sqrt(1.0 - rho * rho)
        assert math.isnan(l_minus) and math.isnan(l_plus)

    @pytest.mark.parametrize("b, rho", [FLOOR_TINY_B], ids=["tiny-b"])
    def test_gap_is_open_at_the_first_level(self, b, rho):
        with mpmath.workdps(50):
            level = -mpmath.sqrt(1 - mpmath.mpf(rho) ** 2) + _LEVEL_EDGE
            assert gap_50_digits(b, rho, level) > 0

    def test_partials_match_difference_quotients(self):
        def quotient(f, x, h):
            return (f(x + h) - f(x - h)) / ((x + h) - (x - h))

        b, rho = FLOOR_TINY_B
        f_b, f_rho = _threshold_partials(
            b, rho, fukasawa_threshold(b, rho), math.nan, math.nan
        )
        assert f_b == pytest.approx(
            quotient(lambda x: fukasawa_threshold(x, rho), b, 1e-6 * b), rel=1e-9
        )
        assert f_rho == pytest.approx(
            quotient(lambda x: fukasawa_threshold(b, x), rho, 1e-6), rel=1e-6
        )
        # off the floor branch near |rho| = 1, against the quotient of the
        # 50-digit F; the float F matches 50 digits to about 3e-16
        # relative there, and F_b matches this quotient about as closely
        b, rho = NEAR_RHO_ONE
        f_b, _ = _threshold_partials(b, rho, *threshold_with_optimizers(b, rho))
        with mpmath.workdps(50):
            want = quotient(lambda x: threshold_50_digits(x, rho), b, 1e-8 * b)
        assert f_b == pytest.approx(float(want), rel=1e-5)


def near_rho_one_cases(
    seed: int, n: int, gaps: tuple[float, float]
) -> list[tuple[float, float]]:
    """n seeded (b, rho) with 1 - |rho| log-uniform over ``gaps`` and b
    drawn as in threshold_cases."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        sign = float(rng.choice((-1.0, 1.0)))
        rho = sign * (1.0 - 10.0 ** float(rng.uniform(*np.log10(gaps))))
        cases.append((draw_b(rng, i, rho), rho))
    return cases


class TestThresholdNearRhoOne:
    """Near |rho| = 1 the float gap at exactly solved critical points can
    read open at the first level where the true gap is closed; the gap at
    the unsolved start points certifies the bracket instead."""

    def test_threshold_is_above_the_floor(self):
        b, rho = NEAR_RHO_ONE
        f, l_minus, l_plus = threshold_with_optimizers(b, rho)
        assert f > -b * math.sqrt(1.0 - rho * rho)
        assert math.isfinite(l_minus) and math.isfinite(l_plus)
        assert gap_50_digits(b, rho, f / b - 1e-10) < 0
        assert gap_50_digits(b, rho, f / b + 1e-10) > 0

    def test_gap_is_closed_at_the_first_level(self):
        b, rho = NEAR_RHO_ONE
        with mpmath.workdps(50):
            level = -mpmath.sqrt(1 - mpmath.mpf(rho) ** 2) + _LEVEL_EDGE
            assert gap_50_digits(b, rho, level) < 0

    @pytest.mark.parametrize("u", [1e-7, 5e-7])
    def test_box_point_certifies_free(self, u):
        b, rho = NEAR_RHO_ONE
        box = BoxCoords(rho, b * (1.0 + abs(rho)) / 2.0, u, 0.0, 0.1)
        assert check_no_arbitrage(box_to_params(box)).status is Status.FREE

    def test_no_draw_raises_down_to_4e_11(self):
        for b, rho in near_rho_one_cases(47, 2000, (4e-11, 1e-4)):
            f = fukasawa_threshold(b, rho)
            assert -b * math.sqrt(1.0 - rho * rho) <= f < 0.0, (b, rho)

    def test_far_side_keeps_its_digits(self):
        # rho*l + r and rho + l/r cancel on the far side of the vertex as
        # |rho| -> 1; in shape's far-side form F holds 50 digits to 1e-10,
        # and mu at the float interval's midpoint lies inside the 50-digit
        # interval wherever the waterfall says Free, judged by each slope
        # factor's bound rather than by their product G1
        rng = np.random.default_rng(59)
        free = 0
        for b, rho in near_rho_one_cases(61, 40, (1e-16, 1e-4)):
            f, f50 = fukasawa_threshold(b, rho), threshold_50_digits(b, rho)
            assert abs(f - f50) <= 1e-10 * abs(f50), (b, rho)
            alpha = float(f50 * (1 - 10.0 ** rng.uniform(-12.0, -1.0)))
            try:
                interval = mu_interval(alpha, b, rho)
            except FukasawaViolated:
                continue
            mu = 0.5 * (interval.lower + interval.upper)
            diag = check_no_arbitrage(SviParams(alpha * 1e6, b, rho, mu * 1e6, 1e6))
            if diag.is_free:
                free += 1
                with mpmath.workdps(50):
                    lower, upper = bounds_50_digits(b, rho, mpmath.mpf(diag.alpha) / b)
                    assert lower < diag.mu < upper, (b, rho, alpha)
        assert free >= 30

    def test_bound_at_the_vertex_is_unresolved(self):
        # N'(l_star(0.3)) rounds to exactly 0, and 1/N' has no value there
        assert n_funcs(0.1, 1.0, 0.3, l_star(0.3))[1] == 0.0
        with pytest.raises(NumericFailure):
            bound_partials(l_star(0.3), 0.1, 1.0, 0.3, "-")

    def test_closer_draws_raise_only_typed_errors(self):
        for b, rho in near_rho_one_cases(53, 40, (1e-16, 4e-11)):
            try:
                fukasawa_threshold(b, rho)
            except ButterfreeError:
                pass


def draw_b(rng: np.random.Generator, i: int, rho: float) -> float:
    """Every fourth b puts the steeper wing slope within 1e-6..1e-2 of 2,
    the rest are log-uniform from 1e-8 up to that limit."""
    if i % 4 == 0:
        return (2.0 - 10.0 ** rng.uniform(-6.0, -2.0)) / (1.0 + abs(rho))
    return math.exp(rng.uniform(math.log(1e-8), math.log(2.0 / (1.0 + abs(rho)))))


def threshold_cases(seed: int, n: int, rho_gap: float) -> list[tuple[float, float]]:
    """n seeded (b, rho) with 1 - |rho| >= rho_gap and b from draw_b.  Both
    turning and monotone sides occur."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        rho = float(rng.uniform(-1.0 + rho_gap, 1.0 - rho_gap))
        cases.append((draw_b(rng, i, rho), rho))
    return cases


def near_limit_cases(seed: int, n: int) -> list[tuple[float, float]]:
    """n seeded (b, rho), rho in [-0.9, 0.9], whose float steeper wing
    slope b*(1 + |rho|) falls short of 2 by a gap log-uniform over
    [4e-16, 1e-12]."""
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < n:
        rho = float(rng.uniform(-0.9, 0.9))
        gap = 10.0 ** float(rng.uniform(math.log10(4e-16), -12.0))
        b = (2.0 - gap) / (1.0 + abs(rho))
        if b * (1.0 + abs(rho)) < 2.0:
            cases.append((b, rho))
    return cases


class TestNearTheSlopeLimit:
    """Every wing slope below 2 is solved, however close: its optimizer
    lies out at about 1/sqrt(2 - slope), up to 1e8 here, and F and the
    interval walls keep their digits there."""

    def test_threshold_matches_50_digits(self):
        for b, rho in near_limit_cases(71, 30):
            f, f50 = fukasawa_threshold(b, rho), threshold_50_digits(b, rho)
            assert abs(f - f50) <= 1e-7 * abs(f50), (b, rho)

    def test_walls_match_50_digits(self):
        # The walls lose about l*eps absolute, 1e-8 at l = 1e8, to the
        # cancellation in L_pm on the steep side; the margins here keep
        # the interval wider than 0.25.
        rng = np.random.default_rng(73)
        for b, rho in near_limit_cases(79, 30):
            alpha = fukasawa_threshold(b, rho) + b * float(rng.uniform(0.1, 1.0))
            interval = mu_interval(alpha, b, rho)
            with mpmath.workdps(50):
                lower, upper = bounds_50_digits(b, rho, mpmath.mpf(alpha) / b)
                tol = 1e-7 * (upper - lower)
                assert abs(interval.lower - lower) <= tol, (b, rho, alpha)
                assert abs(interval.upper - upper) <= tol, (b, rho, alpha)


class TestJointThresholdSolve:
    """threshold_with_optimizers solves (level, l_minus, l_plus) in one
    Newton iteration whose level bracket rests on the evaluated gap never
    being below the gap at the critical points."""

    def test_g_evaluations_per_threshold(self, monkeypatch):
        cases = threshold_cases(31, 200, 1e-3)
        assert {_anchor(b, rho, side).power for b, rho in cases for side in "-+"
                if b * (1.0 + abs(rho)) < 2.0} == {2, 3}
        calls = []
        g_pm_slope = fukasawa._g_pm_slope
        monkeypatch.setattr(
            fukasawa, "_g_pm_slope", lambda *a: calls.append(1) or g_pm_slope(*a)
        )
        for b, rho in cases:
            fukasawa_threshold(b, rho)
        # 63 per threshold here for the nested solve, with each level's
        # critical points solved to full precision; 33 for the joint solve
        # from an exactly solved first level; 17.6 from the start points
        assert len(calls) / len(cases) <= 22.0

    def test_gap_changes_sign_at_the_threshold_in_50_digits(self):
        for b, rho in threshold_cases(37, 40, 1e-4):
            level = fukasawa_threshold(b, rho) / b
            assert gap_50_digits(b, rho, level - 1e-10) < 0, (b, rho)
            assert gap_50_digits(b, rho, level + 1e-10) > 0, (b, rho)

    def test_off_critical_gap_is_never_below_the_critical_gap(self):
        # L_minus(l) <= sup L_minus and L_plus(l) >= inf L_plus on each
        # half-line, so a negative evaluated gap certifies a level below F
        rng = np.random.default_rng(43)
        for b, rho in threshold_cases(41, 40, 1e-3):
            if b * (1.0 + abs(rho)) >= 2.0 - 1e-9:
                continue
            alpha = fukasawa_threshold(b, rho) + b * float(rng.uniform(-0.01, 0.5))
            if not alpha > -b * math.sqrt(1.0 - rho * rho):
                continue
            l_minus, l_plus = (l_pm_of_alpha(alpha, b, rho, side) for side in "-+")
            critical = L_plus(l_plus, alpha, b, rho) - L_minus(l_minus, alpha, b, rho)
            vertex = l_star(rho)
            for _ in range(25):
                # off by a factor of 1e-4..10 of each optimizer's distance
                # from the vertex, inward or outward
                moves = rng.choice((-1.0, 1.0), 2) * 10.0 ** rng.uniform(-4.0, 1.0, 2)
                off_minus = l_minus + (l_minus - vertex) * max(moves[0], -0.99)
                off_plus = l_plus + (l_plus - vertex) * max(moves[1], -0.99)
                evaluated = L_plus(off_plus, alpha, b, rho) - L_minus(off_minus, alpha, b, rho)
                assert evaluated >= critical - 1e-12 * max(1.0, abs(critical)), (b, rho)


class TestClosedForm:
    def test_small_b_vanishes(self):
        assert abs(threshold_rho0_closed_form(1e-4)) < 1e-3

    def test_frozen_regression(self):
        assert threshold_rho0_closed_form(1.0) == pytest.approx(
            -0.9838699100999075, abs=1e-15
        )

    def test_rejects_outside_open_interval(self):
        for b in (0.0, -0.5, 2.0, 3.0):
            with pytest.raises(DomainError):
                threshold_rho0_closed_form(b)


class TestMuIntervalObject:
    def test_contains_is_strict(self):
        iv = MuInterval(-1.0, 2.0)
        assert iv.contains(0.0)
        assert not iv.contains(-1.0)
        assert not iv.contains(2.0)
        assert iv.width() == 3.0
