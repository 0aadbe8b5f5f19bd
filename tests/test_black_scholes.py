"""Normalized Black-Scholes pricing and implied total-vol inversion."""

from __future__ import annotations

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from butterfree.arrays import svi
from butterfree.black_scholes import (
    ABOVE_CEILING,
    AT_INTRINSIC,
    AT_UPPER,
    BELOW_FLOOR,
    BELOW_MIN_PRICE,
    MAX_ITERATIONS,
    MIN_PRICE,
    NON_FINITE,
    THETA_MAX,
    THETA_MIN,
    call_price,
    d1_d2,
    implied_total_vol,
    implied_total_vols,
    inversion_error,
    norm_cdf,
    norm_pdf,
    put_price,
    vega_total,
)
from butterfree.errors import DomainError, MaxIterations, PriceOutOfRange
from butterfree.smile import SviParams
from reference import scalar_call, scalar_implied_total_vol, scalar_put


class TestD1D2:
    def test_at_the_money(self):
        d1, d2 = d1_d2(0.0, 0.2)
        assert d1 == pytest.approx(0.1, abs=1e-15)
        assert d2 == pytest.approx(-0.1, abs=1e-15)

    def test_d1_vanishes_at_half_variance(self):
        d1, d2 = d1_d2(0.02, 0.2)
        assert d1 == pytest.approx(0.0, abs=1e-15)
        assert d2 == pytest.approx(-0.2, abs=1e-15)

    def test_generic_point(self):
        d1, d2 = d1_d2(-0.1, 0.5)
        assert d1 == pytest.approx(0.45, abs=1e-15)
        assert d2 == pytest.approx(-0.05, abs=1e-15)

    @given(k=st.floats(-3.0, 3.0), theta=st.floats(1e-3, 10.0))
    def test_difference_is_theta(self, k, theta):
        d1, d2 = d1_d2(k, theta)
        assert d1 - d2 == pytest.approx(theta, rel=1e-12)

    def test_rejects_zero_theta(self):
        with pytest.raises(DomainError):
            d1_d2(0.0, 0.0)


class TestPrices:
    def test_huge_vol_call_approaches_one(self):
        assert call_price(0.0, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vol_intrinsic(self):
        assert call_price(0.0, 0.0) == 0.0
        assert call_price(-0.5, 0.0) == pytest.approx(1.0 - math.exp(-0.5))
        assert put_price(0.3, 0.0) == pytest.approx(math.exp(0.3) - 1.0)

    def test_atm_call_value(self):
        # Phi(0.1) - Phi(-0.1), from the erf closed form
        want = math.erf(0.1 / math.sqrt(2.0))
        assert call_price(0.0, 0.2) == pytest.approx(want, abs=1e-15)
        assert call_price(0.0, 0.2) == pytest.approx(0.0796557, abs=5e-8)

    def test_call_within_static_bounds(self):
        for k in (-1.0, -0.1, 0.0, 0.4, 2.0):
            for theta in (0.05, 0.3, 1.0, 5.0):
                c = call_price(k, theta)
                assert max(1.0 - math.exp(k), 0.0) <= c <= 1.0

    @given(k=st.floats(-5.0, 5.0), theta=st.floats(1e-4, 20.0))
    def test_put_call_parity(self, k, theta):
        c = call_price(k, theta)
        p = put_price(k, theta)
        assert p - c == pytest.approx(math.exp(k) - 1.0, abs=1e-14, rel=1e-13)

    @given(k=st.floats(-2.0, 2.0))
    def test_call_increasing_in_theta(self, k):
        # deep in the money the value is pinned at intrinsic and successive
        # prices can differ by an ulp in either direction, hence the slack
        thetas = [0.01 * (i + 1) for i in range(120)]
        prices = [call_price(k, t) for t in thetas]
        assert all(b >= a - 1e-15 for a, b in zip(prices, prices[1:]))

    def test_rejects_negative_theta(self):
        with pytest.raises(DomainError):
            call_price(0.0, -0.1)

    @given(k=st.one_of(st.floats(-60.0, 60.0), st.floats(650.0, 1300.0)),
           theta=st.floats(1e-6, THETA_MAX))
    @settings(derandomize=True)
    def test_keep_the_scalar_operation_order(self, k, theta):
        assert call_price(k, theta) == scalar_call(k, theta)
        if k < 709.0:
            assert put_price(k, theta) == scalar_put(k, theta)


def call_reference(k: float, theta: float) -> float:
    """The normalized call price in 50-digit arithmetic."""
    with mpmath.workdps(50):
        k_, theta_ = mpmath.mpf(k), mpmath.mpf(theta)
        d1 = -k_ / theta_ + theta_ / 2
        return float(mpmath.ncdf(d1) - mpmath.exp(k_) * mpmath.ncdf(d1 - theta_))


def put_reference(k: float, theta: float) -> float:
    """The normalized put price in 50-digit arithmetic."""
    with mpmath.workdps(50):
        k_, theta_ = mpmath.mpf(k), mpmath.mpf(theta)
        d1 = -k_ / theta_ + theta_ / 2
        return float(mpmath.exp(k_) * mpmath.ncdf(theta_ - d1) - mpmath.ncdf(-d1))


class TestLogSpaceCall:
    """Past k = 700, where exp(k) nears overflow, the call's second term
    runs in log space."""

    @pytest.mark.parametrize("k, theta", [(700.5, 40.0), (750.0, 38.0), (1000.0, 45.0)])
    def test_matches_50_digit_price(self, k, theta):
        assert call_price(k, theta) == pytest.approx(call_reference(k, theta), rel=1e-12)

    @pytest.mark.parametrize("theta", [37.4, 40.0])
    def test_continuous_across_the_switch(self, theta):
        below = call_price(700.0, theta)
        above = call_price(math.nextafter(700.0, math.inf), theta)
        assert above == pytest.approx(below, rel=1e-12)
        assert below == pytest.approx(call_reference(700.0, theta), rel=1e-12)

    @pytest.mark.parametrize("k", [700.5, 1e3, 1e5])
    @pytest.mark.parametrize("theta", [1e-9, 1e-3, 1.0, 10.0, 30.0, 37.5, 44.0, 50.0])
    def test_matches_50_digit_price_across_the_vol_range(self, k, theta):
        # past k = 1250 every price up to theta = 50 underflows to zero
        want = call_reference(k, theta)
        assert call_price(k, theta) == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestVega:
    def test_atm_value(self):
        assert vega_total(0.0, 0.2) == pytest.approx(norm_pdf(0.1), abs=1e-16)
        assert vega_total(0.0, 0.2) == pytest.approx(0.3969525474770118, abs=1e-15)

    def test_density_mode(self):
        # k = theta^2/2 puts d1 at zero, the vega maximum
        assert vega_total(0.02, 0.2) == pytest.approx(
            1.0 / math.sqrt(2.0 * math.pi), abs=1e-16
        )

    @given(k=st.floats(-3.0, 3.0), theta=st.floats(0.2, 10.0))
    def test_positive(self, k, theta):
        # theta floor keeps |d1| < 21 so the density stays representable
        assert vega_total(k, theta) > 0.0


class TestImpliedTotalVol:
    def test_recovers_atm_vol(self):
        price = call_price(0.0, 0.2)
        assert implied_total_vol(0.0, price) == pytest.approx(0.2, abs=1e-12)

    def test_put_kind(self):
        price = put_price(0.3, 0.7)
        assert implied_total_vol(0.3, price, kind="put") == pytest.approx(
            0.7, abs=1e-12
        )

    @given(k=st.floats(-1.5, 1.5), theta=st.floats(0.01, 3.0))
    @settings(max_examples=200)
    def test_round_trip(self, k, theta):
        # a vega floor excludes regimes where the forward price itself
        # carries too much cancellation error for the vol to be recoverable
        assume(vega_total(k, theta) > 1e-6)
        price = call_price(k, theta)
        recovered = implied_total_vol(k, price)
        assert call_price(k, recovered) == pytest.approx(price, abs=1e-12)
        assert recovered == pytest.approx(theta, abs=1e-8, rel=1e-8)

    def test_price_at_upper_bound(self):
        with pytest.raises(PriceOutOfRange):
            implied_total_vol(0.0, 1.0)

    def test_price_at_intrinsic(self):
        with pytest.raises(PriceOutOfRange):
            implied_total_vol(-0.5, 1.0 - math.exp(-0.5))

    def test_price_below_floor_vol(self):
        # positive but below the price at the minimum bracket vol, which
        # at the money is ~4e-10 and still representable
        floor = call_price(0.0, THETA_MIN)
        assert floor > 0.0
        with pytest.raises(PriceOutOfRange):
            implied_total_vol(0.0, floor * 1e-2)

    @pytest.mark.parametrize("k", [5.0, 30.0, 650.0])
    def test_smallest_invertible_price_within_one_percent(self, k):
        # prices below MIN_PRICE are refused: at (5, 1e-20) a 1e-16 stop
        # returned a vol whose 50-digit price is 4.4e-17
        theta = implied_total_vol(k, MIN_PRICE)
        assert call_reference(k, theta) == pytest.approx(MIN_PRICE, rel=1e-2, abs=0.0)

    @pytest.mark.parametrize("kind, lo, hi", [("call", 0.5, 40.0), ("put", -20.0, -0.5)])
    def test_tiny_prices_reproduce_to_a_millionth(self, kind, lo, hi):
        # below 1e-10 the stop is 1e-6 of the price: 1e-16 absolute alone
        # leaves a price near MIN_PRICE up to 1% off
        rng = np.random.default_rng(60)
        k = rng.uniform(lo, hi, 100)
        price = np.exp(rng.uniform(math.log(MIN_PRICE), math.log(1e-10), 100))
        theta, code = implied_total_vols(k, price, kind == "call")
        assert not code.any()
        reference = call_reference if kind == "call" else put_reference
        for ki, pi, ti in zip(k.tolist(), price.tolist(), theta.tolist()):
            assert reference(ki, ti) == pytest.approx(pi, rel=2e-6, abs=0.0)

    def test_price_above_ceiling_vol(self):
        almost_one = 0.5 * (call_price(0.0, THETA_MAX) + 1.0)
        with pytest.raises(PriceOutOfRange):
            implied_total_vol(0.0, almost_one)

    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            implied_total_vol(0.0, 0.1, kind="straddle")

    def test_rejects_non_finite_price(self):
        with pytest.raises(PriceOutOfRange):
            implied_total_vol(0.0, math.nan)


class TestOverflowingStrikes:
    """Where exp(k) overflows a double, the inverter answers without it: a
    call's intrinsic value is 0, and a put's is infinite, above every price."""

    @pytest.mark.parametrize("k", [709.8, 710.0, 1e3])
    def test_call_inverts(self, k):
        theta = implied_total_vol(k, 0.5, "call")
        assert call_price(k, theta) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k", [709.8, 710.0, 1e3])
    def test_put_is_below_intrinsic(self, k):
        with pytest.raises(PriceOutOfRange, match="at or below intrinsic value inf"):
            implied_total_vol(k, 0.5, "put")

    def test_zero_vol_prices(self):
        assert call_price(710.0, 0.0) == 0.0
        assert put_price(710.0, 0.0) == math.inf


def _outcome(k, price, kind):
    try:
        return "ok", scalar_implied_total_vol(k, price, kind)
    except (PriceOutOfRange, MaxIterations) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def quotes(draw):
    """(k, price, kind) inside and at every edge of the inverter's domain."""
    k = draw(st.one_of(st.floats(-3.0, 3.0), st.floats(-60.0, 60.0),
                       st.floats(650.0, 1300.0)))
    # mostly the out-of-the-money leg, whose price is not pinned at intrinsic
    kind = draw(st.sampled_from(["otm", "otm", "call", "put"]))
    if kind == "otm":
        kind = "call" if k >= 0.0 else "put"
    exp_k = math.exp(k) if k < 709.0 else math.inf
    upper = 1.0 if kind == "call" else exp_k

    def model(theta):
        # a put's price past k = 709 is not a double; 0.5 stands in for it
        if kind == "call":
            return scalar_call(k, theta)
        return scalar_put(k, theta) if exp_k < math.inf else 0.5

    edge = draw(st.sampled_from(
        ["theta", "theta", "theta", "nudged", "floor", "below floor", "ceiling",
         "above ceiling", "intrinsic", "upper", "nan", "inf", "zero"]))
    if edge in ("theta", "nudged"):
        price = model(10.0 ** draw(st.floats(-3.0, math.log10(THETA_MAX))))
        if edge == "nudged":
            price *= 1.0 + draw(st.floats(-1e-6, 1e-6))
    elif edge in ("floor", "below floor"):
        price = model(THETA_MIN) * (0.5 if edge == "below floor" else 1.0)
    elif edge in ("ceiling", "above ceiling"):
        price = model(THETA_MAX)
        if edge == "above ceiling":
            price = 0.5 * (price + upper)
    elif edge == "intrinsic":
        price = max(1.0 - exp_k, 0.0) if kind == "call" else max(exp_k - 1.0, 0.0)
    elif edge == "upper":
        price = upper
    else:
        price = {"nan": math.nan, "inf": math.inf, "zero": 0.0}[edge]
    return k, price, kind


class TestBatchedInverter:
    """implied_total_vols runs the one-quote loop on every element at once."""

    @given(st.lists(quotes(), min_size=1, max_size=12))
    @example([(0.0, 2e-10, "call"), (1200.0, 0.9, "call"), (709.8, 0.5, "put"),
              (710.0, 0.5, "call"), (1e3, 1e-300, "call"), (-0.3, 0.25, "put")])
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_the_scalar_loop_bit_for_bit(self, draws):
        ks, prices, kinds = zip(*draws)
        theta, code = implied_total_vols(ks, prices, [kind == "call" for kind in kinds])
        for i, (k, price, kind) in enumerate(draws):
            if code[i]:
                exc = inversion_error(int(code[i]), k, price, kind == "call")
                got = type(exc).__name__, str(exc)
            else:
                got = "ok", float(theta[i])
            assert got == _outcome(k, price, kind)

    @pytest.mark.parametrize("k, price, kind, code, text", [
        (0.0, math.nan, "call", NON_FINITE, "price must be finite, got nan"),
        (-0.5, 0.3, "call", AT_INTRINSIC,
         "call price 0.3 at or below intrinsic value 0.3934693402873666"),
        (0.3, 0.1, "put", AT_INTRINSIC,
         "put price 0.1 at or below intrinsic value 0.3498588075760032"),
        (0.0, 1.0, "call", AT_UPPER, "call price 1.0 at or above upper bound 1.0"),
        (-0.2, 0.9, "put", AT_UPPER,
         "put price 0.9 at or above upper bound 0.8187307530779818"),
        (5.0, 1e-20, "call", BELOW_MIN_PRICE,
         "call price 1e-20 below the smallest invertible price 1e-14"),
        (650.0, 1e-300, "call", BELOW_MIN_PRICE,
         "call price 1e-300 below the smallest invertible price 1e-14"),
        (-5.0, 1e-15, "put", BELOW_MIN_PRICE,
         "put price 1e-15 below the smallest invertible price 1e-14"),
        (0.0, 1e-12, "call", BELOW_FLOOR, "call price 1e-12 below the price at total vol 1e-09"),
        (1300.0, 0.5, "call", ABOVE_CEILING, "call price 0.5 above the price at total vol 50.0"),
        (math.nan, 0.5, "call", MAX_ITERATIONS,
         "implied total vol did not converge within 200 iterations"),
    ])
    def test_failure_codes_keep_the_scalar_messages(self, k, price, kind, code, text):
        theta, codes = implied_total_vols(k, price, kind == "call")
        assert codes.tolist() == [code] and math.isnan(theta[0])
        want = MaxIterations if code == MAX_ITERATIONS else PriceOutOfRange
        exc = inversion_error(code, k, price, kind == "call")
        assert type(exc) is want and str(exc) == text
        with pytest.raises(want, match=f"^{re.escape(text)}$"):
            implied_total_vol(k, price, kind)
        with pytest.raises(want, match=f"^{re.escape(text)}$"):
            scalar_implied_total_vol(k, price, kind)

    def test_empty_batch(self):
        theta, code = implied_total_vols([], [], [])
        assert theta.shape == code.shape == (0,)


class TestWingLimit:
    """Smiles whose right slope sits exactly at the limit b(1+rho) = 2.

    The call value tends to one half along the wing.  The approach is slow,
    at rate 1/sqrt(k): with c = a - 2m the deviation satisfies

        call(k, sqrt(w(k))) - 1/2  ~  (c - 2) / (4*sqrt(pi*k)),

    so the limit is only verifiable through the rate law, not through tight
    absolute tolerances at small k.
    """

    def _params(self, a, rho, m, sigma):
        return SviParams(a=a, b=2.0 / (1.0 + rho), rho=rho, m=m, sigma=sigma)

    def test_call_approaches_one_half(self):
        p = self._params(0.05, 0.25, 0.1, 0.4)
        errors = []
        for k in (10.0, 1e2, 1e4, 1e6, 1e8):
            theta = math.sqrt(svi(p, k))
            errors.append(abs(call_price(k, theta) - 0.5))
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-4

    def test_rate_law(self):
        for a, rho, m, sigma in [(0.05, 0.25, 0.1, 0.4), (2.3, -0.4, 0.0, 0.9)]:
            p = self._params(a, rho, m, sigma)
            c = a - 2.0 * m
            for k, tol in ((1e4, 5e-4), (1e6, 5e-6), (1e8, 5e-7)):
                theta = math.sqrt(svi(p, k))
                got = call_price(k, theta) - 0.5
                law = (c - 2.0) / (4.0 * math.sqrt(math.pi * k))
                assert got / law == pytest.approx(1.0, abs=tol)


def test_norm_cdf_known_values():
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-16)
    assert norm_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-15)
    assert norm_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-12)
