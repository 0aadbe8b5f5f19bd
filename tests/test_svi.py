"""SVI smile evaluation, normalization and the butterfly diagnostic."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from butterfree.arrays import density, durrleman_g, smile_terms, svi
from butterfree.domain import check_no_arbitrage
from butterfree.errors import InvalidParams, NonPositiveVariance
from butterfree.smile import SviParams, n_funcs
from conftest import GATHERAL_JACQUIER, MODEL_ROWS, VOGT
from reference import Normalized, g_split


def valid_params():
    """Strategy over parameter sets satisfying the shape constraints."""
    return st.builds(
        lambda b, rho, m, sigma, lift: SviParams(
            a=-b * sigma * math.sqrt(1.0 - rho * rho) + lift,
            b=b,
            rho=rho,
            m=m,
            sigma=sigma,
        ),
        b=st.floats(0.01, 2.5),
        rho=st.floats(-0.95, 0.95),
        m=st.floats(-1.0, 1.0),
        sigma=st.floats(0.05, 2.0),
        lift=st.floats(0.001, 1.0),
    )


class TestSviParams:
    def test_accepts_reference_sets(self):
        for p in MODEL_ROWS + (VOGT, GATHERAL_JACQUIER):
            assert p.b >= 0.0

    def test_rejects_negative_b(self):
        with pytest.raises(InvalidParams):
            SviParams(a=0.1, b=-0.1, rho=0.0, m=0.0, sigma=0.3)

    def test_rejects_rho_outside_unit(self):
        with pytest.raises(InvalidParams):
            SviParams(a=0.1, b=0.5, rho=1.2, m=0.0, sigma=0.3)

    def test_rejects_negative_sigma(self):
        with pytest.raises(InvalidParams):
            SviParams(a=0.1, b=0.5, rho=0.0, m=0.0, sigma=-0.3)

    def test_rejects_negative_minimum_variance(self):
        # min w = a + b*sigma*sqrt(1-rho^2) = -0.2 + 0.5*0.3 < 0
        with pytest.raises(InvalidParams):
            SviParams(a=-0.2, b=0.5, rho=0.0, m=0.0, sigma=0.3)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParams):
            SviParams(a=math.nan, b=0.5, rho=0.0, m=0.0, sigma=0.3)

    def test_boundary_rho_allowed(self):
        SviParams(a=0.1, b=0.5, rho=-1.0, m=0.0, sigma=0.3)
        SviParams(a=0.0, b=0.5, rho=1.0, m=0.0, sigma=0.3)


class TestEvaluation:
    def test_value_at_vertex(self):
        # at k = m the root collapses to sigma
        assert svi(VOGT, VOGT.m) == pytest.approx(VOGT.a + VOGT.b * VOGT.sigma, abs=1e-15)
        assert svi(VOGT, VOGT.m) == pytest.approx(0.01427643, abs=1e-12)

    def test_flat_smile(self):
        p = SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, sigma=0.5)
        ks = np.linspace(-2.0, 2.0, 11)
        assert np.allclose(svi(p, ks), 0.04, atol=0.0)
        assert np.allclose(smile_terms(p.a, p.b, p.rho, ks - p.m, p.sigma)[1], 0.0, atol=0.0)

    def test_array_and_scalar_agree(self):
        ks = np.array([-0.3, 0.0, 0.7])
        arr = svi(VOGT, ks)
        assert arr.shape == (3,)
        for k, w in zip(ks, arr):
            assert svi(VOGT, float(k)) == w

    def test_wing_asymptotes(self):
        # w(k) ~ b*(1 +- rho)*|k| far out on either wing
        p = MODEL_ROWS[0]
        k = 1e8
        assert svi(p, k) / k == pytest.approx(p.b * (1 + p.rho), rel=1e-6)
        assert svi(p, -k) / k == pytest.approx(p.b * (1 - p.rho), rel=1e-6)

    @given(params=valid_params(), k=st.floats(-3.0, 3.0))
    @example(params=SviParams(-0.08253175473054819, 2.5, 0.5, -1.0, 0.5), k=1.875)
    @settings(derandomize=True)
    def test_derivatives_match_finite_differences(self, params, k):
        # mpmath differentiates the formula in 50 digits; a double-precision
        # second difference at h = 1e-6 carries 1e-2 of rounding when w ~ 10
        def w(x):
            dk = x - params.m
            return params.a + params.b * (
                params.rho * dk + mpmath.sqrt(dk * dk + mpmath.mpf(params.sigma) ** 2))

        with mpmath.workdps(50):
            want1 = float(mpmath.diff(w, mpmath.mpf(k), 1))
            want2 = float(mpmath.diff(w, mpmath.mpf(k), 2))
        x = np.array([k - params.m])
        _, (w1,), (w2,) = smile_terms(params.a, params.b, params.rho, x, params.sigma)
        assert w1 == pytest.approx(want1, abs=1e-12, rel=1e-12)
        assert w2 == pytest.approx(want2, abs=1e-12, rel=1e-12)

    @given(params=valid_params())
    def test_second_derivative_positive(self, params):
        ks = np.linspace(-5.0, 5.0, 41)
        # w'' has no far-side form, so one call covers both sides of m
        w2 = smile_terms(params.a, params.b, params.rho, ks - params.m, params.sigma)[2]
        assert np.all(w2 > 0.0)


class TestNormalization:
    def test_vogt_values(self):
        # the waterfall reports the normalized coordinates it reads
        diag = check_no_arbitrage(VOGT)
        assert diag.alpha == pytest.approx(-0.09872381411028172, abs=1e-15)
        assert diag.mu == pytest.approx(0.8634721887791957, abs=1e-15)
        assert diag.alpha == pytest.approx(-0.09872, abs=1e-4)
        assert diag.mu == pytest.approx(0.86347, abs=1e-4)

    @given(params=valid_params(), k=st.floats(-3.0, 3.0))
    def test_scaling_identity(self, params, k):
        # sigma * N(k/sigma - mu) reproduces w(k)
        norm = Normalized.of(params)
        l = k / norm.sigma - norm.mu
        n0, _, _, _ = n_funcs(norm.alpha, norm.b, norm.rho, l)
        assert norm.sigma * n0 == pytest.approx(svi(params, k), rel=1e-13, abs=1e-15)


class TestNFuncs:
    def test_at_origin_rho_zero(self):
        n0, n1, n2, n3 = n_funcs(0.5, 0.8, 0.0, 0.0)
        assert n0 == pytest.approx(0.5 + 0.8, abs=1e-16)
        assert n1 == 0.0
        assert n2 == pytest.approx(0.8, abs=1e-16)
        assert n3 == 0.0

    def test_slope_saturates(self):
        _, n1, _, _ = n_funcs(0.1, 0.7, 0.25, 1e6)
        assert n1 == pytest.approx(0.7 * 1.25, abs=1e-5)
        _, n1, _, _ = n_funcs(0.1, 0.7, 0.25, -1e6)
        assert n1 == pytest.approx(0.7 * (0.25 - 1.0), abs=1e-5)

    def test_slope_vanishes_at_vertex(self):
        # N'(l) = 0 at l = -rho/sqrt(1-rho^2)
        rho = -0.45
        l_star = -rho / math.sqrt(1.0 - rho * rho)
        _, n1, _, _ = n_funcs(0.3, 1.2, rho, l_star)
        assert n1 == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("l", [1e62, -1e62, 1e200, -1e200, 1.7e308, -1.7e308])
    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_far_out_on_both_sides(self, rho, l):
        # no power of r is formed, so nothing overflows but N itself, and
        # N' has its wing limit b*(rho +- 1) with the sign of l
        n0, n1, n2, n3 = n_funcs(0.1, 1.0, rho, l)
        assert n1 == pytest.approx(rho + math.copysign(1.0, l), rel=1e-15)
        assert n0 > 0.0 and n2 >= 0.0 and math.isfinite(n3)

    def test_far_side_keeps_its_digits_near_rho_one(self):
        # where rho*l < 0, rho*l + r and rho + l/r are differences of terms
        # of order one; their error must stay at the size of what is left
        rng = np.random.default_rng(7)
        for _ in range(200):
            rho = float(rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-16.0, -1.0)))
            l = float(-math.copysign(10.0 ** rng.uniform(-3.0, 10.0), rho))
            n0, n1, _, _ = n_funcs(0.0, 1.0, rho, l)
            with mpmath.workdps(50):
                r_, l_ = mpmath.mpf(rho), mpmath.mpf(l)
                r = mpmath.sqrt(l_ * l_ + 1)
                om, u = 1 - r_ * r_, l_ / r
                scale = (r_ * r_ / (r * r) + om * u * u) / (abs(r_) + abs(u))
                assert abs(n0 - (r_ * l_ + r)) <= 1e-15 * (r_ * l_ + r), (rho, l)
                assert abs(n1 - (r_ + u)) <= 1e-15 * scale, (rho, l)

    @given(l=st.floats(-20.0, 20.0))
    def test_third_derivative_sign(self, l):
        _, _, _, n3 = n_funcs(0.2, 1.0, 0.3, l)
        if l > 0:
            assert n3 < 0.0
        elif l < 0:
            assert n3 > 0.0


class TestDurrlemanG:
    def test_flat_smile_is_one(self):
        p = SviParams(a=0.09, b=0.0, rho=0.0, m=0.0, sigma=0.4)
        ks = np.linspace(-3.0, 3.0, 25)
        assert np.allclose(durrleman_g(p, ks), 1.0, atol=0.0)

    def test_vogt_goes_negative(self):
        ks = np.linspace(-1.5, 1.5, 601)
        g = durrleman_g(VOGT, ks)
        assert np.min(g) < 0.0

    def test_repair_is_non_negative(self):
        ks = np.linspace(-1.5, 1.5, 601)
        g = durrleman_g(GATHERAL_JACQUIER, ks)
        assert np.min(g) >= 0.0

    def test_rejects_zero_variance(self):
        # min w = 0 at the vertex for rho = 0, a = -b*sigma
        p = SviParams(a=-0.15, b=0.5, rho=0.0, m=0.0, sigma=0.3)
        with pytest.raises(NonPositiveVariance):
            durrleman_g(p, 0.0)

    @pytest.mark.parametrize("k", [1e62, -1e62, 1e200, -1e200, -1.7e308])
    def test_wing_limit_far_out(self, k):
        # g -> 1/4 - w'^2/16 with w' -> b*(rho +- 1); at k = 1.7e308 the near
        # side's w = 1.5*k is itself past the largest float
        p = SviParams(a=0.1, b=1.0, rho=0.5, m=0.0, sigma=0.1)
        slope = p.b * (p.rho + math.copysign(1.0, k))
        assert durrleman_g(p, k) == pytest.approx(0.25 - slope * slope / 16.0, rel=1e-12)

    @given(params=valid_params())
    @settings(max_examples=60)
    def test_matches_split(self, params):
        norm = Normalized.of(params)
        for l in (-3.0, -1.0, -0.2, 0.0, 0.4, 1.5, 4.0):
            k = params.sigma * (l + norm.mu)
            split = g_split(norm, l)
            whole = durrleman_g(params, k)
            assert split.g1 + split.g2 / (2.0 * params.sigma) == pytest.approx(
                whole, abs=1e-11, rel=1e-9
            )


class TestGSplit:
    def test_product_structure(self):
        norm = Normalized.of(MODEL_ROWS[0])
        s = g_split(norm, 0.7)
        assert s.g1 == pytest.approx(s.g1_plus * s.g1_minus, abs=1e-16)

    def test_g2_at_smile_vertex(self):
        # N' = 0 at l* kills the -N'^2/(2N) term, leaving the curvature
        rho = -0.3
        l_star = -rho / math.sqrt(1.0 - rho * rho)
        norm = Normalized(alpha=0.2, b=0.9, rho=rho, mu=0.1, sigma=0.5)
        s = g_split(norm, l_star)
        _, _, n2, _ = n_funcs(0.2, 0.9, rho, l_star)
        assert s.g2 == pytest.approx(n2, abs=1e-15)
        assert s.g2 > 0.0

    def test_g2_at_origin(self):
        alpha, b, rho = 0.4, 1.1, 0.35
        norm = Normalized(alpha=alpha, b=b, rho=rho, mu=0.0, sigma=1.0)
        s = g_split(norm, 0.0)
        want = b * (1.0 - b * rho * rho / (2.0 * (alpha + b)))
        assert s.g2 == pytest.approx(want, abs=1e-15)

    def test_g1_factors_far_wings(self):
        # for b = 1, rho = 0 the shift tends to 1/2, so the factors
        # approach 3/4 and 1/4 and their product 3/16
        norm = Normalized(alpha=0.5, b=1.0, rho=0.0, mu=0.3, sigma=0.4)
        for l in (1e6, -1e6):
            s = g_split(norm, l)
            assert s.g1 == pytest.approx(3.0 / 16.0, abs=1e-4)

    def test_g2_independent_of_mu(self):
        a = g_split(Normalized(0.3, 0.8, -0.2, 0.0, 0.5), 1.3).g2
        b = g_split(Normalized(0.3, 0.8, -0.2, 5.0, 0.5), 1.3).g2
        assert a == b

    def test_rejects_non_positive_smile(self):
        # at alpha = -b*sqrt(1 - rho^2) the smile touches zero at its vertex
        tight = Normalized(alpha=-1.0, b=1.0, rho=0.0, mu=0.0, sigma=0.5)
        with pytest.raises(NonPositiveVariance):
            g_split(tight, 0.0)


class TestDensity:
    def test_integrates_to_one_when_free(self):
        p = MODEL_ROWS[0]

        def f(k):
            # density in K times dK/dk = K turns the integral into dk
            return density(p, k) * math.exp(k)

        # total variance grows linearly in |k|, so the k-density tail only
        # decays like exp(-(2-s)^2 |k| / (8s)) for wing slope s; the range
        # must be wide enough to capture it
        mass, err = quad(f, -600.0, 600.0, limit=500, points=[-2.0, 0.0, 2.0])
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert err < 1e-7

    def test_negative_somewhere_for_vogt(self):
        ks = np.linspace(-0.5, 1.0, 301)
        assert min(density(VOGT, float(k)) for k in ks) < 0.0

    def test_flat_smile_is_lognormal(self):
        a = 0.09
        p = SviParams(a=a, b=0.0, rho=0.0, m=0.0, sigma=0.5)
        theta = math.sqrt(a)
        for k in (-0.8, -0.2, 0.0, 0.3, 1.1):
            x = math.exp(k)
            want = math.exp(
                -0.5 * ((math.log(x) + 0.5 * theta * theta) / theta) ** 2
            ) / (x * theta * math.sqrt(2.0 * math.pi))
            assert density(p, k) == pytest.approx(want, rel=1e-13)

    def test_rejects_zero_variance(self):
        p = SviParams(a=-0.15, b=0.5, rho=0.0, m=0.0, sigma=0.3)
        with pytest.raises(NonPositiveVariance):
            density(p, 0.0)


class TestG2SignStructure:
    def test_two_sign_changes(self):
        # G2 is negative far out on both wings and positive between its
        # two zeros whenever the smile is non-degenerate
        norm = Normalized(alpha=0.1, b=0.5, rho=-0.3, mu=0.0, sigma=0.5)
        ls = np.linspace(-100.0, 100.0, 40001)
        signs = np.sign([g_split(norm, float(l)).g2 for l in ls])
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes == 2
        assert signs[0] < 0 and signs[-1] < 0
