"""Waterfall classification, the minimal curvature scale and the box map."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

import butterfree.domain as domain_module
from butterfree.arrays import durrleman_g, smile_terms
from butterfree.domain import (
    _profile_slope,
    _sigma_star_trusted,
    ArbitrageDiagnostic,
    BoxChart,
    BoxCoords,
    G2Zeros,
    Status,
    box_to_params,
    check_no_arbitrage,
    g2_zeros,
    params_to_box,
    sigma_star,
    sigma_star_profile,
)
from butterfree.errors import (
    ButterfreeError,
    DegenerateSigma,
    DomainError,
    FukasawaViolated,
    InvalidParams,
    NotInDomain,
    NumericFailure,
)
from butterfree.fukasawa import fukasawa_threshold, interval_with_optimizers, l_star, mu_interval
from butterfree.smile import SviParams, omega
from conftest import MODEL_ROWS, VOGT
from reference import Normalized, denormalize, g_split

#: Example with an off-center shift and both G2 zeros finite; its tail
#: deficit profile has one interior peak per side with the left one global.
FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU = 0.1, 0.5, -0.3, 0.1


def _boundary_boxes(rng: np.random.Generator, regime: str, n: int):
    """n criterion-5 box points (v = 0) with one coordinate pushed toward a
    boundary: 1 - |rho| to 1e-12, 2 - wing slope to 1e-9, u to 1e-9 or
    |q| to 0.999."""
    for _ in range(n):
        x = [rng.uniform(-0.95, 0.95), rng.uniform(0.05, 1.0), rng.uniform(1e-3, 3.0),
             rng.uniform(-0.95, 0.95), 0.0]
        sign = rng.choice((-1.0, 1.0))
        if regime == "rho":
            x[0] = sign * (1.0 - 10.0 ** rng.uniform(-12.0, -2.0))
        elif regime == "slope":
            x[1] = 1.0 - 0.5 * 10.0 ** rng.uniform(-9.0, -3.0)
        elif regime == "u":
            x[2] = 10.0 ** rng.uniform(-9.0, -3.0)
        else:
            x[3] = sign * rng.uniform(0.99, 0.999)
        yield tuple(float(c) for c in x)


def _brute_force_max(alpha: float, b: float, rho: float, mu: float) -> float:
    """The tail deficit's maximum over 100k reciprocal points per finite
    tail, with N, N', N'' in smile_terms' forms, which keep their digits
    as |rho| -> 1."""
    t = np.linspace(0.0, 1.0, 100_002)[1:-1]
    z = g2_zeros(alpha, b, rho)
    best = -math.inf
    for root in (z.l1, z.l2):
        if math.isfinite(root):
            l = root / t
            n0, n1, n2 = smile_terms(alpha, b, rho, l)
            shift = (l + mu) / (2.0 * n0)
            g1 = (1.0 - n1 * (shift + 0.25)) * (1.0 - n1 * (shift - 0.25))
            with np.errstate(divide="ignore"):
                best = max(best, float(np.max(-(n2 - n1 * n1 / (2.0 * n0)) / (2.0 * g1))))
    return best


def _grid_g(norm: Normalized, n: int = 2001, span: float = 20.0) -> np.ndarray:
    """Diagnostic g on k = sigma*(l + mu), l in [-span, span]."""
    p = denormalize(norm)
    ls = np.linspace(-span, span, n)
    return np.asarray(durrleman_g(p, p.sigma * (ls + norm.mu)))


class TestG2Zeros:
    def test_boundary_rho_one_sided(self):
        z = g2_zeros(0.0, 0.5, -1.0)
        assert z.l2 == math.inf
        assert z.l1 == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-10)
        mirrored = g2_zeros(0.0, 0.5, 1.0)
        assert mirrored.l1 == -math.inf
        assert mirrored.l2 == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-10)

    def test_symmetric_axis_against_direct_solve(self):
        # for rho = 0 the sign function reduces to
        # 2*alpha/b + (2 - l^2)*sqrt(l^2 + 1), even in l
        for alpha, b in [(0.0, 0.5), (0.3, 1.2), (1.0, 0.4)]:
            f = lambda l: 2.0 * alpha / b + (2.0 - l * l) * math.sqrt(l * l + 1.0)
            root = brentq(f, 1.0, 50.0, xtol=1e-14)
            z = g2_zeros(alpha, b, 0.0)
            assert z.l2 == pytest.approx(root, abs=1e-10)
            assert z.l1 == pytest.approx(-root, abs=1e-10)

    def test_frozen_example(self):
        z = g2_zeros(FIG_ALPHA, FIG_B, FIG_RHO)
        assert z.l1 == pytest.approx(-1.183374841063548, abs=1e-12)
        assert z.l2 == pytest.approx(1.9390767581621766, abs=1e-12)

    def test_zeros_straddle_vertex_and_origin(self):
        for alpha, b, rho in [(0.1, 0.5, -0.3), (0.0, 1.0, 0.6), (0.4, 0.8, 0.0)]:
            z = g2_zeros(alpha, b, rho)
            ls = l_star(rho)
            assert z.l1 < min(ls, 0.0)
            assert z.l2 > max(ls, 0.0)

    def test_sign_pattern(self):
        z = g2_zeros(FIG_ALPHA, FIG_B, FIG_RHO)
        norm = Normalized(FIG_ALPHA, FIG_B, FIG_RHO, 0.0, 1.0)
        assert g_split(norm, z.l1 - 0.1).g2 < 0.0
        assert g_split(norm, 0.5 * (z.l1 + z.l2)).g2 > 0.0
        assert g_split(norm, z.l2 + 0.1).g2 < 0.0
        # the roots themselves sit on the crossing
        assert g_split(norm, z.l1).g2 == pytest.approx(0.0, abs=1e-12)
        assert g_split(norm, z.l2).g2 == pytest.approx(0.0, abs=1e-12)

    def test_roots_survive_rho_near_one(self):
        # 1 - |rho| below 2e-8: the root on the rho*l < 0 side sits near
        # l = -1e5, where q's r^3 and l^3 terms cancel to all digits
        # unless taken together
        free = SviParams(0.0025851210057242354, 0.12771801537862099,
                         0.9999999807291249, 0.007510113493202234, 0.21143994659210888)
        bad = SviParams(0.02453139854711957, 0.4691800329357259,
                        0.9999999824632366, 0.03576679247104383, 0.26681915186593363)
        for p in (free, bad):
            alpha, b = p.a / p.sigma, p.b
            z = g2_zeros(alpha, b, p.rho)
            norm = Normalized(alpha, b, p.rho, 0.0, 1.0)
            assert -1e6 < z.l1 < -1e3
            assert g_split(norm, 1.001 * z.l1).g2 < 0.0 < g_split(norm, 0.999 * z.l1).g2
        assert check_no_arbitrage(free).is_free
        # brute force: g dips to about -0.033 on the bad smile
        assert check_no_arbitrage(bad).status is Status.FAILURE4

    @staticmethod
    def g2_draws(rng, n, rho_gap=None):
        """(alpha, b, rho) as screen draws them: a wing slope uniform on
        [0.1, 2.25] or within 1e-9 to 1e-3 of 2, alpha a log-uniform margin
        above its positivity floor; with rho_gap, 1 - |rho| is log-uniform
        over that range of exponents."""
        out = []
        for i in range(n):
            if rho_gap is not None:
                rho = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(*rho_gap))
            else:
                rho = rng.uniform(-0.95, 0.95)
            if i % 3 == 2:
                slope = 2.0 + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -3.0)
            else:
                slope = rng.uniform(0.1, 2.25)
            b = slope / (1.0 + abs(rho))
            alpha = -b * math.sqrt(1.0 - rho * rho) + 10.0 ** rng.uniform(-2.5, 0.2)
            out.append((float(alpha), float(b), float(rho)))
        return out

    @staticmethod
    def root_50_digits(alpha, b, rho, l):
        """The root of the exact q near l, to 50 digits; q must change sign
        within 1e-6 relative of l."""
        with mpmath.workdps(50):
            a_, b_, r_ = mpmath.mpf(alpha), mpmath.mpf(b), mpmath.mpf(rho)

            def q(x):
                r = mpmath.sqrt(x * x + 1)
                return 2 * a_ / b_ + (2 - x * x) * r - r_ * r_ * r ** 3 - 2 * r_ * x ** 3

            width = mpmath.mpf(l) * mpmath.mpf("1e-6")
            lo, hi = mpmath.mpf(l) - width, mpmath.mpf(l) + width
            assert q(lo) * q(hi) < 0
            return mpmath.findroot(q, (lo, hi), solver="anderson")

    def test_roots_match_a_50_digit_root(self):
        # near |rho| = 1 (the probe's range, 1 - |rho| from 1e-8 to 1e-6,
        # and screen's, down to 1e-5) the far root's terms 3r and 2|rho|T
        # would cancel by up to seven digits; q takes their difference
        # from an exact identity, so those roots hold to rounding
        rng = np.random.default_rng(20)
        for rho_gap, tol in ((None, 1e-11), ((-5.0, -2.0), 1e-14), ((-8.0, -6.0), 1e-14)):
            for alpha, b, rho in self.g2_draws(rng, 200, rho_gap):
                z = g2_zeros(alpha, b, rho)
                for l in (z.l1, z.l2):
                    exact = self.root_50_digits(alpha, b, rho, l)
                    assert float(abs((l - exact) / exact)) <= tol, (alpha, b, rho, l)

    def test_rejects_non_positive_smile(self):
        with pytest.raises(DomainError):
            g2_zeros(-0.5, 0.5, 0.0)
        with pytest.raises(DomainError):
            g2_zeros(-0.1, 0.5, -1.0)
        with pytest.raises(DomainError):
            g2_zeros(0.1, 0.0, 0.0)


class TestSigmaStarProfile:
    def test_two_interior_peaks(self):
        z = g2_zeros(FIG_ALPHA, FIG_B, FIG_RHO)
        for lo, hi in ((1.0 / z.l1, 0.0), (0.0, 1.0 / z.l2)):
            hs = np.linspace(lo, hi, 400)[1:-1]
            vals = [
                sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, float(h))
                for h in hs
            ]
            i = int(np.argmax(vals))
            assert 0 < i < len(hs) - 1
            assert vals[i] > 0.0

    def test_vanishes_toward_the_wings(self):
        # h -> 0 means |l| -> inf where the deficit decays like 1/|l|
        for h in (-1e-7, 1e-7):
            assert sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, h) < 1e-5

    def test_vanishes_at_the_zeros(self):
        z = g2_zeros(FIG_ALPHA, FIG_B, FIG_RHO)
        v = sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 1.0 / z.l1)
        assert abs(v) < 1e-10

    @pytest.mark.parametrize("h", [1e-200, -1e-200])
    def test_decays_like_h_far_out(self, h):
        # at l = 1/h, past where l*l and r^5 overflow, the deficit keeps
        # falling like |h|, at the rate it has at l = +-1e62
        near = sigma_star_profile(0.1, 0.5, -0.3, 0.05, math.copysign(1e-62, h))
        far = sigma_star_profile(0.1, 0.5, -0.3, 0.05, h)
        assert far / abs(h) == pytest.approx(near / 1e-62, rel=1e-12)

    def test_symmetric_smile_has_even_profile(self):
        # rho = 0, mu = 0: both tails carry the same deficit
        for h in (0.1, 0.25, 0.4):
            left = sigma_star_profile(0.2, 0.7, 0.0, 0.0, -h)
            right = sigma_star_profile(0.2, 0.7, 0.0, 0.0, h)
            assert left == pytest.approx(right, abs=1e-14)

    def test_rejects_h_zero(self):
        with pytest.raises(DomainError):
            sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 0.0)

    def test_rejects_a_non_positive_smile(self):
        # alpha + b = 0: N rounds to 0 at l = 1e-8, which the deficit divides by
        with pytest.raises(DomainError, match="positive smile"):
            sigma_star_profile(-1.0, 1.0, 0.0, 0.0, 1e8)
        with pytest.raises(DomainError, match="positive smile"):
            sigma_star_profile(-0.1, 0.5, 1.0, 0.0, 1.0)

    def test_n_rounding_to_zero_is_a_numeric_failure(self):
        # alpha = 0, b = 1e-300, rho = 1 is a positive smile, but N(l)
        # rounds to 0 at l = -1e300, where the deficit divides by it
        with pytest.raises(NumericFailure, match="rounds to 0"):
            sigma_star_profile(0.0, 1e-300, 1.0, 0.0, -1e-300)


class TestSigmaStar:
    def test_frozen_values(self):
        s, h = _sigma_star_trusted(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)[:2]
        assert s == pytest.approx(0.12355390516143426, abs=1e-10)
        assert h == pytest.approx(-0.32080853785732955, abs=1e-6)
        assert sigma_star(0.2, 0.8, -0.3, 0.1) == pytest.approx(
            0.21934671178848777, abs=1e-10
        )

    def test_argmax_attains_the_supremum(self):
        s, h = _sigma_star_trusted(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)[:2]
        assert sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, h) == pytest.approx(
            s, rel=1e-9
        )

    def test_symmetric_sides_agree(self):
        # equal side maxima must not confuse the scan
        z = g2_zeros(0.2, 0.7, 0.0, )
        s, h = _sigma_star_trusted(0.2, 0.7, 0.0, 0.0)[:2]
        left = max(
            sigma_star_profile(0.2, 0.7, 0.0, 0.0, float(x))
            for x in np.linspace(1.0 / z.l1, 0.0, 2000)[1:-1]
        )
        assert s == pytest.approx(left, rel=1e-7)

    def test_profile_slope_matches_central_differences(self):
        for l in (-30.0, -2.5, -1.4, 2.2, 4.0, 300.0):
            step = 1e-5 * abs(l)
            slope, curvature = _profile_slope(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, l)

            def value(x):
                return sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 1.0 / x)

            want = (value(l + step) - value(l - step)) / (2 * step)
            assert slope == pytest.approx(want, rel=1e-6, abs=1e-12)
            want = (
                _profile_slope(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, l + step)[0]
                - _profile_slope(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, l - step)[0]
            ) / (2 * step)
            assert curvature == pytest.approx(want, rel=1e-6, abs=1e-12)

    def test_slope_vanishes_exactly_where_the_profile_is_infinite(self):
        # with mu on an interval wall G1 touches zero at the wall's
        # optimizer, and its rounding decides point by point where the
        # deficit is +inf
        interval, l_m, l_p = interval_with_optimizers(FIG_ALPHA, FIG_B, FIG_RHO)
        infinite = 0
        for mu, l0 in ((interval.lower, l_m), (interval.upper, l_p)):
            for l in l0 * (1.0 + 1e-9 * np.arange(-200, 201)):
                value = sigma_star_profile(FIG_ALPHA, FIG_B, FIG_RHO, mu, 1.0 / l)
                slope = _profile_slope(FIG_ALPHA, FIG_B, FIG_RHO, mu, float(l))
                assert (slope == (0.0, 0.0)) == math.isinf(value)
                infinite += math.isinf(value)
        assert 0 < infinite < 802

    def test_never_below_brute_force(self):
        # the supremum against the tail deficit on 100k reciprocal points
        # per tail, computed here from N, N', N'' directly; 1e-12 relative
        # allows for the profile's own rounding
        def deficit(alpha, b, rho, mu, h):
            l = 1.0 / h
            r = np.sqrt(l * l + 1.0)
            n0 = alpha + b * (rho * l + r)
            n1 = b * (rho + l / r)
            n2 = b / r**3
            shift = (l + mu) / (2.0 * n0)
            g1 = (1.0 - n1 * (shift + 0.25)) * (1.0 - n1 * (shift - 0.25))
            return -(n2 - n1 * n1 / (2.0 * n0)) / (2.0 * g1)

        t = np.linspace(0.0, 1.0, 100_002)[1:-1]
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 200:
            rho = rng.uniform(-0.99, 0.99)
            b = rng.uniform(0.05, 2.0) / (1.0 + abs(rho))
            floor = -b * math.sqrt(1.0 - rho * rho)
            alpha = floor + math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            mu = rng.uniform(-2.0, 2.0)
            status = check_no_arbitrage(SviParams(alpha, b, rho, mu, 1.0)).status
            if status not in (Status.FREE, Status.FAILURE4):
                continue
            checked += 1
            s = sigma_star(alpha, b, rho, mu)
            z = g2_zeros(alpha, b, rho)
            brute = max(
                float(np.max(deficit(alpha, b, rho, mu, t / z.l1))),
                float(np.max(deficit(alpha, b, rho, mu, t / z.l2))),
            )
            assert s >= brute * (1.0 - 1e-12), (alpha, b, rho, mu, s, brute)

    @pytest.mark.parametrize("regime", ["rho", "slope", "u", "q"])
    def test_boundary_regimes_never_below_brute_force(self, regime):
        # box points pushed into one boundary regime each: 1 - |rho| down
        # to 1e-12, a wing slope within 1e-9 of 2, u down to 1e-9 and q
        # out to +-0.999, against the brute force's 100k points per tail
        for x in _boundary_boxes(np.random.default_rng(6), regime, 25):
            p = BoxChart().point(x)
            brute = _brute_force_max(p.alpha, p.b, p.x[0], p.mu)
            assert p.sigma_star >= brute * (1.0 - 1e-12), (x, p.sigma_star, brute)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5: at u = 3.5e-9 G1 loses its digits, so the float "
        "deficit is noise at 1e-6 of its value and the brute-force maximum "
        "over 100k noisy points reads above sigma_star"
    ))
    def test_below_brute_force_where_g1_is_noise(self):
        x = (-0.09727356920068653, 0.46563020711082115, 3.5441294803482658e-09,
             0.8571397359303776, 0.0)
        p = BoxChart().point(x)
        brute = _brute_force_max(p.alpha, p.b, p.x[0], p.mu)
        assert p.sigma_star >= brute * (1.0 - 1e-12)

    @pytest.mark.parametrize("alpha, b, rho", [
        (FIG_ALPHA, FIG_B, FIG_RHO), (-0.041 / 0.4153, 0.1331, 0.306), (0.05, 1.2, 0.5),
    ])
    def test_a_few_ulps_inside_a_wall(self, alpha, b, rho):
        # beside the wall's optimizer G1 is within a few ulps of zero or
        # rounds to it, so sigma_star is above 1e12 or +inf there, and the
        # smile is Failure4 at sigma = 2 and at 2e12; a little further in,
        # the value is finite and below 1e12 again
        interval = interval_with_optimizers(alpha, b, rho)[0]
        for wall, inward in ((interval.lower, 1.0), (interval.upper, -1.0)):
            for ulps in (1, 4, 2**20):
                mu = wall + inward * ulps * math.ulp(wall)
                s = sigma_star(alpha, b, rho, mu)
                assert (s > 1e12) == (ulps < 2**20), (wall, ulps, s)
                for sigma in (2.0, 2e12) if s > 1e12 else (2.0,):
                    params = SviParams(sigma * alpha, b, rho, sigma * mu, sigma)
                    status = check_no_arbitrage(params).status
                    assert status is Status.FAILURE4, (wall, ulps, sigma)

    def test_profile_slope_calls_per_tail(self, monkeypatch):
        # the walk from each G2 root and its one Newton solve, counted per
        # sigma_star solve on 200 criterion-5 chart points (two finite
        # tails each); the images of those points solve sigma_star again
        # only where (a/sigma, m/sigma) misses the chart's (alpha, mu)
        calls, solves = [], []
        slope = domain_module._profile_slope
        solve = domain_module._sigma_star_trusted

        def counted_slope(*args):
            calls.append(args)
            return slope(*args)

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(domain_module, "_profile_slope", counted_slope)
        monkeypatch.setattr(domain_module, "_sigma_star_trusted", counted_solve)
        rng = np.random.default_rng(3)
        per_tail, per_image = [], []
        for _ in range(200):
            x = (rng.uniform(-0.95, 0.95), rng.uniform(0.05, 1.0), rng.uniform(1e-3, 3.0),
                 rng.uniform(-0.95, 0.95), rng.uniform(0.0, 2.0))
            calls.clear()
            BoxChart().point(x)
            per_tail.append(len(calls) / 2)
            solves.clear()
            box_to_params(BoxCoords(*x))
            per_image.append(len(solves))
        assert sum(per_tail) / len(per_tail) <= 9.5
        assert max(per_tail) <= 13
        assert sum(per_image) / len(per_image) <= 1.3

    def test_rejects_mu_outside_interval(self):
        with pytest.raises(FukasawaViolated):
            sigma_star(FIG_ALPHA, FIG_B, FIG_RHO, 5.0)

    def test_floor_is_sharp(self):
        # at sigma just above the floor the diagnostic clears zero
        # everywhere; just below it dips negative near the argmax strike
        s, h = _sigma_star_trusted(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)[:2]
        above = Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, s * (1 + 1e-6))
        assert np.min(_grid_g(above)) >= -1e-12
        below = denormalize(
            Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 0.9 * s)
        )
        k_worst = below.sigma * (1.0 / h + FIG_MU)
        assert durrleman_g(below, k_worst) < 0.0


class TestCheckNoArbitrage:
    def test_classic_example_fails_on_the_shift(self):
        diag = check_no_arbitrage(VOGT)
        assert diag.status is Status.FAILURE3
        assert not diag.is_free
        assert diag.exit_code == 4
        assert diag.threshold is not None and diag.alpha > diag.threshold
        assert diag.interval is not None
        assert not diag.interval.contains(diag.mu)
        assert diag.sigma_star is None
        assert "interval" in diag.message

    def test_wing_slope_failure(self):
        diag = check_no_arbitrage(SviParams(a=0.1, b=3.0, rho=0.0, m=0.0, sigma=0.1))
        assert diag.status is Status.FAILURE1
        assert diag.exit_code == 2
        assert diag.slope_left == 3.0 and diag.slope_right == 3.0

    def test_threshold_failure(self):
        # alpha = -0.4999 sits below F(0.5, 0) = -0.49957 while the smile
        # minimum 0.0001 is still positive
        diag = check_no_arbitrage(
            SviParams(a=-0.4999, b=0.5, rho=0.0, m=0.0, sigma=1.0)
        )
        assert diag.status is Status.FAILURE2
        assert diag.exit_code == 3
        assert diag.threshold == pytest.approx(-0.4995678944855586, abs=1e-12)

    def test_curvature_failure(self):
        s = sigma_star(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)
        p = denormalize(Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 0.5 * s))
        diag = check_no_arbitrage(p)
        assert diag.status is Status.FAILURE4
        assert diag.exit_code == 5
        assert diag.sigma_star == pytest.approx(s, rel=1e-12)

    def test_model_rows_are_free(self):
        for p in MODEL_ROWS:
            diag = check_no_arbitrage(p)
            assert diag.is_free, diag.message
            assert diag.exit_code == 0

    def test_flat_smile_short_circuits(self):
        diag = check_no_arbitrage(SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, sigma=0.3))
        assert diag.is_free
        assert "flat" in diag.message
        assert diag.alpha is None

    def test_degenerate_sigma_raises(self):
        with pytest.raises(DegenerateSigma):
            check_no_arbitrage(SviParams(a=0.1, b=0.5, rho=0.0, m=0.0, sigma=0.0))

    def test_minimum_within_rounding_of_zero_gets_a_verdict(self):
        # a within two ulps of the floor -b*sigma*sqrt(1-rho^2), so the
        # smile's minimum is 0 to within rounding; where SviParams accepts
        # it, alpha = a/sigma may still sit below -b*sqrt(1-rho^2) in floats,
        # which is below F: Failure1 or Failure2, never an error.  At
        # |rho| = 1 the floor is 0, alpha >= 0 and any verdict stands.
        rng = np.random.default_rng(27)
        seen = {status: 0 for status in Status}
        below_floor = 0
        for _ in range(2000):
            rho = float(rng.choice([rng.uniform(-1.0, 1.0), -1.0, 1.0,
                                    math.copysign(1.0 - 10.0 ** rng.uniform(-12.0, -2.0),
                                                  rng.uniform(-1.0, 1.0))]))
            b = rng.uniform(0.05, 2.6) / (1.0 + abs(rho))
            sigma = 10.0 ** rng.uniform(-2.0, 1.0)
            a = -b * sigma * math.sqrt(omega(rho))
            for _ in range(int(rng.integers(0, 3))):
                a = math.nextafter(a, math.inf)
            p = SviParams(a=a, b=b, rho=rho, m=rng.uniform(-1.0, 1.0), sigma=sigma)
            status = check_no_arbitrage(p).status
            seen[status] += 1
            alpha = a / sigma
            below_floor += alpha + b * math.sqrt(omega(rho)) < 0.0
            if abs(rho) < 1.0:
                assert status in (Status.FAILURE1, Status.FAILURE2), p
        assert below_floor > 20 and seen[Status.FAILURE1] > 100 and seen[Status.FAILURE2] > 100

    def test_alpha_within_rounding_of_threshold_gets_a_verdict(self):
        # alpha = F moved by a few ulps, with 1 - |rho| down to 1e-8 or a
        # wing slope within 1e-9 of 2 on a share of the draws: the float
        # interval at alpha may be empty with alpha above the float F.
        # Every smile gets a verdict, and it is Failure2 exactly where
        # mu_interval finds the interval empty
        rng = np.random.default_rng(29)
        empty_above_f = non_failure2 = 0
        for _ in range(200):
            u = rng.uniform()
            if u < 0.15:
                rho = rng.choice((-1.0, 1.0)) * (1.0 - 10.0 ** rng.uniform(-8.0, -2.0))
                slope = rng.uniform(0.1, 1.99)
            elif u < 0.3:
                rho = rng.uniform(-0.9, 0.9)
                slope = 2.0 - 10.0 ** rng.uniform(-9.0, -3.0)
            else:
                rho, slope = rng.uniform(-0.95, 0.95), rng.uniform(0.1, 1.99)
            b = slope / (1.0 + abs(rho))
            threshold = fukasawa_threshold(b, rho)
            mu, sigma = rng.uniform(-1.3, 1.3), rng.choice((0.3, 50.0))
            for ulps in (-2, -1, 0, 1, 2, 8, 64):
                alpha = threshold
                for _ in range(abs(ulps)):
                    alpha = math.nextafter(alpha, math.copysign(math.inf, ulps))
                p = SviParams(a=alpha * sigma, b=b, rho=rho, m=mu * sigma, sigma=sigma)
                diag = check_no_arbitrage(p)
                try:
                    mu_interval(diag.alpha, b, rho)
                    empty = False
                except FukasawaViolated:
                    empty = True
                assert (diag.status is Status.FAILURE2) == empty, p
                empty_above_f += empty and diag.alpha > threshold
                non_failure2 += not empty
        assert empty_above_f > 10 and non_failure2 > 200

    def test_waterfall_solves_no_threshold(self, monkeypatch):
        # F is solved when a diagnostic's threshold is first read, once
        calls = []

        def counted(b, rho):
            calls.append((b, rho))
            return fukasawa_threshold(b, rho)

        monkeypatch.setattr(domain_module, "fukasawa_threshold", counted)
        s = sigma_star(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)
        smiles = {
            Status.FAILURE2: SviParams(a=-0.4999, b=0.5, rho=0.0, m=0.0, sigma=1.0),
            Status.FAILURE3: VOGT,
            Status.FAILURE4: denormalize(Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, 0.5 * s)),
            Status.FREE: MODEL_ROWS[0],
        }
        for status, p in smiles.items():
            calls.clear()
            diag = check_no_arbitrage(p)
            assert diag.status is status
            assert calls == []
            assert diag.threshold == diag.threshold
            assert calls == [(p.b, p.rho)]

    def test_threshold_is_f_of_b_and_rho(self):
        # screen's draw: alpha a log-uniform margin over the positivity floor
        rng = np.random.default_rng(30)
        seen = set()
        for _ in range(300):
            rho = rng.uniform(-0.95, 0.95)
            b = rng.uniform(0.1, 2.25) / (1.0 + abs(rho))
            alpha = -b * math.sqrt(omega(rho)) + 10.0 ** rng.uniform(-2.5, 0.2)
            sigma = 10.0 ** rng.uniform(-1.3, 0.4)
            p = SviParams(a=alpha * sigma, b=b, rho=rho, m=rng.uniform(-1.3, 1.3) * sigma,
                          sigma=sigma)
            diag = check_no_arbitrage(p)
            seen.add(diag.status)
            if diag.status is Status.FAILURE1:
                assert diag.threshold is None
            else:
                assert repr(diag.threshold) == repr(fukasawa_threshold(b, rho))
        assert seen == set(Status)
        flat = SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, sigma=0.3)
        assert check_no_arbitrage(flat).threshold is None

    def test_overflowing_normalized_params_raise(self):
        with pytest.raises(InvalidParams):
            check_no_arbitrage(SviParams(a=1e300, b=0.5, rho=0.0, m=0.0, sigma=1e-10))
        with pytest.raises(InvalidParams):
            check_no_arbitrage(SviParams(a=0.1, b=0.5, rho=0.0, m=-1e300, sigma=1e-10))

    @pytest.mark.parametrize(
        "sigma", [1e-90, 1e-100, 1e-120, 1e-150, 1e-200, 1e-250, 1e-300, 1e-307]
    )
    def test_extreme_alpha_is_never_free(self, sigma):
        # alpha = 0.1/sigma, and g(0.1) = -0.75 for each of these smiles.
        # Each tail of G peaks at |l| = (2/sqrt(3) - 1)*alpha, to leading
        # order in 1/alpha, where the deficit is (2 - sqrt(3))/alpha (the
        # same to 25 digits in a 50-digit maximization at alpha = 1e89,
        # 1e119 and 1e159).  Past alpha of about 3e153 the slope of G2 is
        # subnormal on the way there and N''' rounds to 0, so the walk
        # raises instead of reading a false turn
        p = SviParams(a=0.1, b=1.0, rho=0.0, m=0.0, sigma=sigma)
        assert durrleman_g(p, 0.1) < 0.0
        if sigma < 1e-154:
            with pytest.raises(NumericFailure):
                check_no_arbitrage(p)
            return
        diag = check_no_arbitrage(p)
        assert diag.status is Status.FAILURE4
        assert diag.sigma_star * diag.alpha == pytest.approx(2.0 - math.sqrt(3.0), rel=1e-14)

    def test_sigma_star_boundary_flip(self):
        s = sigma_star(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU)
        above = denormalize(
            Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, s * (1 + 1e-8))
        )
        below = denormalize(
            Normalized(FIG_ALPHA, FIG_B, FIG_RHO, FIG_MU, s * (1 - 1e-8))
        )
        assert check_no_arbitrage(above).is_free
        assert check_no_arbitrage(below).status is Status.FAILURE4

    def test_noisy_profile_turn_near_rho_minus_one(self):
        # 1 - |rho| = 1.06e-5: the tail profile's l-derivative near
        # l = 1036 carries rounding noise wider than the root tolerance,
        # so Newton steps alone hop between two points there until
        # MaxIterations; g is about -0.712 near k = -0.225
        p = SviParams(
            a=-6.73605611809143e-05, b=0.8938322550910699, rho=-0.9999893861052941,
            m=0.08411513653337155, sigma=0.15064348983317047,
        )
        assert check_no_arbitrage(p).status is Status.FAILURE4
        assert np.min(durrleman_g(p, np.linspace(-1.0, 1.0, 2001))) < -0.7

    def test_free_verdict_means_non_negative_g(self):
        for p in MODEL_ROWS:
            assert np.min(_grid_g(Normalized.of(p))) >= -1e-12


class TestDifferentialOracle:
    """The waterfall against a brute-force minimum of g on random smiles."""

    def test_verdicts_match_brute_force(self):
        # |l| <= 1e4, dense where the smile bends
        far = np.geomspace(60.0, 1e4, 1500)
        l_grid = np.concatenate([-far[::-1], np.linspace(-60.0, 60.0, 12001), far])
        rng = np.random.default_rng(11)
        seen = {status: 0 for status in Status}
        for _ in range(800):
            rho = rng.uniform(-0.99, 0.99)
            b = rng.uniform(0.05, 2.3) / (1.0 + abs(rho))
            floor = -b * math.sqrt(1.0 - rho * rho)
            alpha = floor + math.exp(rng.uniform(math.log(1e-3), math.log(2.0)))
            mu = rng.uniform(-2.0, 2.0)
            sigma = math.exp(rng.uniform(math.log(0.02), math.log(3.0)))
            params = SviParams(alpha * sigma, b, rho, mu * sigma, sigma)
            status = check_no_arbitrage(params).status
            seen[status] += 1
            where = (rho, b, alpha, mu, sigma, status)

            over = max(b * (1.0 - rho), b * (1.0 + rho)) > 2.0
            assert (status is Status.FAILURE1) == over, where
            if status is Status.FAILURE1:
                # g may turn negative only beyond the grid
                continue
            g_min = float(np.min(durrleman_g(params, sigma * (l_grid + mu))))
            assert (status is Status.FREE) == (g_min >= -1e-10), (where, g_min)
            if status is Status.FAILURE4:
                h = _sigma_star_trusted(alpha, b, rho, mu)[1]
                assert durrleman_g(params, sigma * (1.0 / h + mu)) < 0.0, where
        assert min(seen.values()) >= 50, seen


class TestBoxCoords:
    def test_validation(self):
        BoxCoords(rho=0.0, b_prime=1.0, u=0.1, q=0.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=1.0, b_prime=0.5, u=0.1, q=0.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=0.0, b_prime=0.0, u=0.1, q=0.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=0.0, b_prime=1.5, u=0.1, q=0.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=0.0, b_prime=0.5, u=0.0, q=0.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=0.0, b_prime=0.5, u=0.1, q=-1.0, v=0.0)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=0.0, b_prime=0.5, u=0.1, q=0.0, v=-0.1)
        with pytest.raises(NotInDomain):
            BoxCoords(rho=math.nan, b_prime=0.5, u=0.1, q=0.0, v=0.0)


def interior_box(rng: np.random.Generator) -> BoxCoords:
    return BoxCoords(
        rho=float(rng.uniform(-0.95, 0.95)),
        b_prime=float(rng.uniform(0.05, 1.0)),
        u=float(rng.uniform(1e-3, 2.0)),
        q=float(rng.uniform(-0.95, 0.95)),
        v=float(rng.uniform(0.0, 1.0)),
    )


def floor_box(rng: np.random.Generator) -> BoxCoords:
    """A box point on the face v = 0, where a rebuilt (alpha, mu) can move
    the floor above sigma: read from (alpha*sigma, mu*sigma) alone, 10 of
    200 drawn from seed 7 come back Failure4."""
    return BoxCoords(
        rho=float(rng.uniform(-0.95, 0.95)),
        b_prime=float(rng.uniform(0.01, 0.99)),
        u=float(10.0 ** rng.uniform(-3.0, 0.5)),
        q=float(rng.uniform(-0.999, 0.999)),
        v=0.0,
    )


class TestBoxMap:
    def test_centered_q_hits_interval_midpoint(self):
        box = BoxCoords(rho=-0.3, b_prime=0.6, u=0.4, q=0.0, v=0.1)
        diag = check_no_arbitrage(box_to_params(box))
        mid = 0.5 * (diag.interval.lower + diag.interval.upper)
        assert diag.mu == pytest.approx(mid, abs=1e-12)

    def test_v_zero_lands_on_the_floor(self):
        box = BoxCoords(rho=0.2, b_prime=0.5, u=0.3, q=0.2, v=0.0)
        p = box_to_params(box)
        diag = check_no_arbitrage(p)
        assert diag.is_free
        assert p.sigma == pytest.approx(diag.sigma_star, rel=1e-12)

    def test_b_prime_rescales_larger_slope(self):
        box = BoxCoords(rho=-0.4, b_prime=0.8, u=0.2, q=0.0, v=0.05)
        p = box_to_params(box)
        assert p.b * (1.0 + abs(p.rho)) == pytest.approx(2.0 * 0.8, abs=1e-14)

    def test_round_trip(self):
        box = BoxCoords(rho=-0.3, b_prime=0.6, u=0.4, q=0.25, v=0.15)
        back = params_to_box(box_to_params(box))
        assert back.rho == pytest.approx(box.rho, abs=1e-12)
        assert back.b_prime == pytest.approx(box.b_prime, abs=1e-12)
        assert back.u == pytest.approx(box.u, abs=1e-10)
        assert back.q == pytest.approx(box.q, abs=1e-8)
        assert back.v == pytest.approx(box.v, abs=1e-8)

    @pytest.mark.parametrize("seed, count, draw", [
        pytest.param(3, 50, interior_box, id="interior"),
        pytest.param(7, 200, floor_box, id="v-zero"),
    ])
    def test_sampled_boxes_are_free(self, seed, count, draw):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            box = draw(rng)
            diag = check_no_arbitrage(box_to_params(box))
            assert diag.is_free, (box, diag.message)

    def test_tiny_b_margin_is_kept(self):
        # b = 1e-7: alpha sits 1e-10 above a threshold only ~1e-9 above the
        # positivity floor
        box = BoxCoords(rho=0.73, b_prime=8.65e-8, u=1e-10, q=0.0, v=0.01)
        p = box_to_params(box)
        diag = check_no_arbitrage(p)
        assert diag.is_free, diag.message
        assert diag.alpha - diag.threshold == pytest.approx(1e-10, rel=1e-6, abs=0.0)
        box_to_params(BoxCoords(rho=0.73, b_prime=8.65e-8, u=1e-10, q=0.0, v=0.0))

    def test_infinite_floor_has_no_image(self):
        # q one ulp short of 1 puts mu where G1 rounds to zero on a tail, so
        # the floor is +inf; read as 1e12, it gave a smile with g = -1.7e-14
        # at k = 2.28e12 in 50 digits
        x = (-0.3, 0.5, 0.2, 1.0 - 2.0**-53, 0.0)
        assert BoxChart().point(x).sigma_star == math.inf
        with pytest.raises(ButterfreeError):
            box_to_params(BoxCoords(*x))

    def test_alpha_cap_holds_where_the_room_is_tiny(self):
        # room = alpha_cap - F is about 2.5e-12 here, and alpha lands on
        # the cap, not above it
        p = BoxChart(alpha_cap=1e-12).point((0.3, 1e-12, 1.0, 0.0, 0.1))
        assert p.alpha <= 1e-12
        assert check_no_arbitrage(SviParams(*p.raw)).is_free

    def test_alpha_cap_holds_exactly_where_it_binds(self):
        # criterion-5 points with u from the cap up, so the clamp binds on
        # most; F + (alpha_cap - F) rounds above the cap on 1.6% of them at
        # alpha_cap = 1, 27% at 0.1 and 35% where the cap is tiny and b'
        # reaches 1e-14, so |F| >> alpha_cap
        rng = np.random.default_rng(5)
        for cap, n in ((1.0, 1000), (0.1, 1000), (None, 500)):
            for _ in range(n):
                c = float(10.0 ** rng.uniform(-14.0, -6.0)) if cap is None else cap
                b_prime = (float(10.0 ** rng.uniform(-14.0, 0.0)) if cap is None
                           else float(rng.uniform(0.05, 1.0)))
                x = (float(rng.uniform(-0.95, 0.95)), b_prime, float(rng.uniform(c, c + 3.0)),
                     float(rng.uniform(-0.95, 0.95)), float(rng.uniform(0.0, 2.0)))
                chart = BoxChart(c)
                p = chart.point(x)
                assert p.alpha <= c, (c, x, p.alpha)
                assert check_no_arbitrage(chart.image(p)).is_free, (c, x)

    def test_edge_boxes_certify_free_or_raise(self):
        # criterion-5 ranges pushed to the box edges: u log-uniform down to
        # 1e-9, b' down to 1e-6, |q| up to 0.999, and v = 0 on half the
        # points, log-uniform down to 1e-12 on the rest; read from
        # (alpha*sigma, mu*sigma) alone, about 4% re-certify as Failure4
        rng = np.random.default_rng(11)
        for _ in range(2000):
            box = BoxCoords(
                rho=float(rng.uniform(-0.95, 0.95)),
                b_prime=float(10.0 ** rng.uniform(-6.0, 0.0)),
                u=float(10.0 ** rng.uniform(-9.0, math.log10(3.0))),
                q=float(rng.uniform(-0.999, 0.999)),
                v=0.0 if rng.uniform() < 0.5 else float(10.0 ** rng.uniform(-12.0, 0.0)),
            )
            try:
                params = box_to_params(box)
            except ButterfreeError:
                continue
            diag = check_no_arbitrage(params)
            assert diag.is_free, (box, diag.message)

    def test_inverse_rejects_non_free(self):
        with pytest.raises(NotInDomain):
            params_to_box(VOGT)

    def test_inverse_rejects_free_smile_at_the_float_threshold(self):
        # the float interval at alpha is open, so the waterfall says Free,
        # but alpha is the float F (4.5e-16 above the 50-digit F) and u = 0
        p = SviParams(a=-1985022734708868.2, b=1.1019226743512796, rho=0.5076341479016909,
                      m=328978350104054.75, sigma=2251799813685248.0)
        diag = check_no_arbitrage(p)
        assert diag.is_free and diag.alpha == diag.threshold
        with pytest.raises(NotInDomain, match="does not exceed the float threshold"):
            params_to_box(p)

    def test_inverse_rejects_flat_and_boundary_rho(self):
        with pytest.raises(NotInDomain):
            params_to_box(SviParams(a=0.04, b=0.0, rho=0.0, m=0.0, sigma=0.3))
        with pytest.raises(NotInDomain):
            params_to_box(SviParams(a=0.1, b=0.5, rho=1.0, m=0.0, sigma=0.3))


class TestBoxChartProjection:
    LOWER = (-1.0 + 1e-6, 1e-6, 1e-6, -1.0 + 1e-6, 0.0)
    UPPER = (1.0 - 1e-6, 1.0, 3.0, 1.0 - 1e-6, 10.0)

    def test_inverts_the_chart_inside_the_box(self):
        chart = BoxChart()
        rng = np.random.default_rng(8)
        for _ in range(30):
            x = rng.uniform((-0.9, 0.05, 1e-3, -0.9, 0.0), (0.9, 1.0, 2.0, 0.9, 2.0))
            back = chart.project(SviParams(*chart.point(x).raw), self.LOWER, self.UPPER)
            assert np.allclose(back.x, x, rtol=1e-9, atol=1e-9), (x, back.x)

    def test_lands_inside_the_box_from_an_arbitrageable_smile(self):
        chart = BoxChart(alpha_cap=1.0)
        point = chart.project(VOGT, self.LOWER, self.UPPER)
        x = np.array(point.x)
        assert np.all(x >= self.LOWER) and np.all(x <= self.UPPER)
        # q keeps off the interval walls, where sigma_star blows up
        assert abs(x[3]) <= 1.0 - 1e-3
        assert point.alpha <= 1.0
        # the projection is the chart point of its own coordinates
        assert repr(point) == repr(chart.point(x))

    def test_solves_each_stage_once(self, monkeypatch):
        import butterfree.domain as domain_module

        calls = []

        def counted(name, solve):
            def wrapper(*args):
                calls.append(name)
                return solve(*args)
            return wrapper

        stages = ("fukasawa_threshold", "threshold_with_optimizers", "mu_interval",
                  "interval_with_optimizers", "g2_zeros", "_sigma_star_trusted")
        for name in stages:
            monkeypatch.setattr(domain_module, name, counted(name, getattr(domain_module, name)))
        for params in (VOGT, MODEL_ROWS[2]):
            calls.clear()
            BoxChart(alpha_cap=1.0).project(params, self.LOWER, self.UPPER)
            assert sorted(calls) == [
                "_sigma_star_trusted", "g2_zeros", "interval_with_optimizers",
                "threshold_with_optimizers",
            ], calls
