"""Acceptance suite: one test per shipped guarantee, at the stated tolerance.

Run with -v (or -s for the timing lines) to get one pass/fail line per
criterion.  Budgets are wall-clock and generous; the point is to catch
pathological slowdowns, not to benchmark.
"""

import math
import time

import numpy as np
from conftest import (
    GATHERAL_JACQUIER,
    MODEL_GRID,
    MODEL_ROWS,
    VOGT,
    model_slice,
    params_vector,
    rel_fro,
)
from reference import threshold_rho0_closed_form

from butterfree.arrays import durrleman_g, svi
from butterfree.black_scholes import call_price
from butterfree.calibration import CalibrationConfig, calibrate
from butterfree.domain import (
    _sigma_star_trusted,
    BoxCoords,
    Status,
    box_to_params,
    check_no_arbitrage,
    g2_zeros,
)
from butterfree.fukasawa import (
    L_minus,
    L_plus,
    fukasawa_threshold,
    g_pm,
    l_pm_of_alpha,
    l_star,
    mu_interval,
)
from butterfree.market_data import (
    build_vol_slice,
    infer_forward_discount,
    load_chain,
    year_fraction,
)
from butterfree.smile import SviParams


def test_criterion_1_vogt_diagnostic_values():
    start = time.perf_counter()
    alpha = VOGT.a / VOGT.sigma
    assert abs(alpha - (-0.09872)) <= 1e-4
    threshold = fukasawa_threshold(VOGT.b, VOGT.rho)
    assert abs(threshold - (-0.12663)) <= 1e-4
    interval = mu_interval(alpha, VOGT.b, VOGT.rho)
    assert abs(interval.lower - (-0.72407)) <= 1e-4
    assert abs(interval.upper - 0.82939) <= 1e-4
    diag = check_no_arbitrage(VOGT)
    assert diag.status is Status.FAILURE3
    assert diag.exit_code == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS criterion 1: published smile flagged by the shift stage "
          f"({elapsed:.3f}s)")


def test_criterion_2_threshold_matches_closed_form_on_axis():
    start = time.perf_counter()
    for i in range(1, 20):
        b = i / 10.0
        numeric = fukasawa_threshold(b, 0.0)
        closed = threshold_rho0_closed_form(b)
        assert abs(numeric - closed) <= 1e-8, f"b={b}: {numeric} vs {closed}"
        assert numeric > -b
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS criterion 2: rho=0 threshold agrees with the closed form "
          f"({elapsed:.3f}s)")


def test_criterion_3_model_rows_calibrate_to_machine_accuracy():
    start = time.perf_counter()
    config = CalibrationConfig(alpha_cap=3.0)
    for row in MODEL_ROWS:
        result = calibrate(model_slice(row), config)
        assert result.diagnostic.status is Status.FREE
        assert result.rel_error_fro <= 1e-8, f"{row}: {result.rel_error_fro}"
        got, want = params_vector(result.params), params_vector(row)
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert rel <= 1e-6, f"{row}: parameter error {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 3: six model rows recovered to stated accuracy "
          f"({elapsed:.1f}s)")


def test_criterion_4_vogt_repair_beats_reference_fit():
    start = time.perf_counter()
    grid = np.asarray(MODEL_GRID)
    target = svi(VOGT, grid)
    result = calibrate(model_slice(VOGT), CalibrationConfig(alpha_cap=1.0))
    assert result.diagnostic.status is Status.FREE
    assert result.rel_error_fro <= 0.03
    reference = rel_fro(svi(GATHERAL_JACQUIER, grid), target)
    assert result.rel_error_fro < reference
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 4: arbitrage-free repair at {result.rel_error_fro:.4f} "
          f"vs reference {reference:.4f} ({elapsed:.1f}s)")


def test_criterion_5_box_parametrization_is_tight():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    l_grid = np.linspace(-20.0, 20.0, 2001)
    samples = []
    violations = 0
    for _ in range(1000):
        box = BoxCoords(
            rho=rng.uniform(-0.95, 0.95),
            b_prime=rng.uniform(0.05, 1.0),
            u=rng.uniform(1e-3, 3.0),
            q=rng.uniform(-0.95, 0.95),
            v=rng.uniform(0.0, 2.0),
        )
        params = box_to_params(box)
        samples.append(params)
        ks = params.sigma * l_grid + params.m
        if np.min(durrleman_g(params, ks)) < -1e-10:
            violations += 1
    assert violations == 0

    # shrinking sigma below the floor must reintroduce arbitrage
    tried = failed = 0
    for params in samples[:300]:
        alpha, mu = params.a / params.sigma, params.m / params.sigma
        floor, h_star = _sigma_star_trusted(alpha, params.b, params.rho, mu)[:2]
        if floor <= 1e-12:
            continue
        tried += 1
        sigma = 0.9 * floor
        bad = SviParams(alpha * sigma, params.b, params.rho, mu * sigma, sigma)
        ks = sigma * np.append(l_grid, 1.0 / h_star) + bad.m
        if np.min(durrleman_g(bad, ks)) >= 0.0:
            failed += 1
    assert tried > 0
    assert failed <= 0.01 * tried
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 5: 1000 boxes free, {tried - failed}/{tried} "
          f"fail below the sigma floor ({elapsed:.1f}s)")


def test_criterion_6_reflection_symmetries():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(200):
        rho = rng.uniform(-0.9, 0.9)
        b = rng.uniform(0.05, 0.95) * 2.0 / (1.0 + abs(rho))
        alpha = -b * math.sqrt(1.0 - rho * rho) + rng.uniform(0.01, 2.0)
        l_left = l_star(rho) - rng.uniform(0.01, 3.0)
        l_any = rng.uniform(-3.0, 3.0)

        assert abs(L_minus(l_left, alpha, b, rho)
                   + L_plus(-l_left, alpha, b, -rho)) <= 1e-10
        assert abs(g_pm(b, rho, l_any, "+") - g_pm(b, -rho, -l_any, "-")) <= 1e-10
        assert abs(l_pm_of_alpha(alpha, b, rho, "+")
                   + l_pm_of_alpha(alpha, b, -rho, "-")) <= 1e-10
        assert abs(fukasawa_threshold(b, rho) - fukasawa_threshold(b, -rho)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS criterion 6: left/right reflection symmetries hold to 1e-10 "
          f"({elapsed:.1f}s)")


def test_criterion_7_exact_boundary_values():
    start = time.perf_counter()
    assert fukasawa_threshold(2.0, 0.0) == 0.0

    interval = mu_interval(0.0, 0.5, -1.0)
    assert abs(interval.lower - (-math.sqrt(1.5))) <= 1e-8
    assert interval.upper == math.inf

    zeros = g2_zeros(0.0, 0.5, -1.0)
    assert abs(zeros.l1 - (-1.0 / math.sqrt(3.0))) <= 1e-10
    assert zeros.l2 == math.inf
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS criterion 7: boundary cases match their exact values "
          f"({elapsed:.3f}s)")


def test_criterion_8_synthetic_pipeline_round_trip(tmp_path):
    start = time.perf_counter()
    truth = MODEL_ROWS[0]
    forward, discount = 100.0, 0.99
    expiry, valuation = "2026-12-18", "2026-08-16"

    lines = ["expiry,strike,kind,bid,ask"]
    for k, w in zip(MODEL_GRID, svi(truth, np.asarray(MODEL_GRID))):
        strike = forward * math.exp(k)
        c = discount * forward * call_price(k, math.sqrt(w))
        p = c - discount * (forward - strike)
        lines.append(f"{expiry},{strike!r},call,{c!r},{c!r}")
        lines.append(f"{expiry},{strike!r},put,{p!r},{p!r}")
    csv_path = tmp_path / "quotes.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    chains, rejects = load_chain(str(csv_path))
    assert len(chains) == 1
    assert not rejects
    fd = infer_forward_discount(chains[0])
    assert abs(fd.forward - forward) / forward <= 1e-10
    assert abs(fd.discount - discount) / discount <= 1e-10

    slice_, skipped = build_vol_slice(chains[0], fd, year_fraction(expiry, valuation))
    assert not skipped
    result = calibrate(slice_, CalibrationConfig())
    assert result.diagnostic.status is Status.FREE
    got, want = params_vector(result.params), params_vector(truth)
    rel = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert rel <= 1e-6, f"parameter error {rel}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 8: quotes to parameters round trip at {rel:.2e} "
          f"({elapsed:.1f}s)")
