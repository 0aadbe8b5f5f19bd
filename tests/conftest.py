"""Shared fixtures: reference parameter sets and the strike grid used by
the calibration tests.

MODEL_ROWS are six arbitrage-free parameter sets spanning the interesting
corners of the domain (negative and positive rho, tiny and large b, a
shifted vertex).  MODEL_GRID is a 13-point log-forward moneyness grid,
denser near the money, on which model total variances are generated.
The Hypothesis profile loaded here derandomizes every property test.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings

from butterfree.arrays import svi
from butterfree.calibration import MarketSlice
from butterfree.smile import SviParams

# Every @given test draws the same examples on every run, so a tier-1
# result does not depend on the run; a test's own @settings add to this.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

MODEL_GRID = np.array(
    [
        -0.80, -0.60, -0.45, -0.30, -0.20, -0.10,
        0.0,
        0.10, 0.20, 0.30, 0.45, 0.60, 0.80,
    ]
)

MODEL_ROWS = (
    SviParams(a=0.10, b=1.0, rho=-0.306, m=0.10, sigma=0.30),
    SviParams(a=-0.10, b=1.1, rho=0.200, m=0.00, sigma=0.60),
    SviParams(a=0.01, b=0.1, rho=-0.600, m=-0.05, sigma=0.10),
    SviParams(a=0.80, b=0.2, rho=0.800, m=1.00, sigma=0.90),
    SviParams(a=1.40, b=1.9, rho=0.000, m=-0.10, sigma=0.50),
    SviParams(a=0.90, b=1.2, rho=0.500, m=0.20, sigma=0.85),
)

# Classic parameter set with a butterfly arbitrage, used as the negative
# test case throughout.
VOGT = SviParams(a=-0.041, b=0.1331, rho=0.3060, m=0.3586, sigma=0.4153)

# Published arbitrage-free repair of the same smile; serves as the
# benchmark the calibrator has to beat on VOGT-generated data.
GATHERAL_JACQUIER = SviParams(
    a=-0.0305199, b=0.102717, rho=0.100718, m=0.272344, sigma=0.412398
)


def model_slice(params: SviParams, grid: np.ndarray = MODEL_GRID) -> MarketSlice:
    """Total-variance slice generated exactly from a parameter set."""
    return MarketSlice(k=grid.copy(), w_mid=np.asarray(svi(params, grid)))


def rel_fro(got: np.ndarray, want: np.ndarray) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def params_vector(params: SviParams) -> np.ndarray:
    return np.array([params.a, params.b, params.rho, params.m, params.sigma])
