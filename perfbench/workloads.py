"""Seeded inputs for the four benchmark workloads.

Nothing here imports butterfree: every input is built from the seed with
numpy and the standard library, so the program under test receives only
finished data (parameter tuples, box tuples, total-variance arrays and CSV
text).  Option prices come from an independent Black-Scholes formula.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

#: The six generating rows of acceptance criterion 3, as (a, b, rho, m, sigma).
MODEL_ROWS = (
    (0.10, 1.0, -0.306, 0.10, 0.30),
    (-0.10, 1.1, 0.200, 0.00, 0.60),
    (0.01, 0.1, -0.600, -0.05, 0.10),
    (0.80, 0.2, 0.800, 1.00, 0.90),
    (1.40, 1.9, 0.000, -0.10, 0.50),
    (0.90, 1.2, 0.500, 0.20, 0.85),
)

#: Criterion 3's 13-point log-forward moneyness grid.
MODEL_GRID = np.array(
    [-0.80, -0.60, -0.45, -0.30, -0.20, -0.10, 0.0, 0.10, 0.20, 0.30, 0.45, 0.60, 0.80]
)

#: The classic arbitrageable set (Failure3); the CLI probe checks it.
VOGT = (-0.041, 0.1331, 0.3060, 0.3586, 0.4153)

VALUATION = "2026-01-02"

#: Share of screen draws placed near a boundary regime, split evenly
#: between |rho| -> 1 and a wing slope -> 2 (from either side).
SCREEN_BOUNDARY_SHARE = 0.10
#: log10 range of 1 - |rho| in screen's |rho| -> 1 draws.  Below about
#: 4e-7, check_no_arbitrage can raise NoBracketFound (README.md, Known
#: defect); screen stays above that, and DEFECT_PROBE draws below it.
SCREEN_RHO_GAP = (-5.0, -2.0)
#: (count, log10 range of 1 - |rho|, seed) of the smiles the traced run
#: checks for the known defect, outside the workload.
DEFECT_PROBE = (300, (-8.0, -6.0), 7)

#: Per-document malformed rows and zero-bid quotes planted in ingest-wide.
INGEST_EXPIRIES = 4
INGEST_STRIKES = 2000
INGEST_MALFORMED = 12
INGEST_ZERO_BID = 8

FIT_QUOTES_EXPIRIES = 3
FIT_QUOTES_STRIKES = (25, 40)
#: Quote noise alone moves a fit's time by a third from one draw to the
#: next (19.6-27.1 s over four draws), more than any bound could absorb,
#: so fit-quotes always fits the quotes of this draw.
FIT_QUOTES_DRAW = 0


def svi_w(params, k):
    a, b, rho, m, sigma = params
    x = np.asarray(k, dtype=float) - m
    return a + b * (rho * x + np.sqrt(x * x + sigma * sigma))


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def bs_call(forward: float, discount: float, strike: float, w: float) -> float:
    """Discounted Black-Scholes call on the forward with total variance w."""
    theta = math.sqrt(w)
    k = math.log(strike / forward)
    d1 = -k / theta + 0.5 * theta
    d2 = d1 - theta
    return discount * (forward * _norm_cdf(d1) - strike * _norm_cdf(d2))


# --------------------------------------------------------------- screen


def _rho_near_one(rng: np.random.Generator, gap: tuple[float, float]) -> float:
    return float(rng.choice((-1.0, 1.0))) * (1.0 - 10.0 ** rng.uniform(*gap))


def _raw(rng: np.random.Generator, rho: float, slope: float):
    """Raw params with correlation rho and steeper wing slope ``slope``."""
    b = slope / (1.0 + abs(rho))
    floor = -b * math.sqrt(max(1.0 - rho * rho, 0.0))
    # log-uniform margin over the positivity floor, so a good share
    # lands below the threshold F(b, rho), which sits close to it
    alpha = floor + 10.0 ** rng.uniform(-2.5, 0.2)
    mu = rng.uniform(-1.3, 1.3)
    sigma = 10.0 ** rng.uniform(-1.3, 0.4)
    return (alpha * sigma, b, rho, mu * sigma, sigma)


def screen_batch(rng: np.random.Generator, n: int):
    """n raw parameter sets and n box points.

    Raw sets are drawn in normalized coordinates (alpha, b, rho, mu, sigma)
    over ranges that reach all five waterfall outcomes; a share
    SCREEN_BOUNDARY_SHARE sits near |rho| = 1 (1 - |rho| log-uniform over
    SCREEN_RHO_GAP) or a wing slope of 2.  Box points use acceptance
    criterion 5's ranges.
    """
    raws = []
    for _ in range(n):
        u = rng.uniform()
        if u < SCREEN_BOUNDARY_SHARE / 2:
            # |rho| -> 1: the vertex runs off to infinity
            raws.append(_raw(rng, _rho_near_one(rng, SCREEN_RHO_GAP), rng.uniform(0.1, 1.99)))
        elif u < SCREEN_BOUNDARY_SHARE:
            # a wing slope -> 2, on either side of the limit
            rho = rng.uniform(-0.9, 0.9)
            gap = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-9.0, -3.0)
            raws.append(_raw(rng, rho, 2.0 + gap))
        else:
            rho = rng.uniform(-0.95, 0.95)
            raws.append(_raw(rng, rho, rng.uniform(0.1, 2.25)))
    boxes = [
        (
            rng.uniform(-0.95, 0.95),
            rng.uniform(0.05, 1.0),
            rng.uniform(1e-3, 3.0),
            rng.uniform(-0.95, 0.95),
            rng.uniform(0.0, 2.0),
        )
        for _ in range(n)
    ]
    return raws, boxes


def defect_probe():
    """DEFECT_PROBE's raw sets: screen's |rho| -> 1 draw, closer to 1."""
    n, gap, seed = DEFECT_PROBE
    rng = np.random.default_rng([seed, 5])
    return [_raw(rng, _rho_near_one(rng, gap), rng.uniform(0.1, 1.99)) for _ in range(n)]


# ------------------------------------------------------------ fit-model


def fit_model_input(row: int):
    """Exact total variances of MODEL_ROWS[row] on criterion 3's grid."""
    return MODEL_GRID.copy(), svi_w(MODEL_ROWS[row], MODEL_GRID)


# --------------------------------------------------------------- chains


@dataclass(frozen=True)
class ExpiryTruth:
    expiry: str
    t: float
    forward: float
    discount: float
    params: tuple[float, float, float, float, float]
    strikes: tuple[float, ...]


def _expiry_date(days: int) -> str:
    return (dt.date.fromisoformat(VALUATION) + dt.timedelta(days=days)).isoformat()


def _smile_params(rng: np.random.Generator, t: float):
    """An equity-like smile whose level stays inside the default alpha cap."""
    sigma = rng.uniform(0.15, 0.4)
    b = rng.uniform(0.08, 0.3) * math.sqrt(t)
    rho = rng.uniform(-0.7, -0.2)
    m = rng.uniform(-0.05, 0.1)
    a = rng.uniform(0.3, 0.8) * 0.04 * t
    return (a, b, rho, m, sigma)


def _expiries(rng: np.random.Generator, n: int, n_strikes) -> list[ExpiryTruth]:
    out = []
    days = 0
    for _ in range(n):
        days += int(rng.integers(45, 200))
        t = days / 365.25
        spot = 100.0
        rate = rng.uniform(0.0, 0.05)
        forward = spot * math.exp(rate * t)
        discount = math.exp(-rate * t)
        params = _smile_params(rng, t)
        count = n_strikes if isinstance(n_strikes, int) else int(rng.integers(*n_strikes, endpoint=True))
        theta = math.sqrt(float(svi_w(params, 0.0)))
        ks = np.linspace(-2.5 * theta, 1.5 * theta, count)
        strikes = tuple(float(forward * math.exp(k)) for k in ks)
        out.append(ExpiryTruth(_expiry_date(days), t, forward, discount, params, strikes))
    return out


def _leg_prices(e: ExpiryTruth, strike: float) -> tuple[float, float]:
    w = float(svi_w(e.params, math.log(strike / e.forward)))
    call = bs_call(e.forward, e.discount, strike, w)
    put = call - e.discount * (e.forward - strike)
    return call, put


def fit_quotes_document(seed: int):
    """CSV text with a few expiries of 25-40 strikes, calls and puts.

    Each mid is the model price moved by up to a quarter of the spread, so
    the true price stays inside [bid, ask]; the half-spread is 3% of the
    price.  The quotes always come from FIT_QUOTES_DRAW; ``seed`` shuffles
    the order of the rows.
    """
    rng = np.random.default_rng([FIT_QUOTES_DRAW, 3])
    truths = _expiries(rng, FIT_QUOTES_EXPIRIES, FIT_QUOTES_STRIKES)
    rows = []
    for e in truths:
        for strike in e.strikes:
            for kind, price in zip(("call", "put"), _leg_prices(e, strike)):
                half = 0.03 * price
                mid = price + rng.uniform(-0.25, 0.25) * 2.0 * half
                rows.append(f"{e.expiry},{strike!r},{kind},{mid - half!r},{mid + half!r}")
    order = np.random.default_rng([seed, 3]).permutation(len(rows))
    return "expiry,strike,kind,bid,ask\n" + "\n".join(rows[i] for i in order) + "\n", truths


@dataclass(frozen=True)
class IngestDocument:
    text: str
    truths: list[ExpiryTruth]
    #: line number -> the reject reason's expected fragment
    rejects: dict[int, str]
    #: (expiry, strike) quoted only by a zero-bid leg
    zero_bids: frozenset
    rows: int


_MALFORMED = (
    ("{e},{K},straddle,1.0,1.1", "unknown kind"),
    ("{e},n/a,call,1.0,1.1", "non-numeric field"),
    ("{e},{K},put,2.0,1.0", "bid <= ask"),
    ("{e},-{K},call,1.0,1.1", "strike must be positive"),
    (",{K},call,1.0,1.1", "missing expiry"),
    ("{e},{K},call,{bid},{ask}", "duplicate call"),
)


def ingest_document(rng: np.random.Generator) -> IngestDocument:
    """Wide CSV text: INGEST_EXPIRIES expiries of INGEST_STRIKES strikes.

    Mids are exact model prices, so parity holds and the forward and
    discount are recoverable; every spread is 2% of the price.  Planted:
    INGEST_MALFORMED rows that load_chain must reject (cycling through
    _MALFORMED) and INGEST_ZERO_BID extra strikes quoted by one zero-bid
    leg, which build_vol_slice must skip.
    """
    truths = _expiries(rng, INGEST_EXPIRIES, INGEST_STRIKES)
    body: list[str] = []
    for e in truths:
        for strike in e.strikes:
            for kind, price in zip(("call", "put"), _leg_prices(e, strike)):
                half = 0.01 * price
                body.append(f"{e.expiry},{strike!r},{kind},{price - half!r},{price + half!r}")
    zero_bids = set()
    for i in range(INGEST_ZERO_BID):
        e = truths[i % len(truths)]
        j = int(rng.integers(1, len(e.strikes) - 1))
        strike = 0.5 * (e.strikes[j - 1] + e.strikes[j])
        kind = "call" if strike >= e.forward else "put"
        body.insert(int(rng.integers(0, len(body) + 1)), f"{e.expiry},{strike!r},{kind},0.0,0.5")
        zero_bids.add((e.expiry, strike))
    planted = []
    for i in range(INGEST_MALFORMED):
        template, reason = _MALFORMED[i % len(_MALFORMED)]
        e = truths[int(rng.integers(0, len(truths)))]
        strike = e.strikes[int(rng.integers(0, len(e.strikes)))]
        call, _ = _leg_prices(e, strike)
        row = template.format(e=e.expiry, K=repr(strike), bid=repr(0.99 * call), ask=repr(1.01 * call))
        planted.append((row, reason))
    # A duplicate must follow the row it repeats, so malformed rows go at
    # the end, in a seeded order.
    order = rng.permutation(len(planted))
    rows = body + [planted[i][0] for i in order]
    rejects = {len(body) + 2 + pos: planted[i][1] for pos, i in enumerate(order)}
    text = "expiry,strike,kind,bid,ask\n" + "\n".join(rows) + "\n"
    return IngestDocument(text, truths, rejects, frozenset(zero_bids), len(rows))
