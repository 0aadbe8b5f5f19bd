"""Option-chain ingestion and implied-total-variance slice construction.

The pipeline is: load quotes from delimited text, infer the forward and
discount factor per expiry from put-call parity, then invert out-of-the-money
mid prices into total variances on a log-forward strike grid.  Malformed rows
and non-invertible quotes are never dropped silently; each carries a reason in
the accompanying report.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter

import numpy as np

from .black_scholes import MAX_ITERATIONS, implied_total_vols, inversion_error
from .calibration import MarketSlice
from .errors import (
    EmptySlice,
    InsufficientPairs,
    InvalidInput,
    NonPositiveDiscount,
    ParseError,
)

_strike = attrgetter("strike")

_REQUIRED_COLUMNS = ("expiry", "strike", "kind", "bid", "ask")
_KINDS = {"c": "call", "call": "call", "p": "put", "put": "put"}

#: Average year length in days used to turn expiry dates into maturities.
DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class OptionQuote:
    """A two-sided quote for one option."""

    strike: float
    expiry: str
    kind: str
    bid: float
    ask: float

    def __post_init__(self) -> None:
        if self.kind not in ("call", "put"):
            raise InvalidInput(f"kind must be 'call' or 'put', got {self.kind!r}")
        if not self.strike > 0.0:
            raise InvalidInput(f"strike must be positive, got {self.strike}")
        if self.strike == math.inf:
            raise InvalidInput("strike must be finite, got inf")
        if not (0.0 <= self.bid <= self.ask):
            raise InvalidInput(
                f"need 0 <= bid <= ask, got bid={self.bid} ask={self.ask}"
            )
        if not self.bid + self.ask < math.inf:
            raise InvalidInput(f"mid must be finite, got bid={self.bid} ask={self.ask}")

    @property
    def mid(self) -> float:
        return 0.5 * (self.bid + self.ask)


@dataclass(frozen=True)
class ForwardDiscount:
    """Forward and discount factor implied by put-call parity, with the
    regression's residual scale as a data-quality signal."""

    forward: float
    discount: float
    residual_rmse: float

    def __post_init__(self) -> None:
        if not self.forward > 0.0:
            raise InvalidInput(f"forward must be positive, got {self.forward}")
        if not 0.0 < self.discount <= 1.1:
            raise InvalidInput(
                f"discount must be in (0, 1.1], got {self.discount}"
            )


@dataclass(frozen=True)
class OptionChain:
    """All quotes for one expiry, at most one call and one put per strike;
    its (strike, call, put) legs are built once, in one pass over the quotes
    by strike, and that pass raises on the first faulty quote it meets."""

    expiry: str
    quotes: tuple[OptionQuote, ...]
    spot: float | None = None

    def __post_init__(self) -> None:
        legs, leg = [], [None]
        for quote in sorted(self.quotes, key=_strike):
            if quote.expiry != self.expiry:
                raise InvalidInput(
                    f"quote expiry {quote.expiry} does not match chain {self.expiry}"
                )
            if leg[0] != quote.strike:
                leg = [quote.strike, None, None]
                legs.append(leg)
            side = 1 if quote.kind == "call" else 2
            if leg[side] is not None:
                raise InvalidInput(f"duplicate {quote.kind} quote at strike {quote.strike}")
            leg[side] = quote
        if self.spot is not None and not 0.0 < self.spot < math.inf:
            raise InvalidInput(f"spot must be finite and positive, got {self.spot}")
        object.__setattr__(self, "_legs", tuple(map(tuple, legs)))

    def pairs(self) -> list[tuple[float, OptionQuote | None, OptionQuote | None]]:
        """(strike, call, put) for every quoted strike, in increasing order:
        a fresh list of the legs built with the chain."""
        return list(self._legs)


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str
    raw: str


@dataclass(frozen=True)
class SkippedQuote:
    strike: float
    reason: str


def _parse_row(expiry, strike, kind, bid, ask) -> OptionQuote | str:
    """A row's required fields (None past a short row's end) as a quote, or
    the reason they are not one."""
    side = _KINDS.get((kind or "").strip().lower())
    if side is None:
        return f"unknown kind {kind!r}"
    try:
        strike, bid, ask = float(strike), float(bid), float(ask)
    except (TypeError, ValueError) as exc:
        return f"non-numeric field: {exc}"
    expiry = (expiry or "").strip()
    if not expiry:
        return "missing expiry"
    try:
        return OptionQuote(strike, expiry, side, bid, ask)
    except InvalidInput as exc:
        return str(exc)


def _take_spot(text: str | None, expiry: str, spots: dict[str, float]) -> str | None:
    """Record a row's spot, if it has one, for its expiry; or say why not."""
    if not (text or "").strip():
        return None
    try:
        spot = float(text)
    except ValueError:
        return "non-numeric spot"
    if not 0.0 < spot < math.inf:
        return f"spot must be finite and positive, got {spot}"
    prior = spots.get(expiry)
    if prior is not None and abs(prior - spot) > 1e-9 * max(1.0, abs(prior)):
        return f"spot {spot} conflicts with {prior}"
    spots[expiry] = spot
    return None


def load_chain(source) -> tuple[list[OptionChain], list[RejectedRow]]:
    """Parse delimited text into per-expiry chains plus a rejects report.

    ``source`` is a path or an open text stream.  The header must carry
    expiry, strike, kind, bid, ask; a spot column is optional.  Structural
    problems (unreadable file, missing columns) raise ParseError; row-level
    violations land in the rejects list instead.
    """
    if hasattr(source, "read"):
        return _load_stream(source)
    try:
        with open(source, "r", newline="") as handle:
            return _load_stream(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from None


def _load_stream(handle) -> tuple[list[OptionChain], list[RejectedRow]]:
    text = handle.read()
    if not text.strip():
        return [], []
    reader = csv.reader(io.StringIO(text))
    names = next(reader, [])
    # columns are read as a dict of the row would hold them: a repeated
    # name keeps its last column, and names match stripped and lower-cased
    last = {name: j for j, name in enumerate(names)}
    cols = {name.strip().lower(): j for name, j in last.items()}
    missing = [c for c in _REQUIRED_COLUMNS if c not in cols]
    if missing:
        raise ParseError(f"header is missing columns: {', '.join(missing)}")
    width, required = len(names), itemgetter(*(cols[c] for c in _REQUIRED_COLUMNS))
    spot = cols.get("spot")

    def raw(fields: list) -> str:
        # one field per distinct name, a short row's missing ones empty and
        # a long row's surplus appended as a list
        parts = ["" if fields[j] is None else fields[j] for j in last.values()]
        return ",".join(parts + [str(fields[width:])] * (len(fields) > width))

    rejects: list[RejectedRow] = []
    by_expiry: dict[str, dict[tuple[float, str], OptionQuote]] = {}
    spots: dict[str, float] = {}
    line_no = 1
    for fields in reader:
        if not fields:
            continue  # a blank line takes no line number
        line_no += 1
        fields += [None] * (width - len(fields))
        quote = reason = _parse_row(*required(fields))
        if not isinstance(quote, str):
            # an expiry gets a chain only once one of its rows is accepted
            quotes = by_expiry.get(quote.expiry) or {}
            key = (quote.strike, quote.kind)
            if key in quotes:
                reason = f"duplicate {quote.kind} at strike {quote.strike}"
            elif spot is None or (reason := _take_spot(fields[spot], quote.expiry, spots)) is None:
                by_expiry[quote.expiry] = quotes
                quotes[key] = quote
                continue
        rejects.append(RejectedRow(line_no, reason, raw(fields)))

    chains = [
        OptionChain(expiry=expiry, quotes=tuple(quotes[key] for key in sorted(quotes)),
                    spot=spots.get(expiry))
        for expiry, quotes in sorted(by_expiry.items())
    ]
    return chains, rejects


def year_fraction(expiry: str, valuation: str) -> float:
    """Maturity in years between two ISO dates, on a 365.25-day convention."""
    try:
        d_exp = dt.date.fromisoformat(expiry)
        d_val = dt.date.fromisoformat(valuation)
    except ValueError as exc:
        raise ParseError(f"bad date: {exc}") from None
    days = (d_exp - d_val).days
    if days <= 0:
        raise InvalidInput(f"expiry {expiry} is not after valuation {valuation}")
    return days / DAYS_PER_YEAR


def infer_forward_discount(chain: OptionChain) -> ForwardDiscount:
    """Forward and discount from the parity line C - P = DF*F - DF*K.

    Ordinary least squares of mid call-put differences on the strike; the
    slope is -DF and the intercept DF*F.  All strikes with both legs quoted
    enter the regression; the rmse lets callers judge how clean parity held.
    """
    both = [(strike, call.mid - put.mid) for strike, call, put in chain.pairs()
            if call is not None and put is not None]
    if len(both) < 2:
        raise InsufficientPairs(
            f"parity regression needs two strikes with both legs, got {len(both)}"
        )
    x, y = np.asarray(both).T
    slope, intercept = np.polyfit(x, y, 1)
    discount = -float(slope)
    if discount <= 0.0:
        raise NonPositiveDiscount(
            f"parity slope {slope} implies non-positive discount"
        )
    forward = float(intercept) / discount
    resid = y - (intercept + slope * x)
    rmse = float(np.sqrt(np.mean(resid * resid)))
    return ForwardDiscount(forward=forward, discount=discount, residual_rmse=rmse)


def build_vol_slice(
    chain: OptionChain, fd: ForwardDiscount, t: float
) -> tuple[MarketSlice, list[SkippedQuote]]:
    """Total-variance slice from out-of-the-money quotes.

    Prices are deflated by the discount factor and normalized by the forward
    before inversion, so the Black-Scholes inverter works in forward units.
    Per strike the out-of-the-money leg is used (call above the forward, put
    below), falling back to the other leg when that side is not quoted.  A
    zero-bid quote or a strike whose mid cannot be inverted is skipped with a
    reason, and so is a strike whose log-moneyness rounds onto that of the
    last strike kept; bid or ask sides that fail only produce a NaN on that
    side, and a side inverted across the mid takes the mid's variance.  All
    mids, bids and asks are inverted in one batch.
    """
    if not t > 0.0:
        raise InvalidInput(f"t must be positive, got {t}")
    scale = fd.discount * fd.forward
    picked = [call if call is not None and (strike >= fd.forward or put is None) else put
              for strike, call, put in chain.pairs()]
    bid, ask = np.array([(q.bid, q.ask) for q in picked]).reshape(-1, 2).T
    k = np.array([math.log(q.strike / fd.forward) for q in picked])
    is_call = np.array([q.kind == "call" for q in picked], dtype=bool)
    with np.errstate(all="ignore"):  # the inverter refuses a price that is not finite
        prices = np.column_stack((0.5 * (bid + ask) / scale, bid / scale, ask / scale))
    theta, code = implied_total_vols(np.repeat(k, 3), prices.ravel(), np.repeat(is_call, 3))
    w, code = (theta * theta).reshape(-1, 3), code.reshape(-1, 3)
    # bid <= mid <= ask in price, so in variance too; where the inverter's
    # price tolerance puts a side across the mid, the side takes the mid
    w[:, 1] = np.minimum(w[:, 1], w[:, 0])
    w[:, 2] = np.maximum(w[:, 2], w[:, 0])

    # an empty bid side makes the mid half the spread, not a price; a failed
    # mid skips its strike, a failed bid or ask leaves NaN on its side, and
    # only a solve out of iterations raises, from the first such strike
    zero, stuck = bid == 0.0, code == MAX_ITERATIONS
    raises = ~zero & (stuck[:, 0] | (code[:, 0] == 0) & (stuck[:, 1] | stuck[:, 2]))
    if raises.any():
        i = np.argmax(raises)
        raise inversion_error(MAX_ITERATIONS, k[i], prices[i, np.argmax(stuck[i])], is_call[i])
    ok = ~zero & (code[:, 0] == 0)
    # distinct strikes can round to one log-moneyness: a strike is kept
    # only above the largest log-moneyness kept before it
    kept, kk = ok.copy(), k[ok]
    kept[ok] = kk > np.concatenate(([-math.inf], np.maximum.accumulate(kk)[:-1]))
    last_kept = np.maximum.accumulate(np.where(kept, np.arange(len(k)), -1))
    skipped = []
    for i in np.flatnonzero(~kept).tolist():
        quote, k_i = picked[i], float(k[i])
        if zero[i]:
            reason = f"{quote.kind} bid is zero"
        elif not ok[i]:
            exc = inversion_error(int(code[i, 0]), k_i, float(prices[i, 0]), bool(is_call[i]))
            reason = f"{quote.kind} mid: {exc}"
        else:
            prior = picked[last_kept[i]].strike
            reason = f"log-moneyness {k_i!r} collides with strike {prior!r}"
        skipped.append(SkippedQuote(quote.strike, reason))
    if not kept.any():
        raise EmptySlice(f"no invertible quotes for expiry {chain.expiry}")
    slice_ = MarketSlice(
        k=k[kept], w_mid=w[kept, 0], w_bid=w[kept, 1], w_ask=w[kept, 2],
        t=t, forward=fd.forward, discount=fd.discount, expiry=chain.expiry,
    )
    return slice_, skipped
