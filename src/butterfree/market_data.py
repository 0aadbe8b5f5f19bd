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
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .black_scholes import implied_total_vol
from .calibration import MarketSlice
from .errors import (
    EmptySlice,
    InsufficientPairs,
    InvalidInput,
    NonPositiveDiscount,
    ParseError,
    PriceOutOfRange,
)

_strike = attrgetter("strike")

_REQUIRED_COLUMNS = ("expiry", "strike", "kind", "bid", "ask")

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
        if not (0.0 <= self.bid <= self.ask):
            raise InvalidInput(
                f"need 0 <= bid <= ask, got bid={self.bid} ask={self.ask}"
            )

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
    """All quotes for one expiry, at most one call and one put per strike."""

    expiry: str
    quotes: tuple[OptionQuote, ...]
    spot: float | None = None

    def __post_init__(self) -> None:
        seen = set()
        for quote in self.quotes:
            if quote.expiry != self.expiry:
                raise InvalidInput(
                    f"quote expiry {quote.expiry} does not match chain {self.expiry}"
                )
            key = (quote.strike, quote.kind)
            if key in seen:
                raise InvalidInput(f"duplicate {quote.kind} quote at strike {quote.strike}")
            seen.add(key)
        if self.spot is not None and not self.spot > 0.0:
            raise InvalidInput(f"spot must be positive, got {self.spot}")
        # legs() bisects this strike-sorted view; it holds references only,
        # so it costs far less memory than a dict index of the quotes
        object.__setattr__(self, "_by_strike", tuple(sorted(self.quotes, key=_strike)))

    def strikes(self) -> list[float]:
        return sorted({q.strike for q in self.quotes})

    def legs(self, strike: float) -> tuple[OptionQuote | None, OptionQuote | None]:
        """The (call, put) pair quoted at a strike, either possibly absent."""
        call = put = None
        i = bisect_left(self._by_strike, strike, key=_strike)
        for q in self._by_strike[i:i + 2]:
            if q.strike == strike:
                if q.kind == "call":
                    call = q
                else:
                    put = q
        return call, put


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str
    raw: str


@dataclass(frozen=True)
class SkippedQuote:
    strike: float
    reason: str


def _parse_row(line: int, row: dict) -> OptionQuote | tuple[None, str]:
    kind = (row.get("kind") or "").strip().lower()
    if kind in ("c", "call"):
        kind = "call"
    elif kind in ("p", "put"):
        kind = "put"
    else:
        return None, f"unknown kind {row.get('kind')!r}"
    try:
        strike = float(row["strike"])
        bid = float(row["bid"])
        ask = float(row["ask"])
    except (TypeError, ValueError) as exc:
        return None, f"non-numeric field: {exc}"
    expiry = (row.get("expiry") or "").strip()
    if not expiry:
        return None, "missing expiry"
    try:
        return OptionQuote(strike=strike, expiry=expiry, kind=kind, bid=bid, ask=ask)
    except InvalidInput as exc:
        return None, str(exc)


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
    reader = csv.DictReader(io.StringIO(text))
    header = [h.strip().lower() for h in reader.fieldnames or []]
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise ParseError(f"header is missing columns: {', '.join(missing)}")
    has_spot = "spot" in header

    rejects: list[RejectedRow] = []
    by_expiry: dict[str, dict[tuple[float, str], OptionQuote]] = {}
    spots: dict[str, float] = {}
    for line_no, raw_row in enumerate(reader, start=2):
        row = {k.strip().lower(): v for k, v in raw_row.items() if k is not None}
        raw = ",".join("" if v is None else str(v) for v in raw_row.values())
        parsed = _parse_row(line_no, row)
        if isinstance(parsed, tuple):
            rejects.append(RejectedRow(line_no, parsed[1], raw))
            continue
        quote = parsed
        quotes = by_expiry.setdefault(quote.expiry, {})
        key = (quote.strike, quote.kind)
        if key in quotes:
            rejects.append(
                RejectedRow(line_no, f"duplicate {quote.kind} at strike {quote.strike}", raw)
            )
            continue
        if has_spot and (row.get("spot") or "").strip():
            try:
                spot = float(row["spot"])
            except ValueError:
                rejects.append(RejectedRow(line_no, "non-numeric spot", raw))
                continue
            prior = spots.get(quote.expiry)
            if prior is not None and abs(prior - spot) > 1e-9 * max(1.0, abs(prior)):
                rejects.append(
                    RejectedRow(line_no, f"spot {spot} conflicts with {prior}", raw)
                )
                continue
            spots[quote.expiry] = spot
        quotes[key] = quote

    chains = []
    for expiry in sorted(by_expiry):
        quotes = by_expiry[expiry]
        ordered = tuple(quotes[key] for key in sorted(quotes))
        chains.append(OptionChain(expiry=expiry, quotes=ordered, spot=spots.get(expiry)))
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
    strikes = []
    diffs = []
    for strike in chain.strikes():
        call, put = chain.legs(strike)
        if call is None or put is None:
            continue
        strikes.append(strike)
        diffs.append(call.mid - put.mid)
    if len(strikes) < 2:
        raise InsufficientPairs(
            f"parity regression needs two strikes with both legs, got {len(strikes)}"
        )
    x = np.asarray(strikes)
    y = np.asarray(diffs)
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


def _invert(k: float, price: float, kind: str) -> float:
    theta = implied_total_vol(k, price, kind)
    return theta * theta


def build_vol_slice(
    chain: OptionChain, fd: ForwardDiscount, t: float
) -> tuple[MarketSlice, list[SkippedQuote]]:
    """Total-variance slice from out-of-the-money quotes.

    Prices are deflated by the discount factor and normalized by the forward
    before inversion, so the Black-Scholes inverter works in forward units.
    Per strike the out-of-the-money leg is used (call above the forward, put
    below), falling back to the other leg when that side is not quoted.  A
    zero-bid quote or a strike whose mid cannot be inverted is skipped with a
    reason; bid or ask sides that fail only produce a NaN on that side.
    """
    if not t > 0.0:
        raise InvalidInput(f"t must be positive, got {t}")
    scale = fd.discount * fd.forward
    ks: list[float] = []
    w_mid: list[float] = []
    w_bid: list[float] = []
    w_ask: list[float] = []
    skipped: list[SkippedQuote] = []
    for strike in chain.strikes():
        call, put = chain.legs(strike)
        preferred = (call, put) if strike >= fd.forward else (put, call)
        quote = preferred[0] if preferred[0] is not None else preferred[1]
        if quote is None:
            continue
        if quote.bid == 0.0:
            # an empty bid side makes the mid half the spread, not a price
            skipped.append(SkippedQuote(strike, f"{quote.kind} bid is zero"))
            continue
        k = math.log(strike / fd.forward)
        try:
            mid = _invert(k, quote.mid / scale, quote.kind)
        except PriceOutOfRange as exc:
            skipped.append(SkippedQuote(strike, f"{quote.kind} mid: {exc}"))
            continue
        sides = []
        for price in (quote.bid, quote.ask):
            try:
                sides.append(_invert(k, price / scale, quote.kind))
            except PriceOutOfRange:
                sides.append(math.nan)
        ks.append(k)
        w_mid.append(mid)
        w_bid.append(sides[0])
        w_ask.append(sides[1])
    if not ks:
        raise EmptySlice(f"no invertible quotes for expiry {chain.expiry}")
    slice_ = MarketSlice(
        k=np.asarray(ks),
        w_mid=np.asarray(w_mid),
        w_bid=np.asarray(w_bid),
        w_ask=np.asarray(w_ask),
        t=t,
        forward=fd.forward,
        discount=fd.discount,
        expiry=chain.expiry,
    )
    return slice_, skipped
