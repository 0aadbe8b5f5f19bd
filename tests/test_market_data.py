"""CSV ingestion, parity regression and slice construction."""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from butterfree import market_data
from butterfree.black_scholes import (
    MAX_ITERATIONS, call_price, implied_total_vols, inversion_error, put_price,
)
from butterfree.calibration import CalibrationConfig, calibrate
from butterfree.errors import (
    EmptySlice,
    InsufficientPairs,
    InvalidInput,
    MaxIterations,
    NonPositiveDiscount,
    ParseError,
)
from butterfree.market_data import (
    ForwardDiscount,
    OptionChain,
    OptionQuote,
    build_vol_slice,
    infer_forward_discount,
    load_chain,
    year_fraction,
)
from butterfree.arrays import svi
from conftest import MODEL_GRID, MODEL_ROWS, params_vector
from reference import slice_one_quote_at_a_time

GOLDEN_CSV = """\
expiry,strike,kind,bid,ask,spot
2026-12-18,90,call,12.0,12.4,100.0
2026-12-18,90,put,1.6,1.8,
2026-12-18,100,C,5.0,5.4,
2026-12-18,100,p,4.4,4.6,
2026-12-18,110,call,1.5,1.7,
2026-12-18,110,put,10.6,11.0,
2027-03-19,100,call,6.0,6.5,
2027-03-19,100,put,5.0,5.5,
2026-12-18,105,swap,1.0,2.0,
2026-12-18,-5,call,1.0,2.0,
2026-12-18,95,call,2.0,1.0,
2026-12-18,90,call,12.1,12.3,
2026-12-18,oops,call,1.0,2.0,
2026-12-18,97,call,1.0,2.0,101.0
,100,call,1.0,2.0,
"""


def _flat_chain(
    strikes, forward=100.0, discount=0.99, theta=0.2, expiry="2026-12-18",
    spread=0.0,
):
    """Both legs at every strike, priced exactly off a flat total vol."""
    quotes = []
    for strike in strikes:
        k = math.log(strike / forward)
        for kind, price_fn in (("call", call_price), ("put", put_price)):
            price = discount * forward * price_fn(k, theta)
            half = 0.5 * spread * price
            quotes.append(
                OptionQuote(
                    strike=float(strike), expiry=expiry, kind=kind,
                    bid=price - half, ask=price + half,
                )
            )
    return OptionChain(expiry=expiry, quotes=tuple(quotes))


class TestLoadChain:
    def test_golden_fixture(self):
        chains, rejects = load_chain(io.StringIO(GOLDEN_CSV))
        assert [c.expiry for c in chains] == ["2026-12-18", "2027-03-19"]
        near, far = chains
        assert len(near.quotes) == 6
        assert near.spot == 100.0
        assert [strike for strike, _, _ in near.pairs()] == [90.0, 100.0, 110.0]
        _, (_, call, put), _ = near.pairs()
        # single-letter kinds are normalized
        assert call is not None and call.kind == "call" and call.bid == 5.0
        assert put is not None and put.kind == "put"
        assert len(far.quotes) == 2
        assert far.spot is None

    def test_golden_rejects(self):
        _, rejects = load_chain(io.StringIO(GOLDEN_CSV))
        by_line = {r.line: r.reason for r in rejects}
        assert sorted(by_line) == [10, 11, 12, 13, 14, 15, 16]
        assert "kind" in by_line[10]
        assert "strike" in by_line[11]
        assert "bid" in by_line[12]
        assert "duplicate" in by_line[13]
        assert "non-numeric" in by_line[14]
        assert "conflicts" in by_line[15]
        assert "expiry" in by_line[16]

    def test_empty_stream(self):
        assert load_chain(io.StringIO("")) == ([], [])
        assert load_chain(io.StringIO("   \n  ")) == ([], [])

    def test_missing_columns(self):
        with pytest.raises(ParseError):
            load_chain(io.StringIO("expiry,strike,bid,ask\n2026-12-18,100,1,2\n"))

    def test_reads_from_path(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(GOLDEN_CSV)
        chains, rejects = load_chain(str(path))
        assert len(chains) == 2 and len(rejects) == 7

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_chain("/no/such/file.csv")

    def test_an_expiry_with_no_accepted_row_has_no_chain(self):
        text = "expiry,strike,kind,bid,ask,spot\n2026-12-18,100,call,1,2,abc\n"
        chains, rejects = load_chain(io.StringIO(text))
        assert chains == []
        assert [(r.line, r.reason) for r in rejects] == [(2, "non-numeric spot")]
        # a later accepted row of the same expiry still makes its chain
        chains, rejects = load_chain(io.StringIO(text + "2026-12-18,100,call,1,2,\n"))
        assert [(c.expiry, len(c.quotes), c.spot) for c in chains] == [("2026-12-18", 1, None)]
        assert len(rejects) == 1

    @pytest.mark.parametrize("spot", ["nan", "0", "-5", "inf"])
    @pytest.mark.parametrize("first", [True, False])
    def test_spot_not_finite_positive_rejects_its_row(self, spot, first):
        # the bad spot costs its own row, never the expiry's chain
        rows = ["2026-12-18,90,call,1,2,100", "2026-12-18,100,call,1,2,"]
        rows.insert(0 if first else 1, f"2026-12-18,110,call,1,2,{spot}")
        text = "expiry,strike,kind,bid,ask,spot\n" + "\n".join(rows) + "\n"
        chains, rejects = load_chain(io.StringIO(text))
        assert [(c.expiry, [q.strike for q in c.quotes], c.spot) for c in chains] == [
            ("2026-12-18", [90.0, 100.0], 100.0)]
        assert [(r.line, r.reason) for r in rejects] == [
            (2 if first else 3, f"spot must be finite and positive, got {float(spot)}")]


def dictreader_raws(text: str) -> list[str]:
    """Each data row as a csv.DictReader sees it, joined back into text."""
    return [",".join("" if v is None else str(v) for v in row.values())
            for row in csv.DictReader(io.StringIO(text))]


class TestRaggedRows:
    """A rejected row's raw text is the row read as a dict over the header:
    one field per distinct header name (a repeated name keeps its last
    column), empty fields for a short row and the surplus of a long row
    appended as a list."""

    CASES = {
        "plain": "expiry,strike,kind,bid,ask\n",
        "messy header": " Expiry,STRIKE ,kind,bid,ask,bid,spot\n",
    }
    ROWS = (
        "2026-12-18,100",
        "2026-12-18,100,call",
        "2026-12-18,100,call,1.0",
        "2026-12-18,100,call,1.0,2.0,3.0,4.0,5.0",
        "2026-12-18,100,call,1.0,2.0,3.0,4.0,5.0",
        "",
        "2026-12-18",
        "x,y,z,w,v,u,t,s,r",
    )

    NONE = "non-numeric field: float() argument must be a string or a real number, not 'NoneType'"
    REASONS = {
        "plain": [
            (2, "unknown kind None"), (3, NONE), (4, NONE),
            (6, "duplicate call at strike 100.0"),
            (7, "unknown kind None"), (8, "unknown kind 'z'"),
        ],
        # bid is the sixth column, so the short rows lack it and the long
        # ones quote bid 3.0 over ask 2.0
        "messy header": [
            (2, "unknown kind None"), (3, NONE), (4, NONE),
            (5, "need 0 <= bid <= ask, got bid=3.0 ask=2.0"),
            (6, "need 0 <= bid <= ask, got bid=3.0 ask=2.0"),
            (7, "unknown kind None"), (8, "unknown kind 'z'"),
        ],
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raw_and_reason_match_a_dict_reading(self, case):
        text = self.CASES[case] + "\n".join(self.ROWS) + "\n"
        _, rejects = load_chain(io.StringIO(text))
        # the blank line is skipped and takes no line number
        assert [(r.line, r.reason) for r in rejects] == self.REASONS[case]
        raws = dictreader_raws(text)
        assert [r.raw for r in rejects] == [raws[r.line - 2] for r in rejects]

    def test_raw_spelled_out(self):
        _, plain = load_chain(io.StringIO(self.CASES["plain"] + "\n".join(self.ROWS)))
        _, messy = load_chain(io.StringIO(self.CASES["messy header"] + "\n".join(self.ROWS)))
        assert plain[0].raw == "2026-12-18,100,,,"
        assert plain[3].raw == "2026-12-18,100,call,1.0,2.0,['3.0', '4.0', '5.0']"
        assert messy[2].raw == "2026-12-18,100,call,,,"
        assert messy[3].raw == "2026-12-18,100,call,3.0,2.0,4.0,['5.0']"


class TestQuoteAndChain:
    def test_quote_validation(self):
        with pytest.raises(InvalidInput):
            OptionQuote(strike=100.0, expiry="e", kind="straddle", bid=1.0, ask=2.0)
        with pytest.raises(InvalidInput):
            OptionQuote(strike=0.0, expiry="e", kind="call", bid=1.0, ask=2.0)
        with pytest.raises(InvalidInput):
            OptionQuote(strike=100.0, expiry="e", kind="call", bid=2.0, ask=1.0)
        q = OptionQuote(strike=100.0, expiry="e", kind="call", bid=1.0, ask=2.0)
        assert q.mid == 1.5

    def test_chain_rejects_mixed_expiry(self):
        q = OptionQuote(strike=100.0, expiry="other", kind="call", bid=1.0, ask=2.0)
        with pytest.raises(InvalidInput):
            OptionChain(expiry="e", quotes=(q,))

    def test_chain_rejects_duplicates(self):
        q = OptionQuote(strike=100.0, expiry="e", kind="call", bid=1.0, ask=2.0)
        with pytest.raises(InvalidInput):
            OptionChain(expiry="e", quotes=(q, q))

    def test_legs_match_a_linear_scan(self):
        # 90 has both legs, 95 only a call, 105 only a put, 110 both
        quotes = tuple(
            OptionQuote(strike=strike, expiry="e", kind=kind, bid=1.0, ask=2.0)
            for strike, kind in (
                (110.0, "put"), (90.0, "call"), (95.0, "call"),
                (105.0, "put"), (90.0, "put"), (110.0, "call"),
            )
        )
        chain = OptionChain(expiry="e", quotes=quotes)

        def scan(strike, kind):
            hits = [q for q in quotes if q.strike == strike and q.kind == kind]
            return hits[0] if hits else None

        assert chain.pairs() == [
            (strike, scan(strike, "call"), scan(strike, "put"))
            for strike in (90.0, 95.0, 105.0, 110.0)
        ]

    QUOTES = tuple(
        OptionQuote(strike=strike, expiry="e", kind=kind, bid=1.0, ask=2.0)
        for strike, kind in ((90.0, "call"), (90.0, "put"), (95.0, "call"),
                             (105.0, "put"), (110.0, "call"), (110.0, "put"))
    )

    @given(st.permutations(QUOTES))
    @settings(derandomize=True, max_examples=50)
    def test_pairs_is_a_fresh_list(self, quotes):
        chain = OptionChain(expiry="e", quotes=tuple(quotes))
        want = OptionChain(expiry="e", quotes=self.QUOTES).pairs()
        got = chain.pairs()
        assert got == want
        got.reverse()
        got[0] = None
        got.append((1.0, None, None))
        assert chain.pairs() == want

    def test_forward_discount_validation(self):
        with pytest.raises(InvalidInput):
            ForwardDiscount(forward=0.0, discount=0.99, residual_rmse=0.0)
        with pytest.raises(InvalidInput):
            ForwardDiscount(forward=100.0, discount=1.2, residual_rmse=0.0)


class TestYearFraction:
    def test_known_span(self):
        assert year_fraction("2026-12-18", "2026-08-16") == pytest.approx(
            124.0 / 365.25, abs=1e-15
        )

    def test_rejects_non_positive_span(self):
        with pytest.raises(InvalidInput):
            year_fraction("2026-08-16", "2026-08-16")
        with pytest.raises(InvalidInput):
            year_fraction("2026-08-15", "2026-08-16")

    def test_rejects_bad_dates(self):
        with pytest.raises(ParseError):
            year_fraction("18-12-2026", "2026-08-16")
        with pytest.raises(ParseError):
            year_fraction("2026-12-18", "yesterday")


class TestInferForwardDiscount:
    def test_exact_parity(self):
        fd = infer_forward_discount(_flat_chain([80.0, 90.0, 100.0, 110.0, 125.0]))
        assert fd.forward == pytest.approx(100.0, abs=1e-10)
        assert fd.discount == pytest.approx(0.99, abs=1e-12)
        assert fd.residual_rmse < 1e-12

    def test_noisy_parity(self):
        rng = np.random.default_rng(9)
        quotes = []
        for strike in (80.0, 90.0, 100.0, 110.0, 125.0):
            k = math.log(strike / 100.0)
            noise = float(rng.uniform(-0.01, 0.01))
            c = 0.99 * 100.0 * call_price(k, 0.2) + noise
            p = 0.99 * 100.0 * put_price(k, 0.2)
            quotes.append(OptionQuote(strike, "e", "call", c, c))
            quotes.append(OptionQuote(strike, "e", "put", p, p))
        fd = infer_forward_discount(OptionChain("e", tuple(quotes)))
        assert fd.forward == pytest.approx(100.0, abs=0.1)
        assert fd.discount == pytest.approx(0.99, abs=1e-2)
        assert 1e-4 < fd.residual_rmse < 0.05

    def test_needs_two_pairs(self):
        quotes = (
            OptionQuote(100.0, "e", "call", 5.0, 5.0),
            OptionQuote(100.0, "e", "put", 4.0, 4.0),
            OptionQuote(110.0, "e", "call", 2.0, 2.0),
        )
        with pytest.raises(InsufficientPairs):
            infer_forward_discount(OptionChain("e", quotes))

    def test_rejects_positive_slope(self):
        # call-put difference increasing in strike flips the slope sign
        quotes = []
        for strike in (90.0, 100.0, 110.0):
            c = 2.0 + 0.1 * (strike - 90.0)
            quotes.append(OptionQuote(strike, "e", "call", c, c))
            quotes.append(OptionQuote(strike, "e", "put", 2.0, 2.0))
        with pytest.raises(NonPositiveDiscount):
            infer_forward_discount(OptionChain("e", quotes))


class TestBuildVolSlice:
    FD = ForwardDiscount(forward=100.0, discount=0.99, residual_rmse=0.0)

    def test_flat_vol_round_trip(self):
        chain = _flat_chain([80.0, 90.0, 100.0, 110.0, 120.0])
        slice_, skipped = build_vol_slice(chain, self.FD, t=0.5)
        assert skipped == []
        assert len(slice_) == 5
        assert np.allclose(slice_.w_mid, 0.04, atol=1e-10)
        assert np.allclose(slice_.w_bid, 0.04, atol=1e-10)
        assert np.allclose(slice_.w_ask, 0.04, atol=1e-10)
        assert slice_.t == 0.5
        assert slice_.forward == 100.0
        want_k = [math.log(s / 100.0) for s in (80.0, 90.0, 100.0, 110.0, 120.0)]
        assert np.allclose(slice_.k, want_k, atol=1e-15)

    def test_spread_orders_the_sides(self):
        chain = _flat_chain([85.0, 95.0, 100.0, 105.0, 115.0], spread=0.04)
        slice_, skipped = build_vol_slice(chain, self.FD, t=0.5)
        assert skipped == []
        assert np.all(slice_.w_bid < slice_.w_mid)
        assert np.all(slice_.w_mid < slice_.w_ask)

    def test_otm_leg_is_preferred(self):
        # above the forward the call is used even when a put is also quoted;
        # the flat-vol chain makes either leg give the same variance, so
        # check the skip reports the call side when its bid is zeroed
        quotes = [
            OptionQuote(110.0, "e", "call", 0.0, 1.7),
            OptionQuote(110.0, "e", "put", 10.6, 11.0),
            OptionQuote(90.0, "e", "put", 1.6, 1.8),
        ]
        slice_, skipped = build_vol_slice(
            OptionChain("e", tuple(quotes)), self.FD, t=0.5
        )
        assert [s.strike for s in skipped] == [110.0]
        assert "call bid is zero" in skipped[0].reason
        assert len(slice_) == 1

    def test_falls_back_to_the_other_leg(self):
        # strike above the forward with only a put quoted still contributes
        price = 0.99 * 100.0 * put_price(math.log(1.1), 0.2)
        quotes = [
            OptionQuote(110.0, "e", "put", price, price),
            OptionQuote(90.0, "e", "put", 1.6, 1.8),
        ]
        slice_, skipped = build_vol_slice(
            OptionChain("e", tuple(quotes)), self.FD, t=0.5
        )
        assert skipped == []
        assert slice_.w_mid[-1] == pytest.approx(0.04, abs=1e-10)

    def test_strikes_on_one_log_moneyness_keep_the_first(self):
        # 400 / 50 and 399.99999999999994 / 50 have one log in floats
        fd = ForwardDiscount(forward=50.0, discount=1.0, residual_rmse=0.0)
        quotes = tuple(OptionQuote(strike, "e", "call", 1e-11, 1e-11)
                       for strike in (400.0, 399.99999999999994))
        assert math.log(quotes[0].strike / 50.0) == math.log(quotes[1].strike / 50.0)
        slice_, skipped = build_vol_slice(OptionChain("e", quotes), fd, t=0.5)
        assert slice_.k.tolist() == [math.log(8.0)]
        assert [(s.strike, s.reason) for s in skipped] == [
            (400.0, f"log-moneyness {math.log(8.0)!r} collides with strike 399.99999999999994"),
        ]

    def test_uninvertible_mid_is_skipped(self):
        bad = 0.99 * 100.0 * 1.2  # call worth more than the forward bound
        quotes = [
            OptionQuote(110.0, "e", "call", bad, bad),
            OptionQuote(90.0, "e", "put", 1.6, 1.8),
        ]
        slice_, skipped = build_vol_slice(
            OptionChain("e", tuple(quotes)), self.FD, t=0.5
        )
        assert len(slice_) == 1
        assert [s.strike for s in skipped] == [110.0]
        assert "mid" in skipped[0].reason

    def test_uninvertible_side_becomes_nan(self):
        # ask beyond the upper price bound, mid still fine
        k = math.log(0.9)
        bound = 0.99 * 100.0 * math.exp(k)
        quotes = [
            OptionQuote(90.0, "e", "put", 1.0, bound * 1.01),
            OptionQuote(100.0, "e", "put", 4.4, 4.6),
        ]
        slice_, skipped = build_vol_slice(
            OptionChain("e", tuple(quotes)), self.FD, t=0.5
        )
        assert skipped == []
        assert math.isnan(slice_.w_ask[0])
        assert math.isfinite(slice_.w_mid[0])
        assert math.isfinite(slice_.w_bid[0])

    def test_empty_slice_raises(self):
        quotes = [OptionQuote(110.0, "e", "call", 0.0, 1.7)]
        with pytest.raises(EmptySlice):
            build_vol_slice(OptionChain("e", tuple(quotes)), self.FD, t=0.5)

    def test_prices_that_are_not_finite_are_skipped(self):
        # a mid that overflows, and a scale discount * forward that
        # underflows to 0, make prices the inverter refuses as not finite
        quotes = (OptionQuote(120.0, "e", "call", 1e308, 1.5e308),
                  OptionQuote(90.0, "e", "put", 1.6, 1.8))
        _, skipped = build_vol_slice(OptionChain("e", quotes), self.FD, t=0.5)
        assert [(s.strike, s.reason) for s in skipped] == [
            (120.0, "call mid: price must be finite, got inf")]
        with pytest.raises(EmptySlice):
            build_vol_slice(OptionChain("e", quotes),
                            ForwardDiscount(1e-200, 1e-200, 0.0), t=0.5)

    def test_rejects_bad_t(self):
        chain = _flat_chain([90.0, 100.0, 110.0])
        with pytest.raises(InvalidInput):
            build_vol_slice(chain, self.FD, t=0.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(5.0, 400.0), st.sampled_from(["call", "put"]),
                st.sampled_from([0.0, 1e-13, 1e-6, 0.01, 1.0, 10.0, 100.0, 1e3]),
                st.floats(0.0, 1.0), st.floats(0.0, 1.0),
            ),
            min_size=1, max_size=30, unique_by=lambda q: (q[0], q[1]),
        ),
        st.floats(50.0, 150.0), st.floats(0.8, 1.05),
    )
    # two strikes that round to one log-moneyness: the later one is skipped
    @example([(400.0, "call", 1e-13, 1.0, 0.0), (399.99999999999994, "call", 1e-13, 1.0, 0.0)],
             50.0, 1.0)
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_matches_one_quote_at_a_time(self, legs, forward, discount):
        # bids from zero up, spreads from none to wider than the bid, prices
        # from below the floor vol to above the upper bound
        quotes = tuple(
            OptionQuote(strike, "e", kind, scale * bid, scale * (bid + spread))
            for strike, kind, scale, bid, spread in legs
        )
        chain = OptionChain("e", quotes)
        fd = ForwardDiscount(forward, discount, 0.0)
        ks, w_mid, w_bid, w_ask, skipped = slice_one_quote_at_a_time(chain, fd)
        if not ks:
            with pytest.raises(EmptySlice):
                build_vol_slice(chain, fd, t=0.5)
            return
        slice_, got_skipped = build_vol_slice(chain, fd, t=0.5)
        assert [(s.strike, s.reason) for s in got_skipped] == skipped
        for got, want in ((slice_.k, ks), (slice_.w_mid, w_mid),
                          (slice_.w_bid, w_bid), (slice_.w_ask, w_ask)):
            assert got.tobytes() == np.asarray(want).tobytes()


class TestBuildVolSliceRaises:
    """Only a solve out of iterations raises; the inverter is made to run
    out on chosen normalized prices, and inversion_error is watched to see
    which row and side raise."""

    FD = ForwardDiscount(forward=100.0, discount=1.0, residual_rmse=0.0)

    @pytest.fixture
    def stuck(self, monkeypatch):
        errors = []

        def stuck_at(*prices):
            def fake(k, price, is_call):
                theta, code = implied_total_vols(k, price, is_call)
                hit = np.isin(price, prices)
                theta[hit], code[hit] = math.nan, MAX_ITERATIONS
                return theta, code

            monkeypatch.setattr(market_data, "implied_total_vols", fake)

        def watch(code, k, price, is_call):
            errors.append((code, k, price, is_call))
            return inversion_error(code, k, price, is_call)

        monkeypatch.setattr(market_data, "inversion_error", watch)
        return stuck_at, errors

    def test_first_stuck_row_in_strike_order_raises(self, stuck):
        stuck_at, errors = stuck
        chain = _flat_chain([80.0, 90.0, 100.0, 110.0, 120.0], discount=1.0, spread=0.04)
        legs = {strike: put if strike < 100.0 else call for strike, call, put in chain.pairs()}
        # given out of strike order: 110's ask, 120's mid, then 90's bid
        stuck_at(legs[110.0].ask / 100.0, legs[120.0].mid / 100.0, legs[90.0].bid / 100.0)
        with pytest.raises(MaxIterations):
            build_vol_slice(chain, self.FD, t=0.5)
        assert errors[-1] == (MAX_ITERATIONS, math.log(0.9), legs[90.0].bid / 100.0, False)

    def test_zero_bid_row_is_skipped_not_raised(self, stuck):
        stuck_at, _ = stuck
        empty = OptionQuote(95.0, "e", "put", 0.0, 1.5)
        chain = _flat_chain([90.0, 100.0, 110.0], discount=1.0, expiry="e")
        chain = OptionChain("e", (*chain.quotes, empty))
        stuck_at(empty.mid / 100.0, empty.ask / 100.0)
        slice_, skipped = build_vol_slice(chain, self.FD, t=0.5)
        assert [(s.strike, s.reason) for s in skipped] == [(95.0, "put bid is zero")]
        assert len(slice_) == 3

    def test_failed_mid_shadows_a_stuck_bid(self, stuck):
        stuck_at, _ = stuck
        # a call's mid of 1.2 forwards is above its upper bound of 1
        bad = OptionQuote(120.0, "e", "call", 110.0, 130.0)
        chain = _flat_chain([90.0, 100.0, 110.0], discount=1.0, expiry="e")
        chain = OptionChain("e", (*chain.quotes, bad))
        stuck_at(bad.bid / 100.0)
        slice_, skipped = build_vol_slice(chain, self.FD, t=0.5)
        assert [(s.strike, s.reason) for s in skipped] == [
            (120.0, "call mid: call price 1.2 at or above upper bound 1.0")]
        assert len(slice_) == 3


class TestEndToEnd:
    def test_synthetic_chain_reproduces_the_smile(self):
        truth = MODEL_ROWS[0]
        forward, discount = 100.0, 0.99
        quotes = []
        for k in MODEL_GRID:
            strike = forward * math.exp(float(k))
            theta = math.sqrt(svi(truth, float(k)))
            for kind, fn in (("call", call_price), ("put", put_price)):
                price = discount * forward * fn(float(k), theta)
                quotes.append(OptionQuote(strike, "2027-08-16", kind, price, price))
        chain = OptionChain("2027-08-16", tuple(quotes))

        fd = infer_forward_discount(chain)
        assert fd.forward == pytest.approx(forward, rel=1e-10)
        assert fd.discount == pytest.approx(discount, rel=1e-10)

        t = year_fraction("2027-08-16", "2026-08-16")
        slice_, skipped = build_vol_slice(chain, fd, t=t)
        assert skipped == []
        assert np.allclose(slice_.k, MODEL_GRID, atol=1e-9)
        want_w = np.asarray(svi(truth, MODEL_GRID))
        assert np.allclose(slice_.w_mid, want_w, atol=1e-9)

        result = calibrate(slice_, CalibrationConfig(n_starts=1, seed=0))
        assert result.diagnostic.is_free
        got = params_vector(result.params)
        want = params_vector(truth)
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6
