"""The four workloads: how each builds an operation and checks its output.

item(i) returns (kind, request id, call) triples whose inputs are already
built, so only the call is timed.  check(call) compares one finished call
with the oracle, fills in call.summary and call.accuracy, and returns None
or a description of the miss.  fingerprint(call) reduces an output to
plain values for the traced-versus-untraced identity check.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

import oracle
import workloads as wl

#: The row of criterion 3 that fit-model fits, with criterion 3's config.
#: The row and the config's seed are fixed: another config seed draws other
#: random starts, and that alone moved a fit of this row from 8.7 to 24.6 s.
FIT_MODEL_ROW = 2
#: Share of strikes whose fitted variance must lie inside [w_bid, w_ask].
FIT_QUOTES_MIN_IN_SPREAD = 0.9


def params_tuple(p) -> tuple[float, ...]:
    return (p.a, p.b, p.rho, p.m, p.sigma)


def certify(bf, params) -> str | None:
    """A fitted smile must be Free by the waterfall and by brute-force g."""
    status = bf.check_no_arbitrage(params).status.value
    if status != "Free":
        return f"params {params_tuple(params)} recheck as {status}"
    return oracle.check_free(params_tuple(params))


def defect_probe(bf) -> list[str]:
    """check_no_arbitrage on workloads.defect_probe(), outside any workload.

    Returns one line per smile on which it raised or gave a verdict the
    oracle disputes: the known defect, kept in view (README.md).
    """
    misses = []
    for i, raw in enumerate(wl.defect_probe()):
        try:
            status = bf.check_no_arbitrage(bf.SviParams(*raw)).status.value
        except Exception as exc:  # a raise is what the probe counts
            problem = f"{type(exc).__name__}: {exc}"
        else:
            problem = oracle.check_verdict(raw, status)
        if problem:
            misses.append(f"probe[{i}] 1 - |rho| = {1.0 - abs(raw[2]):.3g}: {problem}")
    return misses


class Screen:
    """Waterfall classification interleaved with box construction."""

    def __init__(self, bf, seed: int) -> None:
        self.bf = bf
        self.rng = np.random.default_rng([seed, 1])
        self.raws: list = []
        self.boxes: list = []

    def item(self, i: int):
        bf = self.bf
        while i >= len(self.raws):
            raws, boxes = wl.screen_batch(self.rng, 256)
            self.raws += raws
            self.boxes += boxes
        params = bf.SviParams(*self.raws[i])
        box = bf.BoxCoords(*self.boxes[i])
        return [
            ("check", f"check:{i}", lambda: bf.check_no_arbitrage(params)),
            ("box", f"box:{i}", lambda: bf.box_to_params(box)),
        ]

    def check(self, call) -> str | None:
        if call.kind == "check":
            call.summary = call.output.status.value
            return oracle.check_verdict(self.raws[call.index], call.summary)
        problem = certify(self.bf, call.output)
        return f"box {self.boxes[call.index]}: {problem}" if problem else None

    def fingerprint(self, call):
        if call.kind == "check":
            return call.output.status.value
        return params_tuple(call.output)


class FitModel:
    """calibrate on the exact slice of one criterion-3 row, criterion 3's config."""

    def __init__(self, bf, seed: int) -> None:
        self.bf = bf
        self.k, self.w = wl.fit_model_input(FIT_MODEL_ROW)

    def item(self, i: int):
        bf = self.bf
        k, w = self.k.copy(), self.w.copy()
        config = bf.CalibrationConfig(alpha_cap=3.0)
        return [("fit", f"row{FIT_MODEL_ROW}:{i}",
                 lambda: bf.calibrate(bf.MarketSlice(k=k, w_mid=w), config))]

    def check(self, call) -> str | None:
        params = params_tuple(call.output.params)
        problem = certify(self.bf, call.output.params)
        if problem:
            return problem
        rel = oracle.rel_err(wl.svi_w(params, self.k), self.w)
        perr = oracle.rel_err(params, wl.MODEL_ROWS[FIT_MODEL_ROW])
        call.accuracy = (rel, perr)
        if rel > 1e-8:
            return f"relative error {rel!r} above 1e-8"
        if perr > 1e-6:
            return f"parameter error {perr!r} above 1e-6"
        return None

    def fingerprint(self, call):
        return params_tuple(call.output.params)


class FitQuotes:
    """CSV text to certified params: load, forward, slice, vega-weighted fit."""

    def __init__(self, bf, seed: int) -> None:
        self.bf = bf
        self.text, self.truths = wl.fit_quotes_document(seed)

    def item(self, i: int):
        bf = self.bf
        truth = self.truths[i % len(self.truths)]

        def fit():
            chains, _ = bf.load_chain(io.StringIO(self.text))
            chain = next(c for c in chains if c.expiry == truth.expiry)
            fd = bf.infer_forward_discount(chain)
            slice_, skipped = bf.build_vol_slice(
                chain, fd, bf.market_data.year_fraction(chain.expiry, wl.VALUATION))
            result = bf.calibrate(slice_, bf.CalibrationConfig(vega_weighted=True))
            return len(chain.quotes), len(skipped), slice_, result

        return [("fit", truth.expiry, fit)]

    def check(self, call) -> str | None:
        quotes, skipped, slice_, result = call.output
        call.summary = {"quotes": quotes, "rejects": 0, "skipped": skipped}
        problem = certify(self.bf, result.params)
        if problem:
            return problem
        w_fit = wl.svi_w(params_tuple(result.params), slice_.k)
        inside = float(np.mean((w_fit >= slice_.w_bid) & (w_fit <= slice_.w_ask)))
        call.accuracy = (oracle.rel_err(w_fit, slice_.w_mid), inside)
        if inside < FIT_QUOTES_MIN_IN_SPREAD:
            return f"only {inside:.3f} of fitted variances inside [w_bid, w_ask]"
        return None

    def fingerprint(self, call):
        return params_tuple(call.output[3].params)


class IngestWide:
    """Wide CSV text to MarketSlices, with planted rejects and skips."""

    def __init__(self, bf, seed: int) -> None:
        self.bf = bf
        # two documents, taken in turn: ingest keeps no state between calls
        self.docs = [wl.ingest_document(np.random.default_rng([seed, 4, j])) for j in range(2)]

    def item(self, i: int):
        bf = self.bf
        doc = self.docs[i % 2]

        def ingest():
            chains, rejects = bf.load_chain(io.StringIO(doc.text))
            slices = []
            for chain in chains:
                fd = bf.infer_forward_discount(chain)
                slice_, skipped = bf.build_vol_slice(
                    chain, fd, bf.market_data.year_fraction(chain.expiry, wl.VALUATION))
                slices.append((chain, fd, slice_, skipped))
            return rejects, slices

        return [("ingest", f"doc:{i}", ingest)]

    def check(self, call) -> str | None:
        doc = self.docs[call.index % 2]
        rejects, slices = call.output
        call.summary = {"rows": doc.rows, "rejects": len(rejects),
                        "quotes": sum(len(chain.quotes) for chain, _, _, _ in slices),
                        "skipped": sum(len(sk) for _, _, _, sk in slices)}
        got = {r.line: r.reason for r in rejects}
        if set(got) != set(doc.rejects):
            return f"rejected lines {sorted(got)} differ from planted {sorted(doc.rejects)}"
        for line, fragment in doc.rejects.items():
            if fragment not in got[line]:
                return f"line {line} rejected for {got[line]!r}, expected {fragment!r}"
        if [s[0].expiry for s in slices] != [t.expiry for t in doc.truths]:
            return "expiries differ from the generated ones"
        for (chain, fd, slice_, skipped), truth in zip(slices, doc.truths):
            if not (oracle.close(fd.forward, truth.forward, 1e-10)
                    and oracle.close(fd.discount, truth.discount, 1e-10)):
                return (f"{truth.expiry}: forward {fd.forward!r} / discount {fd.discount!r}, "
                        f"expected {truth.forward!r} / {truth.discount!r}")
            planted = {s for e, s in doc.zero_bids if e == truth.expiry}
            if {s.strike for s in skipped} != planted or any(
                    "bid is zero" not in s.reason for s in skipped):
                return f"{truth.expiry}: skips {[(s.strike, s.reason) for s in skipped]}"
            if len(slice_) != len(truth.strikes):
                return f"{truth.expiry}: {len(slice_)} strikes, expected {len(truth.strikes)}"
            w_true = wl.svi_w(truth.params, np.log(np.asarray(truth.strikes) / truth.forward))
            err = float(np.max(np.abs(slice_.w_mid / w_true - 1.0)))
            if not err <= 1e-8:
                return f"{truth.expiry}: total variance off by {err!r} relative"
        return None

    def fingerprint(self, call):
        rejects, slices = call.output
        digest = hashlib.sha256(repr([(r.line, r.reason) for r in rejects]).encode())
        for _, fd, s, skipped in slices:
            digest.update(repr((fd.forward, fd.discount, [(q.strike, q.reason) for q in skipped])).encode())
            for column in (s.k, s.w_mid, s.w_bid, s.w_ask):
                digest.update(column.tobytes())
        return digest.hexdigest()
