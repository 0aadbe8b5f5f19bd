"""Spans and counters at butterfree's module boundaries, from outside.

install() replaces a function at every name a butterfree module binds it
to (``butterfree.domain.fukasawa_threshold``, ``butterfree.numerics.brentq``
and so on) with a wrapper that records a span: its name, start, end,
parent span and request id.  Solver wrappers also count the objective
evaluations passed through them.  Records stay in memory in typed arrays
and are written out once, by save().  A boundary that no longer exists is
listed in ``absent`` and skipped.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: (span name, defining module, attribute, wrapper kind)
BOUNDARIES = (
    ("calibration.calibrate", "butterfree.calibration", "calibrate", "calibrate"),
    ("calibration.start", "butterfree.calibration", "least_squares_bounded", "start"),
    ("domain.check", "butterfree.domain", "check_no_arbitrage", "plain"),
    ("domain.box_to_params", "butterfree.domain", "box_to_params", "plain"),
    ("domain.g2_zeros", "butterfree.domain", "g2_zeros", "plain"),
    ("domain.sigma_star", "butterfree.domain", "_sigma_star_trusted", "plain"),
    ("fukasawa.threshold", "butterfree.fukasawa", "fukasawa_threshold", "plain"),
    ("fukasawa.interval", "butterfree.fukasawa", "mu_interval", "plain"),
    ("numerics.brent", "butterfree.numerics", "brentq", "solver"),
    ("numerics.golden", "butterfree.numerics", "golden_section_max", "solver"),
    ("numerics.lsq", "butterfree.numerics", "least_squares", "lsq"),
    ("black_scholes.implied_vol", "butterfree.black_scholes", "implied_total_vol", "plain"),
    ("market_data.load", "butterfree.market_data", "load_chain", "plain"),
    ("market_data.forward", "butterfree.market_data", "infer_forward_discount", "plain"),
    ("market_data.slice", "butterfree.market_data", "build_vol_slice", "plain"),
)

#: Residual evaluations inside a start; a span of its own, not a binding.
PIPELINE = "calibration.pipeline"


class Tracer:
    def __init__(self) -> None:
        self.names = [b[0] for b in BOUNDARIES] + [PIPELINE]
        self.code = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.requests: list[str] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        #: per calibrate call: (pipeline evals per start, result, n_starts)
        self.fits: list[tuple[list[int], object, int]] = []
        self._stack: list[int] = []
        self._req = -1
        self._undo: list[tuple[object, str, object]] = []
        self._start_evals: list[int] | None = None

    # -------------------------------------------------------------- spans

    def set_request(self, rid: str) -> None:
        self._req = len(self.requests)
        self.requests.append(rid)

    def _open(self, code: int) -> int:
        i = len(self.end)
        self.name.append(code)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._req)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    # ----------------------------------------------------------- wrappers

    def _plain(self, code, fn):
        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _solver(self, code, fn):
        key = self.names[code] + ".f_evals"
        counts = self.counts

        def traced(f, *args, **kwargs):
            def counted(x, *a):
                counts[key] += 1
                return f(x, *a)

            i = self._open(code)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(i)

        return traced

    def _lsq(self, code, fn):
        counts = self.counts

        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            counts["numerics.lsq.nfev"] += int(result.nfev)
            # status 0: the evaluation budget ran out
            counts["numerics.lsq.capped"] += int(result.status == 0)
            return result

        return traced

    def _start(self, code, fn):
        pipe = self.code[PIPELINE]

        def traced(residuals, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                j = self._open(pipe)
                try:
                    return residuals(x)
                finally:
                    self._close(j)

            i = self._open(code)
            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(i)
                if self._start_evals is not None:
                    self._start_evals.append(evals[0])

        return traced

    def _calibrate(self, code, fn):
        def traced(slice_, config=None, *args, **kwargs):
            outer = self._start_evals
            self._start_evals = evals = []
            i = self._open(code)
            try:
                result = fn(slice_, config, *args, **kwargs)
            finally:
                self._close(i)
                self._start_evals = outer
            n_starts = getattr(config, "n_starts", None)
            self.fits.append((evals, result, n_starts))
            return result

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every boundary at each butterfree name bound to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "butterfree" or n.startswith("butterfree.")) and m is not None]
        for name, module_name, attr, kind in BOUNDARIES:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.append(f"{name} ({module_name}.{attr})")
                continue
            wrapper = getattr(self, "_" + kind)(self.code[name], original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    # ------------------------------------------------------------ summary

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def self_times(self, pauses=(), factor=1.0):
        """Per-span duration and self time (duration minus direct children).

        Each (start, end) pause, time the benchmark spent outside the
        program, is removed from the innermost span around it and from its
        ancestors; both are then multiplied by ``factor``.
        """
        _, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        own = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        for p0, p1 in pauses:
            i = int(np.searchsorted(start, p0, side="right")) - 1
            while i >= 0 and end[i] < p1:
                i = int(parent[i])
            if i >= 0:
                own[i] -= p1 - p0
            while i >= 0:
                dur[i] -= p1 - p0
                i = int(parent[i])
        return dur * factor, own * factor

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named ``ancestor`` above them."""
        name, parent, _, _ = self.arrays()
        inside = np.zeros(len(name), dtype=bool)
        code = self.code[ancestor]
        up = parent.copy()
        live = np.flatnonzero(up >= 0)
        while live.size:
            inside[live] |= name[up[live]] == code
            up[live] = parent[up[live]]
            live = live[up[live] >= 0]
        return inside

    def save(self, path_stem: str) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(
            path_stem + ".npz", name=name, parent=parent, start=start, end=end,
            request=np.frombuffer(self.request, dtype=np.int64),
        )
        with open(path_stem + ".json", "w") as handle:
            json.dump({"names": self.names, "requests": self.requests,
                       "absent": self.absent, "counts": dict(self.counts)}, handle)
