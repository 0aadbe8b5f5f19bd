"""Command-line front end.

Exposes the arbitrage diagnostics, the threshold queries, slice calibration,
chain ingestion, and tabular plot-data emission.  Human-readable summaries go
to standard output; machine-readable documents are written to files so the
tool chains cleanly in scripts.

Exit codes are a stable contract:

  0   Free smile or command success
  2   Failure1 (wing slope above 2)
  3   Failure2 (empty shift interval: alpha at or below F)
  4   Failure3 (mu outside its interval)
  5   Failure4 (sigma below sigma_star)
  64  invalid input (bad flags, malformed files, domain violations)
  70  internal numeric failure
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import os
import sys
from dataclasses import asdict, fields

from .domain import check_no_arbitrage, sigma_star, sigma_star_profile
from .errors import ButterfreeError, InvalidInput, NumericFailure
from .fukasawa import L_minus, L_plus, fukasawa_threshold, g_pm, mu_interval
from .numerics import is_real, require_finite, require_real
from .smile import SviParams, n_funcs

EXIT_OK = 0
EXIT_INPUT = 64
EXIT_NUMERIC = 70

_PARAM_KEYS = tuple(f.name for f in fields(SviParams))


def _read_json(path: str) -> dict:
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, or an integer of over 4,300 digits
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path} must hold a JSON object")
    return doc


def _write_json(path: str, payload: dict) -> None:
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise InvalidInput(f"cannot write {path}: {exc}") from None


def read_params(path: str) -> dict:
    doc = _read_json(path)
    missing = [key for key in _PARAM_KEYS if key not in doc]
    if missing:
        raise InvalidInput(f"{path} is missing keys: {', '.join(missing)}")
    bad = [
        key for key in _PARAM_KEYS
        if not is_real(doc[key]) or abs(doc[key]) > sys.float_info.max
    ]
    if bad:
        raise InvalidInput(f"{path} has values that are not finite numbers: {', '.join(bad)}")
    return {key: float(doc[key]) for key in _PARAM_KEYS}


def _params_from_args(args) -> SviParams:
    values = read_params(args.params) if args.params else {}
    for key in _PARAM_KEYS:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    missing = [key for key in _PARAM_KEYS if key not in values]
    if missing:
        raise InvalidInput(
            f"parameters incomplete; provide --params or flags for: {', '.join(missing)}"
        )
    return SviParams(**values)


def slice_to_dict(slice_: MarketSlice) -> dict:
    def column(arr):
        return None if arr is None else [float(x) for x in arr]

    return {
        "k": column(slice_.k),
        "w_mid": column(slice_.w_mid),
        "w_bid": column(slice_.w_bid),
        "w_ask": column(slice_.w_ask),
        "t": slice_.t,
        "forward": slice_.forward,
        "discount": slice_.discount,
        "expiry": slice_.expiry,
    }


def slice_from_dict(doc: dict) -> MarketSlice:
    import numpy as np

    from .calibration import MarketSlice

    for key in ("k", "w_mid"):
        if key not in doc or doc[key] is None:
            raise InvalidInput(f"slice document is missing {key}")

    def column(name):
        value = doc.get(name)
        if value is None:
            return None
        if isinstance(value, list) and all(is_real(x) for x in value):
            try:
                return np.asarray(value, dtype=float)
            except OverflowError:  # an integer beyond the float range
                pass
        raise InvalidInput(f"slice field {name} must hold a list of numbers")

    return MarketSlice(
        k=column("k"),
        w_mid=column("w_mid"),
        w_bid=column("w_bid"),
        w_ask=column("w_ask"),
        t=doc.get("t"),
        forward=doc.get("forward"),
        discount=doc.get("discount"),
        expiry=doc.get("expiry"),
    )


def read_slice(path: str) -> MarketSlice:
    return slice_from_dict(_read_json(path))


def write_slice(path: str, slice_: MarketSlice) -> None:
    _write_json(path, slice_to_dict(slice_))


def config_from_dict(doc: dict) -> CalibrationConfig:
    from .calibration import CalibrationConfig

    extra = set(doc) - {f.name for f in fields(CalibrationConfig)}
    if extra:
        raise InvalidInput(f"unknown config keys: {', '.join(sorted(extra))}")
    return CalibrationConfig(**doc)


def result_to_dict(result: CalibrationResult) -> dict:
    return {
        "params": asdict(result.params),
        "box": asdict(result.box),
        "cost": result.cost,
        "rel_error_fro": result.rel_error_fro,
        "status": result.diagnostic.status.value,
        # wall_time stays out of the document so seeded reruns produce
        # byte-identical files; the summary line reports it instead
        "starts": [
            {
                "index": s.index,
                "x0": list(s.x0),
                "x": None if s.x is None else list(s.x),
                # strict JSON has no Infinity: a start with no point has no cost
                "cost": s.cost if math.isfinite(s.cost) else None,
                "converged": s.converged,
                "nfev": s.nfev,
                "njev": s.njev,
                "stop": s.stop,
                "error": s.error,
            }
            for s in result.starts
        ],
    }


def cmd_check(args) -> int:
    params = _params_from_args(args)
    diag = check_no_arbitrage(params)
    if diag.is_free:
        print(f"Free: {diag.message}")
    else:
        print(f"{diag.status.value}: {diag.message}")
    print(f"  slopes: left={diag.slope_left!r} right={diag.slope_right!r}")
    if diag.threshold is not None:
        print(f"  alpha={diag.alpha!r} threshold={diag.threshold!r}")
    if diag.interval is not None:
        print(f"  mu={diag.mu!r} interval=({diag.interval.lower!r}, {diag.interval.upper!r})")
    if diag.sigma_star is not None:
        print(f"  sigma={params.sigma!r} sigma_star={diag.sigma_star!r}")
    return diag.exit_code


def cmd_threshold(args) -> int:
    value = fukasawa_threshold(args.b, args.rho)
    print(f"F({args.b:.6g}, {args.rho:.6g}) = {value!r}")
    return EXIT_OK


def cmd_interval(args) -> int:
    interval = mu_interval(args.alpha, args.b, args.rho)
    print(
        f"I(alpha={args.alpha:.6g}, b={args.b:.6g}, rho={args.rho:.6g}) = "
        f"({interval.lower!r}, {interval.upper!r})"
    )
    return EXIT_OK


def cmd_sigma_star(args) -> int:
    value = sigma_star(args.alpha, args.b, args.rho, args.mu)
    print(
        f"sigma_star(alpha={args.alpha:.6g}, b={args.b:.6g}, "
        f"rho={args.rho:.6g}, mu={args.mu:.6g}) = {value!r}"
    )
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from .calibration import CalibrationConfig, calibrate

    slice_ = read_slice(args.slice)
    doc = _read_json(args.config) if args.config else {}
    for field in fields(CalibrationConfig):
        if getattr(args, field.name) is not None:
            doc[field.name] = getattr(args, field.name)
    config = config_from_dict(doc)
    result = calibrate(slice_, config)
    out = args.out or (args.slice + ".result.json")
    _write_json(out, result_to_dict(result))
    p = result.params
    print(
        f"params: a={p.a!r} b={p.b!r} rho={p.rho!r} "
        f"m={p.m!r} sigma={p.sigma!r}"
    )
    print(f"status: {result.diagnostic.status.value}")
    print(f"cost: {result.cost:.6e}")
    print(f"relative error (Frobenius): {result.rel_error_fro:.6e}")
    print(f"wall time: {result.wall_time:.2f}s")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_ingest(args) -> int:
    from .market_data import build_vol_slice, infer_forward_discount, load_chain, year_fraction

    if args.t is not None:  # a bad flag fails the command, not each chain
        require_real("--t", args.t, 0.0, strict=True)
    chains, rejects = load_chain(args.csv)
    if not chains:
        print("no chains found")
        for row in rejects:
            print(f"  rejected line {row.line}: {row.reason}")
        return EXIT_OK
    if args.t is None and args.valuation is None:
        raise InvalidInput("ingest needs --valuation (or an explicit --t)")
    written = 0
    for chain in chains:
        if chain.expiry in (".", "..") or any(c in chain.expiry for c in ("/", os.sep, "\0")):
            # the expiry names the slice file, so it must stay in --out-dir
            print(f"{chain.expiry}: skipped (expiry is not a plain file name)")
            continue
        try:
            fd = infer_forward_discount(chain)
            t = args.t if args.t is not None else year_fraction(chain.expiry, str(args.valuation))
            slice_, skipped = build_vol_slice(chain, fd, t)
        except ButterfreeError as exc:
            print(f"{chain.expiry}: skipped ({exc})")
            continue
        out = f"{args.out_dir}/{chain.expiry}.slice.json"
        write_slice(out, slice_)
        written += 1
        print(
            f"{chain.expiry}: {len(slice_)} strikes, forward={fd.forward:.6g}, "
            f"discount={fd.discount:.6g}, rmse={fd.residual_rmse:.3g} -> {out}"
        )
        for skip in skipped:
            print(f"  skipped strike {skip.strike:g}: {skip.reason}")
    for row in rejects:
        print(f"rejected line {row.line}: {row.reason}")
    if written == 0:
        print("no slices written")
    return EXIT_OK


def _plot_columns(args) -> tuple[list[str], list[tuple[float, ...]]]:
    import numpy as np

    from .arrays import durrleman_g, svi

    n = args.grid
    if n < 1:
        raise InvalidInput(f"--grid must be at least 1, got {n}")
    require_finite(**{"--from": args.lo, "--to": args.hi})
    if n > 1:
        if args.lo >= args.hi:
            raise InvalidInput(f"--from must be below --to, got [{args.lo}, {args.hi}]")
        require_finite(**{"--to - --from": args.hi - args.lo})
    xs = np.linspace(args.lo, args.hi, n) if n > 1 else np.array([args.lo])

    which = args.which
    if which in ("smile", "g"):
        params = _params_from_args(args)
    else:
        # g+- depends on b and rho alone; the other curves also on alpha
        flags = {"--b": args.b, "--rho": args.rho}
        if which != "gpm":
            flags = {"--alpha": args.alpha, **flags}
        if None in flags.values():
            *rest, last = flags
            raise InvalidInput(f"--which {which} needs {', '.join(rest)} and {last}")
        require_finite(**flags)
        alpha, b, rho = args.alpha, args.b, args.rho
        if b <= 0.0:
            raise InvalidInput(f"--b must be positive, got {b!r}")
        if abs(rho) > 1.0:
            raise InvalidInput(f"--rho must lie in [-1, 1], got {rho!r}")
    if which == "f-profile":
        if args.mu is None:
            raise InvalidInput("--which f-profile needs --mu")
        require_finite(**{"--mu": args.mu})

    def g2(l):
        n0, n1, n2, _ = n_funcs(alpha, b, rho, l)
        # G2 divides by N, which is not positive here
        return l, n2 - n1 * n1 / (2.0 * n0) if n0 > 0.0 else math.nan

    def half_lines(l):
        cells = [l]
        for func in (L_minus, L_plus):
            try:
                cells.append(func(l, alpha, b, rho))
            except ButterfreeError:  # off func's half-line, or no value there
                cells.append(math.nan)
        return tuple(cells)

    def f_profile(h):
        if h == 0.0:
            return 0.0, math.nan
        try:
            return h, sigma_star_profile(alpha, b, rho, args.mu, h)
        except NumericFailure:  # N(1/h) rounds to 0
            return h, math.nan

    header, row = {
        "smile": (["k", "w"], lambda k: (k, svi(params, k))),
        "g": (["k", "g"], lambda k: (k, durrleman_g(params, k))),
        "g2": (["l", "g2"], g2),
        "gpm": (["l", "g_minus", "g_plus"],
                lambda l: (l, g_pm(b, rho, l, "-"), g_pm(b, rho, l, "+"))),
        "L": (["l", "L_minus", "L_plus"], half_lines),
        "f-profile": (["h", "f"], f_profile),
    }[which]
    return header, [row(float(x)) for x in xs]


def cmd_plot_data(args) -> int:
    header, rows = _plot_columns(args)
    lines = [",".join(header)]
    lines.extend(",".join(repr(c) for c in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.out}: {exc}") from None
        print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--params", help="JSON file with keys a, b, rho, m, sigma")
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butterfree",
        description="Butterfly-arbitrage diagnostics and calibration for SVI smiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="classify a parameter set")
    _add_params_flags(p_check)
    p_check.set_defaults(func=cmd_check)

    p_thr = sub.add_parser("threshold", help="threshold F(b, rho) for alpha")
    p_thr.add_argument("--b", type=float, required=True)
    p_thr.add_argument("--rho", type=float, required=True)
    p_thr.set_defaults(func=cmd_threshold)

    p_int = sub.add_parser("interval", help="admissible interval for mu")
    p_int.add_argument("--alpha", type=float, required=True)
    p_int.add_argument("--b", type=float, required=True)
    p_int.add_argument("--rho", type=float, required=True)
    p_int.set_defaults(func=cmd_interval)

    p_ss = sub.add_parser("sigma-star", help="curvature floor sigma*")
    p_ss.add_argument("--alpha", type=float, required=True)
    p_ss.add_argument("--b", type=float, required=True)
    p_ss.add_argument("--rho", type=float, required=True)
    p_ss.add_argument("--mu", type=float, required=True)
    p_ss.set_defaults(func=cmd_sigma_star)

    p_cal = sub.add_parser("calibrate", help="fit a slice inside the free domain")
    p_cal.add_argument("--slice", required=True, help="slice JSON file")
    p_cal.add_argument("--config", help="config JSON file")
    p_cal.add_argument("--out", help="result JSON file (default <slice>.result.json)")
    # flags override the config file; each dest is its config key
    p_cal.add_argument("--starts", dest="n_starts", type=int, default=None)
    p_cal.add_argument("--seed", type=int, default=None)
    p_cal.add_argument("--alpha-cap", dest="alpha_cap", type=float, default=None)
    p_cal.add_argument("--vega-weighted", action="store_true", default=None)
    p_cal.set_defaults(func=cmd_calibrate)

    p_ing = sub.add_parser("ingest", help="read a quote file, emit slice files")
    p_ing.add_argument("--csv", required=True)
    p_ing.add_argument("--valuation", type=dt.date.fromisoformat,
                       help="valuation date YYYY-MM-DD")
    p_ing.add_argument("--t", type=float, default=None, help="year fraction override")
    p_ing.add_argument("--out-dir", dest="out_dir", default=".")
    p_ing.set_defaults(func=cmd_ingest)

    p_plot = sub.add_parser("plot-data", help="emit curve samples as delimited text")
    p_plot.add_argument(
        "--which",
        required=True,
        choices=["smile", "g", "g2", "gpm", "L", "f-profile"],
    )
    p_plot.add_argument("--from", dest="lo", type=float, required=True)
    p_plot.add_argument("--to", dest="hi", type=float, required=True)
    p_plot.add_argument("--grid", type=int, default=201)
    p_plot.add_argument("--out", required=True, help="output file, or - for stdout")
    _add_params_flags(p_plot)
    p_plot.add_argument("--alpha", type=float, default=None)
    p_plot.add_argument("--mu", type=float, default=None)
    p_plot.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses its own exit code for usage errors; keep 0 for --help
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ButterfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
