"""butterfree benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src.  Inputs
are generated from --seed (workloads.py) and driven through the public API
for about --seconds; every output is then checked against an independent
oracle (oracle.py) outside the timed region.  With --trace 0 the last line
is a JSON object with the end-to-end metrics; with --trace 1 a fixed number
of operations runs untraced and then again with spans at every module
boundary (tracer.py), and the JSON holds the per-layer metrics.  Times are
scaled to a nominal host speed (hostspeed.py).  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import cases
import hostspeed
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Fresh interpreters started per run to time `import butterfree`.
SETUP_REPEATS = 5
#: Operations in a traced run: fixed, so its counts repeat exactly.
TRACE_OPS = {"screen": 600, "fit-model": 1, "fit-quotes": 1, "ingest-wide": 2}

WORKLOADS = {"screen": cases.Screen, "fit-model": cases.FitModel,
             "fit-quotes": cases.FitQuotes, "ingest-wide": cases.IngestWide}

MODULES = ("butterfree", "svi", "fukasawa", "domain", "numerics", "calibration",
           "black_scholes", "market_data", "cli", "errors")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "op_p50_ms": "ms"}

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    **{f"{span}.{what}": unit
       for span in ("fukasawa.threshold", "fukasawa.interval", "domain.check",
                    "domain.box_to_params", "domain.g2_zeros", "domain.sigma_star")
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"numerics.{solver}.{what}": unit
       for solver in ("brent", "golden")
       for what, unit in (("calls", "count"), ("f_evals", "count"), ("self_s", "s"))},
    "numerics.lsq.calls": "count",
    "numerics.lsq.nfev": "count",
    "numerics.lsq.capped": "count",
    "numerics.lsq.self_s": "s",
    "calibration.pipeline_evals": "count",
    "calibration.evals_per_nfev": "ratio",
    "calibration.threshold_per_eval": "ratio",
    "calibration.winning_eval_share": "ratio",
    "calibration.informed_wins": "count",
    "calibration.start_s_p50": "s",
    "calibration.self_s": "s",
    "black_scholes.implied_vol.calls": "count",
    "black_scholes.implied_vol.self_s": "s",
    "market_data.load.self_s": "s",
    "market_data.forward.self_s": "s",
    "market_data.slice.self_s": "s",
    "market_data.quotes": "count",
    "market_data.rejects": "count",
    "market_data.skipped": "count",
    "domain.check.defect_probe_misses": "count",
    "cli.check_process_ms": "ms",
    **{f"{module}.import_ms": "ms" for module in MODULES},
    "trace.overhead_share": "ratio",
}


# --------------------------------------------------------------- driving


@dataclass
class Call:
    kind: str
    index: int
    t0: float
    t1: float
    output: object
    error: str | None
    #: why the call failed: it raised, missed its gate or disagreed
    problem: str | None = None
    fingerprint: object = None
    #: workload-specific counts taken from the output before it is dropped
    summary: object = None
    #: (relative error, parameter error or in-spread share) of a fit
    accuracy: tuple[float, float] | None = None
    #: wall seconds net of reference sampling, and the same scaled
    seconds: float = 0.0
    scaled: float = 0.0


def drive(workload, budget_s: float | None, n_items: int | None = None,
          tracer=None, check: bool = True):
    """Run items in a closed loop: the next starts when the last returns.

    Stops after ``n_items`` items, or before the item that would end past
    ``budget_s``.  Inputs are built before each timer starts; outputs
    are checked (when ``check``), fingerprinted and dropped after it stops.
    Returns the calls and the host-speed sampler that ran alongside them.
    """
    calls: list[Call] = []
    with hostspeed.Sampler() as sampler:
        t_begin = perf_counter()
        i = 0
        while n_items is None or i < n_items:
            # stop before an item that would, at the mean pace so far,
            # end past the budget; at least one item always runs
            elapsed = perf_counter() - t_begin
            if n_items is None and i > 0 and elapsed * (i + 1) / i > budget_s:
                break
            done = []
            for kind, rid, fn in workload.item(i):
                if tracer is not None:
                    tracer.set_request(rid)
                t0 = perf_counter()
                try:
                    out, err = fn(), None
                except Exception as exc:  # a failed operation is counted, not fatal
                    out, err = None, f"{type(exc).__name__}: {exc}"
                done.append(Call(kind, i, t0, perf_counter(), out, err))
            for call in done:
                settle(workload, call, check)
            calls += done
            i += 1
    factor = sampler.factor()
    for call in calls:
        call.seconds = sampler.busy(call.t0, call.t1)
        call.scaled = call.seconds * factor
    return calls, sampler


def settle(workload, call: Call, check: bool) -> None:
    """Check and fingerprint one call, then drop its output."""
    call.problem = call.error
    if call.error is None:
        if check:
            try:
                call.problem = workload.check(call)
            except Exception as exc:  # an output the oracle cannot read is a miss
                call.problem = f"unverifiable output: {type(exc).__name__}: {exc}"
        call.fingerprint = workload.fingerprint(call)
    call.output = None


# ------------------------------------------------------------- processes


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def timed_child(args: list[str], expect: int = 0) -> tuple[float, float]:
    """(raw, scaled) seconds of a fresh interpreter; its exit code is checked."""
    proc, raw, scaled = hostspeed.scaled_child_time(lambda: run_child(args))
    if proc.returncode != expect:
        raise RuntimeError(f"{args} exited {proc.returncode}, expected {expect}: "
                           f"{proc.stderr[-500:]}")
    return raw, scaled


def import_times() -> dict[str, float]:
    """Cumulative import ms per module from -X importtime, median of 3."""
    samples: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(3):
        proc = run_child(["-X", "importtime", "-c", "import butterfree.cli"])
        for line in proc.stderr.splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[1].isdigit() and parts[2].startswith("butterfree"):
                key = parts[2].removeprefix("butterfree.")
                if key in samples:
                    samples[key].append(int(parts[1]) / 1000.0)
    return {m: statistics.median(v) if v else 0.0 for m, v in samples.items()}


def cli_check_ms() -> float:
    """A fresh interpreter running the CLI's check on the Vogt set (scaled ms)."""
    flags = [x for key, v in zip(("a", "b", "rho", "m", "sigma"), wl.VOGT)
             for x in (f"--{key}", repr(v))]
    code = f"import sys; from butterfree.cli import main; sys.exit(main(['check', *{flags!r}]))"
    # exit code 4 is the CLI's Failure3 verdict
    return 1000.0 * statistics.median(timed_child(["-c", code], expect=4)[1] for _ in range(3))


# ---------------------------------------------------------------- metrics


def tail(values: list[float]) -> tuple[str, float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(values, p))
    return "max", max(values)


def end_to_end(name: str, calls: list[Call], setup: list[tuple[float, float]], rss_mb: float) -> dict:
    """The named metrics that apply to the workload: name -> (value, unit, note).

    Times include calls that failed; they count in fail_share as well.
    """
    main_ops = [c for c in calls if c.kind in ("check", "fit", "ingest")]
    ops = [c.scaled for c in main_ops]
    raw = [c.seconds for c in main_ops]
    out = {
        "setup_s": (statistics.median(s for _, s in setup), "s",
                    f"median of {len(setup)} fresh imports; "
                    f"raw {statistics.median(r for r, _ in setup):.4g} s"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss after the timed loop"),
    }
    if name == "screen":
        boxes = [c.scaled for c in calls if c.kind == "box"]
        label, value = tail(ops)
        out["check_per_s"] = (len(ops) / sum(ops), "1/s",
                              f"{len(ops)} calls; raw {len(raw) / sum(raw):.5g}")
        out["check_p50_ms"] = (1000 * statistics.median(ops), "ms", f"{len(ops)} calls")
        out["check_p99_ms"] = (1000 * value, "ms", f"{label} of {len(ops)} calls")
        out["box_per_s"] = (len(boxes) / sum(boxes), "1/s", f"{len(boxes)} calls")
        every = ops + boxes
        out["ops_per_s"] = (len(every) / sum(every), "1/s",
                            "check_no_arbitrage and box_to_params calls")
        out["op_p50_ms"] = (out["check_p50_ms"][0], "ms", "= check_p50_ms")
    elif name in ("fit-model", "fit-quotes"):
        out["fit_s_mean"] = (statistics.fmean(ops), "s",
                             f"{len(ops)} slices, too few for a tail; raw {statistics.fmean(raw):.4g} s")
        out["fit_s_p50"] = (statistics.median(ops), "s", f"{len(ops)} slices")
        accs = [c.accuracy for c in calls if c.accuracy is not None]
        if accs:
            out["fit_rel_err_max"] = (max(a[0] for a in accs), "1", "against w_mid")
            if name == "fit-model":
                out["fit_param_err_max"] = (max(a[1] for a in accs), "1",
                                            "against the generating row")
            else:
                out["fit_in_spread_share"] = (min(a[1] for a in accs), "1", "lowest over slices")
        out["ops_per_s"] = (len(ops) / sum(ops), "1/s", "slices per second")
        out["op_p50_ms"] = (1000 * out["fit_s_p50"][0], "ms", "= fit_s_p50")
    else:
        rows = sum(c.summary["rows"] for c in main_ops if c.summary)
        out["ingest_quotes_per_s"] = (rows / sum(ops), "1/s",
                                      f"{len(ops)} documents, {rows} rows; raw {rows / sum(raw):.5g}")
        out["ops_per_s"] = (out["ingest_quotes_per_s"][0], "1/s", "= ingest_quotes_per_s")
        out["op_p50_ms"] = (1000 * statistics.median(ops), "ms", "one document to slices")
    return out


def per_layer(tracer, sampler, traced: list[Call], untraced: list[Call]) -> dict:
    """The PER_LAYER metrics of one traced pass; span times are scaled."""
    name = tracer.arrays()[0]
    dur, own = tracer.self_times(zip(sampler.starts, sampler.ends), sampler.factor())
    counts = tracer.counts
    out = {}

    def span(label: str):
        mask = name == tracer.code[label]
        return mask, int(mask.sum()), float(own[mask].sum())

    for label in ("fukasawa.threshold", "fukasawa.interval", "domain.check",
                  "domain.box_to_params", "domain.g2_zeros", "domain.sigma_star",
                  "numerics.brent", "numerics.golden", "numerics.lsq",
                  "black_scholes.implied_vol"):
        _, out[f"{label}.calls"], out[f"{label}.self_s"] = span(label)
    for key in ("numerics.brent.f_evals", "numerics.golden.f_evals",
                "numerics.lsq.nfev", "numerics.lsq.capped"):
        out[key] = counts[key]

    _, evals, pipe_self = span("calibration.pipeline")
    _, _, cal_self = span("calibration.calibrate")
    start_mask, _, start_self = span("calibration.start")
    in_pipe = tracer.under("calibration.pipeline")
    thresholds = int((in_pipe & (name == tracer.code["fukasawa.threshold"])).sum())
    won = total = informed = 0
    for evals_per_start, result, n_starts in tracer.fits:
        best = min((s for s in result.starts if s.x is not None), key=lambda s: (s.cost, s.index))
        if len(evals_per_start) == len(result.starts):
            won += evals_per_start[best.index]
            total += sum(evals_per_start)
        # the informed start is appended after the n_starts random ones
        informed += int(best.index == n_starts)
    nfev = counts["numerics.lsq.nfev"]
    out["calibration.pipeline_evals"] = evals
    out["calibration.evals_per_nfev"] = evals / nfev if nfev else 0.0
    out["calibration.threshold_per_eval"] = thresholds / evals if evals else 0.0
    out["calibration.winning_eval_share"] = won / total if total else 0.0
    out["calibration.informed_wins"] = informed
    out["calibration.start_s_p50"] = float(np.median(dur[start_mask])) if start_mask.any() else 0.0
    out["calibration.self_s"] = cal_self + start_self + pipe_self

    for label in ("market_data.load", "market_data.forward", "market_data.slice"):
        out[f"{label}.self_s"] = span(label)[2]
    for key in ("quotes", "rejects", "skipped"):
        out[f"market_data.{key}"] = sum(c.summary[key] for c in untraced
                                        if isinstance(c.summary, dict))

    out["cli.check_process_ms"] = cli_check_ms()
    for module, ms in import_times().items():
        out[f"{module}.import_ms"] = ms
    out["trace.overhead_share"] = (sum(c.scaled for c in traced)
                                   / sum(c.scaled for c in untraced) - 1.0)
    return out


# ------------------------------------------------------------------ meta


def metadata(cpu: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "butterfree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((l.split(":", 1)[1].strip() for l in handle
                          if l.startswith("model name")), model)
    except OSError:
        pass
    import scipy

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


# ------------------------------------------------------------------ main


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "butterfree" / "__init__.py").is_file():
        print(f"error: no butterfree package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import butterfree as bf

    cpu = hostspeed.pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    meta = metadata(cpu)
    print(f"butterfree benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + ", ".join(f"{k}={v}" for k, v in meta.items()))

    workload = WORKLOADS[args.workload](bf, args.seed)
    record: dict = {"meta": meta, "args": vars(args)}
    identical = True
    if args.trace == 0:
        setup = [timed_child(["-c", "import butterfree"]) for _ in range(SETUP_REPEATS)]
        calls, sampler = drive(workload, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        named = end_to_end(args.workload, calls, setup, rss_mb)
        payload = {k: {"value": named[k][0], "unit": unit} for k, unit in END_TO_END.items()}
    else:
        from tracer import Tracer

        probe = cases.defect_probe(bf)
        n = TRACE_OPS[args.workload]
        calls, _ = drive(workload, None, n)
        tracer = Tracer()
        tracer.install()
        try:
            traced, sampler = drive(workload, None, n, tracer=tracer, check=False)
        finally:
            tracer.uninstall()
        identical = [c.fingerprint for c in calls] == [c.fingerprint for c in traced]
        layer = per_layer(tracer, sampler, traced, calls)
        layer["domain.check.defect_probe_misses"] = len(probe)
        record["defect_probe"] = probe
        for line in probe:
            print(f"known defect: {line}")
        named = {k: (layer[k], unit, "") for k, unit in PER_LAYER.items()}
        payload = {k: {"value": layer[k], "unit": unit} for k, unit in PER_LAYER.items()}
        stem = OUT / f"spans-{args.workload}-seed{args.seed}"
        tracer.save(str(stem))
        record["spans"] = str(stem.relative_to(ROOT)) + ".npz"
        record["absent"] = tracer.absent
        for label in tracer.absent:
            print(f"absent boundary: {label}")

    ref_ms = 1000.0 * statistics.median(sampler.blocks)
    print(f"reference block: median {ref_ms:.4f} ms over {len(sampler.blocks)} samples "
          f"(nominal {1000 * hostspeed.NOMINAL_S:g} ms); scale factor {sampler.factor():.4f}")
    record["reference_ms"] = ref_ms
    record["scale_factor"] = sampler.factor()
    record["samples"] = [[t, b] for t, b in zip(sampler.starts, sampler.blocks)]
    record["ops"] = [[c.kind, c.t0, c.t1, c.seconds] for c in calls]
    if args.workload == "screen":
        mix: dict[str, int] = {}
        for c in calls:
            if c.kind == "check" and c.summary:
                mix[c.summary] = mix.get(c.summary, 0) + 1
        record["screen_mix"] = {k: mix[k] / sum(mix.values()) for k in sorted(mix)}
        print("screen outcome mix: "
              + ", ".join(f"{k} {v:.3f}" for k, v in record["screen_mix"].items()))

    failures = [f"{c.kind}[{c.index}]: {c.problem}" for c in calls if c.problem]
    attempted = len(calls)
    failed = attempted if not identical else len(failures)
    named["fail_share"] = (failed / attempted, "1", f"{failed} of {attempted} operations")
    for key, (value, unit, note) in named.items():
        print(f"  {key:34s} {value:>16.6g} {unit:6s} {note}")
    for line in failures[:50]:
        print(f"FAIL {line}")
    if not identical:
        print("FAIL traced outputs are not bit-identical to untraced outputs")
    record.update({"identical": identical, "failures": failures,
                   "named": {k: [v, u, n] for k, (v, u, n) in named.items()}})
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": payload}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
