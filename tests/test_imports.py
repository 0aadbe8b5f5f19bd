"""What the package loads, and the public names it resolves.

`import butterfree`, the waterfall, the box chart, the scalar solvers and
the CLI's check, threshold, interval and sigma-star run on the standard
library alone: a fresh interpreter holds no numpy module after any of
them.  Calibration, chain ingest and plot-data load numpy, and nothing
loads scipy.  Each public name resolves to the object its module defines,
including the ones the package imports on first access.
"""

from __future__ import annotations

import importlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest

import butterfree
from butterfree import CalibrationConfig, calibrate, call_price, put_price
from conftest import MODEL_ROWS, VOGT, model_slice

SRC = Path(__file__).resolve().parents[1] / "src"

#: Half of sigma*(alpha, b, rho, mu) = (0.1, 0.5, -0.3, 0.1).
HALF_SIGMA_STAR = 0.5 * 0.12355390516143426

#: Raw parameters reaching each status of the waterfall, in its order.
STATUS_PARAMS = {
    "Free": list(astuple(MODEL_ROWS[0])),
    "Failure1": [0.1, 3.0, 0.0, 0.0, 0.1],
    "Failure2": [-0.4999, 0.5, 0.0, 0.0, 1.0],
    "Failure3": list(astuple(VOGT)),
    "Failure4": [0.1 * HALF_SIGMA_STAR, 0.5, -0.3, 0.1 * HALF_SIGMA_STAR, HALF_SIGMA_STAR],
}



def solvers(bf) -> list[float]:
    """F, the mu interval, sigma* and the G2 zeros at one point."""
    interval = bf.mu_interval(0.1, 0.5, -0.3)
    zeros = bf.g2_zeros(0.1, 0.5, -0.3)
    return [bf.fukasawa_threshold(0.5, -0.3), interval.lower, interval.upper,
            bf.sigma_star(0.1, 0.5, -0.3, 0.1), zeros.l1, zeros.l2]


#: Run in a fresh interpreter: the steps named on the command line, in
#: order, reporting the numpy and scipy modules held after each.
CHILD = inspect.getsource(solvers) + """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(name for name in sys.modules if name.split(".")[0] == prefix)

payload = json.loads(sys.stdin.read())
out = {"seen": {}, "results": {}}

def cli(*argv):
    from butterfree.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))

def step(name):
    import butterfree as bf
    if name == "import":
        return None
    if name == "check":
        return [bf.check_no_arbitrage(bf.SviParams(*raw)).status.value
                for raw in payload["statuses"]]
    if name == "box":
        p = bf.box_to_params(bf.BoxCoords(*payload["box"]))
        return [p.a, p.b, p.rho, p.m, p.sigma]
    if name == "solvers":
        return solvers(bf)
    if name == "cli check":
        flags = [x for key, v in zip(("a", "b", "rho", "m", "sigma"), payload["vogt"])
                 for x in (f"--{key}", repr(v))]
        return cli("check", *flags)
    if name == "cli threshold":
        return cli("threshold", "--b", "0.5", "--rho", "-0.3")
    if name == "cli interval":
        return cli("interval", "--alpha", "0.1", "--b", "0.5", "--rho", "-0.3")
    if name == "cli sigma-star":
        return cli("sigma-star", "--alpha", "0.1", "--b", "0.5", "--rho", "-0.3",
                   "--mu", "0.1")
    if name == "year_fraction":
        return bf.market_data.year_fraction("2026-12-18", "2026-06-18")
    if name == "ingest":
        (chain,), _ = bf.load_chain(io.StringIO(payload["csv"]))
        fd = bf.infer_forward_discount(chain)
        return len(bf.build_vol_slice(chain, fd, 0.5)[0])
    if name == "plot-data":
        return cli("plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
                   "--rho", "-0.3", "--from", "-1", "--to", "1", "--grid", "3",
                   "--out", "-")
    if name == "calibrate":
        fit = bf.calibrate(bf.MarketSlice(k=payload["k"], w_mid=payload["w_mid"]),
                           bf.CalibrationConfig(n_starts=1, seed=0))
        p = fit.params
        return [p.a, p.b, p.rho, p.m, p.sigma, fit.cost]
    raise ValueError(name)

for name in sys.argv[1:]:
    out["results"][name] = step(name)
    out["seen"][name] = {"numpy": loaded("numpy") != [], "scipy": loaded("scipy")}
print(json.dumps(out))
"""

NUMPY_FREE = (
    "import", "check", "box", "solvers",
    "cli check", "cli threshold", "cli interval", "cli sigma-star",
)


def flat_chain_csv(forward=100.0, discount=0.99, theta=0.2) -> str:
    """Calls and puts on five strikes, priced off one flat total vol."""
    out = io.StringIO()
    out.write("expiry,strike,kind,bid,ask\n")
    for strike in (80.0, 90.0, 100.0, 110.0, 120.0):
        k = math.log(strike / forward)
        for kind, price in (("call", call_price), ("put", put_price)):
            mid = discount * forward * price(k, theta)
            out.write(f"2026-12-18,{strike},{kind},{mid * 0.99!r},{mid * 1.01!r}\n")
    return out.getvalue()


def run_child(*steps: str) -> dict:
    slice_ = model_slice(MODEL_ROWS[2])
    payload = {
        "statuses": list(STATUS_PARAMS.values()),
        "vogt": STATUS_PARAMS["Failure3"],
        "box": [0.3, 0.5, 1.0, 0.2, 0.5],
        "csv": flat_chain_csv(),
        "k": slice_.k.tolist(),
        "w_mid": slice_.w_mid.tolist(),
    }
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *steps], input=json.dumps(payload),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_check_path_loads_no_numpy():
    report = run_child(*NUMPY_FREE, "ingest", "plot-data", "calibrate")
    seen = report["seen"]
    for step in NUMPY_FREE:
        assert seen[step] == {"numpy": False, "scipy": []}, step
    assert seen["ingest"] == {"numpy": True, "scipy": []}
    assert seen["calibrate"]["scipy"] == []
    results = report["results"]
    assert results["check"] == list(STATUS_PARAMS)
    # exit code 4 is the CLI's Failure3 verdict
    assert results["cli check"] == 4
    for step in ("cli threshold", "cli interval", "cli sigma-star", "plot-data"):
        assert results[step] == 0, step
    # the fresh interpreter's answers are bit-identical to those made here
    p = butterfree.box_to_params(butterfree.BoxCoords(0.3, 0.5, 1.0, 0.2, 0.5))
    assert results["box"] == [p.a, p.b, p.rho, p.m, p.sigma]
    assert results["solvers"] == solvers(butterfree)
    fit = calibrate(model_slice(MODEL_ROWS[2]), CalibrationConfig(n_starts=1, seed=0))
    p = fit.params
    assert results["calibrate"] == [p.a, p.b, p.rho, p.m, p.sigma, fit.cost]


@pytest.mark.parametrize("step", ["ingest", "plot-data", "calibrate", "year_fraction"])
def test_array_paths_load_numpy(step):
    seen = run_child("import", step)["seen"]
    assert seen == {
        "import": {"numpy": False, "scipy": []},
        step: {"numpy": True, "scipy": []},
    }


def test_every_public_name_is_its_modules_object():
    for name in butterfree.__all__:
        obj = getattr(butterfree, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
    namespace: dict = {}
    exec("from butterfree import *", namespace)
    assert set(butterfree.__all__) <= set(namespace)
    for module in ("black_scholes", "calibration", "cli", "market_data"):
        assert getattr(butterfree, module) is sys.modules[f"butterfree.{module}"]
    with pytest.raises(AttributeError):
        butterfree.no_such_name
