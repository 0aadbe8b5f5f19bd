"""The package runs without scipy.

A fresh interpreter imports the package, runs the waterfall, the box
chart, chain ingest, the CLI's check and a calibration, and reports which
scipy modules it holds after each.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

from butterfree import CalibrationConfig, calibrate, call_price, put_price
from conftest import MODEL_ROWS, VOGT, model_slice

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.startswith("scipy"))

vogt, box, csv, k, w_mid = json.loads(sys.stdin.read())
seen = {}
import butterfree as bf
seen["import"] = scipy_modules()
bf.check_no_arbitrage(bf.SviParams(*vogt))
seen["check"] = scipy_modules()
bf.box_to_params(bf.BoxCoords(*box))
seen["box"] = scipy_modules()
(chain,), _ = bf.load_chain(io.StringIO(csv))
fd = bf.infer_forward_discount(chain)
bf.build_vol_slice(chain, fd, 0.5)
seen["ingest"] = scipy_modules()
from butterfree.cli import main
flags = [x for key, v in zip(("a", "b", "rho", "m", "sigma"), vogt)
         for x in (f"--{key}", repr(v))]
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["check", *flags])
seen["cli check"] = scipy_modules()
fit = bf.calibrate(bf.MarketSlice(k=k, w_mid=w_mid), bf.CalibrationConfig(n_starts=1, seed=0))
p = fit.params
print(json.dumps({"seen": seen, "code": code, "after_fit": scipy_modules(),
                  "fit": [p.a, p.b, p.rho, p.m, p.sigma, fit.cost]}))
"""


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


def test_no_scipy_module_is_loaded():
    slice_ = model_slice(MODEL_ROWS[2])
    box = (0.3, 0.5, 1.0, 0.2, 0.5)
    payload = [
        [VOGT.a, VOGT.b, VOGT.rho, VOGT.m, VOGT.sigma], box, flat_chain_csv(),
        slice_.k.tolist(), slice_.w_mid.tolist(),
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(payload),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["seen"] == {
        "import": [], "check": [], "box": [], "ingest": [], "cli check": [],
    }
    # exit code 4 is the CLI's Failure3 verdict
    assert report["code"] == 4
    assert report["after_fit"] == []
    # the fresh interpreter's fit is bit-identical to one made here
    fit = calibrate(slice_, CalibrationConfig(n_starts=1, seed=0))
    p = fit.params
    assert report["fit"] == [p.a, p.b, p.rho, p.m, p.sigma, fit.cost]
