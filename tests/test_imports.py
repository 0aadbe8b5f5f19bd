"""What the package loads, and the public names it resolves.

`import butterfree`, the waterfall, the box chart, the scalar solvers and
the CLI's check, threshold, interval and sigma-star run on the standard
library alone: a fresh interpreter holds no numpy module after any of
them, and the modules they run on import nothing that loads numpy, not
even inside a function.  Calibration, chain ingest and plot-data load
numpy, and nothing loads scipy.  Each public name resolves to the object
its module defines, including the ones the package imports on first
access, and no submodule shares a name with a public function.
"""

from __future__ import annotations

import ast
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
PACKAGE = SRC / "butterfree"

#: Modules that load no numpy, on import or in any function; ``cli``
#: loads it inside its array commands, so it is not one of them.
STDLIB_MODULES = ("smile", "domain", "numerics", "fukasawa")

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


def test_submodules_import_as_modules_and_svi_is_the_function():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            namespace: dict = {}
            exec(f"import butterfree.{path.stem} as m", namespace)
            assert inspect.ismodule(namespace["m"]), path.stem
            assert namespace["m"] is sys.modules[f"butterfree.{path.stem}"]
    assert callable(butterfree.svi) and butterfree.svi is butterfree.arrays.svi
    with pytest.raises(ModuleNotFoundError):
        exec("import butterfree.svi as m", {})
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("butterfree.svi")


def imports(path: Path) -> list[tuple[int, str, bool]]:
    """(line, module, at top level) for each module an import statement in
    the file names; butterfree's own relative imports come out absolute."""
    tree = ast.parse(path.read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["butterfree" if node.level else None, node.module]))
            names = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        out += [(node.lineno, name, node in tree.body) for name in names]
    return out


def numpy_modules() -> set[str]:
    """numpy and every butterfree module whose top-level imports load it."""
    top = {
        "butterfree" if path.stem == "__init__" else f"butterfree.{path.stem}":
            {name if name.startswith("butterfree") else name.split(".")[0]
             for _, name, at_top in imports(path) if at_top}
        for path in PACKAGE.glob("*.py")
    }
    loading = {"numpy"}
    while grown := {m for m, names in top.items() if names & loading} - loading:
        loading |= grown
    return loading


def test_stdlib_modules_import_nothing_that_loads_numpy():
    # at module level or inside a function: an array helper that needs
    # numpy belongs in a module that imports it at the top
    loading = numpy_modules()
    assert {"butterfree.arrays", "butterfree.calibration"} <= loading
    found = [
        f"{module}.py:{line} imports {name}"
        for module in STDLIB_MODULES
        for line, name, _ in imports(PACKAGE / f"{module}.py")
        if name in loading
    ]
    assert found == []


def test_calibration_imports_no_private_name():
    # the box chart's partials live beside its map in domain, so
    # calibration reads the chart through its public surface alone
    tree = ast.parse((PACKAGE / "calibration.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
