"""Butterfly-arbitrage diagnostics and arbitrage-free calibration for SVI smiles.

Importing the package loads only the standard library: the waterfall, the
box chart and the scalar solvers need no numpy.  The names below that live
in ``calibration``, ``market_data`` and ``black_scholes``, and those
modules and ``cli`` themselves, load on first access.

``butterfree.svi`` is the function ``svi``, not its module, so ``import
butterfree.svi as m`` binds the function.  Reach the module with ``from
butterfree.svi import ...`` or ``importlib.import_module("butterfree.svi")``.
"""

import importlib

from .domain import (
    ArbitrageDiagnostic,
    BoxCoords,
    Status,
    box_to_params,
    check_no_arbitrage,
    g2_zeros,
    params_to_box,
    sigma_star,
)
from .errors import ButterfreeError, InvalidInput, NumericFailure
from .fukasawa import MuInterval, fukasawa_threshold, mu_interval
from .svi import NormalizedParams, SviParams, density, durrleman_g, normalize, svi

__version__ = "0.1.0"

#: Public name -> the submodule that defines it; a submodule maps to itself.
_LAZY = {
    **dict.fromkeys(
        ("black_scholes", "call_price", "d1_d2", "implied_total_vol", "put_price",
         "vega_total"),
        "black_scholes",
    ),
    **dict.fromkeys(
        ("calibration", "CalibrationConfig", "CalibrationResult", "MarketSlice",
         "calibrate"),
        "calibration",
    ),
    **dict.fromkeys(
        ("market_data", "ForwardDiscount", "OptionChain", "OptionQuote",
         "build_vol_slice", "infer_forward_discount", "load_chain"),
        "market_data",
    ),
    "cli": "cli",
}


def __getattr__(name: str):
    """Import the submodule behind a lazy name and keep the name here."""
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{module_name}")
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "ArbitrageDiagnostic",
    "BoxCoords",
    "ButterfreeError",
    "CalibrationConfig",
    "CalibrationResult",
    "ForwardDiscount",
    "InvalidInput",
    "MarketSlice",
    "MuInterval",
    "NormalizedParams",
    "NumericFailure",
    "OptionChain",
    "OptionQuote",
    "Status",
    "SviParams",
    "box_to_params",
    "build_vol_slice",
    "calibrate",
    "call_price",
    "check_no_arbitrage",
    "d1_d2",
    "density",
    "durrleman_g",
    "fukasawa_threshold",
    "g2_zeros",
    "implied_total_vol",
    "infer_forward_discount",
    "load_chain",
    "mu_interval",
    "normalize",
    "params_to_box",
    "put_price",
    "sigma_star",
    "svi",
    "vega_total",
]
