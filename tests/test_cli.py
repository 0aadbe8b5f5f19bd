"""Command line surface: exit codes, output formats, file round trips."""

import dataclasses
import json
import math
import subprocess
from pathlib import Path

import numpy as np
import pytest
from conftest import MODEL_GRID, MODEL_ROWS, VOGT, model_slice, params_vector
from reference import g_50_digits, threshold_50_digits

from butterfree.arrays import durrleman_g, svi
from butterfree.black_scholes import call_price
from butterfree.calibration import MarketSlice
from butterfree.cli import (
    main,
    read_slice,
    slice_from_dict,
    slice_to_dict,
    write_slice,
)
import butterfree.calibration as calibration_module
from butterfree.domain import Status, check_no_arbitrage, sigma_star, sigma_star_profile
from butterfree.errors import InvalidInput
from butterfree.fukasawa import L_minus, L_plus, fukasawa_threshold, g_pm, l_star, mu_interval
from butterfree.market_data import year_fraction
from butterfree.smile import SviParams, n_funcs

DATA = Path(__file__).parent / "data"

VOGT_FLAGS = [
    "--a", "-0.041", "--b", "0.1331", "--rho", "0.3060",
    "--m", "0.3586", "--sigma", "0.4153",
]


#: (b, rho) with 1 - |rho| of 5.4e-11, where F is well above the positivity
#: floor although the float gap at the first level's critical points reads
#: open.
NEAR_RHO_ONE = ["--b=0.4568528468207588", "--rho=-0.9999999999464029"]


UNIT_RANGE = ["--from", "-1", "--to", "1"]


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_plot(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCheckCommand:
    def test_flat_smile_is_free(self, capsys):
        rc, out, _ = run(capsys, [
            "check", "--a", "0.04", "--b", "0", "--rho", "0.0",
            "--m", "0.0", "--sigma", "0.3",
        ])
        assert rc == 0
        assert out.startswith("Free:")

    def test_free_row_reports_all_stages(self, capsys):
        p = MODEL_ROWS[0]
        rc, out, _ = run(capsys, [
            "check", "--a", repr(p.a), "--b", repr(p.b), "--rho", repr(p.rho),
            "--m", repr(p.m), "--sigma", repr(p.sigma),
        ])
        assert rc == 0
        assert out.startswith("Free:")
        assert "slopes:" in out
        assert "threshold=" in out
        assert "interval=(" in out
        assert "sigma_star=" in out

    def test_mu_outside_interval_exits_four(self, capsys):
        rc, out, _ = run(capsys, ["check"] + VOGT_FLAGS)
        assert rc == 4
        assert out.startswith("Failure3:")
        assert "interval=(" in out
        # the waterfall stops before the curvature stage
        assert "sigma_star" not in out

    def test_excess_slope_exits_two(self, capsys):
        rc, out, _ = run(capsys, [
            "check", "--a", "0.1", "--b", "3", "--rho", "0",
            "--m", "0", "--sigma", "1",
        ])
        assert rc == 2
        assert out.startswith("Failure1:")
        assert "left=3" in out

    def test_alpha_below_threshold_exits_three(self, capsys):
        rc, out, _ = run(capsys, [
            "check", "--a", "-0.4999", "--b", "0.5", "--rho", "0",
            "--m", "0", "--sigma", "1",
        ])
        assert rc == 3
        assert out.startswith("Failure2:")
        assert "threshold=-0.499568" in out

    def test_tiny_b_below_threshold_exits_three(self, capsys):
        # F(1e-7, 0.73) is about 8.6e-10 above the positivity floor; alpha
        # half way between them fails the threshold, not the interval
        floor = -1e-7 * math.sqrt(1.0 - 0.73**2)
        rc, out, _ = run(capsys, [
            "check", f"--a={floor + 5e-10!r}", "--b", "1e-7", "--rho", "0.73",
            "--m", "0", "--sigma", "1",
        ])
        assert rc == 3
        assert out.startswith("Failure2:")

    def test_near_rho_one_alpha_below_threshold_exits_three(self, capsys):
        # alpha = a/sigma = -4.41e-6 lies between the positivity floor
        # -4.73e-6 and F = -4.10e-6, so the threshold fails, not the interval
        rc, out, _ = run(capsys, ["check"] + NEAR_RHO_ONE + [
            "--a=-1.3239491867991372e-06", "--m=0", "--sigma=0.3",
        ])
        assert rc == 3
        assert out.startswith("Failure2:")

    def test_zero_minimum_exits_three(self, capsys):
        # a + b*sigma*sqrt(1-rho^2) is exactly 0, so SviParams accepts the
        # smile, while a/sigma + b*sqrt(1-rho^2) rounds to -5.6e-17: alpha
        # is below F, which is a verdict, not an invalid smile
        rc, out, _ = run(capsys, [
            "check", "--a=-0.02449457859586337", "--b=0.3900528483517383",
            "--rho=-0.009038527557956866", "--m=0.1", "--sigma=0.06280066740377174",
        ])
        assert rc == 3
        assert out.startswith("Failure2:")

    def test_alpha_within_rounding_above_threshold_exits_three(self, capsys):
        # alpha = a/sigma sits one ulp above the float F, yet the float
        # shift interval at alpha is empty: the interval decides step 2,
        # which is a verdict, not an error
        rc, out, _ = run(capsys, [
            "check", "--a=-0.2532096532398265", "--b=0.6118455732881526",
            "--rho=-0.7057166147385208", "--m=-0.2852695605762908",
            "--sigma=0.6052682106794934",
        ])
        assert rc == 3
        assert out.startswith("Failure2:")
        assert "threshold=" in out

    def test_sigma_below_floor_exits_five(self, capsys):
        sig = 0.5 * 0.12355390516143426
        rc, out, _ = run(capsys, [
            "check", "--a", repr(0.1 * sig), "--b", "0.5", "--rho", "-0.3",
            "--m", repr(0.1 * sig), "--sigma", repr(sig),
        ])
        assert rc == 5
        assert out.startswith("Failure4:")
        assert "sigma_star=0.12355390516143414" in out

    def test_one_ulp_below_sigma_star_prints_both_in_full(self, capsys):
        # a = m = 0 keeps alpha and mu at 0 whatever sigma is, so sigma*
        # does not move when sigma steps down one ulp from it
        flags = ["check", "--a", "0", "--b", "0.5", "--rho", "-0.3", "--m", "0"]
        s_star = check_no_arbitrage(SviParams(0.0, 0.5, -0.3, 0.0, 1.0)).sigma_star
        sigma = math.nextafter(s_star, 0.0)
        rc, out, _ = run(capsys, [*flags, "--sigma", repr(sigma)])
        assert rc == 5
        assert f"sigma = {sigma!r} below" in out
        assert f"sigma_star = {s_star!r}" in out
        assert f"  sigma={sigma!r} sigma_star={s_star!r}" in out
        assert repr(sigma) != repr(s_star)

    def test_degenerate_sigma_is_input_error(self, capsys):
        rc, _, err = run(capsys, [
            "check", "--a", "0.1", "--b", "0.5", "--rho", "0",
            "--m", "0", "--sigma", "0",
        ])
        assert rc == 64
        assert "sigma must be positive" in err

    def test_params_file(self, capsys, tmp_path):
        path = tmp_path / "vogt.json"
        path.write_text(json.dumps(
            {"a": -0.041, "b": 0.1331, "rho": 0.3060, "m": 0.3586, "sigma": 0.4153}
        ))
        rc, out, _ = run(capsys, ["check", "--params", str(path)])
        assert rc == 4
        assert out.startswith("Failure3:")

    def test_flag_overrides_file(self, capsys, tmp_path):
        path = tmp_path / "vogt.json"
        path.write_text(json.dumps(
            {"a": -0.041, "b": 0.1331, "rho": 0.3060, "m": 0.3586, "sigma": 0.4153}
        ))
        rc, out, _ = run(capsys, ["check", "--params", str(path), "--b", "3"])
        assert rc == 2
        assert out.startswith("Failure1:")

    def test_params_file_missing_keys_are_listed(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"a": 0.1, "b": 0.5}))
        rc, _, err = run(capsys, ["check", "--params", str(path)])
        assert rc == 64
        assert "missing keys: rho, m, sigma" in err

    def test_incomplete_flags_are_listed(self, capsys):
        rc, _, err = run(capsys, ["check", "--a", "0.1"])
        assert rc == 64
        assert "parameters incomplete" in err
        assert "b, rho, m, sigma" in err

    def test_unreadable_params_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["check", "--params", str(tmp_path / "absent.json")])
        assert rc == 64
        assert "cannot read" in err


class TestParserEdges:
    def test_help_exits_zero(self, capsys):
        rc, out, _ = run(capsys, ["--help"])
        assert rc == 0
        assert "butterfree" in out

    def test_missing_command_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, [])
        assert rc == 64

    def test_unknown_command_is_usage_error(self, capsys):
        rc, _, _ = run(capsys, ["frobnicate"])
        assert rc == 64

    def test_console_script(self):
        proc = subprocess.run(
            ["butterfree", "threshold", "--b", "0.5", "--rho", "-0.3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        value = float(proc.stdout.split("=")[-1])
        assert value == fukasawa_threshold(0.5, -0.3)


class TestValueCommands:
    def test_threshold_output_round_trips(self, capsys):
        rc, out, _ = run(capsys, ["threshold", "--b", "0.5", "--rho", "-0.3"])
        assert rc == 0
        assert out.startswith("F(0.5, -0.3) = ")
        assert float(out.split("=")[-1]) == fukasawa_threshold(0.5, -0.3)

    def test_threshold_near_rho_one_is_off_the_floor(self, capsys):
        rc, out, _ = run(capsys, ["threshold"] + NEAR_RHO_ONE)
        assert rc == 0
        b, rho = 0.4568528468207588, -0.9999999999464029
        value = float(out.split("=")[-1])
        assert value == fukasawa_threshold(b, rho)
        assert value > -b * math.sqrt(1.0 - rho * rho)

    def test_threshold_rejects_excess_slope(self, capsys):
        rc, _, err = run(capsys, ["threshold", "--b", "2.5", "--rho", "0"])
        assert rc == 64
        assert err.startswith("error:")

    def test_interval_output_round_trips(self, capsys):
        alpha, b, rho = -0.041 / 0.4153, 0.1331, 0.306
        rc, out, _ = run(capsys, [
            "interval", "--alpha", repr(alpha), "--b", repr(b), "--rho", repr(rho),
        ])
        assert rc == 0
        inner = out.split(" = ")[-1].strip().strip("()")
        lo, hi = (float(part) for part in inner.split(","))
        want = mu_interval(alpha, b, rho)
        assert lo == want.lower
        assert hi == want.upper

    def test_empty_interval_is_error(self, capsys):
        rc, _, err = run(capsys, [
            "interval", "--alpha", "-0.1267", "--b", "0.1331", "--rho", "0.306",
        ])
        assert rc == 64
        assert err.startswith("error:")

    def test_empty_interval_within_rounding_of_the_floor_is_error(self, capsys):
        rc, _, err = run(capsys, [
            "interval", "--alpha=-1.0228837764812151e-11",
            "--b=8.246624592017745e-07", "--rho=-0.9999999999230745",
        ])
        assert rc == 64
        assert err.startswith("error:")

    def test_sigma_star_output_round_trips(self, capsys):
        rc, out, _ = run(capsys, [
            "sigma-star", "--alpha", "0.1", "--b", "0.5", "--rho", "-0.3",
            "--mu", "0.1",
        ])
        assert rc == 0
        assert float(out.split("=")[-1]) == sigma_star(0.1, 0.5, -0.3, 0.1)

    @pytest.mark.parametrize("command, name, value", [
        ("threshold", "b", "nan"),
        ("threshold", "rho", "inf"),
        ("interval", "alpha", "nan"),
        ("interval", "b", "-inf"),
        ("interval", "rho", "nan"),
        ("sigma-star", "alpha", "inf"),
        ("sigma-star", "b", "nan"),
        ("sigma-star", "rho", "nan"),
    ])
    def test_non_finite_argument_is_named(self, capsys, command, name, value):
        flags = {"alpha": "0.1", "b": "0.5", "rho": "-0.3", "mu": "0.1"}
        if command == "threshold":
            del flags["alpha"]
        if command != "sigma-star":
            del flags["mu"]
        flags[name] = value
        argv = [command] + [f"--{key}={v}" for key, v in flags.items()]
        rc, _, err = run(capsys, argv)
        assert rc == 64
        assert err.startswith(f"error: {name} must be finite")

    def test_sigma_star_rejects_mu_outside(self, capsys):
        rc, _, err = run(capsys, [
            "sigma-star", "--alpha", "0.1", "--b", "0.5", "--rho", "-0.3",
            "--mu", "5.0",
        ])
        assert rc == 64
        assert err.startswith("error:")


def vogt_params_with(**changes) -> dict:
    doc = {"a": -0.041, "b": 0.1331, "rho": 0.3060, "m": 0.3586, "sigma": 0.4153}
    doc.update(changes)
    return doc


def row2_slice_with(**changes) -> dict:
    doc = slice_to_dict(model_slice(MODEL_ROWS[2]))
    doc.update(changes)
    return doc


#: (b, rho) where N' rounds to 0 at a critical point of the threshold solve
#: unless 1 - rho^2 and the far side of the vertex keep their digits.
FLAT_VERTEX = ["--b", "5.169873948587552e-09", "--rho", "-0.9999999999999987"]


@pytest.mark.parametrize("argv, first", [
    (["threshold"] + FLAT_VERTEX, "F("),
    (["check", "--a", "0.01"] + FLAT_VERTEX + ["--m", "0", "--sigma", "0.1"], "Free:"),
], ids=["threshold", "check"])
def test_near_flat_vertex_resolves(capsys, argv, first):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    assert out.startswith(first)
    if argv[0] == "threshold":
        want = threshold_50_digits(float(FLAT_VERTEX[1]), float(FLAT_VERTEX[3]))
        assert abs(float(out.split(" = ")[1]) - want) <= 1e-10 * abs(want)


def test_far_side_arbitrage_near_rho_one_exits_3(capsys):
    # g = -5.8e-24 at k = -5.45e8 in 80 digits: alpha sits below F, which
    # reads right only where the far side of the vertex keeps its digits
    rc, out, _ = run(capsys, [
        "check", "--a=-0.0029283740432637317", "--b=0.010642252928217839",
        "--rho=0.9999999994952393", "--m=17052.602070284778", "--sigma=10000.0",
    ])
    assert rc == 3
    assert out.startswith("Failure2:")


def test_infinite_floor_beside_a_wall_exits_5(capsys):
    # mu sits so close to its interval's upper wall that G1 rounds to zero
    # on a tail: sigma_star is +inf, and no sigma, 2e12 included, is Free
    rc, out, _ = run(capsys, [
        "check", "--a=100000000000.0", "--b=1.2", "--rho=0.5",
        "--m=1341680555989.1338", "--sigma=2000000000000.0",
    ])
    assert rc == 5
    assert out.startswith("Failure4:") and "sigma_star = inf" in out
    # and the smile does have arbitrage: g = -5.577e-14 there
    params = SviParams(1e11, 1.2, 0.5, 1341680555989.1338, 2e12)
    assert g_50_digits(params, 7674568169548.507) < -5e-14


class TestBadInputFiles:
    """Malformed documents exit 64 with a message naming the field."""

    @pytest.mark.parametrize("command, doc, named", [
        ("check", vogt_params_with(a="x"), "not finite numbers: a"),
        ("check", vogt_params_with(a=None), "not finite numbers: a"),
        ("check", 3, "must hold a JSON object"),
        ("calibrate", row2_slice_with(k=[0.04, "x"]), "field k must"),
        ("calibrate", row2_slice_with(w_mid=[0.04, "x"]), "field w_mid must"),
        ("calibrate", row2_slice_with(w_bid=[0.04, "x"]), "field w_bid must"),
        ("calibrate", row2_slice_with(w_ask=[0.04, "x"]), "field w_ask must"),
        ("calibrate", row2_slice_with(t="x"), "t must be"),
        ("check", vogt_params_with(a=10**400), "not finite numbers: a"),
        # json.dumps cannot write an integer this long, so the text is built
        ("check", json.dumps(vogt_params_with(a=0)).replace('"a": 0', '"a": 1' + "0" * 5000),
         "not valid JSON"),
        ("calibrate", row2_slice_with(k=[0.04, 10**400]), "field k must"),
        ("calibrate", row2_slice_with(t=10**400), "t must be"),
        ("config", {"alpha_cap": 10**400}, "alpha_cap must be"),
        # JSON booleans are not numbers, although Python reads them as 1 and 0
        ("check", vogt_params_with(a=True), "not finite numbers: a"),
        ("calibrate", row2_slice_with(w_mid=[True, *row2_slice_with()["w_mid"][1:]]),
         "field w_mid must"),
        ("calibrate", row2_slice_with(k=[False, *row2_slice_with()["k"][1:]]), "field k must"),
    ], ids=["params-a-string", "params-a-null", "params-not-object", "slice-k-string",
            "slice-w-mid-string", "slice-w-bid-string", "slice-w-ask-string",
            "slice-t-string", "params-a-huge", "params-a-over-4300-digits",
            "slice-k-huge", "slice-t-huge", "config-alpha-cap-huge", "params-a-true",
            "slice-w-mid-true", "slice-k-false"])
    def test_exits_64_naming_the_field(self, capsys, tmp_path, command, doc, named):
        path = tmp_path / "doc.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        if command == "check":
            argv = ["check", "--params", str(path)]
        elif command == "calibrate":
            argv = ["calibrate", "--slice", str(path)]
        else:
            slice_path = tmp_path / "slice.json"
            slice_path.write_text(json.dumps(row2_slice_with()))
            argv = ["calibrate", "--slice", str(slice_path), "--config", str(path)]
        rc, _, err = run(capsys, argv)
        assert rc == 64
        assert err.startswith("error: ") and "Traceback" not in err
        assert named in err


class TestSliceIO:
    def test_round_trip(self, tmp_path):
        slice_ = model_slice(MODEL_ROWS[1])
        slice_ = MarketSlice(
            k=slice_.k, w_mid=slice_.w_mid,
            w_bid=slice_.w_mid * 0.99, w_ask=slice_.w_mid * 1.01,
            t=0.5, forward=101.0, discount=0.98, expiry="2026-12-18",
        )
        path = tmp_path / "slice.json"
        write_slice(str(path), slice_)
        back = read_slice(str(path))
        assert np.array_equal(back.k, slice_.k)
        assert np.array_equal(back.w_mid, slice_.w_mid)
        assert np.array_equal(back.w_bid, slice_.w_bid)
        assert np.array_equal(back.w_ask, slice_.w_ask)
        assert back.t == 0.5
        assert back.forward == 101.0
        assert back.discount == 0.98
        assert back.expiry == "2026-12-18"

    def test_minimal_document(self):
        back = slice_from_dict({"k": [-0.1, 0.0, 0.1, 0.2, 0.3],
                                "w_mid": [0.04, 0.04, 0.04, 0.04, 0.04]})
        assert back.w_bid is None
        assert back.t is None
        assert back.expiry is None

    def test_missing_column_raises(self):
        with pytest.raises(InvalidInput, match="missing w_mid"):
            slice_from_dict({"k": [0.0, 0.1]})
        with pytest.raises(InvalidInput, match="missing k"):
            slice_from_dict({"w_mid": [0.04, 0.04]})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "garbled.json"
        path.write_text("not json at all")
        with pytest.raises(InvalidInput, match="not valid JSON"):
            read_slice(str(path))


class TestCalibrateCommand:
    def _write_row2(self, tmp_path):
        path = tmp_path / "row2.slice.json"
        write_slice(str(path), model_slice(MODEL_ROWS[2]))
        return str(path)

    def test_round_trip_writes_result(self, capsys, tmp_path):
        slice_path = self._write_row2(tmp_path)
        rc, out, _ = run(capsys, [
            "calibrate", "--slice", slice_path, "--starts", "1", "--seed", "0",
        ])
        assert rc == 0
        assert "status: Free" in out
        assert f"wrote {slice_path}.result.json" in out

        doc = json.loads((tmp_path / "row2.slice.json.result.json").read_text())
        assert set(doc) == {"params", "box", "cost", "rel_error_fro", "status", "starts"}
        assert doc["status"] == "Free"
        assert doc["rel_error_fro"] < 1e-8
        got = params_vector(SviParams(**doc["params"]))
        want = params_vector(MODEL_ROWS[2])
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-6
        # two starts recorded: the informed one plus one random draw
        assert len(doc["starts"]) == 2

    def test_result_is_strict_json(self, capsys, tmp_path):
        # exact data stops after the informed start, so the other starts
        # have no finite cost; RFC 8259 has no Infinity or NaN
        slice_path = self._write_row2(tmp_path)
        out = str(tmp_path / "r.json")
        assert run(capsys, ["calibrate", "--slice", slice_path, "--out", out])[0] == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        with open(out) as handle:
            doc = json.loads(handle.read(), parse_constant=reject)
        assert [s["cost"] for s in doc["starts"][:-1]] == [None] * 8
        assert math.isfinite(doc["starts"][-1]["cost"])
        assert [s["stop"] for s in doc["starts"]] == ["not run"] * 8 + ["converged"]
        assert [s["nfev"] for s in doc["starts"][:-1]] == [0] * 8
        assert doc["starts"][-1]["nfev"] >= 1
        assert [s["njev"] for s in doc["starts"][:-1]] == [0] * 8
        assert doc["starts"][-1]["njev"] >= 1

    def test_seeded_rerun_is_byte_identical(self, capsys, tmp_path):
        slice_path = self._write_row2(tmp_path)
        argv = ["calibrate", "--slice", slice_path, "--starts", "1", "--seed", "0"]
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert run(capsys, argv + ["--out", out1])[0] == 0
        assert run(capsys, argv + ["--out", out2])[0] == 0
        with open(out1, "rb") as h1, open(out2, "rb") as h2:
            assert h1.read() == h2.read()

    def test_config_file(self, capsys, tmp_path):
        slice_path = self._write_row2(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_starts": 1, "seed": 0, "alpha_cap": 3.0}))
        rc, out, _ = run(capsys, [
            "calibrate", "--slice", slice_path, "--config", str(cfg),
        ])
        assert rc == 0
        assert "status: Free" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        slice_path = self._write_row2(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1, "lsq": {"max_evals": 50}}))
        rc, _, err = run(capsys, [
            "calibrate", "--slice", slice_path, "--config", str(cfg),
        ])
        assert rc == 64
        assert "unknown config keys: bogus, lsq" in err

    def test_r_is_not_a_setting(self, capsys, tmp_path):
        # the sigma ceiling's scale is fixed; neither a flag nor a config
        # key sets it
        slice_path = self._write_row2(tmp_path)
        rc, _, err = run(capsys, ["calibrate", "--slice", slice_path, "--r", "0.1"])
        assert rc == 64
        assert "unrecognized arguments: --r" in err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"r": 0.1}))
        rc, _, err = run(capsys, ["calibrate", "--slice", slice_path, "--config", str(cfg)])
        assert rc == 64
        assert "unknown config keys: r" in err

    def test_failed_certificate_exits_70(self, capsys, tmp_path, monkeypatch):
        # a certificate that does not clear on the winner's image:
        # calibrate raises NumericFailure, and main maps it to 70
        check = calibration_module.check_no_arbitrage
        calls = []

        def never_free(params):
            calls.append(params)
            return dataclasses.replace(check(params), status=Status.FAILURE4)

        monkeypatch.setattr(calibration_module, "check_no_arbitrage", never_free)
        slice_path = self._write_row2(tmp_path)
        rc, out, err = run(capsys, [
            "calibrate", "--slice", slice_path, "--starts", "1", "--seed", "0",
        ])
        assert rc == 70
        assert err.startswith("numeric failure: ") and "Traceback" not in err
        assert "Failure4" in err
        assert "wrote" not in out
        # the winner's image, checked once
        assert len(calls) == 1

    @pytest.mark.parametrize("flags, config", [
        (["--alpha-cap", "inf"], None),
        ([], {"r": math.inf}),
        (["--seed", "-1"], None),
        ([], {"lsq": {"max_evals": 50}}),
        ([], {"n_starts": "3"}),
        ([], {"lsq": {"max_evals": 0}}),
        ([], {"lsq": {"f_tol": 0.0, "x_tol": 0.0, "g_tol": 0.0}}),
        ([], {"lsq": {"f_tol": "x"}}),
        ([], {"vega_weighted": "no"}),
        (["--seed", "1"], [1]),
    ], ids=["alpha-cap-inf", "r-inf", "seed-negative", "lsq-unknown-key",
            "n-starts-string", "max-evals-zero", "tolerances-zero",
            "tolerance-string", "vega-weighted-string", "list-config-with-flag"])
    def test_bad_config_is_input_error(self, capsys, tmp_path, flags, config):
        argv = ["calibrate", "--slice", self._write_row2(tmp_path), *flags]
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv += ["--config", str(cfg)]
        rc, out, err = run(capsys, argv)
        assert rc == 64
        assert err.startswith("error: ") and "Traceback" not in err
        assert "wrote" not in out

    def test_missing_slice_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, [
            "calibrate", "--slice", str(tmp_path / "absent.json"),
        ])
        assert rc == 64
        assert "cannot read" in err

    def test_printed_params_are_the_result_params(self, capsys, tmp_path):
        out = str(tmp_path / "r.json")
        rc, text, _ = run(capsys, [
            "calibrate", "--slice", str(DATA / "row2-slice.json"), "--out", out,
        ])
        assert rc == 0
        line = next(l for l in text.splitlines() if l.startswith("params: "))
        printed = {name: float(value) for name, value in
                   (cell.split("=") for cell in line[len("params: "):].split())}
        with open(out) as handle:
            assert printed == json.load(handle)["params"]
        flags = [f"--{name}={value!r}" for name, value in printed.items()]
        assert run(capsys, ["check", *flags])[0] == 0

    def test_unwritable_out(self, capsys, tmp_path):
        slice_path = self._write_row2(tmp_path)
        rc, _, err = run(capsys, [
            "calibrate", "--slice", slice_path, "--starts", "1", "--seed", "0",
            "--out", str(tmp_path / "no-such-dir" / "r.json"),
        ])
        assert rc == 64
        assert "cannot write" in err


def parity_csv(expiries, ks=(-0.2, -0.1, 0.0, 0.1, 0.2), w=0.04,
               forward=100.0, discount=0.99):
    """Quote file priced exactly on put-call parity, both legs per strike."""
    lines = ["expiry,strike,kind,bid,ask"]
    theta = math.sqrt(w)
    for expiry in expiries:
        for k in ks:
            strike = forward * math.exp(k)
            c = discount * forward * call_price(k, theta)
            p = c - discount * (forward - strike)
            lines.append(f"{expiry},{strike!r},call,{c!r},{c!r}")
            lines.append(f"{expiry},{strike!r},put,{p!r},{p!r}")
    return "\n".join(lines) + "\n"


class TestIngestCommand:
    def test_two_expiries_written(self, capsys, tmp_path):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv(["2026-12-18", "2027-03-19"]))
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--valuation", "2026-08-16",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "forward=100" in out
        for expiry in ("2026-12-18", "2027-03-19"):
            slice_ = read_slice(str(tmp_path / f"{expiry}.slice.json"))
            assert len(slice_) == 5
            assert slice_.w_mid == pytest.approx(0.04, abs=1e-9)
            assert slice_.t == year_fraction(expiry, "2026-08-16")
            assert abs(slice_.forward - 100.0) < 1e-8
            assert abs(slice_.discount - 0.99) < 1e-10

    def test_needs_valuation_or_t(self, capsys, tmp_path):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv(["2026-12-18"]))
        rc, _, err = run(capsys, ["ingest", "--csv", str(csv_path)])
        assert rc == 64
        assert "ingest needs --valuation" in err

    def test_explicit_t_override(self, capsys, tmp_path):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv(["2026-12-18"]))
        rc, _, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--t", "0.5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert read_slice(str(tmp_path / "2026-12-18.slice.json")).t == 0.5

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "-1", "--t must be a finite number > 0.0"),
        ("--t", "nan", "--t must be a finite number > 0.0"),
        ("--valuation", "notadate", "argument --valuation: invalid"),
    ])
    def test_bad_flag_is_input_error(self, capsys, tmp_path, flag, value, message):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv(["2026-12-18"]))
        rc, out, err = run(capsys, [
            "ingest", "--csv", str(csv_path), flag, value, "--out-dir", str(tmp_path),
        ])
        assert rc == 64
        assert message in err
        assert "skipped" not in out
        assert not (tmp_path / "2026-12-18.slice.json").exists()

    def test_expiry_that_is_not_a_file_name_is_skipped(self, capsys, tmp_path):
        # tests/data/ingest-edge.csv: one good expiry, one "../escaped" and
        # one "2026/01/01" expiry with the same quotes, and a nan-spot row
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(DATA / "ingest-edge.csv"), "--t", "0.5",
            "--out-dir", str(out_dir),
        ])
        assert rc == 0
        assert sorted(tmp_path.rglob("*")) == [out_dir, out_dir / "2026-12-18.slice.json"]
        assert len(read_slice(str(out_dir / "2026-12-18.slice.json"))) == 5
        assert "../escaped: skipped (expiry is not a plain file name)" in out
        assert "2026/01/01: skipped (expiry is not a plain file name)" in out
        assert "rejected line 2: spot must be finite and positive, got nan" in out

    @pytest.mark.parametrize("expiry", [".", "..", "a\0b"])
    def test_dot_and_separator_expiries_are_skipped(self, capsys, tmp_path, expiry):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv([expiry, "2026-12-18"]))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--t", "0.5", "--out-dir", str(out_dir),
        ])
        assert rc == 0
        assert f"{expiry}: skipped (expiry is not a plain file name)" in out
        assert sorted(out_dir.iterdir()) == [out_dir / "2026-12-18.slice.json"]

    def test_expiry_not_after_valuation_is_skipped(self, capsys, tmp_path):
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text(parity_csv(["2026-08-16", "2026-12-18"]))
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--valuation", "2026-08-16",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "2026-08-16: skipped (expiry 2026-08-16 is not after valuation" in out
        assert (tmp_path / "2026-12-18.slice.json").exists()

    def test_single_pair_expiry_is_skipped(self, capsys, tmp_path):
        csv_path = tmp_path / "thin.csv"
        csv_path.write_text(parity_csv(["2026-12-18"], ks=(0.0,)))
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--t", "0.5",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert "skipped (" in out
        assert "no slices written" in out
        assert not (tmp_path / "2026-12-18.slice.json").exists()

    def test_rejected_lines_reported(self, capsys, tmp_path):
        csv_path = tmp_path / "quotes.csv"
        text = parity_csv(["2026-12-18", "2027-03-19"])
        csv_path.write_text(text + "2026-12-18,-5,call,1.0,1.1\n")
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--valuation", "2026-08-16",
            "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        # header plus twenty quote rows puts the bad one on line 22
        assert "rejected line 22:" in out
        assert "strike" in out

    def test_header_only_finds_no_chains(self, capsys, tmp_path):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("expiry,strike,kind,bid,ask\n")
        rc, out, _ = run(capsys, ["ingest", "--csv", str(csv_path)])
        assert rc == 0
        assert "no chains found" in out

    def test_every_line_rejected_reports_each(self, capsys, tmp_path):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(
            "expiry,strike,kind,bid,ask\n"
            "2026-12-18,n/a,call,1.0,1.1\n"
            "2026-12-18,100,straddle,1.0,1.1\n"
        )
        rc, out, _ = run(capsys, ["ingest", "--csv", str(csv_path)])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "no chains found"
        assert lines[1].startswith("  rejected line 2: non-numeric field")
        assert lines[2].startswith("  rejected line 3: unknown kind")
        assert len(lines) == 3

    def test_zero_bid_strike_is_reported(self, capsys, tmp_path):
        # the call is the quote picked above the forward; an empty bid
        # side makes its mid half the spread, so the strike is skipped
        lines = parity_csv(["2026-12-18"]).splitlines()
        expiry, strike, kind, _, ask = lines[-2].split(",")
        assert kind == "call"
        lines[-2] = f"{expiry},{strike},call,0.0,{ask}"
        csv_path = tmp_path / "quotes.csv"
        csv_path.write_text("\n".join(lines) + "\n")
        rc, out, _ = run(capsys, [
            "ingest", "--csv", str(csv_path), "--t", "0.5", "--out-dir", str(tmp_path),
        ])
        assert rc == 0
        assert f"  skipped strike {float(strike):g}: call bid is zero" in out.splitlines()
        assert len(read_slice(str(tmp_path / "2026-12-18.slice.json"))) == 4

    def test_missing_csv(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["ingest", "--csv", str(tmp_path / "absent.csv")])
        assert rc == 64
        assert err.startswith("error:")


class TestPlotData:
    def test_smile_matches_library(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "smile", "--from", "-0.3", "--to", "0.3",
            "--grid", "7", "--out", "-",
        ] + VOGT_FLAGS)
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["k", "w"]
        ks = np.linspace(-0.3, 0.3, 7)
        ws = svi(VOGT, ks)
        for row, k, w in zip(rows, ks, ws):
            assert row[0] == k
            assert row[1] == w

    def test_g_matches_library(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "g", "--from", "-1.0", "--to", "1.0",
            "--grid", "9", "--out", "-",
        ] + VOGT_FLAGS)
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["k", "g"]
        ks = np.linspace(-1.0, 1.0, 9)
        gs = durrleman_g(VOGT, ks)
        for row, g in zip(rows, gs):
            assert row[1] == g
        # Vogt parameters carry butterfly arbitrage: g dips negative
        assert min(row[1] for row in rows) < 0.0

    def test_g2_sign_pattern(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-4", "--to", "4", "--grid", "9",
            "--out", "-",
        ])
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["l", "g2"]
        signs = [v > 0 for _, v in rows]
        # zeros sit near -1.183 and 1.939
        assert signs == [False, False, False, True, True, True, False, False, False]
        assert rows[4][0] == 0.0
        assert abs(rows[4][1] - 0.48125) < 1e-15

    def test_g2_is_nan_where_the_smile_is_not_positive(self, capsys):
        # N(0) = alpha + b = 0, and G2 = N'' - N'^2/(2N) divides by N
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "-1", "--b", "1",
            "--rho", "0", "--from", "-1", "--to", "1", "--grid", "3",
            "--out", "-",
        ])
        assert rc == 0
        _, rows = parse_plot(out)
        assert [row[0] for row in rows] == [-1.0, 0.0, 1.0]
        assert math.isnan(rows[1][1])
        for l, g2 in (rows[0], rows[2]):
            n0, n1, n2, _ = n_funcs(-1.0, 1.0, 0.0, l)
            assert g2 == n2 - n1 * n1 / (2.0 * n0)

    def test_g2_far_out_on_a_wing(self, capsys):
        # r^5 is past the largest float beyond |l| = 1.4e61; G2 tends to -1/(2l)
        rc, out, err = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0", "--b", "1", "--rho", "0",
            "--from=1e62", "--to=1e63", "--grid", "2", "--out", "-",
        ])
        assert rc == 0, err
        _, rows = parse_plot(out)
        for l, g2 in rows:
            assert g2 == pytest.approx(-0.5 / l, rel=1e-15)

    def test_gpm_matches_library(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "gpm", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-2", "--to", "2", "--grid", "5",
            "--out", "-",
        ])
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["l", "g_minus", "g_plus"]
        for l, minus, plus in rows:
            assert minus == g_pm(0.5, -0.3, l, "-")
            assert plus == g_pm(0.5, -0.3, l, "+")

    @pytest.mark.parametrize("alpha", ["0.1", "-3", "1e300"])
    def test_gpm_needs_no_alpha(self, capsys, alpha):
        argv = ["plot-data", "--which", "gpm", "--from", "-1", "--to", "1",
                "--b", "1", "--rho", "0", "--out", "-"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        assert run(capsys, [*argv, "--alpha", alpha]) == (0, out, "")

    def test_l_columns_respect_half_lines(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "L", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-3", "--to", "3", "--grid", "7",
            "--out", "-",
        ])
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["l", "L_minus", "L_plus"]
        vertex = l_star(-0.3)
        for l, minus, plus in rows:
            if l < vertex:
                assert minus == L_minus(l, 0.1, 0.5, -0.3)
                assert math.isnan(plus)
            else:
                assert math.isnan(minus)
                assert plus == L_plus(l, 0.1, 0.5, -0.3)

    def test_f_profile_nan_at_origin(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "f-profile", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--mu", "0.1", "--from", "-0.5", "--to", "0.5",
            "--grid", "11", "--out", "-",
        ])
        assert rc == 0
        header, rows = parse_plot(out)
        assert header == ["h", "f"]
        for h, f in rows:
            if h == 0.0:
                assert math.isnan(f)
            else:
                assert f == sigma_star_profile(0.1, 0.5, -0.3, 0.1, h)
                assert f >= 0.0
        assert max(f for h, f in rows if h != 0.0) > 0.1

    def test_f_profile_of_a_non_positive_smile_is_input_error(self, capsys):
        # alpha + b = 0: N rounds to 0 near l = 0, where the deficit divides by it
        rc, out, err = run(capsys, [
            "plot-data", "--which", "f-profile", "--from", "1e8", "--to", "1e9",
            "--grid", "2", "--alpha=-1", "--b", "1", "--rho", "0", "--mu", "0",
            "--out", "-",
        ])
        assert rc == 64
        assert out == ""
        assert err.startswith("error: a positive smile is required")

    def test_single_point_grid(self, capsys):
        rc, out, _ = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "0.25", "--to", "99", "--grid", "1",
            "--out", "-",
        ])
        assert rc == 0
        _, rows = parse_plot(out)
        assert len(rows) == 1
        assert rows[0][0] == 0.25

    def test_grid_zero_rejected(self, capsys):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-1", "--to", "1", "--grid", "0",
            "--out", "-",
        ])
        assert rc == 64
        assert "--grid must be at least 1" in err

    def test_reversed_range_rejected(self, capsys):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "1", "--to", "1", "--out", "-",
        ])
        assert rc == 64
        assert "--from must be below --to" in err

    @pytest.mark.parametrize("argv, flag", [
        (["--which", "g", "--from", "nan", "--to", "1", *VOGT_FLAGS], "--from"),
        (["--which", "smile", "--from", "-1", "--to", "inf", *VOGT_FLAGS], "--to"),
        (["--which", "smile", "--from=-1e308", "--to=1e308", *VOGT_FLAGS], "--to - --from"),
        ([*UNIT_RANGE, "--which", "g2", "--alpha", "nan", "--b", "0.5", "--rho", "-0.3"],
         "--alpha"),
        ([*UNIT_RANGE, "--which", "g2", "--alpha", "0.1", "--b", "0.5", "--rho", "7"],
         "--rho"),
        ([*UNIT_RANGE, "--which", "g2", "--alpha", "0.1", "--b", "0", "--rho", "-0.3"],
         "--b"),
        ([*UNIT_RANGE, "--which", "gpm", "--alpha", "0.1", "--b", "nan", "--rho", "-0.3"],
         "--b"),
        ([*UNIT_RANGE, "--which", "L", "--alpha", "0.1", "--b", "-0.5", "--rho", "-0.3"],
         "--b"),
        ([*UNIT_RANGE, "--which", "L", "--alpha", "0.1", "--b", "0.5", "--rho", "inf"],
         "--rho"),
        ([*UNIT_RANGE, "--which", "f-profile", "--alpha", "0.1", "--b", "0.5",
          "--rho", "-0.3", "--mu", "nan"], "--mu"),
    ], ids=[
        "g-from-nan", "smile-to-inf", "width-overflows", "g2-alpha-nan", "g2-rho-7",
        "g2-b-zero", "gpm-b-nan", "L-b-negative", "L-rho-inf", "f-profile-mu-nan",
    ])
    def test_unplottable_input_rejected(self, capsys, argv, flag):
        rc, out, err = run(capsys, ["plot-data", *argv, "--grid", "3", "--out", "-"])
        assert rc == 64
        assert out == ""
        assert err.startswith(f"error: {flag} must ")

    def test_normalized_plots_need_their_flags(self, capsys):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "g2", "--from", "-1", "--to", "1", "--out", "-",
        ])
        assert rc == 64
        assert "--which g2 needs --alpha, --b and --rho" in err

    def test_f_profile_needs_mu(self, capsys):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "f-profile", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-1", "--to", "1", "--out", "-",
        ])
        assert rc == 64
        assert "--which f-profile needs --mu" in err

    def test_smile_needs_complete_params(self, capsys):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "smile", "--from", "-1", "--to", "1",
            "--out", "-", "--a", "0.1",
        ])
        assert rc == 64
        assert "parameters incomplete" in err

    def test_file_output(self, capsys, tmp_path):
        out_path = tmp_path / "g2.csv"
        argv = [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-4", "--to", "4", "--grid", "9",
        ]
        rc, out, _ = run(capsys, argv + ["--out", str(out_path)])
        assert rc == 0
        assert f"wrote 9 rows to {out_path}" in out
        rc, stdout_text, _ = run(capsys, argv + ["--out", "-"])
        assert rc == 0
        assert out_path.read_text() == stdout_text

    def test_unwritable_out(self, capsys, tmp_path):
        rc, _, err = run(capsys, [
            "plot-data", "--which", "g2", "--alpha", "0.1", "--b", "0.5",
            "--rho", "-0.3", "--from", "-4", "--to", "4",
            "--out", str(tmp_path / "no-such-dir" / "g2.csv"),
        ])
        assert rc == 64
        assert "cannot write" in err
