import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from reference import Recorder, recorded, write_trajectory_csv

from hjbkit.cli import _write_json, _write_trajectory_csv, main
from hjbkit.errors import ConfigError, NumericsError
from hjbkit.gridcore import BLOCK, joined
from hjbkit.scenarios import (DEFAULT_TOLERANCES, MODELS, build_scenario,
                              default_config, refine_config, validate_config)


def run_cli(args):
    return main(list(args))


class TestConfigValidation:
    def test_defaults_validate(self):
        for model in ("spatial-growth", "pollution", "vintage-dde",
                      "vintage-transport", "time-to-build"):
            cfg = validate_config(default_config(model))
            assert cfg["model"] == model
            assert "tolerances" in cfg

    def test_absent_or_null_tolerances_keep_the_defaults(self):
        cfg = default_config("vintage-dde")
        want = validate_config(cfg)["tolerances"]
        cfg["tolerances"] = None
        assert validate_config(cfg)["tolerances"] == want
        del cfg["tolerances"]
        assert validate_config(cfg)["tolerances"] == want

    def test_missing_key_named(self):
        cfg = default_config("vintage-dde")
        del cfg["params"]["A"]
        with pytest.raises(ConfigError, match="params.A"):
            validate_config(cfg)

    def test_unknown_key_rejected(self):
        cfg = default_config("pollution")
        cfg["params"]["mystery"] = 1.0
        with pytest.raises(ConfigError, match="mystery"):
            validate_config(cfg)

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError, match="model"):
            validate_config({"model": "nonsense"})

    def test_default_config_is_independent_copy(self):
        for model in MODELS:
            default_config(model)["params"]["mystery"] = 1
            cfg = default_config(model)
            assert validate_config(cfg)["model"] == model
            cfg["params"]["mystery"] = 1
            with pytest.raises(ConfigError, match="mystery"):
                validate_config(cfg)

    def test_key_type_follows_default(self):
        cfg = default_config("vintage-dde")
        cfg["numerics"]["m"] = 200.0
        cfg["params"]["T"] = 2
        out = validate_config(cfg)
        assert out["numerics"]["m"] == 200
        assert type(out["numerics"]["m"]) is int
        assert out["params"]["T"] == 2.0
        assert type(out["params"]["T"]) is float

    def test_refine_scales_numerics(self):
        cfg = validate_config(default_config("spatial-growth"))
        fine = refine_config(cfg, 2)
        assert fine["numerics"]["n"] == 4 * cfg["numerics"]["n"]
        assert fine["numerics"]["dt"] == cfg["numerics"]["dt"] / 4

    @pytest.mark.parametrize("model", MODELS)
    def test_work_budget_leaves_room_to_refine(self, model):
        # every default, refined twice (16x its work), stays inside
        refine_config(validate_config(default_config(model)), 2)

    @pytest.mark.parametrize("model, key, value, named", [
        ("spatial-growth", "dt", 1e-9, "numerics.dt x numerics.n"),
        ("vintage-dde", "m", 10 ** 7, "(numerics.m + 1)"),
        ("vintage-transport", "T_end", 1e9, "numerics.T_end"),
    ])
    def test_work_budget_rejects(self, model, key, value, named):
        cfg = default_config(model)
        cfg["numerics"][key] = value
        with pytest.raises(ConfigError, match=r"work budget") as err:
            validate_config(cfg)
        assert named in str(err.value)


def _reference_row(sc, state, control):
    """The CSV columns of one row, from the model's public functions."""
    from hjbkit import delay
    spec = sc.spec
    if sc.name == "spatial-growth":
        g = spec.grid
        return [g.quad(state), g.inner(state, spec.beta), float(state.min()),
                g.inner(control, spec.N_pop)]
    if sc.name == "pollution":
        g = spec.grid
        return [g.quad(state), float(state.min()), float(state.max()),
                g.inner(spec.eta, control)]
    if sc.name == "vintage-transport":
        return [spec.age.quad(state), float(np.min(state)),
                float(control[0])]
    head, gamma = state[0], delay.gamma(state, spec.xi, spec.delay.lag)
    if sc.name == "vintage-dde":
        return [head, float(control), gamma]
    return [head, float(control), gamma,
            (spec.Atilde / spec.A) * (head - float(control))]


CSV_HEADERS = {
    "spatial-growth": "total_capital,beta_pairing,min_capital,"
                      "total_consumption",
    "pollution": "total_pollution,min_pollution,max_pollution,"
                 "total_emission",
    "vintage-dde": "capital,investment,gamma0",
    "vintage-transport": "total_capital,min_capital,boundary_investment",
    "time-to-build": "output,control,gamma,consumption",
}


@pytest.mark.parametrize("short", [False, True])
@pytest.mark.parametrize("model", sorted(CSV_HEADERS))
def test_chunked_csv_matches_a_per_row_reference(tmp_path, model, short):
    # trajectory.csv is written a chunk of rows at a time; its bytes must
    # be those of one row at a time from the public functions, over
    # several chunks and over a horizon shorter than one
    cfg = default_config(model)
    if short:
        cfg["numerics"]["T_end"] = 5 * build_scenario(cfg).handle.dt
    sc = build_scenario(cfg)
    rec = Recorder()
    traj = sc.simulate(joined(sc.state_columns, rec))
    assert (len(traj.times) < BLOCK) == short
    path = tmp_path / "trajectory.csv"
    _write_trajectory_csv(path, traj)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["t", *CSV_HEADERS[model].split(","), "running_payoff"])
    for k, t in enumerate(traj.times):
        row = [t, *_reference_row(sc, rec.states[k], rec.controls[k]),
               traj.running_payoff[k]]
        writer.writerow([repr(float(v)) for v in row])
    assert path.read_bytes() == want.getvalue().encode()


class TestRun:
    def test_writes_outputs(self, tmp_path):
        code = run_cli(["run", "--model", "vintage-dde",
                        "--out", str(tmp_path)])
        assert code == 0
        csv_text = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert csv_text[0] == "t,capital,investment,gamma0,running_payoff"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["model"] == "vintage-dde"
        assert summary["value_gap"] < 5e-3
        assert summary["derived"]["xi"] == pytest.approx(0.7968121300,
                                                         abs=1e-9)

    def test_pollution_constant_data_matches_module_example(self, tmp_path):
        cfg = default_config("pollution")
        cfg["params"] = {
            "sigma_diff": {"type": "constant", "value": 1.3},
            "delta": {"type": "constant", "value": 0.1},
            "eta": {"type": "constant", "value": 1.0},
            "a": {"type": "constant", "value": 2.0},
            "gamma": {"type": "constant", "value": 0.5},
            "w": {"type": "constant", "value": 1.0},
            "rho": 0.05,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["derived"]["alpha_shadow_mean"] == pytest.approx(
            6.66667, abs=1e-4)

    def test_missing_config_key_exits_2(self, tmp_path, capsys):
        cfg = default_config("vintage-dde")
        del cfg["numerics"]["m"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "numerics.m" in capsys.readouterr().err

    def test_violated_assumption_exits_2(self, tmp_path, capsys):
        cfg = default_config("vintage-dde")
        cfg["params"]["A"] = 0.45  # A*T = 0.9 <= 1: no positive root
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "growth condition" in capsys.readouterr().err

    def test_root_just_above_unit_growth_product(self, tmp_path, capsys):
        # A*T = 1.000001 has a positive root; the default start state is
        # then outside the domain
        cfg = default_config("vintage-dde")
        cfg["params"]["T"] = 1.000001
        path = tmp_path / "t.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "domain exit" in err and "Traceback" not in err

    def test_domain_exit_exits_4(self, tmp_path):
        cfg = default_config("vintage-dde")
        cfg["params"]["rho"] = 0.95  # interior condition fails; loop exits
        cfg["numerics"]["T_end"] = 60.0
        path = tmp_path / "exit.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
        assert code == 4

    def test_summary_round_trips_as_config(self, tmp_path):
        out1 = tmp_path / "first"
        out2 = tmp_path / "second"
        assert run_cli(["run", "--model", "time-to-build",
                        "--out", str(out1)]) == 0
        assert run_cli(["run", "--config", str(out1 / "summary.json"),
                        "--out", str(out2)]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1 == s2

    def test_deterministic_outputs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(["run", "--model", "vintage-transport",
                            "--out", str(out)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() \
            == (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() \
            == (out2 / "summary.json").read_bytes()

    @pytest.mark.parametrize("model, key", [("vintage-dde", "iota0"),
                                            ("time-to-build", "u0")])
    def test_decreasing_history_profile(self, tmp_path, model, key):
        # power_decreasing is normalised by the history domain [-lag, 0]
        cfg = default_config(model)
        cfg["initial"][key] = {"type": "power_decreasing", "start": 1.0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for cmd in ("run", "verify"):
            assert run_cli([cmd, "--config", str(path),
                            "--out", str(tmp_path / cmd)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["value_gap"] < 5e-3

    @pytest.mark.parametrize("block, key, value, code", [
        (None, None, None, 0),
        # rho * dt >> 1 leaves the discounted trapezoid meaningless: a gap
        # of 1.24e9, which verify fails on the same config
        ("params", "rho", 5e10, 3),
        ("tolerances", "value_match", 0.0, 3),
    ])
    def test_exits_3_past_the_value_match_tolerance(self, tmp_path, capsys,
                                                    block, key, value, code):
        # the outputs are written first, then the gap is judged with
        # verify's test and wording
        cfg = default_config("pollution")
        if block is not None:
            cfg.setdefault(block, {})[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(["run", "--config", str(path), "--out", str(out)]) \
            == code
        assert (out / "trajectory.csv").stat().st_size > 0
        summary = json.loads((out / "summary.json").read_text())
        tol = validate_config(cfg)["tolerances"]["value_match"]
        gap = summary["value_gap"]
        assert (gap <= tol) == (code == 0)
        failure = f"  tolerance failure: value-match gap {gap:.3e} > {tol:.1e}"
        assert (failure in capsys.readouterr().out.splitlines()) \
            == (code == 3)


@pytest.mark.parametrize("value, want", [
    (np.bool_(True), True), (np.int64(3), 3), (np.float64(0.1), 0.1),
    (np.array([1.5, 2.0]), [1.5, 2.0]), ((1.0, 2), [1.0, 2]),
    ({"b": np.float32(0.5), "a": [np.int32(-1)]}, {"a": [-1], "b": 0.5}),
])
def test_json_writer_encodes_numpy_values(tmp_path, value, want):
    # numpy scalars and arrays are written as their Python values, and an
    # np.float64 (a float) with float's repr
    path = tmp_path / "out.json"
    _write_json(path, {"x": value})
    assert path.read_text() == json.dumps({"x": want}, sort_keys=True,
                                          indent=2) + "\n"


@pytest.mark.parametrize("value", [
    math.nan, np.float64(-np.inf), np.array([1.0, np.nan]),
    [np.float32(np.inf)],
])
def test_json_writer_refuses_a_non_finite_figure(tmp_path, value):
    path = tmp_path / "out.json"
    with pytest.raises(NumericsError, match="non-finite figure"):
        _write_json(path, {"x": value})
    assert not path.exists()


def test_json_writer_refuses_other_types(tmp_path):
    # only numpy values get the fallback; anything else is json's TypeError
    path = tmp_path / "out.json"
    for value in ({1.0}, object(), 1j):
        with pytest.raises(TypeError, match="not JSON serializable"):
            _write_json(path, {"x": value})
    assert not path.exists()


BAD_INPUTS = [
    ("vintage-dde", "params", "sigma", 1.0, "sigma"),
    ("spatial-growth", "numerics", "n", 4, "n >= 8"),
    ("vintage-dde", "numerics", "m", 2, "m >= 4"),
    ("vintage-transport", "params", "mu", -0.1, "mu"),
    ("spatial-growth", "numerics", "dt", -0.01, "numerics.dt"),
    ("vintage-dde", "params", "rho", "abc", "params.rho"),
    # a number must be a JSON number: float() would read these
    ("vintage-dde", "params", "rho", True, "params.rho"),
    ("vintage-dde", "params", "rho", "0.3", "params.rho"),
    ("vintage-dde", "numerics", "m", "200", "numerics.m"),
    ("vintage-dde", "params", "rho", 10 ** 400, "params.rho"),  # past float
    ("time-to-build", "params", "d", True, "params.d"),  # d = 1 is default
    ("spatial-growth", "initial", "x0", {"type": "constant", "value": "1.0"},
     "'value'"),
    ("pollution", "params", "a", {"type": "harmonic", "mean": True},
     "'mean'"),
    ("vintage-dde", "params", "rho", float("nan"), "params.rho"),
    ("time-to-build", "numerics", "T_end", float("inf"), "numerics.T_end"),
    ("vintage-dde", "initial", "iota0", {"type": "constant"}, "'value'"),
    ("spatial-growth", "initial", "x0",
     {"type": "constant", "value": float("nan")}, "'value'"),
    ("pollution", "params", "eta", {"type": "constant", "value": 0.0},
     "params.eta"),
    ("spatial-growth", "initial", "x0", {"type": "constant", "value": -1.0},
     "initial.x0"),
    ("pollution", "initial", "p0", {"type": "constant", "value": -1.0},
     "initial.p0"),
    ("vintage-dde", "initial", "iota0", {"type": "constant", "value": -1.0},
     "initial.iota0"),
    ("vintage-transport", "initial", "z0",
     {"type": "constant", "value": -1.0}, "initial.z0"),
    # a closed-form constant past the float range: alpha0 overflows or
    # underflows near sigma = 1 and overflows at a tiny sigma, and nu
    # is NaN at a huge one
    ("spatial-growth", "params", "sigma", 0.999999, "sigma"),
    ("spatial-growth", "params", "sigma", 1.000001, "sigma"),
    ("spatial-growth", "params", "sigma", 1e-12, "sigma"),
    ("vintage-dde", "params", "sigma", 1e6, "sigma"),
    # each profile type's missing required key and non-number value
    ("pollution", "params", "a", {"type": "harmonic", "cos": 0.3},
     "missing key 'mean'"),
    ("pollution", "params", "a", {"type": "harmonic", "mean": 2.5, "k": "2"},
     "key 'k' must be a number"),
    ("vintage-dde", "initial", "iota0", {"type": "exponential", "scale": 1.0},
     "missing key 'rate'"),
    ("vintage-dde", "initial", "iota0",
     {"type": "exponential", "scale": "1", "rate": 0.1},
     "key 'scale' must be a number"),
    ("time-to-build", "initial", "u0", {"type": "linear", "start": 1.0},
     "missing key 'end'"),
    ("time-to-build", "initial", "u0",
     {"type": "linear", "start": 1.0, "end": [2.0]}, "key 'end' must be a number"),
    ("vintage-transport", "params", "alpha",
     {"type": "power_decreasing", "power": 1.0}, "missing key 'start'"),
    ("vintage-transport", "params", "alpha",
     {"type": "power_decreasing", "start": 1.0, "power": None},
     "key 'power' must be a number"),
]


@pytest.mark.parametrize("model, block, key, value, named", BAD_INPUTS)
def test_bad_input_exits_2(tmp_path, capsys, model, block, key, value,
                           named):
    cfg = default_config(model)
    cfg[block][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON extensions
    code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert named in capsys.readouterr().err


# one descriptor of each profile type, at a key that reads it, and its
# values at points s of its span [lo, hi] written out
PROFILES = [
    ("spatial-growth", "initial", "x0", {"type": "constant", "value": 1.0},
     lambda s, lo, hi: np.full(len(s), 1.0)),
    ("spatial-growth", "params", "A",
     {"type": "harmonic", "mean": 0.04, "cos": 0.01},
     lambda s, lo, hi: 0.04 + 0.01 * np.cos(s) + 0.0 * np.sin(s)),
    ("pollution", "initial", "p0",
     {"type": "harmonic", "mean": 1.0, "cos": 0.5, "sin": 0.25, "k": 3},
     lambda s, lo, hi: 1.0 + 0.5 * np.cos(3 * s) + 0.25 * np.sin(3 * s)),
    ("vintage-dde", "initial", "iota0", {"type": "constant", "value": 1.0},
     lambda s, lo, hi: np.full(len(s), 1.0)),
    ("vintage-dde", "initial", "iota0",
     {"type": "exponential", "scale": 1.0, "rate": 0.1},
     lambda s, lo, hi: 1.0 * np.exp(0.1 * s)),
    ("time-to-build", "initial", "u0",
     {"type": "exponential", "scale": 2.0, "rate": -0.7},
     lambda s, lo, hi: 2.0 * np.exp(-0.7 * s)),
    ("vintage-dde", "initial", "iota0",
     {"type": "linear", "start": 1.0, "end": 2.0},
     lambda s, lo, hi: 1.0 + (2.0 - 1.0) * (s - lo) / (hi - lo)),
    ("time-to-build", "initial", "u0",
     {"type": "linear", "start": 2.0, "end": 0.3},
     lambda s, lo, hi: 2.0 + (0.3 - 2.0) * (s - lo) / (hi - lo)),
    ("vintage-transport", "params", "alpha",
     {"type": "power_decreasing", "start": 1.0, "power": 1.0},
     lambda s, lo, hi: 1.0 * (1.0 - (s - lo) / (hi - lo)) ** 1.0),
    ("vintage-transport", "params", "q1",
     {"type": "power_decreasing", "start": 0.1},
     lambda s, lo, hi: 0.1 * (1.0 - (s - lo) / (hi - lo)) ** 1.0),
    ("vintage-transport", "initial", "z0",
     {"type": "power_decreasing", "start": 0.3, "power": 2.5},
     lambda s, lo, hi: 0.3 * (1.0 - (s - lo) / (hi - lo)) ** 2.5),
]
PROFILE_IDS = [f"{k}-{d['type']}" for _, _, k, d, _ in PROFILES]


@pytest.mark.parametrize("model, block, key, desc, formula", PROFILES,
                         ids=PROFILE_IDS)
def test_profile_with_an_unknown_key_exits_2(tmp_path, capsys, model, block,
                                             key, desc, formula):
    # a misspelt key ("coz" for "cos") must not build a profile without it
    cfg = default_config(model)
    cfg[block][key] = dict(desc, coz=0.5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "coz" in err and "Traceback" not in err


@pytest.mark.parametrize("model, block, key, desc, formula", PROFILES,
                         ids=PROFILE_IDS)
def test_profile_values_are_its_formula(model, block, key, desc, formula):
    # every bit: a circle profile on [0, 2 pi), an interval one on a span
    # with neither end at 0
    from hjbkit.scenarios import circle_profile, interval_profile
    if model in ("spatial-growth", "pollution"):
        lo, hi = 0.0, 2.0 * math.pi
        s = np.linspace(lo, hi, 10)[:-1]
        got = circle_profile(desc)(s)
    else:
        lo, hi = -1.5, 0.5
        s = np.linspace(lo, hi, 9)
        got = interval_profile(desc, lo, hi)(s)
    assert np.array_equal(got, formula(s, lo, hi))


def test_harmonic_wave_number_must_be_an_integer(tmp_path, capsys):
    from hjbkit.scenarios import circle_profile
    theta = np.linspace(0.0, 6.0, 7)
    whole = {"type": "harmonic", "mean": 0.0, "cos": 1.0, "k": 2}
    assert np.array_equal(circle_profile(dict(whole, k=2.0))(theta),
                          circle_profile(whole)(theta))
    cfg = default_config("spatial-growth")
    cfg["params"]["A"] = {"type": "harmonic", "mean": 0.04, "cos": 0.01,
                          "k": 2.7}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'k' must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("key, model", [("n", "spatial-growth"),
                                        ("m", "vintage-dde"),
                                        ("m_age", "vintage-transport")])
def test_grid_size_must_be_an_integer(tmp_path, capsys, key, model):
    # a grid size with a fraction is refused, never truncated, as a
    # harmonic k is; an integral float still reads as its integer
    cfg = default_config(model)
    size = cfg["numerics"][key]
    cfg["numerics"][key] = float(size)
    assert validate_config(cfg)["numerics"][key] == size
    cfg["numerics"][key] = size + 0.7
    with pytest.raises(ConfigError,
                       match=f"numerics.{key} must be an integer"):
        validate_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = run_cli(["run", "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"numerics.{key} must be an integer, got {size + 0.7!r}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("key, value, said", [
    ("value_match", "0.01", "must be a number"),
    ("residual", True, "must be a number"),
    ("value_match", -1, "must be nonnegative"),
    ("oracle_slack", -0.5, "must be nonnegative"),
    ("residual", -1e-300, "must be nonnegative"),
])
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_bad_tolerance_exits_2(tmp_path, capsys, command, key, value, said):
    # a negative tolerance is a configuration error, never a tolerance
    # failure (exit 3) that no run could pass
    cfg = dict(default_config("vintage-dde"), tolerances={key: value})
    with pytest.raises(ConfigError, match=f"tolerances.{key} {said}"):
        validate_config(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = run_cli([command, "--config", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"tolerances.{key} {said}" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()
    assert not (tmp_path / "oracle.json").exists()


def test_zero_tolerances_are_allowed():
    cfg = dict(default_config("vintage-dde"),
               tolerances={key: 0 for key in DEFAULT_TOLERANCES})
    assert validate_config(cfg)["tolerances"] == dict.fromkeys(
        DEFAULT_TOLERANCES, 0.0)


@pytest.mark.parametrize("model", MODELS)
def test_run_writes_the_bytes_of_csv_writer(tmp_path, model):
    # the writer joins each chunk's rows itself; the file must be the one
    # csv.writer writes from the same run
    assert run_cli(["run", "--model", model, "--out", str(tmp_path)]) == 0
    sc = build_scenario(default_config(model))
    want = tmp_path / "want.csv"
    write_trajectory_csv(want, sc, *recorded(sc.simulate), BLOCK)
    assert (tmp_path / "trajectory.csv").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("content",['{"model": "vintage-dde", "params"',
                                     "5", None])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, content):
    # truncated JSON, a top-level value that is not an object, and a
    # missing file
    path = tmp_path / "cfg.json"
    if content is not None:
        path.write_text(content)
    code = run_cli([command, "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--model", "vintage-dde", "--seed", "-1"], "--seed"),
    (["run", "--model", "vintage-dde", "--refine", "-5"], "--refine"),
])
def test_out_of_range_integer_flag_exits_2(tmp_path, capsys, argv, flag):
    # a negative seed used to raise inside numpy, and a negative refine
    # silently coarsened the grid
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--model", "spatial-growth", "--refine", "40"],
    ["verify", "--model", "time-to-build", "--refine", "40"],
])
def test_refinement_past_work_budget_exits_2(tmp_path, capsys, argv):
    # 2**40 times the default grid used to be allocated as asked
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "work budget" in err and "numerics." in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--model", "vintage-dde", "--seed", "1"],
    ["oracle", "--model", "vintage-dde", "--seed", "1"],
    ["oracle", "--model", "vintage-dde", "--refine", "1"],
])
def test_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    # --seed is verify's and --refine run's and verify's: elsewhere they
    # changed no output
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[3]} 1" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_tiny_dt_exits_2(tmp_path, capsys):
    # 4e10 steps used to be allocated as asked
    cfg = default_config("pollution")
    cfg["numerics"]["dt"] = 1.5e-9
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli(["run", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "numerics.T_end / numerics.dt x numerics.n" in err
    assert "work budget" in err
    assert not out.exists()


@pytest.mark.parametrize("block", [5, True, 0, [], [1], "x"],
                         ids=["5", "true", "0", "[]", "[1]", "x"])
@pytest.mark.parametrize("command", ["run", "verify", "oracle"])
def test_tolerances_block_must_be_an_object(tmp_path, capsys, command,
                                            block):
    # 5 and true used to end in a TypeError traceback, 0, false and []
    # passed as "no overrides", and [1] read as an unknown tolerance key
    cfg = default_config("vintage-dde")
    cfg["tolerances"] = block
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "block 'tolerances' must be an object" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, written", [
    ("run", "trajectory.csv"), ("verify", "report.json"),
    ("oracle", "oracle.json")])
@pytest.mark.parametrize("where", ["file", "under-a-file", "directory"])
def test_unusable_out_exits_2(tmp_path, capsys, command, written, where):
    # --out naming a file, or a path under one, used to end in a
    # FileExistsError or NotADirectoryError traceback; an output file that
    # cannot be written (here a directory in its place) is named the same
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n")
    out = blocker if where == "file" else blocker / "out"
    named = out
    if where == "directory":
        out = tmp_path / "out"
        named = out / written
        named.mkdir(parents=True)
    assert run_cli([command, "--model", "vintage-dde", "--out",
                    str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(named) in err
    assert "Traceback" not in err
    assert blocker.read_text() == "kept\n"


class TestVerify:
    def test_vintage_report(self, tmp_path):
        code = run_cli(["verify", "--model", "vintage-dde",
                        "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["residual_max"] < 1e-5
        assert report["residual_refined_max"] < 0.5 * report["residual_max"]

    @pytest.mark.parametrize("key, desc, code, said", [
        # a <= 1 only on the residual study's finer grids
        ("a", {"type": "harmonic", "mean": 1.1, "cos": 0.15, "k": 512}, 2,
         "error: pollution: productivity a must exceed 1"),
        # the elliptic solve on the reference grid fails its defect check
        ("sigma_diff", {"type": "harmonic", "mean": 40.0, "cos": 0.2}, 3,
         "numerics failure: cyclic tridiagonal solve failed"),
    ])
    def test_residual_grid_failures_exit_cleanly(self, tmp_path, capsys,
                                                 key, desc, code, said):
        cfg = default_config("pollution")
        cfg["params"][key] = desc
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert said in err
        assert "Traceback" not in err

    def test_tightened_tolerance_fails_controlled(self, tmp_path, capsys):
        cfg = default_config("vintage-dde")
        cfg["tolerances"] = {"value_match": 1e-9}  # below the dt^2 floor
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["passed"]
        assert any("value-match" in f for f in report["failures"])

    def test_start_outside_domain_exits_4_as_run_does(self, tmp_path,
                                                      capsys):
        # at rho = 1 the time-to-build start state is outside the domain
        cfg = default_config("time-to-build")
        cfg["params"]["rho"] = 1.0
        path = tmp_path / "rho1.json"
        path.write_text(json.dumps(cfg))
        errors = []
        for cmd in ("run", "verify"):
            assert run_cli([cmd, "--config", str(path),
                            "--out", str(tmp_path / cmd)]) == 4
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "domain exit" in errors[0]

    def test_large_output_samples_interior_test_states(self, tmp_path):
        # a start output far above the control history: the residual test
        # states are drawn inside the domain at any scale, so the residual
        # study runs and only the suboptimal probe falls short
        cfg = default_config("time-to-build")
        cfg["params"]["rho"] = 0.25
        cfg["initial"]["q0"] = 20.0
        path = tmp_path / "q20.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert len(report["failures"]) == 1
        assert report["failures"][0].startswith("suboptimal control")
        for key in ("residual_max", "residual_mean", "residual_refined_max"):
            assert 0.0 < report[key] < 1e-5, key

    @pytest.mark.parametrize("model, numerics, keys", [
        ("spatial-growth", {"n": 32, "dt": 1.0, "T_end": 0.4},
         "numerics.T_end / numerics.dt"),
        ("spatial-growth", {"n": 32, "dt": 1.0, "T_end": 1.0},
         "numerics.T_end / numerics.dt"),
        ("spatial-growth", {"n": 32, "dt": 1.0, "T_end": 2.0},
         "numerics.T_end / numerics.dt"),
        ("spatial-growth", {"n": 32, "dt": 1.0, "T_end": 3.0},
         "numerics.T_end / numerics.dt"),
        ("vintage-dde", {"m": 4, "T_end": 1.5},
         "numerics.T_end / (params.T / numerics.m)"),
    ])
    def test_horizon_below_four_steps_exits_2(self, tmp_path, capsys, model,
                                              numerics, keys):
        # the transversality fit runs over the last quartile of the run's
        # times; below 4 steps that is one time, and no slope
        cfg = default_config(model)
        cfg["numerics"].update(numerics)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 2
        assert keys in capsys.readouterr().err

    def test_four_step_horizon_gets_a_slope(self, tmp_path):
        cfg = default_config("spatial-growth")
        cfg["numerics"].update(n=32, dt=1.0, T_end=4.0)
        path = tmp_path / "four.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code in (0, 3)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["transversality_slope"] < 0.0

    def test_seeded_reports_byte_identical(self, tmp_path):
        outs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert run_cli(["verify", "--model", "time-to-build",
                            "--out", str(out), "--seed", "11"]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestOracle:
    def test_rejects_parabolic_models(self, tmp_path, capsys):
        code = run_cli(["oracle", "--model", "pollution",
                        "--out", str(tmp_path)])
        assert code == 2

    def test_model_without_oracle_builds_nothing(self, tmp_path):
        # rejected before any scenario is built: no eigenpair, no scipy
        script = (
            "import sys\n"
            "from hjbkit import cli\n"
            "assert cli.main(['oracle', '--model', 'spatial-growth', "
            "'--out', sys.argv[1]]) == 2\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert not loaded, loaded[:5]\n")
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_bad_full_resolution_m_exits_2(self, tmp_path, capsys):
        # the oracle runs on a coarse rebuild, which would hide a bad m
        cfg = default_config("vintage-dde")
        cfg["numerics"]["m"] = 2
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["oracle", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 2
        assert "m >= 4" in capsys.readouterr().err

    def test_vintage_bracket(self, tmp_path):
        code = run_cli(["oracle", "--model", "vintage-dde",
                        "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert data["contained"] is True
        assert data["bracket_lo"] <= data["analytic_value"] \
            <= data["bracket_hi"] * 1.03

    def test_horizon_past_the_step_cap_exits_2(self, tmp_path, capsys,
                                               monkeypatch):
        # 5 / rho at sigma 0.99 is 1,000 steps of T / 8: the solve would
        # take O(n^3) time, so it is refused before the seed rollout
        import hjbkit.scenarios as scenarios

        def no_run(*args, **kwargs):
            raise AssertionError("the oracle rolled out or solved")

        monkeypatch.setattr(scenarios, "_rollout", no_run)
        monkeypatch.setattr(scenarios, "brute_force_value", no_run)
        cfg = default_config("vintage-dde")
        cfg["params"].update(sigma=0.99, rho=0.02)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli(["oracle", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "params.rho" in err and "params.T" in err
        assert f"1000 steps, more than its {scenarios.ORACLE_MAX_STEPS}" in err
        assert not (out / "oracle.json").exists()

    def test_zero_step_horizon_exits_2(self, tmp_path, capsys, monkeypatch):
        # 5 / rho at rho 1 in steps of T / 8 = 12.5 rounds to no step at
        # all: refused before the seed rollout, as a horizon past the cap
        import hjbkit.scenarios as scenarios

        def no_run(*args, **kwargs):
            raise AssertionError("the oracle rolled out or solved")

        monkeypatch.setattr(scenarios, "_rollout", no_run)
        monkeypatch.setattr(scenarios, "brute_force_value", no_run)
        cfg = default_config("vintage-dde")
        cfg["params"].update(T=100.0, rho=1.0)
        path = tmp_path / "short.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli(["oracle", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "params.rho" in err and "params.T" in err
        assert "0 steps, fewer than 1" in err
        assert not (out / "oracle.json").exists()

    @pytest.mark.parametrize("model, sigma", [("vintage-dde", 1.5),
                                              ("vintage-dde", 2.0),
                                              ("time-to-build", 1.5)])
    def test_sigma_above_one_exits_2_before_the_sweep(self, tmp_path, capsys,
                                                      monkeypatch, model,
                                                      sigma):
        # the payoff tail bound holds for sigma < 1 only; the model itself
        # is valid there, so the refusal is the oracle's, made up front
        import hjbkit.scenarios as scenarios

        def no_sweep(*args, **kwargs):
            raise AssertionError("the DP sweep ran")

        monkeypatch.setattr(scenarios, "brute_force_value", no_sweep)
        cfg = default_config(model)
        cfg["params"]["sigma"] = sigma
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        code = run_cli(["oracle", "--config", str(path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "sigma < 1" in err and f"sigma = {sigma}" in err
        assert not (out / "oracle.json").exists()

    @pytest.mark.parametrize("model, initial", [
        ("time-to-build", {"q0": 1e300}),
        *[("vintage-dde", {"iota0": {"type": "constant", "value": v}})
          for v in (1e300, 1e150, 1e-150, 1e-300)],
        *[("time-to-build",
           {"q0": v, "u0": {"type": "constant", "value": v}})
          for v in (1e300, 1e150, 1e-150, 1e-300)]],
        ids=["time-to-build-q0-1e300",
             *[f"{m}-{v}" for m in ("vintage-dde", "time-to-build")
               for v in ("1e300", "1e150", "1e-150", "1e-300")]])
    def test_a_start_of_any_scale_gets_a_bracket(self, tmp_path, model,
                                                 initial):
        # the solve runs from the start over a power of two near its
        # Gamma; from the start itself it overflowed or went singular
        cfg = default_config(model)
        cfg["initial"].update(initial)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["oracle", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert data["contained"] is True
        assert data["bracket_lo"] <= data["analytic_value"] \
            <= data["bracket_hi"]

    def test_bracket_is_homogeneous_in_the_start(self):
        # v(s x) = s^(1 - sigma) v(x): a start 2^40 times the default one
        # at sigma 0.5 gets 2^20 times its bracket
        from hjbkit.scenarios import oracle_scenario
        cfg = default_config("time-to-build")
        base, value = oracle_scenario(cfg)
        cfg["initial"] = {"q0": 2.0 ** 40,
                          "u0": {"type": "constant", "value": 2.0 ** 40}}
        scaled, scaled_value = oracle_scenario(cfg)
        for got, want in ((scaled.lo, base.lo), (scaled.hi, base.hi),
                          (scaled_value, value)):
            assert got == pytest.approx(2.0 ** 20 * want, rel=1e-12)
        assert np.allclose(scaled.controls, 2.0 ** 40 * base.controls,
                           rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dt, code", [(1.0, 3), (0.5, 0)])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_crank_nicolson_step_past_positive_definiteness_exits_3(
        tmp_path, capsys, command, dt, code):
    # A = 3 puts the top eigenvalue of L near 3.  At dt = 1 the implicit
    # side I - dt/2 L is indefinite, and the CN factor of the top mode
    # negative: that step is refused by name, not left to flip the state
    # out of the domain.  dt = 0.5 keeps dt * lambda_max(L) < 2
    cfg = default_config("spatial-growth")
    cfg["params"].update(A={"type": "constant", "value": 3.0},
                         N={"type": "constant", "value": 1.0},
                         sigma=2.0, rho=0.05)
    cfg["numerics"] = {"n": 64, "dt": dt, "T_end": 10.0}
    path = tmp_path / "cn.json"
    path.write_text(json.dumps(cfg))
    assert run_cli([command, "--config", str(path),
                    "--out", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    if code:
        assert ("numerics failure: I - dt/2 L is not positive definite at "
                "dt = 1 (") in err
    assert "Traceback" not in err


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "hjbkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


LOADED_MODULES = """
import sys
from hjbkit import cli
assert cli.main(sys.argv[2:]) == 0
print(*sorted(m for m in sys.modules if m.startswith("hjbkit.")))
"""


@pytest.mark.parametrize("model, unloaded", [
    ("vintage-dde", ("spatial_growth", "pollution", "time_to_build",
                     "vintage_transport")),
    ("spatial-growth", ("delay", "vintage_dde", "time_to_build",
                        "vintage_transport")),
])
def test_a_command_loads_only_its_models_modules(tmp_path, model, unloaded):
    # the scenario builders import their model's module when they run, so
    # a fresh interpreter pays only for the model it is asked for
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, str(tmp_path), "run",
         "--model", model, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert f"hjbkit.{model.replace('-', '_')}" in loaded
    assert not loaded & {f"hjbkit.{name}" for name in unloaded}


COLD_START = """
import sys
import numpy as np
from hjbkit import cli
out = sys.argv[1]
for argv in (["run", "--model", "vintage-dde"],
             ["verify", "--model", "time-to-build", "--seed", "3"],
             ["verify", "--model", "vintage-transport", "--seed", "3"],
             ["oracle", "--model", "vintage-dde"]):
    assert cli.main(argv + ["--out", f"{out}/{argv[0]}-{argv[2]}"]) == 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (argv, loaded[:5])
for argv in (["run", "--model", "spatial-growth"],
             ["verify", "--model", "pollution", "--seed", "3"]):
    assert cli.main(argv + ["--out", f"{out}/{argv[0]}-{argv[2]}"]) == 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert "scipy.linalg" not in sys.modules, (argv, loaded[:5])
    assert "scipy.linalg._flapack" in sys.modules, (argv, loaded[:5])
import scipy.linalg.lapack
from hjbkit.gridcore import CyclicTridiagonal, lapack_pttr
dpttrf, dpttrs = lapack_pttr()
assert dpttrf is scipy.linalg.lapack.dpttrf
assert dpttrs is scipy.linalg.lapack.dpttrs
solver = CyclicTridiagonal(4.0 * np.ones(8), np.ones(8))
assert solver._pttrs is scipy.linalg.lapack.dpttrs
"""


def test_delay_and_age_commands_load_no_scipy(tmp_path):
    # scipy.linalg costs most of a cold start; only the circle models'
    # cyclic solve needs scipy, and it loads just the compiled LAPACK
    # module, when that solver is first built.  A later import of
    # scipy.linalg must reuse that module, so both call the same routines
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
