import json
import subprocess
import sys

import pytest

from hjbkit.cli import main
from hjbkit.errors import ConfigError
from hjbkit.scenarios import (MODELS, default_config, refine_config,
                              validate_config)


def run_cli(args):
    return main(list(args))


class TestConfigValidation:
    def test_defaults_validate(self):
        for model in ("spatial-growth", "pollution", "vintage-dde",
                      "vintage-transport", "time-to-build"):
            cfg = validate_config(default_config(model))
            assert cfg["model"] == model
            assert "tolerances" in cfg

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


BAD_INPUTS = [
    ("vintage-dde", "params", "sigma", 1.0, "sigma"),
    ("spatial-growth", "numerics", "n", 4, "n >= 8"),
    ("vintage-dde", "numerics", "m", 2, "m >= 4"),
    ("vintage-transport", "params", "mu", -0.1, "mu"),
    ("spatial-growth", "numerics", "dt", -0.01, "numerics.dt"),
    ("vintage-dde", "params", "rho", "abc", "params.rho"),
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


@pytest.mark.parametrize("content", ['{"model": "vintage-dde", "params"',
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
    (["oracle", "--model", "vintage-dde", "--levels", "0"], "--levels"),
    (["oracle", "--model", "vintage-dde", "--budget", "-1"], "--budget"),
])
def test_out_of_range_integer_flag_exits_2(tmp_path, capsys, argv, flag):
    # a negative seed used to raise inside numpy, a negative refine
    # silently coarsened the grid, zero levels silently ran one and a
    # negative budget read as a tolerance failure (exit 3)
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--model", "spatial-growth", "--refine", "40"],
    ["verify", "--model", "time-to-build", "--refine", "40"],
    ["oracle", "--model", "vintage-dde", "--refine", "1000000000"],
])
def test_refinement_past_work_budget_exits_2(tmp_path, capsys, argv):
    # 2**40 times the default grid used to be allocated as asked
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "work budget" in err and "numerics." in err
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


class TestVerify:
    def test_vintage_report(self, tmp_path):
        code = run_cli(["verify", "--model", "vintage-dde",
                        "--out", str(tmp_path), "--seed", "1"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert report["residual_max"] < 1e-5
        assert report["residual_refined_max"] < 0.5 * report["residual_max"]

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

    def test_no_interior_test_state_exits_2(self, tmp_path, capsys):
        # the start state is interior, but no residual test state in the
        # sampling box is
        cfg = default_config("time-to-build")
        cfg["params"]["rho"] = 0.25
        cfg["initial"]["q0"] = 20.0
        path = tmp_path / "q20.json"
        path.write_text(json.dumps(cfg))
        code = run_cli(["verify", "--config", str(path),
                        "--out", str(tmp_path)])
        assert code == 2
        assert "interior bound" in capsys.readouterr().err

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

    def test_single_level_equals_seed_policy(self, tmp_path):
        code = run_cli(["oracle", "--model", "vintage-dde",
                        "--out", str(tmp_path), "--levels", "1"])
        data = json.loads((tmp_path / "oracle.json").read_text())
        # one control level: the bracket's low edge is the feedback payoff
        assert code == 0
        assert data["passes"] >= 1

    def test_budget_exceeded_flags_partial_report(self, tmp_path, capsys):
        code = run_cli(["oracle", "--model", "vintage-dde",
                        "--out", str(tmp_path), "--budget", "50"])
        assert code == 3
        data = json.loads((tmp_path / "oracle.json").read_text())
        assert data["partial"] is True


def test_console_entry_point_help():
    proc = subprocess.run([sys.executable, "-m", "hjbkit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "verify" in proc.stdout


COLD_START = """
import sys
from hjbkit import cli
out = sys.argv[1]
for argv in (["run", "--model", "vintage-dde"],
             ["verify", "--model", "time-to-build", "--seed", "3"],
             ["verify", "--model", "vintage-transport", "--seed", "3"]):
    assert cli.main(argv + ["--out", f"{out}/{argv[0]}-{argv[2]}"]) == 0
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (argv, loaded[:5])
from hjbkit.scenarios import build_scenario, default_config
build_scenario(default_config("spatial-growth"))
assert "scipy.linalg" in sys.modules
"""


def test_delay_and_age_commands_load_no_scipy(tmp_path):
    # scipy costs most of a cold start; only the circle models' cyclic
    # solve needs it, and it is imported when that solver is first built
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
