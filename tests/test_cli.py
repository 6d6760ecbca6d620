import json
import subprocess
import sys

import pytest

from hjbkit.cli import main
from hjbkit.errors import ConfigError
from hjbkit.scenarios import default_config, refine_config, validate_config


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

    def test_refine_scales_numerics(self):
        cfg = validate_config(default_config("spatial-growth"))
        fine = refine_config(cfg, 2)
        assert fine["numerics"]["n"] == 4 * cfg["numerics"]["n"]
        assert fine["numerics"]["dt"] == cfg["numerics"]["dt"] / 4


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
