"""Default outputs pinned to their recorded values.

Criterion 10 only compares a run with a second run of the same code; these
numbers catch a change that moves the outputs themselves.  Floats must
agree to 1e-12 relative, counts exactly.
"""

import json

import pytest

from hjbkit.cli import main
from hjbkit.errors import DomainExitError
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.spatial_growth import simulate_spatial

RUN_SUMMARY = {
    "spatial-growth": {"analytic_value": 51.324665703404136,
                       "simulated_payoff": 46.659833076482215,
                       "discounted_tail": 4.664833418508301,
                       "value_gap": 1.542311809722483e-08},
    "pollution": {"analytic_value": 20.308391166124707,
                  "simulated_payoff": 18.611973792746628,
                  "discounted_tail": 1.6964128042799675,
                  "value_gap": 2.2498572497770293e-07},
    "vintage-transport": {"analytic_value": 6.175614497187364,
                          "simulated_payoff": 2.583253134283505,
                          "discounted_tail": 3.5908175796451403,
                          "value_gap": 2.499805095383093e-4},
    "vintage-dde": {"analytic_value": 6.974877017846093,
                    "simulated_payoff": 6.086267679846627,
                    "discounted_tail": 0.8851292464863295,
                    "value_gap": 4.989466486981895e-4},
    "time-to-build": {"analytic_value": 11.451737065981455,
                      "simulated_payoff": 11.012021754346224,
                      "discounted_tail": 0.4373784188904964,
                      "value_gap": 2.0406447784036838e-4},
}


@pytest.mark.parametrize("model", sorted(RUN_SUMMARY))
def test_default_run_summary(tmp_path, model):
    assert main(["run", "--model", model, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    for key, want in RUN_SUMMARY[model].items():
        assert summary[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


# verify --seed 3: the three closed-loop rollouts per circle model (value
# match, suboptimal probe, transversality) all run Crank-Nicolson
VERIFY_REPORT = {
    "spatial-growth": {"residual_max": 3.0476551495464385e-07,
                       "value_match_gap": 1.542311809722483e-08,
                       "suboptimal_margin": 0.04772946749628844,
                       "transversality_slope": -0.05995298311700353},
    "pollution": {"residual_max": 8.130933226786225e-08,
                  "value_match_gap": 2.2498572497770293e-07,
                  "suboptimal_margin": 0.2341840627193566,
                  "transversality_slope": -0.049773021247187556},
}


# verify --seed 3 for the delay and age models: the same three rollouts
# per model, on the delay and transport handles
DELAY_VERIFY_REPORT = {
    "vintage-dde": {"residual_max": 2.208023408501992e-06,
                    "value_match_gap": 0.0005293368404672555,
                    "suboptimal_margin": 0.38122996017994154,
                    "transversality_slope": -0.1031947860073305},
    "vintage-transport": {"residual_max": 7.960212164013589e-07,
                          "value_match_gap": 0.0002499805095383093,
                          "suboptimal_margin": 0.11035857093309065,
                          "transversality_slope": -0.05999999999999994},
    "time-to-build": {"residual_max": 1.2902513854498395e-08,
                      "value_match_gap": 2.1935155770091185e-07,
                      "suboptimal_margin": 0.015269978993677538,
                      "transversality_slope": -0.16324468911355045},
}


def _assert_verify_report(tmp_path, model, figures):
    assert main(["verify", "--model", model, "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for key, want in figures.items():
        assert report[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


@pytest.mark.parametrize("model", sorted(VERIFY_REPORT))
def test_circle_verify_report(tmp_path, model):
    _assert_verify_report(tmp_path, model, VERIFY_REPORT[model])


@pytest.mark.parametrize("model", sorted(DELAY_VERIFY_REPORT))
def test_delay_and_age_verify_report(tmp_path, model):
    _assert_verify_report(tmp_path, model, DELAY_VERIFY_REPORT[model])


@pytest.mark.parametrize("model", ["spatial-growth", "pollution",
                                   "vintage-transport"])
def test_run_and_verify_share_the_rollout(tmp_path, model):
    # run's trajectory and verify's value match are one closed-loop run
    runs, verifies = tmp_path / "run", tmp_path / "verify"
    assert main(["run", "--model", model, "--out", str(runs)]) == 0
    assert main(["verify", "--model", model, "--out", str(verifies)]) == 0
    summary = json.loads((runs / "summary.json").read_text())
    report = json.loads((verifies / "report.json").read_text())
    assert summary["value_gap"] == report["value_match_gap"]


def test_spatial_domain_exit_diagnostics():
    # at dt = 20 the Crank-Nicolson run drives <y, beta> through zero
    sc = build_scenario(default_config("spatial-growth"))
    with pytest.raises(DomainExitError) as err:
        simulate_spatial(sc.spec, sc.state0, 800.0, 20.0)
    diag = err.value.diagnostics
    assert set(diag) == {"pairing", "min_state"}
    assert diag["pairing"] <= 0.0
    assert 0.0 < err.value.time < 800.0


def test_vintage_oracle_bracket(tmp_path):
    assert main(["oracle", "--model", "vintage-dde",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "oracle.json").read_text())
    assert data["bracket_lo"] == pytest.approx(5.578140847807475,
                                               rel=1e-12, abs=0.0)
    assert data["bracket_hi"] == pytest.approx(11.811834063591046,
                                               rel=1e-12, abs=0.0)
    assert 0.0 < data["duality_gap"] <= 1e-9 * abs(data["bracket_lo"])
    assert data["evaluations"] == 4136
    assert data["passes"] == 47


def test_ttb_oracle_bracket(ttb_oracle):
    # the one run of the command that the tests share (conftest.py)
    code, data, _ = ttb_oracle
    assert code == 0
    assert data["bracket_lo"] == pytest.approx(11.324743124764511,
                                               rel=1e-12, abs=0.0)
    assert data["bracket_hi"] == pytest.approx(11.561358053148862,
                                               rel=1e-12, abs=0.0)
    assert 0.0 < data["duality_gap"] <= 1e-9 * abs(data["bracket_lo"])
    assert data["evaluations"] == 81200
    assert data["passes"] == 66
