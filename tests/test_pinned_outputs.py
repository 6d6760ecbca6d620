"""Default outputs pinned to their recorded values.

Criterion 10 only compares a run with a second run of the same code; these
numbers catch a change that moves the outputs themselves.  Floats must
agree to 1e-12 relative, counts exactly.
"""

import csv
import json

import pytest

from hjbkit.cli import main
from hjbkit.errors import DomainExitError
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.spatial_growth import simulate_spatial

RUN_SUMMARY = {
    "spatial-growth": {"analytic_value": 51.32466570341572,
                       "simulated_payoff": 46.65983307648005,
                       "discounted_tail": 4.664833418511979,
                       "value_gap": 1.5422921926619405e-08},
    "pollution": {"analytic_value": 20.308391166124757,
                  "simulated_payoff": 18.61197379274702,
                  "discounted_tail": 1.6964128042799718,
                  "value_gap": 2.2498570800869564e-07},
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


# the circle runs' figures as recorded when each cyclic system was factored
# as a general tridiagonal matrix (LAPACK gttrf): the symmetric positive
# definite factorization (pttrf) may move them by rounding, no further
GENERAL_FACTOR_FIGURES = {
    "spatial-growth": {"analytic_value": 51.324665703404136,
                       "simulated_payoff": 46.659833076482215,
                       "discounted_tail": 4.664833418508301,
                       "lambda0": 0.040050000322427774,
                       "alpha0": 262.73213223197087,
                       "growth_rate": -0.019899999355144457},
    "pollution": {"analytic_value": 20.308391166124707,
                  "simulated_payoff": 18.611973792746628,
                  "discounted_tail": 1.6964128042799675,
                  "q_const": 62.17177289641897,
                  "alpha_shadow_mean": 6.6627641369192725},
}


@pytest.mark.parametrize("model", sorted(GENERAL_FACTOR_FIGURES))
def test_circle_figures_match_the_general_factorization(tmp_path, model):
    assert main(["run", "--model", model, "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary.update(summary.pop("derived"))
    for key, want in GENERAL_FACTOR_FIGURES[model].items():
        assert summary[key] == pytest.approx(want, rel=1e-11, abs=0.0), key


# rows of each default run's trajectory.csv: the first, the two across the
# first edge of 64 rows, and the last (data rows, counted from 0)
TRAJECTORY_ROWS = {
    "spatial-growth": (
        ["t", "total_capital", "beta_pairing", "min_capital",
         "total_consumption", "running_payoff"],
        {0: [0.0, 6.283185307179586, 658.5553273918443, 1.0,
             0.3767146280866322, 0.0],
         63: [0.63, 6.204716236850709, 650.3481138273073, 0.982256181323085,
              0.3720198404552924, 1.902398806528013],
         64: [0.64, 6.203479338753433, 650.2186686354493, 0.9819995791924174,
              0.37194579368157404, 1.9320200500819433],
         4000: [40.0, 2.833687451953362, 297.02309259671773,
                0.4456283163812449, 0.1699066717808766, 46.65983307648005]}),
    "pollution": (
        ["t", "total_pollution", "min_pollution", "max_pollution",
         "total_emission", "running_payoff"],
        {0: [0.0, 6.283185307179586, 0.5, 1.5, 0.4215830112930008, 0.0],
         63: [1.26, 6.038422248478411, 0.8255624311396509, 1.0800100377553647,
              0.4215830112930008, -0.2911765892186543],
         64: [1.28, 6.034780029289564, 0.8278859445114365, 1.076864191380911,
              0.4215830112930008, -0.2933484304542442],
         3000: [60.0, 4.217055918607445, 0.6647258569830973,
                0.6773438794688041, 0.4215830112930008, 18.611973792746628]}),
    "vintage-dde": (
        ["t", "capital", "investment", "gamma0", "running_payoff"],
        {0: [0.0, 1.9999999999999996, 1.8706143350923927, 0.999110217730903,
             0.0],
         63: [0.63, 2.7384125488381525, 2.538120780545147, 1.5466441002991176,
              0.4388066073835403],
         64: [0.64, 2.7538637283417833, 2.552177879662386, 1.5574091268523225,
              0.44554435962501476],
         2000: [20.0, 1814639.280169034, 1677705.2592143728,
                1057398.4012882267, 6.086267679846628]}),
    "vintage-transport": (
        ["t", "total_capital", "min_capital", "boundary_investment",
         "running_payoff"],
        {0: [0.0, 0.30000000000000004, 0.0, 0.6279555916010717, 0.0],
         63: [0.63, 0.9411190633686373, 0.10283154363774524,
              0.6279555916010717, -0.029817288242093985],
         64: [0.64, 0.9502966060092404, 0.10485082271633094,
              0.6279555916010717, -0.02847523835840289],
         1000: [10.0, 1.79441304241483, 0.6279555916010717,
                0.6279555916010717, 2.583253134283505]}),
    "time-to-build": (
        ["t", "output", "control", "gamma", "consumption", "running_payoff"],
        {0: [0.0, 1.0, 0.12665951979372636, 1.2666141377499496,
             0.7485775544625203, 0.0],
         63: [0.315, 1.0945000000000036, 0.20070049506133592,
              1.2962858427456196, 0.7661138613760009, 0.5738707483165895],
         64: [0.32, 1.0960000000000036, 0.20187191619277722,
              1.2967623837744562, 0.7663955004061941, 0.5827439897402603],
         4000: [20.0, 5.159999188396038, 1.360829537382389, 5.509971538978772,
                3.256431129440271, 11.012021754346224]}),
}


@pytest.mark.parametrize("model", sorted(TRAJECTORY_ROWS))
def test_default_trajectory_csv_rows(tmp_path, model):
    assert main(["run", "--model", model, "--out", str(tmp_path)]) == 0
    with (tmp_path / "trajectory.csv").open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    names, pinned = TRAJECTORY_ROWS[model]
    assert header == names
    assert len(rows) == max(pinned) + 1
    for k, want in pinned.items():
        got = [float(v) for v in rows[k]]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), k


# verify --seed 3: the three closed-loop rollouts per circle model (value
# match, suboptimal probe, transversality) all run Crank-Nicolson
VERIFY_REPORT = {
    "spatial-growth": {"residual_max": 3.0476561833969487e-07,
                       "value_match_gap": 1.5422921926619405e-08,
                       "suboptimal_margin": 0.047729467496515646,
                       "transversality_slope": -0.05995298311698964},
    "pollution": {"residual_max": 8.130990384746412e-08,
                  "value_match_gap": 2.2498570800869564e-07,
                  "suboptimal_margin": 0.234184062719361,
                  "transversality_slope": -0.049773021247187854},
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
