"""Default delay-model outputs pinned to their recorded values.

Criterion 10 only compares a run with a second run of the same code; these
numbers catch a change that moves the outputs themselves.  Floats must
agree to 1e-12 relative, counts exactly.
"""

import json

import pytest

from hjbkit.cli import main

RUN_SUMMARY = {
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


def test_vintage_oracle_bracket(tmp_path):
    assert main(["oracle", "--model", "vintage-dde",
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "oracle.json").read_text())
    assert data["bracket_lo"] == pytest.approx(5.572991502047283,
                                               rel=1e-12, abs=0.0)
    assert data["bracket_hi"] == pytest.approx(12.277416142834731,
                                               rel=1e-12, abs=0.0)
    assert data["evaluations"] == 511782
    assert data["passes"] == 12
