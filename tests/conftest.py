"""Fixtures shared by several test modules."""

import json
import time

import pytest

from hjbkit.cli import main


@pytest.fixture(scope="session")
def ttb_oracle(tmp_path_factory):
    """``hjbkit oracle --model time-to-build``, run once for the whole
    test run (several tests read it, and its 200-step Newton solve is the
    oracle's largest default): its exit code, its oracle.json and the wall
    time of the whole command."""
    out = tmp_path_factory.mktemp("ttb-oracle")
    start = time.time()
    code = main(["oracle", "--model", "time-to-build", "--out", str(out)])
    elapsed = time.time() - start
    return code, json.loads((out / "oracle.json").read_text()), elapsed
