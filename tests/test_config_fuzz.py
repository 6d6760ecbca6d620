"""Mutated default configurations either build or fail with a named
configuration or assumption error, never with any other exception; and
``hjbkit run``/``verify``/``oracle`` on them exit with a documented code,
never with a traceback, and write only strict JSON (no NaN or Infinity).

A mutation drops a key, swaps a number for a string, a non-finite value,
zero or a negative, or swaps a profile for a non-object.  Grid resolutions
are only ever replaced from a small fixed set, so no example allocates a
large grid.  A deterministic sweep also scales each valid number of every
default configuration by 10^k, k in {-12, -6, 6, 12}, one at a time,
another scales every pair of them by 10^j and 10^k, j, k in {-6, 6}, and
a seeded one scales drawn triples of them.
"""

import contextlib
import io
import itertools
import json
import math
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hjbkit.cli import main
from hjbkit.errors import AssumptionError, ConfigError
from hjbkit.scenarios import MODELS, build_scenario, default_config

RESOLUTION_KEYS = ("n", "m", "m_age")
BAD_NUMBERS = ("abc", "1.0", math.nan, math.inf, -math.inf, 0, 0.0)
BAD_RESOLUTIONS = BAD_NUMBERS + (-8, 2, 3, 7, 16)
NOT_OBJECTS = (1.0, "constant", [1.0], None, True)


def _paths(config):
    """Key paths of every value inside the params/numerics/initial blocks,
    profile entries included."""
    out = []

    def walk(node, path):
        for key, val in node.items():
            out.append(path + (key,))
            if isinstance(val, dict):
                walk(val, path + (key,))

    for block in ("params", "numerics", "initial"):
        walk(config[block], (block,))
    return out


def _parent(config, path):
    node = config
    for key in path[:-1]:
        node = node[key]
    return node


@st.composite
def mutated_configs(draw, prepare=None, least=1):
    """A default configuration, passed through ``prepare`` (if given) and
    then mutated ``least`` to three times."""
    config = default_config(draw(st.sampled_from(MODELS)))
    if prepare is not None:
        prepare(config)
    for _ in range(draw(st.integers(least, 3))):
        paths = _paths(config)
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        node, key = _parent(config, path), path[-1]
        value = node[key]
        if draw(st.booleans()):
            del node[key]
        elif isinstance(value, dict):
            node[key] = draw(st.sampled_from(NOT_OBJECTS))
        elif key in RESOLUTION_KEYS:
            node[key] = draw(st.sampled_from(BAD_RESOLUTIONS))
        elif isinstance(value, (int, float)):
            node[key] = draw(st.one_of(
                st.sampled_from(BAD_NUMBERS),
                st.floats(1e-3, 1e3).map(lambda x: -x)))
        else:  # a profile's type name
            node[key] = draw(st.sampled_from(("bogus", 1.0)))
    return config


@given(config=mutated_configs())
@settings(max_examples=300, deadline=None)
def test_mutated_config_builds_or_raises_config_error(config):
    try:
        build_scenario(config)
    except (ConfigError, AssumptionError):
        pass


CHEAP_RESOLUTION = {"n": 32, "m": 16, "m_age": 16}


def _cheap(config):
    """A short horizon on small grids, so one command takes milliseconds."""
    num = config["numerics"]
    num["T_end"] = 1.0
    for key, size in CHEAP_RESOLUTION.items():
        if key in num:
            num[key] = size


def _assert_documented_exit(config, command, *flags):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path),
                         "--out", str(Path(tmp) / "out"), *flags])
        outputs = [out.read_text()
                   for out in (Path(tmp) / "out").glob("*.json")]
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    for text in outputs:
        json.loads(text, parse_constant=_reject_constant)


def _reject_constant(name):
    raise AssertionError(f"output holds {name}, which is not strict JSON")


@given(config=mutated_configs(prepare=_cheap),
       command=st.sampled_from(("run", "verify")))
@settings(max_examples=800, deadline=None)
def test_mutated_config_cli_exits_with_a_documented_code(config, command):
    _assert_documented_exit(config, command)


def _numeric_paths(config):
    """Key paths of every number in the params/initial blocks, profile
    entries included."""
    return [path for path in _paths(config) if path[0] != "numerics"
            and isinstance(_parent(config, path)[path[-1]], (int, float))]


EXTREME_CASES = [
    (model, path, k)
    for model in MODELS
    for path in _numeric_paths(default_config(model))
    for k in (-12, -6, 6, 12)
]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "model, path, k", EXTREME_CASES,
    ids=[f"{m}-{'.'.join(p)}-1e{k}" for m, p, k in EXTREME_CASES])
def test_extreme_valid_number_exits_with_a_documented_code(model, path, k,
                                                           command):
    # one finite number of a default config times 10^k, on small grids and
    # a short horizon: the command may pass or fail, but only with a
    # documented code, no traceback and strict JSON outputs
    config = default_config(model)
    _cheap(config)
    _parent(config, path)[path[-1]] *= 10.0 ** k
    _assert_documented_exit(config, command)


# every pair of numbers of a default config, each times 10^-6 or 10^6; and
# rows off that grid: a large spatial sigma with a small start, whose value
# (x0 1.4e-5), payoff (1e-6) or probe payoff (2e-5) leaves the float range
SIGMA, X0 = ("params", "sigma"), ("initial", "x0", "value")
PAIR_CASES = [
    (model, first, 10.0 ** j, second, 10.0 ** k)
    for model in MODELS
    for first, second in itertools.combinations(
        _numeric_paths(default_config(model)), 2)
    for j in (-6, 6)
    for k in (-6, 6)
] + [("spatial-growth", SIGMA, 100.0, X0, x0) for x0 in (1e-6, 1.4e-5, 2e-5)]


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "model, first, a, second, b", PAIR_CASES,
    ids=[f"{m}-{'.'.join(p)}-x{a:g}-{'.'.join(q)}-x{b:g}"
         for m, p, a, q, b in PAIR_CASES])
def test_extreme_valid_pair_exits_with_a_documented_code(model, first, a,
                                                         second, b, command):
    # two finite numbers of a default config scaled together, on small
    # grids and a short horizon: a documented code, no traceback and
    # strict JSON outputs, as for one number
    config = default_config(model)
    _cheap(config)
    _parent(config, first)[first[-1]] *= a
    _parent(config, second)[second[-1]] *= b
    _assert_documented_exit(config, command)


# three numbers of a default config scaled together, each by 10^k with k
# in {-12, -6, -3, 3, 6, 12}: seeded draws, and rows off them that the
# draws need not reach, where the delay core's closed loop (iota0 1e-12)
# or residual study (iota0 1e6; time-to-build's price p underflowing)
# left the float range
THREE_KEY_SEED, THREE_KEY_DRAWS = 0, 25
IOTA0, U0 = ("initial", "iota0", "value"), ("initial", "u0", "value")
RHO, A = ("params", "rho"), ("params", "A")


def _three_key_cases():
    rng = random.Random(THREE_KEY_SEED)
    cases = []
    for model in MODELS:
        paths = _numeric_paths(default_config(model))
        for _ in range(THREE_KEY_DRAWS):
            cases.append((model, tuple(
                (path, 10.0 ** rng.choice((-12, -6, -3, 3, 6, 12)))
                for path in rng.sample(paths, 3))))
    return cases + [
        ("vintage-dde", ((SIGMA, 1e3), (RHO, 1e-3), (IOTA0, 1e-12))),
        ("vintage-dde", ((SIGMA, 1e3), (RHO, 1e-3), (IOTA0, 1e6))),
        ("time-to-build", ((A, 1e3), (SIGMA, 1e6), (U0, 1e-12))),
    ]


THREE_KEY_CASES = _three_key_cases()


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize(
    "model, scales", THREE_KEY_CASES,
    ids=[f"{m}-" + "-".join(f"{'.'.join(p)}-x{a:g}" for p, a in scales)
         for m, scales in THREE_KEY_CASES])
def test_extreme_valid_triple_exits_with_a_documented_code(model, scales,
                                                           command):
    config = default_config(model)
    _cheap(config)
    for path, factor in scales:
        _parent(config, path)[path[-1]] *= factor
    _assert_documented_exit(config, command)


# the oracle's coarse grid and horizon come from the model, not from the
# config's resolution and T_end.  Unmutated configs are drawn too: they
# exit 0 for the two delay models and 2 for the three without an oracle
@given(config=mutated_configs(prepare=_cheap, least=0))
@settings(max_examples=200, deadline=None)
def test_mutated_config_oracle_exits_with_a_documented_code(config):
    _assert_documented_exit(config, "oracle")
