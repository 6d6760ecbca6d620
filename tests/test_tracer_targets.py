"""The benchmark's tracer wraps hjbkit functions by name; every name it
wraps must still exist, so that a refactor cannot silently break it."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from hjbkit import cli
from hjbkit.scenarios import (build_scenario, default_config, oracle_scenario,
                              verify_scenario)
from hjbkit.verify import value_match

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, name", tracer.SPAN_TARGETS)
def test_span_target_exists(module, name):
    assert callable(getattr(importlib.import_module(f"hjbkit.{module}"),
                            name, None))


@pytest.mark.parametrize("module", tracer.MODEL_MODULES)
def test_model_module_has_make_handle(module):
    assert callable(getattr(importlib.import_module(f"hjbkit.{module}"),
                            "make_handle", None))


@pytest.mark.parametrize("module, name", tracer.COUNTED_CLASSES)
def test_counted_class_has_post_init(module, name):
    cls = getattr(importlib.import_module(f"hjbkit.{module}"), name)
    assert callable(cls.__post_init__)


# model -> (module, suffix of its simulate_* and hjb_residual_*)
MODEL_NAMES = {"spatial-growth": ("spatial_growth", "spatial"),
               "pollution": ("pollution", "pollution"),
               "vintage-dde": ("vintage_dde", "vintage"),
               "vintage-transport": ("vintage_transport", "transport"),
               "time-to-build": ("time_to_build", "ttb")}


@pytest.mark.parametrize("model", sorted(MODEL_NAMES))
def test_scenario_calls_are_traced(model):
    # a scenario must reach its model's functions through the module at
    # call time; a function object captured at import would escape the
    # tracer's rebinding and read 0 calls
    cfg = default_config(model)
    cfg["numerics"]["T_end"] = 0.1
    trace = tracer.Tracer()
    trace.install()
    try:
        sc = build_scenario(cfg)
        sc.simulate()
        value_match(sc.handle, sc.state0, sc.T_end)
        (res,) = (v for k, v in cfg["numerics"].items()
                  if k in ("n", "m", "m_age"))
        sc.residual_fn(sc.sample_state(np.random.default_rng(0), res))
    finally:
        trace.uninstall()
    module, suffix = MODEL_NAMES[model]
    for span in (f"simulate_{suffix}", f"hjb_residual_{suffix}",
                 "handle.step"):
        assert trace.calls[f"{module}.{span}"] > 0, span


@pytest.mark.parametrize("model", ["spatial-growth", "pollution"])
def test_circle_steps_reach_cn_step(model):
    # the benchmark's coverage check counts one cn_step span per step; a
    # handle that bound the kernel (or its operator's method) at build
    # time would escape the tracer and read 0
    cfg = default_config(model)
    cfg["numerics"]["T_end"] = 0.2
    trace = tracer.Tracer()
    trace.install()
    try:
        sc = build_scenario(cfg)
        sc.simulate()
    finally:
        trace.uninstall()
    num = cfg["numerics"]
    assert trace.calls["gridcore.cn_step"] == round(num["T_end"] / num["dt"])


def _perfbench_constant(name):
    """A literal module constant of ``perfbench/run.py``, read without
    importing it: the import sets BLAS thread variables in this process."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    (value,) = (node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == name for t in node.targets))
    return ast.literal_eval(value)


@pytest.mark.parametrize("model", ["spatial-growth", "pollution"])
def test_verify_meets_perfbench_coverage_counts(model):
    # perfbench's coverage check expects ROLLOUTS["verify"] rollouts of
    # one cn_step per step, and one simulate_* call, per circle verify
    rollouts = _perfbench_constant("ROLLOUTS")["verify"]
    simulate = _perfbench_constant("SIMULATE_OF")[model]
    cfg = default_config(model)
    cfg["numerics"]["T_end"] = 0.2
    trace = tracer.Tracer()
    trace.install()
    try:
        verify_scenario(cfg)
    finally:
        trace.uninstall()
    num = cfg["numerics"]
    steps = round(num["T_end"] / num["dt"])
    assert trace.calls["gridcore.cn_step"] == rollouts * steps
    module = MODEL_NAMES[model][0]
    assert trace.calls[f"{module}.{simulate}"] == 1


@pytest.mark.parametrize("model", ["spatial-growth", "pollution"])
def test_circle_field_count_does_not_grow_with_the_horizon(model):
    # the circle closed loop steps, steers and scores on node arrays, and
    # builds Fields only at its edges: twice the steps, the same count
    counts = []
    for T_end in (0.2, 0.4):
        cfg = default_config(model)
        cfg["numerics"]["T_end"] = T_end
        trace = tracer.Tracer()
        trace.install()
        try:
            verify_scenario(cfg)
        finally:
            trace.uninstall()
        counts.append(trace.counts["gridcore.Field"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("model", ["vintage-dde", "time-to-build"])
def test_delay_commands_meet_perfbench_coverage_counts(model, tmp_path):
    # perfbench's coverage check expects one simulate_* call per delay run
    # and verify, reached through the binding its tracer wraps: a command
    # that called delay.simulate directly would read 0.  verify rolls the
    # handle out twice (value match, suboptimal probe), one step per step
    # of the horizon
    simulate = _perfbench_constant("SIMULATE_OF")[model]
    module = MODEL_NAMES[model][0]
    cfg = default_config(model)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    steps = round(cfg["numerics"]["T_end"] / build_scenario(cfg).handle.dt)
    for command in ("run", "verify"):
        trace = tracer.Tracer()
        trace.install()
        try:
            code = cli.main([command, "--config", str(config),
                             "--out", str(tmp_path / command)])
        finally:
            trace.uninstall()
        assert code == 0
        assert trace.calls[f"{module}.{simulate}"] == 1
        if command == "verify":
            assert trace.calls[f"{module}.handle.step"] == 2 * steps


@pytest.mark.parametrize("model", ["vintage-dde", "time-to-build"])
def test_delay_history_count_does_not_grow_with_the_horizon(model):
    # the delay closed loops step, steer and score on state arrays, and
    # build HistorySegments only at their edges (the start history, its
    # lift, the residual test states): twice the steps, the same count
    counts = []
    for T_end in (0.2, 0.4):
        cfg = default_config(model)
        cfg["numerics"]["T_end"] = T_end
        trace = tracer.Tracer()
        trace.install()
        try:
            verify_scenario(cfg)
        finally:
            trace.uninstall()
        counts.append(trace.counts["gridcore.HistorySegment"])
    assert counts[0] == counts[1] > 0


def test_oracle_meets_perfbench_coverage_counts():
    # perfbench's coverage check matches the evaluations and passes its
    # tracer records from brute_force_value against those oracle.json
    # reports; a call that escaped the wrapper would read 0
    trace = tracer.Tracer()
    trace.install()
    try:
        bracket, _ = oracle_scenario(default_config("vintage-dde"))
    finally:
        trace.uninstall()
    assert trace.calls["verify.brute_force_value"] == 1
    assert (trace.oracle_evaluations, trace.oracle_passes) == (
        bracket.evaluations, bracket.passes)
