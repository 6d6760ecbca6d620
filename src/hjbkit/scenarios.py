"""Canonical scenarios: configuration schema, model wiring, verification.

A scenario configuration is a plain JSON-able dict with four blocks::

    {"model": <name>, "params": {...}, "numerics": {...}, "initial": {...}}

Coefficient profiles are structured descriptors (never raw arrays), so a
scenario can be rebuilt at any resolution -- which is what the refinement
studies and the reference-grid residuals need.  Everything here is shared
by the command-line front end and the acceptance tests.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import math
import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import AssumptionError, ConfigError, DomainError, NumericsError
from .gridcore import AgeGrid, CircleGrid, HistorySegment
from .verify import (ModelHandle, OracleBracket, VerifyReport,
                     brute_force_value, suboptimality_margin, transversality,
                     value_match, _rollout)

DEFAULT_TOLERANCES = {
    "residual": 1e-5,        # max relative HJB defect at criterion resolution
    "value_match": 5e-3,     # truncated payoff + tail vs analytic value
    "oracle_slack": 0.03,    # DP bracket containment slack
}

# resolution at which the HJB-residual criterion is evaluated
RESIDUAL_RESOLUTION = {
    "spatial-growth": 512, "pollution": 512, "vintage-transport": 512,
    "vintage-dde": 400, "time-to-build": 400,
}
REFERENCE_FACTOR = 4  # reference-grid refinement for the parabolic residuals


# ---------------------------------------------------------------------------
# profile descriptors

# Each profile type: its own keys beside "type", in read order, with their
# defaults (None: required); its values at the points s of [lo, hi], from
# the keys' numbers; and its range rules, {key: (what the key must be,
# test)}.  A harmonic has an integer wave number k, and a decreasing power
# is positive, else the profile does not fall to 0 at hi.
_PROFILES = {
    "constant": ({"value": None},
                 lambda s, lo, hi, value: np.full_like(s, value), {}),
    "harmonic": ({"mean": None, "cos": 0.0, "sin": 0.0, "k": 1},
                 lambda s, lo, hi, mean, cos, sin, k:
                 mean + cos * np.cos(int(k) * s) + sin * np.sin(int(k) * s),
                 {"k": ("an integer", lambda k: k == int(k))}),
    "exponential": ({"scale": None, "rate": None},
                    lambda s, lo, hi, scale, rate: scale * np.exp(rate * s),
                    {}),
    "linear": ({"start": None, "end": None},
               lambda s, lo, hi, start, end:
               start + (end - start) * (s - lo) / (hi - lo), {}),
    "power_decreasing": ({"start": None, "power": 1.0},
                         lambda s, lo, hi, start, power:
                         start * (1.0 - (s - lo) / (hi - lo)) ** power,
                         {"power": ("positive", lambda p: p > 0.0)}),
}


def _profile(desc: dict, domain: str, types: tuple, lo: float,
             hi: float) -> Callable:
    """The profile ``desc`` of one of ``types`` on [lo, hi], as a function
    of the points.  An unknown type or key, a missing key, a key that is
    no finite number or one that breaks its type's range rule is a
    ConfigError, checked in that order (the keys in read order)."""
    kind = desc.get("type")
    if kind not in types:
        raise ConfigError(f"unknown {domain} profile type {kind!r}")
    keys, formula, rules = _PROFILES[kind]
    unknown = set(desc) - {"type", *keys}
    if unknown:
        raise ConfigError(f"unknown keys in {kind!r} profile: "
                          f"{sorted(unknown)}")
    num = {}
    for key, default in keys.items():
        if key not in desc and default is None:
            raise ConfigError(f"{kind!r} profile is missing key {key!r}")
        num[key] = _finite(f"{kind!r} profile key {key!r}",
                           desc.get(key, default))
    for key, (what, holds) in rules.items():
        if not holds(num[key]):
            raise ConfigError(f"{kind!r} profile key {key!r} must be "
                              f"{what}, got {num[key]}")
    return lambda s: formula(np.asarray(s, dtype=float), lo, hi, **num)


def circle_profile(desc: dict) -> Callable:
    """Profile on the circle: constant or a single-harmonic perturbation
    of integer wave number ``k``."""
    return _profile(desc, "circle", ("constant", "harmonic"),
                    0.0, 2.0 * math.pi)


def interval_profile(desc: dict, lo: float, hi: float) -> Callable:
    """Profile on the interval [lo, hi] (lag or age coordinate); ``linear``
    runs from ``start`` at lo to ``end`` at hi, ``power_decreasing`` from
    ``start`` at lo down to 0 at hi."""
    return _profile(desc, "interval", ("constant", "exponential", "linear",
                                       "power_decreasing"), lo, hi)


# ---------------------------------------------------------------------------
# configuration schema

RESOLUTION_KEYS = ("n", "m", "m_age")  # grid sizes: the only integer keys

# The most steps x state size one closed-loop run may take, a time bound:
# about 100 times the largest default (spatial-growth, 4,000 steps of 256
# nodes).  A run keeps O(steps) scalars and one gridcore.BLOCK of states.
WORK_BUDGET = 1e8

# the lag or age span whose m cells set a delay model's step, dt = span/m
_STEP_SPAN = {"vintage-dde": "T", "time-to-build": "d",
              "vintage-transport": "sbar"}

# The canonical scenario of each model (the 'default spec' of the
# acceptance suite).  It is also the schema: a key's kind follows its
# default -- a dict is a profile descriptor, a RESOLUTION_KEYS entry an
# int, and anything else a float.
_DEFAULTS = {
    "spatial-growth": {
        "params": {"A": {"type": "harmonic", "mean": 0.04, "cos": 0.01},
                   "N": {"type": "constant", "value": 1.0},
                   "sigma": 0.5, "rho": 0.05},
        "numerics": {"n": 256, "dt": 0.01, "T_end": 40.0},
        "initial": {"x0": {"type": "constant", "value": 1.0}},
    },
    "pollution": {
        "params": {"sigma_diff": {"type": "harmonic", "mean": 1.0, "cos": 0.2},
                   "delta": {"type": "harmonic", "mean": 0.1, "sin": 0.02},
                   "eta": {"type": "harmonic", "mean": 0.5, "cos": 0.1},
                   "a": {"type": "harmonic", "mean": 2.5, "cos": 0.3},
                   "gamma": {"type": "harmonic", "mean": 0.5, "sin": 0.1},
                   "w": {"type": "harmonic", "mean": 1.0, "sin": 0.2},
                   "rho": 0.05},
        "numerics": {"n": 256, "dt": 0.02, "T_end": 60.0},
        "initial": {"p0": {"type": "harmonic", "mean": 1.0, "cos": 0.5}},
    },
    "vintage-dde": {
        "params": {"A": 1.0, "T": 2.0, "sigma": 0.5, "rho": 0.45},
        "numerics": {"m": 200, "T_end": 20.0},
        "initial": {"iota0": {"type": "constant", "value": 1.0}},
    },
    "vintage-transport": {
        "params": {"mu": 0.15, "rho": 0.06, "sbar": 2.0,
                   "alpha": {"type": "power_decreasing", "start": 1.0,
                             "power": 1.0},
                   "q0": 0.12, "beta0": 0.6,
                   "q1": {"type": "power_decreasing", "start": 0.1,
                          "power": 2.0},
                   "beta1": {"type": "constant", "value": 0.5}},
        "numerics": {"m_age": 200, "T_end": 10.0},
        "initial": {"z0": {"type": "power_decreasing", "start": 0.3,
                           "power": 1.0}},
    },
    "time-to-build": {
        "params": {"A": 0.35, "delta": 0.05, "d": 1.0, "sigma": 0.5,
                   "rho": 0.2},
        "numerics": {"m": 200, "T_end": 20.0},
        "initial": {"q0": 1.0, "u0": {"type": "constant", "value": 1.0}},
    },
}

MODELS = tuple(_DEFAULTS)


def default_config(model: str) -> dict:
    """A fresh copy of the canonical scenario for ``model``."""
    if model not in _DEFAULTS:
        raise ConfigError(f"unknown model {model!r}; choose one of {MODELS}")
    return {"model": model, **copy.deepcopy(_DEFAULTS[model])}


def validate_config(config: dict) -> dict:
    """Reject unknown keys, report missing ones, coerce numeric types."""
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown_top = set(config) - {"model", "params", "numerics", "initial",
                                 "tolerances"}
    if unknown_top:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown_top)}")
    model = config.get("model")
    if model not in _DEFAULTS:
        raise ConfigError(
            f"missing or unknown 'model' (got {model!r}); choose one of {MODELS}")
    out = {"model": model}
    for block, schema in _DEFAULTS[model].items():
        got = config.get(block)
        if got is None:
            raise ConfigError(f"missing required block {block!r}")
        if not isinstance(got, dict):
            raise ConfigError(f"block {block!r} must be an object")
        unknown = set(got) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys in {block!r}: {sorted(unknown)}")
        cleaned = {}
        for key, default in schema.items():
            if key not in got:
                raise ConfigError(f"missing required key {block}.{key}")
            val = got[key]
            if isinstance(default, dict):
                if not isinstance(val, dict):
                    raise ConfigError(f"{block}.{key} must be a profile object")
                cleaned[key] = dict(val)
            else:
                x = _finite(f"{block}.{key}", val)
                if key in RESOLUTION_KEYS:
                    if x != int(x):
                        raise ConfigError(f"{block}.{key} must be an "
                                          f"integer, got {val!r}")
                    x = int(x)
                cleaned[key] = x
            if key in ("dt", "T_end") and cleaned[key] <= 0.0:
                raise ConfigError(f"{block}.{key} must be positive, got {val}")
        out[block] = cleaned
    tol = dict(DEFAULT_TOLERANCES)
    extra = {} if config.get("tolerances") is None else config["tolerances"]
    if not isinstance(extra, dict):
        raise ConfigError("block 'tolerances' must be an object")
    unknown_tol = set(extra) - set(tol)
    if unknown_tol:
        raise ConfigError(f"unknown tolerance keys: {sorted(unknown_tol)}")
    for key, val in extra.items():
        tol[key] = _finite(f"tolerances.{key}", val)
        if tol[key] < 0.0:
            raise ConfigError(f"tolerances.{key} must be nonnegative, "
                              f"got {val!r}")
    out["tolerances"] = tol
    _check_work(out)
    return out


def _check_work(config: dict) -> None:
    """Reject a configuration whose closed loop takes more than
    WORK_BUDGET steps x state size, before any array is allocated.  A
    span or size the model itself rejects is left to the model."""
    num = config["numerics"]
    key = next(k for k in RESOLUTION_KEYS if k in num)
    if "dt" in num:  # the circle models: n nodes and a free step
        steps, size = num["T_end"] / num["dt"], num[key]
        keys = f"{_step_keys(config)} x numerics.{key}"
    else:            # dt = span / m and m + 1 samples
        span = config["params"][_STEP_SPAN[config["model"]]]
        if span <= 0.0:
            return
        steps, size = num["T_end"] * num[key] / span, num[key] + 1
        keys = f"{_step_keys(config)} x (numerics.{key} + 1)"
    work = max(steps, 1.0) * size
    if work > WORK_BUDGET:
        raise ConfigError(
            f"{keys} = {steps:.4g} steps x {size} = {work:.3g} exceeds the "
            f"work budget {WORK_BUDGET:.0e} of one run")


def _step_keys(config: dict) -> str:
    """The configuration keys that set a closed loop's step count."""
    num, span = config["numerics"], _STEP_SPAN.get(config["model"])
    if span is None:
        return "numerics.T_end / numerics.dt"
    key = next(k for k in RESOLUTION_KEYS if k in num)
    return f"numerics.T_end / (params.{span} / numerics.{key})"


def _finite(name: str, val) -> float:
    """``val``, a real number that is not a boolean, as a finite float, or a
    ConfigError naming ``name``: a string or a boolean is no number."""
    if isinstance(val, bool) or not isinstance(val, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {val!r}")
    if not abs(val) <= sys.float_info.max:  # NaN, and an int past the range
        raise ConfigError(f"{name} must be finite, got {val!r}")
    return float(val)


def refine_config(config: dict, k: int) -> dict:
    """Double the spatial resolution (and halve dt) k times.  Each
    doubling about quadruples the work, and the first one past the work
    budget is a ConfigError, so a large k ends after a few rounds."""
    out = {key: (dict(val) if isinstance(val, dict) else val)
           for key, val in config.items()}
    num = out["numerics"]
    for done in range(1, k + 1):
        for key in RESOLUTION_KEYS:
            if key in num:
                num[key] = int(num[key] * 2)
        if "dt" in num:
            num["dt"] = num["dt"] / 2
        try:
            _check_work(out)
        except ConfigError as exc:
            raise ConfigError(f"refinement {done} of {k}: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# model wiring

@dataclass
class Scenario:
    """One configured model instance with everything the front end needs."""

    name: str
    config: dict
    spec: object
    handle: ModelHandle
    state0: np.ndarray            # the array the closed loop runs on
    T_end: float
    simulate: Callable            # (columns=None) -> Trajectory
    sample_state: Callable        # (rng, resolution) -> state array
    residual_fn: Callable         # (state array) -> float, at its resolution
    derived: dict                 # derived analytic constants for reports
    state_columns: Callable       # (states, controls) -> {column: values}
    suboptimal_scale: float = 0.5    # feedback scaling for the probe control


def _smooth_positive_circle(rng, n: int):
    grid = CircleGrid(n)
    theta = grid.nodes
    c = rng.normal(size=5) * np.array([0.4, 0.3, 0.2, 0.1, 0.05])
    return np.exp(c[0] + c[1] * np.cos(theta) + c[2] * np.sin(theta)
                  + c[3] * np.cos(2 * theta) + c[4] * np.sin(2 * theta))


def _circle_parts(config, spec_at: Callable, key: str, residual: Callable,
                  nonzero: bool = False):
    """What both circle models share: the spec at ``numerics.n``, the
    checked node values ``initial.<key>``, and the Scenario fields spec,
    state0, the random-state sampler and the residual hook.  The hook
    takes the working spec and its REFERENCE_FACTOR-finer reference spec
    from the test state's own grid; ``spec_at`` runs once per
    resolution."""
    spec_at = functools.cache(_model_errors(config["model"])(spec_at))
    spec = spec_at(config["numerics"]["n"])
    x0 = spec.grid.from_function(circle_profile(config["initial"][key])).values
    _check_initial(key, x0, nonzero)

    def residual_fn(x):
        n = len(x)
        return residual(spec_at(n), x, spec_at(REFERENCE_FACTOR * n))

    return spec, x0, dict(spec=spec, state0=x0,
                          sample_state=_smooth_positive_circle,
                          residual_fn=residual_fn)


def _check_initial(key: str, values: np.ndarray, nonzero: bool = False):
    """Reject an initial profile ``initial.<key>`` with a negative or
    non-finite sample (or, with ``nonzero``, one that vanishes
    identically), which the simulator would refuse or carry into NaN."""
    if not np.isfinite(values).all() or values.min() < 0.0 \
            or (nonzero and not values.any()):
        raise ConfigError(
            f"initial.{key} must be finite and nonnegative"
            f"{' and not identically zero' if nonzero else ''}, "
            f"min = {values.min()}")


def _smooth_positive_interval(rng, nodes, scale=1.0):
    x = np.pi * (nodes - nodes[0]) / (nodes[-1] - nodes[0])
    c = rng.normal(size=4) * np.array([1.0, 0.6, 0.3, 0.15]) * 0.3
    return scale * np.exp(c[0] + c[1] * np.cos(x) + c[2] * np.sin(x)
                          + c[3] * np.cos(2 * x))


def _delay_test_state(model: delay.DelayModel, rng, m: int) -> np.ndarray:
    """A random state array on m intervals inside a delay model's domain: the
    tail c * reversed(window) of a smooth positive control window, whose
    share of Gamma is ``part``, and the head x0 = kappa*part / (theta*room
    - kappa) that makes consumption kappa*Gamma a share theta of its band
    room*x0.  theta is drawn at 10-90 % of the domain 0 < theta < 1, where
    theta > kappa/room if part > 0 and theta < kappa/room if part < 0.
    A state ``delay.feedback`` rejects, or an empty interval (head 0, no
    division), is an AssumptionError."""
    from . import delay
    window = _smooth_positive_interval(rng, np.linspace(-model.lag, 0.0, m + 1))
    x = np.concatenate(([0.0], model.c * window[::-1]))
    part = delay.gamma(x, model.xi, model.lag)
    edge = model.kappa / model.room
    lo, hi = (edge, 1.0) if part > 0.0 else (0.0, min(edge, 1.0))
    theta = lo + (hi - lo) * rng.uniform(0.1, 0.9)
    head = model.kappa * part / (theta * model.room - model.kappa) \
        if lo < hi else 0.0
    x[0] = head
    try:
        delay.feedback(model, x)
    except DomainError as exc:
        raise AssumptionError(f"no interior test state: {exc}") from None
    return x


@contextlib.contextmanager
def _model_errors(model: str):
    """A parameter the model rejects, at any resolution, as a ConfigError
    naming the model; a failed assumption stays an AssumptionError."""
    try:
        yield
    except (AssumptionError, ConfigError):
        raise
    except ValueError as exc:  # GridError is a ValueError too
        raise ConfigError(f"{model}: {exc}") from exc


def build_scenario(config: dict) -> Scenario:
    """Validate ``config`` and wire its model, under
    :func:`_model_errors`.  Each ``_build_*`` returns the Scenario fields
    that are particular to its model."""
    config = validate_config(config)
    model = config["model"]
    builder = {"spatial-growth": _build_spatial, "pollution": _build_pollution,
               "vintage-dde": _build_vintage, "time-to-build": _build_ttb,
               "vintage-transport": _build_transport}[model]
    with _model_errors(model):
        parts = builder(config)
    return Scenario(name=model, config=config,
                    T_end=config["numerics"]["T_end"], **parts)


def _build_spatial(config):
    from . import spatial_growth
    p, num = config["params"], config["numerics"]
    A_fn, N_fn = circle_profile(p["A"]), circle_profile(p["N"])

    def spec_at(n):
        g = CircleGrid(n)
        return spatial_growth.build_spatial_spec(
            g.from_function(A_fn), g.from_function(N_fn), p["sigma"], p["rho"])

    spec, x0, shared = _circle_parts(config, spec_at, "x0",
                                     spatial_growth.hjb_residual_spatial,
                                     nonzero=True)

    def columns(states, controls):
        X, C, h = np.array(states), np.array(controls), spec.grid.h
        return {
            "total_capital": h * X.sum(axis=1),
            "beta_pairing": h * (X * spec.beta).sum(axis=1),
            "min_capital": X.min(axis=1),
            "total_consumption": h * (C * spec.N_pop).sum(axis=1),
        }

    return dict(
        shared, handle=spatial_growth.make_handle(spec, num["dt"]),
        simulate=lambda columns=None: spatial_growth.simulate_spatial(
            spec, x0, num["T_end"], num["dt"], columns),
        derived={"lambda0": spec.eigen.lambda0, "alpha0": spec.alpha0,
                 "growth_rate": spec.growth_rate},
        state_columns=columns,
    )


def _build_pollution(config):
    from . import pollution
    p, num = config["params"], config["numerics"]
    fns = {key: circle_profile(p[key])
           for key in ("sigma_diff", "delta", "eta", "a", "gamma", "w")}

    def spec_at(n):
        g = CircleGrid(n)
        fields = {key: g.from_function(fn) for key, fn in fns.items()}
        eta = fields["eta"].values
        if eta.min() <= 0.0:
            # eta*alpha = 0 leaves the pointwise investment problem
            # without an interior maximizer
            raise ConfigError(f"params.eta must be positive, min = {eta.min()}")
        return pollution.build_pollution_spec(*fields.values(), p["rho"])

    spec, p0, shared = _circle_parts(config, spec_at, "p0",
                                     pollution.hjb_residual_pollution)

    def columns(states, controls):
        X, C, h = np.array(states), np.array(controls), spec.grid.h
        return {
            "total_pollution": h * X.sum(axis=1),
            "min_pollution": X.min(axis=1),
            "max_pollution": X.max(axis=1),
            "total_emission": h * (C * spec.eta).sum(axis=1),
        }

    return dict(
        shared, handle=pollution.make_handle(spec, num["dt"]),
        simulate=lambda columns=None: pollution.simulate_pollution(
            spec, p0, num["T_end"], num["dt"], columns),
        derived={"q_const": spec.q_const,
                 "alpha_shadow_mean": spec.grid.quad(spec.alpha_shadow)
                 / (2.0 * math.pi)},
        state_columns=columns,
    )


def _build_vintage(config):
    from . import delay, vintage_dde
    p, num, init = config["params"], config["numerics"], config["initial"]
    spec = vintage_dde.build_vintage_spec(p["A"], p["T"], p["sigma"], p["rho"])
    iota_fn = interval_profile(init["iota0"], -p["T"], 0.0)
    iota0 = HistorySegment.from_function(p["T"], num["m"], iota_fn)
    _check_initial("iota0", iota0.values, nonzero=True)

    def columns(states, controls):
        return {
            "capital": [x.item(0) for x in states],
            "investment": controls,
            "gamma0": [delay.gamma(x, spec.xi, spec.T_scrap)
                       for x in states],
        }

    return dict(
        spec=spec, handle=vintage_dde.make_handle(spec, iota0.dt),
        state0=vintage_dde.lift_vintage(spec, iota0),
        simulate=lambda columns=None: vintage_dde.simulate_vintage(
            spec, iota0, num["T_end"], columns),
        sample_state=functools.partial(_delay_test_state, spec.delay),
        residual_fn=lambda st: vintage_dde.hjb_residual_vintage(spec, st),
        derived={"xi": spec.xi, "nu": spec.nu, "mpc": spec.mpc,
                 "growth_rate": spec.growth_rate,
                 "interior_condition": vintage_dde.interior_condition(spec)},
        state_columns=columns,
    )


def _build_transport(config):
    from . import vintage_transport
    p, num, init = config["params"], config["numerics"], config["initial"]
    alpha_fn, q1_fn, beta1_fn, z0_fn = (
        interval_profile(desc, 0.0, p["sbar"])
        for desc in (p["alpha"], p["q1"], p["beta1"], init["z0"]))

    @functools.cache
    @_model_errors(config["model"])
    def spec_at(m_age):
        age = AgeGrid(p["sbar"], m_age)
        s = age.nodes
        return vintage_transport.build_transport_spec(
            p["mu"], p["rho"], age, alpha_fn(s), p["q0"], p["beta0"],
            q1_fn(s), beta1_fn(s))

    spec = spec_at(num["m_age"])
    z0 = z0_fn(spec.age.nodes)
    _check_initial("z0", z0)

    def columns(states, controls):
        Z, h = np.array(states), spec.age.h  # total: AgeGrid.quad's bits
        return {
            "total_capital": (h * (Z[:, 1:] + Z[:, :-1]) / 2.0).sum(axis=1),
            "min_capital": np.min(Z, axis=1),
            "boundary_investment": [u0_now for u0_now, _ in controls],
        }

    return dict(
        spec=spec, handle=vintage_transport.make_handle(spec), state0=z0,
        simulate=lambda columns=None: vintage_transport.simulate_transport(
            spec, z0, num["T_end"], columns),
        sample_state=lambda rng, m_age: _smooth_positive_interval(
            rng, AgeGrid(p["sbar"], m_age).nodes, scale=0.5),
        # a profile on m_age cells has m_age + 1 nodes
        residual_fn=lambda x: vintage_transport.hjb_residual_transport(
            spec_at(len(x) - 1), x),
        derived={"abar0": float(spec.abar[0]), "u0_star": spec.u0_star,
                 "positivity_ok": spec.positivity_ok},
        state_columns=columns,
    )


def _build_ttb(config):
    from . import delay, time_to_build
    p, num, init = config["params"], config["numerics"], config["initial"]
    spec = time_to_build.build_ttb_spec(p["A"], p["delta"], p["d"],
                                        p["sigma"], p["rho"])
    u0_fn = interval_profile(init["u0"], -p["d"], 0.0)
    u0 = HistorySegment.from_function(p["d"], num["m"], u0_fn)
    q0 = init["q0"]

    def columns(states, controls):
        output = np.array([x.item(0) for x in states])
        return {
            "output": output,
            "control": controls,
            "gamma": [delay.gamma(x, spec.xi, spec.d) for x in states],
            "consumption": (spec.Atilde / spec.A)
            * (output - np.asarray(controls, dtype=float)),
        }

    return dict(
        spec=spec, handle=time_to_build.make_handle(spec, u0.dt),
        state0=delay.lift(spec.delay, q0, u0),
        simulate=lambda columns=None: time_to_build.simulate_ttb(
            spec, q0, u0, num["T_end"], columns),
        sample_state=functools.partial(_delay_test_state, spec.delay),
        residual_fn=lambda st: time_to_build.hjb_residual_ttb(spec, st),
        derived={"xi": spec.xi, "nu": spec.nu, "alpha_mpc": spec.alpha_mpc,
                 "Atilde": spec.Atilde, "growth_rate": spec.growth_rate},
        state_columns=columns,
        # the optimal adjusted investment is small next to the output at
        # these parameters, so halving it barely hurts; the zero-investment
        # policy is the deliberately suboptimal probe instead
        suboptimal_scale=0.0,
    )


# ---------------------------------------------------------------------------
# orchestration

def residual_study(scenario: Scenario, rng) -> tuple[list, list]:
    """HJB residuals at 10 random in-domain states, at the criterion
    resolution and at its 2x refinement (same random draws at both); an
    overflow, or a division by an underflowed zero, is a NumericsError."""
    res = RESIDUAL_RESOLUTION[scenario.name]
    base, refined = [], []
    try:
        with np.errstate(all="raise", under="ignore"):
            for _ in range(10):
                seed_child = rng.integers(0, 2 ** 63 - 1)
                for r, sink in ((res, base), (2 * res, refined)):
                    state = scenario.sample_state(
                        np.random.default_rng(seed_child), r)
                    sink.append(scenario.residual_fn(state))
    except (FloatingPointError, OverflowError) as exc:
        raise NumericsError("HJB residual left the float range "
                            f"({exc})") from None
    return base, refined


def verify_scenario(config: dict, seed: int = 0) -> VerifyReport:
    """Run the verification suite for one scenario and aggregate the report.

    The closed-loop checks run first, so a start state outside the domain
    exits as ``run`` does; the seeded draws feed only the residual study.
    A horizon of fewer than 4 steps is a configuration error: the
    transversality fit needs two times in its last quartile.
    """
    scenario = build_scenario(config)
    steps = int(round(scenario.T_end / scenario.handle.dt))
    if steps < 4:
        raise ConfigError(f"{_step_keys(scenario.config)} = {steps} steps; "
                          "verify's transversality fit needs at least 4")
    slope = transversality(scenario.handle, scenario.simulate, steps)
    vm = value_match(scenario.handle, scenario.state0, scenario.T_end)
    margin = suboptimality_margin(scenario.handle, scenario.state0,
                                  scenario.T_end,
                                  control_scale=scenario.suboptimal_scale)
    base, refined = residual_study(scenario, np.random.default_rng(seed))
    report = VerifyReport(
        model=scenario.name,
        residual_max=float(np.max(base)),
        residual_mean=float(np.mean(base)),
        residual_refined_max=float(np.max(refined)),
        value_match_gap=vm.rel_gap,
        suboptimal_margin=margin,
        transversality_slope=slope,
        tolerances=scenario.config["tolerances"],
    )
    return report.check()


ORACLE_MODELS = ("vintage-dde", "time-to-build")
ORACLE_COARSE_CELLS = 8
ORACLE_EFOLDINGS = 5.0
# the longest DP oracle horizon, in steps: its Newton solve takes O(n^3)
# time and O(n^2) memory, about 1.2 s and 36 MiB more at 500 steps
ORACLE_MAX_STEPS = 500


def oracle_scenario(config: dict) -> tuple[OracleBracket, float]:
    """Coarse-scale DP oracle for a delay model: returns the bracket and the
    analytic value of the same coarse state.  A model without an oracle is
    rejected before anything is built; a delay model is built at full
    resolution first, to reject a bad ``numerics.m`` before the coarse
    rebuild overrides it.  A model the oracle cannot bound (sigma >= 1)
    is an AssumptionError, and a horizon of fewer than 1 or more than
    ORACLE_MAX_STEPS steps a ConfigError, both before the seed rollout.
    The delay models are positively homogeneous (linear dynamics and
    feedback, v(s x) = s^(1-sigma) v(x)), so the solve runs from the start
    and seed over s, a power of two near the start's Gamma (1 at the
    defaults), and the bracket is scaled back: a start of any finite scale
    gets a bracket."""
    config = validate_config(config)
    model = config["model"]
    if model not in ORACLE_MODELS:
        raise ConfigError(
            f"the DP oracle applies to the delay models, not {model!r}")
    from . import delay
    build_scenario(config)
    sc = build_scenario(dict(config, numerics=dict(config["numerics"],
                                                   m=ORACLE_COARSE_CELLS)))
    dm = sc.spec.delay
    problem = delay.oracle_problem(dm, sc.handle.dt)
    T_end = ORACLE_EFOLDINGS / sc.handle.rho
    steps = int(round(T_end / sc.handle.dt))
    if not 1 <= steps <= ORACLE_MAX_STEPS:
        raise ConfigError(
            f"the DP oracle's horizon {ORACLE_EFOLDINGS:g} / params.rho in "
            f"steps of params.{_STEP_SPAN[model]} / {ORACLE_COARSE_CELLS} is "
            f"{steps} steps, " + ("fewer than 1" if steps < 1 else
                                  f"more than its {ORACLE_MAX_STEPS}"))
    seed = _rollout(sc.handle, sc.state0, T_end, delay.heads_and_controls)
    g = delay.gamma(sc.state0, dm.xi, dm.lag)
    s = 2.0 ** min(round(math.log2(g)), 1023)  # exact; no finite g overflows
    b = brute_force_value(problem, sc.state0 / s,
                          np.asarray(seed.columns["_control"][:-1]) / s)
    back = s ** (1.0 - dm.sigma)
    return (replace(b, lo=b.lo * back, gap=b.gap * back,
                    tail_bound=b.tail_bound * back, controls=b.controls * s),
            float(sc.handle.value(sc.state0)))
