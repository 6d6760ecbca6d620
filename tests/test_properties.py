import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjbkit.gridcore import AgeGrid, CircleGrid, HistorySegment, quad_circle
from hjbkit.spectral import char_root_vintage, transport_resolvent

GRID = CircleGrid(64)

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


@given(k=st.integers(min_value=1, max_value=31), phase=finite_floats)
@settings(max_examples=30, deadline=None)
def test_quad_kills_low_harmonics(k, phase):
    f = GRID.from_function(lambda t: np.cos(k * t + phase))
    assert abs(quad_circle(f)) < 1e-10


@given(c=finite_floats)
@settings(max_examples=20, deadline=None)
def test_quad_exact_for_constants(c):
    assert quad_circle(GRID.constant(c)) == pytest.approx(2 * np.pi * c,
                                                          rel=1e-13,
                                                          abs=1e-12)


@given(a=st.floats(min_value=0.6, max_value=5.0),
       t_scrap=st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_char_root_bracket_and_residual(a, t_scrap):
    if a * t_scrap <= 1.05:  # keep clear of the existence boundary
        return
    root = char_root_vintage(a, t_scrap)
    assert 0.0 < root.xi < a
    assert abs(root.residual) < 1e-12


@given(scale=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 99))
@settings(max_examples=20, deadline=None)
def test_value_homogeneity_under_scaling(scale, seed):
    from hjbkit import delay
    from hjbkit.vintage_dde import build_vintage_spec, lift_vintage
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    rng = np.random.default_rng(seed)
    iota = HistorySegment(2.0, 0.2 + rng.random(9))
    x = lift_vintage(spec, None, iota)
    v = delay.value(spec.delay, x)
    assert delay.value(spec.delay, scale * x) == pytest.approx(
        scale ** 0.5 * v, rel=1e-11)


@given(seed=st.integers(0, 99), rho=st.floats(min_value=0.01, max_value=0.5),
       mu=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=20, deadline=None)
def test_transport_resolvent_linearity(seed, rho, mu):
    age = AgeGrid(2.0, 24)
    rng = np.random.default_rng(seed)
    a1, a2 = rng.random(25), rng.random(25)
    lhs = transport_resolvent(a1 + a2, rho, mu, age)
    rhs = transport_resolvent(a1, rho, mu, age) \
        + transport_resolvent(a2, rho, mu, age)
    assert np.max(np.abs(lhs - rhs)) < 1e-12
