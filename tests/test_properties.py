import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hjbkit.gridcore import (AgeGrid, CircleGrid, CNOperator,
                             CyclicTridiagonal, HistorySegment,
                             _stencil_coefficients, sl_apply)
from hjbkit.spectral import (char_root_vintage, solve_elliptic,
                             transport_resolvent)

GRID = CircleGrid(64)

finite_floats = st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False)


@given(k=st.integers(min_value=1, max_value=31), phase=finite_floats)
@settings(max_examples=30, deadline=None)
def test_quad_kills_low_harmonics(k, phase):
    assert abs(GRID.quad(np.cos(k * GRID.nodes + phase))) < 1e-10


@given(c=finite_floats)
@settings(max_examples=20, deadline=None)
def test_quad_exact_for_constants(c):
    assert GRID.quad(np.full(GRID.n, c)) == pytest.approx(2 * np.pi * c,
                                                          rel=1e-13,
                                                          abs=1e-12)


@given(a=st.floats(min_value=0.6, max_value=5.0),
       t_scrap=st.floats(min_value=0.5, max_value=4.0))
@settings(max_examples=30, deadline=None)
def test_char_root_bracket_and_residual(a, t_scrap):
    if a * t_scrap <= 1.05:  # keep clear of the existence boundary
        return
    xi = char_root_vintage(a, t_scrap)
    assert 0.0 < xi < a
    assert abs(-a * np.expm1(-xi * t_scrap) - xi) < 1e-12


@given(scale=st.floats(min_value=0.05, max_value=20.0), seed=st.integers(0, 99))
@settings(max_examples=20, deadline=None)
def test_value_homogeneity_under_scaling(scale, seed):
    from hjbkit import delay
    from hjbkit.vintage_dde import build_vintage_spec, lift_vintage
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    rng = np.random.default_rng(seed)
    iota = HistorySegment(2.0, 0.2 + rng.random(9))
    x = lift_vintage(spec, iota)
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


def _dense_operator(grid, sigma, zeroth):
    """The dense matrix of f -> (sigma f')' + zeroth*f on ``grid``."""
    return np.column_stack([sl_apply(grid, sigma, zeroth, e)
                            for e in np.eye(grid.n)])


def _assert_solves_as_dense(x, dense, rhs):
    want = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


@given(seed=st.integers(0, 2 ** 32 - 1),
       spread=st.floats(min_value=0.0, max_value=1.0),
       scale=st.floats(min_value=0.0, max_value=10.0),
       dt=st.floats(min_value=1e-3, max_value=1.0),
       rho=st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_circle_systems_factor_and_solve_as_dense(seed, spread, scale, dt,
                                                  rho):
    # the three symmetric positive definite systems the circle models
    # build: Crank-Nicolson's implicit side I - dt/2 L (zeroth <= 0 or
    # dt * max(zeroth) < 2), the eigen shift (max A + 1) I - L and the
    # elliptic rho I - L.  The draws keep each condition number below
    # about 2e3, so 1e-12 is above the rounding of either solver
    grid = CircleGrid(16)
    n, eye = grid.n, np.eye(grid.n)
    rng = np.random.default_rng(seed)
    sigma = np.exp(spread * rng.uniform(-1.0, 1.0, n))
    zeroth = np.minimum(scale * rng.uniform(-1.0, 1.0, n), 1.5 / dt)
    rhs = rng.normal(size=n)

    op = CNOperator(grid, sigma, zeroth, dt)
    _assert_solves_as_dense(op.implicit.solve(rhs),
                            eye - 0.5 * dt * _dense_operator(grid, sigma,
                                                             zeroth), rhs)
    _, di, up = _stencil_coefficients(grid, np.ones(n), zeroth)
    shift = zeroth.max() + 1.0  # as principal_eigenpair shifts
    _assert_solves_as_dense(
        CyclicTridiagonal(shift - di, -up).solve(rhs),
        shift * eye - _dense_operator(grid, np.ones(n), zeroth), rhs)
    delta = np.abs(zeroth)
    _assert_solves_as_dense(
        solve_elliptic(grid, rho, sigma, delta, rhs),
        rho * eye - _dense_operator(grid, sigma, -delta), rhs)
