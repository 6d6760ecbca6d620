import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hjbkit.errors import NumericsError
from hjbkit.gridcore import CircleGrid, quad_circle
from hjbkit.pollution import (build_pollution_spec, hjb_residual_pollution,
                              make_handle, optimal_investment,
                              simulate_pollution, value_pollution)

GRID = CircleGrid(128)


def constant_spec(grid=GRID, a=2.0, eta=1.0, gamma=0.5, delta=0.1, w=1.0,
                  rho=0.05, sigma=1.3):
    return build_pollution_spec(
        grid.constant(sigma), grid.constant(delta), grid.constant(eta),
        grid.constant(a), grid.constant(gamma), grid.constant(w), rho)


def wavy_spec(grid=GRID):
    return build_pollution_spec(
        grid.from_function(lambda t: 1.0 + 0.2 * np.cos(t)),
        grid.from_function(lambda t: 0.1 + 0.02 * np.sin(t)),
        grid.from_function(lambda t: 0.5 + 0.1 * np.cos(t)),
        grid.from_function(lambda t: 2.5 + 0.3 * np.cos(t)),
        grid.from_function(lambda t: 0.5 + 0.1 * np.sin(t)),
        grid.from_function(lambda t: 1.0 + 0.2 * np.sin(t)),
        0.05)


class TestBuildSpec:
    def test_constant_shadow_price(self):
        # (rho + delta) alpha = w pointwise: alpha = 1/0.15
        spec = constant_spec()
        assert np.allclose(spec.alpha_shadow.values, 1.0 / 0.15, rtol=1e-12)

    def test_positive_shadow_price(self):
        spec = wavy_spec()
        assert spec.alpha_shadow.min() > 0.0

    def test_q_constant_scalar_reduction(self):
        # constant data: q = (1/rho) * 2pi * pointwise sup value
        spec = constant_spec()
        a, eta, gamma = 2.0, 1.0, 0.5
        alpha = 1.0 / 0.15
        sup = minimize_scalar(
            lambda i: -(((a - 1) * i) ** (1 - gamma) / (1 - gamma)
                        - eta * i * alpha),
            bracket=(1e-9, 0.02, 1.0), method="golden",
            options={"xtol": 1e-14})
        assert spec.q_const == pytest.approx(2 * np.pi * (-sup.fun) / 0.05,
                                             rel=1e-8)

    def test_rejects_mixed_gamma_regimes(self):
        with pytest.raises(ValueError):
            build_pollution_spec(
                GRID.constant(1.0), GRID.constant(0.1), GRID.constant(1.0),
                GRID.constant(2.0),
                GRID.from_function(lambda t: 1.0 + 0.5 * np.cos(t)),
                GRID.constant(1.0), 0.05)

    def test_rejects_vanishing_eta_with_low_gamma(self):
        with pytest.raises(NumericsError):
            build_pollution_spec(
                GRID.constant(1.0), GRID.constant(0.1), GRID.constant(0.0),
                GRID.constant(2.0), GRID.constant(0.5), GRID.constant(1.0),
                0.05)


class TestOptimalInvestment:
    def test_constant_closed_form(self):
        # a=2, eta=1, gamma=.5, alpha=1/0.15: i* = alpha^{-2}
        spec = constant_spec()
        assert np.allclose(spec.i_star.values, 0.15 ** 2, rtol=1e-10)

    def test_matches_scalar_maximizer(self):
        spec = wavy_spec()
        rng = np.random.default_rng(4)
        a, eta, gamma = spec.a_prod.values, spec.eta.values, spec.gamma.values
        alpha = spec.alpha_shadow.values
        for j in rng.integers(0, GRID.n, size=10):
            res = minimize_scalar(
                lambda i: -(((a[j] - 1) * i) ** (1 - gamma[j]) / (1 - gamma[j])
                            - eta[j] * i * alpha[j]),
                bracket=(1e-9, float(spec.i_star.values[j]), 1.0),
                method="golden", options={"xtol": 1e-14})
            assert spec.i_star.values[j] == pytest.approx(res.x, abs=1e-8)

    def test_monotone_in_alpha(self):
        # raising the disutility weight raises alpha and lowers i*
        lo = constant_spec(w=1.0)
        hi = constant_spec(w=2.0)
        assert np.all(hi.i_star.values < lo.i_star.values)

    def test_state_independent_and_reproducible(self):
        spec = wavy_spec()
        again = optimal_investment(spec)
        assert np.array_equal(again.values, spec.i_star.values)

    def test_printed_variant_fails_oracle(self):
        # dropping the (a-1) inside the power is not the argmax when a != 2
        spec = wavy_spec()
        a, eta, gamma = spec.a_prod.values, spec.eta.values, spec.gamma.values
        alpha = spec.alpha_shadow.values
        wrong = (1.0 / (a - 1.0)) * (eta * alpha) ** (-1.0 / gamma)
        j = 0
        res = minimize_scalar(
            lambda i: -(((a[j] - 1) * i) ** (1 - gamma[j]) / (1 - gamma[j])
                        - eta[j] * i * alpha[j]),
            bracket=(1e-9, float(spec.i_star.values[j]), 1.0),
            method="golden", options={"xtol": 1e-14})
        assert abs(wrong[j] - res.x) > 1e3 * abs(spec.i_star.values[j] - res.x)


class TestValue:
    def test_zero_state(self):
        spec = wavy_spec()
        assert value_pollution(spec, GRID.constant(0.0)) == spec.q_const

    def test_affinity(self):
        spec = wavy_spec()
        rng = np.random.default_rng(9)
        p1 = GRID.field(rng.random(GRID.n))
        p2 = GRID.field(rng.random(GRID.n))
        v0 = value_pollution(spec, GRID.constant(0.0))
        lhs = value_pollution(spec, p1 + p2) - v0
        rhs = (value_pollution(spec, p1) - v0) + (value_pollution(spec, p2) - v0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_constant_data_closed_form(self):
        spec = constant_spec()
        v = value_pollution(spec, GRID.constant(1.0))
        assert v == pytest.approx(spec.q_const - 2 * np.pi / 0.15, rel=1e-10)


class TestSimulate:
    def test_pure_decay_without_source(self):
        spec = constant_spec()
        from hjbkit.gridcore import CNOperator, cn_step
        p = GRID.from_function(lambda t: 1.0 + 0.5 * np.cos(t))
        masses = [quad_circle(p)]
        for _ in range(200):
            p = cn_step(CNOperator(spec.sigma_diff, -1.0 * spec.delta_dec,
                                   0.05), p, GRID.constant(0.0))
            masses.append(quad_circle(p))
        assert np.all(np.diff(masses) < 0.0)

    def test_steady_state(self):
        spec = constant_spec()
        target = spec.eta.values[0] * spec.i_star.values[0] / 0.1
        traj = simulate_pollution(spec, GRID.constant(1.0), 160.0, 0.05)
        assert np.allclose(traj.states[-1].values, target, atol=1e-6)

    def test_maximum_principle_flag(self):
        spec = wavy_spec()
        traj = simulate_pollution(spec, GRID.constant(0.5), 10.0, 0.02)
        assert traj.meta["min_state"] >= -1e-10


class TestHJBResidual:
    def test_self_residual_is_solver_exact(self):
        spec = wavy_spec()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = GRID.field(rng.normal(size=GRID.n))
            assert hjb_residual_pollution(spec, x) < 1e-8

    def test_reference_residual_refines(self):
        def make(n):
            return wavy_spec(CircleGrid(n))

        results = []
        for n in (128, 256):
            spec = make(n)
            ref = make(4 * n)
            rng = np.random.default_rng(5)
            vals = []
            for _ in range(5):
                c = rng.normal(size=3)
                x = spec.grid.from_function(
                    lambda t: np.exp(0.3 * (c[0] + c[1] * np.cos(t)
                                            + c[2] * np.sin(t))))
                vals.append(hjb_residual_pollution(spec, x, ref))
            results.append(max(vals))
        assert results[0] < 1e-5
        assert results[1] < 0.5 * results[0]


def test_value_match_and_suboptimality():
    from hjbkit.verify import suboptimality_margin, value_match
    spec = wavy_spec()
    handle = make_handle(spec)
    p0 = GRID.from_function(lambda t: 1.0 + 0.5 * np.cos(t))
    vm = value_match(handle, p0, 60.0, 0.02)
    assert vm.rel_gap < 5e-3
    assert suboptimality_margin(handle, p0, 60.0, 0.02) > 5e-3
