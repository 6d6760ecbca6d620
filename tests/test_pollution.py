import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hjbkit.errors import GridError, NumericsError
from hjbkit.gridcore import CircleGrid, CNOperator, cn_step
from hjbkit.pollution import (build_pollution_spec, hjb_residual_pollution,
                              feedback_pollution, make_handle,
                              simulate_pollution, value_pollution)
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.verify import _rollout, scaled
from reference import recorded, running_gain

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
        assert np.allclose(spec.alpha_shadow, 1.0 / 0.15, rtol=1e-12)

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

    @pytest.mark.parametrize("k", range(6))
    def test_rejects_a_profile_on_another_grid(self, k):
        # the builder unwraps every field on sigma_diff's grid
        fields = [GRID.constant(v) for v in (1.3, 0.1, 1.0, 2.0, 0.5, 1.0)]
        fields[k] = CircleGrid(64).constant(fields[k].values[0])
        with pytest.raises(GridError, match="node values"):
            build_pollution_spec(*fields, 0.05)

    def test_spec_holds_node_arrays_on_its_grid(self):
        spec = wavy_spec()
        assert spec.grid == GRID
        for f in (spec.sigma_diff, spec.delta_dec, spec.eta, spec.a_prod,
                  spec.gamma, spec.w_dis, spec.alpha_shadow, spec.i_star,
                  spec.zeroth):
            assert type(f) is np.ndarray and f.shape == (GRID.n,)
        assert np.array_equal(spec.zeroth, -1.0 * spec.delta_dec)

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
        assert np.allclose(spec.i_star, 0.15 ** 2, rtol=1e-10)

    def test_matches_scalar_maximizer(self):
        spec = wavy_spec()
        rng = np.random.default_rng(4)
        a, eta, gamma = spec.a_prod, spec.eta, spec.gamma
        alpha = spec.alpha_shadow
        for j in rng.integers(0, GRID.n, size=10):
            res = minimize_scalar(
                lambda i: -(((a[j] - 1) * i) ** (1 - gamma[j]) / (1 - gamma[j])
                            - eta[j] * i * alpha[j]),
                bracket=(1e-9, float(spec.i_star[j]), 1.0),
                method="golden", options={"xtol": 1e-14})
            assert spec.i_star[j] == pytest.approx(res.x, abs=1e-8)

    def test_monotone_in_alpha(self):
        # raising the disutility weight raises alpha and lowers i*
        lo = constant_spec(w=1.0)
        hi = constant_spec(w=2.0)
        assert np.all(hi.i_star < lo.i_star)

    def test_printed_variant_fails_oracle(self):
        # dropping the (a-1) inside the power is not the argmax when a != 2
        spec = wavy_spec()
        a, eta, gamma = spec.a_prod, spec.eta, spec.gamma
        alpha = spec.alpha_shadow
        wrong = (1.0 / (a - 1.0)) * (eta * alpha) ** (-1.0 / gamma)
        j = 0
        res = minimize_scalar(
            lambda i: -(((a[j] - 1) * i) ** (1 - gamma[j]) / (1 - gamma[j])
                        - eta[j] * i * alpha[j]),
            bracket=(1e-9, float(spec.i_star[j]), 1.0),
            method="golden", options={"xtol": 1e-14})
        assert abs(wrong[j] - res.x) > 1e3 * abs(spec.i_star[j] - res.x)


class TestValue:
    def test_zero_state(self):
        spec = wavy_spec()
        assert value_pollution(spec, np.zeros(GRID.n)) == spec.q_const

    def test_affinity(self):
        spec = wavy_spec()
        rng = np.random.default_rng(9)
        p1 = rng.random(GRID.n)
        p2 = rng.random(GRID.n)
        v0 = value_pollution(spec, np.zeros(GRID.n))
        lhs = value_pollution(spec, p1 + p2) - v0
        rhs = (value_pollution(spec, p1) - v0) + (value_pollution(spec, p2) - v0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_constant_data_closed_form(self):
        spec = constant_spec()
        v = value_pollution(spec, np.ones(GRID.n))
        assert v == pytest.approx(spec.q_const - 2 * np.pi / 0.15, rel=1e-10)


class TestSimulate:
    def test_pure_decay_without_source(self):
        spec = constant_spec()
        p = 1.0 + 0.5 * np.cos(GRID.nodes)
        masses = [GRID.quad(p)]
        op = CNOperator(GRID, spec.sigma_diff, -1.0 * spec.delta_dec, 0.05)
        for _ in range(200):
            p = cn_step(op, p, np.zeros(GRID.n))
            masses.append(GRID.quad(p))
        assert np.all(np.diff(masses) < 0.0)

    def test_steady_state(self):
        spec = constant_spec()
        target = spec.eta[0] * spec.i_star[0] / 0.1
        traj = simulate_pollution(spec, np.ones(GRID.n), 160.0, 0.05)
        assert np.allclose(traj.final, target, atol=1e-6)

    def test_maximum_principle_flag(self):
        spec = wavy_spec()
        traj = simulate_pollution(spec, np.full(GRID.n, 0.5), 10.0, 0.02)
        assert traj.meta["min_state"] >= -1e-10

    def test_maximum_principle_violation_reports_the_minimum(self):
        # a spike of 1000 at one node: Crank-Nicolson at dt 0.02 overshoots
        # below zero next to it, and the run reports the least state value
        spec = build_scenario(default_config("pollution")).spec
        p0 = np.zeros(spec.grid.n)
        p0[0] = 1000.0
        _, rec = recorded(_rollout, make_handle(spec, 0.02), p0, 0.08)
        least = float(min(p.min() for p in rec.states))
        with pytest.raises(NumericsError, match="maximum principle") as exc:
            simulate_pollution(spec, p0, 0.08, 0.02)
        assert str(exc.value).endswith(f"min p = {least!r}")
        assert least == -777.3950231728338


class TestHJBResidual:
    def test_self_residual_is_solver_exact(self):
        spec = wavy_spec()
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.normal(size=GRID.n)
            assert hjb_residual_pollution(spec, x, spec) < 1e-8

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
                t = spec.grid.nodes
                x = np.exp(0.3 * (c[0] + c[1] * np.cos(t) + c[2] * np.sin(t)))
                vals.append(hjb_residual_pollution(spec, x, ref))
            results.append(max(vals))
        assert results[0] < 1e-5
        assert results[1] < 0.5 * results[0]

    def test_reference_must_refine_the_grid(self):
        spec = wavy_spec()
        with pytest.raises(GridError, match="integer refinement"):
            hjb_residual_pollution(spec, np.ones(GRID.n),
                                   wavy_spec(CircleGrid(96)))


def test_value_match_and_suboptimality():
    from hjbkit.verify import suboptimality_margin, value_match
    spec = wavy_spec()
    handle = make_handle(spec, 0.02)
    p0 = 1.0 + 0.5 * np.cos(GRID.nodes)
    vm = value_match(handle, p0, 60.0)
    assert vm.rel_gap < 5e-3
    assert suboptimality_margin(handle, p0, 60.0) > 5e-3


def skewed_spec(grid=CircleGrid(96)):
    # off the defaults: gamma > 1, another grid, every profile varying
    return build_pollution_spec(
        grid.from_function(lambda t: 0.8 + 0.3 * np.sin(t)),
        grid.from_function(lambda t: 0.2 + 0.05 * np.cos(2.0 * t)),
        grid.from_function(lambda t: 0.7 + 0.2 * np.sin(t)),
        grid.from_function(lambda t: 3.0 + 0.5 * np.cos(t)),
        grid.from_function(lambda t: 1.6 + 0.2 * np.cos(t)),
        grid.from_function(lambda t: 0.5 + 0.1 * np.cos(3.0 * t)),
        0.07)


class TestHandleArrays:
    """The handle steps and scores on node arrays with the public
    functions; every number must be the bits that the closed forms written
    out with the grid's quadrature and a fresh CN operator give."""

    @pytest.fixture(params=["wavy", "skewed"])
    def spec(self, request):
        return {"wavy": wavy_spec, "skewed": skewed_spec}[request.param]()

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_callbacks_match_public_functions(self, spec, scale):
        dt = 0.02
        handle = make_handle(spec, dt)
        op = CNOperator(spec.grid, spec.sigma_diff, -1.0 * spec.delta_dec, dt)
        p = 1.0 + 0.5 * np.cos(spec.grid.nodes)
        for _ in range(3):
            i = handle.feedback(p)
            assert np.array_equal(i, spec.i_star)
            if scale != 1.0:
                i = handle.scale_control(i, scale)
            assert handle.running_payoff(p, i) == running_gain(spec, p, i)
            nxt = handle.step(p, i)
            assert type(nxt) is np.ndarray
            want = cn_step(op, p, spec.eta * i)
            assert np.array_equal(nxt, want)
            assert handle.running_payoff(nxt, i) == running_gain(spec, nxt, i)
            p = nxt

    def test_payoff_terms_match_the_field_functions(self, spec):
        grid = spec.grid
        p = 1.0 + 0.5 * np.cos(grid.nodes)
        i = spec.i_star
        a, g = spec.a_prod, spec.gamma
        want = grid.quad(((a - 1.0) * i) ** (1.0 - g) / (1.0 - g)) \
            - grid.inner(spec.w_dis, p)
        assert running_gain(spec, p, i) == want
        assert value_pollution(spec, p) == \
            -grid.inner(spec.alpha_shadow, p) + spec.q_const

    def test_value_and_feedback_are_the_public_functions(self, spec):
        handle = make_handle(spec, 0.02)
        for callback, fn in ((handle.value, value_pollution),
                             (handle.feedback, feedback_pollution)):
            assert callback.func is fn
            assert len(callback.args) == 1 and callback.args[0] is spec

    def test_payoff_follows_a_new_control(self, spec):
        # the reused utility belongs to the control object last scored
        handle = make_handle(spec, 0.02)
        p = np.full(spec.grid.n, 0.5)
        i_star = spec.i_star
        for i in (i_star, 0.5 * i_star, i_star, 2.0 * i_star):
            assert handle.running_payoff(p, i) == running_gain(spec, p, i)

    def test_step_follows_a_new_control(self, spec):
        # the reused source eta * i belongs to the control object last given
        dt = 0.02
        handle = make_handle(spec, dt)
        op = CNOperator(spec.grid, spec.sigma_diff, -1.0 * spec.delta_dec, dt)
        p = np.full(spec.grid.n, 0.5)
        i_star = spec.i_star
        for i in (i_star, 0.5 * i_star, i_star, 2.0 * i_star):
            want = cn_step(op, p, spec.eta * i)
            assert np.array_equal(handle.step(p, i), want)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_rollout_matches_field_loop(self, spec, scale):
        # the closed loop written out with the grid's quadrature
        dt, n_steps = 0.05, 25
        handle = make_handle(spec, dt)
        grid = spec.grid
        op = CNOperator(grid, spec.sigma_diff, -1.0 * spec.delta_dec, dt)
        a, g = spec.a_prod, spec.gamma
        p0 = 1.0 + 0.5 * np.cos(grid.nodes)
        probe = handle if scale == 1.0 else scaled(handle, scale)
        traj, rec = recorded(_rollout, probe, p0, n_steps * dt)
        states, controls, running = (rec.states, rec.controls,
                                     traj.running_payoff)

        def gain(p, i):
            util = grid.quad(((a - 1.0) * i) ** (1.0 - g) / (1.0 - g))
            return util - grid.inner(spec.w_dis, p)

        p, total = p0, 0.0
        for k in range(n_steps):
            i = spec.i_star if scale == 1.0 else scale * spec.i_star
            assert np.array_equal(controls[k], i)
            g_left = gain(p, i)
            p = cn_step(op, p, spec.eta * i)
            total += 0.5 * dt * (np.exp(-spec.rho * (dt * k)) * g_left
                                 + np.exp(-spec.rho * (dt * (k + 1)))
                                 * gain(p, i))
            assert np.array_equal(states[k + 1], p)
            assert running[k + 1] == total

    @pytest.mark.parametrize("bad", [95, 129, (1, 96)])
    def test_a_wrong_shape_is_a_grid_error(self, spec, bad):
        # a node array of another length, or of another shape, must be a
        # GridError from every callback, never a numpy broadcast error
        handle = make_handle(spec, 0.02)
        p, i, wrong = np.ones(spec.grid.n), spec.i_star, np.ones(bad)
        for call in (lambda: handle.feedback(wrong),
                     lambda: handle.value(wrong),
                     lambda: handle.running_payoff(wrong, i),
                     lambda: handle.running_payoff(p, wrong),
                     lambda: handle.step(wrong, i),
                     lambda: handle.step(p, wrong)):
            with pytest.raises(GridError):
                call()

    def test_a_feedback_result_is_read_only(self, spec):
        # every caller is handed the spec's own i_star array: an in-place
        # write must fail, not change the spec and every later step
        handle = make_handle(spec, 0.02)
        p = np.ones(spec.grid.n)
        before = spec.i_star.copy()
        i = handle.feedback(p)
        for write in (lambda: i.__setitem__(0, 0.0),
                      lambda: i.__imul__(2.0)):
            with pytest.raises(ValueError, match="read-only"):
                write()
        assert np.array_equal(spec.i_star, before)
        assert np.array_equal(handle.feedback(p), before)
        for f in (spec.sigma_diff, spec.delta_dec, spec.eta, spec.a_prod,
                  spec.gamma, spec.w_dis, spec.alpha_shadow, spec.i_star,
                  spec.zeroth):
            assert not f.flags.writeable

    def test_the_callers_profiles_stay_writable(self):
        # the spec keeps read-only copies of the fields passed in; the
        # caller's own arrays are left alone
        grid = CircleGrid(32)
        fields = [grid.constant(v) for v in (1.0, 0.1, 0.5, 2.5, 0.5, 1.0)]
        spec = build_pollution_spec(*fields, 0.05)
        for f in fields:
            f.values[0] += 0.25
        assert spec.a_prod[0] == 2.5
