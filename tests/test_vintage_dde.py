import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hjbkit import delay
from hjbkit.errors import AssumptionError, DomainError
from hjbkit.gridcore import HistorySegment
from hjbkit.vintage_dde import (build_vintage_spec, gamma0_from_history,
                                hjb_residual_vintage, interior_condition,
                                lift_vintage, make_handle, positivity_kernel,
                                simulate_vintage)

XI_REF = 0.796812130020020  # frozen: bisection of z = 1*(1 - e^{-2z})


@pytest.fixture(scope="module")
def spec():
    return build_vintage_spec(1.0, 2.0, 0.5, 0.45)


def positive_history(m=200, T=2.0, seed=0):
    rng = np.random.default_rng(seed)
    s = np.linspace(-T, 0.0, m + 1)
    x = np.pi * (s + T) / T
    c = rng.normal(size=3) * np.array([0.3, 0.2, 0.1])
    return HistorySegment(T, np.exp(c[0] + c[1] * np.cos(x) + c[2] * np.sin(x)))


class TestBuildSpec:
    def test_derived_constants(self, spec):
        assert spec.xi.xi == pytest.approx(XI_REF, abs=1e-12)
        g = (0.45 - XI_REF * 0.5) / 0.5
        assert spec.mpc == pytest.approx(g, rel=1e-12)
        # value constant: the HJB fixes nu = mpc^(-sigma) (A/xi)^(1-sigma)
        assert spec.nu == pytest.approx(g ** -0.5 * (1.0 / XI_REF) ** 0.5,
                                        rel=1e-12)
        # feedback coefficient collapses to mpc * A / xi
        assert spec.feedback_coefficient == pytest.approx(g / XI_REF,
                                                          rel=1e-10)

    def test_growth_condition_enforced(self):
        with pytest.raises(AssumptionError):
            build_vintage_spec(1.0, 1.0, 0.5, 0.45)

    def test_finiteness_enforced(self):
        with pytest.raises(AssumptionError):
            build_vintage_spec(1.0, 2.0, 0.5, 0.5 * XI_REF * 0.999)


class TestLift:
    def test_zero_history(self, spec):
        iota = HistorySegment.constant(2.0, 8, 0.0)
        st = lift_vintage(spec, 3.0, iota, enforce_consistency=False)
        assert st[0] == 3.0
        assert np.all(st[1:] == 0.0)

    def test_involution(self, spec):
        iota = positive_history(seed=3)
        st = lift_vintage(spec, None, iota)
        # the tail map is an involution: reflecting back gives the history
        assert np.array_equal(-st[1:][::-1], iota.values)

    def test_constant_history(self, spec):
        c, T = 0.7, 2.0
        iota = HistorySegment.constant(T, 100, c)
        st = lift_vintage(spec, c * T, iota)
        assert np.allclose(st[1:], -c)
        assert st[0] == pytest.approx(c * T)

    def test_consistency_enforced(self, spec):
        iota = HistorySegment.constant(2.0, 8, 1.0)
        with pytest.raises(ValueError):
            lift_vintage(spec, 5.0, iota)
        st = lift_vintage(spec, 5.0, iota, enforce_consistency=False)
        assert st[0] == 5.0


class TestGamma0:
    def test_zero_tail(self, spec):
        x = lift_vintage(spec, 1.5, HistorySegment.constant(2.0, 8, 0.0),
                         enforce_consistency=False)
        assert delay.gamma(x, spec.xi.xi, 2.0) == 1.5

    def test_constant_history_closed_form(self, spec):
        # Gamma0 = c [T - (1 - e^{-xi T})/xi] for iota = c
        c, T, m = 1.3, 2.0, 400
        xi = spec.xi.xi
        iota = HistorySegment.constant(T, m, c)
        x = lift_vintage(spec, None, iota)
        exact = c * (T - (1.0 - np.exp(-xi * T)) / xi)
        assert delay.gamma(x, xi, T) == pytest.approx(exact, abs=2.0 / m ** 2)
        assert gamma0_from_history(iota, xi) == pytest.approx(
            delay.gamma(x, xi, T), abs=1e-12)

    def test_zero_rate_limit(self, spec):
        iota = positive_history(seed=5)
        x = lift_vintage(spec, None, iota)
        from scipy.integrate import trapezoid
        expected = x[0] + trapezoid(x[1:], dx=iota.dt)
        assert delay.gamma(x, 0.0, iota.d) == pytest.approx(expected,
                                                            rel=1e-12)


class TestFeedback:
    def test_interior_value(self, spec):
        # default scenario numbers: xi, nu, Gamma0 composed per the formulas
        iota = HistorySegment.constant(2.0, 400, 1.0)
        x = lift_vintage(spec, None, iota)
        g0 = delay.gamma(x, spec.xi.xi, 2.0)
        i_star = delay.feedback(spec.delay, x)
        expected = spec.A * x[0] - spec.nu ** -2.0 * (
            spec.A / spec.xi.xi) ** 2.0 * g0
        assert i_star == pytest.approx(expected, rel=1e-12)
        assert 0.0 < i_star < spec.A * x[0]

    def test_domain_edge_rejected(self, spec):
        # scale the head down until A x0 equals the feedback consumption
        iota = HistorySegment.constant(2.0, 100, 1.0)
        x = lift_vintage(spec, None, iota)
        g0 = delay.gamma(x, spec.xi.xi, 2.0)
        tail_part = g0 - x[0]
        coeff = spec.feedback_coefficient
        # head solving A h = coeff (h + tail_part) exactly
        h_edge = coeff * tail_part / (spec.A - coeff)
        bad = lift_vintage(spec, h_edge, iota, enforce_consistency=False)
        with pytest.raises(DomainError):
            delay.feedback(spec.delay, bad)

    def test_foc_against_scalar_maximizer(self, spec):
        iota = positive_history(seed=8)
        x = lift_vintage(spec, None, iota)
        g0 = delay.gamma(x, spec.xi.xi, iota.d)
        i_star = delay.feedback(spec.delay, x)
        b = spec.nu * g0 ** -0.5 * spec.xi.xi / spec.A  # B(Dv)
        res = minimize_scalar(
            lambda i: -((spec.A * x[0] - i) ** 0.5 / 0.5 + i * b),
            bracket=(0.0, i_star, spec.A * x[0] * 0.999999),
            method="golden", options={"xtol": 1e-14})
        assert i_star == pytest.approx(res.x, abs=1e-9)


class TestValue:
    def test_homogeneity(self, spec):
        x = lift_vintage(spec, None, positive_history(seed=2))
        v = delay.value(spec.delay, x)
        for k in (0.25, 4.0):
            assert delay.value(spec.delay, k * x) == pytest.approx(
                k ** 0.5 * v, rel=1e-12)

    def test_unit_gamma(self, spec):
        x = lift_vintage(spec, 1.0, HistorySegment.constant(2.0, 8, 0.0),
                         enforce_consistency=False)
        assert delay.value(spec.delay, x) == pytest.approx(spec.nu / 0.5,
                                                           rel=1e-12)

    def test_rejects_nonpositive_gamma(self, spec):
        x = lift_vintage(spec, -1.0, HistorySegment.constant(2.0, 8, 0.0),
                         enforce_consistency=False)
        with pytest.raises(DomainError):
            delay.value(spec.delay, x)


class TestPositivityKernel:
    def test_endpoint_value(self, spec):
        assert positivity_kernel(spec, -spec.T_scrap) == pytest.approx(
            spec.A, rel=1e-12)

    def test_monotone_with_minimum_at_zero(self, spec):
        s = np.linspace(-spec.T_scrap, 0.0, 200)
        w = positivity_kernel(spec, s)
        assert np.all(np.diff(w) < 0.0)
        assert w[-1] == pytest.approx(spec.A - spec.mpc, rel=1e-10)

    def test_positive_under_interior_condition(self, spec):
        assert interior_condition(spec)
        s = np.linspace(-spec.T_scrap, 0.0, 500)
        assert positivity_kernel(spec, s).min() > 0.0

    def test_interior_condition_plug_in(self, spec):
        # (0.45 - 0.3984)/0.5 = 0.1032 < A = 1
        assert spec.mpc == pytest.approx(0.10319, abs=1e-4)
        assert interior_condition(spec) is True
        steep = build_vintage_spec(1.0, 2.0, 0.5, 1.2)
        assert interior_condition(steep) is False


class TestSimulate:
    def test_positivity_over_long_horizon(self, spec):
        iota = HistorySegment.constant(2.0, 200, 1.0)
        traj = simulate_vintage(spec, iota, 10 * spec.T_scrap)
        assert traj.meta["min_investment"] > 0.0
        assert traj.meta["min_capital"] > 0.0
        assert traj.meta["positivity_ok"]

    def test_balanced_growth_rate(self, spec):
        iota = HistorySegment.constant(2.0, 200, 1.0)
        traj = simulate_vintage(spec, iota, 20.0)
        g0s = np.array([delay.gamma(x, spec.xi.xi, 2.0)
                        for x in traj.states])
        slope = np.polyfit(traj.times, np.log(g0s), 1)[0]
        assert slope == pytest.approx(spec.growth_rate, abs=1e-3)

    def test_value_match_with_tail(self, spec):
        from hjbkit.verify import value_match
        iota = HistorySegment.constant(2.0, 200, 1.0)
        x = lift_vintage(spec, None, iota)
        vm = value_match(make_handle(spec, iota.dt), x, 25.0)
        assert vm.rel_gap < 5e-3

    def test_homogeneous_scaling_of_trajectories(self, spec):
        iota = HistorySegment.constant(2.0, 100, 1.0)
        k = 2.5
        scaled = HistorySegment(2.0, k * iota.values)
        t1 = simulate_vintage(spec, iota, 5.0)
        t2 = simulate_vintage(spec, scaled, 5.0)
        assert np.allclose(k * np.array([x[0] for x in t1.states]),
                           np.array([x[0] for x in t2.states]), rtol=1e-10)
        assert t2.payoff == pytest.approx(k ** 0.5 * t1.payoff, rel=1e-10)

    def test_lifting_is_bookkeeping(self, spec):
        # the recorded structural tail is exactly the involution of the
        # control window, and the head tracks the raw DDE's integral form
        # k(t) = int_{t-T}^t i at the scheme's second order
        from scipy.integrate import trapezoid
        drifts = []
        for m in (100, 200):
            iota = HistorySegment.constant(2.0, m, 1.0)
            traj = simulate_vintage(spec, iota, 4.0)
            dt = traj.dt
            controls = np.concatenate([iota.values[:-1],
                                       [float(c) for c in traj.controls]])
            worst = 0.0
            for n in (0, m // 2, len(traj.times) - 1):
                window = controls[n: n + m + 1]
                # tail bookkeeping: x1 = -reversed(window), bit-exact
                assert np.array_equal(traj.states[n][1:], -window[::-1])
                head = traj.states[n].item(0)
                worst = max(worst, abs(head - float(trapezoid(window, dx=dt)))
                            / max(1.0, head))
            drifts.append(worst)
        # the drift is the one-time trapezoid ambiguity where the t = 0
        # control jump crosses the sampled window: first order in dt
        assert drifts[0] < 5e-3
        assert drifts[1] < 0.7 * drifts[0]

    def test_feedback_kernel_identity(self, spec):
        # i(t) recomputed from the positivity-kernel integral equals the
        # Gamma0-form feedback up to quadrature error
        from scipy.integrate import trapezoid
        iota = positive_history(m=400, seed=13)
        direct = delay.feedback(spec.delay, lift_vintage(spec, None, iota))
        s = iota.nodes
        w = positivity_kernel(spec, s)
        via_kernel = float(trapezoid(w * iota.values, dx=iota.dt))
        assert direct == pytest.approx(via_kernel, abs=5.0 / 400 ** 2)

    def test_domain_exit_reported(self):
        # without the interior condition the loop eventually hits the edge
        steep = build_vintage_spec(1.0, 2.0, 0.5, 0.95)
        assert not interior_condition(steep)
        iota = HistorySegment.constant(2.0, 100, 1.0)
        from hjbkit.errors import DomainExitError
        with pytest.raises(DomainExitError) as err:
            simulate_vintage(steep, iota, 60.0)
        assert err.value.time > 0.0
        assert "capital" in err.value.diagnostics

    def test_history_off_the_lag_rejected(self, spec):
        # a state array holds no lag of its own, so a history on [-3, 0]
        # would run at the spacing T/m of the model's T = 2 if not refused
        with pytest.raises(ValueError, match="history covers"):
            simulate_vintage(spec, HistorySegment.constant(3.0, 8, 1.0), 1.0)


class TestHJBResidual:
    def test_refines_at_second_order(self, spec):
        worst = []
        for m in (400, 800):
            vals = [hjb_residual_vintage(spec, lift_vintage(
                        spec, None, positive_history(m=m, seed=s)))
                    for s in range(5)]
            worst.append(max(vals))
        assert worst[0] < 1e-5
        assert worst[1] < 0.5 * worst[0]


def test_coarse_dp_oracle_brackets_value(spec):
    from hjbkit.verify import _rollout, brute_force_value
    iota = HistorySegment.constant(2.0, 8, 1.0)
    x = lift_vintage(spec, None, iota)
    handle = make_handle(spec, iota.dt)
    seed = _rollout(handle, x, 5.0 / spec.rho, 1.0).controls[:-1]
    bracket = brute_force_value(delay.oracle_problem(spec.delay, iota.dt), x,
                                seed)
    v = delay.value(spec.delay, x)
    assert bracket.contains(v, 0.03)
    # the value constant printed with the +sigma exponent lands far outside
    wrong_nu = spec.mpc ** 0.5 * (spec.A / spec.xi.xi) ** 0.5
    g0 = delay.gamma(x, spec.xi.xi, 2.0)
    assert not bracket.contains(wrong_nu * g0 ** 0.5 / 0.5, 0.03)
