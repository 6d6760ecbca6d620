import numpy as np
import pytest
from oracle_helpers import golden_max

from hjbkit import delay
from hjbkit.errors import AssumptionError, DomainError, DomainExitError
from hjbkit.gridcore import HistorySegment
from hjbkit.time_to_build import (build_ttb_spec, hjb_residual_ttb,
                                  integrate_openloop_dde, make_handle,
                                  openloop_dde_residual, simulate_ttb,
                                  structural_state, to_output_coords)

XI_REF = 0.236755310788559  # frozen: bisection of z = 0.3 e^{-z}


@pytest.fixture(scope="module")
def spec():
    return build_ttb_spec(0.35, 0.05, 1.0, 0.5, 0.2)


def default_state(spec, m=200, q0=1.0, level=1.0):
    u0 = HistorySegment.constant(spec.d, m, level)
    return q0, u0, structural_state(spec, q0, u0)


class TestBuildSpec:
    def test_derived_constants(self, spec):
        assert spec.Atilde == pytest.approx(0.3, rel=1e-14)
        assert spec.xi.xi == pytest.approx(XI_REF, abs=1e-12)
        al = (0.2 - XI_REF * 0.5) / (0.5 * XI_REF)
        assert spec.alpha_mpc == pytest.approx(al, rel=1e-12)
        assert spec.nu == pytest.approx(al ** -0.5 / XI_REF, rel=1e-12)

    def test_characteristic_identity(self, spec):
        assert spec.Atilde * np.exp(-spec.xi.xi * spec.d) == pytest.approx(
            spec.xi.xi, abs=1e-12)

    def test_rejects_nonpositive_net_productivity(self):
        with pytest.raises(AssumptionError):
            build_ttb_spec(0.3, 0.3, 1.0, 0.5, 0.2)

    def test_rejects_insufficient_discount(self):
        with pytest.raises(AssumptionError):
            build_ttb_spec(0.35, 0.05, 1.0, 0.5, 0.5 * XI_REF * 0.9)


class TestOutputCoords:
    def test_constant_capital(self, spec):
        k_hist = HistorySegment.constant(1.0, 50, 2.0)
        q0, u_hist = to_output_coords(spec, k_hist)
        assert q0 == pytest.approx(0.35 * 2.0)
        assert np.allclose(u_hist.values, 0.0, atol=1e-10)

    def test_no_depreciation_collapses_factor(self):
        sp = build_ttb_spec(0.3, 0.0, 1.0, 0.5, 0.2)
        g = 0.15
        k_hist = HistorySegment.from_function(1.0, 100,
                                              lambda s: np.exp(g * s))
        kdot = HistorySegment.from_function(1.0, 100,
                                            lambda s: g * np.exp(g * s))
        _, u_hist = to_output_coords(sp, k_hist, kdot)
        assert np.allclose(u_hist.values, kdot.values, rtol=1e-14)

    def test_dual_simulation_round_trip(self, spec):
        # integrate q' = Atilde u0(t-d) on [0, d] and compare against the
        # direct evaluation q(t) = A k0(t-d); exact for the self-consistent
        # transformation u0(s) = (A/Atilde) k0'(s)
        g, m = 0.2, 400
        dt = spec.d / m
        k_hist = HistorySegment.from_function(spec.d, m,
                                              lambda s: np.exp(g * s))
        kdot = HistorySegment.from_function(spec.d, m,
                                            lambda s: g * np.exp(g * s))
        q0, u_hist = to_output_coords(spec, k_hist, kdot)
        q = q0
        worst = 0.0
        for n in range(m):
            q += 0.5 * dt * spec.Atilde * (u_hist.values[n]
                                           + u_hist.values[n + 1])
            q_direct = spec.A * np.exp(g * (-spec.d + (n + 1) * dt))
            worst = max(worst, abs(q - q_direct))
        assert worst < 5.0 * dt ** 2

    def test_printed_initial_control_fails_round_trip(self, spec):
        # the A k0'(-d-s) variant is inconsistent with q' = Atilde u(t-d)
        g, m = 0.2, 400
        dt = spec.d / m
        s = np.linspace(-spec.d, 0.0, m + 1)
        u_wrong = spec.A * g * np.exp(g * (-spec.d - s))
        q = spec.A * np.exp(-g * spec.d)
        worst = 0.0
        for n in range(m):
            q += 0.5 * dt * spec.Atilde * (u_wrong[n] + u_wrong[n + 1])
            q_direct = spec.A * np.exp(g * (-spec.d + (n + 1) * dt))
            worst = max(worst, abs(q - q_direct))
        assert worst > 1e3 * (5.0 * dt ** 2)


class TestGamma:
    def test_zero_tail(self, spec):
        x = structural_state(spec, 2.0,
                             HistorySegment.constant(spec.d, 8, 0.0))
        assert delay.gamma(x, spec.xi.xi, spec.d) == 2.0

    def test_constant_history_characteristic_identity(self, spec):
        # tail = Atilde*c: Gamma = x0 + c (Atilde - xi)/xi, by the identity
        # Atilde e^{-xi d} = xi; both evaluations agree
        c, m = 0.8, 400
        xi = spec.xi.xi
        _, _, x = default_state(spec, m=m, q0=1.0, level=c)
        direct = delay.gamma(x, xi, spec.d)
        closed = 1.0 + c * (spec.Atilde - xi) / xi
        assert direct == pytest.approx(closed, abs=2.0 / m ** 2)

    def test_short_lag_limit(self):
        # d -> 0: Gamma -> x0
        sp = build_ttb_spec(0.35, 0.05, 1e-6, 0.5, 0.2)
        x = structural_state(sp, 1.0,
                             HistorySegment.constant(1e-6, 8, 1.0))
        assert delay.gamma(x, sp.xi.xi, 1e-6) == pytest.approx(1.0, abs=1e-6)


class TestValue:
    def test_unit_gamma(self, spec):
        x = structural_state(spec, 1.0,
                             HistorySegment.constant(spec.d, 8, 0.0))
        assert delay.value(spec.delay, x) == pytest.approx(spec.nu / 0.5,
                                                           rel=1e-12)

    def test_homogeneity(self, spec):
        _, _, x = default_state(spec)
        v = delay.value(spec.delay, x)
        for k in (0.3, 2.0):
            assert delay.value(spec.delay, k * x) == pytest.approx(
                k ** 0.5 * v, rel=1e-12)

    def test_rejects_nonpositive_gamma(self, spec):
        x = structural_state(spec, -1.0,
                             HistorySegment.constant(spec.d, 8, 0.0))
        with pytest.raises(DomainError):
            delay.value(spec.delay, x)


class TestFeedback:
    def test_zero_tail_gives_linear_rule(self, spec):
        x = structural_state(spec, 2.0,
                             HistorySegment.constant(spec.d, 8, 0.0))
        assert delay.feedback(spec.delay, x) == pytest.approx(
            (1.0 - spec.alpha_mpc) * 2.0, rel=1e-12)

    def test_foc_against_scalar_maximizer(self, spec):
        _, _, x = default_state(spec, m=100)
        u_star = delay.feedback(spec.delay, x)
        g = delay.gamma(x, spec.xi.xi, spec.d)
        p = spec.Atilde * spec.nu * g ** -0.5 * np.exp(-spec.xi.xi * spec.d)
        lo, hi = delay.band(spec.delay, x[0])
        best = golden_max(lambda u: u * p + 2.0 * (x[0] - u) ** 0.5,
                          lo, hi * 0.999999999)
        assert u_star == pytest.approx(best, abs=1e-9)

    def test_domain_edge_rejected(self, spec):
        # push Gamma to the bound where the lower band constraint binds
        bound_coeff = spec.A / (spec.alpha_mpc * spec.Atilde)
        q0 = 1.0
        # constant tail level c solving Gamma = q0 * bound_coeff
        c = (q0 * bound_coeff - q0) / ((spec.Atilde - spec.xi.xi)
                                       / spec.xi.xi)
        u0 = HistorySegment.constant(spec.d, 400, c * 1.01)
        x = structural_state(spec, q0, u0)
        with pytest.raises(DomainError):
            delay.feedback(spec.delay, x)

    def test_consumption_positive_in_domain(self, spec):
        _, _, x = default_state(spec)
        u = delay.feedback(spec.delay, x)
        assert (spec.Atilde / spec.A) * (x[0] - u) > 0.0


class TestSimulate:
    def test_balanced_growth_rate(self, spec):
        q0, u0, _ = default_state(spec)
        traj = simulate_ttb(spec, q0, u0, 20.0)
        gs = np.array([delay.gamma(x, spec.xi.xi, spec.d)
                       for x in traj.states])
        slope = np.polyfit(traj.times, np.log(gs), 1)[0]
        assert slope == pytest.approx(spec.growth_rate, abs=1e-3)

    def test_value_match_with_tail(self, spec):
        from hjbkit.verify import value_match
        q0, u0, x = default_state(spec)
        vm = value_match(make_handle(spec, u0.dt), x, 30.0)
        assert vm.rel_gap < 5e-3

    def test_control_stays_in_band(self, spec):
        q0, u0, _ = default_state(spec)
        traj = simulate_ttb(spec, q0, u0, 20.0)
        assert traj.meta["band_ok"]
        assert traj.meta["consumption_positive"]

    def test_raw_payoff_rescaling(self, spec):
        q0, u0, _ = default_state(spec)
        traj = simulate_ttb(spec, q0, u0, 5.0)
        assert traj.meta["raw_payoff"] == pytest.approx(
            spec.utility_rescale * traj.payoff, rel=1e-12)

    def test_homogeneous_scaling(self, spec):
        q0, u0, _ = default_state(spec)
        k = 3.0
        t1 = simulate_ttb(spec, q0, u0, 5.0)
        t2 = simulate_ttb(spec, k * q0,
                          HistorySegment(spec.d, k * u0.values), 5.0)
        assert np.allclose(k * np.array([x[0] for x in t1.states]),
                           np.array([x[0] for x in t2.states]), rtol=1e-10)
        assert t2.payoff == pytest.approx(k ** 0.5 * t1.payoff, rel=1e-10)

    def test_domain_exit_aborts(self):
        # a heavy discount makes the feedback hit the irreversibility band
        sp = build_ttb_spec(0.35, 0.05, 1.0, 0.5, 0.34)
        q0 = 1.0
        u0 = HistorySegment.constant(1.0, 100, 0.12)
        with pytest.raises(DomainExitError):
            simulate_ttb(sp, q0, u0, 80.0)


class TestOpenLoopDDE:
    def test_history_off_the_lag_rejected(self, spec):
        # a state array holds no lag of its own, so a control history on
        # [-2d, 0] would run at the spacing d/m if not refused
        u0 = HistorySegment.constant(2.0 * spec.d, 8, 1.0)
        for run in (simulate_ttb, integrate_openloop_dde):
            with pytest.raises(ValueError, match="history covers"):
                run(spec, 1.0, u0, 1.0)

    def test_stationary_zero_control_balance(self, spec):
        # a u == 0 path solves the control equation with zero residual
        from hjbkit.gridcore import Trajectory
        m = 100
        dt = spec.d / m
        n = 3 * m
        times = dt * np.arange(n + 1)
        traj = Trajectory(times, [None] * (n + 1), [0.0] * (n + 1),
                          np.zeros(n + 1))
        assert openloop_dde_residual(spec, traj) < 1e-14

    def test_residual_shrinks_under_refinement(self, spec):
        worst = []
        for m in (100, 200):
            q0, u0, _ = default_state(spec, m=m)
            traj = simulate_ttb(spec, q0, u0, 3.0)
            worst.append(openloop_dde_residual(spec, traj))
        assert worst[1] < 0.6 * worst[0]

    def test_feedback_and_dde_paths_agree(self, spec):
        # identical initial data, two independent integration routes; the
        # constant history level is chosen feedback-consistent (no control
        # jump at t = 0), so both routes integrate a smooth path
        xi, al = spec.xi.xi, spec.alpha_mpc
        q0 = 1.0
        c = (1.0 - al) * q0 / (1.0 + al * (spec.Atilde - xi) / xi)
        u0 = HistorySegment.constant(spec.d, 200, c)
        traj = simulate_ttb(spec, q0, u0, 2.0 * spec.d)
        dde = integrate_openloop_dde(spec, q0, u0, 2.0 * spec.d)
        diff = np.max(np.abs(np.array([float(u) for u in traj.controls])
                             - np.array([float(u) for u in dde.controls])))
        assert diff < 1e-4

    def test_too_short_trajectory_rejected(self, spec):
        q0, u0, _ = default_state(spec, m=50)
        traj = simulate_ttb(spec, q0, u0, 0.5 * spec.d)
        with pytest.raises(ValueError):
            openloop_dde_residual(spec, traj)


class TestHJBResidual:
    def test_refines_at_second_order(self, spec):
        worst = []
        for m in (400, 800):
            rng = np.random.default_rng(17)
            vals = []
            for _ in range(5):
                q = float(rng.uniform(0.9, 1.3))
                s = np.linspace(-spec.d, 0.0, m + 1)
                x = np.pi * (s + spec.d) / spec.d
                c = rng.normal(size=3) * np.array([0.2, 0.15, 0.1])
                hist = HistorySegment(
                    spec.d, 0.6 * np.exp(c[0] + c[1] * np.cos(x)
                                         + c[2] * np.sin(x)))
                st = structural_state(spec, q, hist)
                vals.append(hjb_residual_ttb(spec, st))
            worst.append(max(vals))
        assert worst[0] < 1e-5
        assert worst[1] < 0.5 * worst[0]


def test_coarse_dp_oracle_brackets_value(spec):
    from hjbkit.verify import _rollout, brute_force_value
    u0 = HistorySegment.constant(spec.d, 8, 1.0)
    x = structural_state(spec, 1.0, u0)
    handle = make_handle(spec, u0.dt)
    seed = _rollout(handle, x, 5.0 / spec.rho, 1.0).controls[:-1]
    bracket = brute_force_value(delay.oracle_problem(spec.delay, u0.dt), x,
                                seed)
    v = delay.value(spec.delay, x)
    assert bracket.contains(v, 0.03)
