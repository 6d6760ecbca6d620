import numpy as np
import pytest

from hjbkit.errors import AssumptionError
from hjbkit.gridcore import AgeGrid, joined
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.verify import _rollout, scaled
from hjbkit.vintage_transport import (build_transport_spec,
                                      hamiltonian_transport,
                                      hjb_residual_transport, make_handle,
                                      simulate_transport, value_transport)
from reference import Recorder, optimal_trajectory_closed_form, recorded


def make_spec(m_age=200, mu=0.15, rho=0.06, sbar=2.0, q0=0.12, beta0=0.6):
    age = AgeGrid(sbar, m_age)
    s = age.nodes
    return build_transport_spec(mu, rho, age, 1.0 - s / sbar, q0, beta0,
                                0.1 * (1.0 - s / sbar) ** 2,
                                np.full(m_age + 1, 0.5))


@pytest.fixture(scope="module")
def spec():
    return make_spec()


def initial_profile(age):
    return 0.3 * (1.0 - age.nodes / age.sbar) + 0.1


class TestBuildSpec:
    def test_zero_revenue_flags_negative_controls(self):
        age = AgeGrid(2.0, 50)
        sp = build_transport_spec(0.1, 0.05, age, np.zeros(51), 0.2, 0.6,
                                  np.full(51, 0.1), np.full(51, 0.5))
        assert np.all(sp.abar == 0.0)
        assert sp.u0_star == pytest.approx(-0.2 / 1.2)
        assert not sp.positivity_ok

    def test_constant_revenue_resolvent(self):
        age = AgeGrid(2.0, 400)
        ahat, rho, mu = 2.0, 0.06, 0.15
        # constant alpha violates alpha(sbar)=0, so check via the resolvent
        # through a spec with the terminal sample forced to zero is unfair;
        # use the direct formula instead on an admissible nearby profile
        from hjbkit.spectral import transport_resolvent
        abar = transport_resolvent(np.full(401, ahat), rho, mu, age)
        k = rho + mu
        assert abar[0] == pytest.approx(ahat * (1 - np.exp(-k * 2.0)) / k,
                                        abs=1e-10)

    def test_assumption_violations_named(self):
        age = AgeGrid(2.0, 50)
        s = age.nodes
        with pytest.raises(AssumptionError, match="vanish at sbar"):
            build_transport_spec(0.1, 0.05, age, np.full(51, 1.0), 0.2, 0.6,
                                 0.1 * (1 - s / 2) ** 2, np.full(51, 0.5))
        with pytest.raises(AssumptionError, match="nonincreasing"):
            build_transport_spec(0.1, 0.05, age, s * (2.0 - s) / 2.0, 0.2,
                                 0.6, 0.1 * (1 - s / 2) ** 2,
                                 np.full(51, 0.5))
        with pytest.raises(AssumptionError, match="dominate"):
            build_transport_spec(0.1, 0.05, age, 1.0 - s / 2, 0.01, 0.6,
                                 0.1 * (1 - s / 2) ** 2 + 0.05,
                                 np.full(51, 0.5))

    def test_positivity_condition_detected(self, spec):
        assert spec.positivity_ok
        assert spec.q0 <= spec.abar[0]
        bad = make_spec(q0=0.9)  # q0 above abar(0) ~ 0.77
        assert not bad.positivity_ok


    def test_profiles_are_read_only_copies(self):
        # the handle hands out u1_star and reuses a control's terms by
        # identity, so no write may go through a spec profile; the
        # caller's own arrays are copied, not frozen or changed
        age = AgeGrid(2.0, 50)
        s = age.nodes
        given = [1.0 - s / 2.0, 0.1 * (1.0 - s / 2.0) ** 2, np.full(51, 0.5)]
        before = [a.copy() for a in given]
        sp = build_transport_spec(0.1, 0.05, age, given[0], 0.2, 0.6,
                                  given[1], given[2])
        for profile in (sp.alpha_rev, sp.q1, sp.beta1, sp.abar, sp.u1_star):
            with pytest.raises(ValueError, match="read-only"):
                profile[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                profile *= 2.0
        _, u1 = make_handle(sp).feedback(initial_profile(age))
        assert u1 is sp.u1_star
        for a, b in zip(given, before):
            assert a.flags.writeable and np.array_equal(a, b)
            a[0] += 1.0
        assert sp.alpha_rev[0] == before[0][0]
        assert sp.q1[0] == before[1][0] and sp.beta1[0] == before[2][0]


class TestValue:
    def test_zero_state_constant_part(self, spec):
        v0 = value_transport(spec, np.zeros(spec.age.m + 1))
        const = (spec.abar[0] - spec.q0) ** 2 / (4 * spec.rho * spec.beta0) \
            + spec.age.quad((spec.abar - spec.q1) ** 2
                            / (4 * spec.rho * spec.beta1))
        assert v0 == pytest.approx(const, rel=1e-12)

    def test_affine_in_state(self, spec):
        rng = np.random.default_rng(3)
        x = rng.random(spec.age.m + 1)
        z = rng.random(spec.age.m + 1)
        lhs = value_transport(spec, x + z) - value_transport(spec, z)
        assert lhs == pytest.approx(spec.age.quad(spec.abar * x), rel=1e-10)

    def test_constant_data_scalar_reduction(self):
        # mu=0, beta1 const, q1 = 0, alpha linear: every term integrable by hand
        age = AgeGrid(1.0, 800)
        s = age.nodes
        rho = 0.5
        sp = build_transport_spec(0.0, rho, age, 1.0 - s, 0.1, 0.5,
                                  np.zeros(801), np.full(801, 0.5))
        # abar(s) = int_s^1 e^{-rho(r-s)}(1-r)dr
        k = rho
        exact_abar = (1 - s) / k - 1 / k ** 2 + np.exp(-k * (1 - s)) / k ** 2
        assert np.max(np.abs(sp.abar - exact_abar)) < 1e-6
        v = value_transport(sp, np.zeros(801))
        from scipy.integrate import quad
        integral, _ = quad(lambda t: ((1 - t) / k - 1 / k ** 2
                                      + np.exp(-k * (1 - t)) / k ** 2) ** 2
                           / (4 * rho * 0.5), 0.0, 1.0)
        expected = (exact_abar[0] - 0.1) ** 2 / (4 * rho * 0.5) + integral
        assert v == pytest.approx(expected, rel=1e-5)


class TestHamiltonian:
    def test_zero_at_matched_costate(self):
        # with q0 = q1(0), the costate p = q1 kills both maximizers exactly
        sp = make_spec(q0=0.1)
        u0, u1, val = hamiltonian_transport(sp, sp.q1)
        assert u0 == 0.0
        assert np.all(u1 == 0.0)
        assert val == 0.0

    def test_quadratic_scalar_oracle(self, spec):
        from oracle_helpers import golden_max
        rng = np.random.default_rng(11)
        p = rng.random(spec.age.m + 1)
        u0, u1, _ = hamiltonian_transport(spec, p)
        for j in rng.integers(0, spec.age.m + 1, size=5):
            pj, qj, bj = [float(v) for v in (p[j], spec.q1[j], spec.beta1[j])]
            best = golden_max(lambda u: (pj - qj) * u - bj * u * u, -5.0, 5.0)
            assert u1[j] == pytest.approx(best, abs=1e-10)

    def test_reproduces_optimal_controls(self, spec):
        u0, u1, _ = hamiltonian_transport(spec, spec.abar)
        assert u0 == pytest.approx(spec.u0_star, rel=1e-14)
        assert np.allclose(u1, spec.u1_star, rtol=1e-14)


class TestClosedFormTrajectory:
    def test_initial_condition(self, spec):
        z0 = initial_profile(spec.age)
        assert np.allclose(optimal_trajectory_closed_form(spec, z0, 0.0), z0,
                           atol=1e-14)

    def test_pure_translation_with_boundary_inflow(self):
        # mu = 0, u1* = 0, u0* = c: z is z0 shifted with constant inflow c
        age = AgeGrid(2.0, 100)
        s = age.nodes
        sp = build_transport_spec(0.0, 0.1, age, 1.0 - s / 2, 0.0, 0.5,
                                  np.zeros(101), np.full(101, 0.5))
        sp_no_u1 = type(sp)(sp.mu, sp.rho, sp.age, sp.alpha_rev, sp.q0,
                            sp.beta0, sp.q1, sp.beta1, sp.abar, sp.u0_star,
                            np.zeros(101), sp.positivity_ok)
        z0 = initial_profile(age)
        t = 0.7
        z = optimal_trajectory_closed_form(sp_no_u1, z0, t)
        for i, si in enumerate(s):
            if si >= t:
                expected = np.interp(si - t, s, z0)
            else:
                expected = sp.u0_star
            assert z[i] == pytest.approx(expected, abs=1e-12)

    def test_agreement_with_upwind_simulation(self, spec):
        z0 = initial_profile(spec.age)
        t_half = spec.age.sbar / 2
        traj = simulate_transport(spec, z0, T_end=t_half)
        z_closed = optimal_trajectory_closed_form(spec, z0, t_half)
        err = np.max(np.abs(z_closed - traj.final))
        assert err < spec.age.h  # within O(h_age)

    def test_agreement_shrinks_under_refinement(self):
        errs = []
        for m_age in (100, 200):
            sp = make_spec(m_age)
            z0 = initial_profile(sp.age)
            t_half = sp.age.sbar / 2
            traj = simulate_transport(sp, z0, T_end=t_half)
            errs.append(np.max(np.abs(
                optimal_trajectory_closed_form(sp, z0, t_half)
                - traj.final)))
        assert errs[1] < 0.55 * errs[0]


class TestSimulate:
    def test_exact_shift_at_cfl_one(self):
        age = AgeGrid(2.0, 64)
        s = age.nodes
        sp = build_transport_spec(0.0, 0.1, age, 1.0 - s / 2, 0.0, 0.5,
                                  np.zeros(65), np.full(65, 0.5))
        z0 = np.sin(np.pi * s / 2.0) + 0.2
        # the feedback scaled by 0: no inflow and no source
        traj = _rollout(scaled(make_handle(sp), 0.0), z0, 10 * age.h)
        shifted = traj.final
        assert np.allclose(shifted[10:], z0[:-10], atol=1e-14)
        assert np.allclose(shifted[:10], 0.0, atol=1e-14)

    def test_converges_to_stationary_profile(self, spec):
        # after age-out of z0 the simulation sits on the time-independent
        # profile; the closed-form evaluation differs only by its O(h^2)
        # quadrature route
        z0 = initial_profile(spec.age)
        traj = simulate_transport(spec, z0, T_end=4.0 * spec.age.sbar)
        stationary = optimal_trajectory_closed_form(
            spec, np.zeros(spec.age.m + 1), 10.0 * spec.age.sbar)
        assert np.max(np.abs(traj.final - stationary)) < spec.age.h ** 2

    def test_positivity_under_footnote_condition(self, spec):
        assert spec.positivity_ok
        z0 = initial_profile(spec.age)
        traj = simulate_transport(spec, z0, T_end=10.0)
        assert traj.meta["min_state"] >= -1e-12

    def test_open_loop_controls_state_independent(self, spec):
        z0 = initial_profile(spec.age)
        _, rec = recorded(simulate_transport, spec, z0, 1.0)
        u0s = {c[0] for c in rec.controls}
        assert u0s == {spec.u0_star}
        for _, u1 in rec.controls[:3]:
            assert np.array_equal(u1, spec.u1_star)


class TestHJBResidual:
    def test_discrete_costate_identity(self, spec):
        # rho*abar - abar' + mu*abar = alpha within O(h)
        from hjbkit.gridcore import fd_derivative as _fd_derivative
        lhs = (spec.rho + spec.mu) * spec.abar \
            - _fd_derivative(spec.abar, spec.age.h)
        assert np.max(np.abs(lhs - spec.alpha_rev)) < 10.0 * spec.age.h ** 2

    def test_residual_small_and_refines(self):
        results = []
        for m_age in (256, 512):
            sp = make_spec(m_age)
            rng = np.random.default_rng(7)
            vals = []
            for _ in range(5):
                x = np.exp(rng.normal(size=3)[0] * 0.2
                           + 0.3 * np.sin(np.pi * sp.age.nodes / 2.0)
                           * rng.normal())
                vals.append(hjb_residual_transport(sp, x))
            results.append(max(vals))
        assert results[0] < 1e-5
        assert results[1] < 0.5 * results[0]

    def test_residual_twenty_random_states(self):
        # the gradient is state-independent, so the defect paired with 20
        # random smooth profiles drops below 1e-6 once the O(h^2) of the
        # finite-difference route allows (m = 1024 for these amplitudes;
        # the 1e-5 @ 512 acceptance bound is covered separately)
        sp = make_spec(1024)
        s = sp.age.nodes
        rng = np.random.default_rng(23)
        for _ in range(20):
            c = rng.normal(size=3) * 0.3
            x = np.exp(c[0] + c[1] * np.sin(np.pi * s / 2.0)
                       + c[2] * np.cos(np.pi * s / 2.0))
            assert hjb_residual_transport(sp, x) < 1e-6


def test_value_match_and_suboptimality(spec):
    from hjbkit.verify import suboptimality_margin, value_match
    handle = make_handle(spec)
    z0 = initial_profile(spec.age)
    vm = value_match(handle, z0, 30.0)
    assert vm.rel_gap < 5e-3
    assert suboptimality_margin(handle, z0, 30.0) > 5e-3


def test_total_capital_column_is_each_states_quad():
    # run's total_capital reduces a block's stacked states at once; it must
    # be AgeGrid.quad of each state, bit for bit, on the default run and
    # on 130 random profiles (two full blocks and a partial one)
    sc = build_scenario(default_config("vintage-transport"))
    rec = Recorder()
    traj = sc.simulate(joined(sc.state_columns, rec))
    quad = sc.spec.age.quad
    assert len(rec.states) == 1001
    assert list(traj.columns["total_capital"]) == [quad(z) for z in rec.states]
    states = list(np.random.default_rng(5).lognormal(size=(130, 201)))
    got = sc.state_columns(states, [(0.0, None)] * 130)["total_capital"]
    assert list(got) == [quad(z) for z in states]
