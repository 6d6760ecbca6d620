"""The delay core's tail integral and residual test states, the closed
loops of the delay and age models, on state arrays, and the DP oracle's
batch run, checked bit for bit against loops written over the public
functions."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from reference import oracle_batch_run

from hjbkit import delay, time_to_build, vintage_dde
from hjbkit.errors import DomainError, DomainExitError, GridError
from hjbkit.errors import AssumptionError, NumericsError
from hjbkit.gridcore import AgeGrid, HistorySegment, discounted_quadrature
from hjbkit.scenarios import build_scenario, default_config, _delay_test_state
from hjbkit.time_to_build import build_ttb_spec
from hjbkit.verify import ModelHandle, _rollout, brute_force_value, scaled
from hjbkit.vintage_dde import build_vintage_spec, lift_vintage
from hjbkit.vintage_transport import (_source_cell_integrals,
                                      build_transport_spec, make_handle,
                                      value_transport)


def tail_integral(d, m, c, rate):
    """int_{-d}^0 e^{rate s} c ds by delay.gamma, on a zero head."""
    return delay.gamma(np.r_[0.0, np.full(m + 1, c)], rate, d)


class TestTailIntegral:
    def test_zero_history(self):
        assert tail_integral(1.0, 8, 0.0, 1.0) == 0.0
        assert delay.gamma(np.r_[1.5, np.zeros(9)], 1.0, 1.0) == 1.5

    def test_plain_length(self):
        assert tail_integral(2.0, 16, 1.0, 0.0) == pytest.approx(2.0,
                                                                 abs=1e-12)

    def test_exponential_second_order(self):
        # analytic: int_{-1}^0 e^s ds = 1 - 1/e
        exact = 1.0 - np.exp(-1.0)
        errs = [abs(tail_integral(1.0, m, 1.0, 1.0) - exact)
                for m in (50, 100)]
        assert errs[0] < (1.0 / 50) ** 2
        assert errs[1] < errs[0] / 3.0


# -- the Heun loop -----------------------------------------------------------

def spacing(model, x):
    """The step L/m of a state array of m + 2 entries."""
    return model.lag / (len(x) - 2)


def reference_simulate(model, state0, T_end):
    """delay.simulate written over the public functions: the feedback is
    delay.feedback, with no weights of its own, and the predictor is the
    state a handle's step returns, whose head is then corrected."""
    dt = spacing(model, state0)
    step = delay.make_handle(model, dt).step

    def control(state, t):
        try:
            return delay.feedback(model, state)
        except DomainError as exc:
            raise DomainExitError(t, delay.diagnostics(model, state)) from exc

    a, b, c, s = model.a, model.b, model.c, model.sigma
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls = [], []
    integrand = np.empty(n_steps + 1)
    state = state0.copy()
    for n in range(n_steps + 1):
        t = float(times[n])
        state[1] = c * control(state, t)
        u = control(state, t)
        state[1] = c * u
        states.append(state)
        controls.append(u)
        x0 = state[0]
        integrand[n] = (a * x0 - u) ** (1.0 - s) / (1.0 - s)
        if n == n_steps:
            break
        pred = step(state, u)
        u_pred = control(pred, float(times[n + 1])) if b else 0.0
        pred[0] = x0 + 0.5 * dt * ((b * u + state[-1])
                                   + (b * u_pred + state[-2]))
        state = pred
    running = discounted_quadrature(times, integrand, model.rho)
    return times, states, controls, running


def found_ttb_config():
    # a start output far above its control history, where a sampler with a
    # fixed output box found no interior test state
    cfg = default_config("time-to-build")
    cfg["params"]["rho"] = 0.25
    cfg["initial"]["q0"] = 20.0
    return cfg


def consumption_share(model, state):
    """kappa*Gamma over its band room*x0: in (0, 1) inside the domain."""
    return model.kappa * delay.gamma(state, model.xi, model.lag) \
        / (model.room * state[0])


def hand_model(c, kappa, room=1.2):
    return delay.DelayModel(lag=1.0, xi=0.3, nu=1.0, sigma=0.5, rho=0.2,
                            a=1.0, b=0.0, c=c, kappa=kappa, room=room,
                            head_envelope=1.0, head_name="head")


class TestDelayTestStates:
    @pytest.mark.parametrize("config", [
        default_config("vintage-dde"), default_config("time-to-build"),
        found_ttb_config()], ids=["vintage-dde", "time-to-build", "found"])
    @pytest.mark.parametrize("m", [16, 400])
    def test_scenario_samples_are_interior(self, config, m):
        sc = build_scenario(config)
        model = sc.spec.delay
        for seed in range(10):
            state = sc.sample_state(np.random.default_rng(seed), m)
            assert len(state) == m + 2
            lower, _ = delay.band(model, state[0])
            assert delay.feedback(model, state) > lower
            assert 0.0 < consumption_share(model, state) < 1.0

    @pytest.mark.parametrize("c, kappa", [(-0.5, 0.3), (-0.5, 3.0),
                                          (0.5, 0.3)])
    def test_hand_built_models_sample_inside_the_margin(self, c, kappa):
        model = hand_model(c, kappa)
        edge = kappa / model.room
        lo, hi = (edge, 1.0) if c > 0.0 else (0.0, min(edge, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(10):
                state = _delay_test_state(model, np.random.default_rng(seed),
                                          16)
                delay.feedback(model, state)
                share = consumption_share(model, state)
                width = hi - lo
                assert lo + 0.1 * width - 1e-12 <= share \
                    <= lo + 0.9 * width + 1e-12

    @pytest.mark.parametrize("kappa", [1.2, 3.0])
    def test_positive_tail_needs_kappa_below_room(self, kappa):
        # c > 0 gives Gamma > x0, so kappa >= room leaves no interior head;
        # at kappa == room the head formula would divide by zero
        model = hand_model(0.5, kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssumptionError, match="no interior test state"):
                _delay_test_state(model, np.random.default_rng(0), 16)


M = 40  # history samples: off the defaults' 200


def vintage_start(spec, m=M):
    iota = HistorySegment.from_function(
        spec.T_scrap, m, lambda s: 1.0 + 0.3 * np.sin(2.0 * s) + 0.1 * s)
    return lift_vintage(spec, iota)


def ttb_start(spec, m=M):
    u0 = HistorySegment.from_function(
        spec.d, m, lambda s: 0.5 + 0.2 * np.cos(3.0 * s))
    return delay.lift(spec.delay, 1.0, u0)


# sigma 0.7 on both delay models; vintage has b != 0 (predictor feedback),
# time-to-build b = 0
CASES = {
    "vintage": (lambda: build_vintage_spec(1.0, 2.0, 0.7, 0.45),
                vintage_start),
    "ttb": (lambda: build_ttb_spec(0.35, 0.05, 1.0, 0.7, 0.2), ttb_start),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    build, start = CASES[request.param]
    spec = build()
    return spec.delay, start(spec)


def model_lift(name, head, hist):
    """The lift of a head and history by the CASES model ``name``, built:
    delay.lift on its constants, the one lift of an arbitrary head."""
    return delay.lift(CASES[name][0]().delay, head, hist)


class TestLift:
    """Both models' lifts go through delay.lift, the one edge where a
    history still knows its lag; lift_vintage heads it with the history's
    integral."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_history_on_another_lag_rejected(self, name):
        lag = CASES[name][0]().delay.lag
        with pytest.raises(ValueError, match="history covers"):
            model_lift(name, 1.0, HistorySegment.constant(lag + 1.0, 8, 1.0))

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("head", [np.nan, np.inf, -np.inf])
    def test_nonfinite_head_rejected(self, name, head):
        lag = CASES[name][0]().delay.lag
        with pytest.raises(GridError):
            model_lift(name, head, HistorySegment.constant(lag, 8, 0.0))

    def test_overflowing_tail_rejected(self):
        # c * u past the float range would start a loop on an infinite tail
        hist = HistorySegment.constant(1.0, 8, 1e300)
        with np.errstate(over="ignore"), \
                pytest.raises(GridError, match="finite"):
            delay.lift(hand_model(1e10, 0.3), 1.0, hist)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_model_lift_is_c_times_the_reversed_history(self, name):
        model = CASES[name][0]().delay
        hist = HistorySegment.from_function(model.lag, 8, np.exp)
        got = model_lift(name, 1.5, hist)
        assert got[0] == 1.5
        assert np.array_equal(got[1:], model.c * hist.values[::-1])


def assert_same_run(got, want):
    times, states, controls, running = want
    assert np.array_equal(got.times, times)
    assert got.controls == controls
    assert np.array_equal(got.running_payoff, running)
    assert len(got.states) == len(states)
    for a, b in zip(got.states, states):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


def assert_same_exit(run, reference):
    with pytest.raises(DomainExitError) as got:
        run()
    with pytest.raises(DomainExitError) as want:
        reference()
    assert got.value.time == want.value.time
    assert got.value.diagnostics == want.value.diagnostics
    assert str(got.value) == str(want.value)
    assert str(got.value.__cause__) == str(want.value.__cause__)
    return got.value


class TestSimulate:
    def test_equals_reference_loop(self, case):
        model, state0 = case
        traj = delay.simulate(model, state0, 6.0)
        assert_same_run(traj, reference_simulate(model, state0, 6.0))

    def test_start_state_is_not_written(self, case):
        model, state0 = case
        before = state0.copy()
        delay.simulate(model, state0, 1.0)
        assert np.array_equal(state0, before)

    def test_recorded_tails_are_distinct(self, case):
        model, state0 = case
        states = delay.simulate(model, state0, 1.0).states
        assert len({id(st) for st in states}) == len(states)
        assert not any(np.shares_memory(a, b)
                       for a, b in zip(states, states[1:]))

    def test_domain_exit_mid_run(self):
        steep = build_vintage_spec(1.0, 2.0, 0.5, 0.95)
        state0 = vintage_start(steep)
        exc = assert_same_exit(
            lambda: delay.simulate(steep.delay, state0, 60.0),
            lambda: reference_simulate(steep.delay, state0, 60.0))
        assert exc.time > 1.0

    def test_domain_exit_at_start(self):
        sp = build_ttb_spec(0.35, 0.05, 1.0, 0.5, 0.34)
        state0 = delay.lift(sp.delay, 1.0, HistorySegment.constant(
            1.0, M, 0.12))
        exc = assert_same_exit(
            lambda: delay.simulate(sp.delay, state0, 10.0),
            lambda: reference_simulate(sp.delay, state0, 10.0))
        assert exc.time == 0.0

    def test_non_finite_predictor_raises(self):
        # a head at the edge of the float range: the control is finite but
        # the Euler predictor's head overflows, which the loop's own
        # errstate reports as _rollout does, whatever the caller's
        spec = build_vintage_spec(1.0, 2.0, 0.7, 0.45)
        big = vintage_start(spec)
        big[0] = 1.79e308
        with np.errstate(over="ignore"):
            with pytest.raises(GridError):
                reference_simulate(spec.delay, big, 1.0)
            with pytest.raises(NumericsError,
                               match="left the float range at t = 0 "):
                delay.simulate(spec.delay, big, 1.0)


# -- the handles' rollouts ---------------------------------------------------

def in_domain(model, state):
    """The delay domain stated apart from the feedback, in gamma()'s
    arithmetic: Gamma > 0 and kappa*Gamma < room*x0."""
    g = delay.gamma(state, model.xi, model.lag)
    return g > 0.0 and model.kappa * g < model.room * state[0]


def policy(handle, scale):
    """The handle itself at scale 1, else the suboptimal probe's handle,
    its feedback scaled."""
    return handle if scale == 1.0 else scaled(handle, scale)


def public_delay_handle(model, dt):
    """The delay handle's value and feedback written over the public
    functions, with the domain tested apart from the feedback; the feedback
    must raise DomainError on exactly the states that test rejects.  The
    step and payoff are the handle's own."""
    own = delay.make_handle(model, dt)

    def feedback(state):
        if in_domain(model, state):
            return delay.feedback(model, state)
        with pytest.raises(DomainError) as exc:
            delay.feedback(model, state)
        raise exc.value

    return ModelHandle(
        value=functools.partial(delay.value, model),
        feedback=feedback,
        step=own.step,
        running_payoff=own.running_payoff,
        rho=model.rho,
        dt=dt,
        diagnostics=functools.partial(delay.diagnostics, model),
    )


class TestDelayHandle:
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_rollout_equals_public_functions(self, case, scale):
        model, state0 = case
        dt = spacing(model, state0)
        got = _rollout(policy(delay.make_handle(model, dt), scale), state0,
                       60 * dt)
        want = _rollout(policy(public_delay_handle(model, dt), scale), state0,
                        60 * dt)
        assert_same_run(got, (want.times, want.states, want.controls,
                              want.running_payoff))

    def test_nan_gamma_is_outside_the_domain(self, case):
        # the feedback is the one domain test, so it must reject what the
        # inequalities cannot order
        model, _ = case
        for head, g in ((1.0, np.nan), (np.nan, 1.0)):
            with pytest.raises(DomainError):
                delay._steer(model, head, g)

    @pytest.mark.parametrize("rho, scale", [(1.2, 1.0), (0.95, 0.5)])
    def test_domain_exit_mid_run(self, rho, scale):
        # the band binds (rho 1.2), or the probe drives Gamma negative
        steep = build_vintage_spec(1.0, 2.0, 0.5, rho)
        state0, model = vintage_start(steep), steep.delay
        exc = assert_same_exit(
            lambda: _rollout(policy(delay.make_handle(model, 0.05), scale),
                             state0, 400 * 0.05),
            lambda: _rollout(policy(public_delay_handle(model, 0.05), scale),
                             state0, 400 * 0.05))
        assert exc.time > 1.0

    def test_non_finite_control_raises(self, case):
        model, state0 = case
        dt = spacing(model, state0)
        for handle in (delay.make_handle(model, dt),
                       public_delay_handle(model, dt)):
            with pytest.raises(GridError):
                _rollout(scaled(handle, np.inf), state0, 5 * dt)


class TestStepSize:
    """A handle and the oracle's problem are made for one step, the
    spacing of the state arrays they shift; any other step would shift one
    sample anyway and integrate silently wrong, so it is refused."""

    def test_shift_steps_the_states_own_spacing(self, case):
        model, state0 = case
        u = delay.feedback(model, state0)
        for m in (M, 2 * M):
            state = np.r_[state0[0], np.full(m + 1, state0[-1])]
            got = delay.make_handle(model, model.lag / m).step(state, u)
            assert got[0] == state[0] + model.lag / m * (
                model.b * u + state[-1])
            assert len(got) == m + 2

    def test_handle_refuses_another_spacing(self, case):
        model, state0 = case
        dt = spacing(model, state0)
        handle = delay.make_handle(model, 2.0 * dt)
        assert handle.dt == 2.0 * dt
        with pytest.raises(GridError, match="spacing"):
            handle.step(state0, delay.feedback(model, state0))
        with pytest.raises(GridError, match="spacing"):
            _rollout(handle, state0, 10 * dt)

    @pytest.mark.parametrize("dt", [0.0, -0.05, np.nan])
    def test_handle_needs_a_positive_step(self, case, dt):
        # no history has such a spacing; refused when the handle is made,
        # before a rollout divides its horizon by it
        model, _ = case
        with pytest.raises(ValueError, match="dt must be positive"):
            delay.make_handle(model, dt)

    @pytest.mark.parametrize("module, name", [(vintage_dde, "vintage"),
                                              (time_to_build, "ttb")])
    def test_model_handles_refuse_another_spacing(self, module, name):
        build, start = CASES[name]
        spec = build()
        state0 = start(spec)
        handle = module.make_handle(spec, 2.0 * spacing(spec.delay, state0))
        with pytest.raises(GridError, match="spacing"):
            handle.step(state0, handle.feedback(state0))

    def test_oracle_problem_refuses_another_spacing(self, case):
        model, state0 = case
        dt = spacing(model, state0)
        seed = _rollout(delay.make_handle(model, dt), state0,
                        4 * dt).controls[:-1]
        problem = delay.oracle_problem(model, 2.0 * dt)
        assert problem.dt == 2.0 * dt
        with pytest.raises(GridError, match="spacing"):
            problem.run(state0, np.array([seed]))
        with pytest.raises(GridError, match="spacing"):
            brute_force_value(problem, state0, seed)
        slacks, _ = delay.oracle_problem(model, dt).run(state0,
                                                       np.array([seed]))
        assert slacks[0, 0] == model.a * state0[0] - seed[0]

    @pytest.mark.parametrize("bad", ["short", "long", "tiny", "2-D",
                                     "history"])
    def test_a_wrong_shape_is_a_grid_error(self, case, bad):
        # a state array of another length, or anything else, must be a
        # GridError naming the spacing from every callback that takes a
        # state, never an AttributeError or a numpy broadcast error.  The
        # residual is taken at a state's own m, so a shorter or longer
        # array is a state to it, just one at another spacing
        model, state0 = case
        dt = spacing(model, state0)
        handle = delay.make_handle(model, dt)
        problem = delay.oracle_problem(model, dt)
        u = handle.feedback(state0)
        wrong = {"short": state0[:-1], "long": np.r_[state0, state0[-1]],
                 "tiny": state0[:3], "2-D": state0[np.newaxis],
                 "history": HistorySegment(model.lag, state0[1:])}[bad]
        calls = [lambda: handle.value(wrong),
                 lambda: handle.feedback(wrong),
                 lambda: handle.step(wrong, u),
                 lambda: handle.running_payoff(wrong, u),
                 lambda: problem.run(wrong, np.full((1, 3), u))]
        if bad in ("short", "long"):
            assert np.isfinite(delay.hjb_residual(model, wrong))
        else:
            calls.append(lambda: delay.hjb_residual(model, wrong))
        for call in calls:
            with pytest.raises(GridError, match="spacing"):
                call()

    @pytest.mark.parametrize("bad", ["short", "batch", "history",
                                     "no length"])
    def test_handle_refusals_are_state_checks(self, case, bad):
        # the handle binds the one length at its spacing; anything else
        # reaches _state, so each callback raises _state's own GridError
        model, state0 = case
        dt = spacing(model, state0)
        wrong = {"short": state0[:-1], "no length": state0,
                 "batch": np.stack([state0, state0]),
                 "history": HistorySegment(model.lag, state0[1:])}[bad]
        if bad == "no length":
            dt *= 0.7  # L/m == dt for no m
            assert all(model.lag / m != dt for m in range(4, 10 * M))
        with pytest.raises(GridError) as want:
            delay._state(model, wrong, dt)
        handle = delay.make_handle(model, dt)
        u = delay.feedback(model, state0)
        for call in (lambda: handle.value(wrong),
                     lambda: handle.feedback(wrong),
                     lambda: handle.step(wrong, u),
                     lambda: handle.running_payoff(wrong, u)):
            with pytest.raises(GridError) as got:
                call()
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("skew", [1.0, 1.0 + 2e-16, 0.5, 1.5])
    def test_handle_takes_the_lengths_state_takes(self, case, skew):
        # the bound length is _state's rule, never a length of its own
        model, state0 = case
        for cells in (1, 3, 4, 7, 8, 50, 200):
            dt = model.lag / cells * skew
            handle = delay.make_handle(model, dt)
            for n in range(2 * cells + 8):
                x = np.r_[state0[0], np.full(n - 1, state0[-1])] if n \
                    else np.empty(0)
                try:
                    delay._state(model, x, dt)
                except GridError:
                    with pytest.raises(GridError):
                        handle.step(x, 0.0)
                else:
                    assert len(handle.step(x, 0.0)) == n

    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    def test_oracle_problem_needs_sigma_below_one(self, sigma):
        model = dataclasses.replace(hand_model(0.5, 0.3), sigma=sigma)
        with pytest.raises(AssumptionError, match="sigma < 1"):
            delay.oracle_problem(model, 0.25)


ORACLE_RUNS = {"vintage-dde, 5/rho": ("vintage-dde", 8, 5.0, 44),
               "time-to-build, 5/rho": ("time-to-build", 8, 5.0, 200),
               "vintage-dde m 16, 20/rho": ("vintage-dde", 16, 20.0, 356)}


@pytest.fixture(scope="module", params=list(ORACLE_RUNS))
def oracle_run(request):
    """A delay default at the oracle's m: its model, step and start, the
    feedback's seed over the horizon, and the steps that horizon takes."""
    name, m, efoldings, steps = ORACLE_RUNS[request.param]
    cfg = default_config(name)
    cfg["numerics"]["m"] = m
    sc = build_scenario(cfg)
    model, dt = sc.spec.delay, sc.handle.dt
    seed = np.array(_rollout(sc.handle, sc.state0,
                             efoldings / model.rho).controls[:-1])
    return model, dt, sc.state0, seed, steps


class TestOracleRun:
    """The oracle problem's whole-horizon ``run`` against the per-step
    batch loop of tests/reference.py, bit for bit."""

    def assert_same(self, oracle_run, controls, state0=None):
        model, dt, default_start, _, _ = oracle_run
        state0 = default_start if state0 is None else state0
        got = delay.oracle_problem(model, dt).run(state0, controls)
        want = oracle_batch_run(model, dt, state0, controls)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_one_row_runs_match_the_step_loop(self, oracle_run):
        state0, seed, steps = oracle_run[2:]
        assert len(seed) == steps
        rng = np.random.default_rng(7)
        jitter = 0.01 * rng.standard_normal(steps)
        self.assert_same(oracle_run, seed[np.newaxis])
        self.assert_same(oracle_run, (seed * (1.0 + jitter))[np.newaxis])
        # a start whose every tail sample differs, its placeholder too
        start = state0 * (1.0 + 0.01 * rng.standard_normal(len(state0)))
        self.assert_same(oracle_run, seed[np.newaxis], start)

    def test_impulse_batch_matches_the_step_loop(self, oracle_run):
        # the rows brute_force_value builds its affine map from
        n = oracle_run[4]
        self.assert_same(oracle_run, np.vstack([np.zeros(n), np.eye(n)]))

    def test_impulse_slacks_hold_each_constraint_once(self, oracle_run):
        # 5n + 2 distinct slacks, the first 2n the consumptions a x0 - u
        # at the left and right ends of each step, stepped row by row
        model, dt, state0, _, n = oracle_run
        controls = np.vstack([np.zeros(n), np.eye(n)])
        slacks, _ = delay.oracle_problem(model, dt).run(state0, controls)
        assert slacks.shape == (n + 1, 5 * n + 2)
        assert np.unique(slacks, axis=1).shape[1] == 5 * n + 2
        step = delay.make_handle(model, dt).step
        for row, us in zip(slacks, controls):
            heads = [state0[0]]
            x = state0
            for u in us:
                x = step(x, u)
                heads.append(x[0])
            heads = model.a * np.array(heads)
            np.testing.assert_array_equal(
                row[:2 * n], np.r_[heads[:-1] - us, heads[1:] - us])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_control_or_start_is_a_grid_error(self, oracle_run,
                                                           bad):
        model, dt, state0, seed, _ = oracle_run
        run = delay.oracle_problem(model, dt).run
        controls = np.array([seed, seed])
        controls[1, 2] = bad
        with pytest.raises(GridError, match="non-finite"):
            run(state0, controls)
        start = state0.copy()
        start[-1] = bad
        with pytest.raises(GridError, match="non-finite"):
            run(start, seed[np.newaxis])


def reference_transport_handle(spec):
    """The transport handle as written before its terms were reused: every
    step and payoff recomputes them."""
    h = spec.age.h

    def step(z, control):
        u0_now, u1_now = control
        z_new = np.empty_like(z)
        z_new[1:] = np.exp(-spec.mu * h) * z[:-1] \
            + _source_cell_integrals(u1_now, spec.mu, h)
        z_new[0] = u0_now
        return z_new

    def payoff(z, control):
        u0_now, u1_now = control
        return (spec.age.quad(spec.alpha_rev * z)
                - spec.age.quad(spec.q1 * u1_now + spec.beta1 * u1_now ** 2)
                - spec.q0 * u0_now - spec.beta0 * u0_now ** 2)

    def value(x):
        x = spec.age.profile(x)
        lin = spec.age.quad(spec.abar * x)
        const = (spec.abar[0] - spec.q0) ** 2 / (4.0 * spec.rho * spec.beta0) \
            + spec.age.quad((spec.abar - spec.q1) ** 2
                            / (4.0 * spec.rho * spec.beta1))
        return float(lin + const)

    return ModelHandle(
        value=value,
        feedback=lambda z: (spec.u0_star, spec.u1_star),
        step=step,
        running_payoff=payoff,
        rho=spec.rho,
        dt=h,
        scale_control=lambda c, s: (s * c[0], s * c[1]),
    )


@pytest.fixture(scope="module")
def skewed_transport():
    # off the default spec: 40 age cells, other rates, costs and profiles
    age = AgeGrid(2.0, 40)
    s = age.nodes
    return build_transport_spec(0.3, 0.09, age, (1.0 - s / 2.0) ** 1.5, 0.2,
                                0.9, 0.1 * (1.0 - s / 2.0) ** 2,
                                0.5 - 0.1 * s / 2.0)


def initial_profile(age):
    return 0.3 * (1.0 - age.nodes / age.sbar) + 0.1 * np.cos(age.nodes)


class TestTransportHandle:
    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_rollout_equals_reference(self, skewed_transport, scale):
        spec = skewed_transport
        z0 = initial_profile(spec.age)
        got = _rollout(policy(make_handle(spec), scale), z0, 80 * spec.age.h)
        want = _rollout(policy(reference_transport_handle(spec), scale), z0,
                        80 * spec.age.h)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.running_payoff, want.running_payoff)
        for a, b in zip(got.states, want.states):
            assert np.array_equal(a, b)
        for a, b in zip(got.controls, want.controls):
            assert a[0] == b[0] and np.array_equal(a[1], b[1])

    def test_step_is_the_age_step(self, skewed_transport):
        # the step moves one age cell, so the handle takes no step size
        spec = skewed_transport
        handle = make_handle(spec)
        assert handle.dt == spec.age.h
        z0 = initial_profile(spec.age)
        with pytest.raises(TypeError):
            make_handle(spec, spec.age.h)
        with pytest.raises(TypeError):
            handle.step(z0, handle.feedback(z0), spec.age.h)

    def test_feedback_is_one_shared_pair(self, skewed_transport):
        handle = make_handle(skewed_transport)
        z0 = initial_profile(skewed_transport.age)
        assert handle.feedback(z0) is handle.feedback(2.0 * z0)

    def test_callbacks_follow_each_control_and_state(self, skewed_transport):
        spec = skewed_transport
        handle, ref = make_handle(spec), reference_transport_handle(spec)
        z1 = initial_profile(spec.age)
        z2 = 0.5 * z1 + 0.2
        opt = handle.feedback(z1)
        controls = (opt, handle.scale_control(opt, 0.5), opt,
                    (0.1, spec.u1_star + 0.05))
        for u in controls:
            for z in (z1, z2, z1):
                assert handle.running_payoff(z, u) == ref.running_payoff(z, u)
                assert np.array_equal(handle.step(z, u), ref.step(z, u))

    def test_value_equals_reference(self, skewed_transport):
        spec = skewed_transport
        ref = reference_transport_handle(spec)
        z = initial_profile(spec.age)
        for x in (z, 3.0 * z, np.zeros_like(z)):
            assert value_transport(spec, x) == ref.value(x)
