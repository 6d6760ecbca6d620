import numpy as np
import pytest

from hjbkit import delay
from hjbkit.errors import DomainError, DomainExitError, GridError
from hjbkit.gridcore import CircleGrid, HistorySegment, Trajectory
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.spatial_growth import build_spatial_spec, make_handle as spatial_handle
from hjbkit.spatial_growth import simulate_spatial
from hjbkit.vintage_dde import (build_vintage_spec, lift_vintage,
                                make_handle as vintage_handle)
from hjbkit.verify import (ModelHandle, OracleProblem, VerifyReport,
                           brute_force_value,
                           dpp_check, suboptimality_margin, transversality,
                           value_match, _rollout)


@pytest.fixture(scope="module")
def spatial():
    grid = CircleGrid(128)
    spec = build_spatial_spec(grid.constant(0.04), grid.constant(1.0),
                              0.5, 0.05)
    return spec, spatial_handle(spec, 0.01), grid.constant(1.0)


@pytest.fixture(scope="module")
def vintage():
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    iota = HistorySegment.constant(2.0, 8, 1.0)
    state = lift_vintage(None, iota)
    return spec, vintage_handle(spec, iota.dt), state


@pytest.fixture(scope="module")
def problem(vintage):
    """The DP oracle's batched view of the vintage fixture's model."""
    return delay.oracle_problem(vintage[0].delay, vintage[1].dt)


class TestValueMatch:
    def test_identity_along_feedback(self, spatial):
        _, handle, x0 = spatial
        vm = value_match(handle, x0, 20.0)
        assert vm.rel_gap < 5e-3
        assert vm.total == pytest.approx(vm.payoff + vm.tail)

    def test_refinement_shrinks_gap(self, vintage):
        spec, _, _ = vintage
        gaps = []
        for m in (50, 100):
            iota = HistorySegment.constant(2.0, m, 1.0)
            st = lift_vintage(None, iota)
            handle = vintage_handle(spec, iota.dt)
            gaps.append(value_match(handle, st, 20.0).rel_gap)
        assert gaps[1] < 0.6 * gaps[0]

    def test_suboptimal_scores_strictly_lower(self, spatial):
        _, handle, x0 = spatial
        margin = suboptimality_margin(handle, x0, 20.0)
        assert margin > 5e-3


class TestDPP:
    def test_zero_window(self, spatial):
        _, handle, x0 = spatial
        assert dpp_check(handle, x0, 0.0) == 0.0

    def test_single_step_second_order(self, spatial):
        # one handle per step size: a handle integrates the one it was
        # made for
        spec, _, x0 = spatial
        gaps = [dpp_check(spatial_handle(spec, dt), x0, dt)
                for dt in (0.02, 0.01)]
        assert gaps[0] < 1e-5
        assert gaps[1] < 0.4 * gaps[0]

    def test_gap_grows_with_window(self, vintage):
        _, handle, st = vintage
        gaps = [dpp_check(handle, st, r) for r in (1.0, 4.0, 8.0)]
        assert gaps[0] < gaps[1] < gaps[2]


class TestTransversality:
    def test_spatial_slope_matches_algebra(self, spatial):
        spec, handle, x0 = spatial
        traj = simulate_spatial(spec, x0, 60.0, 0.02)
        slope = transversality(handle, traj)
        expected = (1.0 - spec.sigma_crra) * spec.growth_rate - spec.rho
        assert slope == pytest.approx(expected, abs=1e-3)

    def test_static_state_decays_at_discount_rate(self, spatial):
        spec, handle, x0 = spatial
        times = 0.05 * np.arange(200)
        traj = Trajectory(times, [x0] * 200, [None] * 200, np.zeros(200))
        assert transversality(handle, traj) == pytest.approx(-spec.rho,
                                                             abs=1e-10)


    def test_only_the_fitted_quartile_is_valued(self, spatial):
        # a value that raises on the first three quarters of the states
        # must not be reached, and the slope must keep its bits
        spec, handle, x0 = spatial
        n = 41
        times = 0.05 * np.arange(n)
        q = 3 * n // 4
        scales = np.exp(0.02 * times)
        traj = Trajectory(times, list(range(n)), [None] * n, np.zeros(n))

        def value(k):
            if k < q:
                raise AssertionError(f"state {k} is outside the fit")
            return handle.value(x0) * scales[k]

        probe = ModelHandle(value=value, feedback=None, step=None,
                            running_payoff=None, rho=spec.rho, dt=0.05)
        # the fit as written over every state's value
        logs = -spec.rho * times + np.log(
            np.abs([handle.value(x0) * scales[k] for k in range(n)]))
        want = float(np.polyfit(times[q:], logs[q:], 1)[0])
        assert transversality(probe, traj) == want
        assert want == pytest.approx(0.02 - spec.rho, abs=1e-12)

    @pytest.mark.parametrize("steps", [3, 4])
    def test_fit_needs_four_steps(self, spatial, steps):
        # three steps leave one time in the last quartile, no slope
        _, handle, x0 = spatial
        times = 0.05 * np.arange(steps + 1)
        traj = Trajectory(times, [x0] * (steps + 1), [None] * (steps + 1),
                          np.zeros(steps + 1))
        if steps < 4:
            with pytest.raises(ValueError, match="needs 5 times"):
                transversality(handle, traj)
        else:
            assert np.isfinite(transversality(handle, traj))


def scalar_sweep(handle, model, state0, T_end, seed, n_controls=33,
                 span=0.5, span_min=4e-3, max_passes=12):
    """Reference for ``brute_force_value``: the same backward sweep, one
    candidate at a time on validated states through the handle's scalar
    step and payoff and a scalar domain test, re-walking each step's
    prefix.  Returns (lo, hi, evaluations, passes) and counts of the
    candidate runs that left the domain before the horizon but after their
    own step, and of the candidates that clipping made duplicates."""
    dt = handle.dt
    n_steps = int(round(T_end / dt))
    disc = np.exp(-handle.rho * dt * np.arange(n_steps + 1))
    counts = {"evaluations": 0, "exits": 0, "duplicates": 0}

    def inside(state):
        # the feedback's domain, stated apart from it in gamma()'s arithmetic
        g = delay.gamma(state, model.xi)
        return g > 0.0 and model.kappa * g < model.room * state.head

    def cell(state, u, k):
        g_left = handle.running_payoff(state, u)
        nxt = handle.step(state, u)
        g_right = handle.running_payoff(nxt, u)
        return nxt, 0.5 * dt * (disc[k] * g_left + disc[k + 1] * g_right)

    def forward(controls, state, start, total):
        for k in range(start, n_steps):
            if not inside(state):
                counts["exits"] += k > start  # its evaluations stop early
                return -np.inf, None
            state, payoff = cell(state, controls[k], k)
            counts["evaluations"] += 2
            total += payoff
        if not inside(state):
            return -np.inf, None
        return total, state

    controls = list(seed)
    best, final = forward(controls, state0, 0, 0.0)
    offsets = np.linspace(-1.0, 1.0, n_controls)
    cur_span, passes = span, 0
    while passes < max_passes and cur_span > span_min:
        at_pass_start = best
        passes += 1
        for j in range(n_steps - 1, -1, -1):
            state, prefix = state0, 0.0
            for k in range(j):
                state, payoff = cell(state, controls[k], k)
                prefix += payoff
            lo = (model.a - model.room) * state.head
            hi = model.a * state.head
            eps = 1e-12 * max(1.0, abs(hi))
            clipped = [float(min(max(c, lo + eps), hi - eps))
                       for c in controls[j] * (1.0 + cur_span * offsets)]
            candidates = dict.fromkeys(clipped)
            counts["duplicates"] += len(clipped) - len(candidates)
            best_j, best_u, best_final = -np.inf, controls[j], None
            for cand in candidates:
                controls[j] = cand
                val, fstate = forward(controls, state, j, prefix)
                if val > best_j:
                    best_j, best_u, best_final = val, cand, fstate
            controls[j] = best_u
            if best_j > best:
                best, final = best_j, best_final
        if best - at_pass_start < 1e-7 * max(1.0, abs(best)):
            cur_span *= 0.5
    problem = delay.oracle_problem(model, dt)
    tail = problem.payoff_tail_bound(problem.to_batch(final), dt * n_steps)
    return (float(best), float(best + tail), counts["evaluations"],
            passes), counts


class TestBruteForce:
    def seed_for(self, handle, state, T_end):
        traj = _rollout(handle, state, T_end, 1.0)
        return [float(c) for c in traj.controls[:-1]]

    def test_oracle_problem_has_no_value_callback(self, problem):
        assert isinstance(problem, OracleProblem)
        assert not hasattr(problem, "value")

    def test_history_off_the_model_lag_rejected(self, problem):
        # the batched problem reads the lag from the model, so a start
        # whose history spans another lag is refused, as simulate does
        st = lift_vintage(None, HistorySegment.constant(3.0, 8, 1.0))
        with pytest.raises(ValueError, match="history covers"):
            brute_force_value(problem, st, [1.0] * 4)

    def test_single_level_returns_seed_policy_payoff(self, vintage, problem):
        _, handle, st = vintage
        dt = handle.dt
        seed = self.seed_for(handle, st, 4.0)
        bracket = brute_force_value(problem, st, seed,
                                    n_controls=1, max_passes=1)
        # recompute the seed policy payoff by hand
        state = st
        total = 0.0
        for k, u in enumerate(seed):
            g_left = handle.running_payoff(state, u)
            state = handle.step(state, u)
            g_right = handle.running_payoff(state, u)
            total += 0.5 * dt * (np.exp(-handle.rho * k * dt) * g_left
                                 + np.exp(-handle.rho * (k + 1) * dt) * g_right)
        assert bracket.lo == pytest.approx(total, rel=1e-12)

    def test_one_step_problem_equals_static_maximization(self, vintage,
                                                          problem):
        # zero tail, single step, single sweep: the recursion's base case
        # must coincide with a static maximization over its own control grid
        _, handle, st = vintage
        dt = handle.dt
        seed = self.seed_for(handle, st, dt)
        span = 0.5
        bracket = brute_force_value(problem, st, seed,
                                    n_controls=33, span=span, max_passes=1)

        def cell(u):
            g_left = handle.running_payoff(st, u)
            nxt = handle.step(st, u)
            return 0.5 * dt * (g_left + np.exp(-handle.rho * dt)
                               * handle.running_payoff(nxt, u))

        candidates = seed[0] * (1.0 + span * np.linspace(-1.0, 1.0, 33))
        static_best = max(cell(u) for u in candidates)
        assert bracket.lo == pytest.approx(static_best, abs=1e-6)

    def test_bracket_contains_analytic_value(self, vintage, problem):
        spec, handle, st = vintage
        seed = self.seed_for(handle, st, 5.0 / spec.rho)
        bracket = brute_force_value(problem, st, seed, n_controls=33)
        assert bracket.contains(delay.value(spec.delay, st), 0.03)
        assert bracket.lo <= bracket.hi
        assert bracket.tail_bound > 0.0

    def test_budget_enforced(self, vintage, problem):
        from hjbkit.verify import OracleBudgetError
        _, handle, st = vintage
        seed = self.seed_for(handle, st, 10.0)
        with pytest.raises(OracleBudgetError):
            brute_force_value(problem, st, seed, n_controls=33, budget=100)

    @pytest.mark.parametrize("sigma, k0, n_controls, span, T_end, exercised", [
        (0.5, None, 9, 0.5, 3.0, None),
        # a small head starts near the domain's edge, where some candidate
        # runs leave it and stop counting evaluations
        (0.5, 1.1, 9, 2.0, 3.0, "exits"),
        # most of a wide span clips onto the band's edges
        (0.5, None, 33, 8.0, 3.0, "duplicates"),
        # at this exponent numpy's array power differs from the scalar
        # power in the last bit for about one value in twenty, and on
        # AVX-512 hardware this case's bracket shows it
        (0.7, None, 17, 0.5, 4.0, None),
    ])
    def test_batched_sweep_equals_scalar_reference(self, sigma, k0,
                                                   n_controls, span, T_end,
                                                   exercised):
        # the vintage fixture's model, with sigma varied
        spec = build_vintage_spec(1.0, 2.0, sigma, 0.45)
        dt = 0.25
        handle = vintage_handle(spec, dt)
        st = lift_vintage(k0, HistorySegment.constant(2.0, 8, 1.0),
                          enforce_consistency=False)
        seed = self.seed_for(handle, st, T_end)
        bracket = brute_force_value(delay.oracle_problem(spec.delay, dt), st,
                                    seed, n_controls=n_controls, span=span)
        want, counts = scalar_sweep(handle, spec.delay, st, T_end, seed,
                                    n_controls, span)
        assert (bracket.lo, bracket.hi, bracket.evaluations,
                bracket.passes) == want
        if exercised:
            assert counts[exercised] > 0

    def test_non_finite_batch_state_raises(self, vintage, problem):
        _, handle, st = vintage
        seed = self.seed_for(handle, st, 3.0)
        seed[2] = np.inf
        with pytest.raises(GridError, match="non-finite"):
            brute_force_value(problem, st, seed)

    def test_suboptimality_direction_random_perturbations(self):
        # any admissible perturbed control scores at most the value, for
        # every model (5 random feedback scalings each)
        from hjbkit.scenarios import MODELS, build_scenario, default_config
        rng = np.random.default_rng(5)
        for name in MODELS:
            cfg = default_config(name)
            cfg["numerics"]["T_end"] = min(cfg["numerics"]["T_end"], 10.0)
            sc = build_scenario(cfg)
            v = sc.handle.value(sc.state0)
            for _ in range(5):
                scale = float(rng.uniform(0.4, 0.95))
                vm = value_match(sc.handle, sc.state0, sc.T_end,
                                 control_scale=scale)
                assert vm.total <= v + 1e-6 * max(abs(v), 1.0), name


@pytest.mark.parametrize("model", ["spatial-growth", "pollution"])
@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan])
def test_circle_handle_needs_a_positive_step(model, dt):
    # the handle factors its one CN operator when it is made, so a step
    # it cannot take is refused there, before any rollout
    from hjbkit import pollution, spatial_growth
    module = spatial_growth if model == "spatial-growth" else pollution
    spec = build_scenario(default_config(model)).spec
    with pytest.raises(ValueError, match="dt must be positive"):
        module.make_handle(spec, dt)


def test_rollout_reports_domain_exit():
    # a lifted pair with a tiny head sits outside the feedback's domain
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    iota = HistorySegment.constant(2.0, 50, 1.0)
    st = lift_vintage(1e-3, iota, enforce_consistency=False)
    handle = vintage_handle(spec, iota.dt)
    with pytest.raises(DomainError):
        handle.feedback(st)
    with pytest.raises(DomainExitError):
        _rollout(handle, st, 10 * iota.dt, 1.0)



def test_both_closed_loops_word_a_domain_exit_alike():
    # at rho = 1 the time-to-build start state is outside the domain; the
    # Heun loop and the verification rollout must report it identically
    cfg = default_config("time-to-build")
    cfg["params"]["rho"] = 1.0
    sc = build_scenario(cfg)
    with pytest.raises(DomainExitError) as heun:
        sc.simulate()
    with pytest.raises(DomainExitError) as rollout:
        value_match(sc.handle, sc.state0, sc.T_end)
    assert str(heun.value) == str(rollout.value)
    assert heun.value.time == rollout.value.time == 0.0
    assert heun.value.diagnostics == rollout.value.diagnostics

CHECKED_FIGURES = ("residual_max", "residual_refined_max", "value_match_gap",
                   "suboptimal_margin", "transversality_slope")


def _report(**figures):
    passing = dict(residual_max=1e-7, residual_mean=5e-8,
                   residual_refined_max=2e-8, value_match_gap=1e-4,
                   suboptimal_margin=0.1, transversality_slope=-0.2)
    passing.update(figures)
    return VerifyReport(model="vintage-dde",
                        tolerances={"residual": 1e-5, "value_match": 5e-3,
                                    "oracle_slack": 0.03}, **passing)


def test_report_passes_on_good_figures():
    assert _report().check().passed


@pytest.mark.parametrize("figure", CHECKED_FIGURES)
def test_nan_figure_fails_report(figure):
    report = _report(**{figure: float("nan")}).check()
    assert not report.passed
    assert any("nan" in failure for failure in report.failures)


def test_nan_report_exits_3(tmp_path, monkeypatch):
    import hjbkit.cli as cli
    nan_report = _report(**dict.fromkeys(CHECKED_FIGURES, float("nan")))
    monkeypatch.setattr(cli, "verify_scenario",
                        lambda config, seed: nan_report.check())
    assert cli.main(["verify", "--model", "vintage-dde",
                     "--out", str(tmp_path)]) == 3
