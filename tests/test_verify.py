import dataclasses
import importlib

import mpmath as mp
import numpy as np
import pytest
from oracle_helpers import golden_max
from reference import unmemoized_suboptimality_margin

from hjbkit import delay
from hjbkit.errors import (DomainError, DomainExitError, GridError,
                           NumericsError)
from hjbkit.gridcore import CircleGrid, HistorySegment, Trajectory
from hjbkit.scenarios import (MODELS, build_scenario, default_config,
                              verify_scenario)
from hjbkit.spatial_growth import build_spatial_spec, make_handle as spatial_handle
from hjbkit.spatial_growth import simulate_spatial
from hjbkit.vintage_dde import (build_vintage_spec, lift_vintage,
                                make_handle as vintage_handle,
                                simulate_vintage)
from hjbkit.verify import (ModelHandle, OracleProblem, VerifyReport,
                           brute_force_value, scaled, suboptimality_margin,
                           transversality, value_match, _rollout)


@pytest.fixture(scope="module")
def spatial():
    grid = CircleGrid(128)
    spec = build_spatial_spec(grid.constant(0.04), grid.constant(1.0),
                              0.5, 0.05)
    return spec, spatial_handle(spec, 0.01), grid.constant(1.0).values


@pytest.fixture(scope="module")
def vintage():
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    iota = HistorySegment.constant(2.0, 8, 1.0)
    state = lift_vintage(spec, iota)
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
            st = lift_vintage(spec, iota)
            handle = vintage_handle(spec, iota.dt)
            gaps.append(value_match(handle, st, 20.0).rel_gap)
        assert gaps[1] < 0.6 * gaps[0]

    def test_suboptimal_scores_strictly_lower(self, spatial):
        _, handle, x0 = spatial
        margin = suboptimality_margin(handle, x0, 20.0)
        assert margin > 5e-3


class TestDPP:
    """The value match on a short window [0, r] is the dynamic-programming
    identity: its gap is zero at r = 0, O(dt^2) for a single step, and
    grows linearly in r at the handle's dt."""

    def test_zero_window(self, spatial):
        _, handle, x0 = spatial
        assert value_match(handle, x0, 0.0).rel_gap == 0.0

    def test_single_step_second_order(self, spatial):
        # one handle per step size: a handle integrates the one it was
        # made for
        spec, _, x0 = spatial
        gaps = [value_match(spatial_handle(spec, dt), x0, dt).rel_gap
                for dt in (0.02, 0.01)]
        assert gaps[0] < 1e-5
        assert gaps[1] < 0.4 * gaps[0]

    def test_gap_grows_with_window(self, vintage):
        _, handle, st = vintage
        gaps = [value_match(handle, st, r).rel_gap for r in (1.0, 4.0, 8.0)]
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


class TestBruteForce:
    def seed_for(self, handle, state, T_end):
        traj = _rollout(handle, state, T_end)
        return [float(c) for c in traj.controls[:-1]]

    def test_oracle_problem_has_no_value_callback(self, problem):
        assert isinstance(problem, OracleProblem)
        assert not hasattr(problem, "value")

    def test_history_off_the_model_lag_rejected(self, vintage):
        # the batched problem reads the lag from the model, so a start
        # whose history spans another lag is refused where it is made a
        # state array, by the lift that simulate calls too; at m = 8 that
        # history's array would have the length of one at the problem's
        # step
        spec = vintage[0]
        hist = HistorySegment.constant(3.0, 8, 1.0)
        with pytest.raises(ValueError, match="history covers"):
            lift_vintage(spec, hist)
        with pytest.raises(ValueError, match="history covers"):
            simulate_vintage(spec, hist, 1.0)

    def test_one_step_problem_equals_static_maximization(self, vintage,
                                                          problem):
        # zero tail, single step: the solve's base case must coincide with
        # the band-constrained maximum of its one trapezoid cell
        spec, handle, st = vintage
        model, dt = spec.delay, handle.dt
        seed = self.seed_for(handle, st, dt)
        bracket = brute_force_value(problem, st, seed)
        s = model.sigma

        def cell(u):
            nxt = st[0] + dt * (model.b * u + st[-1])
            return dt / 2 * ((model.a * st[0] - u) ** (1 - s)
                             + mp.exp(-handle.rho * dt)
                             * (model.a * nxt - u) ** (1 - s)) / (1 - s)

        lo, hi = delay.band(model, st[0])
        with mp.workdps(40):
            best = float(cell(mp.mpf(golden_max(cell, lo, hi))))
        assert len(bracket.controls) == 1
        assert bracket.lo == pytest.approx(best, rel=1e-10, abs=0.0)

    def test_lo_is_the_replayed_policy_payoff(self, vintage, problem):
        spec, handle, st = vintage
        dt = handle.dt
        seed = self.seed_for(handle, st, 5.0 / spec.rho)
        bracket = brute_force_value(problem, st, seed)
        # replay the reported policy by hand through the scalar handle
        state, total = st, 0.0
        for k, u in enumerate(bracket.controls):
            g_left = handle.running_payoff(state, u)
            state = handle.step(state, u)
            g_right = handle.running_payoff(state, u)
            total += 0.5 * dt * (np.exp(-handle.rho * k * dt) * g_left
                                 + np.exp(-handle.rho * (k + 1) * dt)
                                 * g_right)
        assert len(bracket.controls) == len(seed)
        assert bracket.lo == pytest.approx(total, rel=1e-12, abs=0.0)

    def test_no_admissible_neighbour_scores_above_the_gap(self, vintage,
                                                          problem):
        # the duality gap certifies the optimum: random admissible
        # perturbations of the solution never beat lo + gap
        spec, handle, st = vintage
        model, dt = spec.delay, handle.dt
        bracket = brute_force_value(problem, st,
                                    self.seed_for(handle, st, 3.0))
        n = len(bracket.controls)
        disc = np.exp(-handle.rho * dt * np.arange(n + 1))
        rng = np.random.default_rng(4)

        def score(controls):
            """The trapezoid payoff, or None off the admissible set."""
            state, total = st, 0.0
            for k, u in enumerate(controls):
                lo, hi = delay.band(model, state[0])
                nxt = handle.step(state, u)
                g = delay.gamma(nxt, model.xi, model.lag)
                if not (lo < u < hi and model.a * nxt[0] - u > 0.0
                        and 0.0 < g and model.kappa * g
                        < model.room * nxt[0]):
                    return None
                total += 0.5 * dt * (
                    disc[k] * handle.running_payoff(state, u)
                    + disc[k + 1] * handle.running_payoff(nxt, u))
                state = nxt
            return total

        scores = []
        for size in np.repeat([1e-1, 1e-3, 1e-6], 70):
            trial = bracket.controls * (1.0 + size * rng.standard_normal(n))
            if (val := score(trial)) is not None:
                scores.append(val)
        assert len(scores) > 100
        assert max(scores) <= bracket.lo + bracket.gap \
            + 1e-12 * abs(bracket.lo)

    def test_policy_replaying_outside_is_pulled_toward_the_seed(
            self, vintage, problem):
        # the solution disinvests at the band's lower edge near the
        # horizon; one-row runs that see the band 1e-6 narrower than the
        # affine map does replay it outside, so it is pulled toward the
        # seed until it replays inside, and the gap covers the loss
        spec, handle, st = vintage
        seed = self.seed_for(handle, st, 5.0 / spec.rho)
        plain = brute_force_value(problem, st, seed)
        # the band's lower edge u - lo follows the 2n consumptions
        n = len(seed)
        band = np.arange(2 * n, 3 * n)

        def narrower(state0, controls):
            slacks, final = problem.run(state0, controls)
            if len(controls) == 1:
                slacks[:, band] -= 1e-6
            return slacks, final

        pulled = brute_force_value(
            dataclasses.replace(problem, run=narrower), st, seed)
        assert pulled.lo < plain.lo <= pulled.lo + pulled.gap
        slacks, _ = narrower(st, pulled.controls[np.newaxis])
        assert (slacks[0, band] > 0.0).all()

    def test_bracket_contains_analytic_value(self, vintage, problem):
        spec, handle, st = vintage
        seed = self.seed_for(handle, st, 5.0 / spec.rho)
        bracket = brute_force_value(problem, st, seed)
        assert bracket.contains(delay.value(spec.delay, st), 0.03)
        assert bracket.lo <= bracket.hi
        assert bracket.tail_bound > 0.0

    def test_non_finite_batch_state_raises(self, vintage, problem):
        _, handle, st = vintage
        seed = self.seed_for(handle, st, 3.0)
        seed[2] = np.inf
        with pytest.raises(GridError, match="non-finite"):
            brute_force_value(problem, st, seed)

    def test_overflowing_batch_state_raises(self, vintage, problem):
        # the head, dt * u summed over the steps, passes the float range
        _, handle, st = vintage
        seed = np.full(len(self.seed_for(handle, st, 3.0)), 1e308)
        with pytest.raises(NumericsError, match="overflow"):
            brute_force_value(problem, st, seed)

    def test_empty_seed_raises(self, vintage, problem):
        # a zero-step horizon has no controls to solve for
        with pytest.raises(ValueError, match="empty"):
            brute_force_value(problem, vintage[2], [])

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
                vm = value_match(scaled(sc.handle, scale), sc.state0,
                                 sc.T_end)
                assert vm.total <= v + 1e-6 * max(abs(v), 1.0), name


@pytest.mark.parametrize("model", MODELS)
def test_probe_margin_equals_an_unmemoized_probe(model):
    # keeping the scaled control per feedback control object changes no
    # bit of the suboptimal probe's margin
    sc = build_scenario(default_config(model))
    got = suboptimality_margin(sc.handle, sc.state0, sc.T_end,
                               control_scale=sc.suboptimal_scale)
    want = unmemoized_suboptimality_margin(sc.handle, sc.state0, sc.T_end,
                                           sc.suboptimal_scale)
    assert got == want


@pytest.mark.parametrize("model, module, name", [
    ("pollution", "pollution", "utility"),
    ("vintage-transport", "vintage_transport", "_source_cell_integrals")])
def test_a_constant_policy_is_scored_once_per_rollout(monkeypatch, model,
                                                      module, name):
    # the optimal policy of these models is one control object at every
    # state, and so is its scaling along the suboptimal probe: a term of
    # the control alone is computed once per rollout, of the three that
    # verify runs (the closed loop, the value match and the probe)
    mod = importlib.import_module(f"hjbkit.{module}")
    original, calls = getattr(mod, name), []

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(mod, name, counted)
    verify_scenario(default_config(model))
    assert 0 < len(calls) <= 3


@pytest.mark.parametrize("model", ["spatial-growth", "pollution",
                                   "vintage-transport"])
def test_a_scaled_control_is_read_only(model):
    # a constant policy's scaled control is one object held by every step
    # of the probe, so no write may go through a recorded control
    sc = build_scenario(default_config(model))
    traj = _rollout(scaled(sc.handle, 0.5), sc.state0, 5 * sc.handle.dt)
    first = traj.controls[0]
    arrays = [p for p in (first if isinstance(first, tuple) else (first,))
              if isinstance(p, np.ndarray)]
    assert arrays
    for part in arrays:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0.0
    if model != "spatial-growth":  # its feedback depends on the state
        assert traj.controls[-1] is first


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


def _payoff_stub(payoff_at):
    """A handle on the step counter k (the state), with steps of 0.1, held
    control 0 and the payoff ``payoff_at(k)``."""
    return ModelHandle(value=None, feedback=lambda k: 0.0,
                       step=lambda k, u: k + 1,
                       running_payoff=lambda k, u: payoff_at(k),
                       rho=1e-3, dt=0.1)


def test_rollout_reports_where_the_payoff_left_the_float_range():
    # from step 6 on the payoff is 1e308: step 5's trapezoid still fits,
    # step 6's sum of two such values does not, and the running payoff
    # must not carry the inf on
    handle = _payoff_stub(lambda k: 1e308 if k >= 6 else 1.0)
    with pytest.raises(NumericsError,
                       match=r"left the float range at t = 0\.6 "):
        _rollout(handle, 0, 2.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_rollout_rejects_a_non_finite_payoff(bad):
    handle = _payoff_stub(lambda k: bad if k == 3 else 1.0)
    with pytest.raises(NumericsError,
                       match=r"left the float range at t = 0\.2 "):
        _rollout(handle, 0, 2.0)


def test_rollout_reports_domain_exit():
    # a lifted pair with a tiny head sits outside the feedback's domain
    spec = build_vintage_spec(1.0, 2.0, 0.5, 0.45)
    iota = HistorySegment.constant(2.0, 50, 1.0)
    st = delay.lift(spec.delay, 1e-3, iota)
    handle = vintage_handle(spec, iota.dt)
    with pytest.raises(DomainError):
        handle.feedback(st)
    with pytest.raises(DomainExitError):
        _rollout(handle, st, 10 * iota.dt)



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
