import numpy as np
import pytest


from hjbkit.errors import (AssumptionError, DomainError, DomainExitError,
                           GridError)
from hjbkit.gridcore import CircleGrid, CNOperator, cn_step
from hjbkit.scenarios import build_scenario, default_config
from hjbkit.spatial_growth import (build_spatial_spec, feedback_spatial,
                                   hjb_residual_spatial, make_handle, pairing,
                                   simulate_spatial, utility, value_spatial)
from hjbkit.verify import _rollout, scaled
from reference import rayleigh_residual, recorded


@pytest.fixture(scope="module")
def const_spec():
    grid = CircleGrid(256)
    return build_spatial_spec(grid.constant(0.04), grid.constant(1.0),
                              0.5, 0.05)


@pytest.fixture(scope="module")
def wavy_spec():
    grid = CircleGrid(256)
    A = grid.from_function(lambda t: 0.04 + 0.01 * np.cos(t))
    return build_spatial_spec(A, grid.constant(1.0), 0.5, 0.05)


def smooth_positive(grid, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=5) * np.array([0.4, 0.3, 0.2, 0.1, 0.05])
    t = grid.nodes
    return np.exp(c[0] + c[1] * np.cos(t) + c[2] * np.sin(t)
                  + c[3] * np.cos(2 * t) + c[4] * np.sin(2 * t))


class TestBuildSpec:
    def test_constant_closed_form(self, const_spec):
        # alpha0 = (0.5/0.03) * (2 pi)^{3/2} for A=0.04, N=1, sigma=.5, rho=.05
        assert const_spec.eigen.lambda0 == pytest.approx(0.04, abs=1e-8)
        assert const_spec.alpha0 == pytest.approx(262.4934990953736, rel=1e-7)

    def test_finiteness_boundary_rejected(self):
        grid = CircleGrid(64)
        a = 0.1
        with pytest.raises(AssumptionError):
            build_spatial_spec(grid.constant(a), grid.constant(1.0),
                               0.5, a * 0.5)

    def test_variable_A_eigen_residual(self, wavy_spec):
        assert wavy_spec.beta.min() > 0.0
        assert rayleigh_residual(wavy_spec.grid, wavy_spec.A_coeff,
                                 wavy_spec.eigen) < 1e-7

    def test_rejects_bad_population(self):
        grid = CircleGrid(64)
        with pytest.raises(ValueError):
            build_spatial_spec(grid.constant(0.04), grid.constant(0.0),
                               0.5, 0.05)

    def test_rejects_a_profile_on_another_grid(self):
        # the builder unwraps both fields on A's grid
        grid, other = CircleGrid(64), CircleGrid(32)
        for A, N in ((grid.constant(0.04), other.constant(1.0)),
                     (other.constant(0.04), grid.constant(1.0))):
            with pytest.raises(GridError):
                build_spatial_spec(A, N, 0.5, 0.05)

    def test_spec_holds_node_arrays_on_its_grid(self, wavy_spec):
        assert wavy_spec.grid == CircleGrid(256)
        for f in (wavy_spec.A_coeff, wavy_spec.N_pop, wavy_spec.beta,
                  wavy_spec.eigen.e0):
            assert type(f) is np.ndarray and f.shape == (256,)


class TestValue:
    def test_unit_pairing(self, const_spec):
        x = const_spec.beta * (
            1.0 / const_spec.grid.inner(const_spec.beta, const_spec.beta))
        assert value_spatial(const_spec, x) == pytest.approx(2.0, rel=1e-12)

    def test_homogeneity(self, wavy_spec):
        x = smooth_positive(wavy_spec.grid, 1)
        v1 = value_spatial(wavy_spec, x)
        for k in (0.5, 3.0):
            assert value_spatial(wavy_spec, k * x) == pytest.approx(
                k ** 0.5 * v1, rel=1e-12)

    def test_eigenstate_value(self, const_spec):
        # <e0, beta> = alpha0, so v(e0) = alpha0^{1-sigma}/(1-sigma)
        v = value_spatial(const_spec, const_spec.eigen.e0)
        assert v == pytest.approx(const_spec.alpha0 ** 0.5 / 0.5, rel=1e-10)

    def test_domain_violation(self, const_spec):
        with pytest.raises(DomainError):
            value_spatial(const_spec, np.full(const_spec.grid.n, -1.0))

    def test_concavity_on_segments(self, wavy_spec):
        rng = np.random.default_rng(3)
        for seed in range(5):
            x1 = smooth_positive(wavy_spec.grid, 10 + seed)
            x2 = smooth_positive(wavy_spec.grid, 20 + seed)
            mid = value_spatial(wavy_spec, 0.5 * x1 + 0.5 * x2)
            assert mid >= 0.5 * (value_spatial(wavy_spec, x1)
                                 + value_spatial(wavy_spec, x2)) - 1e-12


class TestFeedback:
    def test_domain_edge(self, const_spec):
        with pytest.raises(DomainError):
            feedback_spatial(const_spec, np.zeros(const_spec.grid.n))

    def test_nan_state_is_outside_the_domain(self, const_spec):
        # node arrays are not checked for finiteness, and the
        # model states its domain once: a NaN pairing must fail it, not
        # steer, score or residual
        nan = np.full(const_spec.grid.n, np.nan)
        handle = make_handle(const_spec, 0.01)
        for fn in (handle.feedback, lambda y: feedback_spatial(const_spec, y),
                   lambda y: value_spatial(const_spec, y)):
            with pytest.raises(DomainError):
                fn(nan)
        with pytest.raises(DomainError):
            hjb_residual_spatial(const_spec, nan, const_spec)
        with pytest.raises(DomainExitError) as err:
            _rollout(handle, nan, 5 * 0.01)
        assert err.value.time == 0.0
        assert set(err.value.diagnostics) == {"pairing", "min_state"}
        assert np.isnan(err.value.diagnostics["pairing"])
        assert np.isnan(err.value.diagnostics["min_state"])

    def test_constant_spec_gives_constant_consumption(self, const_spec):
        x = smooth_positive(const_spec.grid, 2)
        c = feedback_spatial(const_spec, x)
        assert np.allclose(c, c[0], rtol=1e-12)

    def test_foc_against_scalar_maximizer(self, wavy_spec):
        # c* maximizes u -> u^{1-s}/(1-s) N - u N p pointwise; the golden
        # search runs in extended precision because the float noise floor
        # of a flat maximum sits right at the 1e-9 tolerance
        import mpmath as mp

        def golden_max(f, lo, hi, iters=160):
            phi = (mp.mpf(5) ** mp.mpf("0.5") - 1) / 2
            a, b = mp.mpf(lo), mp.mpf(hi)
            c1 = b - phi * (b - a)
            c2 = a + phi * (b - a)
            f1, f2 = f(c1), f(c2)
            for _ in range(iters):
                if f1 > f2:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - phi * (b - a)
                    f1 = f(c1)
                else:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + phi * (b - a)
                    f2 = f(c2)
            return (a + b) / 2

        x = smooth_positive(wavy_spec.grid, 5)
        c = feedback_spatial(wavy_spec, x)
        p = wavy_spec.grid.inner(x, wavy_spec.beta) ** (-0.5) * wavy_spec.beta
        rng = np.random.default_rng(7)
        with mp.workdps(40):
            for j in rng.integers(0, wavy_spec.grid.n, size=5):
                pj = mp.mpf(float(p[j]))
                best = golden_max(
                    lambda u: 2 * mp.sqrt(u) - u * pj, 1e-6, 10.0 / pj ** 2)
                assert c[j] == pytest.approx(float(best), abs=1e-9)


class TestSimulate:
    def test_one_step_growth_identity(self, const_spec):
        dt = 1e-3
        grid = const_spec.grid
        x0 = 0.1 * const_spec.eigen.e0
        traj = simulate_spatial(const_spec, x0, dt, dt)
        ratio = (grid.inner(traj.final, const_spec.beta)
                 / grid.inner(x0, const_spec.beta))
        g = const_spec.growth_rate
        assert ratio == pytest.approx(np.exp(g * dt), abs=5 * dt ** 2)

    def test_uncontrolled_heat_reaction_growth(self, const_spec):
        # source off: masses obey d/dt quad(y) = a quad(y) for constant A
        grid = const_spec.grid
        y = np.ones(grid.n)
        dt, n = 1e-2, 100
        for _ in range(n):
            y = cn_step(CNOperator(grid, np.ones(grid.n), const_spec.A_coeff,
                                   dt), y, np.zeros(grid.n))
        assert grid.quad(y) == pytest.approx(
            2 * np.pi * np.exp(0.04 * n * dt), rel=1e-6)

    def test_balanced_growth_slope(self, wavy_spec):
        x0 = np.ones(wavy_spec.grid.n)
        traj = simulate_spatial(
            wavy_spec, x0, 40.0, 0.01, lambda states, controls: {
                "pairing": [wavy_spec.grid.inner(y, wavy_spec.beta)
                            for y in states]})
        pairings = traj.columns["pairing"]
        slope = np.polyfit(traj.times, np.log(pairings), 1)[0]
        assert slope == pytest.approx(wavy_spec.growth_rate, abs=1e-3)

    def test_positivity_reported_not_enforced(self, const_spec):
        traj = simulate_spatial(const_spec, np.ones(const_spec.grid.n),
                                1.0, 0.01)
        assert traj.meta["positivity_ok"] is True
        assert traj.meta["first_negative_time"] is None

    def test_first_negative_time_is_the_first_state_below_zero(self):
        # capital 2 on half the circle and 0 on the other: the consumption
        # drawn where there is no capital drives those nodes negative
        spec = build_scenario(default_config("spatial-growth")).spec
        n = spec.grid.n
        x0 = np.r_[np.full(n // 2, 2.0), np.zeros(n - n // 2)]
        traj, rec = recorded(simulate_spatial, spec, x0, 1.0, 0.01)
        negative = [t for t, y in zip(traj.times, rec.states)
                    if y.min() < 0.0]
        assert traj.meta["positivity_ok"] is False
        assert traj.meta["first_negative_time"] == negative[0] == 0.01

    def test_rejects_bad_dt(self, const_spec):
        with pytest.raises(ValueError):
            simulate_spatial(const_spec, np.ones(const_spec.grid.n), 1.0, 0.0)


class TestHJBResidual:
    def test_constant_spec_near_exact(self, const_spec):
        r = hjb_residual_spatial(const_spec, const_spec.eigen.e0, const_spec)
        assert r < 1e-6

    def test_homogeneity_invariance(self, wavy_spec):
        x = smooth_positive(wavy_spec.grid, 11)
        r1 = hjb_residual_spatial(wavy_spec, x, wavy_spec)
        r2 = hjb_residual_spatial(wavy_spec, 7.0 * x, wavy_spec)
        assert abs(r1 - r2) < 1e-10

    def test_reference_residual_refines_at_second_order(self):
        A_fn = lambda t: 0.04 + 0.01 * np.cos(t)
        results = []
        for n in (128, 256):
            grid = CircleGrid(n)
            spec = build_spatial_spec(grid.from_function(A_fn),
                                      grid.constant(1.0), 0.5, 0.05)
            ref_grid = CircleGrid(4 * n)
            ref = build_spatial_spec(ref_grid.from_function(A_fn),
                                     ref_grid.constant(1.0), 0.5, 0.05)
            vals = [hjb_residual_spatial(spec, smooth_positive(grid, s), ref)
                    for s in range(5)]
            results.append(max(vals))
        assert results[0] < 1e-5
        assert results[1] < 0.5 * results[0]

    def test_reference_must_refine_the_grid(self, wavy_spec):
        # the reference spec's beta is restricted to the working grid, which
        # takes a grid whose size is an integer multiple of the working one
        grid = CircleGrid(96)
        other = build_spatial_spec(grid.constant(0.04), grid.constant(1.0),
                                   0.5, 0.05)
        with pytest.raises(GridError, match="integer refinement"):
            hjb_residual_spatial(wavy_spec, np.ones(256), other)


def test_value_match_and_suboptimality(wavy_spec):
    from hjbkit.verify import suboptimality_margin, value_match
    handle = make_handle(wavy_spec, 0.01)
    x0 = np.ones(wavy_spec.grid.n)
    vm = value_match(handle, x0, 40.0)
    assert vm.rel_gap < 5e-3
    assert suboptimality_margin(handle, x0, 40.0) > 5e-3


@pytest.fixture(scope="module")
def skewed_spec():
    # off the defaults: sigma 0.7 takes numpy's general power path (0.5
    # hits its sqrt and square shortcuts), N varies, n is not a power of 2
    grid = CircleGrid(96)
    A = grid.from_function(lambda t: 0.05 + 0.02 * np.sin(2.0 * t))
    N = grid.from_function(lambda t: 1.0 + 0.3 * np.cos(t))
    return build_spatial_spec(A, N, 0.7, 0.06)


class TestHandleArrays:
    """The handle steps, steers and scores on node arrays with the public
    functions; every number must be the bits that the closed forms written
    out with the grid's quadrature and a fresh CN operator give."""

    @pytest.fixture(params=["wavy", "skewed"])
    def spec(self, request, wavy_spec, skewed_spec):
        return {"wavy": wavy_spec, "skewed": skewed_spec}[request.param]

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_callbacks_match_public_functions(self, spec, scale):
        dt = 0.01
        handle = make_handle(spec, dt)
        op = CNOperator(spec.grid, np.ones(spec.grid.n), spec.A_coeff, dt)
        y = smooth_positive(spec.grid, 4)
        for _ in range(3):
            assert handle.diagnostics(y)["pairing"] == spec.grid.inner(
                y, spec.beta)
            c = handle.feedback(y)
            assert type(c) is np.ndarray
            assert np.array_equal(c, feedback_spatial(spec, y))
            if scale != 1.0:
                c = handle.scale_control(c, scale)
            assert handle.running_payoff(y, c) == utility(spec, c)
            nxt = handle.step(y, c)
            assert type(nxt) is np.ndarray
            want = cn_step(op, y, -1.0 * (c * spec.N_pop))
            assert np.array_equal(nxt, want)
            assert handle.running_payoff(nxt, c) == utility(spec, c)
            y = nxt

    def test_value_and_feedback_are_the_public_functions(self, spec):
        handle = make_handle(spec, 0.01)
        for callback, fn in ((handle.value, value_spatial),
                             (handle.feedback, feedback_spatial)):
            assert callback.func is fn
            assert len(callback.args) == 1 and callback.args[0] is spec

    def test_payoff_follows_a_new_control(self, spec):
        # the reused utility belongs to the control object last scored
        handle = make_handle(spec, 0.01)
        y = smooth_positive(spec.grid, 6)
        c = handle.feedback(y)
        for control in (c, 0.5 * c, c, 2.0 * c):
            assert handle.running_payoff(y, control) == utility(spec, control)

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    def test_rollout_matches_field_loop(self, spec, scale):
        # the closed loop written out with the grid's quadrature
        dt, n_steps = 0.02, 25
        handle = make_handle(spec, dt)
        grid = spec.grid
        op = CNOperator(grid, np.ones(grid.n), spec.A_coeff, dt)
        s, N = spec.sigma_crra, spec.N_pop
        y0 = smooth_positive(grid, 8)
        probe = handle if scale == 1.0 else scaled(handle, scale)
        traj, rec = recorded(_rollout, probe, y0, n_steps * dt)
        states, controls, running = (rec.states, rec.controls,
                                     traj.running_payoff)
        y, total = y0, 0.0
        for k in range(n_steps):
            p = grid.inner(y, spec.beta)
            c = p * (spec.beta ** (-1.0 / s))
            if scale != 1.0:
                c = scale * c
            assert np.array_equal(controls[k], c)
            g = grid.quad((c ** (1.0 - s)) * N) / (1.0 - s)
            y = cn_step(op, y, -1.0 * (c * N))
            total += 0.5 * dt * (np.exp(-spec.rho * (dt * k)) * g
                                 + np.exp(-spec.rho * (dt * (k + 1))) * g)
            assert np.array_equal(states[k + 1], y)
            assert running[k + 1] == total

    def test_spec_profiles_are_read_only(self, spec):
        # no caller can change a spec through one of its profiles
        for f in (spec.A_coeff, spec.N_pop, spec.eigen.e0, spec.beta,
                  spec.consumption_profile):
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0

    def test_the_callers_profiles_stay_writable(self):
        # the spec keeps read-only copies of the fields passed in; the
        # caller's own arrays are left alone
        grid = CircleGrid(32)
        A, N = grid.from_function(lambda t: 0.04 + 0.01 * np.cos(t)), \
            grid.constant(1.0)
        spec = build_spatial_spec(A, N, 0.5, 0.05)
        A.values[0] += 0.25
        N.values[0] += 0.25
        assert spec.N_pop[0] == 1.0

    @pytest.mark.parametrize("bad", [95, 97, (96, 1), (1, 96)])
    def test_a_wrong_shape_is_a_grid_error(self, spec, bad):
        # a node array of another length, or of another shape, must be a
        # GridError from every callback, never a numpy broadcast error
        handle = make_handle(spec, 0.01)
        y = smooth_positive(spec.grid, 3)
        c = handle.feedback(y)
        wrong = np.ones(bad)
        for call in (lambda: handle.feedback(wrong),
                     lambda: handle.value(wrong),
                     lambda: handle.running_payoff(y, wrong),
                     lambda: handle.step(wrong, c),
                     lambda: handle.step(y, wrong),
                     lambda: pairing(spec, wrong)):
            with pytest.raises(GridError):
                call()
