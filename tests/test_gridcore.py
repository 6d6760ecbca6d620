import numpy as np
import pytest
import scipy.integrate
import sympy as sp

from hjbkit.errors import GridError, NumericsError
from hjbkit.gridcore import (CircleGrid, CNOperator, HistorySegment,
                             AgeGrid, Trajectory, cn_step,
                             inner_product, quad_circle,
                             sl_apply, solve_periodic_tridiagonal,
                             apply_periodic_tridiagonal, trapezoid)

GRID = CircleGrid(64)
THETA = GRID.nodes


def test_grid_rejects_small_n():
    with pytest.raises(GridError):
        CircleGrid(7)


def test_grid_spacing_closes_the_circle():
    assert GRID.h * GRID.n == pytest.approx(2.0 * np.pi, abs=1e-15)


def test_circle_handles_reject_a_field_on_another_grid():
    # the handles and the residuals call the public model functions, which
    # check the length of their node arrays; a bare numpy broadcast error
    # would not be a GridError.  A Field is not a node array, on any grid.
    from hjbkit import pollution, spatial_growth
    one = GRID.constant(1.0).values
    growth = spatial_growth.build_spatial_spec(
        GRID.constant(0.04), GRID.constant(1.0), 0.5, 0.05)
    spatial = spatial_growth.make_handle(growth, 0.01)
    spec = pollution.build_pollution_spec(
        GRID.constant(1.3), GRID.constant(0.1), GRID.constant(1.0),
        GRID.constant(2.0), GRID.constant(0.5), GRID.constant(1.0), 0.05)
    emitting = pollution.make_handle(spec, 0.02)
    c, i = spatial.feedback(one), spec.i_star.values
    for other in (CircleGrid(128).constant(1.0).values,
                  CircleGrid(128).constant(1.0), GRID.constant(1.0)):
        for call in (lambda: spatial.feedback(other),
                     lambda: spatial.value(other),
                     lambda: spatial.running_payoff(one, other),
                     lambda: spatial.step(other, c),
                     lambda: spatial.step(one, other),
                     lambda: emitting.feedback(other),
                     lambda: emitting.value(other),
                     lambda: emitting.running_payoff(other, i),
                     lambda: emitting.running_payoff(one, other),
                     lambda: emitting.step(other, i),
                     lambda: emitting.step(one, other),
                     lambda: spatial_growth.hjb_residual_spatial(growth,
                                                                 other),
                     lambda: pollution.hjb_residual_pollution(spec, other)):
            with pytest.raises(GridError):
                call()


class TestQuadCircle:
    def test_constant(self):
        assert quad_circle(GRID.constant(1.0)) == pytest.approx(2.0 * np.pi,
                                                                rel=1e-14)

    def test_odd_harmonic_vanishes(self):
        assert abs(quad_circle(GRID.from_function(np.cos))) < 1e-12

    def test_cos_squared(self):
        # analytic: int_0^{2pi} cos^2 = pi
        f = GRID.from_function(lambda t: np.cos(t) ** 2)
        assert quad_circle(f) == pytest.approx(np.pi, abs=1e-12)

    def test_kills_low_harmonics(self):
        # rectangle rule on a periodic grid integrates e^{ik t} exactly
        # for 1 <= k <= n/2 - 1
        for k in (1, 5, 31):
            f = GRID.from_function(lambda t: np.cos(k * t))
            assert abs(quad_circle(f)) < 1e-12


class TestInnerProduct:
    def test_constants(self):
        one = GRID.constant(1.0)
        assert inner_product(one, one) == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_orthogonality(self):
        c = GRID.from_function(np.cos)
        s = GRID.from_function(np.sin)
        assert abs(inner_product(c, s)) < 1e-12

    def test_cos_norm(self):
        c = GRID.from_function(np.cos)
        assert inner_product(c, c) == pytest.approx(np.pi, abs=1e-12)

    def test_grid_mismatch(self):
        with pytest.raises(GridError):
            inner_product(GRID.constant(1.0), CircleGrid(32).constant(1.0))


class TestSlApply:
    def test_laplacian_eigenfunction(self):
        # f = cos: f'' = -cos, second-order accurate
        n = 256
        g = CircleGrid(n)
        f = g.from_function(np.cos)
        out = sl_apply(g.constant(1.0), g.constant(0.0), f)
        err = np.max(np.abs(out.values + np.cos(g.nodes)))
        assert err < 2.0 * (g.h ** 2)

    def test_constants_exact(self):
        c = 0.7
        out = sl_apply(GRID.constant(1.0), GRID.constant(c), GRID.constant(1.0))
        assert np.allclose(out.values, c, atol=1e-13)

    def test_variable_sigma_against_symbolic_oracle(self):
        # oracle: expand (sigma f')' symbolically and sample it
        t = sp.Symbol("t")
        sigma_expr = 1 + sp.Rational(1, 2) * sp.cos(t)
        f_expr = sp.sin(t)
        oracle_expr = sp.diff(sigma_expr * sp.diff(f_expr, t), t)
        oracle = sp.lambdify(t, oracle_expr, "numpy")
        errs = []
        for n in (128, 256):
            g = CircleGrid(n)
            sigma = g.from_function(lambda x: 1.0 + 0.5 * np.cos(x))
            f = g.from_function(np.sin)
            out = sl_apply(sigma, g.constant(0.0), f)
            errs.append(np.max(np.abs(out.values - oracle(g.nodes))))
        assert errs[0] < 5.0 * (2 * np.pi / 128) ** 2
        assert errs[1] < errs[0] / 3.0  # second order

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(GridError):
            sl_apply(GRID.constant(0.0), GRID.constant(0.0), GRID.constant(1.0))

    def test_self_adjointness(self):
        rng = np.random.default_rng(7)
        sigma = GRID.from_function(lambda t: 1.0 + 0.3 * np.sin(t))
        zeroth = GRID.from_function(lambda t: 0.5 * np.cos(2 * t))
        for _ in range(5):
            f = GRID.field(rng.normal(size=GRID.n))
            g = GRID.field(rng.normal(size=GRID.n))
            lhs = inner_product(sl_apply(sigma, zeroth, f), g)
            rhs = inner_product(f, sl_apply(sigma, zeroth, g))
            assert abs(lhs - rhs) < 1e-10


class TestCyclicSolve:
    def test_against_dense(self):
        rng = np.random.default_rng(3)
        n = 24
        lo = rng.normal(size=n)
        up = rng.normal(size=n)
        di = 4.0 + rng.normal(size=n)  # diagonally dominant
        rhs = rng.normal(size=n)
        dense = np.zeros((n, n))
        for j in range(n):
            dense[j, (j - 1) % n] += lo[j]
            dense[j, j] += di[j]
            dense[j, (j + 1) % n] += up[j]
        x = solve_periodic_tridiagonal(lo, di, up, rhs)
        assert np.allclose(dense @ x, rhs, atol=1e-11)

    def test_roundtrip_with_apply(self):
        rng = np.random.default_rng(4)
        n = 50
        lo, up = rng.normal(size=n), rng.normal(size=n)
        di = 5.0 + np.abs(rng.normal(size=n))
        v = rng.normal(size=n)
        rhs = apply_periodic_tridiagonal(lo, di, up, v)
        assert np.allclose(solve_periodic_tridiagonal(lo, di, up, rhs), v,
                           atol=1e-11)

    def test_singular_system_reported(self):
        # the periodic Laplacian stencil has the constants in its nullspace
        from hjbkit.errors import NumericsError
        n = 16
        lo = np.ones(n)
        up = np.ones(n)
        di = -2.0 * np.ones(n)
        with pytest.raises(NumericsError):
            solve_periodic_tridiagonal(lo, di, up, np.ones(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_solution_reported(self, bad):
        # a non-finite right-hand side makes the defect nan (or the
        # tolerance inf), so only the finiteness test can reject it
        n = 16
        rhs = np.ones(n)
        rhs[5] = bad
        with pytest.raises(NumericsError, match="residual check"):
            solve_periodic_tridiagonal(np.ones(n), 4.0 * np.ones(n),
                                       np.ones(n), rhs)


class TestCnStep:
    def test_constant_invariant_under_pure_diffusion(self):
        y = GRID.constant(3.2)
        out = GRID.field(cn_step(
            CNOperator(GRID.constant(1.0), GRID.constant(0.0), 0.05),
            y.values, GRID.constant(0.0).values))
        assert np.allclose(out.values, 3.2, atol=1e-13)

    def test_scalar_reduction(self):
        # constant-in-theta state: CN reduces to the scalar map
        lam, dt = -0.4, 0.02
        y = GRID.constant(1.0)
        out = GRID.field(cn_step(
            CNOperator(GRID.constant(1.0), GRID.constant(lam), dt),
            y.values, GRID.constant(0.0).values))
        expected = (1.0 + lam * dt / 2.0) / (1.0 - lam * dt / 2.0)
        assert np.allclose(out.values, expected, atol=1e-13)

    def test_heat_decay(self):
        # y0 = cos decays like e^{-t} cos under the heat flow
        n, dt, t_end = 128, 1e-3, 0.5
        g = CircleGrid(n)
        y = g.from_function(np.cos)
        sigma, zeroth, src = g.constant(1.0), g.constant(0.0), g.constant(0.0)
        for _ in range(int(round(t_end / dt))):
            y = g.field(cn_step(CNOperator(sigma, zeroth, dt), y.values,
                                src.values))
        # discrete decay rate is the stencil eigenvalue, off by O(h^2)
        err = np.max(np.abs(y.values - np.exp(-t_end) * np.cos(g.nodes)))
        assert err < t_end * ((2 * np.pi / n) ** 2 + dt ** 2)

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        y = GRID.field(1.0 + 0.5 * rng.random(GRID.n))
        sigma = GRID.from_function(lambda t: 1.0 + 0.4 * np.cos(t))
        out = GRID.field(cn_step(CNOperator(sigma, GRID.constant(0.0), 0.1),
                                 y.values, GRID.constant(0.0).values))
        assert abs(quad_circle(out) - quad_circle(y)) < 1e-10

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            cn_step(CNOperator(GRID.constant(1.0), GRID.constant(0.0), 0.0),
                    GRID.constant(1.0).values, GRID.constant(0.0).values)

    def test_against_dense(self):
        n, dt = 24, 0.3
        g = CircleGrid(n)
        sigma = g.from_function(lambda t: 1.0 + 0.5 * np.sin(t))
        zeroth = g.from_function(lambda t: 0.3 * np.cos(2.0 * t) - 0.2)
        src = g.from_function(lambda t: 1.0 + np.sin(3.0 * t))
        y = g.from_function(lambda t: 2.0 + np.cos(t))
        # dense L from the stencil's action on the unit vectors
        L = np.column_stack([sl_apply(sigma, zeroth, g.field(e)).values
                             for e in np.eye(n)])
        eye = np.eye(n)
        want = np.linalg.solve(eye - 0.5 * dt * L,
                               (eye + 0.5 * dt * L) @ y.values
                               + dt * src.values)
        out = g.field(cn_step(CNOperator(sigma, zeroth, dt), y.values,
                              src.values))
        assert np.allclose(out.values, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, check", [(16, "rank-one update"),
                                          (64, "residual check")])
    def test_singular_left_matrix(self, n, check):
        # zeroth = 2/dt cancels the identity: I - dt/2 L is -dt/2 times the
        # periodic Laplacian, whose nullspace holds the constants.  At
        # n = 16 the rank-one denominator rounds to 0 when the operator is
        # built; at n = 64 it does not, and the solve's defect check fires
        g, dt = CircleGrid(n), 0.1
        with pytest.raises(NumericsError, match=check):
            op = CNOperator(g.constant(1.0), g.constant(2.0 / dt), dt)
            cn_step(op, g.constant(1.0).values, g.constant(0.0).values)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(GridError):
            CNOperator(GRID.constant(0.0), GRID.constant(0.0), 0.1)

    def test_rejects_other_grid(self):
        op = CNOperator(GRID.constant(1.0), GRID.constant(0.0), 0.1)
        other = CircleGrid(32)
        with pytest.raises(GridError):
            cn_step(op, other.constant(1.0).values, GRID.constant(0.0).values)
        with pytest.raises(GridError):
            cn_step(op, GRID.constant(1.0).values, other.constant(0.0).values)

    @pytest.mark.parametrize("y_len, source_len", [(GRID.n - 1, GRID.n),
                                                   (GRID.n, GRID.n + 1),
                                                   (0, GRID.n)])
    def test_rejects_wrong_length(self, y_len, source_len):
        op = CNOperator(GRID.constant(1.0), GRID.constant(0.0), 0.1)
        with pytest.raises(GridError, match=f"needs {GRID.n} node values"):
            cn_step(op, np.ones(y_len), np.zeros(source_len))

    def test_operator_reuse_matches_fresh(self):
        # one factorization serves every step of a given dt
        sigma = GRID.from_function(lambda t: 1.0 + 0.4 * np.cos(t))
        zeroth = GRID.constant(-0.3)
        op = CNOperator(sigma, zeroth, 0.05)
        y = fresh = GRID.from_function(np.cos)
        for _ in range(5):
            y = GRID.field(cn_step(op, y.values, GRID.constant(0.5).values))
            fresh = GRID.field(cn_step(CNOperator(sigma, zeroth, 0.05),
                                       fresh.values,
                                       GRID.constant(0.5).values))
        assert np.array_equal(y.values, fresh.values)

    @staticmethod
    def _varying_operator(dt=0.05):
        sigma = GRID.from_function(lambda t: 1.0 + 0.4 * np.cos(t))
        zeroth = GRID.from_function(lambda t: 0.2 * np.sin(2.0 * t) - 0.3)
        return sigma, zeroth, CNOperator(sigma, zeroth, dt)

    def test_fused_step_matches_reference(self):
        # the stacked product must give the bits of a separate explicit
        # matvec followed by a fresh cyclic solve, step after step
        _, _, op = self._varying_operator()
        imp = op.implicit
        rng = np.random.default_rng(5)
        y = 1.0 + rng.random(GRID.n)
        for _ in range(200):
            source = rng.random(GRID.n)
            want = solve_periodic_tridiagonal(
                imp.lo, imp.di, imp.up,
                apply_periodic_tridiagonal(*op.explicit, y) + op.dt * source)
            y = cn_step(op, y, source)
            assert (y == want).all()

    def test_cached_product_is_safe(self):
        # two trajectories alternating on one operator, and a step from a
        # copy of the last result, give the bits of fresh operators
        sigma, zeroth, op = self._varying_operator()
        source = GRID.constant(0.5).values
        a = shared_a = GRID.from_function(np.cos).values
        b = shared_b = GRID.from_function(np.sin).values
        for _ in range(20):
            shared_a = cn_step(op, shared_a, source)
            shared_b = cn_step(op, shared_b, source)
            a = cn_step(CNOperator(sigma, zeroth, op.dt), a, source)
            b = cn_step(CNOperator(sigma, zeroth, op.dt), b, source)
            assert np.array_equal(shared_a, a)
            assert np.array_equal(shared_b, b)
        copied = cn_step(op, shared_b.copy(), source)
        want = cn_step(CNOperator(sigma, zeroth, op.dt), b, source)
        assert np.array_equal(copied, want)
        # a step that fails its check must not leave its product behind
        y = cn_step(op, shared_b, source)
        with pytest.raises(NumericsError, match="residual check"):
            cn_step(op, y, np.full(GRID.n, np.nan))
        assert np.array_equal(cn_step(op, y, source),
                              cn_step(CNOperator(sigma, zeroth, op.dt), y,
                                      source))

    def test_results_share_no_memory_with_the_scratch(self):
        # the right-hand side and the defect are formed in the operator's
        # buffers, which every step rewrites: each result must be a fresh
        # read-only array that later steps leave bit for bit as it was
        _, _, op = self._varying_operator()
        scratch = [op._products, op._gathered, op._terms, op._rhs,
                   *op._defect]
        scratch += [v for k, v in vars(op).items()
                    if isinstance(v, np.ndarray) and k != "_last"]
        rng = np.random.default_rng(11)
        y = 1.0 + rng.random(GRID.n)
        results, bits = [], []
        for _ in range(6):
            y = cn_step(op, y, rng.random(GRID.n))
            assert not y.flags.writeable
            for other in scratch + results:
                assert not np.shares_memory(y, other)
            results.append(y)
            bits.append(y.tobytes())
        assert [r.tobytes() for r in results] == bits

    def test_result_is_read_only(self):
        _, _, op = self._varying_operator()
        y = cn_step(op, GRID.constant(1.0).values, GRID.constant(0.0).values)
        with pytest.raises(ValueError):
            y[0] = 2.0


@pytest.mark.parametrize("span", [np.nan, np.inf, -np.inf, 0.0])
def test_spans_must_be_finite_and_positive(span):
    # a NaN span fails every comparison, so "span <= 0" let it through,
    # and with it a NaN or infinite spacing
    with pytest.raises(GridError, match="finite and positive"):
        HistorySegment(span, np.ones(9))
    with pytest.raises(GridError, match="finite and positive"):
        AgeGrid(span, 8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_history_rejects_nonfinite_sample(bad):
    values = np.zeros(9)
    values[4] = bad
    with pytest.raises(GridError, match="non-finite samples"):
        HistorySegment(1.0, values)


def test_age_grid_quad():
    g = AgeGrid(2.0, 100)
    assert g.quad(np.ones(101)) == pytest.approx(2.0, abs=1e-13)
    # trapezoid on s: int_0^2 s ds = 2 exactly for a linear integrand
    assert g.quad(g.nodes) == pytest.approx(2.0, abs=1e-13)
    with pytest.raises(GridError, match="101 values"):
        g.quad(np.ones(100))


@pytest.mark.parametrize("length", [2, 5, 201])
@pytest.mark.parametrize("dx", [1e-3, 0.1, 1.0 / 3.0, 7.5])
def test_trapezoid_matches_scipy_bit_for_bit(length, dx):
    y = np.random.default_rng(length).normal(scale=10.0, size=length)
    assert trapezoid(y, dx) == scipy.integrate.trapezoid(y, dx=dx)


def test_trapezoid_cancelling_terms():
    # an odd integrand: the cells cancel in pairs, so what is left is
    # rounding, which depends on the order of summation
    r = np.random.default_rng(7).normal(scale=10.0, size=100)
    y = np.concatenate([r, [0.0], -r[::-1]])
    assert trapezoid(y, 0.1) == scipy.integrate.trapezoid(y, dx=0.1)
    assert abs(trapezoid(y, 0.1)) < 1e-12


def test_trajectory_validates_uniform_times():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.1, 0.35]), [0, 0, 0], [0, 0, 0],
                   np.zeros(3))
