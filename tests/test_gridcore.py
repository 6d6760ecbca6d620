import importlib.machinery
import importlib.util
import sys

import numpy as np
import pytest
import scipy.integrate
import sympy as sp

from hjbkit.errors import GridError, NumericsError
from hjbkit.gridcore import (BLOCK, Blocks, CircleGrid, CNOperator,
                             HistorySegment, AgeGrid, Trajectory, cn_step,
                             lapack_pttr, sl_apply,
                             solve_periodic_tridiagonal,
                             apply_periodic_tridiagonal,
                             trapezoid, _stencil_coefficients)
from hjbkit.scenarios import build_scenario, default_config
from reference import recorded

GRID = CircleGrid(64)
THETA = GRID.nodes


def const(c, grid=GRID):
    """The node values of the constant c on ``grid``."""
    return np.full(grid.n, float(c))


def test_grid_rejects_small_n():
    with pytest.raises(GridError):
        CircleGrid(7)


@pytest.mark.parametrize("n", [8.5, 64.0, "64", None])
def test_circle_grid_rejects_a_non_integer_size(n):
    # 8.5 would give 9 nodes spaced 2*pi/8.5 apart, which overrun the circle
    with pytest.raises(GridError, match="integer n"):
        CircleGrid(n)


@pytest.mark.parametrize("m", [10.5, 8.0, "8"])
def test_age_grid_rejects_a_non_integer_size(m):
    with pytest.raises(GridError, match="integer m"):
        AgeGrid(2.0, m)


def test_grids_take_numpy_integer_sizes():
    assert CircleGrid(np.int64(16)).nodes.shape == (16,)
    assert AgeGrid(2.0, np.int64(8)).nodes.shape == (9,)


def test_grid_spacing_closes_the_circle():
    assert GRID.h * GRID.n == pytest.approx(2.0 * np.pi, abs=1e-15)


def test_circle_handles_reject_a_field_on_another_grid():
    # the handles and the residuals call the public model functions, which
    # check the length of their node arrays; a bare numpy broadcast error
    # would not be a GridError.  A Field is not a node array, on any grid.
    from hjbkit import pollution, spatial_growth
    one = const(1.0)
    growth = spatial_growth.build_spatial_spec(
        GRID.constant(0.04), GRID.constant(1.0), 0.5, 0.05)
    spatial = spatial_growth.make_handle(growth, 0.01)
    spec = pollution.build_pollution_spec(
        GRID.constant(1.3), GRID.constant(0.1), GRID.constant(1.0),
        GRID.constant(2.0), GRID.constant(0.5), GRID.constant(1.0), 0.05)
    emitting = pollution.make_handle(spec, 0.02)
    c, i = spatial.feedback(one), spec.i_star
    for other in (const(1.0, CircleGrid(128)),
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
                     lambda: spatial_growth.hjb_residual_spatial(
                         growth, other, growth),
                     lambda: pollution.hjb_residual_pollution(spec, other,
                                                              spec)):
            with pytest.raises(GridError):
                call()


class TestQuadCircle:
    def test_constant(self):
        assert GRID.quad(const(1.0)) == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_odd_harmonic_vanishes(self):
        assert abs(GRID.quad(np.cos(THETA))) < 1e-12

    def test_cos_squared(self):
        # analytic: int_0^{2pi} cos^2 = pi
        assert GRID.quad(np.cos(THETA) ** 2) == pytest.approx(np.pi,
                                                              abs=1e-12)

    def test_kills_low_harmonics(self):
        # rectangle rule on a periodic grid integrates e^{ik t} exactly
        # for 1 <= k <= n/2 - 1
        for k in (1, 5, 31):
            assert abs(GRID.quad(np.cos(k * THETA))) < 1e-12

    def test_keeps_its_bits(self):
        # h * sum(x) in numpy's pairwise order: the seeded outputs rest on
        # these bits
        x = np.random.default_rng(2).normal(size=GRID.n)
        assert GRID.quad(x) == float(GRID.h * x.sum())

    def test_rejects_other_grid(self):
        for x in (const(1.0, CircleGrid(32)), GRID.constant(1.0), [1.0] * 64):
            with pytest.raises(GridError, match="64 node values"):
                GRID.quad(x)


class TestInnerProduct:
    def test_constants(self):
        one = const(1.0)
        assert GRID.inner(one, one) == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_orthogonality(self):
        assert abs(GRID.inner(np.cos(THETA), np.sin(THETA))) < 1e-12

    def test_cos_norm(self):
        c = np.cos(THETA)
        assert GRID.inner(c, c) == pytest.approx(np.pi, abs=1e-12)

    def test_keeps_its_bits(self):
        x, g = np.random.default_rng(3).normal(size=(2, GRID.n))
        assert GRID.inner(x, g) == float(GRID.h * (x * g).sum())

    def test_grid_mismatch(self):
        for pair in ((const(1.0), const(1.0, CircleGrid(32))),
                     (const(1.0, CircleGrid(32)), const(1.0))):
            with pytest.raises(GridError):
                GRID.inner(*pair)


class TestRestrict:
    def test_takes_every_factor_th_node(self):
        fine = np.cos(CircleGrid(4 * GRID.n).nodes)
        coarse = GRID.restrict(fine)
        assert np.array_equal(coarse, fine[::4])
        assert np.allclose(coarse, np.cos(THETA), rtol=0.0, atol=1e-15)
        assert np.array_equal(GRID.restrict(const(2.0)), const(2.0))

    @pytest.mark.parametrize("n_fine", [32, 96, 65, 0])
    def test_rejects_a_non_refinement(self, n_fine):
        with pytest.raises(GridError, match="integer refinement"):
            GRID.restrict(np.ones(n_fine))

    def test_rejects_a_2d_array(self):
        with pytest.raises(GridError, match="integer refinement"):
            GRID.restrict(np.ones((2 * GRID.n, 2)))


class TestSlApply:
    def test_laplacian_eigenfunction(self):
        # f = cos: f'' = -cos, second-order accurate
        n = 256
        g = CircleGrid(n)
        out = sl_apply(g, const(1.0, g), const(0.0, g), np.cos(g.nodes))
        err = np.max(np.abs(out + np.cos(g.nodes)))
        assert err < 2.0 * (g.h ** 2)

    def test_constants_exact(self):
        c = 0.7
        out = sl_apply(GRID, const(1.0), const(c), const(1.0))
        assert np.allclose(out, c, atol=1e-13)

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
            sigma = 1.0 + 0.5 * np.cos(g.nodes)
            out = sl_apply(g, sigma, const(0.0, g), np.sin(g.nodes))
            errs.append(np.max(np.abs(out - oracle(g.nodes))))
        assert errs[0] < 5.0 * (2 * np.pi / 128) ** 2
        assert errs[1] < errs[0] / 3.0  # second order

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(GridError):
            sl_apply(GRID, const(0.0), const(0.0), const(1.0))

    def test_rejects_other_grid(self):
        other = const(1.0, CircleGrid(32))
        for args in ((other, const(0.0), const(1.0)),
                     (const(1.0), other, const(1.0)),
                     (const(1.0), const(0.0), other)):
            with pytest.raises(GridError, match="64 node values"):
                sl_apply(GRID, *args)

    def test_self_adjointness(self):
        rng = np.random.default_rng(7)
        sigma = 1.0 + 0.3 * np.sin(THETA)
        zeroth = 0.5 * np.cos(2 * THETA)
        for _ in range(5):
            f = rng.normal(size=GRID.n)
            g = rng.normal(size=GRID.n)
            lhs = GRID.inner(sl_apply(GRID, sigma, zeroth, f), g)
            rhs = GRID.inner(f, sl_apply(GRID, sigma, zeroth, g))
            assert abs(lhs - rhs) < 1e-10


def _dense_cyclic(di, up):
    """The dense symmetric cyclic matrix with diagonal di and
    superdiagonal up."""
    n = len(di)
    dense = np.diag(di)
    for j in range(n):
        dense[j, (j + 1) % n] += up[j]
        dense[(j + 1) % n, j] += up[j]
    return dense


class TestCyclicSolve:
    def test_against_dense(self):
        rng = np.random.default_rng(3)
        n = 24
        up = rng.normal(size=n)
        # diagonally dominant, so positive definite
        di = np.abs(up) + np.abs(np.roll(up, 1)) + 4.0 \
            + np.abs(rng.normal(size=n))
        rhs = rng.normal(size=n)
        x = solve_periodic_tridiagonal(di, up, rhs)
        assert np.allclose(_dense_cyclic(di, up) @ x, rhs, atol=1e-11)

    def test_roundtrip_with_apply(self):
        rng = np.random.default_rng(4)
        n = 50
        up = rng.normal(size=n)
        di = np.abs(up) + np.abs(np.roll(up, 1)) + 5.0 \
            + np.abs(rng.normal(size=n))
        v = rng.normal(size=n)
        rhs = apply_periodic_tridiagonal(np.roll(up, 1), di, up, v)
        assert np.allclose(solve_periodic_tridiagonal(di, up, rhs), v,
                           atol=1e-11)

    def test_singular_system_reported(self):
        # the periodic Laplacian stencil has the constants in its nullspace
        from hjbkit.errors import NumericsError
        n = 16
        up = np.ones(n)
        di = -2.0 * np.ones(n)
        with pytest.raises(NumericsError):
            solve_periodic_tridiagonal(di, up, np.ones(n))

    @pytest.mark.parametrize("diagonal, corner, cause", [
        # a negative diagonal entry: the reduced matrix has a non-positive
        # pivot, whichever sign the first diagonal entry has
        ({0: 4.0, 8: -4.0}, 1.0, "pttrf"),
        ({0: 0.0, 8: -4.0}, 1.0, "pttrf"),
        ({0: -4.0, 8: -4.0}, 1.0, "pttrf"),
        # a large corner: the reduced matrix is positive definite, and the
        # rank-one denominator, det A / det T, is negative
        ({0: 1.0, 15: 1.0}, 2.0, "rank-one update"),
    ])
    def test_indefinite_system_refused(self, diagonal, corner, cause):
        # symmetric and nonsingular, but with a negative eigenvalue
        n = 16
        di, up = np.full(n, 4.0), np.ones(n)
        di[list(diagonal)] = list(diagonal.values())
        up[-1] = corner
        dense = _dense_cyclic(di, up)
        assert np.linalg.eigvalsh(dense).min() < -1.0
        assert abs(np.linalg.det(dense)) > 1.0
        with pytest.raises(NumericsError,
                           match=f"not positive definite.*{cause}"):
            solve_periodic_tridiagonal(di, up, np.ones(n))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_solution_reported(self, bad):
        # a non-finite right-hand side makes the tolerance nan or inf, so
        # the defect check's one comparison fails whatever the defect is
        n = 16
        rhs = np.ones(n)
        rhs[5] = bad
        with pytest.raises(NumericsError, match="residual check"):
            solve_periodic_tridiagonal(4.0 * np.ones(n), np.ones(n), rhs)

    def test_lapack_routines_without_scipy(self, monkeypatch, tmp_path):
        # scipy neither imported nor on the path: the loader must say that
        # scipy is missing, not fail on the finder's None
        for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
            monkeypatch.delitem(sys.modules, name)
        monkeypatch.setattr(sys, "path", [str(tmp_path)])
        with pytest.raises(ModuleNotFoundError) as err:
            lapack_pttr()
        assert err.value.name == "scipy"

    def test_lapack_routines_fall_back_to_the_public_module(
            self, monkeypatch):
        # no compiled module where it is looked for: the routines come from
        # scipy.linalg.lapack, and nothing is registered under its name
        import scipy.linalg.lapack
        find_spec = importlib.machinery.PathFinder.find_spec
        monkeypatch.setattr(
            importlib.machinery.PathFinder, "find_spec",
            lambda name, *args: None if name == "scipy.linalg._flapack"
            else find_spec(name, *args))
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        dpttrf, dpttrs = lapack_pttr()
        assert dpttrf is scipy.linalg.lapack.dpttrf
        assert dpttrs is scipy.linalg.lapack.dpttrs
        assert "scipy.linalg._flapack" not in sys.modules

    def test_lapack_routines_fall_back_when_the_load_fails(
            self, monkeypatch):
        # the file is there but cannot be loaded outside its package, as
        # where scipy/__init__.py must first set up the library path
        import scipy.linalg.lapack

        def fail(spec):
            raise ImportError(f"cannot load {spec.name} on its own")

        monkeypatch.setattr(importlib.util, "module_from_spec", fail)
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        dpttrf, dpttrs = lapack_pttr()
        assert dpttrf is scipy.linalg.lapack.dpttrf
        assert dpttrs is scipy.linalg.lapack.dpttrs
        assert "scipy.linalg._flapack" not in sys.modules


@pytest.mark.parametrize("model", ["spatial-growth", "pollution",
                                   "vintage-transport", "vintage-dde",
                                   "time-to-build"])
@pytest.mark.parametrize("steps", [0, 129])
def test_simulators_meta_match_each_states_minimum(model, steps):
    # 130 states: two full blocks of 64 and a partial one; or just one.
    # The flags, taken from each block, are those of the recorded states.
    cfg = default_config(model)
    cfg["numerics"]["T_end"] = max(steps, 0.5) * build_scenario(
        cfg).handle.dt
    sc = build_scenario(cfg)
    traj, rec = recorded(sc.simulate)
    assert len(rec.states) == len(traj.times) == steps + 1
    assert traj.columns == {}
    heads = np.array([x.item(0) for x in rec.states])
    if model == "spatial-growth":
        negative = [t for t, x in zip(traj.times, rec.states) if x.min() < 0]
        assert traj.meta["first_negative_time"] == \
            (negative[0] if negative else None)
    elif model == "vintage-dde":
        assert traj.meta["min_investment"] == min(rec.controls)
        assert traj.meta["min_capital"] == heads.min()
    elif model == "time-to-build":
        consumption = (sc.spec.Atilde / sc.spec.A) * (
            heads - np.array(rec.controls))
        assert traj.meta["min_consumption"] == consumption.min()
    else:
        assert traj.meta["min_state"] == min(x.min() for x in rec.states)


def test_blocks_map_each_block_of_64_once():
    # 130 rows: blocks starting at 0, 64 and 128, each mapped when full or
    # at the end, under the error state of the blocks' creator
    seen = []

    def columns(states, controls):
        seen.append((states[0], len(states), np.geterr()["over"]))
        return {"twice": [2.0 * s for s in states], "u": controls}

    blocks = Blocks(columns)
    with np.errstate(over="raise"):
        for k in range(130):
            blocks.add(float(k), -k)
            assert len(seen) == (k + 1) // BLOCK
    cols = blocks.finish()
    assert seen == [(0.0, 64, "warn"), (64.0, 64, "warn"), (128.0, 2, "warn")]
    assert np.array_equal(cols["twice"], 2.0 * np.arange(130))
    assert cols["u"].dtype == float and np.array_equal(cols["u"],
                                                       -np.arange(130))
    assert list(cols) == ["twice", "u"]
    idle = Blocks()  # no columns: blocks are still dropped
    for _ in range(BLOCK + 1):
        idle.add(np.zeros(3), None)
    assert len(idle.held) == 1
    assert (idle.finish(), idle.held) == ({}, [])


class TestCnStep:
    def test_constant_invariant_under_pure_diffusion(self):
        out = cn_step(CNOperator(GRID, const(1.0), const(0.0), 0.05),
                      const(3.2), const(0.0))
        assert np.allclose(out, 3.2, atol=1e-13)

    def test_scalar_reduction(self):
        # constant-in-theta state: CN reduces to the scalar map
        lam, dt = -0.4, 0.02
        out = cn_step(CNOperator(GRID, const(1.0), const(lam), dt),
                      const(1.0), const(0.0))
        expected = (1.0 + lam * dt / 2.0) / (1.0 - lam * dt / 2.0)
        assert np.allclose(out, expected, atol=1e-13)

    def test_heat_decay(self):
        # y0 = cos decays like e^{-t} cos under the heat flow
        n, dt, t_end = 128, 1e-3, 0.5
        g = CircleGrid(n)
        y = np.cos(g.nodes)
        sigma, zeroth, src = const(1.0, g), const(0.0, g), const(0.0, g)
        for _ in range(int(round(t_end / dt))):
            y = cn_step(CNOperator(g, sigma, zeroth, dt), y, src)
        # discrete decay rate is the stencil eigenvalue, off by O(h^2)
        err = np.max(np.abs(y - np.exp(-t_end) * np.cos(g.nodes)))
        assert err < t_end * ((2 * np.pi / n) ** 2 + dt ** 2)

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        y = 1.0 + 0.5 * rng.random(GRID.n)
        sigma = 1.0 + 0.4 * np.cos(THETA)
        out = cn_step(CNOperator(GRID, sigma, const(0.0), 0.1), y, const(0.0))
        assert abs(GRID.quad(out) - GRID.quad(y)) < 1e-10

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            cn_step(CNOperator(GRID, const(1.0), const(0.0), 0.0),
                    const(1.0), const(0.0))

    @pytest.mark.parametrize("dt", [np.inf, np.nan, -0.1])
    def test_rejects_a_non_finite_dt(self, dt):
        # an infinite step must be refused here, never reach the
        # factorization and fail there as a singular system
        with pytest.raises(ValueError, match="finite and positive"):
            CNOperator(GRID, const(1.0), const(0.0), dt)

    def test_against_dense(self):
        n, dt = 24, 0.3
        g = CircleGrid(n)
        t = g.nodes
        sigma = 1.0 + 0.5 * np.sin(t)
        zeroth = 0.3 * np.cos(2.0 * t) - 0.2
        src = 1.0 + np.sin(3.0 * t)
        y = 2.0 + np.cos(t)
        # dense L from the stencil's action on the unit vectors
        L = np.column_stack([sl_apply(g, sigma, zeroth, e)
                             for e in np.eye(n)])
        eye = np.eye(n)
        want = np.linalg.solve(eye - 0.5 * dt * L,
                               (eye + 0.5 * dt * L) @ y + dt * src)
        out = cn_step(CNOperator(g, sigma, zeroth, dt), y, dt * src)
        assert np.allclose(out, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n, check", [(16, "rank-one update"),
                                          (64, "residual check")])
    def test_singular_left_matrix(self, n, check):
        # zeroth = 2/dt cancels the identity: I - dt/2 L is -dt/2 times the
        # periodic Laplacian, whose nullspace holds the constants.  At
        # n = 16 the rank-one denominator rounds to 0 when the operator is
        # built; at n = 64 it does not, and the solve's defect check fires
        g, dt = CircleGrid(n), 0.1
        with pytest.raises(NumericsError, match=check):
            op = CNOperator(g, const(1.0, g), const(2.0 / dt, g), dt)
            cn_step(op, const(1.0, g), const(0.0, g))

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(GridError):
            CNOperator(GRID, const(0.0), const(0.0), 0.1)

    def test_rejects_other_grid(self):
        op = CNOperator(GRID, const(1.0), const(0.0), 0.1)
        other = CircleGrid(32)
        with pytest.raises(GridError):
            cn_step(op, const(1.0, other), const(0.0))
        with pytest.raises(GridError):
            cn_step(op, const(1.0), const(0.0, other))
        with pytest.raises(GridError):
            CNOperator(GRID, const(1.0, other), const(0.0), 0.1)

    @pytest.mark.parametrize("y_len, source_len", [(GRID.n - 1, GRID.n),
                                                   (GRID.n, GRID.n + 1),
                                                   (0, GRID.n)])
    def test_rejects_wrong_length(self, y_len, source_len):
        op = CNOperator(GRID, const(1.0), const(0.0), 0.1)
        with pytest.raises(GridError, match=f"needs {GRID.n} node values"):
            cn_step(op, np.ones(y_len), np.zeros(source_len))

    def test_operator_reuse_matches_fresh(self):
        # one factorization serves every step of a given dt
        sigma = 1.0 + 0.4 * np.cos(THETA)
        zeroth = const(-0.3)
        op = CNOperator(GRID, sigma, zeroth, 0.05)
        y = fresh = np.cos(THETA)
        for _ in range(5):
            y = cn_step(op, y, const(0.5))
            fresh = cn_step(CNOperator(GRID, sigma, zeroth, 0.05), fresh,
                            const(0.5))
        assert np.array_equal(y, fresh)

    @staticmethod
    def _varying_operator(dt=0.05):
        sigma = 1.0 + 0.4 * np.cos(THETA)
        zeroth = 0.2 * np.sin(2.0 * THETA) - 0.3
        return sigma, zeroth, CNOperator(GRID, sigma, zeroth, dt)

    def test_fused_step_matches_reference(self):
        # the stacked product must give the bits of a separate explicit
        # matvec followed by a fresh cyclic solve, step after step
        dt = 0.05
        sigma, zeroth, op = self._varying_operator(dt)
        imp = op.implicit
        lo, di, up = _stencil_coefficients(GRID, sigma, zeroth)
        half = 0.5 * dt
        explicit = (half * lo, 1.0 + half * di, half * up)  # I + dt/2 L
        rng = np.random.default_rng(5)
        y = 1.0 + rng.random(GRID.n)
        for _ in range(200):
            source = rng.random(GRID.n)
            want = solve_periodic_tridiagonal(
                imp.di, imp.up,
                apply_periodic_tridiagonal(*explicit, y) + dt * source)
            y = cn_step(op, y, dt * source)
            assert (y == want).all()

    def test_cached_product_is_safe(self):
        # two trajectories alternating on one operator, and a step from a
        # copy of the last result, give the bits of fresh operators
        dt = 0.05
        sigma, zeroth, op = self._varying_operator(dt)
        source = const(0.5)
        a = shared_a = np.cos(THETA)
        b = shared_b = np.sin(THETA)
        for _ in range(20):
            shared_a = cn_step(op, shared_a, source)
            shared_b = cn_step(op, shared_b, source)
            a = cn_step(CNOperator(GRID, sigma, zeroth, dt), a, source)
            b = cn_step(CNOperator(GRID, sigma, zeroth, dt), b, source)
            assert np.array_equal(shared_a, a)
            assert np.array_equal(shared_b, b)
        copied = cn_step(op, shared_b.copy(), source)
        want = cn_step(CNOperator(GRID, sigma, zeroth, dt), b, source)
        assert np.array_equal(copied, want)
        # a step that fails its check must not leave its product behind
        y = cn_step(op, shared_b, source)
        with pytest.raises(NumericsError, match="residual check"):
            cn_step(op, y, np.full(GRID.n, np.nan))
        assert np.array_equal(cn_step(op, y, source),
                              cn_step(CNOperator(GRID, sigma, zeroth, dt), y,
                                      source))

    def test_reused_or_rewritten_forcing_gives_fresh_bits(self):
        # a forcing passed again to the next step, read-only or not, and
        # one written in place between steps give the bits of fresh
        # operators on copies: the operator keeps nothing of a forcing
        dt = 0.05
        sigma, zeroth, op = self._varying_operator(dt)
        shared = [const(0.5), np.sin(THETA)]
        shared[0].flags.writeable = False
        writable = np.zeros(GRID.n)
        y = want = np.cos(THETA)
        for forcing in (shared[0], shared[0], shared[1], shared[1],
                        shared[0].copy(), shared[0], writable, writable,
                        shared[0]):
            y = cn_step(op, y, forcing)
            want = cn_step(CNOperator(GRID, sigma, zeroth, dt), want,
                           forcing.copy())
            assert np.array_equal(y, want)
            writable += 0.25

    def test_an_overflowing_step_leaves_no_product_behind(self):
        # alternating values of 2e307 overflow the rows' sums, not their
        # terms: the scratch rows are written before the raise, and the
        # next step from the last result must not take them for its product
        sigma, zeroth, dt = const(1.0), const(-0.3), 0.05
        op = CNOperator(GRID, sigma, zeroth, dt)
        source = const(0.5)
        y = cn_step(op, np.cos(THETA), source)
        with np.errstate(all="raise"), \
                pytest.raises(FloatingPointError, match="reduce"):
            cn_step(op, 2e307 * (-1.0) ** np.arange(GRID.n), source)
        assert np.array_equal(cn_step(op, y, source),
                              cn_step(CNOperator(GRID, sigma, zeroth, dt), y,
                                      source))

    def test_results_share_no_memory_with_the_scratch(self):
        # the right-hand side and the defect are formed in the operator's
        # buffers, which every step rewrites: each result must be a fresh
        # read-only array that later steps leave bit for bit as it was
        _, _, op = self._varying_operator()
        scratch = [op._products, op._gathered, op._terms, op._residual]
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
        y = cn_step(op, const(1.0), const(0.0))
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
    with pytest.raises(ValueError, match="constant step"):
        Trajectory(np.array([0.0, 0.1, 0.35]), np.zeros(3), None)


def test_trajectory_columns_share_the_times_length():
    times = np.array([0.0, 0.1, 0.2])
    with pytest.raises(ValueError, match="one length"):
        Trajectory(times, np.zeros(3), None, {"x": np.zeros(2)})
    with pytest.raises(ValueError, match="one length"):
        Trajectory(times, np.zeros(2), None)
    assert Trajectory(times, np.zeros(3), 7, {"x": np.ones(3)}).final == 7
