import numpy as np
import pytest

from hjbkit.errors import AssumptionError
from hjbkit.gridcore import (AgeGrid, CircleGrid, inner_product, quad_circle,
                             _stencil_coefficients,
                             apply_periodic_tridiagonal)
from hjbkit.spectral import (char_root_ttb, char_root_vintage,
                             principal_eigenpair, rayleigh_residual,
                             solve_elliptic, transport_resolvent)


def dense_stencil(grid, sigma, zeroth):
    """Dense matrix of the periodic divergence-form stencil (test oracle)."""
    lo, di, up = _stencil_coefficients(sigma, zeroth)
    n = grid.n
    M = np.zeros((n, n))
    for j in range(n):
        M[j, (j - 1) % n] += lo[j]
        M[j, j] += di[j]
        M[j, (j + 1) % n] += up[j]
    return M


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection, independent of the package's root finder."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPrincipalEigenpair:
    def test_constant_coefficient(self):
        grid = CircleGrid(256)
        pair = principal_eigenpair(grid.constant(0.04))
        assert pair.lambda0 == pytest.approx(0.04, abs=1e-8)
        assert np.allclose(pair.e0.values, 1.0 / np.sqrt(2 * np.pi), atol=1e-8)

    def test_two_sided_bound(self):
        grid = CircleGrid(256)
        A = grid.from_function(lambda t: 1.0 + 0.5 * np.cos(t))
        pair = principal_eigenpair(A)
        mean_A = quad_circle(A) / (2 * np.pi)
        assert mean_A <= pair.lambda0 <= A.max() + 1e-12

    def test_against_dense_eigensolver(self):
        grid = CircleGrid(256)
        A = grid.from_function(lambda t: 1.0 + 0.5 * np.cos(t))
        pair = principal_eigenpair(A)
        M = dense_stencil(grid, grid.constant(1.0), A)
        lam_dense = np.linalg.eigvalsh(M).max()
        assert pair.lambda0 == pytest.approx(lam_dense, abs=1e-9)

    def test_normalization_positivity_residual(self):
        grid = CircleGrid(128)
        A = grid.from_function(lambda t: 0.5 + 0.2 * np.sin(2 * t))
        pair = principal_eigenpair(A)
        assert inner_product(pair.e0, pair.e0) == pytest.approx(1.0, abs=1e-10)
        assert pair.e0.min() > 0.0
        assert rayleigh_residual(A, pair) < 1e-8

    def test_shift_covariance(self):
        grid = CircleGrid(128)
        A = grid.from_function(lambda t: 0.3 * np.cos(t))
        base = principal_eigenpair(A)
        for c in (-2.0, 0.7):
            shifted = principal_eigenpair(grid.field(A.values + c))
            assert shifted.lambda0 == pytest.approx(base.lambda0 + c, abs=1e-9)
            assert np.allclose(shifted.e0.values, base.e0.values, atol=1e-10)


class TestSolveElliptic:
    def test_constant_coefficients(self):
        grid = CircleGrid(64)
        alpha = solve_elliptic(0.05, grid.constant(1.3), grid.constant(0.1),
                               grid.constant(1.0))
        assert np.allclose(alpha.values, 1.0 / 0.15, rtol=1e-12)

    def test_positivity(self):
        grid = CircleGrid(128)
        sigma = grid.from_function(lambda t: 1.0 + 0.5 * np.sin(t))
        delta = grid.from_function(lambda t: 0.1 + 0.05 * np.cos(t))
        w = grid.from_function(lambda t: 1.0 + 0.9 * np.sin(t))
        alpha = solve_elliptic(0.05, sigma, delta, w)
        assert alpha.min() > 0.0

    def test_manufactured_solution(self):
        # alpha* = 2 + cos t, sigma = 1, delta = 0, w = rho*alpha* + cos t
        rho = 0.3
        errs = []
        for n in (64, 128):
            grid = CircleGrid(n)
            alpha_star = grid.from_function(lambda t: 2.0 + np.cos(t))
            w = grid.from_function(lambda t: rho * (2.0 + np.cos(t)) + np.cos(t))
            alpha = solve_elliptic(rho, grid.constant(1.0), grid.constant(0.0), w)
            errs.append(np.max(np.abs(alpha.values - alpha_star.values)))
        assert errs[0] < 20.0 * (2 * np.pi / 64) ** 2
        assert errs[1] < errs[0] / 3.0

    def test_round_trip(self):
        grid = CircleGrid(96)
        rng = np.random.default_rng(5)
        sigma = grid.from_function(lambda t: 1.0 + 0.4 * np.cos(2 * t))
        delta = grid.from_function(lambda t: 0.2 + 0.1 * np.sin(t))
        w = grid.field(rng.normal(size=grid.n))
        rho = 0.7
        alpha = solve_elliptic(rho, sigma, delta, w)
        lo, di, up = _stencil_coefficients(sigma,
                                           grid.field(-1.0 * delta.values))
        back = rho * alpha.values - apply_periodic_tridiagonal(lo, di, up,
                                                               alpha.values)
        assert np.max(np.abs(back - w.values)) < 1e-10


class TestTransportResolvent:
    def test_zero(self):
        age = AgeGrid(2.0, 40)
        assert np.all(transport_resolvent(np.zeros(41), 0.1, 0.2, age) == 0.0)

    def test_constant_alpha(self):
        # analytic: abar(s) = ahat (1 - e^{-(rho+mu)(sbar-s)}) / (rho+mu)
        age = AgeGrid(3.0, 60)
        rho, mu, ahat = 0.06, 0.15, 2.5
        out = transport_resolvent(np.full(61, ahat), rho, mu, age)
        k = rho + mu
        exact = ahat * (1.0 - np.exp(-k * (age.sbar - age.nodes))) / k
        assert np.max(np.abs(out - exact)) < 1e-10

    def test_terminal_condition(self):
        age = AgeGrid(1.0, 16)
        out = transport_resolvent(np.linspace(1.0, 0.0, 17), 0.3, 0.0, age)
        assert out[-1] == 0.0

    def test_linearity(self):
        age = AgeGrid(2.0, 32)
        rng = np.random.default_rng(9)
        a1 = rng.random(33)
        a2 = rng.random(33)
        f = lambda a: transport_resolvent(a, 0.1, 0.05, age)
        assert np.max(np.abs(f(a1 + a2) - f(a1) - f(a2))) < 1e-12

    def test_linear_alpha_exact(self):
        # the recursion reconstructs alpha linearly per cell, so a globally
        # linear alpha is integrated exactly
        age = AgeGrid(2.0, 10)
        rho, mu = 0.2, 0.1
        k = rho + mu
        alpha = 1.0 - age.nodes / age.sbar
        out = transport_resolvent(alpha, rho, mu, age)
        s = age.nodes
        # exact antiderivative of e^{-k(r-s)} (1 - r/sbar) dr on [s, sbar]
        sb = age.sbar
        exact = ((1.0 - s / sb) / k - 1.0 / (k * k * sb)
                 + np.exp(-k * (sb - s)) / (k * k * sb))
        assert np.max(np.abs(out - exact)) < 1e-12


class TestCharRoots:
    def test_vintage_frozen_oracle(self):
        # frozen from an independent 200-step bisection of A(1-e^{-zT}) - z
        root = char_root_vintage(1.0, 2.0)
        assert root.xi == pytest.approx(0.796812130020020, abs=1e-12)
        assert abs(root.residual) < 1e-12
        root2 = char_root_vintage(2.0, 1.0)
        assert root2.xi == pytest.approx(1.593624260040040, abs=1e-12)

    def test_vintage_matches_fresh_bisection(self):
        for A, T in [(0.8, 2.0), (1.5, 1.2), (3.0, 0.6)]:
            xi = char_root_vintage(A, T).xi
            oracle = bisect_root(lambda z: A * (1 - np.exp(-z * T)) - z,
                                 1e-12, A)
            assert xi == pytest.approx(oracle, abs=1e-10)

    def test_vintage_rejects_at_most_unit_product(self):
        with pytest.raises(AssumptionError):
            char_root_vintage(1.0, 1.0)
        with pytest.raises(AssumptionError):
            char_root_vintage(0.5, 1.5)

    def test_vintage_monotone_in_A(self):
        T = 1.5
        roots = [char_root_vintage(A, T).xi for A in np.linspace(0.8, 3.0, 12)]
        assert np.all(np.diff(roots) > 0.0)

    def test_ttb_no_delay(self):
        root = char_root_ttb(0.7, 0.0)
        assert root.xi == 0.7
        assert root.residual == 0.0

    def test_ttb_inversion_round_trip(self):
        # choose xi* = 0.2, d = 2, define Atilde so the root is exactly xi*
        xi_star, d = 0.2, 2.0
        root = char_root_ttb(xi_star * np.exp(xi_star * d), d)
        assert root.xi == pytest.approx(xi_star, abs=1e-12)

    def test_ttb_frozen_oracle(self):
        root = char_root_ttb(0.3, 1.0)
        assert root.xi == pytest.approx(0.236755310788559, abs=1e-12)
        assert abs(root.residual) < 1e-12

    def test_ttb_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            char_root_ttb(0.0, 1.0)
