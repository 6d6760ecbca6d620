"""Eigenvalue, resolvent and characteristic-root computations.

Four solvers shared by the model modules:

* ``principal_eigenpair`` -- top eigenpair of f -> f'' + A(theta) f on the
  circle, by shifted inverse power iteration on the divergence-form stencil.
* ``solve_elliptic`` -- (rho - L) alpha = w for L f = (sigma f')' - delta f.
* ``transport_resolvent`` -- the backward age integral
  abar(s) = int_s^sbar exp(-(rho+mu)(r-s)) alpha(r) dr.
* ``char_root_vintage`` / ``char_root_ttb`` -- the unique positive roots of
  z = A(1 - exp(-zT)) and z = Atilde * exp(-z d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, NumericsError
from .gridcore import (AgeGrid, CyclicTridiagonal, Field,
                       _stencil_coefficients, apply_periodic_tridiagonal,
                       inner_product, sl_apply, solve_periodic_tridiagonal)

EIGEN_TOL = 1e-10         # eigen-residual at which the power iteration stops
EIGEN_MAX_ITER = 10_000   # iterations before it reports non-convergence


@dataclass(frozen=True)
class EigenPair:
    """Principal eigenvalue and positive, L2-normalized eigenfunction."""

    lambda0: float
    e0: Field


@dataclass(frozen=True)
class CharRoot:
    """Positive root of a transcendental characteristic equation, with the
    defining equation's defect at the root."""

    xi: float
    residual: float


def principal_eigenpair(A_coeff: Field) -> EigenPair:
    """Largest eigenpair of the discrete operator f -> f'' + A_coeff * f on
    A_coeff's grid.

    Shifted inverse power iteration: with shift s = max(A) + 1 the matrix
    s*I - L is positive definite and its smallest eigenvalue corresponds to
    the sought principal eigenvalue of L, so the iteration converges to the
    positive eigenvector from a constant start.  The sign is fixed by a
    positive mean, and strict positivity is asserted.
    """
    grid = A_coeff.grid
    if not np.all(np.isfinite(A_coeff.values)):
        raise ValueError("A_coeff must be finite")
    lo, di, up = _stencil_coefficients(grid.constant(1.0), A_coeff)
    shift = float(A_coeff.values.max()) + 1.0
    shifted = CyclicTridiagonal(-lo, shift - di, -up)  # factored once

    v = np.full(grid.n, 1.0 / np.sqrt(2.0 * np.pi))
    for _ in range(EIGEN_MAX_ITER):
        w = shifted.solve(v)
        w /= np.sqrt(grid.h * (w @ w))
        Lw = apply_periodic_tridiagonal(lo, di, up, w)
        lam = grid.h * (w @ Lw)
        resid = np.sqrt(grid.h * np.sum((Lw - lam * w) ** 2))
        v = w
        if resid < EIGEN_TOL:
            break
    else:
        raise NumericsError(
            f"eigen iteration did not converge in {EIGEN_MAX_ITER} steps, "
            f"last residual {resid:.3e}"
        )
    if v.sum() < 0.0:
        v = -v
    if v.min() <= 0.0:
        raise NumericsError(
            "principal eigenvector is not strictly positive "
            f"(min = {v.min():.3e}); the discrete operator should not allow this"
        )
    return EigenPair(float(lam), Field(grid, v))


def solve_elliptic(rho: float, sigma: Field, delta: Field, w: Field) -> Field:
    """Solve (rho - L) alpha = w with L f = (sigma f')' - delta f.

    For rho > 0 and delta >= 0 the matrix rho*I - L is strictly diagonally
    dominant, so the cyclic tridiagonal solve cannot be singular; the
    solution is positive whenever w is positive.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if delta.min() < 0.0:
        raise ValueError(f"delta must be nonnegative, min = {delta.min()}")
    if sigma.min() <= 0.0:
        raise ValueError(f"sigma must be positive, min = {sigma.min()}")
    sigma._check(w)
    lo, di, up = _stencil_coefficients(sigma, Field(delta.grid, -delta.values))
    alpha = solve_periodic_tridiagonal(-lo, rho - di, -up, w.values)
    return Field(w.grid, alpha)


def _exp_cell_weights(k: float, h: float):
    """Weights (w0, w1) with w0 = int_0^h e^(-k t) dt and
    w1 = int_0^h t e^(-k t) dt, stable for small k*h."""
    kh = k * h
    if abs(kh) < 1e-8:
        # series to O((kh)^2), enough for double precision at this threshold
        w0 = h * (1.0 - kh / 2.0 + kh * kh / 6.0)
        w1 = h * h * (0.5 - kh / 3.0 + kh * kh / 8.0)
    else:
        e = np.exp(-kh)
        w0 = (1.0 - e) / k
        w1 = (1.0 - e * (1.0 + kh)) / (k * k)
    return w0, w1


def transport_resolvent(alpha: np.ndarray, rho: float, mu: float,
                        age: AgeGrid) -> np.ndarray:
    """Backward age integral abar(s) = int_s^sbar e^{-(rho+mu)(r-s)} alpha(r) dr.

    Backward recursion with exact exponential weights per cell and linear
    reconstruction of alpha, so the result is exact for piecewise-linear
    alpha and O(h^2) otherwise; abar(sbar) = 0 by construction.
    """
    a = age.profile(alpha)
    k = rho + mu
    h = age.h
    w0, w1 = _exp_cell_weights(k, h)
    decay = np.exp(-k * h)
    out = np.zeros_like(a)
    for i in range(age.m - 1, -1, -1):
        cell = a[i] * w0 + (a[i + 1] - a[i]) * w1 / h
        out[i] = decay * out[i + 1] + cell
    return out


def _bisect_then_newton(f, fprime, lo, hi, target_resid=1e-12):
    """Certified bracket bisection followed by Newton polish."""
    flo = f(lo)
    fhi = f(hi)
    if flo * fhi > 0.0:
        raise NumericsError(
            f"root not bracketed on [{lo}, {hi}]: f = ({flo:.3e}, {fhi:.3e})"
        )
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
            break
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(hi)):
            break
    x = 0.5 * (lo + hi)
    for _ in range(50):
        fx = f(x)
        if abs(fx) < target_resid:
            return x, fx
        dfx = fprime(x)
        if dfx == 0.0:
            break
        x -= fx / dfx
    fx = f(x)
    if abs(fx) >= target_resid:
        raise NumericsError(f"root polish stalled at residual {fx:.3e}")
    return x, fx


def char_root_vintage(A: float, T: float) -> CharRoot:
    """Unique positive root of z = A(1 - exp(-zT)).

    Exists iff A*T > 1; then f(z) = A(1 - exp(-zT)) - z is positive just
    right of 0 and negative at z = A, certifying the bracket (0, A).
    """
    if A <= 0.0 or T <= 0.0:
        raise ValueError(f"need positive A and T, got A={A}, T={T}")
    if A * T <= 1.0:
        raise AssumptionError(
            f"no positive characteristic root: the growth condition A*T > 1 "
            f"fails (A*T = {A * T})"
        )

    def f(z):
        return A * (1.0 - np.exp(-z * T)) - z

    def fp(z):
        return A * T * np.exp(-z * T) - 1.0

    lo = A * 1e-12
    if f(lo) <= 0.0:  # pathological flatness; widen until sign is positive
        lo = A * 1e-15
    xi, resid = _bisect_then_newton(f, fp, lo, A)
    return CharRoot(float(xi), float(resid))


def char_root_ttb(Atilde: float, d: float) -> CharRoot:
    """Unique positive root of z = Atilde * exp(-z d); equals Atilde at d = 0."""
    if Atilde <= 0.0:
        raise ValueError(f"Atilde must be positive, got {Atilde}")
    if d < 0.0:
        raise ValueError(f"delay must be nonnegative, got {d}")
    if d == 0.0:
        return CharRoot(float(Atilde), 0.0)

    def f(z):
        return Atilde * np.exp(-z * d) - z

    def fp(z):
        return -Atilde * d * np.exp(-z * d) - 1.0

    xi, resid = _bisect_then_newton(f, fp, 0.0, Atilde)
    return CharRoot(float(xi), float(resid))


def rayleigh_residual(A_coeff: Field, pair: EigenPair) -> float:
    """Discrete defect ||L e0 - lambda0 e0|| / ||e0|| of an eigenpair."""
    grid = pair.e0.grid
    Lv = sl_apply(grid.constant(1.0), A_coeff, pair.e0).values
    num = np.sqrt(grid.h * np.sum((Lv - pair.lambda0 * pair.e0.values) ** 2))
    den = np.sqrt(inner_product(pair.e0, pair.e0))
    return float(num / den)
