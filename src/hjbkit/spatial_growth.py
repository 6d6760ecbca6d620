"""Spatially distributed AK growth on the circle.

Capital density y(t) follows y' = y'' + A(theta) y - c(theta) N(theta) and a
planner maximizes discounted Benthamite CRRA utility of per-capita
consumption c.  With (lambda0, e0) the principal eigenpair of
f -> f'' + A f, the value function and optimal feedback close:

    v(x)  = <x, beta>^(1-sigma) / (1 - sigma),   beta = alpha0 * e0,
    c*(x) = <x, beta> * beta^(-1/sigma),

valid on the half-space <x, beta> > 0, provided the discount rate
satisfies rho > lambda0 * (1 - sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionError, DomainError, DomainExitError
from .gridcore import (CircleGrid, Field, Trajectory, cn_step,
                       discounted_quadrature, inner_product, quad_circle,
                       restrict, sl_apply)
from .spectral import EigenPair, principal_eigenpair


@dataclass(frozen=True)
class SpatialGrowthSpec:
    """Parameters plus derived spectral quantities of the spatial AK model."""

    A_coeff: Field
    N_pop: Field
    sigma_crra: float
    rho: float
    eigen: EigenPair
    alpha0: float
    beta: Field

    @property
    def grid(self) -> CircleGrid:
        return self.A_coeff.grid

    @property
    def growth_rate(self) -> float:
        """Balanced growth rate (lambda0 - rho) / sigma of <y, beta>."""
        return (self.eigen.lambda0 - self.rho) / self.sigma_crra


def build_spatial_spec(A_coeff: Field, N_pop: Field, sigma_crra: float,
                       rho: float, grid: CircleGrid | None = None,
                       eigen_tol: float = 1e-10) -> SpatialGrowthSpec:
    """Compute the eigenpair and the closed-form constants alpha0, beta."""
    grid = grid or A_coeff.grid
    if N_pop.min() <= 0.0:
        raise ValueError(f"population density must be positive, min = {N_pop.min()}")
    if not np.all(np.isfinite(A_coeff.values)):
        raise ValueError("technology profile must be finite")
    if sigma_crra <= 0.0 or sigma_crra == 1.0:
        raise ValueError(f"sigma must be positive and != 1, got {sigma_crra}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    eigen = principal_eigenpair(A_coeff, grid, tol=eigen_tol)
    lam0 = eigen.lambda0
    # the margin guard keeps the exact-boundary case rejected despite the
    # eigensolver's last-digit wobble
    if rho - lam0 * (1.0 - sigma_crra) <= 1e-10 * max(1.0, abs(rho)):
        raise AssumptionError(
            "finiteness assumption failed: need rho > lambda0*(1-sigma), "
            f"got rho = {rho}, lambda0*(1-sigma) = {lam0 * (1.0 - sigma_crra)}"
        )
    weight = quad_circle((eigen.e0 ** (1.0 - 1.0 / sigma_crra)) * N_pop)
    base = sigma_crra / (rho - lam0 * (1.0 - sigma_crra)) * weight
    alpha0 = base ** (sigma_crra / (1.0 - sigma_crra))
    beta = alpha0 * eigen.e0
    return SpatialGrowthSpec(A_coeff, N_pop, sigma_crra, rho, eigen,
                             float(alpha0), beta)


def _pairing(spec: SpatialGrowthSpec, x: Field) -> float:
    p = inner_product(x, spec.beta)
    if p <= 0.0:
        raise DomainError(
            f"state outside the value function's domain: <x, beta> = {p} <= 0"
        )
    return p


def value_spatial(spec: SpatialGrowthSpec, x: Field) -> float:
    """Closed-form value <x, beta>^(1-sigma) / (1-sigma)."""
    p = _pairing(spec, x)
    return p ** (1.0 - spec.sigma_crra) / (1.0 - spec.sigma_crra)


def feedback_spatial(spec: SpatialGrowthSpec, x: Field) -> Field:
    """Optimal consumption profile c*(theta) = <x, beta> beta^(-1/sigma)."""
    p = _pairing(spec, x)
    return p * (spec.beta ** (-1.0 / spec.sigma_crra))


def utility(spec: SpatialGrowthSpec, c: Field) -> float:
    """Benthamite utility integral of a consumption profile."""
    s = spec.sigma_crra
    return quad_circle((c ** (1.0 - s)) * spec.N_pop) / (1.0 - s)


def simulate_spatial(spec: SpatialGrowthSpec, x0: Field, T_end: float,
                     dt: float = 1e-2, control_scale: float = 1.0) -> Trajectory:
    """Closed-loop Crank-Nicolson run under the consumption feedback.

    The feedback is frozen within each step and enters the CN right-hand
    side as an explicit source; the linear part stays implicit.  Positivity
    of the state is reported, not enforced: ``meta['positivity_ok']`` turns
    False at the first time min y < 0 (the run itself continues while
    <y, beta> > 0 holds).

    ``control_scale`` multiplies the feedback (used by verification to
    score deliberately suboptimal controls).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if x0.min() < 0.0:
        raise DomainError(f"initial capital must be nonnegative, min = {x0.min()}")
    _pairing(spec, x0)
    grid = spec.grid
    one = grid.constant(1.0)
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls, integrand = [], [], np.empty(n_steps + 1)
    first_negative = None
    y = x0
    for k in range(n_steps + 1):
        try:
            c = control_scale * feedback_spatial(spec, y)
        except DomainError as exc:
            raise DomainExitError(
                f"trajectory left the domain at t = {times[k]:.6g}: {exc}",
                time=float(times[k]),
                diagnostics={"pairing": inner_product(y, spec.beta),
                             "min_state": y.min()},
            ) from exc
        states.append(y)
        controls.append(c)
        integrand[k] = utility(spec, c)
        if first_negative is None and y.min() < 0.0:
            first_negative = float(times[k])
        if k < n_steps:
            y = cn_step(one, spec.A_coeff, y, -1.0 * (c * spec.N_pop), dt)
    running = discounted_quadrature(times, integrand, spec.rho)
    meta = {
        "positivity_ok": first_negative is None,
        "first_negative_time": first_negative,
        "pairing_initial": inner_product(x0, spec.beta),
        "pairing_final": inner_product(states[-1], spec.beta),
    }
    return Trajectory(times, states, controls, running, meta)


def hjb_residual_spatial(spec: SpatialGrowthSpec, x: Field,
                         ref_spec: SpatialGrowthSpec | None = None) -> float:
    """Relative defect of the closed-form value in the discrete stationary
    HJB equation at x.

    All generator actions are evaluated numerically (stencil on the
    gradient, grid quadrature for the supremum term) instead of through the
    eigen identity, so the number measures how well the closed form
    satisfies the discretized equation.  With ``ref_spec`` built on a finer
    grid (an integer multiple of this one), its eigen data are restricted
    to the working grid and the residual then exposes the O(h^2) truncation
    error of the stencil; without it the residual collapses to the eigen
    iteration tolerance.
    """
    beta = spec.beta
    if ref_spec is not None:
        beta = restrict(ref_spec.beta, spec.grid)
    s = spec.sigma_crra
    p = inner_product(x, beta)
    if p <= 0.0:
        raise DomainError(f"state outside the value function's domain: {p} <= 0")
    v = p ** (1.0 - s) / (1.0 - s)
    # drift term <x, A_h Dv> with the stencil acting on the gradient
    grad_coeff = p ** (-s)
    A_beta = sl_apply(spec.grid.constant(1.0), spec.A_coeff, beta)
    drift = grad_coeff * inner_product(x, A_beta)
    # closed-form supremum: sigma/(1-sigma) * int N * Dv^((sigma-1)/sigma)
    ham = (s / (1.0 - s)) * p ** (1.0 - s) * quad_circle(
        spec.N_pop * (beta ** (1.0 - 1.0 / s)))
    residual = spec.rho * v - drift - ham
    scale = max(abs(spec.rho * v), abs(drift), abs(ham))
    return abs(residual) / scale


def make_handle(spec: SpatialGrowthSpec, dt_hint: float = 1e-2):
    """Uniform verification interface over the spatial model."""
    from .verify import ModelHandle

    one = spec.grid.constant(1.0)

    def step(y, c, dt):
        return cn_step(one, spec.A_coeff, y, -1.0 * (c * spec.N_pop), dt)

    return ModelHandle(
        value=lambda y: value_spatial(spec, y),
        feedback=lambda y: feedback_spatial(spec, y),
        step=step,
        running_payoff=lambda y, c: utility(spec, c),
        rho=spec.rho,
        domain_check=lambda y: inner_product(y, spec.beta) > 0.0,
        dt_hint=dt_hint,
    )
