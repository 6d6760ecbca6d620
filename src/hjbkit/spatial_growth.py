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
from functools import cached_property, partial

import numpy as np

from .errors import AssumptionError, DomainError
from .gridcore import (CircleGrid, CNOperator, Field, Trajectory, cn_step,
                       inner_product, restrict, sl_apply)
from .spectral import EigenPair, principal_eigenpair
from .verify import ModelHandle, _rollout, memo_last


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

    @cached_property
    def grid(self) -> CircleGrid:
        return self.A_coeff.grid

    @property
    def growth_rate(self) -> float:
        """Balanced growth rate (lambda0 - rho) / sigma of <y, beta>."""
        return (self.eigen.lambda0 - self.rho) / self.sigma_crra

    @cached_property
    def consumption_profile(self) -> np.ndarray:
        """beta^(-1/sigma), the shape of every optimal consumption profile."""
        return self.beta.values ** float(-1.0 / self.sigma_crra)


def build_spatial_spec(A_coeff: Field, N_pop: Field, sigma_crra: float,
                       rho: float) -> SpatialGrowthSpec:
    """Compute the eigenpair and the closed-form constants alpha0, beta."""
    grid = A_coeff.grid
    if N_pop.min() <= 0.0:
        raise ValueError(f"population density must be positive, min = {N_pop.min()}")
    if not np.all(np.isfinite(A_coeff.values)):
        raise ValueError("technology profile must be finite")
    if sigma_crra <= 0.0 or sigma_crra == 1.0:
        raise ValueError(f"sigma must be positive and != 1, got {sigma_crra}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    eigen = principal_eigenpair(A_coeff)
    lam0 = eigen.lambda0
    # the margin guard keeps the exact-boundary case rejected despite the
    # eigensolver's last-digit wobble
    if rho - lam0 * (1.0 - sigma_crra) <= 1e-10 * max(1.0, abs(rho)):
        raise AssumptionError(
            "finiteness assumption failed: need rho > lambda0*(1-sigma), "
            f"got rho = {rho}, lambda0*(1-sigma) = {lam0 * (1.0 - sigma_crra)}"
        )
    weight = inner_product(
        Field(grid, eigen.e0.values ** (1.0 - 1.0 / sigma_crra)), N_pop)
    base = sigma_crra / (rho - lam0 * (1.0 - sigma_crra)) * weight
    alpha0 = base ** (sigma_crra / (1.0 - sigma_crra))
    beta = Field(grid, alpha0 * eigen.e0.values)
    return SpatialGrowthSpec(A_coeff, N_pop, sigma_crra, rho, eigen,
                             float(alpha0), beta)


def _pairing(x: Field, beta: Field) -> float:
    """The pairing p = <x, beta>, or a DomainError off the half-space (a
    NaN pairing is off it too)."""
    p = inner_product(x, beta)
    if not p > 0.0:
        raise DomainError(
            f"state outside the value function's domain: <x, beta> = {p} <= 0"
        )
    return p


def value_spatial(spec: SpatialGrowthSpec, x: Field) -> float:
    """Closed-form value <x, beta>^(1-sigma) / (1-sigma)."""
    p = _pairing(x, spec.beta)
    return p ** (1.0 - spec.sigma_crra) / (1.0 - spec.sigma_crra)


def feedback_spatial(spec: SpatialGrowthSpec, x: Field) -> Field:
    """Optimal consumption profile c*(theta) = <x, beta> beta^(-1/sigma)."""
    return Field(spec.grid, spec.consumption_profile * _pairing(x, spec.beta))


def utility(spec: SpatialGrowthSpec, c: Field) -> float:
    """Benthamite utility integral of a consumption profile."""
    spec.N_pop._check(c)
    s = spec.sigma_crra
    return float(spec.grid.h * ((c.values ** float(1.0 - s))
                                * spec.N_pop.values).sum()) / (1.0 - s)


def simulate_spatial(spec: SpatialGrowthSpec, x0: Field, T_end: float,
                     dt: float = 1e-2) -> Trajectory:
    """Closed-loop Crank-Nicolson run under the consumption feedback.

    This is the verification rollout over :func:`make_handle`: the
    feedback is held over each step and enters the CN right-hand side as
    an explicit source; the linear part stays implicit.  Positivity of the
    state is reported, not enforced: ``meta['positivity_ok']`` turns False
    at the first time min y < 0 (the run itself continues while
    <y, beta> > 0 holds, and a domain exit reports the pairing and the
    state's minimum).
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if x0.min() < 0.0:
        raise DomainError(f"initial capital must be nonnegative, min = {x0.min()}")
    _pairing(x0, spec.beta)
    times, states, controls, running = _rollout(
        make_handle(spec), x0, int(round(T_end / dt)), dt)
    negative = [t for t, y in zip(times, states) if y.min() < 0.0]
    meta = {
        "positivity_ok": not negative,
        "first_negative_time": float(negative[0]) if negative else None,
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
    p = _pairing(x, beta)
    v = p ** (1.0 - s) / (1.0 - s)
    # drift term <x, A_h Dv> with the stencil acting on the gradient
    grad_coeff = p ** (-s)
    A_beta = sl_apply(spec.grid.constant(1.0), spec.A_coeff, beta)
    drift = grad_coeff * inner_product(x, A_beta)
    # closed-form supremum: sigma/(1-sigma) * int N * Dv^((sigma-1)/sigma)
    ham = (s / (1.0 - s)) * p ** (1.0 - s) * inner_product(
        spec.N_pop, Field(spec.grid, beta.values ** (1.0 - 1.0 / s)))
    residual = spec.rho * v - drift - ham
    scale = max(abs(spec.rho * v), abs(drift), abs(ham))
    return abs(residual) / scale


def make_handle(spec: SpatialGrowthSpec) -> ModelHandle:
    """Uniform verification interface over the spatial model.

    The value, the feedback and the payoff are the public functions of
    this module; the feedback is the domain test, raising DomainError off
    the half-space.  The step works on node arrays, with one factored CN
    operator per step size.  A rollout scores each control at both ends of
    its step, so the utility of the control last scored is reused (the
    payoff does not depend on the state).
    """
    grid, N = spec.grid, spec.N_pop.values
    ops = {}  # dt -> factored CN operator

    def step(y, c, dt):
        if dt not in ops:
            ops[dt] = CNOperator(grid.constant(1.0), spec.A_coeff, dt)
        return Field(grid, cn_step(ops[dt], y.values, -1.0 * (c.values * N)))

    scored_utility = memo_last(partial(utility, spec))

    return ModelHandle(
        value=partial(value_spatial, spec),
        feedback=partial(feedback_spatial, spec),
        step=step,
        running_payoff=lambda y, c: scored_utility(c),
        rho=spec.rho,
        scale_control=lambda c, s: Field(c.grid, s * c.values),
        diagnostics=lambda y: {"pairing": inner_product(y, spec.beta),
                               "min_state": y.min()},
    )
