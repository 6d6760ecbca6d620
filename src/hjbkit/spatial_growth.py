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

from .errors import (AssumptionError, DomainError, NumericsError,
                     closed_form_constant)
from .gridcore import (CircleGrid, CNOperator, Field, Trajectory, cn_step,
                       joined, sl_apply)
from .spectral import EigenPair, principal_eigenpair
from .verify import ModelHandle, _read_only, _rollout, memo_last


@dataclass(frozen=True)
class SpatialGrowthSpec:
    """Parameters plus derived spectral quantities of the spatial AK model;
    the profiles are read-only node arrays on ``grid``."""

    grid: CircleGrid
    A_coeff: np.ndarray
    N_pop: np.ndarray
    sigma_crra: float
    rho: float
    eigen: EigenPair
    alpha0: float
    beta: np.ndarray

    @property
    def growth_rate(self) -> float:
        """Balanced growth rate (lambda0 - rho) / sigma of <y, beta>."""
        return (self.eigen.lambda0 - self.rho) / self.sigma_crra

    @cached_property
    def consumption_profile(self) -> np.ndarray:
        """beta^(-1/sigma), the shape of every optimal consumption profile."""
        return _read_only(self.beta ** float(-1.0 / self.sigma_crra))


def build_spatial_spec(A_coeff: Field, N_pop: Field, sigma_crra: float,
                       rho: float) -> SpatialGrowthSpec:
    """Compute the eigenpair and the closed-form constants alpha0, beta.
    The spec's profile arrays are read-only, and it keeps copies of the
    fields passed in, so the caller's arrays stay as they were; a field on
    another grid than A_coeff's is a GridError."""
    grid = A_coeff.grid
    A_coeff, N_pop = (_read_only(grid.nodal(f.values).copy())
                      for f in (A_coeff, N_pop))
    if N_pop.min() <= 0.0:
        raise ValueError(f"population density must be positive, min = {N_pop.min()}")
    if not np.all(np.isfinite(A_coeff)):
        raise ValueError("technology profile must be finite")
    if sigma_crra <= 0.0 or sigma_crra == 1.0:
        raise ValueError(f"sigma must be positive and != 1, got {sigma_crra}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    eigen = principal_eigenpair(grid, A_coeff)
    lam0 = eigen.lambda0
    # the margin guard keeps the exact-boundary case rejected despite the
    # eigensolver's last-digit wobble
    if rho - lam0 * (1.0 - sigma_crra) <= 1e-10 * max(1.0, abs(rho)):
        raise AssumptionError(
            "finiteness assumption failed: need rho > lambda0*(1-sigma), "
            f"got rho = {rho}, lambda0*(1-sigma) = {lam0 * (1.0 - sigma_crra)}"
        )
    with np.errstate(all="ignore"):  # judged by closed_form_constant
        weight = grid.inner(eigen.e0 ** (1.0 - 1.0 / sigma_crra), N_pop)
        base = sigma_crra / (rho - lam0 * (1.0 - sigma_crra)) * weight
        alpha0 = np.float64(base) ** (sigma_crra / (1.0 - sigma_crra))
        # the value's constant: v(x) = alpha0^(1-sigma) <x, e0>^(1-sigma)
        # / (1-sigma), so past the float range no value is representable
        value_scale = alpha0 ** (1.0 - sigma_crra)
    alpha0 = closed_form_constant("alpha0", alpha0, sigma_crra)
    closed_form_constant("alpha0^(1-sigma)", value_scale, sigma_crra)
    beta = alpha0 * eigen.e0
    _read_only((eigen.e0, beta))
    return SpatialGrowthSpec(grid, A_coeff, N_pop, sigma_crra, rho, eigen,
                             alpha0, beta)


def pairing(spec: SpatialGrowthSpec, x: np.ndarray) -> float:
    """The pairing <x, beta> of a state's node values x."""
    return spec.grid.inner(x, spec.beta)


def _in_domain(p: float) -> float:
    """The pairing p = <x, beta>, or a DomainError off the half-space (a
    NaN pairing is off it too)."""
    if not p > 0.0:
        raise DomainError(
            f"state outside the value function's domain: <x, beta> = {p} <= 0"
        )
    return p


def value_spatial(spec: SpatialGrowthSpec, x: np.ndarray) -> float:
    """Closed-form value <x, beta>^(1-sigma) / (1-sigma) of the node values
    x; a NumericsError where the power leaves the float range."""
    p, s = _in_domain(pairing(spec, x)), spec.sigma_crra
    try:
        return p ** (1.0 - s) / (1.0 - s)
    except OverflowError:
        raise NumericsError(
            f"value <x, beta>^(1-sigma)/(1-sigma) is past the float range at "
            f"<x, beta> = {p:.6g}, sigma = {s:.6g}") from None


def feedback_spatial(spec: SpatialGrowthSpec, x: np.ndarray) -> np.ndarray:
    """Node values of the optimal consumption profile c*(theta) =
    <x, beta> beta^(-1/sigma)."""
    return spec.consumption_profile * _in_domain(pairing(spec, x))


def utility(spec: SpatialGrowthSpec, c: np.ndarray) -> float:
    """Benthamite utility integral of a consumption profile's node values."""
    s = spec.sigma_crra
    return spec.grid.quad(spec.grid.nodal(c) ** float(1.0 - s)
                          * spec.N_pop) / (1.0 - s)


def simulate_spatial(spec: SpatialGrowthSpec, x0: np.ndarray, T_end: float,
                     dt: float, columns=None) -> Trajectory:
    """Closed-loop Crank-Nicolson run under the consumption feedback.

    This is the verification rollout over :func:`make_handle`, from the
    node values x0, with ``columns``: the feedback is held over each step
    and enters the CN right-hand side as an explicit source; the linear
    part stays implicit.  Positivity of the state is reported, not enforced:
    ``meta['positivity_ok']`` turns False at the first time min y < 0 (the
    run itself continues while <y, beta> > 0 holds, and a domain exit, at
    t = 0 too, reports the pairing and the state's minimum).
    """
    if x0.min() < 0.0:
        raise DomainError(f"initial capital must be nonnegative, min = {x0.min()}")
    traj = _rollout(make_handle(spec, dt), x0, T_end, joined(
        columns, lambda X, C: {"_min": np.min(X, axis=1)}))
    negative = np.flatnonzero(traj.columns.pop("_min") < 0.0)
    first = float(traj.times[negative[0]]) if negative.size else None
    traj.meta = {
        "positivity_ok": first is None,
        "first_negative_time": first,
        "pairing_initial": pairing(spec, x0),
        "pairing_final": pairing(spec, traj.final),
    }
    return traj


def hjb_residual_spatial(spec: SpatialGrowthSpec, x: np.ndarray,
                         ref_spec: SpatialGrowthSpec) -> float:
    """Relative defect of the closed-form value in the discrete stationary
    HJB equation at the node values x.

    All generator actions are evaluated numerically (stencil on the
    gradient, grid quadrature for the supremum term) instead of through the
    eigen identity, so the number measures how well the closed form
    satisfies the discretized equation.  The eigen data come from
    ``ref_spec``, restricted to the working grid.  Built on a finer grid
    (an integer multiple of this one), it exposes the O(h^2) truncation
    error of the stencil; ``ref_spec = spec`` collapses the residual to
    the eigen iteration tolerance.
    """
    grid, s = spec.grid, spec.sigma_crra
    beta = grid.restrict(ref_spec.beta)
    p = _in_domain(grid.inner(x, beta))
    v = p ** (1.0 - s) / (1.0 - s)
    # drift term <x, A_h Dv> with the stencil acting on the gradient
    grad_coeff = p ** (-s)
    A_beta = sl_apply(grid, np.ones(grid.n), spec.A_coeff, beta)
    drift = grad_coeff * grid.inner(x, A_beta)
    # closed-form supremum: sigma/(1-sigma) * int N * Dv^((sigma-1)/sigma)
    ham = (s / (1.0 - s)) * p ** (1.0 - s) * grid.inner(
        beta ** (1.0 - 1.0 / s), spec.N_pop)
    residual = spec.rho * v - drift - ham
    scale = max(abs(spec.rho * v), abs(drift), abs(ham))
    return abs(residual) / scale


def make_handle(spec: SpatialGrowthSpec, dt: float) -> ModelHandle:
    """Uniform verification interface over the spatial model, stepping by
    dt.

    States and controls are node arrays.  The value, the feedback and the
    payoff are the public functions of this module; the feedback is the
    domain test, raising DomainError off the half-space.  The step uses
    the one factored CN operator of dt, built here, forced by dt * (-c N)
    (a new array, scaled in place).  A rollout scores each control at both
    ends of its step, so the utility of the control last scored is reused
    (the payoff does not depend on the state).
    """
    # c * (-N) is -1.0 * (c * N) bit for bit: rounding is sign-symmetric
    grid, minus_N = spec.grid, -1.0 * spec.N_pop
    op = CNOperator(grid, np.ones(grid.n), spec.A_coeff, dt)

    def step(y, c):
        forcing = grid.nodal(c) * minus_N
        forcing *= dt
        return cn_step(op, y, forcing)

    scored_utility = memo_last(partial(utility, spec))

    return ModelHandle(
        value=partial(value_spatial, spec),
        feedback=partial(feedback_spatial, spec),
        step=step,
        running_payoff=lambda y, c: scored_utility(c),
        rho=spec.rho,
        dt=dt,
        diagnostics=lambda y: {"pairing": pairing(spec, y),
                               "min_state": float(y.min())},
    )
