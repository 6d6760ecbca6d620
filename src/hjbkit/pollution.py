"""Transboundary pollution control on the circle.

Pollution p(t) diffuses and decays, p' = (sigma p')' - delta p + eta i,
driven by the location-wise investment i; the planner trades CRRA utility
of consumption (a - 1) i against linear disutility w * p.  The value
function is affine,

    v(x) = -<alpha, x> + q,    (rho - A) alpha = w,

and the optimal investment is state-independent:

    i*(theta) = 1/(a-1) * (eta * alpha / (a-1))^(-1/gamma).

Note the (a-1) inside the power: it comes from the first-order condition
d/di [((a-1) i)^(1-gamma)/(1-gamma) - eta i alpha] = 0 and is checked
against a scalar maximizer in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .gridcore import (CircleGrid, Field, Trajectory, cn_step,
                       discounted_quadrature, inner_product, quad_circle,
                       restrict)
from .spectral import solve_elliptic


@dataclass(frozen=True)
class PollutionSpec:
    """Coefficient profiles plus the derived shadow price and policy."""

    sigma_diff: Field
    delta_dec: Field
    eta: Field
    a_prod: Field
    gamma: Field
    w_dis: Field
    rho: float
    alpha_shadow: Field
    i_star: Field
    q_const: float

    @property
    def grid(self) -> CircleGrid:
        return self.sigma_diff.grid


def _investment_from_foc(a, gamma, eta_alpha):
    return (1.0 / (a - 1.0)) * (eta_alpha / (a - 1.0)) ** (-1.0 / gamma)


def optimal_investment(spec: PollutionSpec) -> Field:
    """State-independent optimal investment profile (recomputed from the
    first-order condition; identical to ``spec.i_star``)."""
    return Field(spec.grid, _investment_from_foc(
        spec.a_prod.values, spec.gamma.values,
        spec.eta.values * spec.alpha_shadow.values))


def _sup_values(a, gamma, eta_alpha):
    """Pointwise suprema over i >= 0 of ((a-1)i)^(1-gamma)/(1-gamma) - eta*alpha*i."""
    i = _investment_from_foc(a, gamma, eta_alpha)
    return ((a - 1.0) * i) ** (1.0 - gamma) / (1.0 - gamma) - eta_alpha * i


def build_pollution_spec(sigma_diff: Field, delta_dec: Field, eta: Field,
                         a_prod: Field, gamma: Field, w_dis: Field,
                         rho: float) -> PollutionSpec:
    """Validate coefficients, solve the shadow-price equation and assemble
    the state-independent policy and the constant q."""
    grid = sigma_diff.grid
    for f, name in [(delta_dec, "delta"), (eta, "eta"), (a_prod, "a"),
                    (gamma, "gamma"), (w_dis, "w")]:
        sigma_diff._check(f)
        if not np.all(np.isfinite(f.values)):
            raise ValueError(f"{name} must be finite")
    if sigma_diff.min() <= 0.0:
        raise ValueError(f"diffusivity sigma must be positive, min = {sigma_diff.min()}")
    if delta_dec.min() < 0.0:
        raise ValueError(f"decay delta must be nonnegative, min = {delta_dec.min()}")
    if eta.min() < 0.0:
        raise ValueError(f"emission intensity eta must be nonnegative, min = {eta.min()}")
    if a_prod.min() <= 1.0:
        raise ValueError(f"productivity a must exceed 1, min = {a_prod.min()}")
    if w_dis.min() <= 0.0:
        raise ValueError(f"disutility weight w must be positive, min = {w_dis.min()}")
    g = gamma.values
    if g.min() <= 0.0 or np.any(g == 1.0):
        raise ValueError("gamma must be positive and != 1")
    if not (np.all(g < 1.0) or np.all(g > 1.0)):
        raise ValueError("gamma must lie entirely in (0,1) or entirely in (1,inf)")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")

    alpha = solve_elliptic(rho, sigma_diff, delta_dec, w_dis)
    eta_alpha = eta.values * alpha.values
    if np.any(eta_alpha <= 0.0):
        raise NumericsError(
            "eta*alpha vanishes somewhere: the pointwise investment problem "
            "is unbounded for gamma < 1 and has no interior maximizer"
        )
    i_star = Field(grid, _investment_from_foc(a_prod.values, g, eta_alpha))
    q_const = quad_circle(Field(grid, _sup_values(a_prod.values, g,
                                                  eta_alpha))) / rho
    return PollutionSpec(sigma_diff, delta_dec, eta, a_prod, gamma, w_dis,
                         rho, alpha, i_star, float(q_const))


def value_pollution(spec: PollutionSpec, p0: Field) -> float:
    """Affine value -<alpha, p0> + q, defined on the whole state space."""
    return -inner_product(spec.alpha_shadow, p0) + spec.q_const


def running_gain(spec: PollutionSpec, p: Field, i: Field) -> float:
    """Utility-of-consumption minus pollution disutility at one instant."""
    a, g = spec.a_prod.values, spec.gamma.values
    util = quad_circle(Field(spec.grid,
                             ((a - 1.0) * i.values) ** (1.0 - g) / (1.0 - g)))
    return util - inner_product(spec.w_dis, p)


def simulate_pollution(spec: PollutionSpec, p0: Field, T_end: float,
                       dt: float = 1e-2,
                       control_scale: float = 1.0) -> Trajectory:
    """Forward Crank-Nicolson run under the (constant-in-time) optimal
    investment, scaled by ``control_scale``.

    The discrete maximum principle is asserted: with p0 >= 0 and a
    nonnegative source the trajectory must stay above -1e-10.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if p0.min() < 0.0:
        raise DomainError(f"initial pollution must be nonnegative, min = {p0.min()}")
    i = control_scale * spec.i_star
    source = spec.eta * i
    zeroth = -1.0 * spec.delta_dec
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls, integrand = [], [], np.empty(n_steps + 1)
    p = p0
    min_p = p.min()
    for k in range(n_steps + 1):
        states.append(p)
        controls.append(i)
        integrand[k] = running_gain(spec, p, i)
        min_p = min(min_p, p.min())
        if k < n_steps:
            p = cn_step(spec.sigma_diff, zeroth, p, source, dt)
    if min_p < -1e-10:
        raise NumericsError(
            f"discrete maximum principle violated: min p = {min_p}"
        )
    running = discounted_quadrature(times, integrand, spec.rho)
    return Trajectory(times, states, controls, running,
                      {"min_state": min_p})


def hjb_residual_pollution(spec: PollutionSpec, x: Field,
                           ref_spec: PollutionSpec | None = None) -> float:
    """Relative defect of the affine value function in the discrete HJB.

    The x-dependent parts cancel analytically, so with the model's own
    shadow price the number isolates the elliptic-solve error; with a
    ``ref_spec`` from a finer grid (restricted to this one) it measures the
    stencil's O(h^2) truncation error on the near-exact shadow price.
    """
    from .gridcore import _stencil_coefficients, apply_periodic_tridiagonal

    if ref_spec is None:
        alpha, q = spec.alpha_shadow, spec.q_const
    else:
        alpha = restrict(ref_spec.alpha_shadow, spec.grid)
        q = ref_spec.q_const
    v = -inner_product(alpha, x) + q
    lo, di, up = _stencil_coefficients(spec.sigma_diff, -1.0 * spec.delta_dec)
    A_alpha = Field(spec.grid,
                    apply_periodic_tridiagonal(lo, di, up, alpha.values))
    # rho*v = -<x, A alpha> - <w, x> + rho*q  (sup term equals rho*q)
    residual = spec.rho * v + inner_product(x, A_alpha) \
        + inner_product(spec.w_dis, x) - spec.rho * q
    scale = max(abs(spec.rho * v), abs(inner_product(x, A_alpha)),
                abs(inner_product(spec.w_dis, x)), abs(spec.rho * q))
    return abs(residual) / scale


def make_handle(spec: PollutionSpec, dt_hint: float = 1e-2):
    """Uniform verification interface over the pollution model."""
    from .verify import ModelHandle

    zeroth = -1.0 * spec.delta_dec

    def step(p, i, dt):
        return cn_step(spec.sigma_diff, zeroth, p, spec.eta * i, dt)

    return ModelHandle(
        value=lambda p: value_pollution(spec, p),
        feedback=lambda p: spec.i_star,
        step=step,
        running_payoff=lambda p, i: running_gain(spec, p, i),
        rho=spec.rho,
        domain_check=lambda p: True,
        dt_hint=dt_hint,
    )
