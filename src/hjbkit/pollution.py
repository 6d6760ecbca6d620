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

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import DomainError, NumericsError
from .gridcore import (CircleGrid, CNOperator, Field, Trajectory, cn_step,
                       joined, sl_apply)
from .spectral import solve_elliptic
from .verify import ModelHandle, _read_only, _rollout, memo_last


@dataclass(frozen=True)
class PollutionSpec:
    """Coefficient profiles plus the derived shadow price and policy, as
    read-only node arrays on ``grid``."""

    grid: CircleGrid
    sigma_diff: np.ndarray
    delta_dec: np.ndarray
    eta: np.ndarray
    a_prod: np.ndarray
    gamma: np.ndarray
    w_dis: np.ndarray
    rho: float
    alpha_shadow: np.ndarray
    i_star: np.ndarray
    q_const: float

    @cached_property
    def zeroth(self) -> np.ndarray:
        """-delta, the zeroth-order coefficient of the generator."""
        return _read_only(-1.0 * self.delta_dec)


def _investment_from_foc(a, gamma, eta_alpha):
    return (1.0 / (a - 1.0)) * (eta_alpha / (a - 1.0)) ** (-1.0 / gamma)


def _sup_values(a, gamma, eta_alpha):
    """Pointwise suprema over i >= 0 of ((a-1)i)^(1-gamma)/(1-gamma) - eta*alpha*i."""
    i = _investment_from_foc(a, gamma, eta_alpha)
    return ((a - 1.0) * i) ** (1.0 - gamma) / (1.0 - gamma) - eta_alpha * i


def build_pollution_spec(sigma_diff: Field, delta_dec: Field, eta: Field,
                         a_prod: Field, gamma: Field, w_dis: Field,
                         rho: float) -> PollutionSpec:
    """Validate coefficients, solve the shadow-price equation and assemble
    the state-independent policy and the constant q.  The spec's profile
    arrays are read-only, and it keeps copies of the fields passed in, so
    the caller's arrays stay as they were; a field on another grid than
    sigma_diff's is a GridError."""
    grid = sigma_diff.grid
    given = [_read_only(grid.nodal(f.values).copy()) for f in
             (sigma_diff, delta_dec, eta, a_prod, gamma, w_dis)]
    sigma_diff, delta_dec, eta, a_prod, g, w_dis = given
    for f, name in [(delta_dec, "delta"), (eta, "eta"), (a_prod, "a"),
                    (g, "gamma"), (w_dis, "w")]:
        if not np.all(np.isfinite(f)):
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
    if g.min() <= 0.0 or np.any(g == 1.0):
        raise ValueError("gamma must be positive and != 1")
    if not (np.all(g < 1.0) or np.all(g > 1.0)):
        raise ValueError("gamma must lie entirely in (0,1) or entirely in (1,inf)")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")

    alpha = solve_elliptic(grid, rho, sigma_diff, delta_dec, w_dis)
    eta_alpha = eta * alpha
    if np.any(eta_alpha <= 0.0):
        raise NumericsError(
            "eta*alpha vanishes somewhere: the pointwise investment problem "
            "is unbounded for gamma < 1 and has no interior maximizer"
        )
    i_star = _investment_from_foc(a_prod, g, eta_alpha)
    q_const = grid.quad(_sup_values(a_prod, g, eta_alpha)) / rho
    # the spec's profiles are read-only: the feedback hands out i_star
    _read_only((alpha, i_star))
    return PollutionSpec(grid, *given, rho, alpha, i_star, float(q_const))


def value_pollution(spec: PollutionSpec, p0: np.ndarray) -> float:
    """Affine value -<alpha, p0> + q of the node values p0, defined on the
    whole state space."""
    return -spec.grid.inner(p0, spec.alpha_shadow) + spec.q_const


def feedback_pollution(spec: PollutionSpec, p: np.ndarray) -> np.ndarray:
    """The node values of the optimal investment ``spec.i_star``, the same
    read-only array at every state p."""
    spec.grid.nodal(p)
    return spec.i_star


def utility(spec: PollutionSpec, i: np.ndarray) -> float:
    """Utility of consumption, the integral of ((a-1) i)^(1-gamma) /
    (1-gamma), of an investment profile's node values i; a NumericsError
    where that power leaves the float range."""
    g1 = 1.0 - spec.gamma
    with np.errstate(all="ignore"):  # judged below
        total = spec.grid.quad(
            ((spec.a_prod - 1.0) * spec.grid.nodal(i)) ** g1 / g1)
    if not math.isfinite(total):
        raise NumericsError(
            f"utility of consumption is {total} in floating point at gamma "
            f"in [{spec.gamma.min():.6g}, {spec.gamma.max():.6g}]")
    return total


def disutility(spec: PollutionSpec, p: np.ndarray) -> float:
    """Pollution disutility <w, p> of the node values p."""
    return spec.grid.inner(p, spec.w_dis)


def simulate_pollution(spec: PollutionSpec, p0: np.ndarray, T_end: float,
                       dt: float, columns=None) -> Trajectory:
    """Forward Crank-Nicolson run from the node values p0 under the
    (constant-in-time) optimal investment: the verification rollout over
    :func:`make_handle`, with the caller's ``columns``.

    The discrete maximum principle is asserted: with p0 >= 0 and a
    nonnegative source the trajectory must stay above -1e-10.
    """
    if p0.min() < 0.0:
        raise DomainError(f"initial pollution must be nonnegative, min = {p0.min()}")
    traj = _rollout(make_handle(spec, dt), p0, T_end, joined(
        columns, lambda X, C: {"_min": np.min(X, axis=1)}))
    min_p = float(traj.columns.pop("_min").min())
    if min_p < -1e-10:
        raise NumericsError(
            f"discrete maximum principle violated: min p = {min_p}"
        )
    traj.meta = {"min_state": min_p}
    return traj


def hjb_residual_pollution(spec: PollutionSpec, x: np.ndarray,
                           ref_spec: PollutionSpec) -> float:
    """Relative defect of the affine value function in the discrete HJB at
    the node values x, with the shadow price of ``ref_spec`` restricted to
    this grid.

    The x-dependent parts cancel analytically, so with ``ref_spec = spec``
    the number isolates the elliptic-solve error; with a ``ref_spec`` from
    a finer grid it measures the stencil's O(h^2) truncation error on the
    near-exact shadow price.
    """
    grid, q = spec.grid, ref_spec.q_const
    alpha = grid.restrict(ref_spec.alpha_shadow)
    v = -grid.inner(x, alpha) + q
    drift = grid.inner(x, sl_apply(grid, spec.sigma_diff, spec.zeroth, alpha))
    dis = disutility(spec, x)
    # rho*v = -<x, A alpha> - <w, x> + rho*q  (sup term equals rho*q)
    residual = spec.rho * v + drift + dis - spec.rho * q
    scale = max(abs(spec.rho * v), abs(drift), abs(dis), abs(spec.rho * q))
    return abs(residual) / scale


def make_handle(spec: PollutionSpec, dt: float) -> ModelHandle:
    """Uniform verification interface over the pollution model, stepping
    by dt.

    States and controls are node arrays.  The value, the feedback and the
    two payoff terms are the public functions of this module; the step
    uses the one factored CN operator of dt, built here.  The optimal
    investment is the one array ``spec.i_star`` at every step, so
    along the feedback its utility, and the source ``eta * i`` of the
    step, are computed once.  A rollout scores each state at both ends of
    a step, so the disutility of the state last scored is reused too.
    """
    grid, eta = spec.grid, spec.eta
    op = CNOperator(grid, spec.sigma_diff, spec.zeroth, dt)
    # read-only, so the operator keeps dt * source while it is passed again
    source = memo_last(lambda i: _read_only(eta * grid.nodal(i)))

    def step(p, i):
        return cn_step(op, p, source(i))

    scored_utility = memo_last(partial(utility, spec))
    scored_disutility = memo_last(partial(disutility, spec))

    return ModelHandle(
        value=partial(value_pollution, spec),
        feedback=partial(feedback_pollution, spec),
        step=step,
        running_payoff=lambda p, i: scored_utility(i) - scored_disutility(p),
        rho=spec.rho,
        dt=dt,
    )
