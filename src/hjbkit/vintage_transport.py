"""Vintage capital as an age-structured transport PDE with boundary control.

Capital z(t, s) of age s obeys dz/dt + dz/ds = -mu z + u1(t, s) with new
investment entering through the boundary z(t, 0) = u0(t); profits are
linear in the stock and quadratic in both controls.  The gradient of the
value function is the state-independent resolvent profile

    abar(s) = int_s^sbar e^{-(rho+mu)(r-s)} alpha(r) dr,

so the optimal controls are open loop,

    u0* = (abar(0) - q0) / (2 beta0),   u1*(s) = (abar(s) - q1(s)) / (2 beta1(s)),

and the value is affine: v(x) = <abar, x> + (abar(0)-q0)^2/(4 rho beta0)
+ int (abar-q1)^2/(4 rho beta1).

The upwind integrator runs at CFL = 1 (dt equals the age step), which makes
advection an exact characteristic shift; only the decay/source split
contributes error.  The tests compare it with the closed-form trajectory
of ``tests/reference.py``, which evaluates the two-branch characteristic
formula directly: for s < t the boundary term e^{-mu s} u0* and the source
integral are summed (the mild-solution expansion yields their sum; that
comparison arbitrates this reading).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .gridcore import AgeGrid, Trajectory, fd_derivative, joined
from .spectral import _exp_cell_weights, transport_resolvent
from .verify import ModelHandle, _rollout, memo_last

_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class TransportSpec:
    """Payoff/coefficient profiles on the age grid plus the derived
    resolvent shadow price and the open-loop optimal controls; the
    profiles are read-only arrays (copies of the ones passed in)."""

    mu: float
    rho: float
    age: AgeGrid
    alpha_rev: np.ndarray
    q0: float
    beta0: float
    q1: np.ndarray
    beta1: np.ndarray
    abar: np.ndarray
    u0_star: float
    u1_star: np.ndarray
    positivity_ok: bool

    @cached_property
    def value_constant(self) -> float:
        """The state-independent part of the value: the quadratic control
        surplus over rho."""
        return (self.abar[0] - self.q0) ** 2 / (4.0 * self.rho * self.beta0) \
            + self.age.quad((self.abar - self.q1) ** 2
                            / (4.0 * self.rho * self.beta1))


def build_transport_spec(mu: float, rho: float, age: AgeGrid,
                         alpha_rev, q0: float, beta0: float,
                         q1, beta1) -> TransportSpec:
    """Check the standing assumptions on the payoff data, solve for abar
    and assemble the optimal controls.

    Violations are named item by item: signs, monotonicity (by discrete
    differences), the terminal condition alpha(sbar) = 0, and the boundary
    relations q0 >= q1(0+), beta0 >= beta1(0+).
    """
    if mu < 0.0:
        raise ValueError(f"depreciation mu must be nonnegative, got {mu}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    # read-only copies: the handle reuses a control's terms by identity,
    # so nothing may write through the u1_star it hands out
    alpha_rev, q1, beta1 = (age.profile(p).copy()
                            for p in (alpha_rev, q1, beta1))
    problems = []
    if alpha_rev.min() < 0.0:
        problems.append(f"revenue alpha must be nonnegative (min {alpha_rev.min()})")
    if abs(alpha_rev[-1]) > 0.0:
        problems.append(f"revenue must vanish at sbar, got alpha(sbar) = {alpha_rev[-1]}")
    if q1.min() < 0.0:
        problems.append(f"unit cost q1 must be nonnegative (min {q1.min()})")
    if beta1.min() <= 0.0:
        problems.append(f"adjustment cost beta1 must be strictly positive (min {beta1.min()})")
    for name, prof in [("alpha", alpha_rev), ("q1", q1), ("beta1", beta1)]:
        if np.any(np.diff(prof) > _MONOTONE_SLACK):
            problems.append(f"{name} must be nonincreasing in age")
    if q0 < q1[0]:
        problems.append(f"q0 = {q0} must dominate q1(0+) = {q1[0]}")
    if beta0 < beta1[0]:
        problems.append(f"beta0 = {beta0} must dominate beta1(0+) = {beta1[0]}")
    if q0 < 0.0 or beta0 < 0.0:
        problems.append("boundary costs q0, beta0 must be nonnegative")
    if problems:
        raise AssumptionError("; ".join(problems))

    abar = transport_resolvent(alpha_rev, rho, mu, age)
    u0_star = (abar[0] - q0) / (2.0 * beta0)
    u1_star = (abar - q1) / (2.0 * beta1)
    positivity_ok = bool(q0 <= abar[0] and np.all(q1 <= abar + 1e-15))
    for profile in (alpha_rev, q1, beta1, abar, u1_star):
        profile.flags.writeable = False
    return TransportSpec(mu, rho, age, alpha_rev, float(q0), float(beta0),
                         q1, beta1, abar, float(u0_star), u1_star,
                         positivity_ok)


def value_transport(spec: TransportSpec, x) -> float:
    """Affine value <abar, x> + quadratic control surplus / rho."""
    x = spec.age.profile(x)
    return float(spec.age.quad(spec.abar * x) + spec.value_constant)


def hamiltonian_transport(spec: TransportSpec, p) -> tuple[float, np.ndarray, float]:
    """Maximizers and supremum of the control part of the Hamiltonian at
    costate profile p (requires p(sbar) = 0 in the continuum; the sampled
    profile is used as given)."""
    p = spec.age.profile(p)
    u0 = (p[0] - spec.q0) / (2.0 * spec.beta0)
    u1 = (p - spec.q1) / (2.0 * spec.beta1)
    value = (p[0] - spec.q0) ** 2 / (4.0 * spec.beta0) \
        + spec.age.quad((p - spec.q1) ** 2 / (4.0 * spec.beta1))
    return float(u0), u1, float(value)


def _source_cell_integrals(u1: np.ndarray, mu: float, h: float) -> np.ndarray:
    """Per-node integrals int_0^h e^{-mu t} u1(s_i - t) dt with linear
    reconstruction of u1 (exact exponential weights), for i >= 1."""
    w0, w1 = _exp_cell_weights(mu, h)
    return u1[1:] * w0 + (u1[:-1] - u1[1:]) * (w1 / h)


def simulate_transport(spec: TransportSpec, z0, T_end: float,
                       columns=None) -> Trajectory:
    """March the transport PDE under the optimal open-loop controls with
    the exact-shift upwind scheme: the verification rollout over
    :func:`make_handle`, with the caller's ``columns``.

    The step dt is the age step (CFL = 1), so interior values move one
    age cell per step with decay e^{-mu dt} plus the source integral; the
    boundary node is set directly from u0 (the discrete footprint of the
    boundary injection).
    """
    traj = _rollout(make_handle(spec), spec.age.profile(z0).copy(), T_end,
                    joined(columns, lambda Z, C: {"_min": np.min(Z, axis=1)}))
    traj.meta = {"min_state": float(traj.columns.pop("_min").min())}
    return traj


def hjb_residual_transport(spec: TransportSpec, x) -> float:
    """Relative defect of the affine value in the discrete stationary HJB.

    The costate identity rho*abar - abar' + mu*abar = alpha is evaluated
    with a finite-difference derivative of abar and paired with x; the
    quadratic supremum cancels the constant part exactly, so the residual
    is a genuine O(h^2) consistency measurement of the resolvent profile.
    """
    x = spec.age.profile(x)
    v = value_transport(spec, x)
    dabar = fd_derivative(spec.abar, spec.age.h)
    # <alpha + A* Dv, x> with A* abar = abar' - mu abar
    drift = spec.age.quad((spec.alpha_rev + dabar - spec.mu * spec.abar) * x)
    _, _, ham = hamiltonian_transport(spec, spec.abar)
    residual = spec.rho * v - drift - ham
    scale = max(abs(spec.rho * v), abs(drift), abs(ham), 1e-300)
    return abs(residual) / scale


def make_handle(spec: TransportSpec) -> ModelHandle:
    """Uniform verification interface; controls are (u0, u1) pairs.

    The step is the age step h (CFL = 1): it moves the profile one age
    cell, with the constant decay e^{-mu h}, so no other step can be
    asked for.  The optimal feedback is one shared pair, and the terms of
    a control (its source-cell integrals and its cost) are computed once
    per control object; the state term of the payoff is computed once per
    state, which the rollout scores at both ends of a step."""
    h, quad = spec.age.h, spec.age.quad
    optimal = (spec.u0_star, spec.u1_star)
    decay = np.exp(-spec.mu * h)
    revenue = memo_last(lambda z: quad(spec.alpha_rev * z))

    @memo_last
    def control_terms(control):
        u0_now, u1_now = control
        return (_source_cell_integrals(u1_now, spec.mu, h),
                quad(spec.q1 * u1_now + spec.beta1 * u1_now ** 2),
                spec.q0 * u0_now, spec.beta0 * u0_now ** 2)

    def step(z, control):
        z_new = np.empty_like(z)
        z_new[1:] = decay * z[:-1] + control_terms(control)[0]
        z_new[0] = control[0]
        return z_new

    def payoff(z, control):
        _, cost, linear, square = control_terms(control)
        return revenue(z) - cost - linear - square

    return ModelHandle(
        value=lambda z: value_transport(spec, z),
        feedback=lambda z: optimal,
        step=step,
        running_payoff=payoff,
        rho=spec.rho,
        dt=h,
        scale_control=lambda c, s: (s * c[0], s * c[1]),
    )
