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
contributes error.  The closed-form trajectory evaluates the two-branch
characteristic formula directly: for s < t the boundary term e^{-mu s} u0*
and the source integral are summed (the mild-solution expansion yields
their sum; the integrator comparison test arbitrates this reading).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionError
from .gridcore import AgeGrid, Trajectory, fd_derivative
from .spectral import _exp_cell_weights, transport_resolvent
from .verify import ModelHandle, _rollout, memo_last

_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class TransportSpec:
    """Payoff/coefficient profiles on the age grid plus the derived
    resolvent shadow price and the open-loop optimal controls."""

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


def age_cutoff_for_infinite_horizon(rho: float, mu: float,
                                    tol: float = 1e-10) -> float:
    """Finite age cutoff S with e^{-(rho+mu) S} < tol, used as a documented
    truncation of the sbar = infinity case (requires rho + mu > 0)."""
    if rho + mu <= 0.0:
        raise AssumptionError(
            "the infinite-age surrogate needs rho > -mu, got "
            f"rho = {rho}, mu = {mu}"
        )
    return float(-np.log(tol) / (rho + mu))


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
    alpha_rev = age.profile(alpha_rev)
    q1 = age.profile(q1)
    beta1 = age.profile(beta1)
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


def optimal_trajectory_closed_form(spec: TransportSpec, z0, t: float) -> np.ndarray:
    """Evaluate the closed-form optimal state at time t on the age grid.

    Characteristics: for s >= t the initial profile is transported and
    damped, e^{-mu t} z0(s-t), plus the accumulated source; for s < t the
    boundary inflow e^{-mu s} u0* is summed with the source integral.

    The source integral int_0^{min(s,t)} e^{-mu q} u1*(s-q) dq is computed
    by composite trapezoid on the age grid -- a quadrature route
    independent of the upwind integrator's exponential cell weights -- so
    comparing this evaluation against the simulation measures genuine
    discretization error; z0(s-t) is interpolated linearly when t is not a
    grid multiple.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    z0 = spec.age.profile(z0)
    nodes = spec.age.nodes
    h = spec.age.h
    out = np.empty_like(z0)
    decay_q = np.exp(-spec.mu * h * np.arange(spec.age.m + 1))
    for i, s in enumerate(nodes):
        horizon = min(s, t)
        n_full = int(np.floor(horizon / h + 1e-12))
        # trapezoid over q in [0, n_full*h] of e^{-mu q} u1*(s - q):
        # samples u1*[i], u1*[i-1], ..., u1*[i-n_full]
        if n_full > 0:
            samples = spec.u1_star[i - n_full: i + 1][::-1] * decay_q[: n_full + 1]
            acc = float(h * (samples.sum() - 0.5 * (samples[0] + samples[-1])))
        else:
            acc = 0.0
        rem = horizon - n_full * h
        if rem > 1e-12 * max(h, 1.0):
            # partial cell by trapezoid with the linearly interpolated end
            q_end = horizon
            frac = rem / h
            u_end = (1.0 - frac) * spec.u1_star[i - n_full] \
                + frac * spec.u1_star[i - n_full - 1]
            g_lo = decay_q[n_full] * spec.u1_star[i - n_full]
            g_hi = np.exp(-spec.mu * q_end) * u_end
            acc += 0.5 * rem * (g_lo + g_hi)
        if s >= t:
            shifted = s - t
            idx = shifted / h
            i0 = min(int(np.floor(idx + 1e-12)), spec.age.m - 1)
            frac = idx - i0
            z_init = (1.0 - frac) * z0[i0] + frac * z0[i0 + 1]
            out[i] = np.exp(-spec.mu * t) * z_init + acc
        else:
            out[i] = np.exp(-spec.mu * s) * spec.u0_star + acc
    return out


def simulate_transport(spec: TransportSpec, z0, u0=None, u1=None,
                       T_end: float = 1.0) -> Trajectory:
    """March the transport PDE with the exact-shift upwind scheme: the
    verification rollout over :func:`make_handle`.

    The step dt is the age step (CFL = 1), so interior values move one
    age cell per step with decay e^{-mu dt} plus the source integral; the
    boundary node is set directly from u0 (the discrete footprint of the
    boundary injection).  ``u0``/``u1`` default to the optimal open-loop
    controls; given, they are held constant over the run.
    """
    dt = spec.age.h
    control = (spec.u0_star if u0 is None else float(u0),
               spec.u1_star if u1 is None else spec.age.profile(u1))
    handle = make_handle(spec)
    handle.feedback = lambda z: control
    times, states, controls, running = _rollout(
        handle, spec.age.profile(z0).copy(), int(round(T_end / dt)), dt)
    return Trajectory(times, states, controls, running,
                      {"min_state": float(min(z.min() for z in states))})


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

    The optimal feedback is one shared pair, and the terms of a control
    (its source-cell integrals and its cost) are computed once per control
    object; the state term of the payoff is computed once per state, which
    the rollout scores at both ends of a step."""
    h, quad = spec.age.h, spec.age.quad
    optimal = (spec.u0_star, spec.u1_star)
    decay = memo_last(lambda dt: np.exp(-spec.mu * dt))
    revenue = memo_last(lambda z: quad(spec.alpha_rev * z))

    @memo_last
    def control_terms(control):
        u0_now, u1_now = control
        return (_source_cell_integrals(u1_now, spec.mu, h),
                quad(spec.q1 * u1_now + spec.beta1 * u1_now ** 2),
                spec.q0 * u0_now, spec.beta0 * u0_now ** 2)

    def step(z, control, dt):
        z_new = np.empty_like(z)
        z_new[1:] = decay(dt) * z[:-1] + control_terms(control)[0]
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
        scale_control=lambda c, s: (s * c[0], s * c[1]),
    )
