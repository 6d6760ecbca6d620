"""The dynamic-programming core shared by the two delay models.

Vintage capital (k' = i(t) - i(t-T)) and time-to-build (q' = Atilde u(t-d))
lift to the same structure: a scalar head x0 plus a tail x1 on [-L, 0]
that holds the last L time units of control, newest at s = -L.  Everything
the value function sees is the equivalent capital

    Gamma(x) = x0 + int_{-L}^0 e^{xi s} x1(s) ds,

and with u the control,

    v(x)  = nu * Gamma^(1-sigma) / (1-sigma),
    u*(x) = a x0 - kappa Gamma,
    payoff (a x0 - u)^(1-sigma) / (1-sigma),
    x0'   = b u(t) + c u(t-L),   x1 = c * reversed(control window),

with u kept in the band [(a - room) x0, a x0].  Only the constants of
:class:`DelayModel` tell the models apart; each model module builds them
from its own parameters and keeps its own coordinate lift.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import trapezoid

from .errors import DomainError, DomainExitError
from .gridcore import (HistorySegment, StructuralState, Trajectory,
                       discounted_quadrature, fd_derivative)


@dataclass(frozen=True)
class DelayModel:
    """Constants of one lifted delay model (see the module docstring)."""

    lag: float
    xi: float
    nu: float
    sigma: float
    rho: float
    a: float
    b: float
    c: float
    kappa: float
    room: float
    head_envelope: float  # weight of x0 in the payoff tail bound's envelope
    head_name: str        # label of x0 in domain-exit diagnostics


@functools.lru_cache(maxsize=32)
def _trapezoid_weights(xi: float, samples: int, lag: float) -> np.ndarray:
    w = np.exp(xi * np.linspace(-lag, 0.0, samples)) * (lag / (samples - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    w.flags.writeable = False
    return w


def gamma(state: StructuralState, xi: float) -> float:
    """Equivalent capital x0 + int_{-L}^0 e^{xi s} x1(s) ds (trapezoid rule,
    with the weights cached per (xi, m, L))."""
    x1 = state.tail.values
    return state.head + float(_trapezoid_weights(xi, len(x1), state.tail.d)
                              @ x1)


def _positive_gamma(model: DelayModel, state: StructuralState) -> float:
    g = gamma(state, model.xi)
    if g <= 0.0:
        raise DomainError(f"equivalent capital must be positive, got {g}")
    return g


def value(model: DelayModel, state: StructuralState) -> float:
    """Closed-form value nu * Gamma^(1-sigma) / (1-sigma)."""
    g = _positive_gamma(model, state)
    return model.nu * g ** (1.0 - model.sigma) / (1.0 - model.sigma)


def feedback(model: DelayModel, state: StructuralState) -> float:
    """Optimal control u* = a x0 - kappa Gamma; off the open set where it
    lies strictly above the band's lower edge, the violated inequality is
    named."""
    g = _positive_gamma(model, state)
    if model.kappa * g >= model.room * state.head:
        raise DomainError(
            "state violates kappa*Gamma < room*x0 (the lower control bound "
            f"(a - room)*x0 binds): kappa*Gamma = {model.kappa * g}, "
            f"room*x0 = {model.room * state.head}"
        )
    return model.a * state.head - model.kappa * g


def in_domain(model: DelayModel, state: StructuralState) -> bool:
    """Whether :func:`feedback` accepts the state."""
    g = gamma(state, model.xi)
    return g > 0.0 and model.kappa * g < model.room * state.head


def shift(model: DelayModel, state: StructuralState, u: float,
          dt: float) -> StructuralState:
    """Exact integration of a control held at u over one sample, written
    directly on the tail: the delayed term c*u(t-L) is the tail's last
    entry, the newest window slot is x1[0] (a placeholder for u, corrected
    first), and shifting the window prepends c*u and drops the last entry.
    """
    tail = state.tail.values
    vals = np.empty_like(tail)
    vals[0] = vals[1] = model.c * u  # corrected newest slot and its copy
    vals[2:] = tail[1:-1]
    return StructuralState(state.head + dt * (model.b * u + tail[-1]),
                           HistorySegment(state.tail.d, vals))


def simulate(model: DelayModel, state0: StructuralState, T_end: float,
             dt: float | None = None,
             control_scale: float = 1.0) -> Trajectory:
    """Closed-loop Heun integration of x0' = b u(t) + c u(t-L).

    dt is locked to the history spacing L/m, so the delayed term is always
    a stored sample and the window shifts exactly.  The newest slot starts
    as a placeholder (the previous control) and is corrected by one
    fixed-point refinement of the feedback.  The head advances by the
    trapezoid of its drift, with the feedback re-evaluated at the Euler
    predictor when the drift has an undelayed part (b != 0).  A domain
    exit aborts with the offending time and diagnostics.
    """
    hist = state0.tail
    if not np.isclose(hist.d, model.lag, rtol=1e-12):
        raise ValueError(
            f"history covers [-{hist.d}, 0], expected [-{model.lag}, 0]")
    if dt is None:
        dt = hist.dt
    elif not np.isclose(dt, hist.dt, rtol=1e-12):
        raise ValueError(f"dt = {dt} must equal the history spacing {hist.dt}")

    def control(state, t):
        try:
            return control_scale * feedback(model, state)
        except DomainError as exc:
            raise DomainExitError(
                f"trajectory left the domain at t = {t:.6g}: {exc}",
                time=t,
                diagnostics={model.head_name: state.head,
                             "gamma": gamma(state, model.xi)},
            ) from exc

    a, b, c, s = model.a, model.b, model.c, model.sigma
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls = [], []
    integrand = np.empty(n_steps + 1)
    state = StructuralState(state0.head,
                            HistorySegment(hist.d, hist.values.copy()))
    for n in range(n_steps + 1):
        t = float(times[n])
        tail = state.tail.values  # owned by this step until recorded
        tail[0] = c * control(state, t)
        u = control(state, t)
        tail[0] = c * u
        states.append(state)
        controls.append(u)
        x0 = state.head
        integrand[n] = (a * x0 - u) ** (1.0 - s) / (1.0 - s)
        if n == n_steps:
            break
        pred = shift(model, state, u, dt)
        u_pred = control(pred, float(times[n + 1])) if b else 0.0
        x0 = x0 + 0.5 * dt * ((b * u + tail[-1]) + (b * u_pred + tail[-2]))
        state = StructuralState(x0, pred.tail)
    running = discounted_quadrature(times, integrand, model.rho)
    return Trajectory(times, states, controls, running)


def hjb_residual(model: DelayModel, state: StructuralState) -> float:
    """Relative defect of the closed form in the discrete stationary HJB
    (finite-difference generator on the gradient's lag profile; the
    control's price p pairs the gradient with b at the head and c at the
    tail's newest point s = -L, both taken exactly)."""
    s = model.sigma
    g = _positive_gamma(model, state)
    v = model.nu * g ** (1.0 - s) / (1.0 - s)
    grad_coeff = model.nu * g ** (-s)
    h = state.tail.dt
    weight = np.exp(model.xi * state.tail.nodes)
    dweight = fd_derivative(weight, h)
    # <A Dv, x> = coeff * int (d/ds weight) * x1
    drift = grad_coeff * float(trapezoid(dweight * state.tail.values, dx=h))
    p = grad_coeff * (model.b * weight[-1] + model.c * weight[0])
    x0 = model.a * state.head
    u_star = x0 - p ** (-1.0 / s)
    ham = (x0 - u_star) ** (1.0 - s) / (1.0 - s) + u_star * p
    residual = model.rho * v - drift - ham
    scale = max(abs(model.rho * v), abs(drift), abs(ham))
    return abs(residual) / scale


def make_handle(model: DelayModel, dt_hint: float | None = None):
    """Uniform verification interface; states are lifted structural states."""
    from .verify import ModelHandle

    s, xi = model.sigma, model.xi
    lo, hi = model.a - model.room, model.a  # band per unit of x0

    def tail_bound(state, t_abs):
        # any admissible continuation keeps the payoff's argument below
        # M e^{xi (t - t_abs)}, by the renewal comparison with the
        # characteristic supersolution
        if s >= 1.0:
            raise NotImplementedError("tail bound implemented for sigma < 1")
        window = state.tail.values[::-1] / model.c
        m0 = float(np.max(window * np.exp(-xi * state.tail.nodes)))
        M = max(model.head_envelope * state.head, m0, 0.0)
        return np.exp(-model.rho * t_abs) * M ** (1.0 - s) / (
            (1.0 - s) * (model.rho - xi * (1.0 - s)))

    def payoff(st, u):
        c = model.a * st.head - u
        if c < 0.0:
            return -np.inf  # inadmissible consumption, flags the policy
        return c ** (1.0 - s) / (1.0 - s)

    return ModelHandle(
        value=functools.partial(value, model),
        feedback=functools.partial(feedback, model),
        step=functools.partial(shift, model),
        running_payoff=payoff,
        rho=model.rho,
        domain_check=functools.partial(in_domain, model),
        control_bounds=lambda st: (lo * st.head, hi * st.head),
        payoff_tail_bound=tail_bound,
        dt_hint=dt_hint,
    )
