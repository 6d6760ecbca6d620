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
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, DomainExitError, GridError
from .gridcore import (HistorySegment, StructuralState, Trajectory,
                       discounted_quadrature, fd_derivative, trapezoid)
from .verify import ModelHandle, OracleProblem


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


def _positive(g: float) -> float:
    if not g > 0.0:
        raise DomainError(f"equivalent capital must be positive, got {g}")
    return g


def _value_of(model: DelayModel, g: float) -> float:
    return model.nu * _positive(g) ** (1.0 - model.sigma) / (1.0 - model.sigma)


def value(model: DelayModel, state: StructuralState) -> float:
    """Closed-form value nu * Gamma^(1-sigma) / (1-sigma)."""
    return _value_of(model, gamma(state, model.xi))


def _steer(model: DelayModel, head: float, g: float) -> float:
    """u* = a x0 - kappa Gamma from a head and its Gamma, or a DomainError
    naming the violated inequality (a NaN fails the test too)."""
    if not model.kappa * _positive(g) < model.room * head:
        raise DomainError(
            "state violates kappa*Gamma < room*x0 (the lower control bound "
            f"(a - room)*x0 binds): kappa*Gamma = {model.kappa * g}, "
            f"room*x0 = {model.room * head}"
        )
    return model.a * head - model.kappa * g


def _report(model: DelayModel, head: float, g: float) -> dict:
    return {model.head_name: head, "gamma": g}


def feedback(model: DelayModel, state: StructuralState) -> float:
    """Optimal control u* = a x0 - kappa Gamma; off the open set where it
    lies strictly above the band's lower edge, the violated inequality is
    named."""
    return _steer(model, state.head, gamma(state, model.xi))


def diagnostics(model: DelayModel, state: StructuralState) -> dict:
    """Head and equivalent capital of a state, for domain-exit reports."""
    return _report(model, state.head, gamma(state, model.xi))


def _advance(model: DelayModel, head: float, tail: np.ndarray, u: float,
             dt: float) -> tuple:
    """Exact integration of a control held at u over one sample, written
    directly on the tail: the delayed term c*u(t-L) is the tail's last
    entry, the newest window slot is x1[0] (a placeholder for u, corrected
    first), and shifting the window prepends c*u and drops the last entry.
    Returns the new head and tail samples, unchecked."""
    vals = np.empty_like(tail)
    vals[0] = vals[1] = model.c * u  # corrected newest slot and its copy
    vals[2:] = tail[1:-1]
    return head + dt * (model.b * u + tail[-1]), vals


def shift(model: DelayModel, state: StructuralState, u: float,
          dt: float) -> StructuralState:
    """The state one sample on, holding the control at u (see
    :func:`_advance`)."""
    head, vals = _advance(model, state.head, state.tail.values, u, dt)
    return StructuralState(head, HistorySegment(state.tail.d, vals))


def _checked_history(model: DelayModel,
                     state: StructuralState) -> HistorySegment:
    hist = state.tail
    if not np.isclose(hist.d, model.lag, rtol=1e-12):
        raise ValueError(
            f"history covers [-{hist.d}, 0], expected [-{model.lag}, 0]")
    return hist


def shift_batch(model: DelayModel, batch: tuple, u, dt: float) -> tuple:
    """:func:`shift` on a batch of heads (k,) and tails (k, m+1), with u a
    scalar or one control per row.  A non-finite state raises GridError,
    as the validating containers do."""
    heads, tails = batch
    vals = np.empty_like(tails)
    vals[:, 0] = vals[:, 1] = model.c * u
    vals[:, 2:] = tails[:, 1:-1]
    heads = heads + dt * (model.b * u + tails[:, -1])
    # the shifted samples were finite already; only the new ones can fail
    if not (np.isfinite(heads).all() and np.isfinite(vals[:, 0]).all()):
        raise GridError("batched step produced a non-finite state")
    return heads, vals


def simulate(model: DelayModel, state0: StructuralState,
             T_end: float) -> Trajectory:
    """Closed-loop Heun integration of x0' = b u(t) + c u(t-L).

    The step dt is the history spacing L/m, so the delayed term is always
    a stored sample and the window shifts exactly.  The newest slot starts
    as a placeholder (the previous control) and is corrected by one
    fixed-point refinement of the feedback.  The head advances by the
    trapezoid of its drift, with the feedback re-evaluated at the Euler
    predictor when the drift has an undelayed part (b != 0).  A domain
    exit aborts with the offending time and diagnostics.
    """
    hist = _checked_history(model, state0)
    dt = hist.dt

    # Gamma is x0 + w @ tail, gamma()'s arithmetic on its cached weights
    w = _trapezoid_weights(model.xi, hist.m + 1, hist.d)

    def control(x0, tail, t):
        g = x0 + float(w @ tail)
        try:
            return _steer(model, x0, g)
        except DomainError as exc:
            raise DomainExitError(t, _report(model, x0, g)) from exc

    a, b, c, s = model.a, model.b, model.c, model.sigma
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls = [], []
    integrand = np.empty(n_steps + 1)
    x0, tail = state0.head, hist.values.copy()
    state = StructuralState(x0, HistorySegment(hist.d, tail))
    for n in range(n_steps + 1):
        t = float(times[n])
        # the state's tail is owned by this step until recorded
        tail[0] = c * control(x0, tail, t)
        u = control(x0, tail, t)
        tail[0] = c * u
        states.append(state)
        controls.append(u)
        integrand[n] = (a * x0 - u) ** (1.0 - s) / (1.0 - s)
        if n == n_steps:
            break
        # Euler predictor; its window is the next state's, whose other
        # samples were finite already
        head, vals = _advance(model, x0, tail, u, dt)
        if not (math.isfinite(head) and math.isfinite(vals[0])):
            raise GridError(f"predictor is not finite: head {head}, newest "
                            f"sample {vals[0]}")
        u_pred = control(head, vals, float(times[n + 1])) if b else 0.0
        x0 = x0 + 0.5 * dt * ((b * u + tail[-1]) + (b * u_pred + tail[-2]))
        tail = vals
        state = StructuralState(x0, HistorySegment(hist.d, tail))
    running = discounted_quadrature(times, integrand, model.rho)
    return Trajectory(times, states, controls, running)


def hjb_residual(model: DelayModel, state: StructuralState) -> float:
    """Relative defect of the closed form in the discrete stationary HJB
    (finite-difference generator on the gradient's lag profile; the
    control's price p pairs the gradient with b at the head and c at the
    tail's newest point s = -L, both taken exactly)."""
    s = model.sigma
    g = gamma(state, model.xi)
    v = _value_of(model, g)
    grad_coeff = model.nu * g ** (-s)
    h = state.tail.dt
    weight = np.exp(model.xi * state.tail.nodes)
    dweight = fd_derivative(weight, h)
    # <A Dv, x> = coeff * int (d/ds weight) * x1
    drift = grad_coeff * trapezoid(dweight * state.tail.values, h)
    p = grad_coeff * (model.b * weight[-1] + model.c * weight[0])
    x0 = model.a * state.head
    u_star = x0 - p ** (-1.0 / s)
    ham = (x0 - u_star) ** (1.0 - s) / (1.0 - s) + u_star * p
    residual = model.rho * v - drift - ham
    scale = max(abs(model.rho * v), abs(drift), abs(ham))
    return abs(residual) / scale


def make_handle(model: DelayModel) -> ModelHandle:
    """Uniform verification interface; states are lifted structural states."""
    def payoff(st, u):
        c = model.a * st.head - u
        if c < 0.0:
            return -np.inf  # inadmissible consumption, flags the policy
        return c ** (1.0 - model.sigma) / (1.0 - model.sigma)

    return ModelHandle(
        value=functools.partial(value, model),
        feedback=functools.partial(feedback, model),
        step=functools.partial(shift, model),
        running_payoff=payoff,
        rho=model.rho,
        diagnostics=functools.partial(diagnostics, model),
    )


def oracle_problem(model: DelayModel) -> OracleProblem:
    """The batched step/payoff view the DP oracle runs on.  It has no value
    callback, so the oracle cannot peek at the closed form."""
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

    def batch_payoff(batch, u):
        # the power is taken per row in scalar arithmetic: numpy's array
        # power may differ from it in the last bit, and the oracle must
        # score exactly what the handle's scalar payoff scores
        return np.array([-np.inf if c < 0.0 else c ** (1.0 - s) / (1.0 - s)
                         for c in (model.a * batch[0] - u).tolist()])

    def batch_in_domain(batch):
        heads, tails = batch
        g = heads + tails @ _trapezoid_weights(xi, tails.shape[1], model.lag)
        return (g > 0.0) & (model.kappa * g < model.room * heads)

    return OracleProblem(
        step=functools.partial(shift_batch, model),
        running_payoff=batch_payoff,
        rho=model.rho,
        domain_check=batch_in_domain,
        to_batch=lambda st: (np.array([st.head]),
                             _checked_history(model, st).values[np.newaxis]),
        from_row=lambda batch, i: StructuralState(
            batch[0][i], HistorySegment(model.lag, batch[1][i].copy())),
        control_bounds=lambda batch: (lo * batch[0], hi * batch[0]),
        payoff_tail_bound=tail_bound,
    )
