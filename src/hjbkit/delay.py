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

The closed loops run on state arrays: x of m + 2 entries holds the head
x[0] and the tail's m + 1 samples x[1:] on [-L, 0] at the spacing L/m,
oldest first (the layout of ``StructuralState.array``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionError, DomainError, DomainExitError,
                     GridError, NumericsError)
from .gridcore import (StructuralState, Trajectory, discounted_quadrature,
                       fd_derivative, trapezoid)
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


def _state(model: DelayModel, x, dt: float | None = None):
    """``x``, checked to be a state array of m + 2 >= 6 entries, at the
    spacing L/m = dt where dt is given: anything else, a StructuralState
    too, is a GridError here, never a numpy error later."""
    shape = getattr(x, "shape", ())
    if len(shape) != 1 or shape[0] < 6 \
            or dt is not None and model.lag / (shape[0] - 2) != dt:
        raise GridError(
            "expected a state array of m + 2 >= 6 entries at the spacing "
            f"L/m{'' if dt is None else f' = {dt}'}, L = {model.lag}; got "
            f"{type(x).__name__} of shape {shape}")
    return x


def gamma(x: np.ndarray, xi: float, lag: float) -> float:
    """Equivalent capital x0 + int_{-L}^0 e^{xi s} x1(s) ds of a state
    array x on [-lag, 0] (trapezoid rule, with the weights cached per
    (xi, m, L))."""
    return x.item(0) + float(_trapezoid_weights(xi, len(x) - 1, lag)
                             .dot(x[1:]))


def _positive(g: float) -> float:
    if not g > 0.0:
        raise DomainError(f"equivalent capital must be positive, got {g}")
    return g


def _value_of(model: DelayModel, g: float) -> float:
    return model.nu * _positive(g) ** (1.0 - model.sigma) / (1.0 - model.sigma)


def value(model: DelayModel, x: np.ndarray, dt: float | None = None) -> float:
    """Closed-form value nu * Gamma^(1-sigma) / (1-sigma) of a state array
    (at the spacing dt, where given)."""
    return _value_of(model, gamma(_state(model, x, dt), model.xi, model.lag))


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


def feedback(model: DelayModel, x: np.ndarray,
             dt: float | None = None) -> float:
    """Optimal control u* = a x0 - kappa Gamma of a state array (at the
    spacing dt, where given); off the open set where it lies strictly
    above the band's lower edge, the violated inequality is named."""
    x = _state(model, x, dt)
    return _steer(model, x.item(0), gamma(x, model.xi, model.lag))


def band(model: DelayModel, x0):
    """The control band ((a - room) x0, a x0) of a head x0, a scalar or an
    array of heads."""
    return (model.a - model.room) * x0, model.a * x0


def diagnostics(model: DelayModel, x: np.ndarray) -> dict:
    """Head and Gamma of a state array, for domain-exit reports."""
    return _report(model, x.item(0), gamma(x, model.xi, model.lag))


def shift(model: DelayModel, x: np.ndarray, u: float,
          dt: float | None = None) -> np.ndarray:
    """The state array one sample of its own history on (at the spacing
    dt, where given), holding the control at u: the delayed term c*u(t-L)
    is the last entry, the newest window slot x[1] a placeholder for u
    (corrected first), and the window prepends c*u and drops its last
    entry.  A non-finite head or newest sample is a GridError."""
    n = len(_state(model, x, dt))
    head = x.item(0) + model.lag / (n - 2) * (model.b * u + x[-1])
    new = model.c * u
    if not (math.isfinite(head) and math.isfinite(new)):
        raise GridError(f"step left a non-finite state: head {head}, "
                        f"newest sample {new}")
    out = np.empty(n)
    out[0], out[1], out[2] = head, new, new
    out[3:] = x[2:-1]
    return out


def shift_batch(model: DelayModel, batch: tuple, u, dt: float) -> tuple:
    """:func:`shift` on a batch of heads (k,) and tails (k, m+1), with u a
    scalar or one control per row.  A non-finite state raises GridError,
    as :func:`shift` does."""
    heads, tails = batch
    vals = np.empty_like(tails)
    vals[:, 0] = vals[:, 1] = model.c * u
    vals[:, 2:] = tails[:, 1:-1]
    heads = heads + dt * (model.b * u + tails[:, -1])
    # the shifted samples were finite already; only the new ones can fail
    if not (np.isfinite(heads).all() and np.isfinite(vals[:, 0]).all()):
        raise GridError("batched step produced a non-finite state")
    return heads, vals


def simulate(model: DelayModel, state0: np.ndarray,
             T_end: float) -> Trajectory:
    """Closed-loop Heun integration of x0' = b u(t) + c u(t-L) from the
    state array state0, which is not written.

    The step dt is the history spacing L/m, so the delayed term is always
    a stored sample and the window shifts exactly (:func:`shift`, whose
    result is the Euler predictor).  The newest slot starts as a
    placeholder (the previous control) and is corrected by one fixed-point
    refinement of the feedback.  The head advances by the trapezoid of its
    drift, with the feedback re-evaluated at the predictor when the drift
    has an undelayed part (b != 0).  A domain exit aborts with the
    offending time and diagnostics, and an overflow is a NumericsError at
    the time of its step, as in ``verify._rollout``.
    """
    x = np.array(_state(model, state0), dtype=float)
    dt = model.lag / (len(x) - 2)

    # Gamma is x0 + w.tail, gamma()'s arithmetic on its cached weights
    w = _trapezoid_weights(model.xi, len(x) - 1, model.lag)

    def control(x0, tail, t):
        g = x0 + float(w.dot(tail))
        try:
            return _steer(model, x0, g)
        except DomainError as exc:
            raise DomainExitError(t, _report(model, x0, g)) from exc

    a, b, c, s = model.a, model.b, model.c, model.sigma
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    states, controls = [], []
    integrand = np.empty(n_steps + 1)
    try:
        with np.errstate(all="raise", under="ignore"):
            for n in range(n_steps + 1):
                t = float(times[n])
                # the state is owned by this step until recorded
                x0, tail = x.item(0), x[1:]
                tail[0] = c * control(x0, tail, t)
                u = control(x0, tail, t)
                tail[0] = c * u
                states.append(x)
                controls.append(u)
                integrand[n] = (a * x0 - u) ** (1.0 - s) / (1.0 - s)
                if n == n_steps:
                    break
                x = shift(model, x, u)  # the Euler predictor
                u_pred = control(x.item(0), x[1:], float(times[n + 1])) \
                    if b else 0.0
                x[0] = x0 + 0.5 * dt * ((b * u + tail[-1])
                                        + (b * u_pred + tail[-2]))
    except (FloatingPointError, OverflowError) as exc:
        raise NumericsError(f"closed loop left the float range at t = "
                            f"{t:.6g} ({exc})") from None
    running = discounted_quadrature(times, integrand, model.rho)
    return Trajectory(times, states, controls, running)


def hjb_residual(model: DelayModel, state: StructuralState) -> float:
    """Relative defect of the closed form in the discrete stationary HJB
    (finite-difference generator on the gradient's lag profile; the
    control's price p pairs the gradient with b at the head and c at the
    tail's newest point s = -L, both taken exactly)."""
    s = model.sigma
    g = gamma(state.array(model.lag), model.xi, model.lag)
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


def make_handle(model: DelayModel, dt: float) -> ModelHandle:
    """Uniform verification interface over state arrays whose spacing is
    the step dt, a positive number (a ValueError otherwise).  A step
    shifts one sample, so the value, feedback, step and payoff refuse an
    array of any other length, or anything else, with a GridError naming
    the spacing."""
    if not dt > 0.0:  # NaN too
        raise ValueError(f"dt must be positive, got {dt}")
    s = model.sigma

    def payoff(x, u):
        c = model.a * _state(model, x, dt).item(0) - u
        if c < 0.0:
            return -np.inf  # inadmissible consumption, flags the policy
        return c ** (1.0 - s) / (1.0 - s)

    return ModelHandle(
        value=functools.partial(value, model, dt=dt),
        feedback=functools.partial(feedback, model, dt=dt),
        step=functools.partial(shift, model, dt=dt),
        running_payoff=payoff,
        rho=model.rho,
        dt=dt,
        diagnostics=functools.partial(diagnostics, model),
    )


def oracle_problem(model: DelayModel, dt: float) -> OracleProblem:
    """The batched step/payoff view the DP oracle runs on, over batches of
    heads (k,) and tails (k, m+1) sampled at the step dt, with the domain
    as the slacks Gamma and room x0 - kappa Gamma; ``to_batch`` takes a
    state array at that spacing (a GridError otherwise).  It has no value
    callback, so the oracle cannot peek at the closed form, and it builds
    no validated state.  Its payoff tail bound holds for sigma < 1 only,
    so any other sigma is an AssumptionError."""
    s, xi = model.sigma, model.xi
    if not s < 1.0:
        raise AssumptionError("the DP oracle's payoff tail bound needs "
                              f"sigma < 1, got sigma = {s}")

    def tail_bound(batch, t_abs):
        # any admissible continuation keeps the payoff's argument below
        # M e^{xi (t - t_abs)}, by the renewal comparison with the
        # characteristic supersolution
        window = batch[1][0][::-1] / model.c  # the batch's first row
        m0 = float(np.max(window * np.exp(
            -xi * np.linspace(-model.lag, 0.0, len(window)))))
        M = max(model.head_envelope * batch[0][0], m0, 0.0)
        return np.exp(-model.rho * t_abs) * M ** (1.0 - s) / (
            (1.0 - s) * (model.rho - xi * (1.0 - s)))

    def utility(c):
        p = c ** -s
        return c * p / (1.0 - s), p, -s * p / c

    def to_batch(x):
        x = _state(model, x, dt)
        return np.array([x.item(0)]), x[np.newaxis, 1:]

    def domain_slacks(batch):
        heads, tails = batch
        g = heads + tails @ _trapezoid_weights(xi, tails.shape[1], model.lag)
        return np.column_stack([g, model.room * heads - model.kappa * g])

    return OracleProblem(
        step=functools.partial(shift_batch, model, dt=dt),
        consumption=lambda batch, u: model.a * batch[0] - u,
        utility=utility,
        rho=model.rho,
        dt=dt,
        domain_slacks=domain_slacks,
        to_batch=to_batch,
        control_bounds=lambda batch: band(model, batch[0]),
        payoff_tail_bound=tail_bound,
    )
