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
from its own parameters.

Every state is one array: x of m + 2 entries holds the head x[0] and the
tail's m + 1 samples x[1:] on [-L, 0] at the spacing L/m, oldest first.
:func:`lift` makes it from a head and a control history, and the closed
loops, the residual and the DP oracle's batches (one row per state) all
run on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (AssumptionError, DomainError, DomainExitError,
                     GridError, NumericsError)
from .gridcore import (Blocks, HistorySegment, Trajectory, fd_derivative,
                       trapezoid)
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
    spacing L/m = dt where dt is given: anything else, a HistorySegment
    too, is a GridError here, never a numpy error later."""
    shape = getattr(x, "shape", ())
    if len(shape) != 1 or shape[0] < 6 \
            or dt is not None and model.lag / (shape[0] - 2) != dt:
        raise GridError(
            "expected a state array of m + 2 >= 6 entries at the spacing "
            f"L/m{'' if dt is None else f' = {dt}'}, L = {model.lag}; got "
            f"{type(x).__name__} of shape {shape}")
    return x


def lift(model: DelayModel, head: float,
         history: HistorySegment) -> np.ndarray:
    """The state array [head, *(c * reversed history)] of a head and the
    control history on [-L, 0]: the tail x1(s) = c u(-L-s) holds the
    newest control at s = -L.  A history on a lag other than L is a
    ValueError, and a non-finite head (or a tail overflowing c * u) a
    GridError."""
    if not np.isclose(history.d, model.lag, rtol=1e-12):
        raise ValueError(f"history covers [-{history.d}, 0], "
                         f"expected [-{model.lag}, 0]")
    x = np.concatenate(([head], model.c * history.values[::-1]))
    if not np.isfinite(x).all():
        raise GridError(f"a lifted state must be finite, got head {head} "
                        f"and tail extremes {x[1:].min()}, {x[1:].max()}")
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


def value(model: DelayModel, x: np.ndarray) -> float:
    """Closed-form value nu * Gamma^(1-sigma) / (1-sigma) of a state
    array."""
    return _value_of(model, gamma(_state(model, x), model.xi, model.lag))


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


def feedback(model: DelayModel, x: np.ndarray) -> float:
    """Optimal control u* = a x0 - kappa Gamma of a state array; off the
    open set where it lies strictly above the band's lower edge, the
    violated inequality is named."""
    x = _state(model, x)
    return _steer(model, x.item(0), gamma(x, model.xi, model.lag))


def band(model: DelayModel, x0):
    """The control band ((a - room) x0, a x0) of a head x0, a scalar or an
    array of heads."""
    return (model.a - model.room) * x0, model.a * x0


def diagnostics(model: DelayModel, x: np.ndarray) -> dict:
    """Head and Gamma of a state array, for domain-exit reports."""
    return _report(model, x.item(0), gamma(x, model.xi, model.lag))


def _shift(model: DelayModel, x: np.ndarray, u: float,
           dt: float) -> np.ndarray:
    """The state array x, of spacing dt, one sample on, holding the
    control at u: the delayed term c*u(t-L) is the last entry, the newest
    slot x[1] a placeholder for u (corrected first), and the window
    prepends c*u and drops its last entry.  The new head is Python-float
    arithmetic.  A non-finite new head or newest sample is a
    FloatingPointError when x's head, x's last sample and u are finite (an
    overflow, whatever the caller's errstate), and a GridError otherwise."""
    x0, oldest = x.item(0), x.item(-1)
    head = x0 + dt * (model.b * u + oldest)
    new = model.c * u
    if not (math.isfinite(head) and math.isfinite(new)):
        if math.isfinite(x0) and math.isfinite(oldest) and math.isfinite(u):
            raise FloatingPointError(f"overflow in a step: head {head}, "
                                     f"newest sample {new}")
        raise GridError(f"step left a non-finite state: head {head}, "
                        f"newest sample {new}")
    out = np.empty(len(x))
    out[0], out[1], out[2] = head, new, new
    out[3:] = x[2:-1]
    return out


def simulate(model: DelayModel, state0: np.ndarray, T_end: float,
             columns=None) -> Trajectory:
    """Closed-loop Heun integration of x0' = b u(t) + c u(t-L) from the
    state array state0, which is not written, and its ``columns``.

    The step dt is the history spacing L/m, so the delayed term is always
    a stored sample and the window shifts exactly (:func:`_shift`'s
    arithmetic, whose result is the Euler predictor; the loop's own array
    needs no spacing check).  The newest slot starts as a
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
    times = dt * np.arange(n_steps + 1)  # times[n] is dt * n, bit for bit
    blocks = Blocks(columns)
    integrand = np.empty(n_steps + 1)
    try:
        with np.errstate(all="raise", under="ignore"):
            for n in range(n_steps + 1):
                t = dt * n
                # the state is owned by this step until recorded
                x0, tail = x.item(0), x[1:]
                tail[0] = c * control(x0, tail, t)
                u = control(x0, tail, t)
                tail[0] = c * u
                blocks.add(x, u)
                integrand[n] = (a * x0 - u) ** (1.0 - s) / (1.0 - s)
                if n == n_steps:
                    break
                x = _shift(model, x, u, dt)  # the Euler predictor
                u_pred = control(x.item(0), x[1:], dt * (n + 1)) if b else 0.0
                x[0] = x0 + 0.5 * dt * ((b * u + tail[-1])
                                        + (b * u_pred + tail[-2]))
            cols = blocks.finish()
    except (FloatingPointError, OverflowError) as exc:
        raise NumericsError(f"closed loop left the float range at t = "
                            f"{t:.6g} ({exc})") from None
    g = np.exp(-model.rho * times) * integrand  # the discounted trapezoid
    running = np.zeros(n_steps + 1)
    running[1:] = np.cumsum(0.5 * np.diff(times) * (g[1:] + g[:-1]))
    return Trajectory(times, running, x, cols)


def heads_and_controls(states, controls) -> dict:
    """A block's columns ``_head`` and ``_control``: a simulator's own."""
    return {"_head": [x.item(0) for x in states], "_control": controls}


def hjb_residual(model: DelayModel, x: np.ndarray) -> float:
    """Relative defect of the closed form in the discrete stationary HJB at
    a state array, on its own m (finite-difference generator on the
    gradient's lag profile; the control's price p pairs the gradient with
    b at the head and c at the tail's newest point s = -L, both taken
    exactly)."""
    s = model.sigma
    g = gamma(_state(model, x), model.xi, model.lag)
    v = _value_of(model, g)
    grad_coeff = model.nu * g ** (-s)
    h = model.lag / (len(x) - 2)
    weight = np.exp(model.xi * np.linspace(-model.lag, 0.0, len(x) - 1))
    dweight = fd_derivative(weight, h)
    # <A Dv, x> = coeff * int (d/ds weight) * x1
    drift = grad_coeff * trapezoid(dweight * x[1:], h)
    p = grad_coeff * (model.b * weight[-1] + model.c * weight[0])
    x0 = model.a * x.item(0)
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
    the spacing.

    The handle binds what dt fixes.  One is the one length m + 2 whose
    spacing L/m is dt (:func:`_state`'s rule; L/m == dt holds for at most
    one m): each callback compares its input's shape with it, and sends
    anything else to :func:`_state` for its GridError.  The other is
    Gamma's m + 1 trapezoid weights, so the value and feedback run
    :func:`gamma`'s arithmetic without a cache lookup."""
    if not dt > 0.0:  # NaN too
        raise ValueError(f"dt must be positive, got {dt}")
    s, a = model.sigma, model.a
    ratio = model.lag / dt
    m = round(ratio) if math.isfinite(ratio) else 0
    # the one length at the spacing dt, or None: then _state refuses all
    shape = (m + 2,) if m >= 4 and model.lag / m == dt else None
    w = _trapezoid_weights(model.xi, m + 1, model.lag) if shape else None

    def checked(x):
        if shape is None or getattr(x, "shape", None) != shape:
            return _state(model, x, dt)
        return x

    def head_and_gamma(x):
        head = checked(x).item(0)
        return head, head + float(w.dot(x[1:]))

    def step(x, u):
        return _shift(model, checked(x), u, dt)

    def payoff(x, u):
        c = a * checked(x).item(0) - u
        if c < 0.0:
            return -np.inf  # inadmissible consumption, flags the policy
        return c ** (1.0 - s) / (1.0 - s)

    return ModelHandle(
        value=lambda x: _value_of(model, head_and_gamma(x)[1]),
        feedback=lambda x: _steer(model, *head_and_gamma(x)),
        step=step,
        running_payoff=payoff,
        rho=model.rho,
        dt=dt,
        diagnostics=functools.partial(diagnostics, model),
    )


def oracle_problem(model: DelayModel, dt: float) -> OracleProblem:
    """The batched view the DP oracle runs on, for state arrays sampled at
    the step dt, with the domain as the slacks Gamma and room x0 - kappa
    Gamma.  It has no value callback, so the oracle cannot peek at the
    closed form, and it builds no validated state.  Its payoff tail bound
    holds for sigma < 1 only, so any other sigma is an AssumptionError.

    ``run`` builds every state of every row with no loop over the steps,
    in :func:`_shift`'s arithmetic.  Past its newest slot (c times the last
    control, or the start's placeholder), each tail is a sliding window
    over [c u reversed, start tail]; the heads are one in-order cumulative
    sum of [x0, dt (b u_k + oldest_k)]; Gamma is one product of the tails,
    stacked step-major as a loop's batches are, with the trapezoid
    weights."""
    s, xi = model.sigma, model.xi
    if not s < 1.0:
        raise AssumptionError("the DP oracle's payoff tail bound needs "
                              f"sigma < 1, got sigma = {s}")

    def tail_bound(batch, t_abs):
        # any admissible continuation keeps the payoff's argument below
        # M e^{xi (t - t_abs)}, by the renewal comparison with the
        # characteristic supersolution
        window = batch[0, :0:-1] / model.c  # the batch's first row
        m0 = float(np.max(window * np.exp(
            -xi * np.linspace(-model.lag, 0.0, len(window)))))
        M = max(model.head_envelope * batch[0, 0], m0, 0.0)
        return np.exp(-model.rho * t_abs) * M ** (1.0 - s) / (
            (1.0 - s) * (model.rho - xi * (1.0 - s)))

    def utility(c):
        p = c ** -s
        return c * p / (1.0 - s), p, -s * p / c

    def run(state0, controls):
        x = _state(model, state0, dt)
        rows, n = controls.shape
        m = len(x) - 2
        new = model.c * controls
        if not (np.isfinite(x).all() and np.isfinite(new).all()):
            raise GridError("a batch run needs a finite start state and "
                            "controls: got a non-finite one, or c * u")
        windows = sliding_window_view(
            np.concatenate([new[:, ::-1], np.broadcast_to(x[2:], (rows, m))],
                           axis=1), m, axis=1)[:, ::-1]  # (rows, n + 1, m)
        heads = np.cumsum(np.column_stack([np.full(rows, x.item(0)), dt * (
            model.b * controls + windows[:, :-1, -1])]), axis=1)
        tails = np.empty((n + 1, rows, m + 1))
        tails[:, :, 1:] = windows.transpose(1, 0, 2)
        tails[0, :, 0] = x.item(1)
        tails[1:, :, 0] = new.T
        g = heads + (tails @ _trapezoid_weights(xi, m + 1, model.lag)).T
        final = np.column_stack([heads[:, -1], tails[-1]])
        del tails  # (n + 1) x rows x (m + 1): freed before the slacks
        lo, hi = band(model, heads)
        room = model.room * heads - model.kappa * g
        return np.concatenate([hi[:, :-1] - controls, hi[:, 1:] - controls,
                               controls - lo[:, :-1], g, room],
                              axis=1), final

    return OracleProblem(
        run=run,
        utility=utility,
        rho=model.rho,
        dt=dt,
        payoff_tail_bound=tail_bound,
    )
