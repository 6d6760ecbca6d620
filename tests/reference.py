"""Reference cross-checks the tests compare hjbkit against.

Each function here is an independent route to a quantity the package
computes another way: the time-to-build open-loop control equation
(integrated directly, and as a defect of a closed-loop path), the
capital-to-output coordinate change, the transport model's closed-form
characteristics, the vintage model's Gamma0 kernel form and positivity
kernel, the eigenpair's Rayleigh defect, the pollution model's running
gain, the suboptimal probe with no reuse of its scaled controls, the DP
oracle's batch run as a loop over the steps, and a ``csv.writer``
trajectory file.  None of them is run by the command line or the
benchmark.  :class:`Recorder` and :func:`replay` let a test read, and
feed, a closed loop's every state, which the loops themselves keep only a
block at a time.
"""

import csv
import dataclasses

import numpy as np

from hjbkit import delay
from hjbkit.gridcore import (Blocks, CircleGrid, HistorySegment, Trajectory,
                             fd_derivative, sl_apply, trapezoid)
from hjbkit.pollution import PollutionSpec, disutility, utility
from hjbkit.spectral import EigenPair
from hjbkit.time_to_build import TTBSpec
from hjbkit.vintage_dde import VintageSpec
from hjbkit.verify import ModelHandle, value_match
from hjbkit.vintage_transport import TransportSpec


class Recorder:
    """A closed loop's columns function that records every block it is
    handed, so ``states`` and ``controls`` hold the whole run, in order;
    it adds no column."""

    def __init__(self):
        self.states, self.controls = [], []

    def __call__(self, states, controls):
        self.states += states
        self.controls += controls
        return {}


def recorded(run, *args):
    """``run(*args, columns)``'s trajectory and the :class:`Recorder` of
    its states and controls."""
    rec = Recorder()
    return run(*args, rec), rec


def discounted_quadrature(times: np.ndarray, integrand: np.ndarray,
                          rho: float) -> np.ndarray:
    """Cumulative trapezoid of exp(-rho*t) * integrand along ``times``:
    ``delay.simulate``'s running payoff."""
    g = np.exp(-rho * np.asarray(times)) * np.asarray(integrand)
    out = np.zeros_like(g)
    if len(g) > 1:
        steps = np.diff(times)
        out[1:] = np.cumsum(0.5 * steps * (g[1:] + g[:-1]))
    return out


def heads_and_controls(states, controls):
    """A closed loop's columns ``head``, each state's first entry, and
    ``control``: the columns of a delay model's run that the tests read."""
    return {"head": [x.item(0) for x in states], "control": controls}


def replay(times, states, controls=None):
    """A ``simulate(columns)`` that hands ``states`` (and ``controls``,
    None each by default) at ``times`` to its columns a block at a time,
    as a closed loop does, with a zero payoff."""
    def simulate(columns=None):
        blocks = Blocks(columns)
        for state, control in zip(states, controls or [None] * len(states)):
            blocks.add(state, control)
        return Trajectory(times, np.zeros(len(times)), states[-1],
                          blocks.finish())
    return simulate


def to_output_coords(spec: TTBSpec, k_history: HistorySegment,
                     k_derivative: HistorySegment | None = None
                     ) -> tuple[float, HistorySegment]:
    """Transform a capital history on [-d, 0] into (q0, u_history).

    q0 = A k(-d) and u(s) = (A/Atilde) k'(s); the derivative comes from the
    supplied samples or from second-order finite differences of k_history.
    """
    if not np.isclose(k_history.d, spec.d, rtol=1e-12):
        raise ValueError(
            f"capital history covers [-{k_history.d}, 0], expected [-{spec.d}, 0]"
        )
    if k_derivative is None:
        kdot = fd_derivative(k_history.values, k_history.dt)
    else:
        if len(k_derivative.values) != len(k_history.values):
            raise ValueError("derivative samples must match the history grid")
        kdot = k_derivative.values
    q0 = spec.A * float(k_history.values[0])
    u_history = HistorySegment(spec.d, (spec.A / spec.Atilde) * kdot)
    return q0, u_history


def openloop_dde_residual(spec: TTBSpec, traj: Trajectory) -> float:
    """Max defect of the simulated control path in the open-loop control
    equation

        u'(t) = Atilde u(t-d)(1-alpha)
                - alpha [ xi Atilde e^{xi t} I0(t)
                          + Atilde (-u(t-d) + e^{-xi d} u(t)) ],

    with I0(t) = int_{-d-t}^{-t} e^{xi s} u(-d-s) ds evaluated from the
    stored path (the integrand walks through the window [t-d, t]).  The
    derivative is a centered difference, so a feedback-consistent path
    leaves an O(dt + m^-2) residual that shrinks under refinement.
    """
    u = np.asarray(traj.columns["control"], dtype=float)
    dt = traj.times[1] - traj.times[0]
    m = int(round(spec.d / dt))
    if not np.isclose(m * dt, spec.d, rtol=1e-9):
        raise ValueError("trajectory step does not divide the lag")
    if len(u) < m + 3:
        raise ValueError("trajectory too short: need at least one lag plus "
                         "two samples for the centered derivative")
    xi = spec.xi
    al = spec.alpha_mpc
    worst = 0.0
    window_weights = np.exp(-xi * dt * np.arange(m + 1))
    for n in range(m + 1, len(u) - 1):
        t = traj.times[n]
        du = (u[n + 1] - u[n - 1]) / (2.0 * dt)
        u_del = u[n - m]
        # I0 via w = -d - s: e^{-xi d} int_{t-d}^t e^{-xi w} u(w) dw
        window = u[n - m: n + 1]
        integral = np.exp(-xi * (t - spec.d)) * trapezoid(
            window * window_weights, dt)
        i0 = np.exp(-xi * spec.d) * integral
        rhs = spec.Atilde * u_del * (1.0 - al) - al * (
            xi * spec.Atilde * np.exp(xi * t) * i0
            + spec.Atilde * (-u_del + np.exp(-xi * spec.d) * u[n]))
        worst = max(worst, abs(du - rhs))
    return worst


def integrate_openloop_dde(spec: TTBSpec, q0: float,
                           u0_history: HistorySegment, T_end: float) -> Trajectory:
    """Integrate the open-loop control equation directly, as printed:

        u'(t) = Atilde u(t-d)(1-alpha)
                - alpha [ xi Atilde e^{xi t} I0(t)
                          + Atilde (-u(t-d) + e^{-xi d} u(t)) ],

    with trapezoid steps (the implicit dependence of the right-hand side on
    u(t_{n+1}) -- directly and through the window integral's endpoint -- is
    linear and solved per step).  The initial jump is
    u(0) = (1-alpha) q0 - alpha int e^{xi s} [Atilde u0(-d-s)] ds.

    This route never evaluates the feedback map, so it cross-checks the
    closed-loop simulation independently.
    """
    dt = u0_history.dt
    m = u0_history.m
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    xi, al = spec.xi, spec.alpha_mpc
    At = spec.Atilde
    exd = np.exp(-xi * spec.d)
    x0 = delay.lift(spec.delay, q0, u0_history)

    u_full = np.empty(m + n_steps + 1)
    u_full[:m] = u0_history.values[:m]  # u on [-d, 0), m samples
    u_full[m] = (1.0 - al) * q0 - al * (
        delay.gamma(x0, xi, spec.d) - x0.item(0))
    window_weights = np.exp(-xi * dt * np.arange(m + 1))

    def rhs_pieces(n, idx):
        """Split f(t_n) = const_part + coef * u(t_n), with the window
        integral's unknown endpoint contribution inside coef."""
        t = times[n]
        u_del = u_full[idx - m]
        window = u_full[idx - m: idx]  # known samples, endpoint excluded
        partial = np.exp(-xi * (t - spec.d)) * dt * (
            0.5 * window[0] * window_weights[0]
            + float(np.sum(window[1:] * window_weights[1: m])))
        endpoint_w = np.exp(-xi * (t - spec.d)) * 0.5 * dt * window_weights[m]
        # I0 = e^{-xi d} (partial + endpoint_w * u(t_n))
        const = At * u_del * (1.0 - al) - al * (
            xi * At * np.exp(xi * t) * exd * partial - At * u_del)
        coef = -al * (xi * At * np.exp(xi * t) * exd * endpoint_w + At * exd)
        return const, coef

    for n in range(n_steps):
        c_n, k_n = rhs_pieces(n, m + n)
        f_n = c_n + k_n * u_full[m + n]
        c_np, k_np = rhs_pieces(n + 1, m + n + 1)
        # trapezoid step, solved for the linear unknown u_{n+1}
        u_next = (u_full[m + n] + 0.5 * dt * (f_n + c_np)) / (1.0 - 0.5 * dt * k_np)
        u_full[m + n + 1] = u_next
    u = u_full[m:]
    q = np.empty(n_steps + 1)
    q[0] = q0
    for n in range(n_steps):
        q[n + 1] = q[n] + 0.5 * dt * At * (u_full[n] + u_full[n + 1])
    payoff = discounted_quadrature(times, (q - u) ** (1.0 - spec.sigma_crra)
                                   / (1.0 - spec.sigma_crra), spec.rho)
    return Trajectory(times, payoff, None, {"control": u}, {"outputs": q})


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


def gamma0_from_history(iota: HistorySegment, xi: float) -> float:
    """Cross-check form Gamma0 = int_{-T}^0 iota(u) (1 - e^{-xi(u+T)}) du,
    valid when the head equals the history integral."""
    u = np.linspace(-iota.d, 0.0, iota.m + 1)
    w = 1.0 - np.exp(-xi * (u + iota.d))
    return trapezoid(w * iota.values, iota.dt)


def positivity_kernel(spec: VintageSpec, s) -> np.ndarray | float:
    """Weight w(s) = A - mpc*(A/xi)*(1 - e^{xi(-T-s)}) on [-T, 0].

    Along the closed loop, i(t) = int_{-T}^0 w(s) i(t+s) ds; when the
    interior condition holds, min_s w(s) = A - mpc > 0, so positive
    histories propagate positive investment.
    """
    s = np.asarray(s, dtype=float)
    xi = spec.xi
    out = spec.A - spec.mpc * (spec.A / xi) * (
        1.0 - np.exp(xi * (-spec.T_scrap - s)))
    return out if out.ndim else float(out)


def rayleigh_residual(grid: CircleGrid, A_coeff: np.ndarray,
                      pair: EigenPair) -> float:
    """Discrete defect ||L e0 - lambda0 e0|| / ||e0|| of an eigenpair of
    the node values A_coeff."""
    Lv = sl_apply(grid, np.ones(grid.n), A_coeff, pair.e0)
    num = np.sqrt(grid.h * np.sum((Lv - pair.lambda0 * pair.e0) ** 2))
    den = np.sqrt(grid.inner(pair.e0, pair.e0))
    return float(num / den)


def running_gain(spec: PollutionSpec, p: np.ndarray, i: np.ndarray) -> float:
    """Utility-of-consumption minus pollution disutility <w, p> at one
    instant."""
    return utility(spec, i) - disutility(spec, p)


def unmemoized_suboptimality_margin(handle: ModelHandle, state0,
                                    T_end: float, control_scale: float
                                    ) -> float:
    """verify.suboptimality_margin on a probe that scales the feedback's
    control afresh at every state, so no per-control term of the handle
    is ever reused along it."""
    scale = handle.scale_control
    probe = dataclasses.replace(
        handle, feedback=lambda x: scale(handle.feedback(x), control_scale))
    vm = value_match(probe, state0, T_end)
    return (vm.analytic - vm.total) / max(abs(vm.analytic), 1e-300)


def oracle_batch_run(model, dt: float, state0: np.ndarray,
                     controls: np.ndarray):
    """``run`` of ``delay.oracle_problem(model, dt)`` as a loop over the
    steps: a batch of state rows, one per row of ``controls``, advanced
    one step at a time by delay._shift's arithmetic on every row, with the
    consumptions, the band's lower edge and the domain slacks read off
    each batch."""
    w = delay._trapezoid_weights(model.xi, len(state0) - 1, model.lag)

    def domain_slacks(batch):
        g = batch[:, 0] + batch[:, 1:] @ w
        return [g, model.room * batch[:, 0] - model.kappa * g]

    def step(batch, u):
        out = np.empty_like(batch)
        out[:, 0] = batch[:, 0] + dt * (model.b * u + batch[:, -1])
        out[:, 1] = out[:, 2] = model.c * u
        out[:, 3:] = batch[:, 2:-1]
        return out

    batch = np.repeat(state0[np.newaxis], len(controls), axis=0)
    left, right, lower, gammas, rooms = [], [], [], [], []
    for u in controls.T:
        lo, hi = delay.band(model, batch[:, 0])
        left.append(hi - u)
        lower.append(u - lo)
        g, room = domain_slacks(batch)
        gammas.append(g)
        rooms.append(room)
        batch = step(batch, u)
        right.append(model.a * batch[:, 0] - u)
    g, room = domain_slacks(batch)
    slacks = np.column_stack(left + right + lower + gammas + [g]
                             + rooms + [room])
    return slacks, batch


def write_trajectory_csv(path, scenario, traj, rec, chunk: int = 64) -> None:
    """trajectory.csv through ``csv.writer``, each row's floats as their
    ``repr``: the bytes ``hjbkit run`` must write, with the scenario's
    columns computed here, a chunk at a time, from the states and controls
    of ``rec``, the :class:`Recorder` of the run ``traj``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for start in range(0, len(traj.times), chunk):
            rows = slice(start, start + chunk)
            cols = scenario.state_columns(rec.states[rows], rec.controls[rows])
            if not start:
                writer.writerow(["t", *cols, "running_payoff"])
            columns = (traj.times[rows], *cols.values(),
                       traj.running_payoff[rows])
            writer.writerows(zip(*(
                [repr(v) for v in np.asarray(col, dtype=float).tolist()]
                for col in columns)))
