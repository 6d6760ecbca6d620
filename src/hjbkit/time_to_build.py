"""Time-to-build growth: investment becomes productive after a fixed lag d.

In output coordinates q(t) = A k(t-d) and adjusted net investment
u(t) = (A/Atilde) k'(t) (with Atilde = A - delta > 0 the depreciation-net
productivity), the dynamics collapse to the pure delay equation
q'(t) = Atilde u(t-d), with u constrained to the irreversibility band
[(1 - A/Atilde) q, q].  With xi the positive root of z = Atilde e^{-z d}
and the structural tail x1(s) = Atilde u(t-d-s), the closed form is

    Gamma(x) = x0 + int_{-d}^0 e^{xi s} x1(s) ds,
    v(x) = nu Gamma^(1-sigma)/(1-sigma),  nu = alpha^(-sigma)/xi,
    u*(x) = x0 - alpha Gamma(x),          alpha = (rho - xi(1-sigma))/(sigma xi),

interior to the band exactly on {Gamma > 0, Gamma < x0 A/(alpha Atilde)}.

The initial control on [-d, 0) is u0(s) = (A/Atilde) k0'(s): this is the
transformation under which integrating q' = Atilde u(t-d) reproduces
q(t) = A k0(t-d) identically on [0, d], which the coordinate round-trip
test checks directly.  The payoff integrates (q-u)^(1-sigma)/(1-sigma);
utility of consumption c = (Atilde/A)(q-u) differs by the constant factor
(Atilde/A)^(1-sigma), reported separately on trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import delay
from .delay import DelayModel
from .errors import AssumptionError, closed_form_constant
from .gridcore import (HistorySegment, StructuralState, Trajectory,
                       discounted_quadrature, fd_derivative, trapezoid)
from .spectral import CharRoot, char_root_ttb
from .verify import ModelHandle


@dataclass(frozen=True)
class TTBSpec:
    """Gross productivity A, depreciation, gestation lag d, preferences,
    plus the characteristic root and closed-form constants."""

    A: float
    delta_dep: float
    d: float
    sigma_crra: float
    rho: float
    Atilde: float
    xi: CharRoot
    alpha_mpc: float
    nu: float

    @property
    def growth_rate(self) -> float:
        """Closed-loop growth rate (xi - rho)/sigma of Gamma."""
        return (self.xi.xi - self.rho) / self.sigma_crra

    @property
    def utility_rescale(self) -> float:
        """Factor (Atilde/A)^(1-sigma) converting the (q-u)-form payoff to
        consumption units, whose range :func:`build_ttb_spec` checks."""
        with np.errstate(all="ignore"):  # judged by closed_form_constant
            return float(np.float64(self.Atilde / self.A)
                         ** (1.0 - self.sigma_crra))

    @cached_property
    def delay(self) -> DelayModel:
        """Delay-core constants; the output is not determined by the
        control window, so it enters the tail bound's envelope."""
        return DelayModel(lag=self.d, xi=self.xi.xi, nu=self.nu,
                          sigma=self.sigma_crra, rho=self.rho, a=1.0, b=0.0,
                          c=self.Atilde, kappa=self.alpha_mpc,
                          room=self.A / self.Atilde, head_envelope=1.0,
                          head_name="output")


def build_ttb_spec(A: float, delta_dep: float, d: float, sigma_crra: float,
                   rho: float) -> TTBSpec:
    if A <= 0.0:
        raise ValueError(f"productivity A must be positive, got {A}")
    if delta_dep < 0.0:
        raise ValueError(f"depreciation must be nonnegative, got {delta_dep}")
    if d <= 0.0:
        raise ValueError(f"gestation lag must be positive, got {d}")
    if sigma_crra <= 0.0 or sigma_crra == 1.0:
        raise ValueError(f"sigma must be positive and != 1, got {sigma_crra}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    Atilde = A - delta_dep
    if Atilde <= 0.0:
        raise AssumptionError(
            f"net productivity must be positive: A - delta = {Atilde}"
        )
    root = char_root_ttb(Atilde, d)
    xi = root.xi
    if rho <= xi * (1.0 - sigma_crra):
        raise AssumptionError(
            "finite-utility condition failed: need rho > xi*(1-sigma), "
            f"got rho = {rho}, xi*(1-sigma) = {xi * (1.0 - sigma_crra)}"
        )
    alpha_mpc = (rho - xi * (1.0 - sigma_crra)) / (sigma_crra * xi)
    with np.errstate(all="ignore"):  # judged by closed_form_constant
        nu = np.float64(alpha_mpc) ** (-sigma_crra) / xi
    spec = TTBSpec(A, delta_dep, d, sigma_crra, rho, Atilde, root,
                   float(alpha_mpc), closed_form_constant("nu", nu, sigma_crra))
    closed_form_constant("(Atilde/A)^(1-sigma)", spec.utility_rescale,
                         sigma_crra)
    return spec


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


def structural_state(spec: TTBSpec, q: float,
                     u_history: HistorySegment) -> StructuralState:
    """Lift (q, recent controls) to (x0, x1) with x1(s) = Atilde u(t-d-s);
    on the sampled grid the tail is the reversed control history times
    Atilde."""
    tail = HistorySegment(u_history.d, spec.Atilde * u_history.values[::-1])
    return StructuralState(float(q), tail)


def simulate_ttb(spec: TTBSpec, q0: float, u0_history: HistorySegment,
                 T_end: float) -> Trajectory:
    """Closed-loop integration of q'(t) = Atilde u(t-d) under the feedback.

    The step dt is d/m, so the delayed control is a stored sample; the
    output advance is the exact trapezoid of the (purely delayed)
    right-hand side, so the path error is O(dt^2).  Domain exits abort
    with diagnostics; band violations of the control are flagged.  A
    control history on a lag other than d is a ValueError.
    """
    traj = delay.simulate(
        spec.delay, structural_state(spec, q0, u0_history).array(spec.d), T_end)
    q = np.array([x.item(0) for x in traj.states])
    u = np.array(traj.controls)
    lo, hi = delay.band(spec.delay, q)
    consumption = (spec.Atilde / spec.A) * (q - u)
    traj.meta = {
        "band_ok": bool(np.all((lo - 1e-12 <= u) & (u <= hi + 1e-12))),
        "min_consumption": float(consumption.min()),
        "consumption_positive": bool(consumption.min() > 0.0),
        "raw_payoff": float(spec.utility_rescale * traj.payoff),
    }
    return traj


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
    u = np.asarray([float(c) for c in traj.controls])
    dt = traj.dt
    m = int(round(spec.d / dt))
    if not np.isclose(m * dt, spec.d, rtol=1e-9):
        raise ValueError("trajectory step does not divide the lag")
    if len(u) < m + 3:
        raise ValueError("trajectory too short: need at least one lag plus "
                         "two samples for the centered derivative")
    xi = spec.xi.xi
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
    xi, al = spec.xi.xi, spec.alpha_mpc
    At = spec.Atilde
    exd = np.exp(-xi * spec.d)
    x0 = structural_state(spec, q0, u0_history).array(spec.d)

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
    states = [None] * (n_steps + 1)
    payoff = discounted_quadrature(times, (q - u) ** (1.0 - spec.sigma_crra)
                                   / (1.0 - spec.sigma_crra), spec.rho)
    return Trajectory(times, states, list(u), payoff, {"outputs": q})


def hjb_residual_ttb(spec: TTBSpec, state: StructuralState) -> float:
    """Relative defect of the closed form in the discrete stationary HJB,
    with the generator acting on the gradient's lag profile by finite
    differences and the lag-endpoint evaluation delta_{-d} taken exactly;
    genuinely O(m^-2)."""
    return delay.hjb_residual(spec.delay, state)


def make_handle(spec: TTBSpec, dt: float) -> ModelHandle:
    """Uniform verification interface over state arrays sampled at dt."""
    return delay.make_handle(spec.delay, dt)
