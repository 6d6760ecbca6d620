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
from .gridcore import HistorySegment, Trajectory, joined
from .spectral import char_root_ttb
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
    xi: float
    alpha_mpc: float
    nu: float

    @property
    def growth_rate(self) -> float:
        """Closed-loop growth rate (xi - rho)/sigma of Gamma."""
        return (self.xi - self.rho) / self.sigma_crra

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
        return DelayModel(lag=self.d, xi=self.xi, nu=self.nu,
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
    xi = char_root_ttb(Atilde, d)
    if rho <= xi * (1.0 - sigma_crra):
        raise AssumptionError(
            "finite-utility condition failed: need rho > xi*(1-sigma), "
            f"got rho = {rho}, xi*(1-sigma) = {xi * (1.0 - sigma_crra)}"
        )
    alpha_mpc = (rho - xi * (1.0 - sigma_crra)) / (sigma_crra * xi)
    with np.errstate(all="ignore"):  # judged by closed_form_constant
        nu = np.float64(alpha_mpc) ** (-sigma_crra) / xi
    spec = TTBSpec(A, delta_dep, d, sigma_crra, rho, Atilde, xi,
                   float(alpha_mpc), closed_form_constant("nu", nu, sigma_crra))
    closed_form_constant("(Atilde/A)^(1-sigma)", spec.utility_rescale,
                         sigma_crra)
    return spec


def simulate_ttb(spec: TTBSpec, q0: float, u0_history: HistorySegment,
                 T_end: float, columns=None) -> Trajectory:
    """Closed-loop integration of q'(t) = Atilde u(t-d) under the feedback:
    ``delay.simulate`` at dt = d/m, with its ``columns``, whose output
    advance is the exact trapezoid of the (purely delayed) right-hand side.
    Band violations of the control are flagged.  A control history on a lag
    other than d is a ValueError.
    """
    traj = delay.simulate(spec.delay, delay.lift(spec.delay, q0, u0_history),
                          T_end, joined(columns, delay.heads_and_controls))
    q, u = traj.columns.pop("_head"), traj.columns.pop("_control")
    lo, hi = delay.band(spec.delay, q)
    consumption = (spec.Atilde / spec.A) * (q - u)
    traj.meta = {
        "band_ok": bool(np.all((lo - 1e-12 <= u) & (u <= hi + 1e-12))),
        "min_consumption": float(consumption.min()),
        "consumption_positive": bool(consumption.min() > 0.0),
        "raw_payoff": float(spec.utility_rescale * traj.payoff),
    }
    return traj


def hjb_residual_ttb(spec: TTBSpec, x: np.ndarray) -> float:
    """Relative defect of the closed form in the discrete stationary HJB at
    a state array, with the generator acting on the gradient's lag profile
    by finite differences and the lag-endpoint evaluation delta_{-d} taken
    exactly; genuinely O(m^-2)."""
    return delay.hjb_residual(spec.delay, x)


def make_handle(spec: TTBSpec, dt: float) -> ModelHandle:
    """Uniform verification interface over state arrays sampled at dt."""
    return delay.make_handle(spec.delay, dt)
