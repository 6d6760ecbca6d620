"""One-hoss-shay vintage capital: the delay model k'(t) = i(t) - i(t-T).

Only investments younger than the scrapping age T are productive, so
k(t) = int_{t-T}^t i.  Lifting the investment history into the pair
x = (x0, x1) with x1(s) = -iota(-T-s) turns the delay equation into an
evolution equation; everything the value function sees is the scalar
equivalent capital

    Gamma0(x) = x0 + int_{-T}^0 e^{xi s} x1(s) ds,

with xi the positive root of z = A(1 - e^{-zT}).  Then

    v(x)  = nu * Gamma0^(1-sigma) / (1-sigma),
    i*(x) = A x0 - nu^(-1/sigma) (A/xi)^(1/sigma) Gamma0(x),

on the open set where Gamma0 > 0 and i* > 0.  The constant here is
nu = ((rho - xi(1-sigma))/sigma)^(-sigma) * (A/xi)^(1-sigma); with it the
feedback coefficient nu^(-1/sigma) (A/xi)^(1/sigma) collapses to the
marginal propensity to consume (rho - xi(1-sigma))/sigma times A/xi, and
Gamma0 grows along the closed loop at exactly (xi - rho)/sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import delay
from .delay import DelayModel
from .errors import AssumptionError, DomainError, closed_form_constant
from .gridcore import HistorySegment, Trajectory, joined, trapezoid
from .spectral import char_root_vintage
from .verify import ModelHandle


@dataclass(frozen=True)
class VintageSpec:
    """TFP A, scrapping time T, CRRA sigma, discount rho, plus the
    characteristic root and the value-function constant."""

    A: float
    T_scrap: float
    sigma_crra: float
    rho: float
    xi: float
    nu: float

    @property
    def mpc(self) -> float:
        """Marginal propensity to consume out of equivalent capital,
        (rho - xi(1-sigma))/sigma; consumption is mpc*(A/xi)*Gamma0."""
        return (self.rho - self.xi * (1.0 - self.sigma_crra)) / self.sigma_crra

    @property
    def feedback_coefficient(self) -> float:
        """nu^(-1/sigma) (A/xi)^(1/sigma) = mpc * A / xi, in the power form,
        whose range :func:`build_vintage_spec` checks."""
        s = self.sigma_crra
        with np.errstate(all="ignore"):  # judged by closed_form_constant
            return float(np.float64(self.nu) ** (-1.0 / s)
                         * np.float64(self.A / self.xi) ** (1.0 / s))

    @property
    def growth_rate(self) -> float:
        """Closed-loop growth rate (xi - rho)/sigma of Gamma0."""
        return (self.xi - self.rho) / self.sigma_crra

    @cached_property
    def delay(self) -> DelayModel:
        """Delay-core constants; the head is the window's integral, so it
        adds nothing to the tail bound's envelope."""
        return DelayModel(lag=self.T_scrap, xi=self.xi, nu=self.nu,
                          sigma=self.sigma_crra, rho=self.rho, a=self.A,
                          b=1.0, c=-1.0, kappa=self.feedback_coefficient,
                          room=self.A, head_envelope=0.0,
                          head_name="capital")


def build_vintage_spec(A: float, T_scrap: float, sigma_crra: float,
                       rho: float) -> VintageSpec:
    if sigma_crra <= 0.0 or sigma_crra == 1.0:
        raise ValueError(f"sigma must be positive and != 1, got {sigma_crra}")
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    xi = char_root_vintage(A, T_scrap)  # enforces the growth condition A*T > 1
    if rho <= xi * (1.0 - sigma_crra):
        raise AssumptionError(
            "finite-utility condition failed: need rho > xi*(1-sigma), "
            f"got rho = {rho}, xi*(1-sigma) = {xi * (1.0 - sigma_crra)}"
        )
    g = (rho - xi * (1.0 - sigma_crra)) / sigma_crra
    with np.errstate(all="ignore"):  # judged by closed_form_constant
        nu = np.float64(g) ** -sigma_crra * np.float64(A / xi) ** (1 - sigma_crra)
    spec = VintageSpec(A, T_scrap, sigma_crra, rho, xi,
                       closed_form_constant("nu", nu, sigma_crra))
    closed_form_constant("kappa", spec.feedback_coefficient, sigma_crra)
    return spec


def lift_vintage(spec: VintageSpec, iota: HistorySegment) -> np.ndarray:
    """The state array of (x0, x1) from an investment history on [-T, 0]
    (:func:`delay.lift`, which refuses a history on another lag).

    The head x0 is the capital, the trapezoid integral of iota, and x1 is
    the involution x1(s) = -iota(-T-s), i.e. the sampled history reversed
    and negated.  A state with any other head, which the value function's
    domain allows, is ``delay.lift(spec.delay, x0, iota)``.
    """
    return delay.lift(spec.delay, trapezoid(iota.values, iota.dt), iota)


def interior_condition(spec: VintageSpec) -> bool:
    """Sufficient parameter condition (rho - xi(1-sigma))/sigma < A for the
    closed loop to stay in the domain with positive investment."""
    return spec.mpc < spec.A


def simulate_vintage(spec: VintageSpec, iota0: HistorySegment,
                     T_end: float, columns=None) -> Trajectory:
    """Closed-loop integration of k'(t) = i(t) - i(t-T) under the feedback:
    ``delay.simulate``'s Heun loop at the history spacing dt = T/m, with its
    ``columns``; the flags come from the run's heads and controls.  A
    history on a lag other than T is a ValueError.
    """
    if iota0.values.min() < 0.0 or not np.any(iota0.values > 0.0):
        raise DomainError("initial investments must be nonnegative and not "
                          "identically zero")
    traj = delay.simulate(spec.delay, lift_vintage(spec, iota0), T_end,
                          joined(columns, delay.heads_and_controls))
    min_i = traj.columns.pop("_control").min()
    min_k = traj.columns.pop("_head").min()
    traj.meta = {"min_investment": float(min_i), "min_capital": float(min_k),
                 "positivity_ok": bool(min_i > 0.0 and min_k > 0.0)}
    return traj


def hjb_residual_vintage(spec: VintageSpec, x: np.ndarray) -> float:
    """Relative defect of the closed form in the discrete stationary HJB at
    a state array.

    The generator acts on the gradient's lag profile nu*Gamma0^(-sigma)*
    e^{xi s} by second-order finite differences (one-sided at the ends),
    rather than through the identity d/ds e^{xi s} = xi e^{xi s}; the
    boundary pairing B(Dv) uses the exact endpoint values.  The residual is
    therefore a genuine O(m^-2) truncation-error measurement.
    """
    return delay.hjb_residual(spec.delay, x)


def make_handle(spec: VintageSpec, dt: float) -> ModelHandle:
    """Uniform verification interface over state arrays sampled at dt."""
    return delay.make_handle(spec.delay, dt)
