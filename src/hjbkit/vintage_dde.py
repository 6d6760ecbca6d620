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
from .gridcore import HistorySegment, Trajectory, trapezoid
from .spectral import CharRoot, char_root_vintage
from .verify import ModelHandle


@dataclass(frozen=True)
class VintageSpec:
    """TFP A, scrapping time T, CRRA sigma, discount rho, plus the
    characteristic root and the value-function constant."""

    A: float
    T_scrap: float
    sigma_crra: float
    rho: float
    xi: CharRoot
    nu: float

    @property
    def mpc(self) -> float:
        """Marginal propensity to consume out of equivalent capital,
        (rho - xi(1-sigma))/sigma; consumption is mpc*(A/xi)*Gamma0."""
        return (self.rho - self.xi.xi * (1.0 - self.sigma_crra)) / self.sigma_crra

    @property
    def feedback_coefficient(self) -> float:
        """nu^(-1/sigma) (A/xi)^(1/sigma) = mpc * A / xi, in the power form,
        whose range :func:`build_vintage_spec` checks."""
        s = self.sigma_crra
        with np.errstate(all="ignore"):  # judged by closed_form_constant
            return float(np.float64(self.nu) ** (-1.0 / s)
                         * np.float64(self.A / self.xi.xi) ** (1.0 / s))

    @property
    def growth_rate(self) -> float:
        """Closed-loop growth rate (xi - rho)/sigma of Gamma0."""
        return (self.xi.xi - self.rho) / self.sigma_crra

    @cached_property
    def delay(self) -> DelayModel:
        """Delay-core constants; the head is the window's integral, so it
        adds nothing to the tail bound's envelope."""
        return DelayModel(lag=self.T_scrap, xi=self.xi.xi, nu=self.nu,
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
    root = char_root_vintage(A, T_scrap)  # enforces the growth condition A*T > 1
    xi = root.xi
    if rho <= xi * (1.0 - sigma_crra):
        raise AssumptionError(
            "finite-utility condition failed: need rho > xi*(1-sigma), "
            f"got rho = {rho}, xi*(1-sigma) = {xi * (1.0 - sigma_crra)}"
        )
    g = (rho - xi * (1.0 - sigma_crra)) / sigma_crra
    with np.errstate(all="ignore"):  # judged by closed_form_constant
        nu = np.float64(g) ** -sigma_crra * np.float64(A / xi) ** (1 - sigma_crra)
    spec = VintageSpec(A, T_scrap, sigma_crra, rho, root,
                       closed_form_constant("nu", nu, sigma_crra))
    closed_form_constant("kappa", spec.feedback_coefficient, sigma_crra)
    return spec


def lift_vintage(spec: VintageSpec, k0: float | None, iota: HistorySegment,
                 enforce_consistency: bool = True) -> np.ndarray:
    """The state array of (x0, x1) from an investment history on [-T, 0]
    (:func:`delay.lift`, which refuses a history on another lag).

    x1 is the involution x1(s) = -iota(-T-s), i.e. the sampled history
    reversed and negated.  By default k0 must equal the trapezoid integral
    of iota (pass ``enforce_consistency=False`` to lift an arbitrary pair,
    which the value function's domain allows).  ``k0=None`` uses the
    integral itself.
    """
    integral = trapezoid(iota.values, iota.dt)
    if k0 is None:
        k0 = integral
    elif enforce_consistency and not np.isclose(k0, integral, rtol=1e-9,
                                                atol=1e-12):
        raise ValueError(
            f"k0 = {k0} is inconsistent with the history integral "
            f"{integral}; pass enforce_consistency=False to lift the "
            "pair anyway"
        )
    return delay.lift(spec.delay, k0, iota)


def gamma0_from_history(iota: HistorySegment, xi: float) -> float:
    """Cross-check form Gamma0 = int_{-T}^0 iota(u) (1 - e^{-xi(u+T)}) du,
    valid when the head equals the history integral."""
    u = iota.nodes
    w = 1.0 - np.exp(-xi * (u + iota.d))
    return trapezoid(w * iota.values, iota.dt)


def interior_condition(spec: VintageSpec) -> bool:
    """Sufficient parameter condition (rho - xi(1-sigma))/sigma < A for the
    closed loop to stay in the domain with positive investment."""
    return spec.mpc < spec.A


def positivity_kernel(spec: VintageSpec, s) -> np.ndarray | float:
    """Weight w(s) = A - mpc*(A/xi)*(1 - e^{xi(-T-s)}) on [-T, 0].

    Along the closed loop, i(t) = int_{-T}^0 w(s) i(t+s) ds; when the
    interior condition holds, min_s w(s) = A - mpc > 0, so positive
    histories propagate positive investment.
    """
    s = np.asarray(s, dtype=float)
    xi = spec.xi.xi
    out = spec.A - spec.mpc * (spec.A / xi) * (
        1.0 - np.exp(xi * (-spec.T_scrap - s)))
    return out if out.ndim else float(out)


def simulate_vintage(spec: VintageSpec, iota0: HistorySegment,
                     T_end: float) -> Trajectory:
    """Closed-loop integration of k'(t) = i(t) - i(t-T) under the feedback.

    The step is the history spacing (dt = T/m), so the delayed
    term is always a stored sample and the ring buffer shifts exactly: the
    window holds the control applied at each of its sample times (the
    newest slot starts as a placeholder and is corrected by one fixed-point
    refinement of the feedback).  The capital advance is a Heun (trapezoid)
    step with the feedback re-evaluated at the predictor, keeping the path
    second-order in dt.  A domain exit aborts with the offending time and
    state diagnostics.  A history on a lag other than T is a ValueError.
    """
    if iota0.values.min() < 0.0 or not np.any(iota0.values > 0.0):
        raise DomainError("initial investments must be nonnegative and not "
                          "identically zero")
    traj = delay.simulate(spec.delay, lift_vintage(spec, None, iota0), T_end)
    min_i = min(traj.controls)
    min_k = min(x.item(0) for x in traj.states)
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
