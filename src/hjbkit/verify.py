"""Model-agnostic verification machinery.

Every model exposes a :class:`ModelHandle` bundling the four callbacks the
dynamic-programming identities need (value, feedback, which raises
:class:`DomainError` off the domain, one-step transition, running
payoff).  On top of it:

* ``_rollout`` -- the one closed loop over a handle: the feedback over a
  horizon, as the :class:`Trajectory` that every check below reads.
* ``value_match`` -- the infinite-horizon identity: truncated discounted
  payoff plus the discounted analytic tail must reproduce the analytic
  value along the optimal feedback; any admissible control scores at most
  that (suboptimality direction, ``suboptimality_margin``); on a short
  horizon [0, r] it is the dynamic-programming identity itself.
* ``transversality`` -- log-slope of t -> e^{-rho t} |v(y(t))| over the
  trajectory's last quartile (a finite-time surrogate for the asymptotic
  transversality conditions, which are limsup/liminf statements).
* ``brute_force_value`` -- the dynamic-programming oracle: the optimum of
  the truncated problem (zero terminal value, the seed path's length sets
  the horizon) by a log-barrier Newton solve with a certified duality
  gap, plus an explicit truncation bound.  It certifies the closed-form
  value from below and brackets it from above without ever evaluating
  the value callback (it runs on an :class:`OracleProblem`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, DomainExitError, NumericsError
from .gridcore import Trajectory


@dataclass(frozen=True)
class OracleProblem:
    """Batched run/payoff view of a model, structurally unable to peek at
    the closed-form value.

    ``run(state0, controls)`` plays each row of ``controls`` (rows, n), one
    control per step of the problem's ``dt``, from the start state array
    ``state0``, and returns two arrays.  The slacks (rows, 5n + 2), positive
    where the row is admissible, state each constraint once: the consumptions
    at the left and then the right ends of the steps (2n), the band's lower
    edge u - lo (n; its upper edge is the left consumption), and the domain's
    two slacks at every state (n + 1 each).  And the final batch (rows, m + 2)
    of state rows.  The slacks are affine in the controls.  ``run`` refuses a
    start the step does not fit, and a non-finite start or control, with a
    GridError.  ``utility(c)`` is the concave utility of consumptions c > 0
    with its first and second derivatives.  ``payoff_tail_bound(batch, time)``
    is an upper bound on the remaining discounted payoff of any admissible
    continuation from the batch's first row.
    """

    run: Callable
    utility: Callable
    rho: float
    dt: float
    payoff_tail_bound: Callable


@dataclass
class ModelHandle:
    """Uniform face over one model instance, made for one step size.

    ``step(state, u)`` advances by ``dt``, fixed when the handle is made,
    as the model's grid is; ``feedback`` raises :class:`DomainError` on a
    state outside the domain, the model's one statement of it;
    ``scale_control(u, s)`` scales a control by s (the default a float or
    an array one); ``diagnostics`` (state -> dict) summarizes a state that
    left the domain.
    """

    value: Callable
    feedback: Callable
    step: Callable
    running_payoff: Callable
    rho: float
    dt: float
    scale_control: Callable = lambda control, s: s * control
    diagnostics: Callable | None = None


def memo_last(fn: Callable) -> Callable:
    """``fn`` of one argument, reusing its result while it is called again
    with the very object (by identity) it was last called with.  A rollout
    scores each held control at both ends of its step, so a payoff term
    that depends on the control alone is computed once per step."""
    last = [object(), None]

    def cached(x):
        if x is not last[0]:
            last[:] = x, fn(x)
        return last[1]

    return cached


@dataclass
class ValueMatch:
    analytic: float
    payoff: float
    tail: float
    rel_gap: float

    @property
    def total(self) -> float:
        return self.payoff + self.tail


def _rollout(handle: ModelHandle, state0, T_end: float) -> Trajectory:
    """The :class:`Trajectory` of the feedback over [0, T_end],
    in ``int(round(T_end / dt))`` steps of the handle's dt.

    Controls are held constant on each step (the handle's step map
    integrates that piecewise-constant policy), and the payoff trapezoid
    uses the step's own control at both endpoints, so the run evaluates an
    explicit admissible policy with O(dt^2) quadrature error regardless of
    horizon length.  A state whose feedback raises :class:`DomainError`
    aborts the run with the handle's diagnostics of that state.  numpy's
    floating-point errors raise inside the run, and the running payoff, a
    sum of Python floats, is tested for finiteness at every step, so an
    overflow is never carried on as an inf: it is a :class:`NumericsError`
    at the time of its step, as is Python's OverflowError.
    """
    dt = handle.dt
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    disc = np.exp(-handle.rho * times)
    half = 0.5 * dt
    feedback, step = handle.feedback, handle.step
    payoff = handle.running_payoff
    states, controls = [], []
    running = np.zeros(n_steps + 1)

    def control(state, t):
        try:
            u = feedback(state)
        except DomainError as exc:
            diag = handle.diagnostics(state) if handle.diagnostics else None
            raise DomainExitError(float(t), diag) from exc
        states.append(state)
        controls.append(u)
        return u

    state, t, total = state0, times[0], 0.0
    try:
        with np.errstate(all="raise", under="ignore"):
            for k in range(n_steps):
                t = times[k]
                u = control(state, t)
                g_left = payoff(state, u)
                state = step(state, u)
                g_right = payoff(state, u)
                total += half * (disc.item(k) * g_left
                                 + disc.item(k + 1) * g_right)
                if not math.isfinite(total):
                    raise FloatingPointError(f"running payoff {total}")
                running[k + 1] = total
            t = times[-1]
            control(state, t)
    except (FloatingPointError, OverflowError) as exc:
        raise NumericsError(f"closed loop left the float range at t = "
                            f"{t:.6g} ({exc})") from None
    return Trajectory(times, states, controls, running)


def value_match(handle: ModelHandle, state0, T_end: float) -> ValueMatch:
    """Truncated payoff + discounted analytic tail vs. the analytic value.

    Along the optimal feedback the identity is exact in the continuum, so
    the relative gap measures pure discretization error; along any other
    admissible feedback (a :func:`scaled` handle, say) the result must
    fall strictly below the value (suboptimality direction of the
    verification theorem).
    """
    return match_run(handle, state0, _rollout(handle, state0, T_end))


def match_run(handle: ModelHandle, state0, traj: Trajectory) -> ValueMatch:
    """The value match of a finished run ``traj`` from ``state0``: its
    payoff, plus the analytic value of its final state discounted from its
    final time, against the analytic value of ``state0``."""
    tail = float(np.exp(-handle.rho * traj.times[-1])
                 * handle.value(traj.states[-1]))
    analytic = float(handle.value(state0))
    rel_gap = abs(traj.payoff + tail - analytic) / max(abs(analytic), 1e-300)
    return ValueMatch(analytic, traj.payoff, tail, rel_gap)


def transversality(handle: ModelHandle, traj) -> float:
    """Log-slope of t -> e^{-rho t} |v(y(t))| over the last quartile.

    A negative slope is finite-time evidence for the vanishing-discounted-
    value condition closing the infinite-horizon verification argument.
    Only the fitted states are valued.  Below 4 steps the last quartile
    is one time, a ValueError.
    """
    n = len(traj.times)
    if n < 5:
        raise ValueError(f"transversality needs 5 times, got {n}")
    q = 3 * n // 4
    times = traj.times[q:]
    vals = np.array([abs(handle.value(s)) for s in traj.states[q:]])
    vals = np.maximum(vals, 1e-300)
    logs = -handle.rho * times + np.log(vals)
    return float(np.polyfit(times, logs, 1)[0])


def scaled(handle: ModelHandle, s: float) -> ModelHandle:
    """``handle`` with its feedback scaled by s (``handle.scale_control``):
    the suboptimal probe's policy.  A scale of 1 gives the feedback's
    controls exactly.  The scaled control is kept per feedback control
    object (:func:`memo_last`), so a constant policy, one object at every
    state, stays one object scaled, and the handle's own per-control
    memos hit along the probe as they do along the feedback.  Its arrays
    are read-only, since every step that holds it shares it."""
    feedback, scale_control = handle.feedback, handle.scale_control
    scale = memo_last(lambda control: _read_only(scale_control(control, s)))
    return dataclasses.replace(handle, feedback=lambda x: scale(feedback(x)))


def _read_only(control):
    """``control`` with its arrays (itself, or a tuple's entries) made
    read-only."""
    for part in control if isinstance(control, tuple) else (control,):
        if isinstance(part, np.ndarray):
            part.flags.writeable = False
    return control


def suboptimality_margin(handle: ModelHandle, state0, T_end: float,
                         control_scale: float = 0.5) -> float:
    """How far the feedback scaled by ``control_scale`` scores below the
    value: (analytic - (payoff+tail)) / |analytic|.  Positive for
    genuinely suboptimal controls."""
    vm = value_match(scaled(handle, control_scale), state0, T_end)
    return (vm.analytic - vm.total) / max(abs(vm.analytic), 1e-300)


@dataclass
class OracleBracket:
    """Outcome of the DP oracle: the truncated payoff ``lo`` of the policy
    ``controls``, the certified ``gap`` to the truncated optimum, the
    truncation bound and the implied bracket [lo, hi]; ``passes`` counts
    Newton steps and ``evaluations`` consumption evaluations."""

    lo: float
    gap: float
    tail_bound: float
    evaluations: int
    passes: int
    controls: np.ndarray | None

    @property
    def hi(self) -> float:
        return self.lo + self.gap + self.tail_bound

    def contains(self, value: float, slack: float) -> bool:
        width = slack * max(abs(self.lo), abs(self.hi), 1e-300)
        return self.lo - width <= value <= self.hi + width


# the DP oracle's cap on Newton steps (its default problems take 47 and 66)
ORACLE_NEWTON_STEPS = 500


def brute_force_value(problem: OracleProblem, state0,
                      seed_controls) -> OracleBracket:
    """The truncated problem's optimum, by a log-barrier Newton solve.

    A policy holds one control per step of the problem's dt, one per entry
    of ``seed_controls`` (strictly admissible, typically the feedback
    path), and earns ``_rollout``'s control-consistent trapezoid with ZERO
    terminal value.  The dynamics are linear, so the slacks, the 2n
    consumptions first, are affine in the controls: one ``problem.run`` of
    a zero-control row and a unit impulse per step gives that map exactly
    (a unit added to a seed's large controls would be lost to rounding).
    Newton's method on the concave t*payoff + sum(log slacks) starts at
    the seed, raises t twenty-fold per centering and stops once the
    duality gap M/t of its M slacks is below 1e-9 of the payoff.  Iterates
    stay strictly inside (fraction to the boundary, then halving), judged
    on barrier differences, which t*payoff would swallow.

    ``lo`` is the payoff of the solution replayed through ``run`` as one
    row, as ``controls``, pulled toward the seed where an active
    constraint replays a hair outside; ``gap`` is M/t plus what the pull
    lost.  An empty seed is a ValueError, a non-finite state or control a
    GridError, a seed leaving the set a DomainExitError, and a singular or
    overflowing solve, or one of more than ORACLE_NEWTON_STEPS steps, a
    NumericsError.
    """
    seed = np.array(seed_controls, dtype=float)
    n = len(seed)
    if n == 0:
        raise ValueError("the DP oracle's seed is empty: no step to solve")
    disc = np.exp(-problem.rho * problem.dt * np.arange(n + 1))
    weights = 0.5 * problem.dt * np.concatenate([disc[:-1], disc[1:]])
    evals = 0

    def run(controls):
        nonlocal evals
        evals += 2 * n * len(controls)
        return problem.run(state0, controls)

    def replay(controls):
        """The payoff and final batch of one policy; no payoff unless it
        stays strictly inside."""
        slacks, final = run(controls[np.newaxis])
        if not slacks.min() > 0.0:
            return None, final
        return float(weights @ problem.utility(slacks[0, :2 * n])[0]), final

    try:
        with np.errstate(all="raise", under="ignore"):
            f_seed, _ = replay(seed)
            if f_seed is None:
                raise DomainExitError(
                    0.0, message="seed control path leaves the domain")
            slacks, _ = run(np.vstack([np.zeros(n), np.eye(n)]))
            s0, smap = slacks[0], slacks[1:] - slacks[0]
            u, t, passes = seed, s0.size / (1e-3 * abs(f_seed)), 0
            while True:
                s = s0 + u @ smap
                c = s[:2 * n]
                g, g1, g2 = problem.utility(c)
                f = float(weights @ g)
                # the barrier's diagonal, plus t*payoff's on the consumptions
                d1, d2 = 1.0 / s, -1.0 / s ** 2
                d1[:2 * n] += t * weights * g1
                d2[:2 * n] += t * weights * g2
                grad = smap @ d1
                du = np.linalg.solve((smap * d2) @ smap.T, -grad)
                decrement = grad @ du
                if decrement <= 2e-9:  # centered at t
                    if s0.size / t <= 1e-9 * abs(f):
                        break
                    t *= 20.0
                    continue
                passes += 1
                if passes > ORACLE_NEWTON_STEPS:
                    raise NumericsError(f"DP oracle took {ORACLE_NEWTON_STEPS}"
                                        " Newton steps short of its gap")
                ds = du @ smap
                dc = ds[:2 * n]
                shrink = ds < 0.0
                alpha = min(1.0, 0.99 * np.min(-s[shrink] / ds[shrink],
                                               initial=np.inf))
                # t*f's rounding, 1e-15 of it, is forgiven as in IPOPT
                while (t * weights @ (problem.utility(c + alpha * dc)[0] - g)
                       + np.log1p(alpha * ds / s).sum()
                       < 0.25 * alpha * decrement - 1e-15 * t * abs(f)):
                    alpha *= 0.5
                u = u + alpha * du
            for theta in (0.0, *np.logspace(-15, 0, 16)):
                pulled = u + theta * (seed - u)
                lo, final = replay(pulled)
                if lo is not None:
                    break
            tail_bound = problem.payoff_tail_bound(final, n * problem.dt)
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise NumericsError(f"DP oracle's Newton solve failed ({exc})") \
            from None
    return OracleBracket(lo=lo, gap=s0.size / t + max(0.0, f - lo),
                         tail_bound=float(tail_bound), evaluations=evals,
                         passes=passes, controls=pulled)


@dataclass
class VerifyReport:
    """Aggregated verification outcome for one model scenario."""

    model: str
    residual_max: float
    residual_mean: float
    residual_refined_max: float
    value_match_gap: float
    suboptimal_margin: float
    transversality_slope: float
    tolerances: dict
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self) -> "VerifyReport":
        """Populate ``failures`` from the recorded tolerances.  Each test
        states what passes, so a NaN figure fails it."""
        tol = self.tolerances
        self.failures = []
        if not self.residual_max <= tol["residual"]:
            self.failures.append(
                f"hjb residual {self.residual_max:.3e} > {tol['residual']:.1e}")
        if not self.residual_max <= 1e-12 \
                and not self.residual_refined_max <= 0.5 * self.residual_max:
            self.failures.append(
                f"refined residual {self.residual_refined_max:.3e} did not "
                f"halve from {self.residual_max:.3e}")
        if not self.value_match_gap <= tol["value_match"]:
            self.failures.append(
                f"value-match gap {self.value_match_gap:.3e} > "
                f"{tol['value_match']:.1e}")
        if not self.suboptimal_margin > tol["value_match"]:
            self.failures.append(
                "suboptimal control does not score below the value by more "
                f"than the tolerance (margin {self.suboptimal_margin:.3e})")
        if not self.transversality_slope < 0.0:
            self.failures.append(
                f"transversality slope {self.transversality_slope:.3e} "
                "is not negative")
        return self

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}
