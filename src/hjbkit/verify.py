"""Model-agnostic verification machinery.

Every model exposes a :class:`ModelHandle` bundling the four callbacks the
dynamic-programming identities need (value, feedback, which raises
:class:`DomainError` off the domain, one-step transition, running
payoff).  On top of it:

* ``value_match`` -- the infinite-horizon identity: truncated discounted
  payoff plus the discounted analytic tail must reproduce the analytic
  value along the optimal feedback; any admissible control scores at most
  that (suboptimality direction).
* ``dpp_check`` -- the same identity on a short window [0, r].
* ``transversality`` -- log-slope of t -> e^{-rho t} |v(y(t))| over the
  trajectory's last quartile (a finite-time surrogate for the asymptotic
  transversality conditions, which are limsup/liminf statements).
* ``brute_force_value`` -- a backward-sweep dynamic-programming oracle over
  a tube of control perturbations around the feedback path, with zero
  terminal value and an explicit truncation bound.  It certifies the
  closed-form value from below and brackets it from above without ever
  evaluating the value callback (it runs on an :class:`OracleProblem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, DomainExitError, NumericsError


class OracleBudgetError(NumericsError):
    """The DP oracle ran out of its evaluation budget."""


@dataclass(frozen=True)
class OracleProblem:
    """Batched step/payoff view of a model, structurally unable to peek at
    the closed-form value.

    A batch is a tuple of arrays sharing a leading row axis, one row per
    state.  ``step(batch, u, dt)``, ``running_payoff(batch, u)`` and
    ``domain_check(batch)`` act row by row, with ``u`` a scalar or one
    control per row; ``step`` raises :class:`GridError` on a non-finite
    state.  ``to_batch`` stacks one validated state into a batch and
    ``from_row(batch, i)`` validates row i back into a state.
    ``control_bounds(batch)`` gives the admissible box of each row, and
    ``payoff_tail_bound(state, time)`` an upper bound on any admissible
    continuation's remaining discounted payoff.
    """

    step: Callable
    running_payoff: Callable
    rho: float
    domain_check: Callable
    to_batch: Callable
    from_row: Callable
    control_bounds: Callable
    payoff_tail_bound: Callable


@dataclass
class ModelHandle:
    """Uniform face over one model instance.

    ``feedback`` raises :class:`DomainError` on a state outside the
    domain, the model's one statement of it; ``scale_control(u, s)``
    scales a control by s (the default a float one); ``diagnostics``
    (state -> dict) summarizes a state that left the domain.
    """

    value: Callable
    feedback: Callable
    step: Callable
    running_payoff: Callable
    rho: float
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


def _rollout(handle: ModelHandle, state0, n_steps: int, dt: float,
             control_scale: float = 1.0):
    """Closed-loop run under the (scaled) feedback.

    Controls are held constant on each step (the handle's step map
    integrates that piecewise-constant policy), and the payoff trapezoid
    uses the step's own control at both endpoints, so the run evaluates an
    explicit admissible policy with O(dt^2) quadrature error regardless of
    horizon length.  A state whose feedback raises :class:`DomainError`
    aborts the run with the handle's diagnostics of that state.
    """
    times = dt * np.arange(n_steps + 1)
    disc = np.exp(-handle.rho * times)
    states, controls = [], []
    running = np.zeros(n_steps + 1)

    def control(state, t):
        try:
            u = handle.feedback(state)
        except DomainError as exc:
            diag = handle.diagnostics(state) if handle.diagnostics else None
            raise DomainExitError(float(t), diag) from exc
        if control_scale != 1.0:
            u = handle.scale_control(u, control_scale)
        states.append(state)
        controls.append(u)
        return u

    state = state0
    for k in range(n_steps):
        u = control(state, times[k])
        g_left = handle.running_payoff(state, u)
        state = handle.step(state, u, dt)
        g_right = handle.running_payoff(state, u)
        running[k + 1] = running[k] + 0.5 * dt * (
            disc[k] * g_left + disc[k + 1] * g_right)
    control(state, times[-1])
    return times, states, controls, running


def value_match(handle: ModelHandle, state0, T_end: float, dt: float,
                control_scale: float = 1.0) -> ValueMatch:
    """Truncated payoff + discounted analytic tail vs. the analytic value.

    Along the optimal feedback the identity is exact in the continuum, so
    the relative gap measures pure discretization error; with
    ``control_scale != 1`` the result must fall strictly below the value
    (suboptimality direction of the verification theorem).
    """
    times, states, _, running = _rollout(
        handle, state0, int(round(T_end / dt)), dt, control_scale)
    return match_run(handle, state0, times[-1], states[-1],
                     float(running[-1]))


def match_run(handle: ModelHandle, state0, t_end: float, state_end,
              payoff: float) -> ValueMatch:
    """The value match of a finished run from ``state0``: its truncated
    payoff, plus the analytic value of its final state ``state_end``
    discounted from ``t_end``, against the analytic value of ``state0``."""
    tail = float(np.exp(-handle.rho * t_end) * handle.value(state_end))
    analytic = float(handle.value(state0))
    rel_gap = abs(payoff + tail - analytic) / max(abs(analytic), 1e-300)
    return ValueMatch(analytic, payoff, tail, rel_gap)


def dpp_check(handle: ModelHandle, state0, r: float, dt: float) -> float:
    """Relative gap in the dynamic-programming identity on [0, r] along the
    feedback (zero at r = 0, O(dt^2) for a single step, growing linearly
    in r at fixed dt)."""
    return value_match(handle, state0, r, dt).rel_gap if r else 0.0


def transversality(handle: ModelHandle, traj) -> float:
    """Log-slope of t -> e^{-rho t} |v(y(t))| over the last quartile.

    A negative slope is finite-time evidence for the vanishing-discounted-
    value condition closing the infinite-horizon verification argument.
    """
    times = traj.times
    vals = np.array([abs(handle.value(s)) for s in traj.states])
    vals = np.maximum(vals, 1e-300)
    logs = -handle.rho * times + np.log(vals)
    q = 3 * len(times) // 4
    return float(np.polyfit(times[q:], logs[q:], 1)[0])


def suboptimality_margin(handle: ModelHandle, state0, T_end: float,
                         dt: float, control_scale: float = 0.5) -> float:
    """How far a deliberately perturbed control scores below the value:
    (analytic - (payoff+tail)) / |analytic|.  Positive for genuinely
    suboptimal controls."""
    vm = value_match(handle, state0, T_end, dt, control_scale=control_scale)
    return (vm.analytic - vm.total) / max(abs(vm.analytic), 1e-300)


@dataclass
class OracleBracket:
    """Outcome of the DP oracle: the best truncated-horizon payoff found,
    the reported truncation bound, and the implied bracket [lo, hi]."""

    lo: float
    hi: float
    truncated_value: float
    tail_bound: float
    evaluations: int
    passes: int

    def contains(self, value: float, slack: float = 0.03) -> bool:
        width = slack * max(abs(self.lo), abs(self.hi), 1e-300)
        return self.lo - width <= value <= self.hi + width


def brute_force_value(problem: OracleProblem, state0, dt: float,
                      T_end: float, n_controls: int = 33,
                      span: float = 0.5, span_min: float = 4e-3,
                      max_passes: int = 12, seed_controls=None,
                      budget: int = 20_000_000) -> OracleBracket:
    """Backward-sweep dynamic programming over a tube of control levels.

    The control path starts from ``seed_controls`` (one entry per step;
    typically the feedback path) and is improved by repeated
    backward-in-time sweeps: at each step the control tries ``n_controls``
    levels spanning ``+-span`` (relative) around the current choice,
    clipped to the admissible box, and keeps whatever maximizes the
    remaining discounted payoff with ZERO terminal value.  The span halves
    whenever a sweep stops paying.  For these concave problems the sweeps
    converge to the truncated-discrete optimum, which bounds the analytic
    value from below; adding the truncation bound gives the upper bracket
    edge.  ``lo`` always corresponds to an explicitly evaluated feasible
    policy, whatever the pass count.

    All candidates of one step are scored together, as one batch run
    forward to the horizon, and the states and payoffs before each step
    are walked once per sweep, since a backward sweep never changes the
    controls ahead of its current step.  ``evaluations`` still counts two
    payoff evaluations per candidate per step, up to a domain exit.

    The recursion consumes only the step/payoff callbacks (no value
    callback exists on :class:`OracleProblem`).
    """
    n_steps = int(round(T_end / dt))
    times = dt * np.arange(n_steps + 1)
    disc = np.exp(-problem.rho * times)
    evals = 0

    def rows(batch, keep):
        return tuple(a[keep] for a in batch)

    def clip(candidates, state):
        """Candidates clipped to just inside the admissible box of the
        one-row batch ``state``, duplicates dropped (first one kept)."""
        lo, hi = (float(b[0]) for b in problem.control_bounds(state))
        eps = 1e-12 * max(1.0, abs(hi))
        candidates = [min(max(u, lo + eps), hi - eps) for u in candidates]
        return np.array(list(dict.fromkeys(candidates)))

    def cell(batch, u, k):
        """Step k holding u, and its control-consistent trapezoid cell."""
        g_left = problem.running_payoff(batch, u)
        batch = problem.step(batch, u, dt)
        g_right = problem.running_payoff(batch, u)
        return batch, 0.5 * dt * (disc[k] * g_left + disc[k + 1] * g_right)

    def forward(batch, first, start_idx, prefix_payoff):
        """Payoffs of the truncated problem for each row of ``batch``, which
        holds its control in ``first`` at step ``start_idx`` and follows
        ``controls`` after it, with zero tail.  A row that leaves the
        domain scores -inf and stops counting evaluations.  Returns the
        payoffs, the final states of the rows still inside and those rows'
        indices."""
        nonlocal evals
        n_rows = len(batch[0])
        live = np.arange(n_rows)
        total = np.full(n_rows, prefix_payoff)
        for k in range(start_idx, n_steps):
            u = first if k == start_idx else controls[k]
            inside = problem.domain_check(batch)
            if not inside.all():
                live, total, batch = live[inside], total[inside], \
                    rows(batch, inside)
                if not len(live):
                    break
                if k == start_idx:
                    u = u[inside]
            batch, gain = cell(batch, u, k)
            evals += 2 * len(live)
            total += gain
        inside = problem.domain_check(batch)
        values = np.full(n_rows, -np.inf)
        values[live[inside]] = total[inside]
        return values, rows(batch, inside), live[inside]

    if seed_controls is None:
        raise ValueError("seed_controls is required (e.g. the feedback path)")
    controls = list(seed_controls)
    if len(controls) != n_steps:
        raise ValueError(
            f"seed controls must have {n_steps} entries (one per step), "
            f"got {len(controls)}"
        )

    start = problem.to_batch(state0)
    values, final, _ = forward(start, np.array(controls[:1]), 0, 0.0)
    best = values[0]
    if not np.isfinite(best):
        raise DomainExitError(0.0,
                              message="seed control path leaves the domain")

    offsets = np.linspace(-1.0, 1.0, n_controls) if n_controls > 1 \
        else np.array([0.0])
    cur_span = span
    passes = 0
    while passes < max_passes and cur_span > span_min:
        best_at_pass_start = best
        passes += 1
        # the state and accumulated payoff at each step, walked once per
        # pass (no domain test, no evaluations counted): a backward sweep
        # never changes the controls ahead of its current step
        states, prefixes = [start], [0.0]
        for k in range(n_steps - 1):
            state, gain = cell(states[-1], controls[k], k)
            states.append(state)
            prefixes.append(prefixes[-1] + gain[0])
        for j in range(n_steps - 1, -1, -1):
            state = states[j]
            base = controls[j]
            candidates = clip((base * (1.0 + cur_span * offsets)).tolist(),
                              state)
            values, finals, live = forward(
                rows(state, np.zeros(len(candidates), dtype=int)),
                candidates, j, prefixes[j])
            i = int(np.argmax(values))  # the first of the best candidates
            if values[i] > -np.inf:
                controls[j] = float(candidates[i])
                if values[i] > best:
                    best = values[i]
                    final = rows(finals, live == i)
            if evals > budget:
                raise OracleBudgetError(
                    f"DP oracle exceeded its evaluation budget ({budget})"
                )
        if best - best_at_pass_start < 1e-7 * max(1.0, abs(best)):
            cur_span *= 0.5  # sweep stopped paying at this resolution

    tail_bound = float(problem.payoff_tail_bound(problem.from_row(final, 0),
                                                 times[-1]))
    return OracleBracket(lo=float(best), hi=float(best + tail_bound),
                         truncated_value=float(best),
                         tail_bound=float(tail_bound),
                         evaluations=evals, passes=passes)


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
        return {
            "model": self.model,
            "residual_max": self.residual_max,
            "residual_mean": self.residual_mean,
            "residual_refined_max": self.residual_refined_max,
            "value_match_gap": self.value_match_gap,
            "suboptimal_margin": self.suboptimal_margin,
            "transversality_slope": self.transversality_slope,
            "tolerances": {k: v for k, v in self.tolerances.items()},
            "passed": self.passed,
            "failures": list(self.failures),
        }
