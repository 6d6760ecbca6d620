"""Exception types shared across the package."""


class HJBKitError(Exception):
    """Base class for all package errors."""


class GridError(HJBKitError, ValueError):
    """Invalid grid construction or operands living on different grids."""


class AssumptionError(HJBKitError, ValueError):
    """A model's standing hypothesis fails for the supplied parameters.

    Raised at spec construction time (e.g. the finite-utility discount
    condition, or the growth condition that guarantees a positive
    characteristic root).  The message states the violated inequality
    with the offending numbers.
    """


class DomainError(HJBKitError, ValueError):
    """A state lies outside the open set where the value function is defined."""


class DomainExitError(HJBKitError, RuntimeError):
    """A closed-loop trajectory left the value function's domain.

    The message is built from ``time`` and ``diagnostics``, so every
    closed loop words the same exit the same way; ``message`` overrides
    it where no single state is at fault.

    Attributes
    ----------
    time : float
        Simulation time of the first offending step.
    diagnostics : dict
        State summary at exit (model specific).
    """

    def __init__(self, time, diagnostics=None, message=None):
        self.time = time
        self.diagnostics = diagnostics or {}
        if message is None:
            detail = "".join(f", {k} = {v:.6g}"
                             for k, v in self.diagnostics.items())
            message = f"state left the domain at t = {time:.6g}{detail}"
        super().__init__(message)


class NumericsError(HJBKitError, RuntimeError):
    """A numerical routine failed: singular solve, stalled iteration,
    or a violated discrete maximum principle."""


class ConfigError(HJBKitError, ValueError):
    """Invalid scenario configuration (unknown key, missing key, bad range)."""


def closed_form_constant(name: str, value, sigma: float) -> float:
    """``value``, unless a power of sigma took it out of (0, inf)."""
    if not 0.0 < value < float("inf"):  # NaN fails too
        raise AssumptionError(f"closed-form constant {name} = {value} is not "
                              f"finite and positive at sigma = {sigma}")
    return float(value)
