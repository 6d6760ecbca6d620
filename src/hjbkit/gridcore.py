"""Grids, quadrature, divergence-form stencils and time integrators.

Everything downstream lives on one of three discretizations:

* ``CircleGrid`` -- uniform periodic grid on the circle, for the parabolic
  models (spatial growth, pollution).
* ``HistorySegment`` -- uniform samples of a lag function on ``[-d, 0]``,
  for the delay models (vintage capital, time-to-build).
* ``AgeGrid`` -- uniform node grid on ``[0, sbar]``, for the age-structured
  transport model.

All containers are plain immutable data and the operations below are pure
functions, so values can be shared freely across threads.  The one
exception is :class:`CNOperator`: it keeps scratch buffers and the explicit
product of the state it last returned, so an operator belongs to one
model handle (which builds one per step size) and is not shared across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError, NumericsError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class CircleGrid:
    """Uniform periodic grid with nodes theta_j = 2*pi*j/n."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise GridError(f"circle grid needs n >= 8 nodes, got {self.n}")

    @cached_property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

    def field(self, values) -> "Field":
        return Field(self, np.asarray(values, dtype=float))

    def constant(self, c: float) -> "Field":
        return Field(self, np.full(self.n, float(c)))

    def from_function(self, fn) -> "Field":
        return Field(self, np.asarray(fn(self.nodes), dtype=float))

    def nodal(self, x):
        """``x``, checked to be an array of this grid's n node values: a
        wrong shape is a GridError here, never a numpy broadcast error
        later."""
        shape = getattr(x, "shape", None)
        if shape != (self.n,):
            raise GridError(f"expected an array of {self.n} node values, got "
                            f"{type(x).__name__} of shape {shape}")
        return x


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a :class:`CircleGrid`.

    A Field has no arithmetic: formulas act on its node ``values``.  Each
    function of two Fields calls :meth:`_check`, so mixing grids raises
    :class:`GridError`.
    """

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise GridError(
                f"field needs {self.grid.n} values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)

    def _check(self, other: "Field") -> None:
        if not isinstance(other, Field):
            raise TypeError(f"expected Field, got {type(other).__name__}")
        if other.grid.n != self.grid.n:
            raise GridError(
                f"grid mismatch: n={self.grid.n} vs n={other.grid.n}"
            )

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


def quad_circle(f: Field) -> float:
    """Integral over the circle by the rectangle rule, h * sum(f).

    On a uniform periodic grid this rule is exact for constants and kills
    the first n/2 - 1 Fourier harmonics to machine precision (it is the
    trapezoid rule of periodic functions), hence spectrally accurate for
    smooth integrands.
    """
    return float(f.grid.h * f.values.sum())


def trapezoid(y: np.ndarray, dx: float) -> float:
    """Composite trapezoid rule for samples ``y`` spaced ``dx`` apart
    (scipy's ``trapezoid`` arithmetic, without its per-call argument
    handling, so results match it bit for bit)."""
    return float((dx * (y[1:] + y[:-1]) / 2.0).sum())


def inner_product(f: Field, g: Field) -> float:
    """L2 pairing <f, g> = integral of f*g over the circle."""
    f._check(g)
    return nodal_inner(f.grid, f.values, g.values)


def nodal_inner(grid: CircleGrid, x, g: np.ndarray) -> float:
    """L2 pairing of the node values ``x`` with the node values ``g`` of a
    profile on ``grid``; a GridError unless x holds n of them."""
    return float(grid.h * np.add.reduce(grid.nodal(x) * g))


def _stencil_coefficients(sigma: Field, zeroth: Field):
    """Periodic tridiagonal coefficients of f -> (sigma f')' + zeroth*f.

    Returns ``(lo, di, up)`` where row j of the operator reads
    ``lo[j]*f[j-1] + di[j]*f[j] + up[j]*f[j+1]`` with indices mod n.
    ``lo[0]`` and ``up[-1]`` are the periodic corner entries.
    """
    sigma._check(zeroth)
    h2 = sigma.grid.h ** 2
    s = sigma.values
    s_plus = 0.5 * (s + np.roll(s, -1))   # sigma_{j+1/2}
    s_minus = np.roll(s_plus, 1)          # sigma_{j-1/2}
    lo = s_minus / h2
    up = s_plus / h2
    di = -(s_plus + s_minus) / h2 + zeroth.values
    return lo, di, up


def sl_apply(sigma: Field, zeroth: Field, f: Field) -> Field:
    """Apply the divergence-form operator f -> (sigma f')' + zeroth*f.

    Second-order centered stencil with arithmetic-mean interface values
    sigma_{j+1/2}; the periodic wrap makes the discrete operator exactly
    self-adjoint for the grid inner product.
    """
    if sigma.min() <= 0.0:
        raise GridError(f"sigma must be positive, min = {sigma.min()}")
    sigma._check(f)
    lo, di, up = _stencil_coefficients(sigma, zeroth)
    return Field(f.grid, apply_periodic_tridiagonal(lo, di, up, f.values))


def apply_periodic_tridiagonal(lo, di, up, v):
    """Matrix-vector product for the periodic tridiagonal layout above."""
    before = np.concatenate((v[-1:], v[:-1]))   # v[j-1]
    after = np.concatenate((v[1:], v[:1]))      # v[j+1]
    return lo * before + di * v + up * after


class CyclicTridiagonal:
    """Factored cyclic tridiagonal matrix with rows lo,di,up (indices mod n).

    Sherman-Morrison reduction: the two periodic corner entries are split
    off as a rank-one update of a plain tridiagonal matrix, which LAPACK
    factors once (``gttrf``).  The correction vector and the rank-one
    denominator depend only on the matrix, so each :meth:`solve` is one
    ``gttrs`` back-solve plus the update.
    """

    def __init__(self, lo, di, up):
        # lazy: scipy.linalg takes ~0.2 s to import; only circle models use it
        from scipy.linalg.lapack import dgttrf, dgttrs
        n = len(di)
        if n < 3:
            raise GridError("cyclic tridiagonal solve needs n >= 3")
        self.lo, self.di, self.up = lo, di, up
        corner_tr = lo[0]    # entry (0, n-1)
        corner_bl = up[-1]   # entry (n-1, 0)
        gamma = -di[0] if di[0] != 0.0 else 1.0
        dmod = di.copy()
        dmod[0] -= gamma
        dmod[-1] -= corner_tr * corner_bl / gamma
        *self._lu, info = dgttrf(lo[1:], dmod, up[:-1])
        if info != 0:
            raise NumericsError("singular cyclic tridiagonal system: "
                                f"LAPACK gttrf info {info}")
        u = np.zeros(n)
        u[0] = gamma
        u[-1] = corner_bl
        z, _ = dgttrs(*self._lu, u)
        denom = 1.0 + z[0] + corner_tr * z[-1] / gamma
        if denom == 0.0 or not np.isfinite(denom):
            raise NumericsError(
                "singular cyclic tridiagonal system (rank-one update)")
        # Python floats: the same bits as numpy scalars, with cheaper
        # arithmetic in the per-solve update
        self._corner_tr, self._gamma = float(corner_tr), float(gamma)
        self._z, self._denom = z, float(denom)
        self._gttrs = dgttrs

    def back_solve(self, rhs):
        """The solution of the system, without the defect check."""
        y, _ = self._gttrs(*self._lu, rhs)
        y -= ((y.item(0) + self._corner_tr * y.item(-1) / self._gamma)
              / self._denom) * self._z
        return y

    def solve(self, rhs):
        x = self.back_solve(rhs)
        check_defect(apply_periodic_tridiagonal(self.lo, self.di, self.up, x),
                     x, rhs)
        return x


def check_defect(ax, x, rhs, scratch=(None, None)):
    """Raise :class:`NumericsError` unless ``x`` is finite and its product
    ``ax`` with the matrix matches ``rhs`` to ``1e-8 * max|rhs|``.

    LAPACK does not flag (near-)singular systems -- it returns a
    backward-stable but meaningless vector -- so every solve verifies its
    defect against the right-hand side.  ``scratch``, a float and a bool
    array of x's shape, takes the temporaries.
    """
    diff, finite = scratch
    diff = np.subtract(ax, rhs, out=diff)
    defect = np.maximum.reduce(np.abs(diff, out=diff))
    if np.count_nonzero(np.isfinite(x, out=finite)) != x.size \
            or defect > 1e-8 * max(np.maximum.reduce(np.abs(rhs, out=diff)),
                                   1e-300):
        raise NumericsError(
            f"cyclic tridiagonal solve failed its residual check (defect "
            f"{defect:.3e}); the system is singular or severely "
            "ill-conditioned"
        )


def solve_periodic_tridiagonal(lo, di, up, rhs):
    """Solve the cyclic tridiagonal system with rows lo,di,up (indices mod n)
    once; see :class:`CyclicTridiagonal` to reuse the factorization."""
    return CyclicTridiagonal(lo, di, up).solve(rhs)


class CNOperator:
    """Crank-Nicolson step operator of y' = L y + source with
    L = (sigma y')' + zeroth*y and a fixed step dt.

    It holds the implicit side ``A = I - dt/2 L`` factored, and the rows of
    ``A`` and of the explicit side ``E = I + dt/2 L`` stacked, so that one
    product of a state with the stacked rows gives both ``A x`` (the defect
    of the solve that made x) and ``E x`` (the next step's right-hand
    side).  The implicit matrix is strictly diagonally dominant (hence
    nonsingular) for every dt > 0 when zeroth <= 0, and for
    dt * max(zeroth) < 2 otherwise.
    """

    def __init__(self, sigma: Field, zeroth: Field, dt: float):
        if not dt > 0.0:  # NaN too
            raise ValueError(f"dt must be positive, got {dt}")
        if sigma.min() <= 0.0:
            raise GridError(f"sigma must be positive, min = {sigma.min()}")
        lo, di, up = _stencil_coefficients(sigma, zeroth)
        half = 0.5 * dt
        n = sigma.grid.n
        self.sigma, self.dt, self.n = sigma, dt, n
        # rows[k, i, j]: coefficient of x[j-1], x[j], x[j+1] (i = 0, 1, 2)
        # in row j of A (k = 0) and of E (k = 1)
        self._rows = np.array(((-half * lo, 1.0 - half * di, -half * up),
                               (half * lo, 1.0 + half * di, half * up)))
        self.explicit = tuple(self._rows[1])
        self.implicit = CyclicTridiagonal(*self._rows[0])
        j = np.arange(n)
        self._neighbours = np.array((j - 1, j, j + 1))  # taken mod n
        # scratch buffers, rewritten by every product and every step
        self._gathered = np.empty((3, n))
        self._terms = np.empty((2, 3, n))
        self._products = np.empty((2, n))
        self._rhs = np.empty(n)
        self._defect = (np.empty(n), np.empty(n, dtype=bool))
        self._last = None  # the state whose E x is in _products[1]

    def _product(self, x):
        """``(A x, E x)`` as the rows of a scratch array that the next call
        overwrites.  Each row sums ``lo*x[j-1] + di*x[j] + up*x[j+1]`` in
        that order, the bits of :func:`apply_periodic_tridiagonal`."""
        x.take(self._neighbours, out=self._gathered, mode="wrap")
        np.multiply(self._rows, self._gathered, out=self._terms)
        return np.add.reduce(self._terms, axis=1, out=self._products)


def cn_step(op: CNOperator, y: np.ndarray, source: np.ndarray) -> np.ndarray:
    """One Crank-Nicolson step on node values: solves
    ``(I - dt/2 L) y+ = (I + dt/2 L) y + dt*source`` for the values of y+.

    ``y`` and ``source`` are 1-D arrays on the operator's grid.  The scheme
    is A-stable and second order.  The right-hand side and the defect are
    formed in the operator's scratch buffers; the result is a fresh
    read-only array: the operator keeps its explicit product, and reuses
    it when the next step starts from this very array.
    """
    n = op.n
    if getattr(y, "shape", None) != (n,) \
            or getattr(source, "shape", None) != (n,):
        raise GridError(f"cn_step needs {n} node values, got shapes "
                        f"{np.shape(y)} and {np.shape(source)}")
    if y is op._last:
        explicit = op._products[1]
    else:
        explicit = op._product(np.asarray(y, dtype=float))[1]
    rhs = np.multiply(op.dt, source, out=op._rhs)
    np.add(explicit, rhs, out=rhs)
    op._last = None  # the product below overwrites E y
    x = op.implicit.back_solve(rhs)
    check_defect(op._product(x)[0], x, rhs, op._defect)
    x.flags.writeable = False
    op._last = x
    return x


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order first derivative on a uniform grid (3-point one-sided
    stencils at both ends)."""
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
    out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return out


def restrict(fine: Field, grid: CircleGrid) -> Field:
    """Samples of ``fine`` at the nodes of ``grid``, of which its grid must
    be an integer refinement."""
    factor = fine.grid.n // grid.n
    if factor * grid.n != fine.grid.n:
        raise ValueError("reference grid must be an integer refinement")
    return Field(grid, fine.values[::factor])


@dataclass(frozen=True)
class HistorySegment:
    """Uniform samples of a lag function on [-d, 0].

    ``values[k]`` is the sample at ``s_k = -d + k*(d/m)`` for k = 0..m, so
    index 0 is the oldest point (s = -d) and index m the newest (s = 0).
    """

    d: float
    values: np.ndarray

    def __post_init__(self):
        if not 0.0 < self.d < math.inf:  # NaN too
            raise GridError(f"delay must be finite and positive, got {self.d}")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or len(vals) < 5:
            raise GridError(
                f"history needs m >= 4 intervals (>= 5 samples), got {vals.shape}"
            )
        if np.count_nonzero(np.isfinite(vals)) != vals.size:
            raise GridError("history contains non-finite samples")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return self.d / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(-self.d, 0.0, self.m + 1)

    @classmethod
    def from_function(cls, d: float, m: int, fn) -> "HistorySegment":
        s = np.linspace(-d, 0.0, m + 1)
        return cls(d, np.asarray(fn(s), dtype=float))

    @classmethod
    def constant(cls, d: float, m: int, c: float) -> "HistorySegment":
        return cls(d, np.full(m + 1, float(c)))


@dataclass(frozen=True)
class AgeGrid:
    """Uniform node grid on the age interval [0, sbar] with m cells."""

    sbar: float
    m: int

    def __post_init__(self):
        if not 0.0 < self.sbar < math.inf:  # NaN too
            raise GridError(
                f"sbar must be finite and positive, got {self.sbar}")
        if self.m < 4:
            raise GridError(f"age grid needs m >= 4 cells, got {self.m}")

    @property
    def h(self) -> float:
        return self.sbar / self.m

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.sbar, self.m + 1)

    def profile(self, values) -> np.ndarray:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (self.m + 1,):
            raise GridError(
                f"age profile needs {self.m + 1} values, got shape {vals.shape}"
            )
        return vals

    def quad(self, values) -> float:
        """Trapezoid quadrature over [0, sbar]."""
        return trapezoid(self.profile(values), self.h)


@dataclass
class Trajectory:
    """Time-stamped closed-loop record: states, controls, running payoff.

    ``running_payoff[k]`` is the discounted payoff accumulated on
    ``[times[0], times[k]]``; ``meta`` carries model-specific diagnostics
    (positivity flags, minima, growth summaries).
    """

    times: np.ndarray
    states: list
    controls: list
    running_payoff: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if len(t) != len(self.states) or len(t) != len(self.controls) \
                or len(t) != len(self.running_payoff):
            raise ValueError("trajectory arrays must share one length")
        steps = np.diff(t)
        if len(steps) and (np.any(steps <= 0.0)
                           or not np.allclose(steps, steps[0], rtol=1e-9)):
            raise ValueError("times must increase with a constant step")
        object.__setattr__(self, "times", t)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def payoff(self) -> float:
        return float(self.running_payoff[-1])


def discounted_quadrature(times: np.ndarray, integrand: np.ndarray,
                          rho: float) -> np.ndarray:
    """Cumulative trapezoid of exp(-rho*t) * integrand along ``times``."""
    g = np.exp(-rho * np.asarray(times)) * np.asarray(integrand)
    out = np.zeros_like(g)
    if len(g) > 1:
        steps = np.diff(times)
        out[1:] = np.cumsum(0.5 * steps * (g[1:] + g[:-1]))
    return out
