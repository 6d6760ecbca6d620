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
exception is :class:`CNOperator`: it keeps scratch buffers and the
explicit product of the state it last returned, so an operator belongs to
one model handle (which builds one per step size) and is not shared
across threads.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridError, NumericsError

TWO_PI = 2.0 * np.pi
BLOCK = 64  # the states and controls a closed loop holds at once


@dataclass(frozen=True)
class CircleGrid:
    """Uniform periodic grid with nodes theta_j = 2*pi*j/n.

    A function on the circle is the read-only array of its n node values;
    the grid checks such arrays (:meth:`nodal`) and owns their one
    quadrature (:meth:`quad`, :meth:`inner`).
    """

    n: int

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 8:
            raise GridError(
                f"circle grid needs an integer n >= 8 nodes, got {self.n!r}")

    @cached_property
    def h(self) -> float:
        return TWO_PI / self.n

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.n) / self.n

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

    def quad(self, x) -> float:
        """Integral over the circle of the node values x by the rectangle
        rule, h * sum(x).

        On a uniform periodic grid this rule is exact for constants and
        kills the first n/2 - 1 Fourier harmonics to machine precision (it
        is the trapezoid rule of periodic functions), hence spectrally
        accurate for smooth integrands.
        """
        return float(self.h * np.add.reduce(self.nodal(x)))

    def inner(self, x, g) -> float:
        """L2 pairing <x, g>, the integral of x*g, of two arrays of node
        values."""
        return float(self.h * np.add.reduce(self.nodal(x) * self.nodal(g)))

    def restrict(self, fine):
        """The samples at this grid's nodes of the node values ``fine`` on a
        grid that is an integer refinement of this one."""
        factor = len(fine) // self.n
        if factor < 1 or np.shape(fine) != (factor * self.n,):
            raise GridError(f"expected node values on an integer refinement "
                            f"of the {self.n}-node grid, got shape "
                            f"{np.shape(fine)}")
        return fine[::factor]


@dataclass(frozen=True)
class Field:
    """Real-valued function sampled on a :class:`CircleGrid`: the profile
    type the spec builders take in, which they unwrap to node arrays."""

    grid: CircleGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise GridError(
                f"field needs {self.grid.n} values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", vals)


def trapezoid(y: np.ndarray, dx: float) -> float:
    """Composite trapezoid rule for samples ``y`` spaced ``dx`` apart
    (scipy's ``trapezoid`` arithmetic, without its per-call argument
    handling, so results match it bit for bit)."""
    return float((dx * (y[1:] + y[:-1]) / 2.0).sum())


def _stencil_coefficients(grid: CircleGrid, sigma, zeroth):
    """Periodic tridiagonal coefficients of f -> (sigma f')' + zeroth*f, of
    node arrays sigma > 0 and zeroth on ``grid``.

    Returns ``(lo, di, up)`` where row j of the operator reads
    ``lo[j]*f[j-1] + di[j]*f[j] + up[j]*f[j+1]`` with indices mod n.
    ``lo[0]`` and ``up[-1]`` are the periodic corner entries.
    """
    s, zeroth = grid.nodal(sigma), grid.nodal(zeroth)
    if s.min() <= 0.0:
        raise GridError(f"sigma must be positive, min = {s.min()}")
    h2 = grid.h ** 2
    s_plus = 0.5 * (s + np.roll(s, -1))   # sigma_{j+1/2}
    s_minus = np.roll(s_plus, 1)          # sigma_{j-1/2}
    lo = s_minus / h2
    up = s_plus / h2
    di = -(s_plus + s_minus) / h2 + zeroth
    return lo, di, up


def sl_apply(grid: CircleGrid, sigma, zeroth, f):
    """Apply the divergence-form operator f -> (sigma f')' + zeroth*f to the
    node values f.

    Second-order centered stencil with arithmetic-mean interface values
    sigma_{j+1/2}; the periodic wrap makes the discrete operator exactly
    self-adjoint for the grid inner product.
    """
    lo, di, up = _stencil_coefficients(grid, sigma, zeroth)
    return apply_periodic_tridiagonal(lo, di, up, grid.nodal(f))


def apply_periodic_tridiagonal(lo, di, up, v):
    """Matrix-vector product for the periodic tridiagonal layout above."""
    before = np.concatenate((v[-1:], v[:-1]))   # v[j-1]
    after = np.concatenate((v[1:], v[:1]))      # v[j+1]
    return lo * before + di * v + up * after


_FLAPACK = "scipy.linalg._flapack"


def lapack_pttr():
    """LAPACK ``(dpttrf, dpttrs)`` from scipy's compiled module
    ``scipy.linalg._flapack``.

    The module is loaded from its file in scipy's ``linalg`` directory,
    found without importing scipy, so the ``scipy.linalg`` package, about
    0.25 s of imports that hjbkit has no use for, is never run.  It is
    registered in ``sys.modules`` under its own name: it is loaded once per
    process, and a later ``import scipy.linalg`` reuses it, so
    ``scipy.linalg.lapack.dpttrf`` is the very routine returned here.  Where
    that load cannot be done, the same routines come from the public
    ``scipy.linalg.lapack``, only slower.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        module = _load_flapack()
    if module is None:
        from scipy.linalg.lapack import dpttrf, dpttrs
        return dpttrf, dpttrs
    return module.dpttrf, module.dpttrs


def _load_flapack():
    """``scipy.linalg._flapack`` loaded from its file and registered in
    ``sys.modules``, or None if there is no such file or it fails to load
    outside its package."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        return None
    spec = importlib.machinery.PathFinder.find_spec(
        _FLAPACK,
        [os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
    if spec is None:
        return None
    # no lock: loading an extension module again, as a racing thread
    # might, returns the very module object of the first load
    try:
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    except ImportError:
        # e.g. a build whose compiled modules need scipy/__init__.py to set
        # up the shared-library path first
        sys.modules.pop(_FLAPACK, None)
        return None
    return module


class CyclicTridiagonal:
    """Factored symmetric positive definite cyclic tridiagonal matrix: row
    j is ``up[j-1]*x[j-1] + di[j]*x[j] + up[j]*x[j+1]`` (indices mod n).

    Sherman-Morrison reduction: A = T - |gamma| w w^T with gamma = -di[0],
    so T, a plain tridiagonal matrix positive definite with A, is factored
    once by LAPACK (``pttrf``).  The correction vector and the rank-one
    denominator det A / det T depend only on A, so each :meth:`solve` is
    one ``pttrs`` back-solve plus the update.  A non-positive pivot or
    denominator refuses A as not positive definite.  Both routines come
    from :func:`lapack_pttr`, loaded when the first matrix is built.
    """

    def __init__(self, di, up):
        dpttrf, dpttrs = lapack_pttr()
        n = len(di)
        if n < 3:
            raise GridError("cyclic tridiagonal solve needs n >= 3")
        self.lo, self.di, self.up = np.roll(up, 1), di, up
        corner = up[-1]      # entries (0, n-1) and (n-1, 0)
        gamma = -di[0] if di[0] != 0.0 else 1.0
        dmod = di.copy()
        dmod[0] -= gamma
        dmod[-1] -= corner * corner / gamma
        *self._ldl, info = dpttrf(dmod, up[:-1])
        if info != 0:
            raise NumericsError("cyclic tridiagonal matrix is not positive "
                                f"definite: LAPACK pttrf info {info}")
        u = np.zeros(n)
        u[[0, -1]] = gamma, corner
        z, _ = dpttrs(*self._ldl, u)
        denom = 1.0 + z[0] + corner * z[-1] / gamma
        if not 0.0 < denom < math.inf:  # NaN too
            raise NumericsError("cyclic tridiagonal matrix is singular or not "
                                "positive definite (rank-one update)")
        # Python floats: the same bits as numpy scalars, with cheaper
        # arithmetic in the per-solve update
        self._corner, self._gamma = float(corner), float(gamma)
        self._z, self._denom = z, float(denom)
        self._pttrs = dpttrs

    def back_solve(self, rhs):
        """The solution of the system, without the defect check."""
        y, _ = self._pttrs(*self._ldl, rhs)
        y -= ((y.item(0) + self._corner * y.item(-1) / self._gamma)
              / self._denom) * self._z
        return y

    def solve(self, rhs):
        x = self.back_solve(rhs)
        with np.errstate(invalid="ignore", over="ignore"):  # x may be inf
            check_defect(np.stack((apply_periodic_tridiagonal(
                self.lo, self.di, self.up, x) - rhs, rhs)))
        return x


def check_defect(residual):
    """Raise :class:`NumericsError` unless a solution x of ``A x = rhs`` is
    finite and its defect is at most ``1e-8 * max|rhs|``.

    LAPACK does not flag (near-)singular systems -- it returns a
    backward-stable but meaningless vector -- so every solve verifies its
    defect against the right-hand side.  ``residual`` is a ``(2, n)``
    scratch array, overwritten here: row 0 holds ``A x - rhs``, row 1
    ``rhs``.  Row j of ``A x`` has the term ``di[j] * x[j]``, so a
    non-finite ``x[j]`` makes the defect inf or NaN, and a non-finite rhs
    makes the tolerance inf or NaN: both fail the one comparison below.
    """
    defect, top = np.maximum.reduce(np.abs(residual, out=residual),
                                    axis=1).tolist()
    if not defect <= 1e-8 * max(top, 1e-300) < math.inf:
        raise NumericsError(
            f"cyclic tridiagonal solve failed its residual check (defect "
            f"{defect:.3e}); the system is singular or severely "
            "ill-conditioned"
        )


def solve_periodic_tridiagonal(di, up, rhs):
    """Solve the symmetric positive definite cyclic tridiagonal system with
    diagonal di and superdiagonal up once; see :class:`CyclicTridiagonal`
    to reuse the factorization."""
    return CyclicTridiagonal(di, up).solve(rhs)


class CNOperator:
    """Crank-Nicolson step operator of y' = L y + f with
    L = (sigma y')' + zeroth*y on ``grid``, of node arrays sigma and zeroth,
    and a fixed step dt; the caller forms the step's forcing (dt f).

    It holds the implicit side ``A = I - dt/2 L`` factored, and the rows of
    ``A`` and of the explicit side ``E = I + dt/2 L`` stacked, so that one
    product of a state with the stacked rows gives both ``A x`` (the defect
    of the solve that made x) and ``E x`` (the next step's right-hand
    side).  The implicit matrix is positive definite, as its factorization
    needs, iff dt * lambda_max(L) < 2 (past that, the CN factor of the top
    mode is negative and the operator is refused); strict diagonal
    dominance implies it for all dt when zeroth <= 0, else dt*max(zeroth) < 2.
    """

    def __init__(self, grid: CircleGrid, sigma, zeroth, dt: float):
        if not 0.0 < dt < math.inf:  # NaN too
            raise ValueError(f"dt must be finite and positive, got {dt}")
        lo, di, up = _stencil_coefficients(grid, sigma, zeroth)
        half = 0.5 * dt
        self.n = n = grid.n
        # rows[k, i, j]: coefficient of x[j-1], x[j], x[j+1] (i = 0, 1, 2)
        # in row j of A (k = 0) and of E (k = 1)
        self._rows = np.array(((-half * lo, 1.0 - half * di, -half * up),
                               (half * lo, 1.0 + half * di, half * up)))
        try:
            self.implicit = CyclicTridiagonal(*self._rows[0, 1:])
        except NumericsError as exc:  # dt * lambda_max(L) >= 2
            raise NumericsError(f"I - dt/2 L is not positive definite at "
                                f"dt = {dt:.6g} ({exc})") from None
        j = np.arange(n)
        self._neighbours = np.array((j - 1, j, j + 1))  # taken mod n
        # scratch buffers, rewritten by every product and every step
        self._gathered = np.empty((3, n))
        self._terms = np.empty((2, 3, n))
        self._products = np.empty((2, n))
        self._ax, self._ex = self._products  # views of the rows A x and E x
        # (A x - rhs, rhs): the right-hand side and the defect check's input
        self._residual = np.empty((2, n))
        self._defect, self._rhs = self._residual
        self._shape = (n,)
        self._last = None  # the state whose E x is in _ex

    def _product(self, x):
        """``A x`` and ``E x`` into the scratch rows ``_ax`` and ``_ex``,
        which the next call overwrites.  Each row sums ``lo*x[j-1] +
        di*x[j] + up*x[j+1]`` in that order, the bits of
        :func:`apply_periodic_tridiagonal`."""
        x.take(self._neighbours, out=self._gathered, mode="wrap")
        np.multiply(self._rows, self._gathered, out=self._terms)
        np.add.reduce(self._terms, axis=1, out=self._products)


def cn_step(op: CNOperator, y: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """One Crank-Nicolson step on node values: solves
    ``(I - dt/2 L) y+ = (I + dt/2 L) y + forcing`` for the values of y+.

    ``y`` and ``forcing`` are 1-D arrays on the operator's grid; for
    y' = L y + f the forcing is ``dt*f``, which the caller forms.  The
    scheme is A-stable and second order.  The right-hand side and the
    defect are formed in the operator's scratch buffers; the result is a
    fresh read-only array: the operator keeps its explicit product, and
    reuses it when the next step starts from this very array.
    """
    shape = op._shape
    if getattr(y, "shape", None) != shape \
            or getattr(forcing, "shape", None) != shape:
        raise GridError(f"cn_step needs {op.n} node values, got shapes "
                        f"{np.shape(y)} and {np.shape(forcing)}")
    last, op._last = op._last, None  # each product below overwrites E y
    if y is not last:
        op._product(np.asarray(y, dtype=float))
    rhs = np.add(op._ex, forcing, out=op._rhs)
    x = op.implicit.back_solve(rhs)
    op._product(x)
    np.subtract(op._ax, rhs, out=op._defect)
    check_defect(op._residual)
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
        if not isinstance(self.m, numbers.Integral) or self.m < 4:
            raise GridError(
                f"age grid needs an integer m >= 4 cells, got {self.m!r}")

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
    """Closed-loop record: running payoff, final state, per-time columns.

    ``running_payoff[k]`` is the discounted payoff accumulated on
    ``[times[0], times[k]]``; ``meta`` carries model-specific diagnostics
    (positivity flags, minima, growth summaries).
    """

    times: np.ndarray
    running_payoff: np.ndarray
    final: object
    columns: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if any(len(col) != len(t) for col in
               (self.running_payoff, *self.columns.values())):
            raise ValueError("trajectory arrays must share one length")
        steps = np.diff(t)
        if len(steps) and (np.any(steps <= 0.0)
                           or not np.allclose(steps, steps[0], rtol=1e-9)):
            raise ValueError("times must increase with a constant step")
        object.__setattr__(self, "times", t)

    @property
    def payoff(self) -> float:
        return float(self.running_payoff[-1])


class Blocks:
    """A closed loop's per-time columns, from one block of at most BLOCK
    consecutive states and controls (from index 0, BLOCK, ...) at a time: a
    full block, and the last at :meth:`finish`, is mapped by ``columns(states,
    controls)`` to {name: values} under the creator's errstate, and dropped."""

    def __init__(self, columns=None):
        self.columns, self.errstate = columns, np.geterr()
        self.held, self.parts = [], {}  # (state, control) pairs; name: arrays

    def add(self, state, control) -> None:
        self.held.append((state, control))
        if len(self.held) == BLOCK:
            self._drop()

    def _drop(self):
        if self.columns and self.held:
            states, controls = map(list, zip(*self.held))
            with np.errstate(**self.errstate):
                block = self.columns(states, controls)
            for k, v in block.items():
                self.parts.setdefault(k, []).append(np.asarray(v, float))
        self.held = []

    def finish(self) -> dict:
        self._drop()
        return {k: np.concatenate(v) for k, v in self.parts.items()}


def joined(columns, own):
    """``columns``'s columns (if any), then ``own``'s, under other names."""
    return own if columns is None else lambda states, controls: {
        **columns(states, controls), **own(states, controls)}
