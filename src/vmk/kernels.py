"""Matrix-valued integration kernels K(t, s) on [0, T]^2.

Every kernel evaluates itself pointwise and is discretized from one of two
exact representations it already holds:

- convolution kernels K(t, s) = kappa(t - s) 1_{s <= t} (fractional,
  exponential, constant Volterra ones and diagonals of those) integrate
  their lag profile exactly over lag cells, the band that every solver
  consumes;
- TableKernel and full-support ConstantKernel are piecewise constant on
  the grid, so their cell table is the discretization itself.

Discretizations therefore carry no quadrature error beyond the
piecewise-constant approximation of the co-factor.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .grid import TimeGrid, check_same_grid


class Kernel:
    """Abstract base.  Subclasses provide dim, volterra and their discretization."""

    dim = 1
    volterra = True
    is_convolution = False

    def eval_at(self, t: float, s: float) -> np.ndarray:
        raise NotImplementedError

    def lag_integral(self, a: float, b: float) -> np.ndarray:
        """Convolution kernels only: integral of the lag profile over [a, b]."""
        raise NotImplementedError


class _ConvolutionScalar(Kernel):
    """Scalar convolution kernel K(t, s) = kappa(t - s) 1_{s <= t}."""

    is_convolution = True

    def _primitive(self, x: float) -> float:
        """Antiderivative of kappa with value 0 at lag 0."""
        raise NotImplementedError

    def _profile(self, x: float) -> float:
        """kappa(x) for x >= 0."""
        raise NotImplementedError

    def eval_at(self, t, s):
        if s > t:
            return np.zeros((1, 1))
        return np.array([[self._profile(t - s)]])

    def lag_integral(self, a, b):
        if a < 0 or b < a:
            raise InvalidArgumentError(f"lag interval [{a}, {b}] is not ordered in [0, inf)")
        return np.array([[self._primitive(b) - self._primitive(a)]])


@dataclass(frozen=True)
class FractionalKernel(_ConvolutionScalar):
    """K(t, s) = scale * (t-s)^{h-1/2} / Gamma(h+1/2) for s <= t.

    h in (0, 1].  For h < 1/2 the kernel is singular on the diagonal but
    stays square integrable; pointwise evaluation at t == s is refused
    while lag integrals remain finite.
    """

    h: float
    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.h <= 1.0:
            raise InvalidArgumentError(f"fractional exponent h must lie in (0, 1], got {self.h}")

    def _norm(self) -> float:
        return self.scale / math.gamma(self.h + 0.5)

    def _profile(self, x):
        if x == 0.0:
            if self.h < 0.5:
                raise InvalidArgumentError(
                    "fractional kernel with h < 1/2 is singular at zero lag; "
                    "use lag integrals instead of pointwise evaluation"
                )
            return self._norm() if self.h == 0.5 else 0.0
        return self._norm() * x ** (self.h - 0.5)

    def _primitive(self, x):
        p = self.h + 0.5
        return self._norm() * x ** p / p


@dataclass(frozen=True)
class ExponentialKernel(_ConvolutionScalar):
    """K(t, s) = scale * exp(-beta (t-s)) for s <= t, beta >= 0."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        if self.beta < 0.0:
            raise InvalidArgumentError(f"decay rate beta must be nonnegative, got {self.beta}")

    def _profile(self, x):
        return self.scale * np.exp(-self.beta * x)

    def _primitive(self, x):
        if self.beta == 0.0:
            return self.scale * x
        return -self.scale * np.expm1(-self.beta * x) / self.beta


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    """K(t, s) = M, optionally zero for s > t (Volterra)."""

    matrix: np.ndarray
    volterra: bool = True

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"constant kernel matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "is_convolution", bool(self.volterra))

    def eval_at(self, t, s):
        if self.volterra and s > t:
            return np.zeros_like(self.matrix)
        return self.matrix.copy()

    def lag_integral(self, a, b):
        if a < 0 or b < a:
            raise InvalidArgumentError(f"lag interval [{a}, {b}] is not ordered in [0, inf)")
        return self.matrix * (b - a)


@dataclass(frozen=True)
class DiagonalKernel(Kernel):
    """Diagonal matrix kernel built from scalar convolution kernels."""

    components: Tuple[Kernel, ...]
    is_convolution = True

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InvalidArgumentError("diagonal kernel needs at least one component")
        for c in comps:
            if c.dim != 1 or not c.is_convolution:
                raise InvalidArgumentError("diagonal kernel components must be scalar convolution kernels")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dim", len(comps))

    def _assemble(self, parts):
        out = np.zeros((self.dim, self.dim))
        for i, p in enumerate(parts):
            out[i, i] = p[0, 0]
        return out

    def eval_at(self, t, s):
        return self._assemble([c.eval_at(t, s) for c in self.components])

    def lag_integral(self, a, b):
        return self._assemble([c.lag_integral(a, b) for c in self.components])


@dataclass(frozen=True)
class TableKernel(Kernel):
    """Kernel given by cell-averaged values on a fixed grid.

    values[i, j] is the average of K(t_i, s) over the j-th cell; the kernel
    is treated as piecewise constant in both arguments.
    """

    grid: TimeGrid
    values: np.ndarray
    volterra: bool = True

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        n = self.grid.n
        if v.ndim == 2:
            v = v[:, :, None, None]
        if v.shape[0] != n or v.shape[1] != n or v.shape[2] != v.shape[3]:
            raise InvalidArgumentError(
                f"table values must have shape (n, n) or (n, n, N, N) with n={n}, got {v.shape}"
            )
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "dim", v.shape[2])

    def _t_index(self, t):
        return min(int(np.floor(t / self.grid.dt + 1e-12)), self.grid.n - 1)

    def eval_at(self, t, s):
        if self.volterra and s > t:
            return np.zeros((self.dim, self.dim))
        return self.values[self._t_index(t), self._t_index(s)].copy()


def band_coefficients(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Exact lag-cell integrals c[m] = int_{m dt}^{(m+1) dt} kappa, shape (n, N, N)."""
    if not kernel.is_convolution:
        raise InvalidArgumentError("band coefficients are only defined for convolution kernels")
    n, dt, N = grid.n, grid.dt, kernel.dim
    out = np.empty((n, N, N))
    for m in range(n):
        out[m] = kernel.lag_integral(m * dt, (m + 1) * dt)
    return out


def folded_cells(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Cell-integral matrix folded to shape (N n, N n).

    Block (i, j) equals the integral of s -> K(t_i, s) over cell j, so a
    matrix-vector product against stacked samples is the left-rule value
    of the integral operator at the sample nodes.
    """
    n, N = grid.n, kernel.dim
    a4 = np.zeros((n, N, n, N))
    if kernel.is_convolution:
        c = band_coefficients(kernel, grid)
        for m in range(n - 1):
            i = np.arange(m + 1, n)
            a4[i, :, i - m - 1, :] = c[m]
    elif isinstance(kernel, ConstantKernel) and not kernel.volterra:
        a4[:, :, :, :] = (grid.dt * kernel.matrix)[None, :, None, :]
    elif isinstance(kernel, TableKernel):
        check_same_grid(kernel.grid, grid)
        v = kernel.values * grid.dt
        if kernel.volterra:
            for i in range(n):
                a4[i, :, :i, :] = v[i, :i].transpose(1, 0, 2)
        else:
            a4[:] = v.transpose(0, 2, 1, 3)
    else:
        raise InvalidArgumentError(f"cannot discretize a {type(kernel).__name__}: it is neither a "
                                   "convolution kernel nor a cell table")
    return a4.reshape(n * N, n * N)


def first_arg_columns(band: np.ndarray, k: int) -> np.ndarray:
    """Columns of cell integrals in the first argument at source node t_k.

    Row block i holds the integral of u -> K(u, t_k) over cell i, which for
    a convolution kernel with lag band ``band`` (shape (n, N, N)) is
    band[i - k] for i >= k and zero for i < k.  Shape (N n, N).
    """
    n, N = band.shape[0], band.shape[1]
    out = np.zeros_like(band)
    out[k:] = band[: n - k]
    return out.reshape(n * N, N)


def kernel_l2_norm_sq(kernel: Kernel, grid: TimeGrid) -> float:
    """Grid approximation of the squared L2([0,T]^2) norm of K.

    Equals the squared Frobenius norm of the folded cell matrix, i.e. the
    double integral of the squared cell-averaged kernel.  The error decays
    like n^{-min(1, 2h)} for fractional kernels and is one-sided from below
    for kernels whose profile is convex in the lag.
    """
    a = folded_cells(kernel, grid)
    return float(np.sum(a * a))

