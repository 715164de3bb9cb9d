"""Matrix-valued Volterra convolution kernels K(t, s) = kappa(t - s) 1_{s <= t}.

An N x N kernel is discretized by its lag band c[m], the exact integral of
kappa over the lag cell [m dt, (m + 1) dt], shape (n, N, N).  The scalar
fractional and exponential kernels difference their antiderivative at the
n + 1 nodes, ConstantKernel is M times the node spacing, and DiagonalKernel
puts its components' bands on the diagonal.  Every solver reads the band,
its block-Toeplitz fold or the band of its resolvent, so discretizations carry
no quadrature error beyond the piecewise-constant approximation of the co-factor.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import InvalidArgumentError
from .grid import TimeGrid, coefficients


class Kernel:
    """Abstract base.  Subclasses provide dim and their lag band."""

    dim = 1

    def lag_band(self, grid: TimeGrid) -> np.ndarray:
        """Lag-cell integrals of the profile on the grid, shape (n, N, N)."""
        raise NotImplementedError


class _ConvolutionScalar(Kernel):
    """Scalar convolution kernel K(t, s) = kappa(t - s) 1_{s <= t}; subclasses
    provide _primitive(x), the antiderivative of kappa with value 0 at lag 0."""

    def lag_band(self, grid):
        # one scalar evaluation per node: whole-array power/expm1 may round differently
        dt = grid.dt
        primitive = np.array([self._primitive(k * dt) for k in range(grid.n + 1)])
        return np.diff(primitive)[:, None, None]


@dataclass(frozen=True)
class FractionalKernel(_ConvolutionScalar):
    """K(t, s) = scale * (t-s)^{h-1/2} / Gamma(h+1/2) for s <= t.

    h in (0, 1].  For h < 1/2 the kernel is singular on the diagonal but
    stays square integrable, so its lag integrals remain finite.
    """

    h: float
    scale: float = 1.0

    def __post_init__(self):
        vars(self).update(h=coefficients(self.h, "h"), scale=coefficients(self.scale, "scale"))  # the fields are frozen
        if not 0.0 < self.h <= 1.0:
            raise InvalidArgumentError(f"fractional exponent h must lie in (0, 1], got {self.h}")

    def _primitive(self, x):
        p = self.h + 0.5
        return self.scale / math.gamma(p) * x ** p / p


@dataclass(frozen=True)
class ExponentialKernel(_ConvolutionScalar):
    """K(t, s) = scale * exp(-beta (t-s)) for s <= t, beta >= 0."""

    beta: float
    scale: float = 1.0

    def __post_init__(self):
        vars(self).update(beta=coefficients(self.beta, "beta"), scale=coefficients(self.scale, "scale"))
        if self.beta < 0.0:
            raise InvalidArgumentError(f"decay rate beta must be nonnegative, got {self.beta}")

    def _primitive(self, x):
        if self.beta == 0.0:
            return self.scale * x
        return -self.scale * np.expm1(-self.beta * x) / self.beta


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    """K(t, s) = M for s <= t."""

    matrix: np.ndarray

    def __post_init__(self):
        m = coefficients(self.matrix, "constant kernel matrix", ("N", "N"), "square")
        vars(self).update(matrix=m, dim=m.shape[0])

    def lag_band(self, grid):
        return self.matrix * np.diff(np.arange(grid.n + 1) * grid.dt)[:, None, None]


@dataclass(frozen=True)
class DiagonalKernel(Kernel):
    """Diagonal matrix kernel built from scalar convolution kernels."""

    components: Tuple[Kernel, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise InvalidArgumentError("diagonal kernel needs at least one component")
        if any(c.dim != 1 for c in comps):
            raise InvalidArgumentError("diagonal kernel components must be scalar convolution kernels")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "dim", len(comps))

    def lag_band(self, grid):
        out = np.zeros((grid.n, self.dim, self.dim))
        for i, c in enumerate(self.components):
            out[:, i, i] = c.lag_band(grid)[:, 0, 0]
        return out


def band_coefficients(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Exact lag-cell integrals c[m] = int_{m dt}^{(m+1) dt} kappa, shape (n, N, N)."""
    return kernel.lag_band(grid)


def fold(band: np.ndarray) -> np.ndarray:
    """Block lower Toeplitz (P n, Q n) matrix with band[i - j] in block (i, j), j <= i, for band (n, P, Q)."""
    n, p, q = band.shape
    # ext[t] = band[n - 1 - t] for t < n and 0 beyond, so block (i, j) reads ext[n - 1 - i + j]
    ext = np.concatenate([band[::-1], np.zeros((n - 1, p, q))])
    win = np.lib.stride_tricks.sliding_window_view(ext, n, axis=0)
    return np.ascontiguousarray(win[::-1].transpose(0, 1, 3, 2)).reshape(n * p, n * q)


def folded_cells(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """Cell-integral matrix folded to shape (N n, N n).

    Block (i, j) equals the integral of s -> K(t_i, s) over cell j, that
    is band[i - j - 1] for j < i and zero otherwise, so a matrix-vector
    product against stacked samples is the left-rule value of the integral
    operator at the sample nodes.
    """
    band = band_coefficients(kernel, grid)
    return fold(np.concatenate([np.zeros_like(band[:1]), band[:-1]]))


def resolvent_band(band: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Lag band x, shape (n, N, N), of (Id - a kron(I_n, m))^{-1} with a the folded cells of ``band``.

    A unit block lower Toeplitz matrix has a block lower Toeplitz inverse, so
    fold(x) is that inverse, with x[0] = I and x[l] = sum_{s < l} band[s] m x[l - 1 - s].
    """
    n, N = band.shape[0], band.shape[1]
    bm = (band @ m).transpose(1, 0, 2).reshape(N, n * N)  # [band[0] m | band[1] m | ...]
    rev = np.zeros((n, N, N))  # rev[n - 1 - l] = x[l]
    rev[n - 1] = np.eye(N)
    for l in range(1, n):
        rev[n - 1 - l] = bm[:, : l * N] @ rev[n - l :].reshape(l * N, N)
    return rev[::-1]


def kernel_l2_norm_sq(kernel: Kernel, grid: TimeGrid) -> float:
    """Grid approximation of the squared L2([0,T]^2) norm of K.

    Equals the squared Frobenius norm of the folded cell matrix, in which
    band[m] fills the n - 1 - m blocks of lag m + 1, i.e. the double
    integral of the squared cell-averaged kernel.  The error decays like
    n^{-min(1, 2h)} for fractional kernels and is one-sided from below for
    kernels whose profile is convex in the lag.
    """
    c = band_coefficients(kernel, grid)
    return float(np.arange(grid.n - 1, -1, -1) @ np.sum(c * c, axis=(1, 2)))
