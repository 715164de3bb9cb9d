"""Star calculus on discretized integral operators.

An operator F acts on grid functions f: [0, T] -> R^N as

    (F f)(t) = M f(t) + int_0^T F_ker(t, s) f(s) ds,

and is stored as the exact multiple-of-identity coefficient ``ident`` (an
N x N matrix, kept symbolic so the identity never degrades into a Dirac
kernel on the grid) together with the folded cell matrix ``kernel`` of
shape (N n, N n) whose block (i, j) integrates the kernel over cell j at
row node t_i.  With this folding, composition of kernel parts is plain
matrix multiplication and the discrete adjoint is the matrix transpose.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularOperatorError
from .grid import TimeGrid, check_same_grid
from .kernels import Kernel, folded_cells

COND_LIMIT = 1e12
SYM_TOL = 1e-8


@dataclass(frozen=True)
class IntegralOperator:
    grid: TimeGrid
    dim: int
    kernel: np.ndarray
    ident: np.ndarray

    def __post_init__(self):
        n, N = self.grid.n, self.dim
        k = np.asarray(self.kernel, dtype=float)
        m = np.asarray(self.ident, dtype=float)
        if k.shape != (N * n, N * n):
            raise InvalidArgumentError(
                f"kernel matrix must have shape ({N * n}, {N * n}), got {k.shape}"
            )
        if m.shape != (N, N):
            raise InvalidArgumentError(f"identity coefficient must be ({N}, {N}), got {m.shape}")
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "ident", m)

    @property
    def has_ident(self) -> bool:
        return bool(np.any(self.ident != 0.0))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues (descending) and L2-normalized eigenfunction samples."""

    grid: TimeGrid
    dim: int
    eigenvalues: np.ndarray
    functions: np.ndarray


def kernel_operator(grid: TimeGrid, dim: int, kernel: np.ndarray) -> IntegralOperator:
    return IntegralOperator(grid, dim, kernel, np.zeros((dim, dim)))


def identity_operator(grid: TimeGrid, dim: int, coeff=None) -> IntegralOperator:
    m = np.eye(dim) if coeff is None else np.atleast_2d(np.asarray(coeff, dtype=float))
    n = grid.n
    return IntegralOperator(grid, dim, np.zeros((dim * n, dim * n)), m)


def discretize(kernel: Kernel, grid: TimeGrid) -> IntegralOperator:
    """Exact cell-integral discretization of a kernel on a grid."""
    return kernel_operator(grid, kernel.dim, folded_cells(kernel, grid))


def _bd_left(m: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Blockwise kron(I_n, m) @ x for x of shape (m.shape[1] n, q)."""
    q = x.shape[1]
    return (m @ x.reshape(n, m.shape[1], q)).reshape(n * m.shape[0], q)


def _bd_right(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Blockwise x @ kron(I_n, m) for x of shape (q, m.shape[0] n)."""
    q = x.shape[0]
    return (x.reshape(q, n, m.shape[0]) @ m).reshape(q, n * m.shape[1])


def _volterra_solve(a: np.ndarray, m: np.ndarray, rhs: np.ndarray, n: int, trans: bool = False) -> np.ndarray:
    """(Id - a kron(I_n, m))^{-1} rhs, or (Id - a kron(I_n, m))^{-T} rhs with ``trans``.

    ``a`` is a strictly block lower (Volterra) cell matrix, so Id - a kron(I_n, m)
    is unit lower triangular; one dense LU solve, which never pivots on the
    transposed (upper triangular) form.
    """
    mat = _bd_right(a, -m, n)
    mat[np.diag_indices_from(mat)] += 1.0
    return np.linalg.solve(mat.T if trans else mat, rhs)


def op_apply(op: IntegralOperator, f: np.ndarray) -> np.ndarray:
    """Apply the operator to node samples f of shape (n, N) or (n,)."""
    n, N = op.grid.n, op.dim
    fa = np.asarray(f, dtype=float)
    squeeze = fa.ndim == 1
    if squeeze:
        fa = fa[:, None]
    if fa.shape != (n, N):
        raise InvalidArgumentError(f"samples must have shape ({n}, {N}), got {fa.shape}")
    flat = fa.reshape(n * N)
    out = op.kernel @ flat
    if op.has_ident:
        out = out + (fa @ op.ident.T).reshape(n * N)
    out = out.reshape(n, N)
    return out[:, 0] if squeeze else out


def star(a: IntegralOperator, b: IntegralOperator) -> IntegralOperator:
    """Operator composition (a star b) f = a (b f)."""
    check_same_grid(a.grid, b.grid)
    if a.dim != b.dim:
        raise InvalidArgumentError(f"operator dimensions differ: {a.dim} vs {b.dim}")
    n = a.grid.n
    k = a.kernel @ b.kernel
    if a.has_ident:
        k = k + _bd_left(a.ident, b.kernel, n)
    if b.has_ident:
        k = k + _bd_right(a.kernel, b.ident, n)
    return IntegralOperator(a.grid, a.dim, k, a.ident @ b.ident)


def adjoint(a: IntegralOperator) -> IntegralOperator:
    """Adjoint with respect to the L2([0, T], R^N) inner product."""
    return IntegralOperator(a.grid, a.dim, a.kernel.T.copy(), a.ident.T.copy())


def _solve_id_minus(k: np.ndarray, rhs: np.ndarray):
    m = np.eye(k.shape[0]) - k
    cond = np.linalg.cond(m, 1)
    if not cond <= COND_LIMIT:
        raise SingularOperatorError(
            f"(Id - A) is numerically singular (condition number {cond:.3e})",
            condition=cond,
        )
    return np.linalg.solve(m, rhs)


def resolvent(a: IntegralOperator) -> IntegralOperator:
    """Resolvent R of a kernel operator: R = A + A star R = A + R star A."""
    if a.has_ident:
        raise InvalidArgumentError("resolvent is defined for pure kernel operators")
    r = _solve_id_minus(a.kernel, a.kernel)
    return kernel_operator(a.grid, a.dim, r)


def invert_id_minus(a: IntegralOperator) -> IntegralOperator:
    """Inverse of (Id - A) for a kernel operator A, solved directly."""
    if a.has_ident:
        raise InvalidArgumentError("invert_id_minus expects a pure kernel operator")
    nn = a.kernel.shape[0]
    x = _solve_id_minus(a.kernel, np.eye(nn))
    return IntegralOperator(a.grid, a.dim, x - np.eye(nn), np.eye(a.dim))


def op_trace(a: IntegralOperator) -> float:
    """Integral of the matrix trace of the kernel along the diagonal."""
    if a.has_ident:
        raise InvalidArgumentError("trace is defined for pure kernel operators")
    return float(np.trace(a.kernel))


def op_frobenius_sq(a: IntegralOperator) -> float:
    """Squared kernel L2 norm, equal to trace(a star adjoint(a))."""
    if a.has_ident:
        raise InvalidArgumentError("kernel norm is defined for pure kernel operators")
    return float(np.sum(a.kernel * a.kernel))


def eig_sym(a: IntegralOperator) -> Spectrum:
    """Eigendecomposition of a symmetric kernel operator.

    The kernel matrix must be symmetric within ``SYM_TOL`` relative to its
    size; it is explicitly symmetrized before calling the dense solver.
    Eigenfunction samples are normalized in L2, so reconstructing the
    kernel reads sum_k lam_k e_k(t_i) e_k(t_j)^T.
    """
    if a.has_ident:
        raise InvalidArgumentError("eig_sym expects a pure kernel operator")
    k = a.kernel
    scale = max(1.0, float(np.linalg.norm(k, "fro")))
    asym = float(np.linalg.norm(k - k.T, "fro")) / scale
    if asym > SYM_TOL:
        raise InvalidArgumentError(
            f"kernel is not symmetric: relative asymmetry {asym:.3e} exceeds {SYM_TOL:.1e}"
        )
    sym = 0.5 * (k + k.T)
    w, v = np.linalg.eigh(sym)
    order = np.argsort(w)[::-1]
    w = w[order]
    v = v[:, order] / np.sqrt(a.grid.dt)
    return Spectrum(a.grid, a.dim, w, v)


def full_matrix(a: IntegralOperator) -> np.ndarray:
    """Dense folded matrix including the identity part."""
    out = a.kernel.copy()
    if a.has_ident:
        out += np.kron(np.eye(a.grid.n), a.ident)
    return out


def min_sym_eigenvalue(a: IntegralOperator) -> float:
    """Smallest eigenvalue of the symmetrized dense matrix (identity included)."""
    m = full_matrix(a)
    return float(np.linalg.eigvalsh(0.5 * (m + m.T))[0])


def kernel_value(a: IntegralOperator, i: int, j: int) -> np.ndarray:
    """Cell-averaged kernel block at (t_i, cell_j)."""
    N = a.dim
    return a.kernel[i * N : (i + 1) * N, j * N : (j + 1) * N] / a.grid.dt


def l2_inner(grid: TimeGrid, f: np.ndarray, g: np.ndarray) -> float:
    """Left-rule L2 inner product of node samples."""
    return float(grid.dt * np.sum(np.asarray(f) * np.asarray(g)))
