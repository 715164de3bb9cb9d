"""Reference implementations the tests check vmk against; no vmk command runs them.

The star calculus stores an operator (F f)(t) = M f(t) + int_0^T F_ker(t, s) f(s) ds on
f: [0, T] -> R^N as the identity coefficient ``ident`` (N x N, kept symbolic) and the folded
cell matrix ``kernel`` (N n, N n), block (i, j) integrating the kernel over cell j at t_i, so
composition is matrix multiplication and the adjoint is the transpose.  Beside it: the
quadratic covariance operator, the Markovian matrix Riccati ODE and the affine mean variance.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from vmk.affine import AffineModel
from vmk.errors import InvalidArgumentError, RiccatiBlowUpError, SingularOperatorError
from vmk.grid import TimeGrid, check_same_grid, g0_nodes
from vmk.kernels import DiagonalKernel, Kernel, folded_cells
from vmk.operators import _bd_left, _bd_right, _volterra_solve
from vmk.quadratic import QuadraticModel, _discretize

COND_LIMIT = 1e12
ODE_CAP = 1e6


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


def kernel_operator(grid: TimeGrid, dim: int, kernel: np.ndarray) -> IntegralOperator:
    return IntegralOperator(grid, dim, kernel, np.zeros((dim, dim)))


def identity_operator(grid: TimeGrid, dim: int, coeff=None) -> IntegralOperator:
    m = np.eye(dim) if coeff is None else np.atleast_2d(np.asarray(coeff, dtype=float))
    n = grid.n
    return IntegralOperator(grid, dim, np.zeros((dim * n, dim * n)), m)


def discretize(kernel: Kernel, grid: TimeGrid) -> IntegralOperator:
    """Exact cell-integral discretization of a kernel on a grid."""
    return kernel_operator(grid, kernel.dim, folded_cells(kernel, grid))


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


def sigma_operator(model: QuadraticModel, grid: TimeGrid, k: int = 0, disc: SimpleNamespace = None) -> IntegralOperator:
    """Deflated-state covariance operator Sigma_{t_k} as a pure kernel."""
    n, N = grid.n, model.n_state
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"node index must lie in [0, {n}]")
    disc = _discretize(model, grid) if disc is None else disc
    ae = _bd_right(disc.a, model.eta, n)
    ae[:, : k * N] = 0.0
    kern = _bd_right(ae, model.m0, n) @ ae.T
    return kernel_operator(grid, N, kern)


def markovian_riccati_ode(theta, eta, corr, drift, u_mat, rate, horizon: float, n: int):
    """Backward RK4 integration of the matrix Riccati reduction.

    Solves, with F = D - 2 eta C Theta and M0 = U - 2 C C',

        dP/dt = Theta'Theta - P F - F' P - 2 P (eta M0 eta') P,  P_T = 0,
        dphi/dt = -2 r(t) - tr(P eta U eta'),                    phi_T = 0,

    on n uniform steps.  This is the exact reduction of the operator
    Riccati equation when the kernel is the identity, and serves as an
    independent oracle for that case.

    Returns (nodes, P path (n+1, N, N), phi path (n+1,)).

    Raises
    ------
    RiccatiBlowUpError
        When |P| exceeds ``ODE_CAP`` (tangent-type finite-time blow-up),
        carrying the first grid time past the singularity.
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    d, N = theta.shape
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    corr = np.atleast_2d(np.asarray(corr, dtype=float))
    drift = np.atleast_2d(np.asarray(drift, dtype=float))
    u_mat = np.atleast_2d(np.asarray(u_mat, dtype=float))
    if corr.shape != (N, d):
        raise InvalidArgumentError(f"corr must be ({N}, {d}), got {corr.shape}")
    if horizon <= 0 or n < 1:
        raise InvalidArgumentError("horizon must be positive and n >= 1")
    r_fun = rate if callable(rate) else (lambda t, _r=float(rate): _r)
    f = drift - 2.0 * eta @ corr @ theta
    m0 = u_mat - 2.0 * corr @ corr.T
    gram = theta.T @ theta
    quad = eta @ m0 @ eta.T
    trmat = eta @ u_mat @ eta.T

    def pdot(p):
        return gram - p @ f - f.T @ p - 2.0 * (p @ quad) @ p

    dt = horizon / n
    nodes = np.linspace(0.0, horizon, n + 1)
    p_path = np.zeros((n + 1, N, N))
    phi_path = np.zeros(n + 1)
    p = np.zeros((N, N))
    phi = 0.0
    for step in range(n):
        t1 = horizon - step * dt
        k1p = -pdot(p)
        k1f = 2.0 * r_fun(t1) + float(np.trace(p @ trmat))
        p2 = p + 0.5 * dt * k1p
        k2p = -pdot(p2)
        k2f = 2.0 * r_fun(t1 - 0.5 * dt) + float(np.trace(p2 @ trmat))
        p3 = p + 0.5 * dt * k2p
        k3p = -pdot(p3)
        k3f = 2.0 * r_fun(t1 - 0.5 * dt) + float(np.trace(p3 @ trmat))
        p4 = p + dt * k3p
        k4p = -pdot(p4)
        k4f = 2.0 * r_fun(t1 - dt) + float(np.trace(p4 @ trmat))
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        phi = phi + (dt / 6.0) * (k1f + 2.0 * k2f + 2.0 * k3f + k4f)
        if not np.all(np.isfinite(p)) or np.max(np.abs(p)) > ODE_CAP:
            raise RiccatiBlowUpError(
                f"matrix Riccati solution exceeded cap {ODE_CAP:.1e} at t={horizon - (step + 1) * dt:.6g}",
                time=float(horizon - (step + 1) * dt),
            )
        p_path[n - step - 1] = p
        phi_path[n - step - 1] = phi
    return nodes, p_path, phi_path


def mean_forward_variance(model: AffineModel, grid: TimeGrid) -> np.ndarray:
    """Expected variance path solving E V = g0 + (K D) E V, shape (n, d).

    One Volterra resolvent solve on the cell-integral discretization;
    serves as an independent cross-check of the pathwise scheme's mean.
    """
    n, d = grid.n, model.dim
    a = folded_cells(DiagonalKernel(model.kernels), grid)
    g0 = g0_nodes(model.g0, grid, d)[:-1].reshape(n * d)
    return _volterra_solve(a, model.drift, g0, n).reshape(n, d)
