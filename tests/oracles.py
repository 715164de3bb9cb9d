"""Reference implementations the tests check vmk against; no vmk command runs them.

The star calculus stores an operator (F f)(t) = M f(t) + int_0^T F_ker(t, s) f(s) ds on
f: [0, T] -> R^N as the identity coefficient ``ident`` (N x N, kept symbolic) and the folded
cell matrix ``kernel`` (N n, N n), block (i, j) integrating the kernel over cell j at t_i, so
composition is matrix multiplication and the adjoint is the transpose.  Beside it: the
per-cell kernel band and its gathered fold, the quadratic solve's dense factors a and m1
folded from its lag bands, the dense LU Volterra solve that the resolvent
band replaced, the cell table of a kernel piecewise constant on the grid, the quadratic
covariance operator, the Markovian matrix Riccati ODE, the affine mean variance and the
driver correlation into new arrays.  Then the driver correlation 32 slots of every path at a
time and the evaluators' reads of lambda and the premium off the whole chunk, which the
cache-sized path blocks replaced; the per-step wealth loop, the per-value CSV writer
and the per-row positions solve that the whole-array wealth step, the columnar writer and the
batched ``asset_positions`` replaced.
Last, the quadratic route as a backward sweep over dense (N n)^2 operators, which the one
Cholesky factor of T replaced: the dense T, the per-node rank-N Woodbury sweep, the solution
read off a sweep, and the Psi readers that check the paper's derivative and boundary relations.
Beside them, the peak resident memory of a snippet run in a child interpreter.
"""

import csv
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from vmk.affine import AffineEvaluator, AffineModel, simulate_forward_variance
from vmk.cli import _fmt
from vmk.errors import InvalidArgumentError, RiccatiBlowUpError, VmkError, check_memory
from vmk.grid import TimeGrid, g0_nodes, node_index
from vmk.kernels import ConstantKernel, DiagonalKernel, Kernel, fold, folded_cells
from vmk.markowitz import tail_rate_integrals
from vmk.montecarlo import _MAP_ROWS, correlate_into, gamma_factors, simulate_drivers, simulate_wealth
from vmk.quadratic import (RCOND_MIN, QuadraticModel, _bd_right, _check_dense_memory, _discretize,
                           volatility_matrix)

COND_LIMIT = 1e12
ODE_CAP = 1e6


class SingularOperatorError(VmkError):
    """A linear solve against (Id - A) hit a numerically singular matrix.

    The attached condition number is cond_1(Id - A), inf when exactly singular.
    """

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


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


def band_per_cell(kernel: Kernel, grid: TimeGrid) -> np.ndarray:
    """``kernels.band_coefficients`` one lag cell [a, b] = [m dt, (m + 1) dt] at a time.

    P(b) - P(a) for a scalar kernel with antiderivative P, M (b - a) for a constant
    kernel, and each component's band on the diagonal for a diagonal kernel.
    """
    n, dt, N = grid.n, grid.dt, kernel.dim
    out = np.zeros((n, N, N))
    if isinstance(kernel, DiagonalKernel):
        for i, c in enumerate(kernel.components):
            out[:, i, i] = band_per_cell(c, grid)[:, 0, 0]
        return out
    for m in range(n):
        a, b = m * dt, (m + 1) * dt
        if isinstance(kernel, ConstantKernel):
            out[m] = kernel.matrix * (b - a)
        else:
            out[m] = kernel._primitive(b) - kernel._primitive(a)
    return out


def fold_per_cell(band: np.ndarray) -> np.ndarray:
    """``kernels.folded_cells`` gathered in one step: block (i, j) is band[i - j - 1] for j < i."""
    n, N = band.shape[0], band.shape[1]
    a4 = np.zeros((n, N, n, N))
    i, j = np.tril_indices(n, -1)
    a4[i, :, j, :] = band[i - j - 1]
    return a4.reshape(n * N, n * N)


def dense_factors(disc: SimpleNamespace):
    """(a, m1) folded from the lag bands of ``quadratic._discretize``, which holds no dense array.

    a is the folded kernel cells and m1 = kron(I_n, Theta) (Id - a kron(I_n, F))^{-1}.
    """
    return fold_per_cell(disc.band), fold(disc.m1_band)


def _volterra_solve(a: np.ndarray, m: np.ndarray, rhs: np.ndarray, n: int, trans: bool = False) -> np.ndarray:
    """(Id - a kron(I_n, m))^{-1} rhs, or (Id - a kron(I_n, m))^{-T} rhs with ``trans``.

    ``a`` is a strictly block lower (Volterra) cell matrix, so Id - a kron(I_n, m)
    is unit lower triangular; one dense LU solve, which never pivots on the
    transposed (upper triangular) form.
    """
    mat = _bd_right(a, -m, n)
    mat[np.diag_indices_from(mat)] += 1.0
    return np.linalg.solve(mat.T if trans else mat, rhs)


def cell_table(grid: TimeGrid, values, volterra: bool = True) -> IntegralOperator:
    """Kernel operator of a kernel that is piecewise constant on the grid.

    values[i, j], of shape (n, n) or (n, n, N, N), is K(t_i, s) on cell j; a Volterra
    table is zero for j >= i.  No vmk kernel is such a table: the operator suites use it
    for non-Toeplitz and full-support instances.
    """
    v = np.asarray(values, dtype=float)
    v = (v[:, :, None, None] if v.ndim == 2 else v) * grid.dt
    if volterra:
        v[np.triu_indices(grid.n)] = 0.0
    n, N = grid.n, v.shape[2]
    return kernel_operator(grid, N, v.transpose(0, 2, 1, 3).reshape(n * N, n * N))


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


def _bd_left(m: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Blockwise kron(I_n, m) @ x for x of shape (m.shape[1] n, q)."""
    q = x.shape[1]
    return (m @ x.reshape(n, m.shape[1], q)).reshape(n * m.shape[0], q)


def star(a: IntegralOperator, b: IntegralOperator) -> IntegralOperator:
    """Operator composition (a star b) f = a (b f)."""
    if a.grid != b.grid:
        raise InvalidArgumentError(f"operators live on different grids: {a.grid} vs {b.grid}")
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
    a, _ = dense_factors(_discretize(model, grid) if disc is None else disc)
    ae = _bd_right(a, model.eta, n)
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


def correlate_drivers(z: np.ndarray, corr: np.ndarray):
    """(dB, dW) of raw increments z (P, n, d + N), written by ``montecarlo.correlate_into`` into new arrays."""
    N, d = corr.shape
    db, dw = np.empty(z.shape[:2] + (d,)), np.empty(z.shape[:2] + (N,))
    correlate_into(z, corr, db, dw)
    return db, dw


def correlate_slots(z: np.ndarray, corr: np.ndarray, db: np.ndarray, dw: np.ndarray) -> None:
    """``montecarlo.correlate_into`` 32 slots of every path at a time, with one BLAS call per path and block."""
    N, d = corr.shape
    scale = np.sqrt(np.maximum(1.0 - np.sum(corr * corr, axis=1), 0.0))
    for k0 in range(0, z.shape[1], 32):
        blk = slice(k0, k0 + 32)
        db[:, blk] = z[:, blk, :d]
        np.multiply(z[:, blk, d:], scale, out=dw[:, blk])
        dw[:, blk] += db[:, blk] @ corr.T


def whole_chunk_premium_paths(evaluator, z: np.ndarray):
    """``premium_paths(z)`` of an affine or quadratic evaluator in new arrays, each stage on the whole chunk.

    The drivers are correlated by ``correlate_slots``; the affine curve is stepped by
    ``simulate_forward_variance`` and lambda and the premium are read off all of it at once, and the
    quadratic lambda = Theta Y is one batched product over the paths.  The quadratic map takes the
    evaluator's ``_MAP_ROWS``-row products, since a BLAS product rounds by the rows it is given.
    """
    P, n = z.shape[:2]
    model = evaluator.model
    if isinstance(evaluator, AffineEvaluator):
        corr, N, d = np.diag(model.rho), model.dim, model.dim
    else:
        corr, N, d = model.corr, model.n_state, model.n_assets
    db, dw = np.empty((P, n, d)), np.empty((P, n, N))
    correlate_slots(z, corr, db, dw)
    if isinstance(evaluator, AffineEvaluator):
        v = simulate_forward_variance(model, evaluator.grid, dw)
        lam = np.sqrt(np.maximum(v[:, :n, :], 0.0))
        prem = evaluator.loadings[None, :, :] * lam
        lam *= model.theta
        return db, lam, prem, v
    flat = dw.reshape(P, n * N)
    out = np.concatenate([flat[p0 : p0 + _MAP_ROWS] @ evaluator.lmap for p0 in range(0, P, _MAP_ROWS)])
    out += evaluator.c0
    state = out[:, : (n + 1) * N].reshape(P, n + 1, N)
    return db, np.matmul(state[:, :n], model.theta.T), out[:, (n + 1) * N :].reshape(P, n, d), state


def step_wealth(grid: TimeGrid, rate, x0: float, xi_star_val: float,
                db: np.ndarray, lam: np.ndarray, prem: np.ndarray) -> SimpleNamespace:
    """``montecarlo.simulate_wealth`` one time step after another."""
    P, n, d = db.shape
    rn = g0_nodes(rate, grid, name="rate")
    tails = tail_rate_integrals(rate, grid)
    dt = grid.dt
    gap = np.empty((P, n + 1))
    gap[:, 0] = x0 - xi_star_val * math.exp(-tails[0])
    alpha = np.empty((P, n, d))
    for k in range(n):
        a = -prem[:, k, :]
        alpha[:, k, :] = a * gap[:, k][:, None]
        drift = (rn[k] + np.einsum("pd,pd->p", lam[:, k, :], a) - 0.5 * np.einsum("pd,pd->p", a, a)) * dt
        shock = np.einsum("pd,pd->p", a, db[:, k, :])
        gap[:, k + 1] = gap[:, k] * np.exp(drift + shock)
    x = gap + xi_star_val * np.exp(-tails)[None, :]
    return SimpleNamespace(x=x, alpha=alpha, terminal=x[:, n])


def staged_mc(evaluator, paths: int, seed: int, x0: float, xi_star_val: float,
              antithetic: bool = False, chunk: int = 4096, keep_paths: int = 0) -> SimpleNamespace:
    """``montecarlo.run_mc``'s samples from the stages called on whole chunks, wealth included."""
    grid, rate = evaluator.grid, evaluator.model.rate
    terminal, gamma, kept = [], [], []
    for start in range(0, paths, chunk):
        z = simulate_drivers(grid, evaluator.n_factors, min(chunk, paths - start), seed,
                             antithetic=antithetic, start=start)
        db, lam, prem, state = evaluator.premium_paths(z)
        w = simulate_wealth(grid, rate, x0, xi_star_val, db, lam, prem)
        terminal.append(w.terminal)
        gamma.append(gamma_factors(grid, rate, prem))
        kept.append((w.x, w.alpha, state))
    x, alpha, state = (np.concatenate([k[i] for k in kept])[:keep_paths] for i in range(3))
    return SimpleNamespace(terminal=np.concatenate(terminal), gamma_samples=np.concatenate(gamma),
                           kept=SimpleNamespace(x=x, alpha=alpha, state=state))


# Runs argv[2] in a child interpreter, kills it after argv[1] seconds and
# prints the child's ru_maxrss (KiB) and exit code from os.wait4.
_RSS_LAUNCHER = """
import os, subprocess, sys, threading
proc = subprocess.Popen([sys.executable, "-c", sys.argv[2]])
timer = threading.Timer(float(sys.argv[1]), proc.kill)
timer.start()
try:
    _, status, usage = os.wait4(proc.pid, 0)
finally:
    timer.cancel()
proc.returncode = os.waitstatus_to_exitcode(status)
print(usage.ru_maxrss, proc.returncode)
"""


def child_peak_rss(snippet: str, timeout: float = 120.0, env: dict = None) -> int:
    """Peak resident set size in bytes of a child interpreter running ``snippet``, with ``src`` on its path.

    Read from ``ru_maxrss`` as ``os.wait4`` returns it for the child (KiB on
    Linux), the measure perfbench's ``peak_rss_mb`` takes.  Linux starts a
    child's ru_maxrss at the peak of the process it was started from, so a
    child started straight from a test process that has held more would
    report that; the snippet is started from a small launcher interpreter
    instead.  ``env`` adds variables to the child's environment, such as a
    BLAS thread count.  A child that fails or is killed after ``timeout``
    seconds raises RuntimeError.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _RSS_LAUNCHER, str(timeout), snippet], env=env,
                         capture_output=True, text=True, timeout=timeout + 30.0)
    if run.returncode != 0:
        raise RuntimeError(f"the launcher failed: {run.stderr}")
    maxrss, code = (int(v) for v in run.stdout.split())
    if code != 0:
        raise RuntimeError(f"the child interpreter exited with {code}: {run.stderr}")
    return maxrss * 1024


def write_csv_rows(path: str, header, rows) -> None:
    """``cli._write_csv`` on a table given by rows: ``_fmt`` and ``csv.writer`` per value."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    os.replace(tmp, path)


def positions_per_row(model: QuadraticModel, states: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``quadratic.asset_positions`` one row at a time: NaN where sigma(Y) is singular."""
    out = np.full_like(alpha, np.nan)
    for k in range(alpha.shape[0]):
        sig = volatility_matrix(model, states[k])
        try:
            cond = np.linalg.cond(sig)
        except np.linalg.LinAlgError:
            cond = np.inf
        if np.isfinite(cond) and cond <= 1e12:
            out[k] = np.linalg.solve(sig.T, alpha[k])
    return out


# Dense (N n)^2 float arrays the per-node sweep's readers hold at once.  psi_full_matrix counts the
# sweep's (d n, N n) fold of m1 apart, as d > N makes it the larger array: Psi and its restricted copy,
# traced at 1.03 beside the fold (N = d) and 1.01 (N = 1, d = 2); riccati_derivative_residual peaks
# after the fold is freed, at 5.0 traced.
SWEEP_ARRAYS = 2
RESIDUAL_ARRAYS = 6


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


def dense_t(model: QuadraticModel, disc: SimpleNamespace) -> np.ndarray:
    """T = Id + 2 fold(Q)(I kron M0) fold(Q)' with fold(Q) = m1 a kron(I_n, eta) on nodes 1..n-1, densely.

    Block column j of m1 a kron(I_n, eta) is q_{j+1} = m1 K(., t_{j+1}) eta, which is Q
    shifted down j + 1 blocks; dropping its first block row leaves fold(Q[: n - 1]).
    """
    n, N, d = disc.band.shape[0], model.n_state, model.n_assets
    a, m1 = dense_factors(disc)
    qf = (m1 @ _bd_right(a, model.eta, n))[d:, : (n - 1) * N]
    return np.eye((n - 1) * d) + 2.0 * qf @ np.kron(np.eye(n - 1), model.m0) @ qf.T


def per_node_sweep(model: QuadraticModel, grid: TimeGrid, disc: SimpleNamespace, stops=()):
    """Backward Riccati recursion; yields (k, psi, act_k, G_k, lambda_min(S_k)) for k = n, ..., 0.

    Psi_k is the full-grid (N n, N n) closed form -m1' W_k^{-1} m1 with
    W_k = Id + 2 sum_{j > k} q_j M0 q_j', q_j = m1 c_j and c_j the kernel
    column K(., t_j) eta.  The one product per node, act_k = Psi_k [c_k | 1]
    of shape (N n, 2N), gives B = Psi_k c_k and G_k = -c_k' B >= 0, and the
    step to node k - 1 is the rank-N Woodbury update

        Psi_{k-1} = Psi_k + 2 B (Id + 2 M0 G_k)^{-1} M0 B',

    the exact discrete form of d/dt Psi = 2 Psi SigmaDot Psi, applied to Psi
    at every node.  After yielding node k it raises RiccatiBlowUpError at
    t_{k-1} when lambda_min(S_k), S_k = Id + 2 G_k^{1/2} M0 G_k^{1/2}, is below
    ``RCOND_MIN``; at k = 0 there is no step and the margin is inf.  ``psi``
    is Psi_k, the sweep's own array, at the ``stops`` and at node 0, and None
    elsewhere.
    """
    n, N = grid.n, model.n_state
    m0 = model.m0
    eye = np.eye(N)
    m1 = fold(disc.m1_band)
    psi = m1.T @ m1
    del m1
    psi *= -1.0
    for k in range(n, -1, -1):
        lo = k * N
        c = first_arg_columns(disc.band @ model.eta, k)[lo:]
        act = psi[:, lo:] @ np.concatenate([c, np.tile(eye, (n - k, 1))], axis=1)
        b = act[:, :N]
        g = -c.T @ b[lo:]
        if k == 0:
            yield k, psi, act, g, np.inf
            return
        t = float(grid.nodes[k - 1])
        if not np.all(np.isfinite(g)):
            raise RiccatiBlowUpError(f"operator Riccati solution lost finiteness at t={t:.6g}", time=t)
        ev, vec = np.linalg.eigh(0.5 * (g + g.T))
        root = (vec * np.sqrt(np.maximum(ev, 0.0))) @ vec.T
        lam, u = np.linalg.eigh(eye + 2.0 * root @ m0 @ root)
        yield k, psi if k in stops else None, act, g, float(lam[0])
        if lam[0] < RCOND_MIN:
            raise RiccatiBlowUpError(f"deflating matrix loses definiteness at t={t:.6g}", time=t)
        v = m0 @ root @ u
        x = m0 - 2.0 * (v / lam) @ v.T
        psi += (2.0 * b @ x) @ b.T


def sweep_solution(model: QuadraticModel, grid: TimeGrid, sweep=per_node_sweep) -> SimpleNamespace:
    """The ``QuadraticSolution`` outputs read off a backward sweep, plus ``z2_maps`` and ``psi0``.

    Per node the sweep's product act_k = Psi_k [c_k | 1] gives z2_maps[k], P and
    G_k; Psi_0 acts on the initial curve.  No bound is checked.
    """
    n, N, dt = grid.n, model.n_state, grid.dt
    disc = _discretize(model, grid)
    rn = g0_nodes(model.rate, grid, name="rate")
    g0s = g0_nodes(model.g0, grid, N)
    g0_samples = g0s[:n].reshape(n * N)
    phidot = np.zeros(n + 1)
    p_path = np.zeros((n + 1, N, N))
    z2_maps = np.zeros((n + 1, n * N, N))
    min_rcond = np.inf
    for k, psi, act, g, lam in sweep(model, grid, disc):
        min_rcond = min(min_rcond, lam)
        lo = k * N
        z2_maps[k, lo:] = act[lo:, :N]
        p_path[k] = dt * act[lo:, N:].reshape(n - k, N, N).sum(axis=0)
        phidot[k] = (1.0 / dt) * float(np.trace(g @ model.u_mat)) - 2.0 * rn[k]
    z2_det = 2.0 * g0_samples @ z2_maps
    phi = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        phi[k] = phi[k + 1] - 0.5 * dt * (phidot[k] + phidot[k + 1])
    gamma0 = float(np.exp(phi[0] + dt * float(g0_samples @ (psi @ g0_samples))))
    return SimpleNamespace(phi=phi, phidot=phidot, p_path=p_path, z2_maps=z2_maps, z2_det=z2_det,
                           premium_profile=g0s @ model.theta.T + z2_det @ model.corr, gamma0=gamma0,
                           min_rcond=min_rcond, psi0=psi)


def psi_full_matrix(model: QuadraticModel, grid: TimeGrid, k: int, disc: SimpleNamespace = None) -> np.ndarray:
    """Dense folded matrix of Psi_{t_k} (identity part included), (Nn, Nn).

    Runs the backward recursion of ``per_node_sweep`` from the horizon down to
    node k and zeroes the rows and columns before node k, so the matrix
    represents the operator on L^2([t_k, T]) embedded in the full grid.
    Like every sweep reader, it checks its memory count before sweeping.
    """
    k = node_index(k, grid.n)
    nN, dn = grid.n * model.n_state, grid.n * model.n_assets
    check_memory(f"the restricted Psi matrix ({SWEEP_ARRAYS} arrays of {nN} x {nN} floats and m1's {dn} x {nN} fold)",
                 8 * nN * (SWEEP_ARRAYS * nN + dn), "use a coarser grid")
    disc = _discretize(model, grid) if disc is None else disc
    return _restricted_psi(model, grid, disc, (k,))[0]


def _restricted_psi(model: QuadraticModel, grid: TimeGrid, disc: SimpleNamespace, nodes) -> list:
    """Psi_k with the rows and columns before node k zeroed, for each of the descending ``nodes``, from one sweep."""
    N = model.n_state
    out = []
    for k, psi, *_ in per_node_sweep(model, grid, disc, nodes):
        if k == nodes[len(out)]:
            full = psi.copy()
            full[: k * N] = 0.0
            full[:, : k * N] = 0.0
            out.append(full)
            if len(out) == len(nodes):
                return out


def sigma_dot_folded(model: QuadraticModel, grid: TimeGrid, k: int, band: np.ndarray) -> np.ndarray:
    """Folded time derivative of Sigma_t at t_k: -K(., t_k) eta M0 eta' K(., t_k)'."""
    cveta = first_arg_columns(band @ model.eta, k)
    return -(1.0 / grid.dt) * (cveta @ model.m0) @ cveta.T


def riccati_derivative_residual(model: QuadraticModel, grid: TimeGrid, k: int, disc: SimpleNamespace = None) -> float:
    """Relative residual of d/dt Psi_t = 2 Psi_t SigmaDot_t Psi_t at node k.

    Compares the forward difference of the dense Psi matrices with the
    quadratic right-hand side on the common tail block; decays like the
    step size under refinement.
    """
    N = model.n_state
    k = node_index(k, grid.n - 1)
    nN = grid.n * N
    _check_dense_memory("the Riccati derivative residual", RESIDUAL_ARRAYS, nN, nN)
    disc = _discretize(model, grid) if disc is None else disc
    pk1, pk = _restricted_psi(model, grid, disc, (k + 1, k))
    rhs = 2.0 * pk @ sigma_dot_folded(model, grid, k, disc.band) @ pk
    lo = (k + 1) * N
    res = (pk1 - pk) / grid.dt - rhs
    scale = max(1.0, float(np.abs(rhs[lo:, lo:]).max()))
    return float(np.abs(res[lo:, lo:]).max()) / scale


def boundary_relation_residual(model: QuadraticModel, grid: TimeGrid, k: int, f: np.ndarray, disc: SimpleNamespace = None) -> float:
    """Residual of (Psi_t f)(t) = -Theta'Theta f(t) + (Khat^* Psi_t f)(t) at t_k."""
    n, N = grid.n, model.n_state
    k = node_index(k, n - 1)
    disc = _discretize(model, grid) if disc is None else disc
    fa = np.asarray(f, dtype=float).reshape(n, N).copy()
    fa[:k] = 0.0
    flat = fa.reshape(n * N)
    act = psi_full_matrix(model, grid, k, disc) @ flat
    lhs = act.reshape(n, N)[k]
    cv = first_arg_columns(disc.band, k)
    rhs = -(model.theta.T @ model.theta) @ fa[k] + model.f_mat.T @ (cv.T @ act)
    return float(np.max(np.abs(lhs - rhs)))
