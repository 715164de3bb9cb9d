"""Multivariate affine Volterra stochastic volatility.

The spot variance vector follows

    V_t = g_0(t) + int_0^t K(t-s) D V_s ds + int_0^t K(t-s) nu sqrt(diag V_s) dW_s,

with a diagonal convolution kernel K, mutually exciting drift matrix D
(nonnegative off the diagonal), volatility-of-volatility nu and leverage
correlations rho between each asset's price and variance drivers.  The
market price of risk is lambda^i = theta_i sqrt(V^i).

The exponential Laplace functional of the quadratic risk premium solves a
Riccati-Volterra equation; everything downstream (optimal controls,
Gamma, frontiers) is assembled from its solution psi by quadrature
against forward variance curves.
"""

import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidArgumentError, RiccatiBlowUpError
from .grid import TimeGrid, coefficients, curve_rows, g0_nodes, node_index
from .kernels import Kernel, band_coefficients
from .markowitz import a_of_p, feedback_control, gamma_from_log, tail_rate_integrals
from .montecarlo import _SLOT_BLOCK, _padded, chunk_workspace, correlate_into, path_blocks, take_floats

RICCATI_CAP = 1e6


@dataclass(frozen=True)
class AffineModel:
    kernels: Tuple[Kernel, ...]
    drift: Optional[np.ndarray]
    nu: np.ndarray
    rho: np.ndarray
    theta: np.ndarray
    g0: object
    rate: object = 0.0

    def __post_init__(self):
        kernels = tuple(self.kernels)
        d = len(kernels)
        if d == 0:
            raise InvalidArgumentError("affine model needs at least one variance factor")
        if any(k.dim != 1 for k in kernels):
            raise InvalidArgumentError("affine kernels must be scalar Volterra convolution kernels")
        drift = np.zeros((d, d)) if self.drift is None else coefficients(self.drift, "drift matrix", (d, d))
        off = drift - np.diag(np.diag(drift))
        if np.any(off < 0.0):
            raise InvalidArgumentError("off-diagonal drift entries must be nonnegative")
        nu, rho, theta = (coefficients(getattr(self, name), name, (d,)) for name in ("nu", "rho", "theta"))
        if np.any(nu < 0.0):
            raise InvalidArgumentError("nu must be nonnegative")
        if np.any(np.abs(rho) > 1.0):
            raise InvalidArgumentError("rho (leverage correlations) must lie in [-1, 1]")
        if np.any(np.abs(rho) > 1.0 / np.sqrt(2.0) + 1e-12):
            warnings.warn(
                "some |rho_i| exceeds 1/sqrt(2); the Riccati quadratic coefficient "
                "changes sign and finite-time blow-up becomes possible",
                RuntimeWarning,
                stacklevel=2,
            )
        vars(self).update(kernels=kernels, drift=drift, nu=nu, rho=rho, theta=theta)  # the fields are frozen

    @property
    def dim(self) -> int:
        return len(self.kernels)


def _band_diag(model: AffineModel, grid: TimeGrid) -> np.ndarray:
    """Per-component lag-cell integrals, shape (n, d)."""
    cols = [band_coefficients(k, grid)[:, 0, 0] for k in model.kernels]
    return np.stack(cols, axis=1)


def riccati_F(model: AffineModel, psi: np.ndarray) -> np.ndarray:
    """Driver of the Riccati-Volterra equation.

    F_i(psi) = -theta_i^2 - 2 theta_i rho_i nu_i psi^i + (D^T psi)_i
               + (nu_i^2 / 2)(1 - 2 rho_i^2) (psi^i)^2

    psi may be a single state (d,) or a stack (..., d); the driver is
    applied along the last axis.
    """
    psi = np.asarray(psi, dtype=float)
    th, rho, nu = model.theta, model.rho, model.nu
    lin = psi @ model.drift
    return (
        -th * th
        - 2.0 * th * rho * nu * psi
        + lin
        + 0.5 * nu * nu * (1.0 - 2.0 * rho * rho) * psi * psi
    )


def solve_riccati_volterra(model: AffineModel, grid: TimeGrid) -> np.ndarray:
    """Solve psi^i(t) = int_0^t K_i(t-s) F_i(psi(s)) ds on the grid nodes.

    Product predictor-corrector scheme: the kernel is integrated exactly
    over cells while the driver is averaged over cell endpoints,

        psi(t_k) = sum_{j<k} c_{k-j-1} (F(psi(t_j)) + F(psi(t_{j+1}))) / 2,

    with the newest endpoint value predicted by a left-frozen step and
    corrected once.  Second order accurate for smooth kernels, reducing
    to order min(1, 2h + 1/2) style rates near the fractional singularity.
    Returns node values of shape (n+1, d).

    Raises
    ------
    RiccatiBlowUpError
        If |psi| exceeds ``RICCATI_CAP`` before the horizon, carrying the first
        grid time at which the cap was crossed.
    """
    n = grid.n
    c = _band_diag(model, grid)
    psi = np.zeros((n + 1, model.dim))
    fvals = np.zeros((n + 1, model.dim))
    fvals[0] = riccati_F(model, psi[0])
    for k in range(1, n + 1):
        base = np.einsum("jd,jd->d", c[1:k][::-1], 0.5 * (fvals[: k - 1] + fvals[1:k]))
        pred = base + c[0] * fvals[k - 1]
        fpred = riccati_F(model, pred)
        psi[k] = base + c[0] * 0.5 * (fvals[k - 1] + fpred)
        fvals[k] = riccati_F(model, psi[k])
        if not np.all(np.isfinite(psi[k])) or np.max(np.abs(psi[k])) > RICCATI_CAP:
            raise RiccatiBlowUpError(
                f"Riccati-Volterra solution exceeded cap {RICCATI_CAP:.1e} at t={grid.nodes[k]:.6g}",
                time=float(grid.nodes[k]),
            )
    return psi


def theta_condition_check_affine(model: AffineModel, grid: TimeGrid, psi: np.ndarray, a: float, p: float) -> dict:
    """Report max_i sup_t (theta_i^2 + nu_i^2 psi^i(t)^2) <= a / a(p).

    ``a`` is the user-supplied exponential moment level for the variance
    integral; the check is a diagnostic, not a certificate.
    """
    ap = a_of_p(p, np.diag(model.rho))
    lhs = float(np.max(model.theta**2 + (model.nu**2) * np.max(psi**2, axis=0)))
    g0 = g0_nodes(model.g0, grid, model.dim)
    return {
        "lhs": lhs,
        "rhs": float(a / ap),
        "a_of_p": float(ap),
        "satisfied": bool(lhs <= a / ap),
        "g0_positive_somewhere": bool(np.any(g0[0] > 0.0)),
    }


def mean_reversion_a_bound(kappa: float, nu: float) -> float:
    """Sufficient exponential moment level a < kappa^2 / (2 nu^2) for the
    single-factor mean-reverting parameterization."""
    if kappa <= 0 or nu <= 0:
        raise InvalidArgumentError("kappa and nu must be positive")
    return float(kappa * kappa / (2.0 * nu * nu))


def simulate_forward_variance(model: AffineModel, grid: TimeGrid, dw: np.ndarray) -> np.ndarray:
    """Evolve the forward variance curve pathwise with full truncation.

    dw holds variance-driver increments of shape (P, n, d).  The curve slot
    k accumulates exactly the increments of cells j < k, so the returned
    array (P, n+1, d) holds the spot path V(t_k) in slot k:

        V_k = g0_k + w_{k-1} u_0 + w_{k-2} u_1 + ... + w_0 u_{k-1},
        u_j = (D V_j^+) dt + nu sqrt(V_j^+) dW_j,   w = c / dt,

    with c the per-component lag-cell integrals of the kernels.  Negative
    excursions of the scheme are truncated at zero inside both the drift
    and the diffusion coefficients; the drift product D V^+ is summed over
    the columns of D in a fixed order, so no row count changes its value.

    The slots are filled in blocks of ``_SLOT_BLOCK`` slots.  A block
    [k0, k1) first adds the history of every earlier step as one matrix
    product per factor i, W_i[k0:k1, :k0] @ u[:k0, i, :] with the Toeplitz
    rows W_i[k, j] = w_i[k-1-j] gathered for this block only; it then steps
    its own slots one by one, overwriting dW_j with u_j and adding it to the
    rest of the block.  The history is the same P n^2 d / 2 multiply-adds
    as stepping the whole curve, run by BLAS-3.

    The path axis is padded with zero paths to a multiple of
    ``montecarlo._PATH_PAD``, which makes every path's column of the
    product come from the same BLAS kernel.  Each path's values are
    therefore bit-for-bit independent of P, of the chunk a path falls in
    and of the BLAS thread count; they do depend on the block size, which
    sets the GEMM summation order.
    """
    P = dw.shape[0]
    n, d = grid.n, model.dim
    if dw.shape != (P, n, d):
        raise InvalidArgumentError(f"dw must have shape (P, {n}, {d}), got {dw.shape}")
    u = np.empty((n, d, _padded(P)))
    u[:, :, :P] = dw.transpose(1, 2, 0)
    return _step_forward_variance(model, grid, u, np.empty((n + 1, d, u.shape[2])), P)


def _step_forward_variance(model: AffineModel, grid: TimeGrid, u: np.ndarray, v: np.ndarray, P: int) -> np.ndarray:
    """The stepper of ``simulate_forward_variance`` on P paths, slot-major and padded.

    u (n, d, padded) holds dW in its first P columns, and step j
    overwrites dW_j with its increment u_j; the curve is written into v
    (n + 1, d, padded), whose contents are ignored.  The padding columns
    of both are zeroed here, so reused buffers step as fresh ones.
    """
    n, d = grid.n, model.dim
    dt = grid.dt
    w = _band_diag(model, grid) / dt
    nu = model.nu[:, None]
    drift = model.drift[:, :, None]
    u[:, :, P:] = 0.0
    v[:, :, P:] = 0.0
    v[:, :, :P] = g0_nodes(model.g0, grid, d)[:, :, None]
    for k0 in range(0, n + 1, _SLOT_BLOCK):
        k1 = min(k0 + _SLOT_BLOCK, n + 1)
        blk = v[k0:k1]
        if k0:
            lag = np.subtract.outer(np.arange(k0 - 1, k1 - 1), np.arange(k0))
            for i in range(d):
                blk[:, i, :] += w[lag, i] @ u[:k0, i, :]
            del lag  # before the next block's indices are built
        for j in range(k0, min(k1, n)):
            vplus = np.maximum(v[j], 0.0)
            lin = drift[:, 0] * vplus[0]
            for i in range(1, d):
                lin += drift[:, i] * vplus[i]
            u[j] = lin * dt + nu * np.sqrt(vplus) * u[j]
            rest = v[j + 1 : k1]
            rest += w[: k1 - 1 - j, :, None] * u[j]
    return v[:, :, :P].transpose(2, 0, 1)


def gamma_affine(model: AffineModel, grid: TimeGrid, psi: np.ndarray, g_curve: np.ndarray, t_index: int):
    """Exponential functional Gamma_t from psi and forward curves.

    g_curve has shape (n+1, d) or (P, n+1, d).  Computes

        Gamma_t = exp(2 int_t^T r + sum_i int_t^T F_i(psi(T-s)) g_t^i(s) ds)

    with the left rule on [t, T], checked by ``gamma_from_log`` against
    underflow and the bound 0 < Gamma_t <= e^{2 int_t^T r}.
    """
    n, d = grid.n, model.dim
    t_index = node_index(t_index, n)
    g, single = curve_rows(g_curve, (n + 1, d))
    fall = riccati_F(model, psi)
    idx = n - np.arange(t_index, n)
    expo = grid.dt * np.einsum("jd,pjd->p", fall[idx], g[:, t_index:n, :])
    tail = tail_rate_integrals(model.rate, grid)[t_index]
    gam = gamma_from_log(2.0 * tail + expo, tail)
    return float(gam[0]) if single else gam


def premium_loading(model: AffineModel, psi: np.ndarray, grid: TimeGrid, t_index) -> np.ndarray:
    """theta_i + rho_i nu_i psi^i(T - t_k) at a node index, or stacked over an index array."""
    return model.theta + model.rho * model.nu * psi[grid.n - node_index(t_index, grid.n, many=True)]


def optimal_control_affine(model: AffineModel, psi: np.ndarray, grid: TimeGrid, t_index: int, v_t, x_t, xi_discounted):
    """Optimal amounts alpha^i = -(theta_i + rho_i nu_i psi^i(T-t)) sqrt(V^i_+) (X - xi* e^{-int r}).

    v_t may be (d,) or (P, d); x_t scalar or (P,).  Returns matching shape.
    """
    v, single = curve_rows(v_t, (model.dim,))
    vplus = np.maximum(v[0] if single else v, 0.0)
    return feedback_control(premium_loading(model, psi, grid, t_index) * np.sqrt(vplus), x_t, xi_discounted)


def gamma0_affine(model: AffineModel, grid: TimeGrid, psi: np.ndarray) -> float:
    """Closed-form Gamma_0 from the initial forward curve (deterministic)."""
    return float(gamma_affine(model, grid, psi, g0_nodes(model.g0, grid, model.dim), 0))


class AffineEvaluator:
    """Pathwise market price of risk and risk premium for the MC layer."""

    max_chunk = np.inf  # the stepper's history GEMM couples all of a chunk's paths

    def __init__(self, model: AffineModel, grid: TimeGrid, psi: np.ndarray = None):
        self.model = model
        self.grid = grid
        self.psi = solve_riccati_volterra(model, grid) if psi is None else psi
        self.n_assets, self.n_state, self.n_factors = model.dim, model.dim, 2 * model.dim
        self.loadings = premium_loading(model, self.psi, grid, np.arange(grid.n))

    def workspace_floats(self, width: int):
        """Floats of the draws, driver and dB buffers of a ``run_mc`` workspace for ``width`` paths.

        The draws buffer holds z (width, n, 2d), and later the slot-major
        curve (n + 1, d, padded width) followed by the premium.
        """
        n, d = self.grid.n, self.model.dim
        padded = _padded(width)
        return max(2 * width * n * d, (n + 1) * d * padded + width * n * d), n * d * padded, width * n * d

    def premium_paths(self, z: np.ndarray, work: SimpleNamespace = None):
        """Raw increments (P, n, 2d) -> (dB, lambda, premium, state paths), views of ``work``.

        ``work`` is a ``montecarlo.chunk_workspace`` for at least P paths,
        by default a new one for P.  The drivers are correlated one path
        block at a time into its dB buffer and straight into the stepper's
        driver buffer, so no (P, n, d) dW exists.  The curve and the premium are written
        into the draws buffer, over z once it is read when z is a view of
        it (as in ``run_mc``), and lambda over the driver buffer once the
        curve is stepped: block by block, sqrt(V+) is taken there, and the
        premium is read off it before it is scaled by theta in place.  The
        outputs last until the next call with the same workspace.
        """
        P = z.shape[0]
        n, d = self.grid.n, self.model.dim
        if z.shape != (P, n, 2 * d):
            raise InvalidArgumentError(f"z must have shape (P, {n}, {2 * d}), got {z.shape}")
        work = chunk_workspace(self, P) if work is None else work
        padded = _padded(P)
        u = take_floats(work.drivers, (n, d, padded))
        db = take_floats(work.db, (P, n, d))
        correlate_into(z, np.diag(self.model.rho), db, u[:, :, :P].transpose(2, 0, 1))
        v = _step_forward_variance(self.model, self.grid, u, take_floats(work.draws, (n + 1, d, padded)), P)
        # path-major like the drivers, so the per-path sums downstream do not depend on the stepper's layout;
        # read in its slot-major order, as reads along the slots, 8 W8 bytes (2^15 at W = 4096) apart, miss the cache
        lam, prem = take_floats(work.drivers, (P, n, d)), take_floats(work.draws, (P, n, d), (n + 1) * d * padded)
        for blk in path_blocks(P, n * 2 * d):
            sq = lam[blk]
            np.maximum(v[blk, :n].transpose(1, 2, 0), 0.0, out=sq.transpose(1, 2, 0))
            np.sqrt(sq, out=sq)
            np.multiply(self.loadings, sq, out=prem[blk])
            sq *= self.model.theta
        return db, lam, prem, v
