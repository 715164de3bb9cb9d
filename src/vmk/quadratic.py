"""Multivariate quadratic Volterra stochastic volatility.

The state is a Gaussian Volterra Ornstein-Uhlenbeck process

    Y_t = g_0(t) + int_0^t K(t,s)[D Y_s ds + eta dW_s],

with an N x N Volterra kernel K, drift matrix D, vol-of-vol eta and a
driver W whose components are correlated with the d stock Brownians B
through rows C_k of the correlation matrix, W^k = C_k.B + sqrt(1-|C_k|^2)
B_perp^k.  The market price of risk is linear, lambda_t = Theta Y_t, so
squared risk premia are quadratic in the state.

The exponential functional needed by the mean-variance solution is

    Gamma_t = exp(phi_t + <g_t, Psi_t g_t>),

where Psi_t is a family of symmetric nonpositive integral operators on
L^2([t,T]) available in closed form,

    Psi_t = -(Id - Khat)^{-*} Theta'(Id + 2 Theta SigTilde_t Theta')^{-1}
            Theta (Id - Khat)^{-1},

with Khat the kernel operator K(D - 2 eta C Theta) and SigTilde_t a
deflated covariance operator.  Everything here is assembled from the cell
discretization of the kernel.  Moving t back by one node adds a rank-N
term to the deflating matrix, so one backward sweep of rank-N Woodbury
updates (the exact discrete form of d/dt Psi_t = 2 Psi_t SigmaDot_t Psi_t)
gives Psi_t at every node exactly at the discrete level, with only N x N
factorizations.  Its product per node, Psi_t [K(., t) eta | 1], drives the
update and gives Z2, the phi integrand and the Markovian reduction P.  The
updates are delayed over blocks of ``_SWEEP_BLOCK`` nodes: one matrix
product against Psi serves a block, each node adds the block's pending
rank-N terms, and the block ends with one in-place rank-(block N) update.

Because the state is Gaussian, the state at every node and the risk
premium Theta Y_t + C' Z2_t are affine in the driver increments.  The
Monte Carlo evaluator assembles that map once per solution from the same
discretization and evaluates a chunk of paths as one matrix product.
"""

import math
import os
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    MemoryCapError,
    ModelAssumptionError,
    RiccatiBlowUpError,
    SingularVolatilityError,
)
from .grid import TimeGrid, g0_nodes
from .kernels import (DiagonalKernel, FractionalKernel, Kernel, band_coefficients, first_arg_columns, folded_cells,
                      kernel_l2_norm_sq)
from .markowitz import rate_nodes, tail_rate_integrals
from .operators import _bd_left, _bd_right, _volterra_solve

PSD_TOL = 1e-10
RCOND_MIN = 1e-12
PHYS_MEM_BYTES = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
# Dense (N n)^2 float arrays alive at once for d <= N, rounded up from traced
# peaks plus the matrix and right-hand-side copies numpy.linalg.solve makes
# untraced: 6 at the m1 solve (a, Id - a (I kron F), rhs, 2 copies, result) and
# 4.9 in the sweep (a, m1, z2_maps, Psi, panels); 5 at lambda_max_covariance's
# drift fold (a, matrix, 2 copies, result); 8 at _premium_map's solve and 9.1
# after it (the solution's 3, y, u, C'Z'A, the premium rows, the 2-array map).
DENSE_ARRAYS = 6
MAP_ARRAYS = 10
# Nodes per block of the backward sweep's delayed update, and the row panel
# height of its in-place rank-(block N) update.
_SWEEP_BLOCK = 32
_FLUSH_ROWS = 64


@dataclass(frozen=True)
class QuadraticModel:
    kernel: Kernel
    theta: np.ndarray
    eta: np.ndarray
    corr: np.ndarray
    drift: Optional[np.ndarray] = None
    g0: object = 0.0
    rate: object = 0.0
    x0: float = 1.0
    loadings: Optional[np.ndarray] = None
    enforce_psd: bool = True

    def __post_init__(self):
        if not self.kernel.volterra:
            raise InvalidArgumentError("state kernel must be of Volterra type")
        N = self.kernel.dim
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        d = theta.shape[0]
        if theta.shape != (d, N):
            raise InvalidArgumentError(f"theta must be (d, {N}), got {theta.shape}")
        eta = np.atleast_2d(np.asarray(self.eta, dtype=float))
        if eta.shape != (N, N):
            raise InvalidArgumentError(f"eta must be ({N}, {N}), got {eta.shape}")
        corr = np.atleast_2d(np.asarray(self.corr, dtype=float))
        if corr.shape != (N, d):
            raise InvalidArgumentError(f"corr must be ({N}, {d}), got {corr.shape}")
        row_sq = np.sum(corr * corr, axis=1)
        if np.any(row_sq > 1.0 + 1e-12):
            raise ModelAssumptionError(
                f"correlation rows must satisfy |C_k| <= 1; worst |C_k|^2 = {row_sq.max():.6g}"
            )
        drift = self.drift
        drift = np.zeros((N, N)) if drift is None else np.atleast_2d(np.asarray(drift, dtype=float))
        if drift.shape != (N, N):
            raise InvalidArgumentError(f"drift must be ({N}, {N}), got {drift.shape}")
        loadings = self.loadings
        if loadings is not None:
            loadings = np.asarray(loadings, dtype=float)
            if loadings.shape != (d, d, N):
                raise InvalidArgumentError(f"loadings must be ({d}, {d}, {N}), got {loadings.shape}")
        cct = corr @ corr.T
        u_mat = cct - np.diag(np.diag(cct)) + np.eye(N)
        m0 = u_mat - 2.0 * cct
        min_eig = float(np.min(np.linalg.eigvalsh(0.5 * (m0 + m0.T))))
        psd_violated = min_eig < -PSD_TOL
        if psd_violated and self.enforce_psd:
            raise ModelAssumptionError(
                "driver covariance deflated by leverage (U - 2 C C') is not positive "
                f"semidefinite (min eigenvalue {min_eig:.6g}); pass enforce_psd=False "
                "to proceed at your own risk",
                eigenvalue=min_eig,
            )
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta", eta)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "drift", drift)
        object.__setattr__(self, "loadings", loadings)
        object.__setattr__(self, "u_mat", u_mat)
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m0_min_eig", min_eig)
        object.__setattr__(self, "psd_violated", psd_violated)

    @property
    def n_state(self) -> int:
        return self.kernel.dim

    @property
    def n_assets(self) -> int:
        return self.theta.shape[0]

    @property
    def f_mat(self) -> np.ndarray:
        """Effective drift D - 2 eta C Theta entering the deflating kernel."""
        return self.drift - 2.0 * self.eta @ self.corr @ self.theta


def _check_dense_memory(what: str, arrays: int, n: int, N: int) -> None:
    """Raise MemoryCapError when ``arrays`` dense (N n)^2 floats exceed physical memory."""
    need = arrays * 8 * (n * N) ** 2
    if need > PHYS_MEM_BYTES:
        raise MemoryCapError(
            f"{what} needs about {need} bytes at n = {n}, N = {N}, more "
            f"than the {PHYS_MEM_BYTES} bytes of physical memory; use a coarser grid",
            limit=PHYS_MEM_BYTES,
        )


def _discretize(model: QuadraticModel, grid: TimeGrid) -> SimpleNamespace:
    """Shared dense factors: lag band, folded kernel a and m1.

    m1 = kron(I_n, Theta) (Id - Khat)^{-1}, Khat = a kron(I_n, F), comes from
    one transposed Volterra solve.  Raises MemoryCapError before allocating
    when the dense solve would not fit in physical memory.
    """
    n, N = grid.n, model.n_state
    _check_dense_memory("the dense quadratic solve", DENSE_ARRAYS, n, N)
    band = band_coefficients(model.kernel, grid)
    a = folded_cells(model.kernel, grid)
    m1 = _volterra_solve(a, model.f_mat, np.kron(np.eye(n), model.theta).T, n, trans=True).T
    return SimpleNamespace(band=band, a=a, m1=m1)


def _psi_sweep(model: QuadraticModel, grid: TimeGrid, disc: SimpleNamespace):
    """Backward Riccati recursion; yields (k, psi_k, act_k, G_k, lambda_min(S_k)) for k = n, ..., 0.

    Psi_k is the full-grid (N n, N n) closed form -m1' W_k^{-1} m1 with
    W_k = Id + 2 sum_{j > k} q_j M0 q_j', q_j = m1 c_j and c_j the kernel
    column K(., t_j) eta.  The one product per node, act_k = Psi_k [c_k | 1]
    of shape (N n, 2N), gives B = Psi_k c_k and G_k = -c_k' B >= 0, and the
    step to node k - 1 is a rank-N Woodbury update,

        Psi_{k-1} = Psi_k + 2 B (Id + 2 M0 G_k)^{-1} M0 B',

    the exact discrete form of d/dt Psi = 2 Psi SigmaDot Psi.  Since
    det W_k = prod_{j > k} det S_j with S_j = Id + 2 G_j^{1/2} M0 G_j^{1/2},
    W_{k-1} stays positive definite exactly while every S_j does, so after
    yielding node k the sweep raises RiccatiBlowUpError at t_{k-1} when
    lambda_min(S_k) is below ``RCOND_MIN``.  At k = 0 there is no step and
    the margin is reported as inf.

    The updates are delayed over blocks of ``_SWEEP_BLOCK`` nodes: inside a
    block Psi_k = Psi_base + sum_pending 2 B_j X_j B_j'.  One product
    Psi_base [c_k ...] serves the whole block, running sums of Psi_base's
    column blocks give Psi_base 1, each node adds the small pending
    corrections, and the block ends with one rank-(block N) update of
    Psi_base applied in place, in row panels.  The yielded ``psi_k()``
    applies the pending updates and returns Psi_k, the sweep's own array,
    which the rest of the sweep updates in place; after such a call inside
    a block, the sweep starts a new block at the next node.
    """
    n, N = grid.n, model.n_state
    nN = n * N
    m0, nodes = model.m0, grid.nodes
    eye = np.eye(N)
    # rows k N: of [c_k | 1] are the first (n - k) N rows of [c_0 | 1]
    rhs = np.concatenate([(disc.band @ model.eta).reshape(nN, N), np.tile(eye, (n, 1))], axis=1)
    psi = disc.m1.T @ disc.m1
    psi *= -1.0
    u = np.empty((nN, _SWEEP_BLOCK * N))  # pending B_j
    ux = np.empty_like(u)  # pending 2 B_j X_j
    p = 0  # pending columns

    def psi_k():
        nonlocal p
        for r in range(0, nN, _FLUSH_ROWS):
            psi[r : r + _FLUSH_ROWS] += ux[r : r + _FLUSH_ROWS, :p] @ u[:, :p].T
        p = 0
        return psi

    top = n
    while True:
        block = range(top, max(top - _SWEEP_BLOCK, -1), -1)
        low = block[-1] * N
        cols = np.zeros((nN - low, len(block) * N))
        for i, k in enumerate(block):
            cols[k * N - low :, i * N : (i + 1) * N] = rhs[: nN - k * N, :N]
        base = psi[:, low:] @ cols
        tail = psi[:, top * N :].reshape(nN, n - top, N).sum(axis=1)
        for i, k in enumerate(block):
            lo = k * N  # c_k vanishes on rows before node k (Volterra)
            if k < top:
                tail += psi[:, lo : lo + N]
            r = rhs[: nN - lo]
            act = np.concatenate([base[:, i * N : (i + 1) * N], tail], axis=1)
            act += ux[:, :p] @ (u[lo:, :p].T @ r)
            b = act[:, :N]
            g = -r[:, :N].T @ b[lo:]
            if k == 0:
                yield k, psi_k, act, g, np.inf
                return
            t = float(nodes[k - 1])
            if not np.all(np.isfinite(g)):
                raise RiccatiBlowUpError(f"operator Riccati solution lost finiteness at t={t:.6g}", time=t)
            ev, vec = np.linalg.eigh(0.5 * (g + g.T))
            root = (vec * np.sqrt(np.maximum(ev, 0.0))) @ vec.T
            lam, w = np.linalg.eigh(eye + 2.0 * root @ m0 @ root)
            yield k, psi_k, act, g, float(lam[0])
            if lam[0] < RCOND_MIN:
                raise RiccatiBlowUpError(
                    "operator Riccati solution blows up: the deflating matrix loses positive "
                    f"definiteness at t={t:.6g} (lambda_min {lam[0]:.3e})",
                    time=t,
                )
            # (Id + 2 M0 G)^{-1} M0 = M0 - 2 M0 G^{1/2} S^{-1} G^{1/2} M0, symmetric
            v = m0 @ root @ w
            x = m0 - 2.0 * (v / lam) @ v.T
            flushed = p < i * N  # psi_k() was called at this node: the block's products are stale
            u[:, p : p + N] = b
            ux[:, p : p + N] = (2.0 * b) @ x
            p += N
            if flushed:
                break
        top = k - 1
        psi_k()


def _cveta_columns(model: QuadraticModel, k: int, band: np.ndarray) -> np.ndarray:
    """Columns of s -> K(s, t_k) eta cell integrals, shape (N n, N)."""
    n, N = band.shape[0], model.n_state
    cv = first_arg_columns(band, k).reshape(n, N, N)
    return (cv @ model.eta).reshape(n * N, N)


@dataclass(frozen=True)
class QuadraticSolution:
    """Per-node operator Riccati data assembled by solve_operator_riccati.

    Attributes
    ----------
    phi, phidot : (n+1,) scalar correction and its derivative.
    p_path : (n+1, N, N) reduction <1, Psi_t 1>; in the Markovian
        specialization this is the matrix Riccati path.
    z2_maps : (n+1, N n, N) linear maps from curve samples to half the
        volatility adjustment: Z2(t_k) = 2 z2_maps[k]' g.
    z2_det, premium_profile : the adjustment and the full risk premium
        profile evaluated on the initial (deterministic) curve.
    gamma0 : closed-form Gamma_0.
    min_rcond : smallest lambda_min(S_k) met by the backward sweep.
    disc : the shared dense factors of ``_discretize`` (band, a, m1).
    g0s : the initial curve at all n+1 nodes.
    """

    model: QuadraticModel
    grid: TimeGrid
    phi: np.ndarray
    phidot: np.ndarray
    p_path: np.ndarray
    z2_maps: np.ndarray
    z2_det: np.ndarray
    premium_profile: np.ndarray
    gamma0: float
    quad0: float
    min_rcond: float
    disc: SimpleNamespace
    g0s: np.ndarray


def solve_operator_riccati(model: QuadraticModel, grid: TimeGrid) -> QuadraticSolution:
    """Evaluate the closed-form operator Riccati solution at every node.

    One backward sweep (see ``_psi_sweep``) carries Psi_k from the horizon
    by a delayed rank-N update per node, and every per-node output is read
    off the sweep's product of Psi_k with the kernel columns K(., t_k) eta
    (giving the volatility adjustment Z2 and the phi integrand) and the
    constant function (giving the Markovian reduction P); Psi_0 acts on the
    initial curve.  ``min_rcond`` records the smallest lambda_min(S_k) met on the
    way, the distance of the deflating matrix from losing definiteness.

    Raises
    ------
    RiccatiBlowUpError
        When some S_k has an eigenvalue below ``RCOND_MIN``, i.e. the
        deflating matrix W_k loses positive definiteness, which is how
        finite-time blow-up of the Riccati solution manifests on the
        grid; carries the first failing time scanning backwards from the
        horizon.
    """
    n, N, dt = grid.n, model.n_state, grid.dt
    disc = _discretize(model, grid)
    rn = rate_nodes(model.rate, grid)
    g0s = g0_nodes(model.g0, grid, N)
    g0_samples = g0s[:n].reshape(n * N)
    phidot = np.zeros(n + 1)
    p_path = np.zeros((n + 1, N, N))
    z2_maps = np.zeros((n + 1, n * N, N))
    min_rcond = np.inf
    for k, psi_k, act, g, lam in _psi_sweep(model, grid, disc):
        min_rcond = min(min_rcond, lam)
        lo = k * N
        z2_maps[k, lo:] = act[lo:, :N]
        p_path[k] = dt * act[lo:, N:].reshape(n - k, N, N).sum(axis=0)
        phidot[k] = (1.0 / dt) * float(np.trace(g @ model.u_mat)) - 2.0 * rn[k]
    quad0 = dt * float(g0_samples @ (psi_k() @ g0_samples))  # the sweep ends at Psi_0
    z2_det = 2.0 * g0_samples @ z2_maps
    premium_profile = g0s @ model.theta.T + z2_det @ model.corr
    phi = np.zeros(n + 1)
    for k in range(n - 1, -1, -1):
        phi[k] = phi[k + 1] - 0.5 * dt * (phidot[k] + phidot[k + 1])
    log_gamma0 = phi[0] + quad0
    gamma0 = float(np.exp(log_gamma0))
    hi = float(np.exp(2.0 * tail_rate_integrals(model.rate, grid)[0]))
    if gamma0 == 0.0 and log_gamma0 < -600.0:
        raise ModelAssumptionError(
            f"strategy value Gamma_0 = exp({log_gamma0:.4g}) underflows double "
            "precision; the mean-variance problem is numerically degenerate at "
            "this horizon and volatility scale"
        )
    if not np.isfinite(gamma0) or gamma0 <= 0.0 or gamma0 > hi * (1.0 + 1e-8):
        msg = (
            f"Gamma_0 = {gamma0:.6g} violates the (0, e^(2 int r)] bound "
            f"(upper {hi:.6g})"
        )
        if model.psd_violated:
            warnings.warn(msg + "; expected once the deflated covariance loses "
                          "positive semidefiniteness", RuntimeWarning, stacklevel=2)
        else:
            raise InternalConsistencyError(msg)
    return QuadraticSolution(
        model=model, grid=grid, phi=phi, phidot=phidot, p_path=p_path, z2_maps=z2_maps,
        z2_det=z2_det, premium_profile=premium_profile, gamma0=gamma0, quad0=quad0,
        min_rcond=min_rcond, disc=disc, g0s=g0s,
    )


def psi_full_matrix(model: QuadraticModel, grid: TimeGrid, k: int, disc: SimpleNamespace = None) -> np.ndarray:
    """Dense folded matrix of Psi_{t_k} (identity part included), (Nn, Nn).

    Runs the backward recursion of ``_psi_sweep`` from the horizon down to
    node k and zeroes the rows and columns before node k, so the matrix
    represents the operator on L^2([t_k, T]) embedded in the full grid.
    """
    n = grid.n
    if not 0 <= k <= n:
        raise InvalidArgumentError(f"node index must lie in [0, {n}]")
    disc = _discretize(model, grid) if disc is None else disc
    return _restricted_psi(model, grid, disc, (k,))[0]


def _restricted_psi(model: QuadraticModel, grid: TimeGrid, disc: SimpleNamespace, nodes) -> list:
    """Psi_k with the rows and columns before node k zeroed, for each of the descending ``nodes``, from one sweep."""
    N = model.n_state
    out = []
    for k, psi_k, *_ in _psi_sweep(model, grid, disc):
        if k == nodes[len(out)]:
            full = psi_k().copy()
            full[: k * N] = 0.0
            full[:, : k * N] = 0.0
            out.append(full)
            if len(out) == len(nodes):
                return out


def sigma_dot_folded(model: QuadraticModel, grid: TimeGrid, k: int, band: np.ndarray) -> np.ndarray:
    """Folded time derivative of Sigma_t at t_k: -K(., t_k) eta M0 eta' K(., t_k)'."""
    cveta = _cveta_columns(model, k, band)
    return -(1.0 / grid.dt) * (cveta @ model.m0) @ cveta.T


def riccati_derivative_residual(model: QuadraticModel, grid: TimeGrid, k: int, disc: SimpleNamespace = None) -> float:
    """Relative residual of d/dt Psi_t = 2 Psi_t SigmaDot_t Psi_t at node k.

    Compares the forward difference of the dense Psi matrices with the
    quadratic right-hand side on the common tail block; decays like the
    step size under refinement.
    """
    n, N = grid.n, model.n_state
    if not 0 <= k < n:
        raise InvalidArgumentError(f"node index must lie in [0, {n - 1}]")
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
    if not 0 <= k < n:
        raise InvalidArgumentError(f"node index must lie in [0, {n - 1}]")
    disc = _discretize(model, grid) if disc is None else disc
    fa = np.asarray(f, dtype=float).reshape(n, N).copy()
    fa[:k] = 0.0
    flat = fa.reshape(n * N)
    act = psi_full_matrix(model, grid, k, disc) @ flat
    lhs = act.reshape(n, N)[k]
    cv = first_arg_columns(disc.band, k)
    rhs = -(model.theta.T @ model.theta) @ fa[k] + model.f_mat.T @ (cv.T @ act)
    return float(np.max(np.abs(lhs - rhs)))


def correlate_drivers_quadratic(model: QuadraticModel, z: np.ndarray):
    """Map raw increments (P, n, d+N) to stock and state drivers (dB, dW)."""
    d, N = model.n_assets, model.n_state
    if z.shape[2] != d + N:
        raise InvalidArgumentError(f"need {d + N} driving factors, got {z.shape[2]}")
    db = z[:, :, :d]
    dperp = z[:, :, d:]
    row_sq = np.sum(model.corr * model.corr, axis=1)
    dw = db @ model.corr.T + np.sqrt(np.maximum(1.0 - row_sq, 0.0))[None, None, :] * dperp
    return db, dw


def gamma_quadratic(sol: QuadraticSolution, k, g_rows: np.ndarray):
    """Gamma at node k, or at each node of the sequence k, for curve samples g_rows of shape (n, N) or (P, n, N).

    Gamma_k = exp(phi_k + <g, Psi_k g>) with the curve rows before node k
    masked; every requested node is read from one backward sweep.  Returns
    a float for one node and one curve, else an array over the paths
    (P,), the nodes (len(k),) or both (len(k), P).
    """
    grid, N = sol.grid, sol.model.n_state
    n = grid.n
    g = np.asarray(g_rows, dtype=float)
    single = g.ndim == 2
    if single:
        g = g[None, :, :]
    if g.shape[1:] != (n, N):
        raise InvalidArgumentError(f"curve samples must be (P, {n}, {N}), got {g.shape}")
    nodes = np.asarray(k)
    if nodes.ndim > 1 or nodes.size == 0 or nodes.dtype.kind not in "iu" or np.any((nodes < 0) | (nodes > n)):
        raise InvalidArgumentError(f"node index must be an integer, or a nonempty sequence of them, in [0, {n}]")
    flat = g.reshape(-1, n * N)
    wanted = set(nodes.flat)
    quad = {}
    for j, psi_k, *_ in _psi_sweep(sol.model, grid, sol.disc):
        if j in wanted:
            lo = j * N
            tail = flat[:, lo:]  # the curve with its rows before node j masked
            quad[j] = grid.dt * np.einsum("pi,pi->p", tail @ psi_k()[lo:, lo:], tail)
            if len(quad) == len(wanted):
                break
    gam = np.exp(np.array([sol.phi[j] + quad[j] for j in nodes.flat])).reshape(nodes.shape + (-1,))
    if single:
        gam = gam[..., 0]
    return float(gam) if gam.ndim == 0 else gam


def optimal_control_quadratic(model: QuadraticModel, sol: QuadraticSolution, t_index: int, g_t, x_t, xi_discounted):
    """Optimal amounts alpha = -(Theta Y_t + C' Z2_t)(X_t - xi* e^{-int r}).

    g_t holds curve samples on the left nodes, shape (n, N) or (P, n, N);
    only slots at or after t_index are read.  x_t is scalar or (P,).
    """
    grid, N, n = sol.grid, model.n_state, sol.grid.n
    g = np.asarray(g_t, dtype=float)
    single = g.ndim == 2
    if single:
        g = g[None, :, :]
    if g.shape[1:] != (n, N):
        raise InvalidArgumentError(f"curve samples must be (P, {n}, {N}), got {g.shape}")
    if not 0 <= t_index <= n:
        raise InvalidArgumentError(f"node index must lie in [0, {n}]")
    if t_index == n:
        y = g[:, n - 1, :]
        warnings.warn("control requested at the horizon; using the last curve slot",
                      RuntimeWarning, stacklevel=2)
    else:
        y = g[:, t_index, :]
    z2 = 2.0 * g.reshape(-1, n * N) @ sol.z2_maps[t_index]
    prem = y @ model.theta.T + z2 @ model.corr
    gap = np.asarray(x_t, dtype=float) - float(xi_discounted)
    if gap.ndim == 0:
        alpha = -prem * float(gap)
    else:
        alpha = -prem * gap[:, None]
    return alpha[0] if single else alpha


def volatility_matrix(model: QuadraticModel, y: np.ndarray) -> np.ndarray:
    """Stock volatility sigma(Y) with entries loadings[i, j] . Y."""
    if model.loadings is None:
        raise InvalidArgumentError("model has no stock loadings; asset positions are undefined")
    return np.einsum("ijk,k->ij", model.loadings, np.asarray(y, dtype=float))


def asset_positions(model: QuadraticModel, y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Map amounts alpha to positions pi solving sigma(Y)' pi = alpha."""
    sig = volatility_matrix(model, y)
    try:
        cond = np.linalg.cond(sig)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > 1e12:
        raise SingularVolatilityError(
            f"volatility matrix is numerically singular (condition {cond:.3e})"
        )
    return np.linalg.solve(sig.T, np.asarray(alpha, dtype=float))


def _premium_map(model: QuadraticModel, grid: TimeGrid, sol: QuadraticSolution):
    """Affine map (c0, L) with [state | premium] = c0 + dW_flat L.

    dW_flat holds the state driver increments of one path as a row of
    length N n (node-major).  With u = D Y + eta dW/dt the forward curve
    at step k is g0 + sum_{j<k} A[:, j] u_j, so

        Y_{:n} = R (g0 + A eta dW/dt),  R = (Id - A D)^{-1},
        Y_n = g0_n + sum_j band[n-j-1] u_j,
        premium_k = Theta Y_k + 2 C' Z_k' (g0 + sum_{j<k} A[:, j] u_j),

    with A = ``disc.a`` and Z_k = ``z2_maps[k]``.  Returns c0 of length
    (n+1) N + n d and L of shape (N n, (n+1) N + n d); the state columns
    come first, node-major.
    """
    n, N, d = grid.n, model.n_state, model.n_assets
    nN, dt, disc = n * N, grid.dt, sol.disc
    # Column 0 is the deterministic state, the others its response to dW/dt.
    y = np.empty((nN, nN + 1))
    y[:, 0] = sol.g0s[:n].reshape(nN)
    np.divide(_bd_right(disc.a, model.eta, n), dt, out=y[:, 1:])
    y = _volterra_solve(disc.a, model.drift, y, n)
    u = _bd_left(model.drift, y, n)
    u[:, 1:] += np.kron(np.eye(n), model.eta / dt)
    # rows C' Z_k' A, keeping the blocks j < k: the curve at step k has seen u_j, j < k
    cza = (sol.z2_maps[:n] @ model.corr).transpose(0, 2, 1).reshape(n * d, nN) @ disc.a
    cza.reshape(n, d, n, N)[...] *= np.tri(n, k=-1)[:, None, :, None]
    prem = cza @ u
    prem *= 2.0
    prem += _bd_left(model.theta, y, n)
    prem[:, 0] += (sol.z2_det[:n] @ model.corr).reshape(n * d)  # 2 C' Z_k' g0
    last = disc.band[::-1].transpose(1, 0, 2).reshape(N, nN) @ u
    last[:, 0] += sol.g0s[n]
    c0 = np.concatenate([y[:, 0], last[:, 0], prem[:, 0]])
    return c0, np.concatenate([y[:, 1:], last[:, 1:], prem[:, 1:]]).T


class QuadraticEvaluator:
    """Pathwise market price of risk and risk premium for the MC layer.

    The state is Gaussian, so the state at every node and the premium
    Theta Y + C' Z2 at every left node are affine in the state driver
    increments.  The evaluator builds that map once per solution (see
    ``_premium_map``); each chunk of paths is then one matrix product.

    Raises MemoryCapError before building the map when its dense
    temporaries on top of the solution's arrays would not fit in physical
    memory.
    """

    def __init__(self, model: QuadraticModel, grid: TimeGrid, solution: QuadraticSolution = None):
        self.model = model
        self.grid = grid
        self.solution = solve_operator_riccati(model, grid) if solution is None else solution
        self.n_factors = model.n_assets + model.n_state
        _check_dense_memory("the quadratic premium map", MAP_ARRAYS, grid.n, model.n_state)
        self.c0, self.lmap = _premium_map(model, grid, self.solution)

    def premium_paths(self, z: np.ndarray):
        """Raw increments (P, n, d+N) -> (dB, lambda, premium, state paths).

        Correlates the drivers, applies the premium map in one matrix
        product and reads lambda = Theta Y off the state at the left nodes.
        """
        model, n, N = self.model, self.grid.n, self.model.n_state
        db, dw = correlate_drivers_quadratic(model, z)
        P = z.shape[0]
        out = dw.reshape(P, n * N) @ self.lmap
        out += self.c0
        state = out[:, : (n + 1) * N].reshape(P, n + 1, N)
        prem = out[:, (n + 1) * N :].reshape(P, n, model.n_assets)
        lam = state[:, :n] @ model.theta.T
        return db, lam, prem, state


def kappa_hat(x: float) -> float:
    """Resolvent amplification (x / (1 - x))^4 for contraction margin x < 1."""
    if x < 0:
        raise InvalidArgumentError("contraction margin must be nonnegative")
    if x >= 1.0:
        return float("inf")
    return float((x / (1.0 - x)) ** 4)


def contraction_report(model: QuadraticModel, grid: TimeGrid, c: float = 1.0) -> dict:
    """Premium growth constants from the kernel contraction margin.

    x = |D - 2 eta C Theta|_F . ||K||^2 must stay below 1 for the
    deflation to be a strict contraction; the report carries x, the
    amplification kappa_hat(x), the Frobenius norm of Theta and the
    resulting growth constant kappa = c |Theta|^2 (1 + |Theta|^4 kappa_hat).
    """
    x = float(np.linalg.norm(model.f_mat) * kernel_l2_norm_sq(model.kernel, grid))
    feasible = x < 1.0
    kh = kappa_hat(x) if feasible else float("inf")
    th2 = float(np.sum(model.theta**2))
    kappa = c * th2 * (1.0 + th2**2 * kh) if feasible else float("inf")
    return {
        "x": x,
        "kappa_hat": kh,
        "feasible": feasible,
        "theta_frob_sq": th2,
        "c": float(c),
        "kappa": kappa,
    }


def lambda_max_covariance(model: QuadraticModel, grid: TimeGrid, a: float) -> dict:
    """Spectral check for exponential moments of the quadratic functional.

    The covariance operator of the centered pair process
    Z(s, u) = (Y_s / T, g_s(u)) on L^2([0,T]^2; R^{2N}) is dt M (I_n kron U) M'
    with M the linear map from the N n driver increments to Z, a matrix of
    dimension 2 N n^2.  It shares its nonzero spectrum with the N n Gram
    matrix of B = A kron(I_n, U^{1/2}), where A is the folded kernel times
    eta: block (j, j') of B'B is weighted by dt (n / T^2 + n - 1 - max(j, j')),
    n / T^2 for the Y_s / T rows repeated over u and n - 1 - max(j, j') for
    the nodes s past both cells.  The report carries the sharp condition
    2 a < 1 / lambda_1 and the cruder trace-based sufficient condition
    2 a < 1 / trace; ``dim`` is the operator's dimension 2 N n^2.

    The state drift is folded into the kernel by the resolvent transform
    K -> K + R * K = (Id - K D)^{-1} K first, so the centered state is
    again a plain stochastic convolution.  Raises MemoryCapError before
    allocating when the dense Gram matrix would not fit in physical memory.
    """
    n, N = grid.n, model.n_state
    _check_dense_memory("the covariance spectrum", DENSE_ARRAYS, n, N)
    horizon, dt = grid.horizon, grid.dt
    a_fold = folded_cells(model.kernel, grid)
    ev, vec = np.linalg.eigh(model.u_mat)
    root = (vec * np.sqrt(np.maximum(ev, 0.0))) @ vec.T
    b = _bd_right(_volterra_solve(a_fold, model.drift, a_fold, n), model.eta @ root, n)
    weight = dt * (n / horizon**2 + n - 1 - np.maximum.outer(np.arange(n), np.arange(n)))
    gram = b.T @ b
    gram.reshape(n, N, n, N)[...] *= weight[:, None, :, None]
    trace = float(np.trace(gram))
    # split form: per-cell variances tr(A_ij U A_ij') = |B_ij|_F^2 with the diagonal weights
    b4 = b.reshape(n, N, n, N)
    check = float(np.einsum("iajb,iajb->j", b4, b4) @ np.diag(weight))
    lam1 = float(max(np.linalg.eigvalsh(gram)[-1], 0.0))
    scale = max(1.0, abs(trace))
    if abs(trace - check) > 1e-8 * scale:
        raise InternalConsistencyError(
            f"covariance trace identity failed: direct {trace:.10g} vs split {check:.10g}"
        )
    sharp = 2.0 * a * lam1 < 1.0
    sufficient = 2.0 * a * trace < 1.0
    return {
        "lambda1": lam1,
        "trace": trace,
        "a": float(a),
        "dim": 2 * N * n * n,
        "sharp_ok": bool(sharp),
        "sufficient_ok": bool(sufficient),
    }


def two_asset_model(hurst=(0.08, 0.4), eta=(1.0, 1.0), leverage=(-0.7, -0.7), stock_corr: float = 0.7,
                    theta=(0.65, 0.65), y0=(0.3, 0.3), rate: float = 0.0, x0: float = 1.0) -> QuadraticModel:
    """Two-asset rough-plus-smooth benchmark model.

    Each asset i has a scalar fractional state factor with its own Hurst
    index, leverage c_i between the asset and its factor, and the two
    stocks are correlated with coefficient ``stock_corr``.  The stock
    volatility loads the factors through the correlation square root
    beta = [[1, 0], [rho, sqrt(1 - rho^2)]], so the risk premium matrix
    is Theta = beta^{-1} diag(theta).

    The factor kernels are sqrt(2 h) * u^(h - 1/2), normalized so the
    driving fractional noise has variance t^(2 h); the rough and smooth
    variances then cross at t = 1, which is the time scale separating
    the short- and long-horizon allocation regimes.

    The deflated driver covariance of this configuration is indefinite,
    which the construction permits deliberately (enforce_psd=False); the
    solver and diagnostics report it.
    """
    rho = float(stock_corr)
    if not -1.0 < rho < 1.0:
        raise InvalidArgumentError("stock correlation must lie in (-1, 1)")
    sq = np.sqrt(1.0 - rho * rho)
    h1, h2 = float(hurst[0]), float(hurst[1])
    if not (0.0 < h1 <= 1.0 and 0.0 < h2 <= 1.0):
        raise InvalidArgumentError(f"hurst must be a pair of numbers in (0, 1], got ({h1}, {h2})")
    c1, c2 = float(leverage[0]), float(leverage[1])
    th1, th2 = float(theta[0]), float(theta[1])
    kernel = DiagonalKernel([
        FractionalKernel(h1, scale=math.sqrt(2.0 * h1) * math.gamma(h1 + 0.5)),
        FractionalKernel(h2, scale=math.sqrt(2.0 * h2) * math.gamma(h2 + 0.5)),
    ])
    beta = np.array([[1.0, 0.0], [rho, sq]])
    theta_mat = np.linalg.solve(beta, np.diag([th1, th2]))
    corr = np.array([[c1, 0.0], [c2 * rho, c2 * sq]])
    eta_mat = np.diag(np.asarray(eta, dtype=float))
    loadings = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            loadings[i, j, i] = beta[i, j]
    return QuadraticModel(
        kernel=kernel, theta=theta_mat, eta=eta_mat, corr=corr, drift=None,
        g0=np.asarray(y0, dtype=float), rate=rate, x0=x0, loadings=loadings,
        enforce_psd=False,
    )


def wishart_model(kernel_scalar: Kernel, theta: np.ndarray, eta: np.ndarray, rho: np.ndarray,
                  g0_mat: np.ndarray, rate: float = 0.0, x0: float = 1.0) -> QuadraticModel:
    """Matrix-state variant flattened to a vector quadratic model.

    The d x d matrix state is vectorized column-major to N = d^2 factors;
    entry (i, j) of the matrix Brownian sheet correlates with stock j
    through rho_i, the vol-of-vol acts by left multiplication, and the
    premium row i reads row i of the matrix state through theta[i, :].
    """
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    d = theta.shape[0]
    if theta.shape != (d, d):
        raise InvalidArgumentError("theta must be square for the matrix-state variant")
    eta = np.atleast_2d(np.asarray(eta, dtype=float))
    rho = np.broadcast_to(np.asarray(rho, dtype=float), (d,))
    if np.any(np.abs(rho) > 1.0):
        raise InvalidArgumentError("row correlations must lie in [-1, 1]")
    N = d * d
    if kernel_scalar.dim != 1:
        raise InvalidArgumentError("matrix-state variant expects a scalar base kernel")
    kernel = DiagonalKernel([kernel_scalar] * N)
    theta_big = np.zeros((d, N))
    corr = np.zeros((N, d))
    for i in range(d):
        for j in range(d):
            k = j * d + i
            theta_big[i, k] = theta[i, j]
            corr[k, j] = rho[i]
    eta_big = np.kron(np.eye(d), eta)
    g0_flat = np.asarray(g0_mat, dtype=float).reshape(N, order="F")
    return QuadraticModel(
        kernel=kernel, theta=theta_big, eta=eta_big, corr=corr, drift=None,
        g0=g0_flat, rate=rate, x0=x0, enforce_psd=True,
    )
