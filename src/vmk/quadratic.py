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
discretization of the kernel.  On the grid Psi_t = -m1' W_t^{-1} m1 with a
deflating matrix W_t that moving t back by one node grows by a rank-N term,
the exact discrete form of d/dt Psi_t = 2 Psi_t SigmaDot_t Psi_t.  Each W_t
is the identity up to t and, after t, a leading principal block of one
(d n) x (d n) matrix T formed from lag bands, so one blocked Cholesky
factorization of T gives Psi_t at every node: the phi integrand, the
Markovian reduction P and the volatility adjustment Z2 are prefix sums of
one forward substitution, and the factor's first failing panel locates a
blow-up.  No (N n)^2 operator is formed by the solve.

Because the state is Gaussian, the state at every node and the risk
premium Theta Y_t + C' Z2_t are affine in the driver increments.  The
Monte Carlo evaluator assembles that map once per solution from the same
lag bands and factor, with no fold, and applies it to a chunk of paths in
products of ``_MAP_ROWS`` paths, which bound BLAS's working memory.
"""

import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    ModelAssumptionError,
    RiccatiBlowUpError,
    check_memory,
)
from .grid import TimeGrid, curve_rows, g0_nodes, node_index
from .kernels import (DiagonalKernel, FractionalKernel, Kernel, band_coefficients, fold, folded_cells,
                      kernel_l2_norm_sq, resolvent_band)
from .markowitz import feedback_control, gamma_from_log, tail_rate_integrals
from .montecarlo import _MAP_ROWS, chunk_workspace, correlate_into, path_blocks, take_floats

PSD_TOL = 1e-10
RCOND_MIN = 1e-12
# Dense float arrays alive at once, rounded up from traced peaks (see README): (d n)^2 in the solve,
# (d n, max(P, N n)) in the Gamma and control readers of P curves, (N n)^2 in the spectrum, and the
# map's own shape in the premium map, on top of the solution's ((n - 1) d)^2 factor.
DENSE_ARRAYS = 3
CURVE_ARRAYS = 4
COVARIANCE_ARRAYS = 4
MAP_ARRAYS = 2
# Rows per panel of the blocked Cholesky factorization of T and of its triangular solves.
_PANEL_ROWS = 64


@dataclass(frozen=True)
class QuadraticModel:
    kernel: Kernel
    theta: np.ndarray
    eta: np.ndarray
    corr: np.ndarray
    drift: Optional[np.ndarray] = None
    g0: object = 0.0
    rate: object = 0.0
    loadings: Optional[np.ndarray] = None
    enforce_psd: bool = True

    def __post_init__(self):
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
                "to proceed at your own risk"
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


def _bd_right(x: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Blockwise x @ kron(I_n, m) for x of shape (q, m.shape[0] n)."""
    q = x.shape[0]
    return (x.reshape(q, n, m.shape[0]) @ m).reshape(q, n * m.shape[1])


def _check_dense_memory(what: str, arrays: int, rows: int, cols: int) -> None:
    """Raise MemoryCapError when ``arrays`` dense (rows, cols) float arrays exceed physical memory."""
    check_memory(f"{what} ({arrays} arrays of {rows} x {cols} floats)", arrays * 8 * rows * cols,
                 "use a coarser grid")


def _discretize(model: QuadraticModel, grid: TimeGrid) -> SimpleNamespace:
    """Shared lag bands: the kernel's ``band`` (n, N, N) and ``m1_band`` (n, d, N).

    m1 = kron(I_n, Theta) (Id - Khat)^{-1}, Khat = a kron(I_n, F), is
    fold(m1_band), Theta times the resolvent band of (band, F).
    """
    band = band_coefficients(model.kernel, grid)
    return SimpleNamespace(band=band, m1_band=model.theta @ resolvent_band(band, model.f_mat))


def _convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lag band of fold(x) fold(y): out[l] = sum_{s <= l} x[l - s] y[s], for bands x (n, P, R) and y (n, R, Q)."""
    n, p, r = x.shape
    cat = x.transpose(1, 0, 2).reshape(p, n * r)  # [x[0] | x[1] | ...]
    rev = y[::-1].reshape(n * r, -1)  # y[n - 1], ..., y[0] stacked
    return np.stack([cat[:, : (l + 1) * r] @ rev[(n - 1 - l) * r :] for l in range(n)])


def _build_t(q: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """Lower triangle of T = Id + 2 fold(Q)(I kron M0) fold(Q)' from Q's lag band, shape ((n - 1) d)^2.

    Block (a, b), a >= b, is delta_ab I + 2 sum_{s <= b} Q[a - b + s] M0 Q[s]', so it
    is block (a - 1, b - 1) plus 2 Q[a] M0 Q[b]': one product G = (Q M0) Q' and a
    running sum down each block diagonal, one block row at a time, in place.
    """
    n1, d = q.shape[0] - 1, q.shape[1]
    qf = q[:n1].reshape(n1 * d, -1)
    t = (qf @ m0) @ qf.T
    t4 = t.reshape(n1, d, n1, d)
    for a in range(1, n1):
        t4[a, :, 1 : a + 1] += t4[a - 1, :, :a]
    t *= 2.0
    t.reshape(-1)[:: n1 * d + 1] += 1.0
    return t


def _cholesky(t: np.ndarray, rows: int) -> int:
    """Overwrite t's lower triangle with its Cholesky factor, and zero the rest, ``rows`` rows at a time.

    LAPACK factors each diagonal panel, the panel's inverse times the rows below,
    and column strips update the trailing lower triangle.  Returns the rows
    factored before the first panel not numerically positive definite, which
    then holds the Schur complement it failed on.
    """
    size = t.shape[0]
    for r0 in range(0, size, rows):
        r1 = min(r0 + rows, size)
        try:
            low = np.linalg.cholesky(t[r0:r1, r0:r1])
        except np.linalg.LinAlgError:
            return r0
        if not np.all(np.isfinite(low)):
            return r0
        t[r0:r1, r0:r1] = low
        t[r0:r1, r1:] = 0.0
        below = t[r1:, r0:r1]
        below[...] = below @ np.linalg.inv(low).T
        for c0 in range(r1, size, rows):
            t[c0:, c0 : c0 + rows] -= below[c0 - r1 :] @ below[c0 - r1 : c0 - r1 + rows].T
    return size


def _tri_solve(c: np.ndarray, b: np.ndarray, needed=None) -> np.ndarray:
    """b <- C^{-1} b in place by forward substitution; C is the leading len(b) rows of c, panels inverted.

    A triangular inverse's leading block inverts the leading block, so a panel cut at len(b) reads its inverse's.
    With ``needed`` (non-increasing), column j gets its first needed[j] rows and the rest are left wrong.
    """
    size, rows = b.shape[0], _PANEL_ROWS
    for r0 in range(0, size, rows):
        r1 = min(r0 + rows, size)
        x = b[r0:r1] if needed is None else b[r0:r1, : np.count_nonzero(needed > r0)]
        x -= c[r0:r1, :r0] @ b[:r0, : x.shape[1]]
        x[...] = c[r0:r1, r0:r1] @ x
    return b


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric matrix or of each in a stack (..., N, N); negative eigenvalues read as 0."""
    ev, vec = np.linalg.eigh(a)
    return (vec * np.sqrt(np.maximum(ev, 0.0))[..., None, :]) @ np.swapaxes(vec, -1, -2)


def _node_margins(grid: TimeGrid, m0: np.ndarray, g: np.ndarray, first: int, failed) -> np.ndarray:
    """lambda_min(S_k) at the nodes k = n, ..., 1 (inf at node 0); raises at t_{k-1} for the first failing k from n.

    G_k is read for k >= ``first``; a node fails when G_k is not finite or its
    margin is below ``RCOND_MIN``.  ``failed`` is None when T was factored, else
    the block its factorization failed on, which is node ``first``'s when every
    G_k read passes: a loss of finiteness if not finite, and if finite a
    roundoff failure (InternalConsistencyError), as node ``first``'s margin
    then holds.
    """
    n = grid.n
    nodes = np.arange(n, max(first, 1) - 1, -1)
    finite = np.isfinite(g[nodes]).all(axis=(1, 2))
    stop = len(nodes) if finite.all() else int(finite.argmin())
    lam = np.full(n + 1, np.inf)
    root = _psd_sqrt(0.5 * (g[nodes[:stop]] + g[nodes[:stop]].transpose(0, 2, 1)))
    lam[nodes[:stop]] = np.linalg.eigvalsh(np.eye(m0.shape[0]) + 2.0 * root @ m0 @ root)[:, 0]
    low = lam[nodes[:stop]] < RCOND_MIN
    lost = stop < len(nodes) or (failed is not None and not np.all(np.isfinite(failed)))
    if low.any():
        k = int(nodes[low.argmax()])
        t = float(grid.nodes[k - 1])
        raise RiccatiBlowUpError(
            "operator Riccati solution blows up: the deflating matrix loses positive "
            f"definiteness at t={t:.6g} (lambda_min {lam[k]:.3e})",
            time=t,
        )
    if failed is not None and not lost:
        k = int(nodes[-1])
        raise InternalConsistencyError(
            f"the quadratic solve failed to roundoff, not the model: the Cholesky factorization of T broke "
            f"down at t={float(grid.nodes[k - 1]):.6g}, where the deflating matrix keeps its margin "
            f"(lambda_min {lam[k]:.3e} >= {RCOND_MIN:g}); another grid.n may solve it (a strongly "
            "mean-reverting drift needs a fine grid; a large positive drift may fail on every grid)"
        )
    if lost:
        t = float(grid.nodes[nodes[min(stop, len(nodes) - 1)] - 1])
        raise RiccatiBlowUpError(f"operator Riccati solution lost finiteness at t={t:.6g}", time=t)
    return lam


def _curve_reads(factor: np.ndarray, m1_band: np.ndarray, q_image: np.ndarray, g: np.ndarray, nodes):
    """|u|^2 (nodes.shape + (P,)) and -2 u q_image (nodes.shape + (P, Q)) at ``nodes`` for curves g (P, n, N).

    u = [(m1 g_k)[k]; C_m^{-1} (m1 g_k)[k+1:]], g_k the curves masked before k, gives <g_k, Psi_k g_k> = -|u|^2
    and, for the solution's (n d, N) q_image, the volatility adjustment Z2 = -2 u q_image; Q may be 0.
    One sweep from the horizon back adds m1_band g[s] to the rows from s on, which then hold m1 g_s; a triangular
    inverse's leading block inverts the leading block, so one solve serves a batch of nodes, whose images hold at
    most (d n) max(P, N n) floats.
    """
    (P, n, N), (d, Q) = g.shape, (m1_band.shape[1], q_image.shape[1])
    band, gt = m1_band.reshape(n * d, N), g.transpose(1, 2, 0)
    order, where = np.unique(nodes, return_inverse=True)
    sq, z2 = np.empty((len(order), P)), np.empty((len(order), P, Q))
    acc, s, hi = np.zeros((n * d, P)), n, len(order)
    while hi:  # the batch order[lo:hi], met from the horizon back, holds the most nodes that fit
        lo = int(np.argmax((hi - np.arange(hi)) * P * d * (n - order[:hi]) <= d * n * max(P, N * n)))
        u = np.zeros((d * (n - order[lo]), (hi - lo) * P))  # P columns per node
        for b in reversed(range(hi - lo)):
            while s > order[lo + b]:
                s -= 1
                acc[s * d :] += band[: (n - s) * d] @ gt[s].copy()  # a contiguous copy multiplies faster
            u[: (n - s) * d, b * P : (b + 1) * P] = acc[s * d :]
        _tri_solve(factor, u[d:], needed=np.repeat(d * (n - 1 - order[lo:hi]), P))
        top = n - order[hi - 1]  # the blocks before it hold every node's image
        for a, c in enumerate(np.searchsorted(order[lo:hi], n - np.arange(top, len(u) // d)) * P, top):
            u[a * d : (a + 1) * d, c:] = 0.0  # block a lies past W_k's factor for the nodes k >= n - a
        sq[lo:hi] = np.einsum("rc,rc->c", u, u).reshape(-1, P)
        z2[lo:hi] = -2.0 * (u.T @ q_image[: len(u)]).reshape(hi - lo, P, Q)
        del u  # freed before the next batch allocates its own
        hi = lo
    return sq[where], z2[where]


@dataclass(frozen=True)
class QuadraticSolution:
    """Per-node operator Riccati data assembled by solve_operator_riccati.

    Attributes
    ----------
    phi, phidot : (n+1,) scalar correction and its derivative.
    p_path : (n+1, N, N) reduction <1, Psi_t 1>; in the Markovian
        specialization this is the matrix Riccati path.
    z2_det, premium_profile : the volatility adjustment
        Z2(t_k) = 2 g' Psi_k K(., t_k) eta and the full risk premium profile,
        evaluated on the initial (deterministic) curve.
    gamma0 : closed-form Gamma_0.
    min_rcond : smallest lambda_min(S_k) met from the horizon back.
    factor : ((n-1) d)^2 lower triangular Cholesky factor C of T, whose
        leading (n - 1 - k) d rows factor W_k after node k; each diagonal
        panel holds its inverse, taken once here, so every later read (Gamma,
        the control, the premium map) is one forward ``_tri_solve``.
    q_image : (n d, N) [Q[0]; C^{-1} Q[1:]]; its first (n - k) d rows are
        m1 K(., t_k) eta from node k over W_k's Cholesky factor there.
    disc : the lag bands ``band`` and ``m1_band`` of ``_discretize``.
    g0s : the initial curve at all n+1 nodes.
    """

    model: QuadraticModel
    grid: TimeGrid
    phi: np.ndarray
    phidot: np.ndarray
    p_path: np.ndarray
    z2_det: np.ndarray
    premium_profile: np.ndarray
    gamma0: float
    min_rcond: float
    factor: np.ndarray
    q_image: np.ndarray
    disc: SimpleNamespace
    g0s: np.ndarray


def solve_operator_riccati(model: QuadraticModel, grid: TimeGrid) -> QuadraticSolution:
    """Evaluate the closed-form operator Riccati solution at every node from one Cholesky factor.

    Psi_k = -m1' W_k^{-1} m1 with W_k = Id + 2 sum_{j > k} q_j M0 q_j', where
    q_j = m1 K(., t_j) eta is one lag band Q shifted down j blocks, so W_k is
    the identity up to node k and after it the leading m = n - 1 - k blocks
    of one matrix T (``_build_t``), factored by the leading blocks C_m of
    T's factor C.  With y = C^{-1} [Q[1:] | H[1:]], H the running sum of m1's
    band (m1 1_{>=k} is H shifted down k blocks), every output is a prefix sum:

        G_k = q_k' W_k^{-1} q_k = Q[0]'Q[0] + sum_{a < m} y_Q[a]' y_Q[a],
        <1, Psi_k 1> = -(H[0]'H[0] + sum_{a < m} y_H[a]' y_H[a]),

    and likewise Z2 on the initial curve.  G_k gives phi' and the margin
    lambda_min(S_k), S_k = Id + 2 G_k^{1/2} M0 G_k^{1/2}; as
    det W_{k-1} = det W_k det S_k, T is positive definite exactly while every
    S_k is, and ``min_rcond`` is the smallest margin.

    Raises
    ------
    MemoryCapError
        When ``DENSE_ARRAYS`` (d n)^2 floats would not fit in memory.
    RiccatiBlowUpError
        When some S_k has an eigenvalue below ``RCOND_MIN`` or G_k is not
        finite: W_{k-1} loses positive definiteness, which is how finite-time
        blow-up shows on the grid.  Carries t_{k-1} for the first such node
        from the horizon, which the factorization's first failing panel holds.
    GammaUnderflowError
        When Gamma_0 underflows double precision (``gamma_from_log``).
    InternalConsistencyError
        When the factorization fails at a node whose margin holds (roundoff,
        not the model, as when the drift resolvent is unstable on the grid),
        or when Gamma_0 breaks its bound, which only warns (RuntimeWarning)
        if ``model.psd_violated``.
    """
    n, N, d, dt = grid.n, model.n_state, model.n_assets, grid.dt
    _check_dense_memory("the quadratic solve", DENSE_ARRAYS, n * d, n * d)
    disc = _discretize(model, grid)
    rn = g0_nodes(model.rate, grid, name="rate")
    g0s = g0_nodes(model.g0, grid, N)
    q = _convolve(disc.m1_band, disc.band @ model.eta)
    h = np.cumsum(disc.m1_band, axis=0)
    factor = _build_t(q, model.m0)
    panel = max(_PANEL_ROWS // d, 1) * d  # whole blocks, so a failing panel starts at a node
    rows = _cholesky(factor, panel)
    if rows < factor.shape[0]:  # locate the failing block inside the failing panel
        rows += _cholesky(factor[rows : rows + panel, rows : rows + panel], d)
    blocks = rows // d
    y = np.concatenate([q, h], axis=2)  # [Q[0] | H[0]], then C^{-1} [Q[1:] | H[1:]] on the blocks factored
    for r0 in range(0, rows, _PANEL_ROWS):  # inverted once for every later _tri_solve
        r1 = min(r0 + _PANEL_ROWS, rows)
        factor[r0:r1, r0:r1] = np.linalg.inv(factor[r0:r1, r0:r1])
    _tri_solve(factor, y[1:].reshape(-1, 2 * N)[:rows])
    y = y[: blocks + 1]
    gram = np.cumsum(np.einsum("adi,adj->aij", y, y), axis=0)  # [Q | H]' W_k^{-1} [Q | H] over m + 1 blocks
    m_of_k = np.arange(n - 1, -1, -1)  # W_k's trailing blocks, k = 0, ..., n - 1
    first = n - 1 - blocks  # the last node, from the horizon, whose G_k the factor gives
    g = np.zeros((n + 1, N, N))
    g[first:n] = gram[m_of_k[first:], :N, :N]
    failed = factor[rows : rows + d, rows : rows + d] if rows < factor.shape[0] else None
    lam = _node_margins(grid, model.m0, g, first, failed)
    phidot = (1.0 / dt) * np.einsum("kij,ji->k", g, model.u_mat) - 2.0 * rn
    p_path = np.zeros((n + 1, N, N))
    p_path[:n] = -dt * gram[m_of_k, N:, N:]
    q_image = y[:, :, :N].reshape(n * d, N)
    z2_det = np.zeros((n + 1, N))
    if np.all(g0s[:n] == g0s[0]):  # m1 g_k is H g0 shifted down k blocks
        z2_det[:n] = -2.0 * gram[m_of_k, N:, :N].transpose(0, 2, 1) @ g0s[0]
        quad0 = float(g0s[0] @ p_path[0] @ g0s[0])
    else:
        sq, z2 = _curve_reads(factor, disc.m1_band, q_image, g0s[None, :n], np.arange(n))
        z2_det[:n], quad0 = z2[:, 0], -dt * float(sq[0, 0])
    premium_profile = g0s @ model.theta.T + z2_det @ model.corr
    phi = tail_rate_integrals(-phidot, grid)  # phi_n = 0, trapezoid steps back; -phidot keeps phi_n at +0.0
    gamma0 = float(gamma_from_log(phi[0] + quad0, tail_rate_integrals(rn, grid)[0], model.psd_violated))
    return QuadraticSolution(
        model=model, grid=grid, phi=phi, phidot=phidot, p_path=p_path, z2_det=z2_det,
        premium_profile=premium_profile, gamma0=gamma0, min_rcond=float(lam.min()), factor=factor,
        q_image=q_image, disc=disc, g0s=g0s,
    )


def gamma_quadratic(sol: QuadraticSolution, k, g_rows: np.ndarray):
    """Gamma at node k, or at each node of the sequence k, for curve samples g_rows of shape (n, N) or (P, n, N).

    Gamma_k = exp(phi_k + <g, Psi_k g>) with the curve rows before node k
    masked, <g, Psi_k g> = -dt |u|^2 read from the solution's factor (see
    ``_curve_reads``) and checked by ``gamma_from_log``.  Returns a float for
    one node and one curve, else an array over the paths (P,), the nodes (len(k),) or both (len(k), P).
    """
    grid, model = sol.grid, sol.model
    n = grid.n
    g, single = curve_rows(g_rows, (n, model.n_state))
    nodes = node_index(k, n, many=True)
    _check_dense_memory("the Gamma functional", CURVE_ARRAYS, n * model.n_assets, max(len(g), n * model.n_state))
    sq, _ = _curve_reads(sol.factor, sol.disc.m1_band, sol.q_image[:, :0], g, nodes)  # no Z2
    log_gam = sol.phi[nodes][..., None] - grid.dt * sq
    gam = gamma_from_log(log_gam, tail_rate_integrals(model.rate, grid)[nodes][..., None], model.psd_violated)
    if single:
        gam = gam[..., 0]
    return float(gam) if gam.ndim == 0 else gam


def optimal_control_quadratic(model: QuadraticModel, sol: QuadraticSolution, t_index: int, g_t, x_t, xi_discounted):
    """Optimal amounts alpha = -(Theta Y_t + C' Z2_t)(X_t - xi* e^{-int r}).

    g_t holds curve samples on the left nodes, shape (n, N) or (P, n, N);
    only slots at or after t_index are read.  x_t is scalar or (P,).
    """
    n, d = sol.grid.n, model.n_assets
    g, single = curve_rows(g_t, (n, model.n_state))
    t_index = node_index(t_index, n)
    if t_index == n:
        y = g[:, n - 1, :]
        warnings.warn("control requested at the horizon; using the last curve slot",
                      RuntimeWarning, stacklevel=2)
    else:
        y = g[:, t_index, :]
    _check_dense_memory("the quadratic control", CURVE_ARRAYS, n * d, max(len(g), n * model.n_state))
    _, z2 = _curve_reads(sol.factor, sol.disc.m1_band, sol.q_image, g, t_index)
    alpha = feedback_control(y @ model.theta.T + z2 @ model.corr, x_t, xi_discounted)
    return alpha[0] if single else alpha


def volatility_matrix(model: QuadraticModel, y: np.ndarray) -> np.ndarray:
    """Stock volatility sigma(Y) with entries loadings[i, j] . Y, for one state or stacked states."""
    if model.loadings is None:
        raise InvalidArgumentError("model has no stock loadings; asset positions are undefined")
    return np.einsum("ijk,...k->...ij", model.loadings, np.asarray(y, dtype=float))


def asset_positions(model: QuadraticModel, y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Map rows of amounts alpha to positions pi solving sigma(Y)' pi = alpha, one row per state.

    NaN on the rows where sigma(Y) is not finite or its condition number exceeds 1e12.
    """
    sig = volatility_matrix(model, y)
    ok = np.isfinite(sig).all(axis=(-2, -1))
    ok[ok] = np.linalg.cond(sig[ok]) <= 1e12
    rhs = np.asarray(alpha, dtype=float)[ok][..., None]
    out = np.full(np.shape(alpha), np.nan)
    out[ok] = np.linalg.solve(np.swapaxes(sig[ok], -1, -2), rhs)[..., 0]
    return out


def _premium_map(model: QuadraticModel, grid: TimeGrid, sol: QuadraticSolution):
    """Affine map (c0, L) with [state | premium] = c0 + dW_flat L, built from lag bands.

    dW_flat holds the state driver increments of one path as a row of length
    N n (node-major).  With u = D Y + e, A the folded kernel cells and Z_k =
    Psi_k K(., t_k) eta from node k, premium_k = Theta Y_k + 2 C' Z_k' (g0 +
    sum_{j<k} A[:, j] u_j).  An input e_j moves Y_{j+m} by s1[m] e_j, s1 the
    lag band of (Id - A D)^{-1} A over n + 1 nodes, and leaves from node j + m
    on the curve c_m: c_m[0] = s1[m], c_{m+1}[r] = c_m[r + 1] + band[r] D s1[m]
    (D s1[0] read as I).  So the m1 images b_m = m1 c_m step by one recursion
    from b_1 = mb, the lag band of m1 band, and as in ``_curve_reads`` one
    forward solve over the columns of every b_m and a prefix sum over their
    blocks give X[n - 1 - k], whose block m - 1 is -2 C' Z_k' c_m.  Block
    (k, j < k) of the map is s1[k - j] eta / dt for the state and
    (Theta s1[k - j] + X[n - 1 - k][k - 1 - j]) eta / dt for the premium; c0
    is g0 plus the response to the inputs D g0_j, and C' z2_det for the
    premium, so eta enters the driver blocks only.
    Returns c0 of length (n+1) N + n d and L of shape (N n, (n+1) N + n d),
    the transpose of one row-major buffer; the state columns come first,
    node-major.
    """
    n, N, d = grid.n, model.n_state, model.n_assets
    band, m1_band, drift, g0s = sol.disc.band, sol.disc.m1_band, model.drift, sol.g0s
    zero = np.zeros((1, N, N))
    s1 = _convolve(resolvent_band(np.concatenate([band, zero]), drift), np.concatenate([zero, band]))
    mb = _convolve(m1_band, band)
    step = np.concatenate([-m1_band[1:], mb[:-1]], axis=2)
    cols = np.concatenate([s1, drift @ s1], axis=1)[: n - 1].transpose(1, 0, 2).reshape(2 * N, -1)
    x = np.zeros((n, d, (n - 1) * N))  # column block m - 1 holds b_m; read while a + m <= n - 1
    x[:, :, :N] = mb
    for a in range(n - 3, -1, -1):  # b_{m+1}[a] = b_m[a + 1] - m1_band[a + 1] s1[m] + mb[a] D s1[m]
        w = (n - 1 - a) * N
        np.matmul(step[a], cols[:, N:w], out=x[a, :, N:w])
        x[a, :, N:w] += x[a + 1, :, : w - N]
    _tri_solve(sol.factor, x[1:].reshape((n - 1) * d, -1), needed=np.repeat(d * np.arange(n - 2, -1, -1), N))
    cq = -2.0 * model.corr.T @ sol.q_image.reshape(n, d, N).transpose(0, 2, 1)  # -2 C' q_image[a]'
    x[0] = cq[0] @ x[0]
    for i in range(1, n):  # X[i] = -2 C' sum_{s <= i} q_image[s]' x[s]; node k reads X[n - 1 - k]
        x[i] = cq[i] @ x[i] + x[i - 1]
    xb = x.reshape(n, d, n - 1, N)
    eta_dt = model.eta / grid.dt
    se = s1 @ eta_dt
    tse = model.theta @ se
    dg = g0s @ drift.T  # the deterministic input D g0_i
    ybar = g0s + _convolve(s1, dg[:, :, None])[:, :, 0]
    c0 = np.concatenate([ybar.reshape(-1), (ybar[:n] @ model.theta.T + sol.z2_det[:n] @ model.corr).reshape(-1)])
    prem0 = c0[(n + 1) * N :].reshape(n, d)
    rows = np.zeros(((n + 1) * N + n * d, n * N))
    state, prem = rows[: (n + 1) * N].reshape(n + 1, N, n, N), rows[(n + 1) * N :].reshape(n, d, n, N)
    for k in range(1, n + 1):  # block (k, j < k): the response k - j steps after an input at j
        state[k, :, :k] = se[k:0:-1].transpose(1, 0, 2)
        if k < n:
            xk = xb[n - 1 - k, :, k - 1 :: -1]
            prem[k, :, :k] = tse[k:0:-1].transpose(1, 0, 2) + xk @ eta_dt
            prem0[k] += np.einsum("ajb,jb->a", xk, dg[:k])
    return c0, rows.T


class QuadraticEvaluator:
    """Pathwise market price of risk and risk premium for the MC layer.

    The state is Gaussian, so the state at every node and the premium
    Theta Y + C' Z2 at every left node are affine in the state driver
    increments.  The evaluator builds that map once per solution from the
    solution's lag bands and factor (see ``_premium_map``) and applies it in
    products of ``_MAP_ROWS`` paths, which bound BLAS's working memory.

    Raises MemoryCapError before building the map when ``MAP_ARRAYS``
    arrays of the map's shape on top of the solution's factor would not
    fit in physical memory.
    """

    def __init__(self, model: QuadraticModel, grid: TimeGrid, solution: QuadraticSolution = None):
        self.model = model
        self.grid = grid
        self.solution = solve_operator_riccati(model, grid) if solution is None else solution
        n, N, d = grid.n, model.n_state, model.n_assets
        self.n_assets, self.n_state, self.n_factors = d, N, d + N
        rows, cols, side = n * N, (n + 1) * N + n * d, (n - 1) * d
        check_memory(f"the quadratic premium map ({MAP_ARRAYS} arrays of {rows} x {cols} floats and the solution's "
                     f"{side} x {side} factor)", 8 * (MAP_ARRAYS * rows * cols + side * side), "use a coarser grid")
        self.c0, self.lmap = _premium_map(model, grid, self.solution)

    def workspace_floats(self, width: int):
        """Floats of the draws, driver and dB buffers of a ``run_mc`` workspace for ``width`` paths.

        Per path: draws, max(n (d + N), (n + 1) N + n d) for z and then the
        premium map's product; drivers, n max(N, d) for dW and then lambda;
        dB, n d.
        """
        n, N, d = self.grid.n, self.n_state, self.n_assets
        return width * max(n * (d + N), (n + 1) * N + n * d), width * n * max(N, d), width * n * d

    def premium_paths(self, z: np.ndarray, work: SimpleNamespace = None):
        """Raw increments (P, n, d+N) -> (dB, lambda, premium, state paths), views of ``work``.

        ``work`` is a ``montecarlo.chunk_workspace`` for at least P paths,
        by default a new one for P.  The correlated drivers go into its dB
        and driver buffers, the premium map's products, ``_MAP_ROWS`` rows
        each, into the draws buffer, over z once it is read when z is a view
        of it (as in ``run_mc``), and lambda = Theta Y, read off the state at
        the left nodes, over dW.  The outputs last until the next call with
        the same workspace.
        """
        model, n, N, d = self.model, self.grid.n, self.model.n_state, self.model.n_assets
        P = z.shape[0]
        if z.shape != (P, n, d + N):
            raise InvalidArgumentError(f"z must have shape (P, {n}, {d + N}), got {z.shape}")
        work = chunk_workspace(self, P) if work is None else work
        db, dw = take_floats(work.db, (P, n, d)), take_floats(work.drivers, (P, n, N))
        correlate_into(z, model.corr, db, dw)
        flat, out = dw.reshape(P, n * N), take_floats(work.draws, (P, self.lmap.shape[1]))
        for blk in (slice(p0, p0 + _MAP_ROWS) for p0 in range(0, P, _MAP_ROWS)):
            np.matmul(flat[blk], self.lmap, out=out[blk])
            out[blk] += self.c0
        state = out[:, : (n + 1) * N].reshape(P, n + 1, N)
        prem = out[:, (n + 1) * N :].reshape(P, n, d)
        lam = take_floats(work.drivers, (P, n, d))
        for blk in path_blocks(P, n * (d + N)):  # one product per block, on a contiguous copy of its state
            np.dot(state[blk, :n].reshape(-1, N), model.theta.T, out=lam[blk].reshape(-1, d))
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
    K -> K + R * K = (Id - K D)^{-1} K first, the fold of the resolvent
    band times the folded kernel, so the centered state is again a plain
    stochastic convolution.  Raises MemoryCapError before allocating when
    ``COVARIANCE_ARRAYS`` (N n)^2 floats would not fit in physical memory.
    """
    n, N = grid.n, model.n_state
    _check_dense_memory("the covariance spectrum", COVARIANCE_ARRAYS, n * N, n * N)
    horizon, dt = grid.horizon, grid.dt
    band = band_coefficients(model.kernel, grid)
    b = _bd_right(fold(resolvent_band(band, model.drift)) @ folded_cells(model.kernel, grid),
                  model.eta @ _psd_sqrt(model.u_mat), n)
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
                    theta=(0.65, 0.65), y0=(0.3, 0.3), rate: float = 0.0) -> QuadraticModel:
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
        g0=np.asarray(y0, dtype=float), rate=rate, loadings=loadings,
        enforce_psd=False,
    )


def wishart_model(kernel_scalar: Kernel, theta: np.ndarray, eta: np.ndarray, rho: np.ndarray,
                  g0_mat: np.ndarray, rate: float = 0.0) -> QuadraticModel:
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
        g0=g0_flat, rate=rate, enforce_psd=True,
    )
