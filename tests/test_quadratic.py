"""Quadratic Gaussian-state models and the operator Riccati solver."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from vmk import (
    AffineModel,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    InvalidArgumentError,
    MemoryCapError,
    ModelAssumptionError,
    QuadraticEvaluator,
    QuadraticModel,
    RiccatiBlowUpError,
    TableKernel,
    contraction_report,
    kappa_hat,
    lambda_max_covariance,
    make_grid,
    optimal_control_quadratic,
    simulate_drivers,
    solve_operator_riccati,
    two_asset_model,
    wishart_model,
)
from vmk import quadratic
from vmk.affine import optimal_control_affine, premium_loading, solve_riccati_volterra
from vmk.kernels import band_coefficients, folded_cells
from vmk.operators import _bd_right, _volterra_solve
from vmk.quadratic import (
    RCOND_MIN,
    boundary_relation_residual,
    gamma_quadratic,
    psi_full_matrix,
    riccati_derivative_residual,
)

from oracles import (adjoint, full_matrix, identity_operator, invert_id_minus, kernel_operator, kernel_value,
                     markovian_riccati_ode, min_sym_eigenvalue, sigma_operator, star)

SQ2 = math.sqrt(2.0)
# d/dt P = theta^2 + 2 P^2 backward from 0 gives P_0 = -tanh(sqrt2 theta T)/sqrt2
P0_EXACT = -math.tanh(SQ2 * 0.5) / SQ2
PHI0_EXACT = -math.log(math.cosh(SQ2 * 0.5)) / 2.0


def scalar_model(theta=1.0, corr=0.0, drift=0.0, g0=1.0, enforce_psd=True):
    return QuadraticModel(
        kernel=ConstantKernel(np.eye(1)),
        theta=np.array([[theta]]),
        eta=np.eye(1),
        corr=np.array([[corr]]),
        drift=np.array([[drift]]),
        g0=g0,
        enforce_psd=enforce_psd,
    )


def mixed_model():
    kern = DiagonalKernel([ExponentialKernel(beta=1.0), ExponentialKernel(beta=0.5, scale=0.8)])
    return QuadraticModel(
        kernel=kern,
        theta=np.array([[0.5, 0.3]]),
        eta=np.eye(2),
        corr=np.array([[-0.4], [0.2]]),
        drift=np.array([[-0.5, 0.1], [0.0, -0.3]]),
        g0=0.25,
    )


def dense_psi(model, grid, k, disc, rcond_min=RCOND_MIN):
    """Oracle: Psi_k = -m1' W_k^{-1} m1 with W_k assembled and Cholesky-factored densely.

    W_k = Id + 2 sum_{j >= k} q_j M0 q_j', q_j = m1 a_j.  Returns (Psi_k, rcond)
    and raises RiccatiBlowUpError when W_k is not numerically positive definite.
    """
    n, N, d = grid.n, model.n_state, model.n_assets
    t = float(grid.nodes[k])
    q = disc.m1 @ _bd_right(disc.a, model.eta, n)[:, k * N :]
    w = np.eye(d * n) + 2.0 * q @ np.kron(np.eye(n - k), model.m0) @ q.T
    try:
        cf = scipy.linalg.cho_factor(w, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise RiccatiBlowUpError(f"W_k indefinite at t={t}", time=t) from exc
    pocon = scipy.linalg.get_lapack_funcs("pocon", (cf[0],))
    rcond, info = pocon(cf[0], float(np.abs(w).sum(axis=0).max()), uplo="L")
    if info != 0 or rcond < rcond_min:
        raise RiccatiBlowUpError(f"W_k singular at t={t}", time=t)
    return -disc.m1.T @ scipy.linalg.cho_solve(cf, disc.m1), float(rcond)


def dense_sweep(model, grid, disc, rcond_min=RCOND_MIN):
    """Drop-in for quadratic._psi_sweep built on the dense oracle.

    act_k = Psi_k [c_k | 1] and G_k = -c_k' Psi_k c_k come from the dense Psi_k;
    the margin slot carries the rcond of W_k.
    """
    n, N = grid.n, model.n_state
    for k in range(n, -1, -1):
        psi, rcond = dense_psi(model, grid, k, disc, rcond_min)
        c = quadratic._cveta_columns(model, k, disc.band)
        ones = np.zeros((n, N, N))
        ones[k:] = np.eye(N)
        act = psi @ np.concatenate([c, ones.reshape(n * N, N)], axis=1)
        yield k, lambda psi=psi: psi, act, -c.T @ act[:, :N], rcond


def per_node_sweep(model, grid, disc):
    """Drop-in for quadratic._psi_sweep: the rank-N Woodbury update applied to Psi at every node.

    Same recursion, margins and blow-up times as the blocked sweep, with no
    delayed update: the product act_k = Psi_k [c_k | 1] is taken against the
    current Psi_k and Psi_{k-1} = Psi_k + 2 B X B' is formed before the next node.
    """
    n, N = grid.n, model.n_state
    m0 = model.m0
    eye = np.eye(N)
    psi = -disc.m1.T @ disc.m1
    for k in range(n, -1, -1):
        lo = k * N
        c = quadratic._cveta_columns(model, k, disc.band)[lo:]
        act = psi[:, lo:] @ np.concatenate([c, np.tile(eye, (n - k, 1))], axis=1)
        b = act[:, :N]
        g = -c.T @ b[lo:]
        if k == 0:
            yield k, lambda: psi, act, g, np.inf
            return
        t = float(grid.nodes[k - 1])
        if not np.all(np.isfinite(g)):
            raise RiccatiBlowUpError(f"operator Riccati solution lost finiteness at t={t:.6g}", time=t)
        ev, vec = np.linalg.eigh(0.5 * (g + g.T))
        root = (vec * np.sqrt(np.maximum(ev, 0.0))) @ vec.T
        lam, u = np.linalg.eigh(eye + 2.0 * root @ m0 @ root)
        yield k, lambda: psi, act, g, float(lam[0])
        if lam[0] < RCOND_MIN:
            raise RiccatiBlowUpError(f"deflating matrix loses definiteness at t={t:.6g}", time=t)
        v = m0 @ root @ u
        x = m0 - 2.0 * (v / lam) @ v.T
        psi += (2.0 * b @ x) @ b.T


def random_model(rng, N, d):
    """Model with indefinite M0 (|C_k|^2 > 1/2), nonzero drift and nonzero rate."""
    comps = [ExponentialKernel(beta=rng.uniform(0.2, 2.0)), FractionalKernel(rng.uniform(0.1, 0.9))]
    corr = rng.standard_normal((N, d))
    corr *= rng.uniform(0.75, 0.95, size=(N, 1)) / np.linalg.norm(corr, axis=1, keepdims=True)
    return QuadraticModel(
        kernel=DiagonalKernel(comps[:N]) if N > 1 else comps[1],
        theta=rng.uniform(-0.8, 0.8, size=(d, N)),
        eta=np.eye(N) + 0.3 * rng.standard_normal((N, N)),
        corr=corr,
        drift=-0.5 * np.eye(N) + 0.2 * rng.standard_normal((N, N)),
        g0=rng.uniform(0.1, 0.5, size=N),
        rate=0.03,
        enforce_psd=False,
    )


def raw_psi(model, grid, k, disc):
    """Unrestricted Psi_k = -m1' W_k^{-1} m1 read off the sweep ``quadratic._psi_sweep``."""
    for j, psi_k, *_ in quadratic._psi_sweep(model, grid, disc):
        if j == k:
            return psi_k().copy()


def psi_at(model, grid, k, disc, restrict):
    """Psi_k restricted to [t_k, T] (``psi_full_matrix``) or raw from the sweep."""
    return psi_full_matrix(model, grid, k, disc) if restrict else raw_psi(model, grid, k, disc)


def rel_err(got, want):
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / (scale if scale > 0.0 else 1.0))


class TestDenseOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_recursion_matches_dense_route(self, monkeypatch, N, d, seed):
        m = random_model(np.random.default_rng(100 * N + 10 * d + seed), N, d)
        assert m.m0_min_eig < 0.0
        g = make_grid(0.6, 24)
        disc = quadratic._discretize(m, g)
        fast = solve_operator_riccati(m, g)
        fast_psi = {(k, r): psi_at(m, g, k, disc, r) for k in (0, g.n // 2, g.n) for r in (True, False)}
        monkeypatch.setattr(quadratic, "_psi_sweep", dense_sweep)
        dense = solve_operator_riccati(m, g)
        for (k, r), got in fast_psi.items():
            assert rel_err(got, psi_at(m, g, k, disc, r)) <= 1e-10, (k, r)
        assert fast.gamma0 == pytest.approx(dense.gamma0, rel=1e-10)
        for name in ("phi", "phidot", "p_path", "z2_maps", "z2_det", "premium_profile"):
            assert rel_err(getattr(fast, name), getattr(dense, name)) <= 1e-10, name

    def test_blow_up_time_matches_dense_route(self, monkeypatch):
        m = TestBlowUp().blow_model()
        g = make_grid(2.0, 300)
        with pytest.raises(RiccatiBlowUpError) as fast:
            solve_operator_riccati(m, g)
        monkeypatch.setattr(quadratic, "_psi_sweep", dense_sweep)
        with pytest.raises(RiccatiBlowUpError) as dense:
            solve_operator_riccati(m, g)
        assert fast.value.time == dense.value.time


B = quadratic._SWEEP_BLOCK
SWEEP = quadratic._psi_sweep


def counted_sweep(calls):
    """Stand-in for ``quadratic._psi_sweep`` that records each call in ``calls``."""
    return lambda *args: calls.append(args) or SWEEP(*args)


def sweep_outputs(sweep, model, grid, disc, flush_at=None):
    """(k, act, G, margin) at every node of ``sweep``; Psi_k is taken (and the update flushed) at ``flush_at``."""
    out = []
    for k, psi_k, act, g, lam in sweep(model, grid, disc):
        if k == flush_at:
            psi_k()
        out.append((k, act.copy(), g.copy(), lam))
    return out


class TestBlockedSweep:
    """The blocked delayed-update sweep against the per-node sweep at the block edges."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_per_node_sweep(self, monkeypatch, N, d, n):
        m = random_model(np.random.default_rng(300 + 100 * N + 10 * d), N, d)
        g = make_grid(0.6, n)
        disc = quadratic._discretize(m, g)
        edge = max(n - B + 1, 1)  # last node of the first block, or one node past the start
        nodes = sorted({0, edge - 1, edge, edge + 1, n // 2, n})
        blocked = solve_operator_riccati(m, g)
        got = {k: psi_full_matrix(m, g, k, disc) for k in nodes}
        runs = [sweep_outputs(quadratic._psi_sweep, m, g, disc, f) for f in (None, edge + 1, n // 2)]
        monkeypatch.setattr(quadratic, "_psi_sweep", per_node_sweep)
        oracle = solve_operator_riccati(m, g)
        for k in nodes:
            assert rel_err(got[k], psi_full_matrix(m, g, k, disc)) <= 1e-10, k
        want = sweep_outputs(per_node_sweep, m, g, disc)
        for run in runs:
            for (k, act, gk, lam), (j, act1, gk1, lam1) in zip(run, want, strict=True):
                assert k == j
                assert rel_err(act, act1) <= 1e-10, k
                assert rel_err(gk, gk1) <= 1e-10, k
                assert lam == pytest.approx(lam1, rel=1e-10), k
        assert blocked.min_rcond == pytest.approx(oracle.min_rcond, rel=1e-10)
        assert blocked.gamma0 == pytest.approx(oracle.gamma0, rel=1e-10)
        for name in ("phi", "phidot", "p_path", "z2_maps", "z2_det", "premium_profile"):
            assert rel_err(getattr(blocked, name), getattr(oracle, name)) <= 1e-10, name

    def test_mid_block_blow_up_and_psi_next_to_the_pole(self, monkeypatch):
        m = TestBlowUp().blow_model()
        g = make_grid(2.0, 80)
        disc = quadratic._discretize(m, g)
        with pytest.raises(RiccatiBlowUpError) as blocked:
            solve_operator_riccati(m, g)
        k = round(blocked.value.time / g.dt) + 1  # the node whose step fails
        assert (g.n - k) % B > 1  # pending updates not yet flushed
        psi = psi_full_matrix(m, g, k, disc)
        monkeypatch.setattr(quadratic, "_psi_sweep", per_node_sweep)
        with pytest.raises(RiccatiBlowUpError) as oracle:
            solve_operator_riccati(m, g)
        assert blocked.value.time == oracle.value.time
        assert rel_err(psi, psi_full_matrix(m, g, k, disc)) <= 1e-10

    def test_derivative_residual_takes_one_sweep(self, monkeypatch):
        m = mixed_model()
        g = make_grid(0.8, 80)
        disc = quadratic._discretize(m, g)
        calls = []
        counted = counted_sweep(calls)
        # at k = n - B, Psi_{k+1} is the first block's last node and Psi_k the next block's first
        for k in (g.n - B, g.n - B - 1, g.n // 2):
            calls.clear()
            monkeypatch.setattr(quadratic, "_psi_sweep", counted)
            res = riccati_derivative_residual(m, g, k, disc)
            assert len(calls) == 1, k
            monkeypatch.setattr(quadratic, "_psi_sweep", per_node_sweep)
            assert res == pytest.approx(riccati_derivative_residual(m, g, k, disc), rel=1e-10), k


@pytest.mark.parametrize("kind", ["fractional", "exponential", "diagonal"])
def test_kernel_columns_are_folded_block_columns(kind):
    # the sweep's c_{k+1} is block column k of a kron(I_n, eta), bit for bit
    kern = {"fractional": FractionalKernel(0.3), "exponential": ExponentialKernel(beta=0.7, scale=1.3),
            "diagonal": DiagonalKernel([FractionalKernel(0.2), ExponentialKernel(beta=1.5)])}[kind]
    N = kern.dim
    eta = np.array([[0.9, 0.4], [-0.3, 1.1]]) if N == 2 else np.array([[1.7]])
    m = QuadraticModel(kernel=kern, theta=np.ones((1, N)), eta=eta, corr=np.zeros((N, 1)))
    g = make_grid(0.7, 17)
    band = band_coefficients(kern, g)
    aeta = _bd_right(folded_cells(kern, g), eta, g.n)
    for k in range(g.n):
        assert np.array_equal(quadratic._cveta_columns(m, k + 1, band), aeta[:, k * N : (k + 1) * N]), k


def node_call(name, k):
    if name in ("affine_control", "affine_loading"):
        m = AffineModel(kernels=(ConstantKernel(np.array([[1.0]])),), drift=np.zeros((1, 1)),
                        nu=1.0, rho=-0.5, theta=1.0, g0=0.04)
        g = make_grid(1.0, 8)
        psi = solve_riccati_volterra(m, g)
        if name == "affine_loading":
            return premium_loading(m, psi, g, np.array([0, k]))
        return optimal_control_affine(m, psi, g, k, np.array([0.04]), 1.0, 1.5)
    m, g = scalar_model(), make_grid(1.0, 8)
    if name == "boundary":
        return boundary_relation_residual(m, g, k, np.ones((g.n, 1)))
    if name == "sigma":
        return sigma_operator(m, g, k)
    return optimal_control_quadratic(m, solve_operator_riccati(m, g), k, np.ones((g.n, 1)), 1.0, 1.5)


@pytest.mark.parametrize("name, k, last", [
    ("boundary", 8, 7), ("boundary", -1, 7), ("sigma", -1, 8), ("sigma", 9, 8),
    ("quadratic_control", -1, 8), ("quadratic_control", 9, 8), ("affine_control", -1, 8), ("affine_control", 9, 8),
    ("affine_loading", -1, 8), ("affine_loading", 9, 8),
])
def test_node_index_out_of_range_refused(name, k, last):
    with pytest.raises(InvalidArgumentError, match=rf"\[0, {last}\]"):
        node_call(name, k)


def stepper_premium_paths(ev, z):
    """Oracle: the n-step forward-curve stepper that the premium map replaced.

    At step k the curve holds Y_j for j <= k and the forward curve beyond;
    it reads lambda = Theta Y_k and the premium Theta Y_k + C' Z2_k, then
    adds the band response to u_k = D Y_k + eta dW_k/dt to later slots.
    """
    model, grid, sol = ev.model, ev.grid, ev.solution
    n, N, d = grid.n, model.n_state, model.n_assets
    dt = grid.dt
    db, dw = quadratic.correlate_drivers_quadratic(model, z)
    P = z.shape[0]
    band = sol.disc.band
    curve = np.tile(sol.g0s[None, :, :], (P, 1, 1))
    lam = np.zeros((P, n, d))
    prem = np.zeros((P, n, d))
    for k in range(n):
        yk = curve[:, k, :]
        z2 = 2.0 * curve[:, :n, :].reshape(P, n * N) @ sol.z2_maps[k]
        lam[:, k, :] = yk @ model.theta.T
        prem[:, k, :] = lam[:, k, :] + z2 @ model.corr
        incr = yk @ model.drift.T * dt + dw[:, k, :] @ model.eta.T
        curve[:, k + 1 :, :] += np.einsum("mab,pb->pma", band[: n - k], incr) / dt
    return db, lam, prem, curve


class TestPremiumMapOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_map_matches_stepper(self, N, d, seed):
        m = random_model(np.random.default_rng(200 + 100 * N + 10 * d + seed), N, d)
        assert m.m0_min_eig < 0.0 and np.any(m.drift != 0.0) and m.rate != 0.0
        g = make_grid(0.6, 24)
        ev = quadratic.QuadraticEvaluator(m, g)
        z = simulate_drivers(g, ev.n_factors, 64, seed)
        got = ev.premium_paths(z)
        want = stepper_premium_paths(ev, z)
        assert got[3].shape == (64, g.n + 1, N)
        for name, a, b in zip(("db", "lam", "prem", "state"), got, want):
            assert a.shape == b.shape, name
            assert rel_err(a, b) <= 1e-10, name


class TestScalarOracle:
    def test_frozen_constants_match_closed_form(self):
        assert P0_EXACT == pytest.approx(-0.4305285857902738, rel=1e-14)
        assert PHI0_EXACT == pytest.approx(-0.115790661104173, rel=1e-12)
        gamma = math.exp(PHI0_EXACT + P0_EXACT)
        assert gamma == pytest.approx(0.5790773332279944, rel=1e-12)

    def test_backward_ode_route(self):
        nodes, p_path, phi_path = markovian_riccati_ode(
            np.array([[1.0]]), np.eye(1), np.array([[0.0]]), np.array([[0.0]]),
            np.eye(1), 0.0, 0.5, 500,
        )
        assert nodes.shape == (501,)
        assert p_path[-1, 0, 0] == 0.0 and phi_path[-1] == 0.0
        assert p_path[0, 0, 0] == pytest.approx(P0_EXACT, abs=1e-10)
        assert phi_path[0] == pytest.approx(PHI0_EXACT, abs=1e-10)

    def test_operator_route(self):
        sol = solve_operator_riccati(scalar_model(), make_grid(0.5, 200))
        assert sol.p_path[0, 0, 0] == pytest.approx(P0_EXACT, rel=2e-3)
        assert sol.phi[0] == pytest.approx(PHI0_EXACT, rel=2e-3)
        assert sol.gamma0 == pytest.approx(0.5790773332279944, rel=2e-3)

    def test_operator_route_refines_toward_oracle(self):
        errs = []
        for n in (100, 200, 400):
            sol = solve_operator_riccati(scalar_model(), make_grid(0.5, n))
            errs.append(abs(sol.gamma0 - 0.5790773332279944))
        assert errs[0] > errs[1] > errs[2]

    def test_zero_premium_trivial_solution(self):
        sol = solve_operator_riccati(scalar_model(theta=0.0), make_grid(0.5, 50))
        np.testing.assert_allclose(sol.p_path, 0.0, atol=1e-14)
        np.testing.assert_allclose(sol.phi, 0.0, atol=1e-14)
        assert sol.gamma0 == pytest.approx(1.0)
        np.testing.assert_allclose(sol.premium_profile, 0.0, atol=1e-14)


class TestOperatorForms:
    def test_terminal_psi_dual_route(self):
        # at the horizon the solution is -(Id - Khat)^{-*} Th'Th (Id - Khat)^{-1}
        m = mixed_model()
        g = make_grid(0.8, 30)
        disc = quadratic._discretize(m, g)
        khat = kernel_operator(g, m.n_state, _bd_right(disc.a, m.f_mat, g.n))
        binv = invert_id_minus(khat)
        mid = identity_operator(g, m.n_state, coeff=m.theta.T @ m.theta)
        comp = star(star(adjoint(binv), mid), binv)
        want = -full_matrix(comp)
        got = raw_psi(m, g, g.n, disc)
        np.testing.assert_allclose(got, want, atol=1e-10)

    def test_psi_negative_semidefinite(self):
        m = scalar_model()
        g = make_grid(1.0, 24)
        for k in (0, 8, 16):
            pf = psi_full_matrix(m, g, k)
            top = np.linalg.eigvalsh(0.5 * (pf + pf.T)).max()
            assert top <= 1e-10

    def test_sigma_kernel_is_running_minimum(self):
        # unit Volterra kernel gives Sigma_t(s, u) = min(s, u) - t on s, u >= t
        m = scalar_model()
        g = make_grid(1.0, 20)
        k = 5
        sig = sigma_operator(m, g, k)
        assert not sig.has_ident
        np.testing.assert_allclose(sig.kernel, sig.kernel.T, atol=1e-14)
        for i, j in ((6, 9), (10, 7), (19, 19), (5, 5)):
            want = min(g.nodes[i], g.nodes[j]) - g.nodes[k]
            assert kernel_value(sig, i, j)[0, 0] == pytest.approx(want, abs=1e-12)
        for i, j in ((3, 10), (4, 4)):
            assert kernel_value(sig, i, j)[0, 0] == 0.0
        assert min_sym_eigenvalue(sig) > -1e-10

    def test_sigma_vanishes_at_horizon(self):
        m = mixed_model()
        g = make_grid(0.8, 16)
        assert np.max(np.abs(sigma_operator(m, g, g.n).kernel)) == 0.0

    def test_derivative_relation_residual_shrinks(self):
        instances = [
            (scalar_model(), 0.5),
            (scalar_model(theta=0.8, corr=-0.5, drift=-0.4, g0=0.3), 0.5),
            (mixed_model(), 0.8),
        ]
        for m, horizon in instances:
            res = [
                riccati_derivative_residual(m, make_grid(horizon, n), n // 2)
                for n in (40, 80, 160)
            ]
            assert res[1] < res[0] / 1.8
            assert res[2] < res[1] / 1.8

    def test_boundary_relation_residual_shrinks(self):
        instances = [
            (scalar_model(theta=0.8, corr=-0.5, drift=-0.4, g0=0.3), 0.5),
            (mixed_model(), 0.8),
            (scalar_model(theta=1.0, corr=0.6, drift=0.0), 0.5),
        ]
        for m, horizon in instances:
            res = []
            for n in (40, 80, 160):
                g = make_grid(horizon, n)
                f = np.stack(
                    [np.cos((j + 1) * g.left_nodes) for j in range(m.n_state)], axis=1
                )
                res.append(boundary_relation_residual(m, g, n // 4, f))
            assert res[1] < res[0] / 1.7
            assert res[2] < res[1] / 1.7


class TestBlowUp:
    def blow_model(self):
        # deflated covariance -1 and zero effective drift: P' = theta^2 + 2 P^2
        return scalar_model(corr=1.0, drift=2.0, g0=0.5, enforce_psd=False)

    def test_operator_route_detects_pole(self):
        # the continuous pole sits at T - pi / (2 sqrt2)
        pole = 2.0 - math.pi / (2.0 * SQ2)
        with pytest.raises(RiccatiBlowUpError) as exc:
            solve_operator_riccati(self.blow_model(), make_grid(2.0, 300))
        assert exc.value.time == pytest.approx(pole, abs=0.05)

    def test_ode_route_detects_pole(self):
        m = self.blow_model()
        with pytest.raises(RiccatiBlowUpError):
            markovian_riccati_ode(
                m.theta, m.eta, m.corr, m.drift, m.u_mat, 0.0, 2.0, 400
            )

    def test_solution_before_pole_matches_tangent(self):
        sol = solve_operator_riccati(self.blow_model(), make_grid(0.9, 300))
        want = -math.tan(SQ2 * 0.9) / SQ2
        assert sol.p_path[0, 0, 0] == pytest.approx(want, rel=0.02)

    def test_gamma0_underflow_reported_as_model_limit(self):
        huge = scalar_model(theta=2000.0)
        with pytest.raises(ModelAssumptionError, match="underflow"):
            solve_operator_riccati(huge, make_grid(0.5, 60))


class TestGammaFunctional:
    def test_matches_solution_value_at_origin(self):
        m = scalar_model()
        g = make_grid(1.0, 40)
        sol = solve_operator_riccati(m, g)
        got = gamma_quadratic(sol, 0, sol.g0s[: g.n])
        assert got == pytest.approx(sol.gamma0, rel=1e-12)

    def test_terminal_value_without_rates_is_one(self):
        m = scalar_model()
        g = make_grid(1.0, 40)
        sol = solve_operator_riccati(m, g)
        assert sol.phi[-1] == 0.0
        assert gamma_quadratic(sol, g.n, sol.g0s[: g.n]) == pytest.approx(1.0)

    def test_path_monotone_in_between(self):
        m = scalar_model()
        g = make_grid(1.0, 40)
        sol = solve_operator_riccati(m, g)
        vals = gamma_quadratic(sol, range(g.n + 1), sol.g0s[: g.n])
        assert all(0.0 < v <= 1.0 + 1e-12 for v in vals)

    def test_many_nodes_take_one_sweep(self, monkeypatch):
        m = mixed_model()
        g = make_grid(0.8, 80)
        sol = solve_operator_riccati(m, g)
        curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(5).standard_normal((3, g.n, 2))
        # unsorted, repeated, and on both sides of the first block edge
        nodes = [5, g.n - B, 0, g.n, g.n - B - 1, g.n // 2, 5]
        want = np.array([gamma_quadratic(sol, k, curves) for k in nodes])
        calls = []
        monkeypatch.setattr(quadratic, "_psi_sweep", counted_sweep(calls))
        got = gamma_quadratic(sol, nodes, curves)
        assert len(calls) == 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(gamma_quadratic(sol, nodes, curves[1]), want[:, 1], rtol=1e-12, atol=0.0)
        for bad in ([0, g.n + 1], [-1], g.n + 1, [], [[0, 1]], 2.0):
            with pytest.raises(InvalidArgumentError, match=rf"\[0, {g.n}\]"):
                gamma_quadratic(sol, bad, curves)

    def test_control_scales_linearly_in_wealth_gap(self):
        m = scalar_model()
        g = make_grid(1.0, 20)
        sol = solve_operator_riccati(m, g)
        gt = np.ones((g.n, 1))
        a1 = optimal_control_quadratic(m, sol, 3, gt, 1.0, 1.5)
        a2 = optimal_control_quadratic(m, sol, 3, gt, 2.0, 1.5)
        prem = sol.premium_profile[3]
        np.testing.assert_allclose(a1, -prem * (1.0 - 1.5), rtol=1e-12)
        np.testing.assert_allclose(a2 - a1, -prem, rtol=1e-12)


def dense_covariance_report(model, grid, a):
    """Oracle: the covariance operator of Z(s, u) = (Y_s / T, g_s(u)) assembled densely.

    Builds the 2 N n^2 folded matrix from the cumulative per-cell covariances
    of the drift-folded kernel and eigendecomposes it; same keys as
    ``lambda_max_covariance``.
    """
    n, N = grid.n, model.n_state
    horizon, dt = grid.horizon, grid.dt
    a_fold = folded_cells(model.kernel, grid)
    a_fold = _volterra_solve(a_fold, model.drift, a_fold, n)
    ae = _bd_right(a_fold, model.eta, n).reshape(n, N, n, N).transpose(0, 2, 1, 3)
    g = np.einsum("ijab,bc,ljdc->iljad", ae, model.u_mat, ae)
    ics = np.concatenate([np.zeros((n, n, 1, N, N)), np.cumsum(g, axis=2)], axis=2)
    idx = np.arange(n)
    t11 = ics[idx[:, None], idx[None, :], np.minimum(idx[:, None], idx[None, :])]
    t12 = ics[idx[:, None, None], idx[None, None, :], np.minimum(idx[:, None, None], idx[None, :, None])]
    t22 = ics[idx[None, None, :, None], idx[None, None, None, :], np.minimum(idx[:, None, None, None], idx[None, :, None, None])]
    half = N * n * n
    b11 = np.broadcast_to(t11.transpose(0, 2, 1, 3)[:, None, :, :, None, :], (n, n, N, n, n, N)).reshape(half, half)
    b12 = np.broadcast_to(t12.transpose(0, 3, 1, 2, 4)[:, None, :, :, :, :], (n, n, N, n, n, N)).reshape(half, half)
    b22 = t22.transpose(0, 2, 4, 1, 3, 5).reshape(half, half)
    top = np.concatenate([b11 / horizon**2, b12 / horizon], axis=1)
    bot = np.concatenate([b12.T / horizon, b22], axis=1)
    folded = np.concatenate([top, bot], axis=0) * dt
    folded = 0.5 * (folded + folded.T)
    lam1 = float(max(np.linalg.eigvalsh(folded)[-1], 0.0))
    trace = float(np.trace(folded))
    return {"lambda1": lam1, "trace": trace, "a": float(a), "dim": 2 * half,
            "sharp_ok": bool(2.0 * a * lam1 < 1.0), "sufficient_ok": bool(2.0 * a * trace < 1.0)}


class TestDiagnostics:
    def test_kappa_hat_values(self):
        assert kappa_hat(0.5) == pytest.approx(1.0)
        assert kappa_hat(0.2) == pytest.approx(0.25**4)
        assert math.isinf(kappa_hat(1.0))
        assert math.isinf(kappa_hat(1.5))
        with pytest.raises(InvalidArgumentError):
            kappa_hat(-0.1)

    def test_contraction_report_consistency(self):
        m = two_asset_model()
        g = make_grid(0.5, 60)
        rep = contraction_report(m, g)
        assert rep["feasible"] == (rep["x"] < 1.0)
        assert rep["kappa_hat"] == pytest.approx(kappa_hat(rep["x"]), rel=1e-12)
        assert rep["theta_frob_sq"] == pytest.approx(float(np.sum(m.theta**2)), rel=1e-12)
        assert rep["kappa"] > 0.0

    def test_covariance_trace_closed_form(self):
        # unit Volterra kernel: trace tends to T^3 (1/2 + 1/3) with T = 1
        m = scalar_model()
        errs = []
        for n in (20, 40):
            rep = lambda_max_covariance(m, make_grid(1.0, n), a=0.1)
            errs.append(abs(rep["trace"] - 5.0 / 6.0))
            assert rep["dim"] == 2 * n * n
            assert 0.0 < rep["lambda1"] <= rep["trace"]
            assert rep["sharp_ok"] == (2.0 * 0.1 * rep["lambda1"] < 1.0)
            assert rep["sufficient_ok"] == (2.0 * 0.1 * rep["trace"] < 1.0)
        assert errs[1] < errs[0] / 1.7
        assert errs[1] < 0.03

    def test_covariance_memory_cap(self, monkeypatch):
        monkeypatch.setattr(quadratic, "PHYS_MEM_BYTES", 10**4)
        with pytest.raises(MemoryCapError) as exc:
            lambda_max_covariance(scalar_model(), make_grid(1.0, 20), a=0.1)
        assert exc.value.limit == 10**4

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("kind", ["fractional", "exponential", "table"])
    def test_covariance_gram_matches_dense_operator(self, kind, N, d):
        rng = np.random.default_rng(["fractional", "exponential", "table"].index(kind) * 100 + 10 * N + d)
        g = make_grid(float(rng.uniform(0.5, 2.0)), 9)
        if kind == "table":
            kern = TableKernel(g, 0.5 * rng.standard_normal((g.n, g.n, N, N)), volterra=True)
        else:
            comps = [FractionalKernel(float(rng.uniform(0.1, 0.9))) if kind == "fractional"
                     else ExponentialKernel(beta=float(rng.uniform(0.2, 2.0))) for _ in range(N)]
            kern = comps[0] if N == 1 else DiagonalKernel(comps)
        corr = rng.standard_normal((N, d))
        corr *= rng.uniform(0.75, 0.95, size=(N, 1)) / np.linalg.norm(corr, axis=1, keepdims=True)
        m = QuadraticModel(kernel=kern, theta=rng.uniform(-0.8, 0.8, size=(d, N)),
                           eta=np.eye(N) + 0.3 * rng.standard_normal((N, N)), corr=corr,
                           drift=-0.5 * np.eye(N) + 0.2 * rng.standard_normal((N, N)), enforce_psd=False)
        assert m.m0_min_eig < 0.0
        got = lambda_max_covariance(m, g, a=0.1)
        want = dense_covariance_report(m, g, a=0.1)
        for key in ("lambda1", "trace"):
            assert abs(got[key] - want[key]) <= 1e-10 * abs(want[key]), key
        assert got == {**want, "lambda1": got["lambda1"], "trace": got["trace"]}


class TestMemoryGuard:
    @staticmethod
    def one_factor_model():
        return QuadraticModel(kernel=FractionalKernel(0.3), theta=np.array([[0.6]]), eta=np.eye(1),
                              corr=np.array([[-0.5]]), drift=np.array([[-0.4]]), g0=0.2)

    @pytest.mark.parametrize("which, n", [("two_asset", 200), ("one_factor", 400)])
    def test_traced_peaks_within_guard(self, which, n):
        m = two_asset_model() if which == "two_asset" else self.one_factor_model()
        g = make_grid(1.0, n)
        dense = 8 * (n * m.n_state) ** 2
        tracemalloc.start()
        try:
            lambda_max_covariance(m, g, a=0.1)
            _, cov_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sol = solve_operator_riccati(m, g)
            _, solve_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            QuadraticEvaluator(m, g, sol)
            _, map_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solve_peak <= quadratic.DENSE_ARRAYS * dense
        assert map_peak <= quadratic.MAP_ARRAYS * dense
        assert cov_peak <= quadratic.DENSE_ARRAYS * dense
        assert set(vars(sol.disc)) == {"band", "a", "m1"}


class TestModelConstruction:
    def test_leverage_rows_bounded(self):
        with pytest.raises(ModelAssumptionError):
            scalar_model(corr=1.2)

    def test_indefinite_covariance_guarded_by_default(self):
        with pytest.raises(ModelAssumptionError):
            scalar_model(corr=1.0, drift=2.0)
        m = scalar_model(corr=1.0, drift=2.0, enforce_psd=False)
        assert m.psd_violated
        assert m.m0_min_eig == pytest.approx(-1.0)

    def test_two_asset_preset_structure(self):
        m = two_asset_model()
        assert m.n_assets == 2 and m.n_state == 2
        np.testing.assert_allclose(m.u_mat, [[1.0, 0.343], [0.343, 1.0]], atol=1e-12)
        assert m.m0_min_eig == pytest.approx(-0.323, abs=1e-12)
        assert m.psd_violated
        # volatility loadings invert to a diagonal premium of size theta
        beta = np.array([[1.0, 0.0], [0.7, math.sqrt(1.0 - 0.49)]])
        np.testing.assert_allclose(beta @ m.theta, 0.65 * np.eye(2), atol=1e-12)

    def test_two_asset_preset_solves(self):
        sol = solve_operator_riccati(two_asset_model(), make_grid(0.5, 60))
        assert 0.0 < sol.gamma0 < 1.0
        assert sol.premium_profile.shape == (61, 2)
        assert np.all(np.isfinite(sol.premium_profile))

    def test_wishart_preset_solves(self):
        m = wishart_model(
            ExponentialKernel(beta=1.0),
            theta=np.array([[0.5, 0.1], [0.0, 0.4]]),
            eta=0.3 * np.eye(2),
            rho=np.array([-0.3, -0.2]),
            g0_mat=0.2 * np.eye(2),
        )
        assert m.n_assets == 2 and m.n_state == 4
        assert not m.psd_violated
        sol = solve_operator_riccati(m, make_grid(0.5, 40))
        assert 0.0 < sol.gamma0 <= 1.0
        np.testing.assert_allclose(sol.p_path[0], sol.p_path[0].T, atol=1e-12)
