"""Quadratic Gaussian-state models and the operator Riccati solver."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vmk import (
    AffineModel,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    GammaUnderflowError,
    InternalConsistencyError,
    InvalidArgumentError,
    MemoryCapError,
    ModelAssumptionError,
    QuadraticEvaluator,
    QuadraticModel,
    RiccatiBlowUpError,
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
import oracles
from vmk import cli, errors, quadratic
from vmk.affine import gamma_affine, optimal_control_affine, premium_loading, solve_riccati_volterra
from vmk.kernels import band_coefficients, fold, folded_cells
from vmk.markowitz import integrated_rate
from vmk.quadratic import RCOND_MIN, _bd_right, asset_positions, gamma_quadratic

from oracles import (_volterra_solve, adjoint, boundary_relation_residual, correlate_drivers, dense_factors, dense_t,
                     first_arg_columns, full_matrix, identity_operator, invert_id_minus, kernel_operator, kernel_value,
                     markovian_riccati_ode, min_sym_eigenvalue, per_node_sweep, positions_per_row, psi_full_matrix,
                     riccati_derivative_residual, sigma_operator, star, sweep_solution)

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
    a, m1 = dense_factors(disc)
    q = m1 @ _bd_right(a, model.eta, n)[:, k * N :]
    w = np.eye(d * n) + 2.0 * q @ np.kron(np.eye(n - k), model.m0) @ q.T
    try:
        cf = scipy.linalg.cho_factor(w, lower=True)
    except scipy.linalg.LinAlgError as exc:
        raise RiccatiBlowUpError(f"W_k indefinite at t={t}", time=t) from exc
    pocon = scipy.linalg.get_lapack_funcs("pocon", (cf[0],))
    rcond, info = pocon(cf[0], float(np.abs(w).sum(axis=0).max()), uplo="L")
    if info != 0 or rcond < rcond_min:
        raise RiccatiBlowUpError(f"W_k singular at t={t}", time=t)
    return -m1.T @ scipy.linalg.cho_solve(cf, m1), float(rcond)


def dense_sweep(model, grid, disc, stops=(), rcond_min=RCOND_MIN):
    """Drop-in for ``oracles.per_node_sweep`` built on the dense oracle.

    act_k = Psi_k [c_k | 1] and G_k = -c_k' Psi_k c_k come from the dense Psi_k,
    which is yielded at the ``stops`` and at node 0; the margin slot carries the
    rcond of W_k.
    """
    n, N = grid.n, model.n_state
    for k in range(n, -1, -1):
        psi, rcond = dense_psi(model, grid, k, disc, rcond_min)
        c = first_arg_columns(disc.band @ model.eta, k)
        ones = np.zeros((n, N, N))
        ones[k:] = np.eye(N)
        act = psi @ np.concatenate([c, ones.reshape(n * N, N)], axis=1)
        yield k, psi if k in stops or k == 0 else None, act, -c.T @ act[:, :N], rcond


def random_model(rng, N, d, leverage=(0.75, 0.95)):
    """Model with leverage rows |C_k| drawn from ``leverage``, nonzero drift and nonzero rate.

    The default draws |C_k|^2 > 1/2, so M0 is indefinite.
    """
    comps = [ExponentialKernel(beta=rng.uniform(0.2, 2.0)), FractionalKernel(rng.uniform(0.1, 0.9))]
    corr = rng.standard_normal((N, d))
    corr *= rng.uniform(*leverage, size=(N, 1)) / np.linalg.norm(corr, axis=1, keepdims=True)
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
    """Unrestricted Psi_k = -m1' W_k^{-1} m1 read off ``oracles.per_node_sweep``."""
    for j, psi, *_ in per_node_sweep(model, grid, disc, (k,)):
        if j == k:
            return psi.copy()


def psi_at(model, grid, k, disc, restrict):
    """Psi_k restricted to [t_k, T] (``psi_full_matrix``) or raw from the sweep."""
    return psi_full_matrix(model, grid, k, disc) if restrict else raw_psi(model, grid, k, disc)


def rel_err(got, want):
    scale = np.max(np.abs(want))
    return float(np.max(np.abs(got - want)) / (scale if scale > 0.0 else 1.0))


SOLUTION_FIELDS = ("phi", "phidot", "p_path", "z2_det", "premium_profile")
PANEL = quadratic._PANEL_ROWS


def assert_matches_sweep(fast, want, tol=1e-10):
    """Every output of the factor route within ``tol`` of a sweep's (``oracles.sweep_solution``).

    The premium map is checked on a few paths against the stepper fed the sweep's ``z2_maps``.
    """
    assert fast.gamma0 == pytest.approx(want.gamma0, rel=tol)
    for name in SOLUTION_FIELDS:
        assert rel_err(getattr(fast, name), getattr(want, name)) <= tol, name
    ev = QuadraticEvaluator(fast.model, fast.grid, fast)
    z = simulate_drivers(fast.grid, ev.n_factors, 4, 0)
    want_paths = stepper_premium_paths(ev, z, want.z2_maps)
    for name, a, b in zip(("db", "lam", "prem", "state"), ev.premium_paths(z), want_paths):
        assert rel_err(a, b) <= tol, name


def quadratic_forms(sol, psi, k, curves):
    """Gamma_k = exp(phi_k + dt <g, Psi_k g>) of each curve, with Psi_k restricted to [t_k, T]."""
    flat = curves.reshape(len(curves), -1)
    return np.exp(sol.phi[k] + sol.grid.dt * np.einsum("pi,ij,pj->p", flat, psi, flat))


class TestDenseOracle:
    """The factor route and the per-node sweep against the dense route, on grids whose T ends past one panel."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_recursion_matches_dense_route(self, N, d, seed):
        m = random_model(np.random.default_rng(100 * N + 10 * d + seed), N, d)
        assert m.m0_min_eig < 0.0
        g = make_grid(0.6, PANEL // d + 1 + seed)  # T holds one panel of rows, or one block more
        disc = quadratic._discretize(m, g)
        fast = solve_operator_riccati(m, g)
        assert_matches_sweep(fast, sweep_solution(m, g, dense_sweep))
        curves = fast.g0s[None, : g.n] + 0.2 * np.random.default_rng(seed).standard_normal((2, g.n, N))
        for k in (0, g.n // 2, g.n):
            psi = dense_psi(m, g, k, disc)[0]
            assert rel_err(psi_at(m, g, k, disc, False), psi) <= 1e-10, k
            psi[: k * N] = 0.0
            psi[:, : k * N] = 0.0
            assert rel_err(psi_at(m, g, k, disc, True), psi) <= 1e-10, k
            assert rel_err(gamma_quadratic(fast, k, curves), quadratic_forms(fast, psi, k, curves)) <= 1e-10, k

    def test_blow_up_time_matches_dense_route(self):
        m = TestBlowUp().blow_model()
        g = make_grid(2.0, 300)
        with pytest.raises(RiccatiBlowUpError) as fast:
            solve_operator_riccati(m, g)
        with pytest.raises(RiccatiBlowUpError) as dense:
            sweep_solution(m, g, dense_sweep)
        assert fast.value.time == dense.value.time


def check_against_per_node_sweep(m, g):
    """The solve, the premium map, the margins and Gamma at several nodes against the per-node sweep."""
    disc = quadratic._discretize(m, g)
    fast = solve_operator_riccati(m, g)
    want = sweep_solution(m, g)
    assert_matches_sweep(fast, want)
    assert fast.min_rcond == pytest.approx(want.min_rcond, rel=1e-10)
    curves = fast.g0s[None, : g.n] + 0.2 * np.random.default_rng(g.n).standard_normal((3, g.n, m.n_state))
    for k in sorted({0, 1, g.n // 2, g.n - 1, g.n}):
        psi = psi_full_matrix(m, g, k, disc)
        assert rel_err(gamma_quadratic(fast, k, curves), quadratic_forms(fast, psi, k, curves)) <= 1e-10, k
        if k == g.n:
            continue
        alpha = optimal_control_quadratic(m, fast, k, curves, 1.2, 1.5)
        z2 = 2.0 * curves.reshape(3, -1) @ want.z2_maps[k]
        lam = curves[:, k] @ m.theta.T
        assert rel_err(alpha, -(lam + z2 @ m.corr) * (1.2 - 1.5)) <= 1e-10, k


def blow_up_row(m, g):
    """(time, row): the solve's blow-up time, and the first row of T whose leading block is not positive definite."""
    with pytest.raises(RiccatiBlowUpError) as exc:
        solve_operator_riccati(m, g)
    k = round(exc.value.time / g.dt) + 1  # the node whose step fails: W_{k-1} is T's leading n - k blocks
    return exc.value.time, (g.n - 1 - k) * m.n_assets


class TestBlockedSweep:
    """The blocked factorization of T against the per-node sweep at the panel edges."""

    @pytest.mark.parametrize("n", [31, 32, 33])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_per_node_sweep(self, N, d, n):
        m = random_model(np.random.default_rng(300 + 100 * N + 10 * d), N, d)
        check_against_per_node_sweep(m, make_grid(0.6, n))

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_matches_per_node_sweep_at_panel_rows(self, N, d, edge):
        # T has (n - 1) d rows: one block short of a panel, one panel, or one block past it
        m = random_model(np.random.default_rng(500 + 100 * N + 10 * d), N, d)
        g = make_grid(0.6, PANEL // d + edge + 1)
        assert (g.n - 1) * d == PANEL + edge * d
        check_against_per_node_sweep(m, g)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_time_varying_curve_matches_per_node_sweep(self, N, d):
        # Z2 and Gamma_0 of a curve read each node's images from one solve, across a panel edge
        base = random_model(np.random.default_rng(600 + 10 * N + d), N, d)
        m = QuadraticModel(kernel=base.kernel, theta=base.theta, eta=base.eta, corr=base.corr, drift=base.drift,
                           g0=lambda t: 0.3 * np.cos(3.0 * t + np.arange(N)), rate=base.rate, enforce_psd=False)
        check_against_per_node_sweep(m, make_grid(0.6, PANEL // d + 2))

    def test_mid_block_blow_up_and_psi_next_to_the_pole(self):
        m = TestBlowUp().blow_model()
        g = make_grid(2.0, 80)
        disc = quadratic._discretize(m, g)
        time, row = blow_up_row(m, g)
        assert 0 < row % PANEL < PANEL - 1  # inside the first panel
        with pytest.raises(RiccatiBlowUpError) as oracle:
            sweep_solution(m, g)
        assert time == oracle.value.time
        k = round(time / g.dt) + 1
        psi = dense_psi(m, g, k, disc)[0]
        psi[:k] = 0.0  # one state factor
        psi[:, :k] = 0.0
        assert rel_err(psi_full_matrix(m, g, k, disc), psi) <= 1e-10

    @pytest.mark.parametrize("n, where", [(117, 0), (232, 0), (115, PANEL - 1), (230, PANEL - 1)])
    def test_blow_up_on_a_panel_edge_row(self, n, where):
        # the failing row opens (where = 0) or closes (PANEL - 1) a panel past the first
        m = TestBlowUp().blow_model()
        g = make_grid(2.0, n)
        time, row = blow_up_row(m, g)
        assert row % PANEL == where and row >= PANEL - 1
        disc = quadratic._discretize(m, g)
        t = quadratic._build_t(quadratic._convolve(disc.m1_band, disc.band @ m.eta), m.m0)
        assert quadratic._cholesky(t, PANEL) == row - row % PANEL  # the panel holding the row fails
        with pytest.raises(RiccatiBlowUpError) as oracle:
            sweep_solution(m, g)
        assert time == oracle.value.time

    def test_loss_of_finiteness_at_the_same_time(self):
        m = scalar_model(theta=1e160)  # G_{n-1} = Q[0]'Q[0] overflows
        g = make_grid(1.0, 100)
        with np.errstate(over="ignore"), pytest.raises(RiccatiBlowUpError, match="lost finiteness") as fast:
            solve_operator_riccati(m, g)
        with np.errstate(over="ignore"), pytest.raises(RiccatiBlowUpError, match="lost finiteness") as oracle:
            sweep_solution(m, g)
        assert fast.value.time == oracle.value.time

    @pytest.mark.parametrize("N, d", [(1, 1), (2, 2)])
    def test_psi_only_at_the_stops(self, N, d):
        m = random_model(np.random.default_rng(400 + 10 * N + d), N, d)
        g = make_grid(0.6, 40)
        disc = quadratic._discretize(m, g)
        stops = (g.n, g.n - 5, g.n // 2, 0)
        seen = []
        for k, psi, *_ in per_node_sweep(m, g, disc, stops):
            if k in stops:
                assert rel_err(psi, dense_psi(m, g, k, disc)[0]) <= 1e-10, k
                seen.append(k)
            else:
                assert psi is None, k
        assert seen == list(stops)

    def test_derivative_residual_takes_one_sweep(self, monkeypatch):
        m = mixed_model()
        g = make_grid(0.8, 40)
        disc = quadratic._discretize(m, g)
        calls = []
        for k in (g.n - 2, g.n // 2, 0):
            calls.clear()
            monkeypatch.setattr(oracles, "per_node_sweep", lambda *a: calls.append(a) or per_node_sweep(*a))
            res = riccati_derivative_residual(m, g, k, disc)
            assert len(calls) == 1, k
            monkeypatch.setattr(oracles, "per_node_sweep", dense_sweep)
            assert res == pytest.approx(riccati_derivative_residual(m, g, k, disc), rel=1e-10), k


class TestTOracle:
    """T against its dense definition, and the identities the factor route reads off it."""

    @staticmethod
    def instances():
        rng = np.random.default_rng(7)
        out = [(random_model(rng, N, d, leverage=lev), 0.6) for N in (1, 2) for d in (1, 2)
               for lev in ((0.1, 0.6), (0.75, 0.95))]
        return out + [(two_asset_model(theta=(0.65, 0.30)), 1.5)]

    def test_instances_cover_both_signs_of_m0(self):
        signs = {m.m0_min_eig > 0.0 for m, _ in self.instances()}
        assert signs == {True, False}

    @pytest.mark.parametrize("which", range(9))
    def test_identities(self, which):
        m, horizon = self.instances()[which]
        g = make_grid(horizon, 12)
        n, N, d = g.n, m.n_state, m.n_assets
        disc = quadratic._discretize(m, g)
        t = dense_t(m, disc)
        q = quadratic._convolve(disc.m1_band, disc.band @ m.eta)
        built = quadratic._build_t(q, m.m0)
        assert rel_err(np.tril(built), np.tril(t)) <= 1e-12
        a, m1 = dense_factors(disc)
        aeta = _bd_right(a, m.eta, n)
        c = np.linalg.cholesky(t)
        y = np.linalg.solve(c, q[1:].reshape(-1, N))
        gk = {k: g_k for k, _, _, g_k, _ in per_node_sweep(m, g, disc)}
        logdet = {}
        for k in range(n):
            qk = m1 @ aeta[:, k * N :]  # q_j = m1 K(., t_j) eta for j > k
            w = np.eye(n * d) + 2.0 * qk @ np.kron(np.eye(n - k), m.m0) @ qk.T
            mb = (n - 1 - k) * d
            if mb:
                assert rel_err(w[(k + 1) * d :, (k + 1) * d :], t[:mb, :mb]) <= 1e-12, k
            assert rel_err(w[: (k + 1) * d], np.eye(n * d)[: (k + 1) * d]) == 0.0, k
            prefix = q[0].T @ q[0] + y[:mb].T @ y[:mb]
            assert rel_err(prefix, gk[k]) <= 1e-12, k
            sign, logdet[k] = np.linalg.slogdet(w)
            assert sign == 1.0, k
        logdet[n] = 0.0
        for k in range(1, n + 1):
            s_k = np.eye(N) + 2.0 * m.m0 @ gk[k]  # det S_k = det(Id + 2 M0 G_k)
            assert abs(logdet[k - 1] - logdet[k] - math.log(np.linalg.det(s_k))) <= 1e-12, k


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
        assert np.array_equal(first_arg_columns(band @ eta, k + 1), aeta[:, k * N : (k + 1) * N]), k


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
    if name == "psi_full":
        return psi_full_matrix(m, g, k)
    if name == "boundary":
        return boundary_relation_residual(m, g, k, np.ones((g.n, 1)))
    if name == "sigma":
        return sigma_operator(m, g, k)
    return optimal_control_quadratic(m, solve_operator_riccati(m, g), k, np.ones((g.n, 1)), 1.0, 1.5)


# a float, a boolean, a numpy float, a float inside a sequence and a ragged sequence are not node indices
NON_INTEGER = [1.5, True, np.float64(2.0), [0, 1.5], [[0, 1], 2]]


@pytest.mark.parametrize("name, k, last", [
    ("boundary", 8, 7), ("boundary", -1, 7), ("sigma", -1, 8), ("sigma", 9, 8),
    ("quadratic_control", -1, 8), ("quadratic_control", 9, 8), ("affine_control", -1, 8), ("affine_control", 9, 8),
    ("affine_loading", -1, 8), ("affine_loading", 9, 8), ("psi_full", -1, 8), ("psi_full", 9, 8),
] + [
    (name, k, last) for name, last in (("boundary", 7), ("quadratic_control", 8), ("affine_control", 8), ("psi_full", 8))
    for k in NON_INTEGER
] + [("affine_loading", k, 8) for k in (1.5, np.float64(2.0))])
def test_node_index_out_of_range_refused(name, k, last):
    with pytest.raises(InvalidArgumentError, match=rf"\[0, {last}\]"):
        node_call(name, k)


@pytest.fixture(scope="module")
def node_calls():
    """Each node-indexed call on a solved n = 8 model, and its last valid node."""
    g = make_grid(1.0, 8)
    am = AffineModel(kernels=(ConstantKernel(np.array([[1.0]])),), drift=np.zeros((1, 1)),
                     nu=1.0, rho=-0.5, theta=1.0, g0=0.04)
    psi = solve_riccati_volterra(am, g)
    qm = scalar_model()
    sol = solve_operator_riccati(qm, g)
    curve = np.full((g.n + 1, 1), 0.04)
    return {
        "premium_loading": (lambda k: premium_loading(am, psi, g, k), g.n),
        "gamma_affine": (lambda k: gamma_affine(am, g, psi, curve, k), g.n),
        "gamma_quadratic": (lambda k: gamma_quadratic(sol, k, sol.g0s[: g.n]), g.n),
        "riccati_derivative_residual": (lambda k: riccati_derivative_residual(qm, g, k, sol.disc), g.n - 1),
        "boundary_relation_residual": (lambda k: boundary_relation_residual(qm, g, k, np.ones((g.n, 1)), sol.disc),
                                       g.n - 1),
        "psi_full_matrix": (lambda k: psi_full_matrix(qm, g, k, sol.disc), g.n),
        "optimal_control_quadratic": (lambda k: optimal_control_quadratic(qm, sol, k, np.ones((g.n, 1)), 1.0, 1.5),
                                      g.n),
        "optimal_control_affine": (lambda k: optimal_control_affine(am, psi, g, k, np.array([0.04]), 1.0, 1.5), g.n),
    }


SEQUENCE_CALLS = ("premium_loading", "gamma_quadratic")


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(name=st.sampled_from(["premium_loading", "gamma_affine", "gamma_quadratic", "riccati_derivative_residual",
                             "boundary_relation_residual", "psi_full_matrix", "optimal_control_quadratic",
                             "optimal_control_affine"]),
       below=st.booleans(), offset=st.integers(min_value=0),
       valid=st.lists(st.integers(0, 7), max_size=3), at=st.integers(0, 3))
def test_every_out_of_range_node_refused(node_calls, name, below, offset, valid, at):
    call, last = node_calls[name]
    k = -1 - offset if below else last + 1 + offset
    with pytest.raises(InvalidArgumentError):
        call(k)
    for bad in NON_INTEGER:
        with pytest.raises(InvalidArgumentError, match=rf"\[0, {last}\]"):
            call(bad)
    if name in SEQUENCE_CALLS:  # one bad node among valid ones
        with pytest.raises(InvalidArgumentError):
            call(valid[:at] + [k] + valid[at:])


def stepper_premium_paths(ev, z, maps):
    """Oracle: the n-step forward-curve stepper that the premium map replaced.

    At step k the curve holds Y_j for j <= k and the forward curve beyond;
    it reads lambda = Theta Y_k and the premium Theta Y_k + C' Z2_k, Z2_k = 2 maps[k]' g
    with ``maps`` the ``z2_maps`` of ``oracles.sweep_solution``, then
    adds the band response to u_k = D Y_k + eta dW_k/dt to later slots.
    """
    model, grid, sol = ev.model, ev.grid, ev.solution
    n, N, d = grid.n, model.n_state, model.n_assets
    dt = grid.dt
    db, dw = correlate_drivers(z, model.corr)
    P = z.shape[0]
    band = sol.disc.band
    curve = np.tile(sol.g0s[None, :, :], (P, 1, 1))
    lam = np.zeros((P, n, d))
    prem = np.zeros((P, n, d))
    for k in range(n):
        yk = curve[:, k, :]
        z2 = 2.0 * curve[:, :n, :].reshape(P, n * N) @ maps[k]
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
        self.check_map(m, make_grid(0.6, 24), seed)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_map_matches_stepper_across_panels(self, N, d):
        """T spans one full panel and one cut panel, so the forward solve's column needs cross a panel edge."""
        m = random_model(np.random.default_rng(700 + 10 * N + d), N, d)
        g = make_grid(0.6, 80 // d)
        assert PANEL < (g.n - 1) * d < 2 * PANEL
        self.check_map(m, g, 2)

    @staticmethod
    def check_map(m, g, seed):
        ev = quadratic.QuadraticEvaluator(m, g)
        z = simulate_drivers(g, ev.n_factors, 64, seed)
        got = ev.premium_paths(z)
        want = stepper_premium_paths(ev, z, sweep_solution(m, g).z2_maps)
        assert got[3].shape == (64, g.n + 1, m.n_state)
        for name, a, b in zip(("db", "lam", "prem", "state"), got, want):
            assert a.shape == b.shape, name
            assert rel_err(a, b) <= 1e-10, name

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    def test_map_matches_stepper_on_short_grids(self, N, d, n):
        """At n = 2 the recursion over the m1 images is empty and the forward solve needs no rows."""
        self.check_map(random_model(np.random.default_rng(40 + 10 * N + d + n), N, d), make_grid(0.6, n), n)

    @pytest.mark.parametrize("which", ["two_asset", "negative_eta", "zero_eta"])
    def test_map_matches_stepper_on_edge_models(self, which):
        """Zero drift (the input's response is the kernel band alone), a negative eta and eta = 0."""
        if which == "two_asset":
            m, g = two_asset_model(theta=(0.65, 0.30)), make_grid(1.5, 300)
        else:
            base = random_model(np.random.default_rng(11), 2, 2)
            eta, drift = (-np.abs(base.eta), None) if which == "negative_eta" else (np.zeros((2, 2)), base.drift)
            m = QuadraticModel(kernel=base.kernel, theta=base.theta, eta=eta, corr=base.corr, drift=drift,
                               g0=base.g0, rate=base.rate, enforce_psd=False)
            g = make_grid(0.6, 40)
        assert np.any(m.drift) == (which == "zero_eta") and np.any(m.eta) == (which != "zero_eta")
        self.check_map(m, g, 3)

    def test_build_forms_no_fold(self, monkeypatch):
        """The map is built from lag bands: neither the folded kernel cells nor any fold is formed."""
        m, g = random_model(np.random.default_rng(12), 2, 2), make_grid(0.6, 24)
        sol = solve_operator_riccati(m, g)
        for name in ("fold", "folded_cells"):
            monkeypatch.setattr(quadratic, name, lambda *a, name=name: pytest.fail(f"{name} called"))
        QuadraticEvaluator(m, g, sol)


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
        khat = kernel_operator(g, m.n_state, _bd_right(dense_factors(disc)[0], m.f_mat, g.n))
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
                    [np.cos((j + 1) * g.nodes[:-1]) for j in range(m.n_state)], axis=1
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

    @pytest.mark.parametrize("n", [20, 40, 80])
    def test_roundoff_failure_is_not_a_blow_up(self, n):
        # m0_min_eig 0.43, so the exact solution cannot blow up; the explicit drift resolvent
        # grows on these grids until T's factorization fails where every margin still holds
        m = QuadraticModel(kernel=ExponentialKernel(0.416), theta=[[1.11]], eta=[[0.0048]], corr=[[0.536]],
                           drift=[[-19.15]], g0=0.547, rate=0.194)
        with pytest.raises(InternalConsistencyError) as exc:
            solve_operator_riccati(m, make_grid(14.2, n))
        assert not isinstance(exc.value, RiccatiBlowUpError)
        message = str(exc.value)
        assert "failed to roundoff, not the model" in message and "grid.n" in message
        margin = float(message.split("lambda_min ")[1].split()[0])
        assert margin >= RCOND_MIN
        assert solve_operator_riccati(m, make_grid(14.2, 160)).gamma0 > 0.0

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
        """Every node is read off the solution's one factor: no factorization or sweep runs again."""
        m = mixed_model()
        g = make_grid(0.8, 80)
        sol = solve_operator_riccati(m, g)
        curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(5).standard_normal((3, g.n, 2))
        # unsorted and repeated, on both sides of the first panel edge of T (79 d rows)
        nodes = [5, g.n - PANEL, 0, g.n, g.n - PANEL - 1, g.n // 2, 5]
        want = np.array([gamma_quadratic(sol, k, curves) for k in nodes])
        for name in ("_build_t", "_cholesky"):
            monkeypatch.setattr(quadratic, name, lambda *a: pytest.fail("factored again"))
        got = gamma_quadratic(sol, nodes, curves)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(gamma_quadratic(sol, nodes, curves[1]), want[:, 1], rtol=1e-12, atol=0.0)
        for k in (g.n - PANEL, g.n - PANEL - 1):
            psi = psi_full_matrix(m, g, k, sol.disc)
            assert rel_err(want[nodes.index(k)], quadratic_forms(sol, psi, k, curves)) <= 1e-10, k
        for bad in ([0, g.n + 1], [-1], g.n + 1, [], [[0, 1]], 2.0):
            with pytest.raises(InvalidArgumentError, match=rf"\[0, {g.n}\]"):
                gamma_quadratic(sol, bad, curves)

    def test_one_batch_takes_one_solve_and_no_reader_folds(self, monkeypatch):
        """Images that fit one batch take one triangular solve; the readers sweep m1's band and never fold it."""
        m = mixed_model()
        g = make_grid(0.8, 80)
        sol = solve_operator_riccati(m, g)
        curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(6).standard_normal((8, g.n, 2))
        tri_solve, solves, folds = quadratic._tri_solve, [], []
        monkeypatch.setattr(quadratic, "_tri_solve", lambda *a, **k: solves.append(a) or tri_solve(*a, **k))
        monkeypatch.setattr(quadratic, "fold", lambda *a, **k: folds.append(a) or fold(*a, **k))
        gamma_quadratic(sol, range(g.n + 1), sol.g0s[: g.n])
        assert len(solves) == 1
        gamma_quadratic(sol, [0, g.n // 2], curves)
        optimal_control_quadratic(m, sol, 3, curves, 1.0, 1.5)
        assert folds == []

    def test_reads_invert_no_panel(self, monkeypatch):
        """The solve inverts the factor's diagonal panels once; Gamma, the control and the premium map invert none."""
        m = mixed_model()
        g = make_grid(0.8, 80)  # T has 79 rows: a full panel and a cut one
        sol = solve_operator_riccati(m, g)
        curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(6).standard_normal((8, g.n, 2))
        first = gamma_quadratic(sol, [0, 5, g.n // 2], curves)
        monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: pytest.fail("a panel was inverted again"))
        np.testing.assert_array_equal(gamma_quadratic(sol, [0, 5, g.n // 2], curves), first)
        optimal_control_quadratic(m, sol, 3, curves, 1.0, 1.5)
        QuadraticEvaluator(m, g, sol)

    def test_forward_solve_gives_each_column_its_needed_rows(self):
        """A forward solve told each column's need matches the full solve on those rows, at and off panel edges."""
        sol = solve_operator_riccati(mixed_model(), make_grid(0.8, 150))
        size = sol.factor.shape[0]
        b = np.random.default_rng(8).standard_normal((size, 6))
        needed = np.array([size, 130, PANEL + 1, PANEL, PANEL - 1, 0])
        full = quadratic._tri_solve(sol.factor, b.copy())
        got = quadratic._tri_solve(sol.factor, b.copy(), needed=needed)
        for j, rows in enumerate(needed):
            np.testing.assert_allclose(got[:rows, j], full[:rows, j], rtol=1e-12, atol=1e-14)
        # a column is skipped from the first panel it needs none of, and its rows there stay as they were
        np.testing.assert_array_equal(got[PANEL:, 3:], b[PANEL:, 3:])
        np.testing.assert_array_equal(got[2 * PANEL :, 2], b[2 * PANEL :, 2])

    def test_batches_of_many_curves_read_as_node_by_node(self, monkeypatch):
        """More curves than N n at every node split into batches of at most (d n) max(P, N n) floats."""
        m = mixed_model()
        g = make_grid(0.8, 40)
        sol = solve_operator_riccati(m, g)
        P = 3 * g.n * m.n_state
        curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(7).standard_normal((P, g.n, 2))
        want = np.array([gamma_quadratic(sol, k, curves) for k in range(g.n + 1)])
        tri_solve, sizes = quadratic._tri_solve, []
        monkeypatch.setattr(quadratic, "_tri_solve", lambda c, b, **k: sizes.append(b.size) or tri_solve(c, b, **k))
        np.testing.assert_allclose(gamma_quadratic(sol, range(g.n + 1), curves), want, rtol=1e-12, atol=0.0)
        assert 1 < len(sizes) < g.n + 1
        assert max(sizes) <= m.n_assets * g.n * max(P, m.n_state * g.n)

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

    def test_control_wealth_vector_rows_equal_scalar_calls(self):
        m = mixed_model()
        g = make_grid(0.8, 24)
        sol = solve_operator_riccati(m, g)
        rng = np.random.default_rng(11)
        curves = sol.g0s[None, : g.n] + 0.1 * rng.standard_normal((4, g.n, 2))
        x_paths = rng.normal(1.0, 0.2, 4)
        rows = optimal_control_quadratic(m, sol, 6, curves, x_paths, 1.4)
        # the same curve stack, so only the wealth gap differs between the calls
        want = [optimal_control_quadratic(m, sol, 6, curves, x, 1.4)[p] for p, x in enumerate(x_paths)]
        np.testing.assert_array_equal(rows, want)

    def test_underflowing_curve_is_a_model_limit(self):
        m = QuadraticModel(kernel=FractionalKernel(0.25), theta=0.7, eta=1.0, corr=-0.5, drift=-0.3, g0=0.3)
        sol = solve_operator_riccati(m, make_grid(0.5, 20))
        with pytest.raises(GammaUnderflowError, match="underflows double precision"):
            gamma_quadratic(sol, 0, np.full((20, 1), 1e4))
        with pytest.raises(GammaUnderflowError, match="underflows double precision"):
            gamma_quadratic(sol, [0, 10], np.stack([sol.g0s[:20], np.full((20, 1), 1e4)]))

    @pytest.mark.parametrize("lenient", [False, True])
    def test_bound_breach_raises_unless_the_model_is_indefinite(self, lenient):
        m = two_asset_model() if lenient else mixed_model()
        assert m.psd_violated == lenient
        g = make_grid(0.5, 20)
        sol = solve_operator_riccati(m, g)
        lifted = dataclasses.replace(sol, phi=sol.phi + 1.0)  # Gamma_k > e^(2 int r) at every node
        if lenient:
            with pytest.warns(RuntimeWarning, match=r"bound: max ratio .*positive semidefiniteness"):
                gamma_quadratic(lifted, [0, 5], sol.g0s[: g.n])
        else:
            with pytest.raises(InternalConsistencyError, match=r"\(0, e\^\(2 int r\)\] bound"):
                gamma_quadratic(lifted, [0, 5], sol.g0s[: g.n])


CURVE_READERS = ["gamma_affine", "gamma_quadratic", "optimal_control_quadratic"]


def curve_reader(reader, n_cells):
    """(call on curve samples, rows, factors) of one curve reader of either family at node 0."""
    g = make_grid(0.5, n_cells)
    if reader == "gamma_affine":
        m = AffineModel(kernels=(FractionalKernel(0.3),), drift=-0.5, nu=0.3, rho=-0.5, theta=0.4, g0=0.04)
        return lambda c: gamma_affine(m, g, solve_riccati_volterra(m, g), c, 0), g.n + 1, 1
    m = mixed_model()
    sol = solve_operator_riccati(m, g)
    call = {"gamma_quadratic": lambda c: gamma_quadratic(sol, 0, c),
            "optimal_control_quadratic": lambda c: optimal_control_quadratic(m, sol, 0, c, 1.0, 1.5)}[reader]
    return call, g.n, 2


@pytest.mark.parametrize("reader", CURVE_READERS)
@pytest.mark.parametrize("shape", [lambda n, N: (n + 2, N), lambda n, N: (3, n, N + 1), lambda n, N: (n,),
                                   lambda n, N: (2, 3, n, N), lambda n, N: (), lambda n, N: (0, n, N)],
                         ids=["rows", "stack-factors", "flat", "nested-stack", "scalar", "empty-stack"])
def test_malformed_curve_samples_refused(reader, shape):
    """Both families refuse curve samples by one rule, whose message names the two shapes it takes."""
    call, n, N = curve_reader(reader, 8)
    with pytest.raises(InvalidArgumentError, match=rf"curve samples must be \({n}, {N}\) or \(P, {n}, {N}\)"):
        call(np.full(shape(n, N), 0.1))


@pytest.mark.parametrize("reader", CURVE_READERS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_curve_samples_refused(reader, bad):
    """A NaN or infinite sample is the caller's error, refused by the same rule before any reader reads it."""
    call, n, N = curve_reader(reader, 20)
    curves = np.full((2, n, N), 0.1)
    curves[1, n // 2, N - 1] = bad
    with pytest.raises(InvalidArgumentError, match="curve samples contain non-finite values"):
        call(curves)


@pytest.mark.parametrize("curves, x_t, message", [
    ((3,), np.ones(2), r"wealth must be one finite number or one per premium row, got shape \(2,\)"),
    ((3,), np.ones((3, 1)), r"got shape \(3, 1\)"),
    ((), [1.0, math.nan], "wealth must be one finite number"),
])
def test_quadratic_control_wealth_refused(curves, x_t, message):
    m = mixed_model()
    g = make_grid(0.8, 12)
    sol = solve_operator_riccati(m, g)
    with pytest.raises(InvalidArgumentError, match=message):
        optimal_control_quadratic(m, sol, 2, np.broadcast_to(sol.g0s[: g.n], curves + (g.n, 2)), x_t, 1.5)


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
def test_quadratic_control_target_refused(xi):
    m = mixed_model()
    g = make_grid(0.8, 12)
    sol = solve_operator_riccati(m, g)
    with pytest.raises(InvalidArgumentError, match="^xi_discounted contains non-finite values$"):
        optimal_control_quadratic(m, sol, 2, sol.g0s[: g.n], 1.0, xi)


def test_one_curve_serves_many_wealths():
    """One curve with P wealths gives P rows, each the call with its own wealth, as the affine control does."""
    m = mixed_model()
    g = make_grid(0.8, 12)
    sol = solve_operator_riccati(m, g)
    x_paths = np.array([1.0, 1.2, 0.7])
    rows = optimal_control_quadratic(m, sol, 5, sol.g0s[: g.n], x_paths, 1.5)
    np.testing.assert_array_equal(rows, [optimal_control_quadratic(m, sol, 5, sol.g0s[: g.n], x, 1.5)
                                         for x in x_paths])


def test_control_at_the_horizon_reads_the_last_slot():
    m = mixed_model()
    g = make_grid(0.8, 24)
    sol = solve_operator_riccati(m, g)
    curves = sol.g0s[None, : g.n] + 0.1 * np.random.default_rng(1).standard_normal((3, g.n, 2))
    with pytest.warns(RuntimeWarning, match="control requested at the horizon; using the last curve slot"):
        alpha = optimal_control_quadratic(m, sol, g.n, curves, 1.2, 1.5)
    # no volatility adjustment is left at the horizon: the amount is -Theta y (X - xi*) on the last slot
    np.testing.assert_array_equal(alpha, -(curves[:, -1] @ m.theta.T) * (1.2 - 1.5))


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
        monkeypatch.setattr(errors, "PHYS_MEM_BYTES", 10**4)
        with pytest.raises(MemoryCapError) as exc:
            lambda_max_covariance(scalar_model(), make_grid(1.0, 20), a=0.1)
        assert exc.value.limit == 10**4

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("kind", ["fractional", "exponential"])
    def test_covariance_gram_matches_dense_operator(self, kind, N, d):
        rng = np.random.default_rng(["fractional", "exponential"].index(kind) * 100 + 10 * N + d)
        g = make_grid(float(rng.uniform(0.5, 2.0)), 9)
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

    @staticmethod
    def one_factor_two_asset_model():
        """N = 1 < d = 2: the forward solve's images outnumber the state's columns."""
        return QuadraticModel(kernel=FractionalKernel(0.3), theta=np.array([[0.6], [0.3]]), eta=np.eye(1),
                              corr=np.array([[-0.5, 0.3]]), drift=np.array([[-0.4]]), g0=0.2)

    @pytest.mark.parametrize("which, n", [("two_asset", 200), ("one_factor", 400), ("one_factor_two_asset", 200)])
    def test_traced_peaks_within_guard(self, which, n, monkeypatch):
        m = {"two_asset": two_asset_model, "one_factor": self.one_factor_model,
             "one_factor_two_asset": self.one_factor_two_asset_model}[which]()
        g = make_grid(1.0, n)
        N, d = m.n_state, m.n_assets
        dense, solve_unit, curve_unit = 8 * (n * N) ** 2, 8 * (n * d) ** 2, 8 * n * n * d * N
        checked = {}  # the bytes each quadratic guard checks, by what it names
        monkeypatch.setattr(quadratic, "check_memory",
                            lambda what, need, advice: checked.update({what.split(" (")[0]: need}))
        many = np.full((2 * N * n, n, N), 0.2)  # more curves than N n: the curve unit is d n P floats
        many_unit = 8 * n * d * len(many)
        tracemalloc.start()
        try:
            lambda_max_covariance(m, g, a=0.1)
            _, cov_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            sol = solve_operator_riccati(m, g)
            held, solve_peak = tracemalloc.get_traced_memory()
            held -= before
            solve_peak -= before
            peaks = {}
            calls = [("map", lambda: QuadraticEvaluator(m, g, sol)),
                     ("gamma", lambda: gamma_quadratic(sol, [0, n // 2], sol.g0s[:n])),
                     ("control", lambda: optimal_control_quadratic(m, sol, n // 2, sol.g0s[:n], 1.0, 1.5)),
                     ("gamma_many", lambda: gamma_quadratic(sol, 0, many)),
                     ("control_many", lambda: optimal_control_quadratic(m, sol, 0, many, 1.0, 1.5)),
                     ("psi", lambda: psi_full_matrix(m, g, n // 2, sol.disc)),
                     ("residual", lambda: riccati_derivative_residual(m, g, n // 2, sol.disc))]
            for name, call in calls:
                tracemalloc.reset_peak()
                call()
                peaks[name] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert solve_peak <= quadratic.DENSE_ARRAYS * solve_unit
        assert held <= 1.1 * solve_unit  # the factor of T
        assert cov_peak <= quadratic.COVARIANCE_ARRAYS * dense
        assert peaks["map"] <= checked["the quadratic premium map"]  # the solution's factor and the build
        for name, unit in [("gamma", curve_unit), ("control", curve_unit), ("gamma_many", many_unit),
                           ("control_many", many_unit)]:
            assert peaks[name] - held <= quadratic.CURVE_ARRAYS * unit, name
        assert peaks["psi"] - held <= oracles.SWEEP_ARRAYS * dense + 8 * n * d * n * N  # and m1's fold
        assert peaks["residual"] - held <= oracles.RESIDUAL_ARRAYS * dense
        assert set(vars(sol.disc)) == {"band", "m1_band"}

    def test_solve_and_strategy_hold_no_state_sized_array(self, tmp_path):
        """N = 2, d = 1: quadratic-solve peaks at two (d n)^2 arrays, a half of one (N n)^2 array."""
        n = 400
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            f"grid: {{T: 1.0, n: {n}}}\n"
            "quadratic:\n"
            "  kernel: {type: diagonal, components: [{type: fractional, h: 0.2}, {type: exponential, beta: 1.0}]}\n"
            "  theta: [[0.5, 0.4]]\n  eta: [[1.0, 0.0], [0.0, 1.0]]\n  corr: [[-0.5], [0.3]]\n"
            "  drift: [[-0.4, 0.0], [0.1, -0.2]]\n  g0: [0.2, 0.1]\n"
            f"output: {{directory: \"{tmp_path / 'out'}\"}}\n"
        )
        kind, model = cli.cfgmod.build_model(cli.cfgmod.load_config(str(cfg)))
        assert (kind, model.n_state, model.n_assets) == ("quadratic", 2, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert cli.main(["quadratic-solve", "--config", str(cfg)]) == 0
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n**2  # (d n)^2 with d = 1; one (N n)^2 array would be 4 of them
        assert (tmp_path / "out" / "strategy.csv").exists()

    @pytest.mark.parametrize("name", ["solve", "psi_full_matrix", "boundary_relation_residual",
                                      "riccati_derivative_residual", "gamma_quadratic", "optimal_control_quadratic",
                                      "covariance", "premium_map"])
    def test_each_dense_user_checks_its_count(self, name, monkeypatch):
        """At its count of (n)^2 floats (N = d = 1) each dense user runs; one byte under, it refuses before allocating.

        The premium map counts arrays of its own shape, n x (2 n + 1), on top of the solution's (n - 1)^2 factor,
        and the Psi readers count the sweep's n x n fold of m1 apart from their arrays.

        The Psi readers are checked also when the caller passes the solution's ``disc``.
        """
        m, g = scalar_model(), make_grid(1.0, 8)
        sol = solve_operator_riccati(m, g)
        flat = np.ones((g.n, 1))
        count, call, (module, guarded) = {
            "solve": (quadratic.DENSE_ARRAYS, lambda: solve_operator_riccati(m, g), (quadratic, "_build_t")),
            "psi_full_matrix": (oracles.SWEEP_ARRAYS, lambda: psi_full_matrix(m, g, 3, sol.disc),
                                (oracles, "per_node_sweep")),
            "boundary_relation_residual": (oracles.SWEEP_ARRAYS,
                                           lambda: boundary_relation_residual(m, g, 3, flat, sol.disc),
                                           (oracles, "per_node_sweep")),
            "riccati_derivative_residual": (oracles.RESIDUAL_ARRAYS,
                                            lambda: riccati_derivative_residual(m, g, 3, sol.disc),
                                            (oracles, "per_node_sweep")),
            "gamma_quadratic": (quadratic.CURVE_ARRAYS, lambda: gamma_quadratic(sol, 3, flat),
                                (quadratic, "_curve_reads")),
            "optimal_control_quadratic": (quadratic.CURVE_ARRAYS,
                                          lambda: optimal_control_quadratic(m, sol, 3, flat, 1.0, 1.5),
                                          (quadratic, "_curve_reads")),
            "covariance": (quadratic.COVARIANCE_ARRAYS, lambda: lambda_max_covariance(m, g, a=0.1),
                           (quadratic, "folded_cells")),
            "premium_map": (quadratic.MAP_ARRAYS, lambda: QuadraticEvaluator(m, g, sol), (quadratic, "_premium_map")),
        }[name]
        n = g.n
        need = {"premium_map": 8 * ((n - 1) ** 2 + count * n * (2 * n + 1)), "psi_full_matrix": 8 * (count + 1) * n**2,
                "boundary_relation_residual": 8 * (count + 1) * n**2}.get(name, count * 8 * n**2)
        monkeypatch.setattr(errors, "PHYS_MEM_BYTES", need)
        call()
        monkeypatch.setattr(errors, "PHYS_MEM_BYTES", need - 1)
        monkeypatch.setattr(module, guarded, lambda *a, **k: pytest.fail("allocated over the limit"))
        with pytest.raises(MemoryCapError) as exc:
            call()
        assert exc.value.limit == need - 1


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


    def test_loadings_shape_refused(self):
        with pytest.raises(InvalidArgumentError, match=r"loadings must be \(1, 1, 1\), got \(2, 2, 1\)"):
            QuadraticModel(kernel=FractionalKernel(0.3), theta=0.5, eta=1.0, corr=-0.3, loadings=np.ones((2, 2, 1)))

    @pytest.mark.parametrize("change, message", [
        (dict(theta=np.ones((2, 3))), r"theta must be square for the matrix-state variant, got \(2, 3\)"),
        (dict(rho=[0.5, -1.5]), r"row correlations must lie in \[-1, 1\]"),
        (dict(kernel_scalar=ConstantKernel(np.eye(2))), "matrix-state variant expects a scalar base kernel"),
        (dict(g0_mat=np.ones((3, 3))), r"^g0 must be \(2, 2\), got \(3, 3\)$"),
        (dict(g0_mat=np.ones(4)), r"^g0 must be \(2, 2\), got \(1, 4\)$"),
        (dict(g0_mat=[[0.2, math.inf], [0.0, 0.2]]), "^g0 contains non-finite values$"),
    ])
    def test_wishart_refusals(self, change, message):
        args = dict(kernel_scalar=ExponentialKernel(beta=1.0), theta=0.4 * np.eye(2), eta=0.3 * np.eye(2),
                    rho=[-0.3, -0.2], g0_mat=0.2 * np.eye(2))
        with pytest.raises(InvalidArgumentError, match=message):
            wishart_model(**{**args, **change})

    def test_two_asset_pairs_take_one_number(self):
        one, pair = two_asset_model(hurst=0.3, eta=0.8, leverage=-0.5, theta=0.6), two_asset_model(
            hurst=(0.3, 0.3), eta=(0.8, 0.8), leverage=(-0.5, -0.5), theta=(0.6, 0.6))
        assert one.kernel == pair.kernel
        for name in ("theta", "eta", "corr", "loadings"):
            np.testing.assert_array_equal(getattr(one, name), getattr(pair, name))


class TestAssetPositions:
    def test_model_without_loadings_refused(self):
        with pytest.raises(InvalidArgumentError, match="model has no stock loadings"):
            asset_positions(mixed_model(), np.zeros((3, 2)), np.zeros((3, 1)))

    def test_batched_rows_equal_per_row_oracle_bit_for_bit(self):
        model = two_asset_model()
        rng = np.random.default_rng(5)
        y = rng.uniform(-1.0, 1.0, size=(400, 2))
        alpha = rng.standard_normal((400, 2))
        y[0:10] = 0.0  # sigma(0) = 0: exactly singular
        y[10:20] = [1.0e-14, 0.3]  # condition above 1e12
        y[20:25, 0] = np.nan
        y[25:30, 1] = np.inf
        alpha[30:35] = np.nan  # finite sigma, NaN amounts
        got = asset_positions(model, y, alpha)
        assert got.tobytes() == positions_per_row(model, y, alpha).tobytes()
        assert np.isnan(got[:35]).all()
        assert np.isfinite(got[35:]).all()


SCALAR_KERNELS = st.one_of(st.builds(FractionalKernel, st.floats(0.05, 0.95)),
                           st.builds(ExponentialKernel, st.floats(0.1, 3.0)),
                           st.builds(ConstantKernel, st.floats(0.2, 2.0)))


def _matrix(draw, rows, cols, low, high):
    return np.array([[draw(st.floats(low, high)) for _ in range(cols)] for _ in range(rows)])


@st.composite
def psd_quadratic_instances(draw):
    """Small quadratic models (N, d <= 2, n <= 16) with random kernels, drift, rate and curve."""
    N, d = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    kernels = [draw(SCALAR_KERNELS) for _ in range(N)]
    corr = _matrix(draw, N, d, -1.0, 1.0)
    corr *= draw(st.floats(0.0, 0.7)) / max(float(np.linalg.norm(corr, axis=1).max()), 1e-12)
    try:
        model = QuadraticModel(
            kernel=DiagonalKernel(kernels) if N > 1 else kernels[0],
            theta=_matrix(draw, d, N, -1.0, 1.0),
            eta=_matrix(draw, N, N, -1.5, 1.5),
            corr=corr,
            drift=_matrix(draw, N, N, -1.0, 0.5),
            g0=_matrix(draw, 1, N, -1.0, 1.0)[0],
            rate=draw(st.floats(0.0, 0.05)),
        )
    except ModelAssumptionError:  # the deflated covariance is indefinite: not an instance
        assume(False)
    return model, make_grid(draw(st.floats(0.1, 1.5)), draw(st.integers(2, 16)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(instance=psd_quadratic_instances())
def test_random_psd_instances_keep_psi_nonpositive_and_gamma0_bounded(instance):
    model, grid = instance
    sol = solve_operator_riccati(model, grid)
    assert 0.0 < sol.gamma0 <= math.exp(2.0 * integrated_rate(model.rate, grid))
    for k in (0, grid.n // 2, grid.n):
        lam = np.linalg.eigvalsh(psi_full_matrix(model, grid, k, sol.disc))
        assert lam[-1] <= 1e-12 * np.abs(lam).max(), k
