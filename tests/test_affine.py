"""Affine forward-variance models and their Riccati-Volterra solver."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vmk import (
    AffineEvaluator,
    AffineModel,
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    GammaUnderflowError,
    InternalConsistencyError,
    InvalidArgumentError,
    RiccatiBlowUpError,
    gamma0_affine,
    make_grid,
    mean_reversion_a_bound,
    solve_riccati_volterra,
    theta_condition_check_affine,
)
import vmk.montecarlo
from vmk import affine
from vmk.affine import (
    _band_diag,
    gamma_affine,
    optimal_control_affine,
    premium_loading,
    riccati_F,
    simulate_forward_variance,
)
from vmk.grid import g0_nodes
from vmk.markowitz import integrated_rate
from vmk.montecarlo import simulate_drivers

from oracles import correlate_drivers, mean_forward_variance

TANH1 = 0.7615941559557649


def tanh_model(v0=0.8):
    # constant unit kernel turns the Volterra equation into psi' = psi^2 - 1
    return AffineModel(
        kernels=(ConstantKernel(np.array([[1.0]])),),
        drift=np.zeros((1, 1)),
        nu=np.sqrt(2.0),
        rho=0.0,
        theta=1.0,
        g0=v0,
    )


class TestRiccatiSolver:
    def test_hyperbolic_tangent_solution(self):
        model = tanh_model()
        grid = make_grid(1.0, 1000)
        psi = solve_riccati_volterra(model, grid)
        assert psi.shape == (1001, 1)
        assert psi[0, 0] == 0.0
        assert abs(psi[-1, 0] + TANH1) < 1e-6
        np.testing.assert_allclose(psi[:, 0], -np.tanh(grid.nodes), atol=1e-6)

    def test_order_of_accuracy_exceeds_one(self):
        model = tanh_model()
        errs = []
        for n in (100, 200, 400):
            psi = solve_riccati_volterra(model, make_grid(1.0, n))
            errs.append(abs(psi[-1, 0] + TANH1))
        rate1 = math.log2(errs[0] / errs[1])
        rate2 = math.log2(errs[1] / errs[2])
        assert rate1 > 1.7 and rate2 > 1.7

    def test_vector_field_formula(self):
        model = AffineModel(
            kernels=(FractionalKernel(0.6), ExponentialKernel(beta=1.0)),
            drift=np.array([[-1.0, 0.5], [0.2, -2.0]]),
            nu=[0.3, 0.4],
            rho=[-0.5, 0.1],
            theta=[0.8, 1.2],
            g0=0.1,
        )
        psi = np.array([-0.3, 0.2])
        got = riccati_F(model, psi)
        for i in range(2):
            th, rho, nu = model.theta[i], model.rho[i], model.nu[i]
            want = (
                -th * th
                - 2.0 * th * rho * nu * psi[i]
                + float(model.drift.T[i] @ psi)
                + 0.5 * nu * nu * (1.0 - 2.0 * rho * rho) * psi[i] ** 2
            )
            assert got[i] == pytest.approx(want, rel=1e-13)

    def test_zero_risk_premium_keeps_psi_zero(self):
        model = AffineModel(
            kernels=(FractionalKernel(0.25),),
            drift=np.array([[-0.5]]),
            nu=0.4,
            rho=-0.3,
            theta=0.0,
            g0=0.05,
        )
        psi = solve_riccati_volterra(model, make_grid(1.0, 50))
        np.testing.assert_allclose(psi, 0.0, atol=1e-15)

    def test_blow_up_detected_beyond_leverage_threshold(self):
        with pytest.warns(RuntimeWarning):
            model = AffineModel(
                kernels=(ConstantKernel(np.array([[1.0]])),),
                drift=np.zeros((1, 1)),
                nu=2.0,
                rho=-0.9,
                theta=1.5,
                g0=0.3,
            )
        with pytest.raises(RiccatiBlowUpError) as exc:
            solve_riccati_volterra(model, make_grid(3.0, 600))
        assert 0.0 < exc.value.time < 3.0


class TestForwardVariance:
    def test_mean_curve_solves_linear_ode(self):
        kappa, v0 = 1.3, 0.2
        model = AffineModel(
            kernels=(ConstantKernel(np.array([[1.0]])),),
            drift=np.array([[-kappa]]),
            nu=0.5,
            rho=-0.4,
            theta=0.7,
            g0=v0,
        )
        grid = make_grid(1.0, 2000)
        ev = mean_forward_variance(model, grid)
        want = v0 * np.exp(-kappa * grid.nodes[:-1])
        np.testing.assert_allclose(ev[:, 0], want, rtol=2e-3)

    def test_noiseless_paths_match_mean_curve(self):
        model = AffineModel(
            kernels=(ExponentialKernel(beta=2.0), FractionalKernel(0.75)),
            drift=np.array([[-1.0, 0.3], [0.0, -0.5]]),
            nu=0.0,
            rho=0.0,
            theta=[0.5, 0.5],
            g0=[0.2, 0.1],
        )
        grid = make_grid(1.0, 300)
        dw = np.zeros((1, grid.n, 2))
        v = simulate_forward_variance(model, grid, dw)
        ev = mean_forward_variance(model, grid)
        np.testing.assert_allclose(v[0, :-1, :], ev, rtol=1e-10, atol=1e-14)

    def test_truncation_keeps_dynamics_finite(self):
        model = AffineModel(
            kernels=(FractionalKernel(0.25),),
            drift=np.array([[-1.0]]),
            nu=1.5,
            rho=-0.5,
            theta=0.8,
            g0=0.04,
        )
        grid = make_grid(1.0, 64)
        z = simulate_drivers(grid, 2, paths=32, seed=5)
        _, dw = correlate_drivers(z, np.diag(model.rho))
        v = simulate_forward_variance(model, grid, dw)
        assert np.all(np.isfinite(v))
        # negative excursions exist but never feed the square root
        assert v.min() < 0.0

    def test_increment_correlation_structure(self):
        model = AffineModel(
            kernels=(ConstantKernel(np.array([[1.0]])), ConstantKernel(np.array([[1.0]]))),
            drift=np.zeros((2, 2)),
            nu=[0.3, 0.3],
            rho=[-0.6, 0.2],
            theta=[0.5, 0.5],
            g0=0.1,
        )
        rng = np.random.default_rng(21)
        z = rng.standard_normal((4, 10, 4))
        db, dw = correlate_drivers(z, np.diag(model.rho))
        np.testing.assert_allclose(db, z[:, :, :2], atol=0.0)
        for i, rho in enumerate((-0.6, 0.2)):
            want = rho * z[:, :, i] + math.sqrt(1.0 - rho * rho) * z[:, :, 2 + i]
            np.testing.assert_allclose(dw[:, :, i], want, rtol=1e-15)

    @pytest.mark.parametrize("shape", [(2, 20), (2, 19, 1), (2, 20, 2)])
    def test_malformed_increments_refused(self, shape):
        model = AffineModel(kernels=(FractionalKernel(0.3),), drift=None, nu=0.3, rho=-0.5, theta=0.4, g0=0.04)
        with pytest.raises(InvalidArgumentError, match=r"dw must have shape \(P, 20, 1\)"):
            simulate_forward_variance(model, make_grid(1.0, 20), np.zeros(shape))

    def test_stepper_holds_one_block_of_lag_indices(self):
        """The stepper's traced peak is its padded drivers and curve, one slot block's lag indices and gathered
        kernel rows (2 n floats per slot) and the kernel weights; the previous block's indices are freed first."""
        n, paths = 1600, 2
        model = AffineModel(kernels=(FractionalKernel(0.1),), drift=None, nu=0.3, rho=-0.5, theta=0.4, g0=0.04)
        grid = make_grid(1.0, n)
        dw = np.random.default_rng(0).standard_normal((paths, n, 1)) * math.sqrt(grid.dt)
        simulate_forward_variance(model, grid, dw)  # warm numpy's caches
        tracemalloc.start()
        try:
            simulate_forward_variance(model, grid, dw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        padded = vmk.montecarlo._padded(paths)
        arrays = 8 * (2 * (n + 1) * padded + 2 * vmk.montecarlo._SLOT_BLOCK * n + n)
        assert peak <= arrays + 2**14, (peak, arrays)


def stepper_forward_variance(model, grid, dw):
    """Oracle: the whole-curve stepper that the slot-blocked one replaced.

    Step j adds c/dt times its increment u_j to every later slot of the
    full (P, n+1, d) curve.
    """
    P = dw.shape[0]
    n, d = grid.n, model.dim
    c = _band_diag(model, grid)
    dt = grid.dt
    curve = np.tile(g0_nodes(model.g0, grid, d)[None, :, :], (P, 1, 1))
    for j in range(n):
        vplus = np.maximum(curve[:, j, :], 0.0)
        incr = vplus @ model.drift.T * dt + model.nu[None, :] * np.sqrt(vplus) * dw[:, j, :]
        curve[:, j + 1 :, :] += c[None, : n - j, :] / dt * incr[:, None, :]
    return curve


def oracle_case(model, n, paths, seed):
    grid = make_grid(1.0, n)
    _, dw = correlate_drivers(simulate_drivers(grid, 2 * model.dim, paths, seed), np.diag(model.rho))
    return simulate_forward_variance(model, grid, dw), stepper_forward_variance(model, grid, dw)


class TestStepperOracle:
    TRUNCATING = AffineModel(kernels=(FractionalKernel(0.25),), drift=np.array([[-1.0]]),
                             nu=1.5, rho=-0.5, theta=0.8, g0=0.04)
    CURVED = AffineModel(kernels=(ExponentialKernel(beta=2.0),), drift=-0.3, nu=0.5,
                         rho=0.3, theta=0.8, g0=lambda t: 0.1 + 0.05 * t)
    TWO_FACTOR = AffineModel(
        kernels=(ExponentialKernel(beta=2.0), FractionalKernel(0.75)),
        drift=np.array([[-1.0, 0.3], [0.2, -0.5]]),
        nu=[0.2, 0.1], rho=[-0.5, 0.2], theta=[0.5, 0.4], g0=[0.2, 0.1],
    )

    # n on and off the edges of the old 16-slot and the current 32-slot block
    @pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 65, 100])
    @pytest.mark.parametrize("paths", [1, 5, 64])
    @pytest.mark.parametrize("which", ["TRUNCATING", "CURVED"])
    def test_one_factor_bit_identical(self, which, n, paths):
        # Bit-identical while one block holds the whole curve.  Once the
        # history is a GEMM, BLAS sums it in another order and the last bits
        # move; on truncating paths sqrt(V+) near zero amplifies those moves
        # (up to 2e-11 normwise at n = 100), so they get the 1e-10 bound.
        got, want = oracle_case(getattr(self, which), n, paths, seed=n + paths)
        assert got.shape == (paths, n + 1, 1)
        if n + 1 <= affine._SLOT_BLOCK:
            np.testing.assert_array_equal(got, want)
        else:
            tol = 1e-10 if which == "TRUNCATING" else 1e-12
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    def test_oracle_cases_truncate(self):
        got, _ = oracle_case(self.TRUNCATING, 33, 64, seed=97)
        assert got.min() < 0.0

    @pytest.mark.parametrize("n", [16, 33, 100])
    def test_two_factor_to_roundoff(self, n):
        # the drift product is a fixed-order column sum, not BLAS: last-bit moves
        got, want = oracle_case(self.TWO_FACTOR, n, 64, seed=n)
        assert want.min() > 0.0
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_workload_size_to_roundoff(self):
        # the benchmark's affine model and grid: 13 blocks, the last of 17 slots
        model = AffineModel(kernels=(FractionalKernel(0.1),), drift=-1.0, nu=0.4, rho=-0.5,
                            theta=0.8, g0=0.16, rate=0.02)
        got, want = oracle_case(model, 400, 64, seed=3)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def kd4_mean_forward_variance(model, grid):
    """Oracle: E V = g0 + (K D) E V solved densely against a hand-built block Toeplitz K D."""
    n, d = grid.n, model.dim
    c = _band_diag(model, grid)
    kd4 = np.zeros((n, d, n, d))
    for m in range(n - 1):
        i = np.arange(m + 1, n)
        kd4[i, :, i - m - 1, :] = np.diag(c[m]) @ model.drift
    kd = kd4.reshape(n * d, n * d)
    g0 = g0_nodes(model.g0, grid, model.dim)[:-1].reshape(n * d)
    return np.linalg.solve(np.eye(n * d) - kd, g0).reshape(n, d)


class TestMeanCurveOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_dense_toeplitz_solve(self, d, seed):
        rng = np.random.default_rng(10 * d + seed)
        kinds = [FractionalKernel(float(rng.uniform(0.1, 0.9))), ExponentialKernel(beta=float(rng.uniform(0.2, 2.0)))]
        model = AffineModel(
            kernels=tuple(kinds[(seed + i) % 2] for i in range(d)),
            drift=-np.diag(rng.uniform(0.2, 1.5, size=d)) + rng.uniform(0.0, 0.3, size=(d, d)) * (1 - np.eye(d)),
            nu=0.5, rho=-0.5, theta=0.6, g0=rng.uniform(0.05, 0.3, size=d),
        )
        grid = make_grid(float(rng.uniform(0.5, 2.0)), int(rng.integers(40, 120)))
        want = kd4_mean_forward_variance(model, grid)
        got = mean_forward_variance(model, grid)
        assert got.shape == (grid.n, d)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestGammaAndControls:
    def test_gamma0_underflow_reported_as_model_limit(self):
        # Gamma_0 = exp(-1014) underflows: a model limit, as in the quadratic family
        model = AffineModel(kernels=(FractionalKernel(0.1),), drift=-1.0, nu=0.0, rho=0.0, theta=60.0, g0=0.5)
        grid = make_grid(1.0, 50)
        with pytest.raises(GammaUnderflowError, match=r"Gamma = exp\(-1014\) underflows double precision"):
            gamma0_affine(model, grid, solve_riccati_volterra(model, grid))

    def test_gamma0_closed_form(self):
        # Gamma_0 = exp(v0 psi(T)) when the kernel is constant and rates vanish
        v0 = 0.8
        model = tanh_model(v0)
        grid = make_grid(1.0, 1000)
        psi = solve_riccati_volterra(model, grid)
        gamma0 = gamma0_affine(model, grid, psi)
        assert gamma0 == pytest.approx(math.exp(-v0 * TANH1), rel=1e-3)
        assert 0.0 < gamma0 < 1.0

    def test_gamma_terminal_value_is_discount_bound(self):
        model = tanh_model()
        grid = make_grid(1.0, 100)
        psi = solve_riccati_volterra(model, grid)
        g = g0_nodes(model.g0, grid, model.dim)
        assert gamma_affine(model, grid, psi, g, grid.n) == pytest.approx(1.0)

    @pytest.mark.parametrize("rows, factors", [(8, 1), (14, 1), (9, 2), (9, 0)])
    @pytest.mark.parametrize("paths", [None, 3])
    def test_gamma_refuses_curves_off_the_grid(self, rows, factors, paths):
        model = tanh_model()
        grid = make_grid(1.0, 8)
        psi = solve_riccati_volterra(model, grid)
        curve = np.full((rows, factors) if paths is None else (paths, rows, factors), 0.04)
        with pytest.raises(InvalidArgumentError, match=r"\(9, 1\) or \(P, 9, 1\)"):
            gamma_affine(model, grid, psi, curve, 0)

    def test_gamma_above_its_bound_is_refused(self):
        # F(psi) < 0 on the tanh model, so a negative curve lifts Gamma_0 above e^(2 int r) = 1
        model = tanh_model()
        grid = make_grid(1.0, 64)
        psi = solve_riccati_volterra(model, grid)
        curve = -g0_nodes(model.g0, grid, model.dim)
        with pytest.raises(InternalConsistencyError, match=r"\(0, e\^\(2 int r\)\] bound: max ratio"):
            gamma_affine(model, grid, psi, curve, 0)

    def test_premium_loading_terminal_is_theta(self):
        model = tanh_model()
        grid = make_grid(1.0, 64)
        psi = solve_riccati_volterra(model, grid)
        load_t = premium_loading(model, psi, grid, grid.n)
        np.testing.assert_allclose(load_t, model.theta, atol=1e-14)
        load_0 = premium_loading(model, psi, grid, 0)
        # rho = 0 keeps the loading at theta for every horizon
        np.testing.assert_allclose(load_0, model.theta, atol=1e-14)

    def test_control_scales_with_wealth_gap(self):
        model = tanh_model()
        grid = make_grid(1.0, 64)
        psi = solve_riccati_volterra(model, grid)
        v_t = np.array([0.09])
        a1 = optimal_control_affine(model, psi, grid, 10, v_t, x_t=1.0, xi_discounted=1.5)
        a2 = optimal_control_affine(model, psi, grid, 10, v_t, x_t=2.0, xi_discounted=1.5)
        load = premium_loading(model, psi, grid, 10)
        np.testing.assert_allclose(a1, -load * 0.3 * (1.0 - 1.5), rtol=1e-13)
        np.testing.assert_allclose(a2 - a1, -load * 0.3, rtol=1e-12)

    def test_wealth_vector_rows_equal_scalar_calls(self):
        model = AffineModel(kernels=(FractionalKernel(0.3), ExponentialKernel(1.0)), drift=np.diag([-0.5, -1.0]),
                            nu=[0.3, 0.5], rho=[-0.5, 0.2], theta=[0.4, 0.6], g0=[0.04, 0.09])
        grid = make_grid(1.0, 32)
        psi = solve_riccati_volterra(model, grid)
        rng = np.random.default_rng(7)
        v_paths = rng.normal(0.05, 0.05, (5, 2))  # some negative, read as 0
        x_paths = rng.normal(1.0, 0.2, 5)
        rows = optimal_control_affine(model, psi, grid, 9, v_paths, x_paths, 1.3)
        want = [optimal_control_affine(model, psi, grid, 9, v, x, 1.3) for v, x in zip(v_paths, x_paths)]
        np.testing.assert_array_equal(rows, want)
        shared = optimal_control_affine(model, psi, grid, 9, v_paths[0], x_paths, 1.3)  # one variance, many wealths
        np.testing.assert_array_equal(shared, [optimal_control_affine(model, psi, grid, 9, v_paths[0], x, 1.3)
                                               for x in x_paths])


    @pytest.mark.parametrize("v_t, x_t, message", [
        ([math.nan, 0.04], 1.0, "curve samples contain non-finite values"),
        ([0.04, 0.04, 0.04], 1.0, r"curve samples must be \(2,\) or \(P, 2\)"),
        (np.full((5, 2), 0.04), np.ones(4), r"wealth must be one finite number or one per premium row, got shape \(4"),
        (np.full((5, 2), 0.04), np.ones((5, 1)), r"wealth must be .* got shape \(5, 1\)"),
        ([0.04, 0.04], math.inf, "wealth must be one finite number"),
    ])
    def test_control_inputs_refused(self, v_t, x_t, message):
        self.refused(v_t, x_t, 1.3, message)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf])
    def test_non_finite_target_refused(self, xi):
        self.refused([0.04, 0.04], 1.0, xi, "^xi_discounted contains non-finite values$")

    @staticmethod
    def refused(v_t, x_t, xi, message):
        model = AffineModel(kernels=(FractionalKernel(0.3), ExponentialKernel(1.0)), drift=None, nu=0.3, rho=-0.5,
                            theta=0.4, g0=0.04)
        grid = make_grid(1.0, 16)
        psi = solve_riccati_volterra(model, grid)
        with pytest.raises(InvalidArgumentError, match=message):
            optimal_control_affine(model, psi, grid, 3, v_t, x_t, xi)


class TestDiagnostics:
    def test_theta_condition_report(self):
        model = tanh_model()
        grid = make_grid(1.0, 400)
        psi = solve_riccati_volterra(model, grid)
        rep = theta_condition_check_affine(model, grid, psi, a=500.0, p=3.0)
        assert rep["lhs"] == pytest.approx(1.0 + 2.0 * TANH1**2, rel=1e-4)
        assert rep["a_of_p"] == pytest.approx(198.0)
        assert rep["rhs"] == pytest.approx(500.0 / 198.0)
        assert rep["satisfied"]
        assert rep["g0_positive_somewhere"]

    def test_mean_reversion_bound(self):
        assert mean_reversion_a_bound(2.0, 0.5) == pytest.approx(8.0)
        with pytest.raises(InvalidArgumentError):
            mean_reversion_a_bound(-1.0, 0.5)
        with pytest.raises(InvalidArgumentError):
            mean_reversion_a_bound(1.0, 0.0)

    def test_model_validation(self):
        with pytest.raises(InvalidArgumentError):
            AffineModel(kernels=(), drift=np.zeros((0, 0)), nu=[], rho=[], theta=[], g0=0.1)
        with pytest.raises(InvalidArgumentError):
            AffineModel(
                kernels=(FractionalKernel(0.3), FractionalKernel(0.4)),
                drift=np.array([[-1.0, -0.2], [0.1, -1.0]]),
                nu=[0.1, 0.1],
                rho=[0.0, 0.0],
                theta=[0.5, 0.5],
                g0=0.1,
            )
        with pytest.raises(InvalidArgumentError):
            AffineModel(
                kernels=(FractionalKernel(0.3),),
                drift=np.array([[-1.0]]),
                nu=-0.1,
                rho=0.0,
                theta=0.5,
                g0=0.1,
            )
        with pytest.raises(InvalidArgumentError):
            AffineModel(
                kernels=(FractionalKernel(0.3),),
                drift=np.array([[-1.0]]),
                nu=0.1,
                rho=1.2,
                theta=0.5,
                g0=0.1,
            )
        with pytest.raises(InvalidArgumentError, match="affine kernels must be scalar"):
            AffineModel(kernels=(ConstantKernel(np.eye(2)),), drift=None, nu=0.3, rho=0.0, theta=0.4, g0=0.04)


class TestEvaluator:
    def test_premium_paths_shapes_and_loading(self):
        model = tanh_model()
        grid = make_grid(1.0, 32)
        ev = AffineEvaluator(model, grid)
        assert ev.n_factors == 2
        z = simulate_drivers(grid, ev.n_factors, paths=5, seed=2)
        db, lam, prem, v = ev.premium_paths(z)
        assert db.shape == (5, 32, 1)
        assert lam.shape == (5, 32, 1)
        assert prem.shape == (5, 32, 1)
        vplus = np.maximum(v[:, :-1, :], 0.0)
        np.testing.assert_allclose(lam, model.theta * np.sqrt(vplus), atol=1e-14)
        # rho = 0: premium loading equals theta at every node
        np.testing.assert_allclose(prem, lam, atol=1e-12)

    def test_premium_paths_equal_the_whole_chunk_stages(self):
        # dW correlated slot block by slot block into the stepper's buffer,
        # sqrt(V+) in lambda's buffer: the same bits as the public stages
        model = AffineModel(
            kernels=(ExponentialKernel(beta=2.0), FractionalKernel(0.75)),
            drift=np.array([[-1.0, 0.3], [0.2, -0.5]]),
            nu=[0.4, 0.3], rho=[-0.5, 0.2], theta=[0.5, 0.4], g0=[0.2, 0.1],
        )
        grid = make_grid(1.0, 2 * affine._SLOT_BLOCK + 7)
        ev = AffineEvaluator(model, grid)
        z = simulate_drivers(grid, ev.n_factors, paths=13, seed=4)
        db, lam, prem, v = ev.premium_paths(z)
        want_db, dw = correlate_drivers(z, np.diag(model.rho))
        want_v = simulate_forward_variance(model, grid, dw)
        sqv = np.sqrt(np.maximum(want_v[:, : grid.n, :], 0.0))
        np.testing.assert_array_equal(db, want_db)
        np.testing.assert_array_equal(v, want_v)
        np.testing.assert_array_equal(lam, model.theta * sqv)
        np.testing.assert_array_equal(prem, ev.loadings * sqv)


SCALAR_KERNELS = st.one_of(st.builds(FractionalKernel, st.floats(0.05, 0.95)),
                           st.builds(ExponentialKernel, st.floats(0.1, 3.0)),
                           st.builds(ConstantKernel, st.floats(0.2, 2.0)))


@st.composite
def affine_instances(draw):
    """Small affine models (d <= 2, n <= 16): |rho| <= 1/sqrt(2), nonnegative curve, mutually exciting drift."""
    d = draw(st.integers(1, 2))
    per_factor = lambda low, high: np.array([draw(st.floats(low, high)) for _ in range(d)])
    drift = np.diag(per_factor(-2.0, 0.5))
    if d == 2:
        drift[0, 1], drift[1, 0] = per_factor(0.0, 0.5)
    model = AffineModel(
        kernels=tuple(draw(SCALAR_KERNELS) for _ in range(d)),
        drift=drift,
        nu=per_factor(0.0, 1.5),
        rho=per_factor(-0.7, 0.7),
        theta=per_factor(-1.0, 1.0),
        g0=per_factor(0.0, 1.0),
        rate=draw(st.floats(0.0, 0.05)),
    )
    return model, make_grid(draw(st.floats(0.1, 1.5)), draw(st.integers(2, 16)))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(instance=affine_instances())
def test_random_instances_keep_gamma0_bounded(instance):
    model, grid = instance
    gamma0 = gamma0_affine(model, grid, solve_riccati_volterra(model, grid))
    assert 0.0 < gamma0 <= math.exp(2.0 * integrated_rate(model.rate, grid))
