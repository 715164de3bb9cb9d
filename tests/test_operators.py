"""The Volterra solve against dense solves, and the star calculus oracle: composition and resolvents."""

import numpy as np
import pytest
import scipy.linalg

from vmk import (
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    InvalidArgumentError,
    QuadraticModel,
    SingularOperatorError,
    TableKernel,
    lambda_max_covariance,
    make_grid,
)
from vmk import quadratic
from vmk.kernels import folded_cells
from vmk.operators import _bd_right, _volterra_solve

from oracles import (COND_LIMIT, IntegralOperator, adjoint, discretize, full_matrix, identity_operator,
                     invert_id_minus, kernel_operator, kernel_value, l2_inner, op_apply, resolvent, star)


def random_instance(rng):
    horizon = float(rng.uniform(0.5, 2.0))
    n = int(rng.integers(20, 60))
    grid = make_grid(horizon, n)
    kind = rng.integers(0, 5)
    if kind == 0:
        kern = FractionalKernel(float(rng.uniform(0.1, 1.0)), scale=float(rng.uniform(0.2, 1.0)))
    elif kind == 1:
        kern = ExponentialKernel(beta=float(rng.uniform(0.0, 3.0)), scale=float(rng.uniform(0.2, 1.0)))
    elif kind == 2:
        N = int(rng.integers(1, 4))
        kern = ConstantKernel(rng.standard_normal((N, N)) * 0.5, volterra=bool(rng.integers(0, 2)))
    elif kind == 3:
        parts = [
            FractionalKernel(float(rng.uniform(0.1, 1.0))),
            ExponentialKernel(beta=float(rng.uniform(0.0, 2.0))),
        ]
        kern = DiagonalKernel(parts[: int(rng.integers(1, 3))])
    else:
        vals = rng.standard_normal((n, n)) * 0.5
        kern = TableKernel(grid, vals, volterra=bool(rng.integers(0, 2)))
    return discretize(kern, grid)


def random_volterra_kernel(rng, kind, N, grid):
    """Fractional, exponential or tabulated Volterra kernel of dimension N."""
    if kind == "table":
        return TableKernel(grid, 0.5 * rng.standard_normal((grid.n, grid.n, N, N)), volterra=True)
    if kind == "fractional":
        comps = [FractionalKernel(float(rng.uniform(0.1, 0.9))) for _ in range(N)]
    else:
        comps = [ExponentialKernel(beta=float(rng.uniform(0.2, 2.0))) for _ in range(N)]
    return comps[0] if N == 1 else DiagonalKernel(comps)


def lu_resolvent_fold(grid):
    """Oracle drift fold K -> K + R * K through the LU resolvent of the kernel operator K D."""

    def fold(a, m, rhs, n, trans=False):
        assert not trans
        kd = kernel_operator(grid, m.shape[0], _bd_right(a, m, n))
        return rhs + resolvent(kd).kernel @ rhs

    return fold


KINDS = ["fractional", "exponential", "table"]


class TestVolterraSolve:
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_dense_solve(self, kind, N, d, trans):
        rng = np.random.default_rng(KINDS.index(kind) * 100 + 10 * N + d)
        grid = make_grid(float(rng.uniform(0.5, 1.5)), 16)
        n = grid.n
        a = folded_cells(random_volterra_kernel(rng, kind, N, grid), grid)
        drift = -0.5 * np.eye(N) + 0.3 * rng.standard_normal((N, N))
        rhs = rng.standard_normal((N * n, d * n))
        dense = np.eye(N * n) - a @ np.kron(np.eye(n), drift)
        want = scipy.linalg.solve_triangular(dense, rhs, trans="T" if trans else "N", lower=True)
        for order in ("C", "F"):
            got = _volterra_solve(a, drift, np.array(rhs, order=order), n, trans=trans)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_drift_returns_rhs(self):
        rng = np.random.default_rng(3)
        grid = make_grid(1.0, 12)
        a = folded_cells(random_volterra_kernel(rng, "fractional", 2, grid), grid)
        rhs = rng.standard_normal((24, 5))
        got = _volterra_solve(a, np.zeros((2, 2)), rhs.copy(), grid.n)
        assert np.array_equal(got, rhs)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("kind", KINDS)
    def test_covariance_drift_fold_matches_resolvent_route(self, monkeypatch, kind, N, d):
        rng = np.random.default_rng(KINDS.index(kind) * 100 + 10 * N + d + 50)
        grid = make_grid(1.0, 12)
        model = QuadraticModel(
            kernel=random_volterra_kernel(rng, kind, N, grid),
            theta=rng.uniform(-0.8, 0.8, size=(d, N)),
            eta=np.eye(N) + 0.3 * rng.standard_normal((N, N)),
            corr=0.4 * rng.uniform(-1.0, 1.0, size=(N, d)) / d,
            drift=-0.5 * np.eye(N) + 0.2 * rng.standard_normal((N, N)),
            enforce_psd=False,
        )
        got = lambda_max_covariance(model, grid, a=0.1)
        monkeypatch.setattr(quadratic, "_volterra_solve", lu_resolvent_fold(grid))
        want = lambda_max_covariance(model, grid, a=0.1)
        for key in ("lambda1", "trace"):
            assert abs(got[key] - want[key]) <= 1e-10 * abs(want[key])


class TestResolventIdentities:
    def test_random_instance_suite(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = random_instance(rng)
            r = resolvent(a)
            fixed_point = np.max(np.abs(r.kernel - a.kernel - a.kernel @ r.kernel))
            assert fixed_point <= 1e-10

            inv = invert_id_minus(a)
            id_minus = IntegralOperator(a.grid, a.dim, -a.kernel, np.eye(a.dim))
            prod = star(id_minus, inv)
            assert np.max(np.abs(prod.kernel)) <= 1e-10
            np.testing.assert_allclose(prod.ident, np.eye(a.dim), atol=1e-14)

            commut = np.max(np.abs(a.kernel @ r.kernel - r.kernel @ a.kernel))
            assert commut <= 1e-10

    def test_resolvent_matches_neumann_series(self):
        grid = make_grid(1.0, 25)
        a = discretize(ConstantKernel(np.array([[0.05]])), grid)
        r = resolvent(a)
        series = np.zeros_like(a.kernel)
        power = np.eye(a.kernel.shape[0])
        for _ in range(9):
            power = power @ a.kernel
            series = series + power
        np.testing.assert_allclose(r.kernel, series, atol=1e-12)

    def test_unit_kernel_resolvent_exponential_growth(self):
        # x = 1 + int_0^t x solved through (Id + R) tends to exp(t)
        grid = make_grid(1.0, 400)
        a = discretize(ConstantKernel(np.array([[1.0]])), grid)
        r = resolvent(a)
        ones = np.ones(grid.n)
        x = ones + op_apply(r, ones)
        np.testing.assert_allclose(x, np.exp(grid.left_nodes), rtol=6e-3)

    def test_singular_case_raises(self):
        grid = make_grid(1.0, 10)
        a = kernel_operator(grid, 1, np.eye(10))
        with pytest.raises(SingularOperatorError) as exc:
            resolvent(a)
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("solve", [resolvent, invert_id_minus])
    def test_condition_limit_on_nonsingular_matrix(self, solve):
        # Id - A = diag(1, 1e-14) is invertible, with cond_1 near 1e14 > COND_LIMIT
        grid = make_grid(1.0, 2)
        a = kernel_operator(grid, 1, np.eye(2) - np.diag([1.0, 1e-14]))
        with pytest.raises(SingularOperatorError) as exc:
            solve(a)
        assert np.isfinite(exc.value.condition)
        assert exc.value.condition > COND_LIMIT

    def test_resolvent_needs_pure_kernel(self):
        grid = make_grid(1.0, 10)
        op = identity_operator(grid, 2)
        with pytest.raises(InvalidArgumentError):
            resolvent(op)


class TestAlgebra:
    def test_apply_matches_full_matrix(self):
        rng = np.random.default_rng(3)
        grid = make_grid(1.5, 12)
        op = IntegralOperator(grid, 2, rng.standard_normal((24, 24)), rng.standard_normal((2, 2)))
        f = rng.standard_normal((12, 2))
        got = op_apply(op, f).reshape(-1)
        want = full_matrix(op) @ f.reshape(-1)
        np.testing.assert_allclose(got, want, rtol=1e-13)

    def test_adjoint_moves_across_inner_product(self):
        rng = np.random.default_rng(11)
        grid = make_grid(2.0, 15)
        op = IntegralOperator(grid, 2, rng.standard_normal((30, 30)), rng.standard_normal((2, 2)))
        f = rng.standard_normal((15, 2))
        g = rng.standard_normal((15, 2))
        lhs = l2_inner(grid, f, op_apply(op, g))
        rhs = l2_inner(grid, op_apply(adjoint(op), f), g)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_reverses_composition(self):
        rng = np.random.default_rng(13)
        grid = make_grid(1.0, 10)
        a = IntegralOperator(grid, 1, rng.standard_normal((10, 10)), rng.standard_normal((1, 1)))
        b = IntegralOperator(grid, 1, rng.standard_normal((10, 10)), rng.standard_normal((1, 1)))
        lhs = adjoint(star(a, b))
        rhs = star(adjoint(b), adjoint(a))
        np.testing.assert_allclose(lhs.kernel, rhs.kernel, rtol=1e-12)
        np.testing.assert_allclose(lhs.ident, rhs.ident, rtol=1e-12)

    def test_star_associative(self):
        rng = np.random.default_rng(17)
        grid = make_grid(1.0, 8)
        ops = [
            IntegralOperator(grid, 1, rng.standard_normal((8, 8)), rng.standard_normal((1, 1)))
            for _ in range(3)
        ]
        lhs = star(star(ops[0], ops[1]), ops[2])
        rhs = star(ops[0], star(ops[1], ops[2]))
        np.testing.assert_allclose(lhs.kernel, rhs.kernel, atol=1e-12)
        np.testing.assert_allclose(lhs.ident, rhs.ident, atol=1e-12)

    def test_identity_operator_neutral(self):
        grid = make_grid(1.0, 9)
        a = discretize(FractionalKernel(0.3), grid)
        ident = identity_operator(grid, 1)
        left = star(ident, a)
        right = star(a, ident)
        np.testing.assert_allclose(left.kernel, a.kernel, atol=1e-14)
        np.testing.assert_allclose(right.kernel, a.kernel, atol=1e-14)

    def test_kernel_value_recovers_density(self):
        grid = make_grid(1.0, 20)
        op = discretize(ConstantKernel(np.array([[2.5]]), volterra=False), grid)
        assert kernel_value(op, 3, 17)[0, 0] == pytest.approx(2.5, rel=1e-13)

