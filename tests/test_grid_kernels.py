"""Time grid construction and kernel discretization."""

import math

import numpy as np
import pytest

from vmk import (
    AffineModel,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    GridMismatchError,
    InvalidArgumentError,
    Kernel,
    QuadraticModel,
    TableKernel,
    band_coefficients,
    folded_cells,
    kernel_l2_norm_sq,
    make_grid,
    solve_operator_riccati,
)
from vmk.grid import check_same_grid
from vmk.kernels import first_arg_columns


class TestTimeGrid:
    def test_nodes_and_spacing(self):
        g = make_grid(2.0, 8)
        assert g.dt == pytest.approx(0.25)
        assert g.nodes.shape == (9,)
        assert g.left_nodes.shape == (8,)
        np.testing.assert_allclose(g.nodes, np.linspace(0.0, 2.0, 9))
        np.testing.assert_allclose(g.left_nodes, g.nodes[:-1])

    def test_index_of_round_trip(self):
        g = make_grid(1.5, 6)
        for k, t in enumerate(g.nodes):
            assert g.index_of(t) == k

    def test_index_of_off_node_rejected(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError):
            g.index_of(0.3)

    def test_bad_construction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(0.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(-1.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(math.inf, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 1)

    def test_mismatch_detection(self):
        a = make_grid(1.0, 4)
        b = make_grid(1.0, 5)
        check_same_grid(a, make_grid(1.0, 4))
        with pytest.raises(GridMismatchError):
            check_same_grid(a, b)


class TestFractionalKernel:
    def test_pointwise_value(self):
        k = FractionalKernel(0.75, scale=2.0)
        want = 2.0 * 0.5**0.25 / math.gamma(1.25)
        assert k.eval_at(1.0, 0.5)[0, 0] == pytest.approx(want, rel=1e-14)
        assert k.eval_at(0.5, 1.0)[0, 0] == 0.0

    def test_unit_cell_integral(self):
        # int_0^1 x^(-1/4) dx / Gamma(3/4) = (4/3) / Gamma(3/4)
        k = FractionalKernel(0.25)
        got = k.lag_integral(0.0, 1.0)[0, 0]
        assert got == pytest.approx(1.0880652521310177, rel=1e-13)

    def test_singular_diagonal_refused_but_integrable(self):
        k = FractionalKernel(0.25)
        with pytest.raises(InvalidArgumentError):
            k.eval_at(1.0, 1.0)
        assert np.isfinite(k.lag_integral(0.0, 0.1)[0, 0])

    def test_half_exponent_is_constant(self):
        k = FractionalKernel(0.5, scale=3.0)
        assert k.eval_at(2.0, 0.0)[0, 0] == pytest.approx(3.0)
        assert k.eval_at(2.0, 2.0)[0, 0] == pytest.approx(3.0)

    def test_exponent_domain(self):
        with pytest.raises(InvalidArgumentError):
            FractionalKernel(0.0)
        with pytest.raises(InvalidArgumentError):
            FractionalKernel(1.5)


class TestExponentialKernel:
    def test_lag_integral(self):
        k = ExponentialKernel(beta=2.0, scale=5.0)
        want = 5.0 * (1.0 - math.exp(-2.0)) / 2.0
        assert k.lag_integral(0.0, 1.0)[0, 0] == pytest.approx(want, rel=1e-14)

    def test_zero_rate_reduces_to_constant(self):
        k = ExponentialKernel(beta=0.0, scale=1.5)
        assert k.lag_integral(0.0, 2.0)[0, 0] == pytest.approx(3.0)
        assert k.eval_at(7.0, 1.0)[0, 0] == pytest.approx(1.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidArgumentError):
            ExponentialKernel(beta=-1.0)

    @pytest.mark.parametrize("beta", [1e-10, 1e-6, 1e-3])
    def test_small_rate_cell_integrals_exact(self, beta):
        # int_a^b e^{-beta x} dx = e^{-beta a} (1 - e^{-beta (b - a)}) / beta
        g = make_grid(1.0, 1000)
        got = band_coefficients(ExponentialKernel(beta=beta), g)[:, 0, 0]
        a, b = g.nodes[:-1], g.nodes[1:]
        want = np.exp(-beta * a) * -np.expm1(-beta * (b - a)) / beta
        assert np.max(np.abs(got - want) / want) <= 1e-12


class TestMatrixAndTableKernels:
    def test_constant_volterra_fold(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        k = ConstantKernel(m)
        g = make_grid(1.0, 4)
        a = folded_cells(k, g).reshape(4, 2, 4, 2)
        # strict lower block triangle carries dt * m, the rest is zero
        for i in range(4):
            for j in range(4):
                want = g.dt * m if j < i else np.zeros((2, 2))
                np.testing.assert_allclose(a[i, :, j, :], want)

    def test_constant_full_support_fold(self):
        m = np.array([[2.0]])
        k = ConstantKernel(m, volterra=False)
        g = make_grid(1.0, 3)
        a = folded_cells(k, g)
        np.testing.assert_allclose(a, np.full((3, 3), 2.0 * g.dt))

    def test_diagonal_kernel_stacks_components(self):
        k = DiagonalKernel([FractionalKernel(0.75), ExponentialKernel(beta=1.0)])
        assert k.dim == 2
        v = k.eval_at(1.0, 0.25)
        assert v.shape == (2, 2)
        assert v[0, 1] == 0.0 and v[1, 0] == 0.0
        assert v[0, 0] == pytest.approx(FractionalKernel(0.75).eval_at(1.0, 0.25)[0, 0])
        assert v[1, 1] == pytest.approx(math.exp(-0.75))

    def test_table_kernel_matches_sampled_function(self):
        g = make_grid(1.0, 5)
        vals = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                vals[i, j] = math.exp(g.nodes[i] - g.nodes[j]) if j < i else 0.0
        k = TableKernel(g, vals)
        a = folded_cells(k, g).reshape(5, 1, 5, 1)[:, 0, :, 0]
        np.testing.assert_allclose(a, vals * g.dt)

    def test_table_kernel_grid_mismatch(self):
        k = TableKernel(make_grid(1.0, 5), np.zeros((5, 5)))
        with pytest.raises(GridMismatchError):
            folded_cells(k, make_grid(1.0, 6))


class TestBandCoefficients:
    def test_band_telescopes_to_total_mass(self):
        k = FractionalKernel(0.25)
        g = make_grid(1.0, 16)
        c = band_coefficients(k, g)
        assert c.shape == (16, 1, 1)
        total = k.lag_integral(0.0, 1.0)[0, 0]
        assert c.sum() == pytest.approx(total, rel=1e-13)

    def test_non_convolution_rejected(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError):
            band_coefficients(TableKernel(g, np.zeros((4, 4))), g)

    def test_fold_rows_accumulate_history(self):
        k = ExponentialKernel(beta=1.0)
        g = make_grid(1.0, 8)
        a = folded_cells(k, g)
        row_sums = a.sum(axis=1)
        want = [k.lag_integral(0.0, t)[0, 0] for t in g.nodes[:-1]]
        np.testing.assert_allclose(row_sums, want, rtol=1e-13)

    def test_first_arg_columns_shift_band(self):
        k = FractionalKernel(0.35)
        g = make_grid(1.0, 6)
        c = band_coefficients(k, g)
        for kk in (0, 2, 5):
            cols = first_arg_columns(c, kk).reshape(6, 1, 1)
            np.testing.assert_allclose(cols[:kk], 0.0)
            np.testing.assert_allclose(cols[kk:], c[: 6 - kk])


class TestL2Norms:
    def test_constant_kernel_norm_exact(self):
        c = 1.7
        g = make_grid(2.0, 10)
        k = ConstantKernel(np.array([[c]]))
        # n(n-1)/2 filled cells of value c dt each
        want = c * c * g.dt**2 * 10 * 9 / 2
        assert kernel_l2_norm_sq(k, g) == pytest.approx(want, rel=1e-13)

    def test_fractional_norm_converges_to_closed_form(self):
        h = 0.25
        scale = math.gamma(h + 0.5)
        k = FractionalKernel(h, scale=scale)
        want = scale**2 / (2 * h * (2 * h + 1) * math.gamma(h + 0.5) ** 2)
        assert want == pytest.approx(4.0 / 3.0)
        errs = []
        for n in (50, 200, 800):
            errs.append(abs(kernel_l2_norm_sq(k, make_grid(1.0, n)) - want))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.02


class TestConstructorsAndDiscretizationRoutes:
    def test_diagonal_rejects_table_component(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError, match="convolution"):
            DiagonalKernel([FractionalKernel(0.3), TableKernel(g, np.zeros((4, 4)))])

    def test_diagonal_rejects_empty_list(self):
        with pytest.raises(InvalidArgumentError, match="at least one"):
            DiagonalKernel([])

    def test_diagonal_rejects_matrix_component(self):
        with pytest.raises(InvalidArgumentError, match="scalar"):
            DiagonalKernel([ConstantKernel(np.eye(2))])

    def test_constant_rejects_non_square_matrix(self):
        with pytest.raises(InvalidArgumentError, match="square"):
            ConstantKernel(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(4, 5), (3, 3), (4, 4, 2, 3)])
    def test_table_rejects_bad_shape(self, shape):
        with pytest.raises(InvalidArgumentError, match="shape"):
            TableKernel(make_grid(1.0, 4), np.zeros(shape))

    def test_fold_rejects_bare_kernel(self):
        class Opaque(Kernel):
            pass

        with pytest.raises(InvalidArgumentError, match="Opaque"):
            folded_cells(Opaque(), make_grid(1.0, 4))

    def test_quadratic_solve_refuses_table_kernel(self):
        g = make_grid(1.0, 4)
        model = QuadraticModel(
            kernel=TableKernel(g, 0.1 * np.tri(4, k=-1)),
            theta=np.array([[1.0]]),
            eta=np.array([[1.0]]),
            corr=np.array([[0.0]]),
            drift=np.array([[0.0]]),
            g0=1.0,
        )
        with pytest.raises(InvalidArgumentError, match="convolution"):
            solve_operator_riccati(model, g)

    def test_affine_solve_refuses_table_kernel(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError, match="convolution"):
            AffineModel(
                kernels=[TableKernel(g, 0.1 * np.tri(4, k=-1))],
                drift=[[0.0]],
                nu=0.5,
                rho=0.0,
                theta=1.0,
                g0=0.04,
            )
