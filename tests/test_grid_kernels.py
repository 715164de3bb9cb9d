"""Time grid construction, the coefficient rule and kernel discretization."""

import math

import numpy as np
import pytest

from vmk import (
    AffineModel,
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    InvalidArgumentError,
    Kernel,
    QuadraticModel,
    band_coefficients,
    folded_cells,
    kernel_l2_norm_sq,
    make_grid,
    two_asset_model,
    wishart_model,
)
from vmk.grid import coefficients, g0_nodes
from oracles import band_per_cell, first_arg_columns, fold_per_cell


class TestTimeGrid:
    def test_nodes_and_spacing(self):
        g = make_grid(2.0, 8)
        assert g.dt == pytest.approx(0.25)
        assert g.nodes.shape == (9,)
        np.testing.assert_allclose(g.nodes, np.linspace(0.0, 2.0, 9))

    def test_bad_construction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_grid(0.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(-1.0, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(math.inf, 4)
        with pytest.raises(InvalidArgumentError):
            make_grid(1.0, 1)
        for n in (2.5, math.nan, math.inf, "4", None):
            with pytest.raises(InvalidArgumentError, match="grid cells must be an integer"):
                make_grid(1.0, n)

    def test_integral_sizes_accepted(self):
        for n in (4, np.int32(4), np.int64(4), 4.0, np.float64(4.0)):
            g = make_grid(1.0, n)
            assert g.n == 4 and type(g.n) is int


class TestCurveSamples:
    @pytest.mark.parametrize("g0", [[0.1, math.nan], lambda t: [0.1, math.inf if t > 0.5 else 0.1]])
    def test_non_finite_g0_refused(self, g0):
        with pytest.raises(InvalidArgumentError, match="g0 contains non-finite values"):
            g0_nodes(g0, make_grid(1.0, 4), 2)


def affine_with(**change):
    return AffineModel(**{**dict(kernels=(FractionalKernel(0.3),), drift=-0.5, nu=0.3, rho=-0.5, theta=0.4, g0=0.04),
                          **change})


def quadratic_with(**change):
    return QuadraticModel(**{**dict(kernel=FractionalKernel(0.3), theta=0.5, eta=1.0, corr=-0.3, drift=-0.2, g0=0.3),
                             **change})


# (argument named in the refusal, constructor call): non-finite coefficients and a wrong-length rho, which
# without the coefficient rule passed the constructor and came back from the solvers as a Riccati blow-up,
# or raised numpy's broadcast ValueError or a correlation-row refusal
BAD_COEFFICIENTS = {
    **{f"affine-{key}-{bad}": (key, lambda key=key, bad=bad: affine_with(**{key: bad}))
       for key in ("theta", "nu", "rho", "drift") for bad in (math.nan, math.inf, -math.inf)},
    **{f"quadratic-{key}-{bad}": (key, lambda key=key, bad=bad: quadratic_with(**{key: bad}))
       for key in ("theta", "eta", "corr", "drift") for bad in (math.nan, math.inf, -math.inf)},
    "constant-kernel-nan": ("matrix", lambda: ConstantKernel(math.nan)),
    "fractional-scale-nan": ("scale", lambda: FractionalKernel(0.3, scale=math.nan)),
    "exponential-beta-nan": ("beta", lambda: ExponentialKernel(math.nan)),
    "two-asset-theta-nan": ("theta", lambda: two_asset_model(theta=(math.nan, 0.65))),
    "wishart-rho-length": ("rho", lambda: wishart_model(FractionalKernel(0.3), np.eye(2), np.eye(2), [0.1, 0.2, 0.3],
                                                        np.ones((2, 2)))),
}


@pytest.mark.parametrize("name, build", BAD_COEFFICIENTS.values(), ids=BAD_COEFFICIENTS.keys())
def test_bad_coefficient_refused_by_its_constructor(name, build):
    with pytest.raises(InvalidArgumentError, match=name):
        build()


class TestCoefficients:
    def test_numbers_and_rows_broadcast(self):
        np.testing.assert_array_equal(coefficients(0.3, "nu", (3,)), [0.3, 0.3, 0.3])
        np.testing.assert_array_equal(coefficients([0.3], "nu", (3,)), [0.3, 0.3, 0.3])
        np.testing.assert_array_equal(coefficients(-0.5, "drift", (1, 1)), [[-0.5]])
        np.testing.assert_array_equal(coefficients([1.0, 2.0], "theta", ("d", 2)), [[1.0, 2.0]])
        assert type(coefficients(2, "scale")) is float

    def test_result_is_a_copy(self):
        given = np.eye(2)
        read = coefficients(given, "eta", (2, 2))
        given[0, 0] = 5.0
        assert read[0, 0] == 1.0

    @pytest.mark.parametrize("value, shape, shown, message", [
        ([0.1, 0.2], (3,), None, r"nu must be a number or a length-3 list, got shape \(2,\)"),
        (np.ones((2, 2)), (3,), None, r"nu must be a number or a length-3 list, got shape \(2, 2\)"),
        (np.ones((2, 3)), (2, 2), None, r"nu must be \(2, 2\), got \(2, 3\)"),
        (np.ones((2, 3)), ("N", "N"), "square", r"nu must be square, got \(2, 3\)"),
        (np.ones((2, 2, 2)), ("N", "N"), "square", r"nu must be square, got \(2, 2, 2\)"),
        (np.ones(2), (2, 2, 1), None, r"nu must be \(2, 2, 1\), got \(2,\)"),
        ([1.0], (), None, r"nu must be a number, got \(1,\)"),
    ])
    def test_other_shapes_refused(self, value, shape, shown, message):
        with pytest.raises(InvalidArgumentError, match=message):
            coefficients(value, "nu", shape, shown)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 2), ("d", "d")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_refused(self, shape, bad):
        with pytest.raises(InvalidArgumentError, match="^eta contains non-finite values$"):
            coefficients(np.full((2,) * len(shape), bad), "eta", shape)


class TestFractionalKernel:
    def test_unit_cell_integral(self):
        # int_0^1 x^(-1/4) dx / Gamma(3/4) = (4/3) / Gamma(3/4)
        got = band_coefficients(FractionalKernel(0.25), make_grid(2.0, 2))[0, 0, 0]
        assert got == pytest.approx(1.0880652521310177, rel=1e-13)

    def test_half_exponent_is_constant(self):
        g = make_grid(2.0, 8)
        c = band_coefficients(FractionalKernel(0.5, scale=3.0), g)
        np.testing.assert_allclose(c, 3.0 * g.dt, rtol=1e-14)

    def test_exponent_domain(self):
        with pytest.raises(InvalidArgumentError):
            FractionalKernel(0.0)
        with pytest.raises(InvalidArgumentError):
            FractionalKernel(1.5)

    @pytest.mark.parametrize("h, message", [
        ([0.3], r"^h must be a number, got \(1,\)$"),
        (np.full((1, 1), 0.3), r"^h must be a number, got \(1, 1\)$"),
        (math.nan, "^h contains non-finite values$"),
        (0, r"^fractional exponent h must lie in \(0, 1\], got 0.0$"),
        (1.5, r"^fractional exponent h must lie in \(0, 1\], got 1.5$"),
    ])
    def test_exponent_read_as_a_coefficient(self, h, message):
        with pytest.raises(InvalidArgumentError, match=message):
            FractionalKernel(h)
        assert type(FractionalKernel(np.float32(0.25)).h) is float


class TestExponentialKernel:
    def test_lag_integral(self):
        k = ExponentialKernel(beta=2.0, scale=5.0)
        want = 5.0 * (1.0 - math.exp(-2.0)) / 2.0
        assert band_coefficients(k, make_grid(2.0, 2))[0, 0, 0] == pytest.approx(want, rel=1e-14)

    def test_zero_rate_reduces_to_constant(self):
        g = make_grid(2.0, 8)
        c = band_coefficients(ExponentialKernel(beta=0.0, scale=1.5), g)
        np.testing.assert_allclose(c, 1.5 * g.dt, rtol=1e-14)
        assert c.sum() == pytest.approx(3.0)

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

    def test_diagonal_kernel_stacks_components(self):
        parts = [FractionalKernel(0.75), ExponentialKernel(beta=1.0)]
        k = DiagonalKernel(parts)
        assert k.dim == 2
        g = make_grid(1.0, 8)
        c = band_coefficients(k, g)
        assert c.shape == (8, 2, 2)
        assert np.all(c[:, 0, 1] == 0.0) and np.all(c[:, 1, 0] == 0.0)
        for i, part in enumerate(parts):
            np.testing.assert_array_equal(c[:, i, i], band_coefficients(part, g)[:, 0, 0])


class TestBandCoefficients:
    def test_band_telescopes_to_total_mass(self):
        k = FractionalKernel(0.25)
        g = make_grid(1.0, 16)
        c = band_coefficients(k, g)
        assert c.shape == (16, 1, 1)
        # int_0^1 x^(-1/4) dx / Gamma(3/4)
        assert c.sum() == pytest.approx(1.0880652521310177, rel=1e-13)

    def test_fold_rows_accumulate_history(self):
        k = ExponentialKernel(beta=1.0)
        g = make_grid(1.0, 8)
        a = folded_cells(k, g)
        row_sums = a.sum(axis=1)
        want = -np.expm1(-g.nodes[:-1])
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
    def test_diagonal_rejects_empty_list(self):
        with pytest.raises(InvalidArgumentError, match="at least one"):
            DiagonalKernel([])

    def test_diagonal_rejects_matrix_component(self):
        with pytest.raises(InvalidArgumentError, match="scalar"):
            DiagonalKernel([ConstantKernel(np.eye(2))])

    def test_constant_rejects_non_square_matrix(self):
        with pytest.raises(InvalidArgumentError, match="square"):
            ConstantKernel(np.ones((2, 3)))

    def test_fold_rejects_bare_kernel(self):
        class Opaque(Kernel):
            pass

        with pytest.raises(NotImplementedError):
            folded_cells(Opaque(), make_grid(1.0, 4))


# the perfbench grids and a fine one
ORACLE_GRIDS = [(1.5, 300), (0.5, 250), (1.0, 400), (1.0, 1000)]
ORACLE_KERNELS = (
    [FractionalKernel(h) for h in (0.08, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0)]
    + [ExponentialKernel(beta) for beta in (0.0, 1e-10, 1e-3, 1.0, 5.0)]
    + [ConstantKernel(np.array([[0.7, -0.2], [0.3, 1.1]])), two_asset_model().kernel]
)


@pytest.mark.parametrize("horizon, n", ORACLE_GRIDS)
def test_band_and_fold_match_per_cell_route(horizon, n):
    g = make_grid(horizon, n)
    for kernel in ORACLE_KERNELS:
        want = band_per_cell(kernel, g)
        np.testing.assert_array_equal(band_coefficients(kernel, g), want, err_msg=repr(kernel))
        np.testing.assert_array_equal(folded_cells(kernel, g), fold_per_cell(want), err_msg=repr(kernel))
