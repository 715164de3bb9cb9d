"""Closed-form mean-variance layer: targets, values, frontier."""

import math

import numpy as np
import pytest

from vmk import (
    DegenerateMarketError,
    GammaUnderflowError,
    InternalConsistencyError,
    InvalidArgumentError,
    a_of_p,
    frontier,
    integrated_rate,
    make_grid,
    value_v,
    xi_star,
)
from vmk.grid import g0_nodes
from vmk.markowitz import gamma_from_log, tail_rate_integrals


class TestRates:
    def test_scalar_rate(self):
        g = make_grid(2.0, 8)
        np.testing.assert_allclose(g0_nodes(0.03, g, name="rate"), np.full(9, 0.03))
        assert integrated_rate(0.03, g) == pytest.approx(0.06, rel=1e-14)

    def test_callable_rate_trapezoid(self):
        g = make_grid(1.0, 200)
        # int_0^1 s ds = 1/2, trapezoid is exact for linear integrands
        assert integrated_rate(lambda s: s, g) == pytest.approx(0.5, rel=1e-13)

    def test_array_rate_and_tails(self):
        g = make_grid(1.0, 4)
        vals = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        tails = tail_rate_integrals(vals, g)
        assert tails[-1] == 0.0
        assert tails[0] == pytest.approx(integrated_rate(vals, g), rel=1e-14)
        # last slab is the trapezoid of (3, 4) over width 1/4
        assert tails[-2] == pytest.approx(0.25 * 3.5, rel=1e-14)

    def test_integrated_rate_is_first_tail_bit_for_bit(self):
        # one rule for int_0^T r: the solvers' Gamma_0 bound and the CLI's xi* read the same float
        rates = [0.03, 0.0173, lambda s: 0.02 + 0.01 * np.sin(3.0 * s), lambda s: 0.05 * np.exp(-s)]
        for horizon in (0.5, 1.1, 1.5, 2.3, 3.7):
            for n in (20, 77, 250, 1000):
                g = make_grid(horizon, n)
                for rate in rates:
                    assert integrated_rate(rate, g) == tail_rate_integrals(rate, g)[0]

    def test_bad_rate_shape(self):
        g = make_grid(1.0, 4)
        with pytest.raises(InvalidArgumentError):
            g0_nodes(np.zeros(3), g, name="rate")


def test_rate_forms_sample_bit_identically():
    g = make_grid(1.5, 7)
    forms = [0.0371, np.full(8, 0.0371), lambda t: 0.0371]
    nodes = [g0_nodes(rate, g, name="rate") for rate in forms]
    assert all(v.shape == (8,) and v.tobytes() == nodes[0].tobytes() for v in nodes)
    curve = lambda t: 0.01 + 0.02 * t * t
    assert g0_nodes(curve, g, name="rate").tobytes() == g0_nodes(np.array([curve(t) for t in g.nodes]), g, name="rate").tobytes()


class TestGammaRule:
    """``gamma_from_log``, the one underflow and bound rule of both model families."""

    def test_values_within_the_bound_pass(self):
        tail = np.array([[0.1], [0.05]])  # one tail per row, broadcast over the columns
        log_gamma = np.array([[0.2, -1.0], [0.1 + 1e-9, -3.0]])  # at the bound, and within its slack
        np.testing.assert_array_equal(gamma_from_log(log_gamma, tail), np.exp(log_gamma))

    @pytest.mark.parametrize("log_gamma", [0.3, np.inf, np.nan])
    def test_breach_raises(self, log_gamma):
        with pytest.raises(InternalConsistencyError, match=r"\(0, e\^\(2 int r\)\] bound"):
            gamma_from_log(np.array([-1.0, log_gamma]), 0.1)

    def test_breach_only_warns_when_lenient(self):
        with pytest.warns(RuntimeWarning, match=r"bound: max ratio 1\.10517"):
            gam = gamma_from_log(np.array([-1.0, 0.3]), 0.1, lenient=True)
        np.testing.assert_array_equal(gam, np.exp([-1.0, 0.3]))

    @pytest.mark.parametrize("lenient", [False, True])
    def test_underflow_raises_even_when_lenient(self, lenient):
        with pytest.raises(GammaUnderflowError, match=r"exp\(-800\) underflows"):
            gamma_from_log(np.array([0.0, -800.0]), 0.0, lenient)


class TestMomentExponent:
    def test_linear_branch_wins_never(self):
        # at p = 3 the quadratic branch already dominates for any |C|
        c = np.zeros((2, 2))
        assert a_of_p(3.0, c) == pytest.approx(3.0 * (8.0 * 9.0 - 6.0))

    def test_frobenius_vs_squared(self):
        c = np.array([[0.6, 0.8], [0.0, 0.0]])  # Frobenius norm 1
        lin = 3.0 * (3.0 + 1.0)
        quad = 3.0 * (8.0 * 9.0 - 6.0) * 2.0
        assert a_of_p(3.0, c, norm="frobenius") == pytest.approx(max(lin, quad))
        assert a_of_p(3.0, c, norm="squared-frobenius") == pytest.approx(max(lin, quad))
        c2 = 2.0 * c  # Frobenius norm 2, squared 4
        assert a_of_p(3.0, c2, norm="frobenius") == pytest.approx(
            max(3.0 * 5.0, 198.0 * 5.0)
        )
        assert a_of_p(3.0, c2, norm="squared-frobenius") == pytest.approx(
            max(3.0 * 7.0, 198.0 * 17.0)
        )

    def test_low_exponent_rejected(self):
        with pytest.raises(InvalidArgumentError):
            a_of_p(2.0, np.zeros((1, 1)))
        with pytest.raises(InvalidArgumentError):
            a_of_p(1.5, np.zeros((1, 1)))

    def test_unknown_norm_rejected(self):
        with pytest.raises(InvalidArgumentError):
            a_of_p(3.0, np.zeros((1, 1)), norm="operator")


class TestClosedForms:
    def test_xi_star_and_value(self):
        gamma0, x0, m = 0.5, 1.0, 1.1
        assert xi_star(gamma0, x0, m) == pytest.approx((1.1 - 0.5) / 0.5, rel=1e-14)
        assert value_v(gamma0, x0, m) == pytest.approx(0.5 * 0.01 / 0.5, rel=1e-14)

    def test_discounting_enters_both_factors(self):
        gamma0, x0, m, int_r = 0.6, 1.0, 1.2, 0.05
        e1, e2 = math.exp(-int_r), math.exp(-2.0 * int_r)
        assert xi_star(gamma0, x0, m, int_r) == pytest.approx(
            (m - gamma0 * e1 * x0) / (1.0 - gamma0 * e2), rel=1e-14
        )
        assert value_v(gamma0, x0, m, int_r) == pytest.approx(
            gamma0 * (x0 - m * e1) ** 2 / (1.0 - gamma0 * e2), rel=1e-14
        )

    def test_value_vanishes_at_funded_target(self):
        # target equal to the compounded endowment carries no risk
        gamma0, x0, int_r = 0.4, 1.3, 0.07
        m = x0 * math.exp(int_r)
        assert value_v(gamma0, x0, m, int_r) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_market(self):
        with pytest.raises(DegenerateMarketError):
            xi_star(1.0, 1.0, 1.1)
        with pytest.raises(DegenerateMarketError):
            value_v(1.0 + 1e-15, 1.0, 1.1)
        # positive rates push the degeneracy boundary above one
        assert np.isfinite(xi_star(1.0, 1.0, 1.1, int_r=0.1))

    def test_invalid_gamma0(self):
        with pytest.raises(InvalidArgumentError):
            xi_star(0.0, 1.0, 1.1)
        with pytest.raises(InvalidArgumentError):
            value_v(-0.2, 1.0, 1.1)
        with pytest.raises(InvalidArgumentError):
            value_v(math.nan, 1.0, 1.1)


class TestFrontier:
    def test_rows_match_closed_forms(self):
        gamma0, x0 = 0.5790773332279944, 1.0
        targets = [1.0, 1.05, 1.1, 1.2]
        rows = frontier(gamma0, x0, targets)
        assert [r.m for r in rows] == targets
        for r in rows:
            assert r.gamma0 == gamma0
            assert r.variance == pytest.approx(value_v(gamma0, x0, r.m), rel=1e-14)
            assert r.std == pytest.approx(math.sqrt(r.variance), rel=1e-14)
            assert r.xi_star == pytest.approx(xi_star(gamma0, x0, r.m), rel=1e-14)

    def test_variance_is_parabola_in_target(self):
        gamma0, x0 = 0.3, 1.0
        ms = np.linspace(0.8, 1.4, 7)
        var = np.array([value_v(gamma0, x0, m) for m in ms])
        second = np.diff(var, 2)
        np.testing.assert_allclose(second, second[0], rtol=1e-10)
        assert second[0] > 0.0
        assert np.argmin(var) == np.argmin(np.abs(ms - x0))
