"""Mean-variance verification layer.

Maps the scalar summary Gamma_0 of a market (together with the riskless
rate path) to the optimal target multiplier, the minimal variance and the
efficient frontier.  Everything here is model agnostic: the stochastic
volatility modules only need to hand over Gamma_0 and the rate.
"""

import warnings
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .errors import DegenerateMarketError, GammaUnderflowError, InternalConsistencyError, InvalidArgumentError
from .grid import TimeGrid, coefficients, g0_nodes

DEGENERACY_TOL = 1e-12
GAMMA_BOUND_TOL = 1e-8


def integrated_rate(rate, grid: TimeGrid) -> float:
    """Trapezoid value of int_0^T r(s) ds, the first of ``tail_rate_integrals``."""
    return float(tail_rate_integrals(rate, grid)[0])


def tail_rate_integrals(rate, grid: TimeGrid) -> np.ndarray:
    """Trapezoid values of int_{t_k}^T r(s) ds for every node k."""
    r = g0_nodes(rate, grid, name="rate")
    seg = 0.5 * grid.dt * (r[:-1] + r[1:])
    out = np.zeros(grid.n + 1)
    out[:-1] = np.cumsum(seg[::-1])[::-1]
    return out


def a_of_p(p: float, c_matrix, norm: str = "frobenius") -> float:
    """Moment exponent a(p) = max[p(3 + |C|), 3(8p^2 - 2p)(1 + |C|^2)].

    |C| is the Frobenius norm of the correlation loading matrix by
    default; norm="squared-frobenius" reads |C| as trace(C^T C) instead.
    Requires p > 2.
    """
    if p <= 2.0:
        raise InvalidArgumentError(f"the exponent p must exceed 2, got {p}")
    c = np.atleast_2d(np.asarray(c_matrix, dtype=float))
    fro = float(np.linalg.norm(c, "fro"))
    if norm == "frobenius":
        cn = fro
    elif norm == "squared-frobenius":
        cn = fro * fro
    else:
        raise InvalidArgumentError(f"unknown norm reading {norm!r}")
    return float(max(p * (3.0 + cn), 3.0 * (8.0 * p * p - 2.0 * p) * (1.0 + cn * cn)))


def gamma_from_log(log_gamma, tail, lenient: bool = False):
    """Gamma = exp(log_gamma); a GammaUnderflowError where it underflows double precision to zero.

    A Gamma not finite or above e^{2 tail}, tail = int_t^T r broadcast against log_gamma, by more than
    ``GAMMA_BOUND_TOL`` relative slack is an InternalConsistencyError, or with ``lenient`` (a quadratic
    model whose deflated covariance is indefinite) a RuntimeWarning.
    """
    low = float(np.min(log_gamma))
    if np.exp(low) == 0.0:
        raise GammaUnderflowError(
            f"strategy value Gamma = exp({low:.4g}) underflows double precision; the mean-variance problem is "
            "numerically degenerate at this horizon and volatility scale")
    gam = np.exp(log_gamma)
    hi = np.exp(2.0 * tail)
    if np.any(gam > hi * (1.0 + GAMMA_BOUND_TOL)) or not np.all(np.isfinite(gam)):
        msg = f"Gamma violates the (0, e^(2 int r)] bound: max ratio {float(np.max(gam / hi)):.6g}"
        if not lenient:
            raise InternalConsistencyError(msg)
        warnings.warn(msg + "; expected once the deflated covariance loses positive semidefiniteness",
                      RuntimeWarning, stacklevel=3)
    return gam


def feedback_control(premium, x_t, xi_discounted):
    """Optimal amounts alpha = -premium (X - xi* e^{-int r}) for premium rows (P, d) or one row (d,);
    the wealth is one finite number, or one per premium row, or for one row any number of them."""
    x, xi = np.asarray(x_t, dtype=float), coefficients(xi_discounted, "xi_discounted")
    if x.ndim > 1 or (premium.ndim > 1 and x.shape not in ((), premium.shape[:-1])) or not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"wealth must be one finite number or one per premium row, got shape {x.shape}")
    return -premium * (x - xi)[..., None]


def _check_gamma0(gamma0: float, int_r: float) -> float:
    if not np.isfinite(gamma0) or gamma0 <= 0.0:
        raise InvalidArgumentError(f"Gamma_0 must be positive and finite, got {gamma0}")
    disc = 1.0 - gamma0 * np.exp(-2.0 * int_r)
    if disc < DEGENERACY_TOL:
        raise DegenerateMarketError(
            f"market degenerates: 1 - Gamma_0 e^(-2 int r) = {disc:.3e} is not positive"
        )
    return disc


def xi_star(gamma0: float, x0: float, m: float, int_r: float = 0.0) -> float:
    """Optimal Lagrange target xi* = (m - Gamma_0 e^(-int r) x_0) / (1 - Gamma_0 e^(-2 int r))."""
    disc = _check_gamma0(gamma0, int_r)
    return float((m - gamma0 * np.exp(-int_r) * x0) / disc)


def value_v(gamma0: float, x0: float, m: float, int_r: float = 0.0) -> float:
    """Minimal terminal variance V(m) = Gamma_0 |x_0 - m e^(-int r)|^2 / (1 - Gamma_0 e^(-2 int r))."""
    disc = _check_gamma0(gamma0, int_r)
    dev = x0 - m * np.exp(-int_r)
    return float(gamma0 * dev * dev / disc)


@dataclass(frozen=True)
class FrontierPoint:
    m: float
    std: float
    variance: float
    xi_star: float
    gamma0: float


def frontier(gamma0: float, x0: float, m_values: Iterable[float], int_r: float = 0.0) -> List[FrontierPoint]:
    """Efficient frontier rows (m, std, variance, xi*, Gamma_0) for given targets."""
    out = []
    for m in m_values:
        v = value_v(gamma0, x0, float(m), int_r)
        out.append(
            FrontierPoint(
                m=float(m),
                std=float(np.sqrt(max(v, 0.0))),
                variance=v,
                xi_star=xi_star(gamma0, x0, float(m), int_r),
                gamma0=float(gamma0),
            )
        )
    return out
