"""Optimal mean-variance strategies under Volterra stochastic volatility.

Two model families are covered: affine forward-variance models solved
through a Riccati-Volterra equation, and quadratic (Gaussian-state)
models solved through an operator Riccati equation on the discretized
kernel.  Both feed a shared Markowitz layer and Monte Carlo validator.
"""

from .affine import (
    AffineEvaluator,
    AffineModel,
    gamma0_affine,
    mean_forward_variance,
    mean_reversion_a_bound,
    optimal_control_affine,
    premium_loading,
    solve_riccati_volterra,
    theta_condition_check_affine,
)
from .errors import (
    ConfigError,
    DegenerateMarketError,
    GridMismatchError,
    InternalConsistencyError,
    InvalidArgumentError,
    MemoryCapError,
    ModelAssumptionError,
    RiccatiBlowUpError,
    SingularOperatorError,
    SingularVolatilityError,
    VmkError,
)
from .grid import TimeGrid, make_grid
from .kernels import (
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    Kernel,
    TableKernel,
    band_coefficients,
    folded_cells,
    kernel_l2_norm_sq,
)
from .markowitz import (
    FrontierPoint,
    a_of_p,
    frontier,
    integrated_rate,
    value_v,
    xi_star,
)
from .montecarlo import SampleStats, mc_stats, run_mc, simulate_drivers, simulate_wealth
from .operators import IntegralOperator, invert_id_minus, kernel_operator, resolvent, star
from .quadratic import (
    QuadraticEvaluator,
    QuadraticModel,
    QuadraticSolution,
    contraction_report,
    kappa_hat,
    lambda_max_covariance,
    markovian_riccati_ode,
    optimal_control_quadratic,
    psi_operator,
    sigma_operator,
    solve_operator_riccati,
    two_asset_model,
    wishart_model,
)

__version__ = "0.1.0"
