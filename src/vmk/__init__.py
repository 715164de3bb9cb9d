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
    mean_reversion_a_bound,
    optimal_control_affine,
    premium_loading,
    simulate_forward_variance,
    solve_riccati_volterra,
    theta_condition_check_affine,
)
from .errors import (
    ConfigError,
    DegenerateMarketError,
    GammaUnderflowError,
    InternalConsistencyError,
    InvalidArgumentError,
    MemoryCapError,
    ModelAssumptionError,
    RiccatiBlowUpError,
    VmkError,
)
from .grid import TimeGrid, make_grid
from .kernels import (
    ConstantKernel,
    DiagonalKernel,
    ExponentialKernel,
    FractionalKernel,
    Kernel,
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
from .quadratic import (
    QuadraticEvaluator,
    QuadraticModel,
    QuadraticSolution,
    contraction_report,
    gamma_quadratic,
    kappa_hat,
    lambda_max_covariance,
    optimal_control_quadratic,
    solve_operator_riccati,
    two_asset_model,
    wishart_model,
)

__version__ = "0.1.0"
