"""Analytic VaR/CVaR loss multipliers for Gaussian and Student-T return
models, with simplex-constrained portfolio optimization and a Monte Carlo
oracle for verification."""

from .mc_oracle import (
    EmpiricalTailEstimate,
    MultivariateTSpec,
    empirical_tail,
    random_portfolio_search,
    sample_mvt,
    sample_t,
)
from .portfolio import (
    OptimizationResult,
    PortfolioProblem,
    frontier,
    min_variance_weights,
    optimize,
    risk_gradient,
    sweep,
)
from .risk import (
    CVAR,
    GAUSSIAN,
    STUDENT_T,
    VAR,
    MomentParams,
    RiskSpec,
    conditional_value_at_risk,
    k_function,
    psi,
    total_kurtosis,
    value_at_risk,
)
from .special import (
    NumericsError,
    gauss_cdf,
    gauss_pdf,
    gauss_quantile,
    inv_reg_inc_beta,
    reg_inc_beta,
)
from .tquantile import (
    t_cdf,
    t_pdf,
    t_quantile,
    t_quantile_closed,
    t_quantile_tail_series,
    tail_series_coeffs,
)

__version__ = "0.1.0"
