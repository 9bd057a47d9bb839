"""Seeded Monte Carlo oracle: T sampling, empirical tail estimators, and a
random-portfolio search cross-checking the analytic optimizer.

All sampling uses numpy's PCG64 generator seeded explicitly, so identical
(arguments, seed) pairs reproduce bit-for-bit.  For parallel runs, split
streams with numpy's SeedSequence.spawn rather than seed arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .portfolio import OptimizationResult, PortfolioProblem, SolverOptions, optimize
from .special import check_probability
from .tquantile import check_dof

__all__ = [
    "MultivariateTSpec",
    "EmpiricalTailEstimate",
    "sample_t",
    "sample_mvt",
    "empirical_tail",
    "random_portfolio_search",
]

_MIN_TAIL_POINTS = 100
_ACTIVE_TOL = 1e-8  # weights below this count as at the boundary for KKT


@dataclass(frozen=True)
class MultivariateTSpec:
    """Mixing matrix, degrees of freedom, and location for the standard
    multivariate T (one chi-squared mixer shared across components)."""
    mixing: np.ndarray
    nu: float
    mu: np.ndarray | None = None

    def __post_init__(self):
        A = np.asarray(self.mixing, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("mixing matrix must be square")
        object.__setattr__(self, "mixing", A)
        check_dof(self.nu)
        mu = np.zeros(A.shape[0]) if self.mu is None else np.asarray(self.mu, float)
        if mu.shape != (A.shape[0],):
            raise ValueError("location vector does not match mixing dimension")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class EmpiricalTailEstimate:
    var_hat: float
    cvar_hat: float
    n_samples: int
    standard_error: float


def _chi_squared(rng: np.random.Generator, nu: float, n: int) -> np.ndarray:
    # chi^2(nu) as twice a gamma(nu/2) variate; numpy's gamma sampler is
    # exact (rejection-based), which matters for tail fidelity
    return 2.0 * rng.standard_gamma(0.5 * nu, n)


def sample_t(nu: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. standard Student-T draws via the normal/chi-squared mixture."""
    check_dof(nu)
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    g = _chi_squared(rng, nu, n)
    return z * np.sqrt(nu / g)


def sample_mvt(spec: MultivariateTSpec, n: int, seed: int) -> np.ndarray:
    """n draws of the standard multivariate T, shape (n, N).

    Each draw shares one chi-squared mixer across all components, so the
    sample covariance converges to (nu/(nu-2)) A A'.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    N = spec.mixing.shape[0]
    z = rng.standard_normal((n, N))
    g = _chi_squared(rng, spec.nu, n)
    return spec.mu + (z @ spec.mixing.T) * np.sqrt(spec.nu / g)[:, None]


def empirical_tail(samples: np.ndarray, u: float) -> EmpiricalTailEstimate:
    """Empirical VaR/CVaR of a return sample at tail level u.

    VaR is the negated order statistic at rank ceil(n*u); CVaR is the
    negated mean of the ceil(n*u) smallest values.  Requires n*u >= 100
    so the tail mean is meaningful.
    """
    check_probability(u)
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    k = math.ceil(n * u)
    if n * u < _MIN_TAIL_POINTS:
        raise ValueError(
            f"insufficient tail mass: n*u = {n * u:.1f} < {_MIN_TAIL_POINTS}")
    tail = np.partition(samples, k - 1)[:k]
    return EmpiricalTailEstimate(
        var_hat=-float(tail.max()),
        cvar_hat=-float(tail.mean()),
        n_samples=n,
        standard_error=float(tail.std(ddof=1)) / math.sqrt(k),
    )


def uniform_simplex(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n weight vectors uniform on the simplex (normalized exponentials)."""
    e = rng.standard_exponential((n, dim))
    return e / e.sum(axis=1, keepdims=True)


def _kkt_residual(mu, cov, psi_val: float, w: np.ndarray) -> float:
    """Largest violation of the simplex KKT conditions at weights w.

    Computed here rather than taken from the solver, so the oracle's
    numbers do not rest on the code they check.
    """
    cw = cov @ w
    grad = -mu + psi_val * cw / math.sqrt(float(w @ cw))
    lam = float(grad @ w)  # weighted average multiplier (sum w = 1)
    active = w > _ACTIVE_TOL
    res = float(np.max(np.abs(grad[active] - lam)))
    if not active.all():
        res = max(res, float(np.max(lam - grad[~active])))
    return res


def random_portfolio_search(p: PortfolioProblem, n: int, seed: int,
                            polish: bool = False) -> OptimizationResult:
    """Best of n uniform random simplex portfolios under the risk objective.

    With polish=True the best draw seeds one projected-gradient run.
    """
    if n < 1:
        raise ValueError("need at least one portfolio draw")
    rng = np.random.default_rng(seed)
    psi_val = p.psi()
    best_w = None
    best_f = math.inf
    for start in range(0, n, 1_000_000):
        W = uniform_simplex(rng, min(1_000_000, n - start), p.n_assets)
        vals = -W @ p.mu + psi_val * np.sqrt(np.einsum("ij,jk,ik->i", W, p.cov, W))
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_f = float(vals[i])
            best_w = W[i]
    if polish:
        return optimize(p, SolverOptions(), w0=best_w)
    return OptimizationResult(
        weights=best_w,
        psi=psi_val,
        risk=best_f,
        expected_return=float(p.mu @ best_w),
        variance=float(best_w @ p.cov @ best_w),
        iterations=n,
        converged=True,
        kkt_residual=_kkt_residual(p.mu, p.cov, psi_val, best_w),
    )
