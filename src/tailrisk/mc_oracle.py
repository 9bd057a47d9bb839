"""Seeded Monte Carlo oracle: T sampling, empirical tail estimators, and a
random-portfolio search cross-checking the analytic optimizer.

All sampling uses numpy's PCG64 generator seeded explicitly, so identical
(arguments, seed) pairs reproduce bit-for-bit.  For parallel runs, split
streams with numpy's SeedSequence.spawn rather than seed arithmetic.
"""

import math
from dataclasses import dataclass

import numpy as np

from .portfolio import OptimizationResult, PortfolioProblem
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
# Rows per block in the streaming passes: 2^15 draws of a few assets keep
# each block's arrays within a core's L2 cache.  numpy's exponential and
# gamma streams do not depend on how a draw is split into blocks, so the
# draws are bit-identical to one unblocked draw.
_BLOCK = 1 << 15


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
        if not np.isfinite(A).all():
            raise ValueError("mixing matrix must be finite")
        object.__setattr__(self, "mixing", A)
        check_dof(self.nu)
        mu = np.zeros(A.shape[0]) if self.mu is None else np.asarray(self.mu, float)
        if mu.shape != (A.shape[0],):
            raise ValueError("location vector does not match mixing dimension")
        if not np.isfinite(mu).all():
            raise ValueError("location vector must be finite")
        object.__setattr__(self, "mu", mu)


@dataclass(frozen=True)
class EmpiricalTailEstimate:
    """Empirical VaR/CVaR with their standard errors.

    standard_error is the tail sample's std/sqrt(k).  var_standard_error
    is that of the order statistic x_(k), sqrt(u(1-u)/n) / f(VaR), with
    the density f estimated from the spacing x_(k+m) - x_(k-m),
    m = round(sqrt(k)) (Siddiqui 1960; Bloch & Gastwirth 1968).
    cvar_standard_error adds to standard_error the variance that comes
    from estimating VaR (Manistre & Hancock 2005):
    sqrt((s^2 + (1-u)(var_hat - cvar_hat)^2)/k).
    """
    var_hat: float
    cvar_hat: float
    n_samples: int
    standard_error: float
    var_standard_error: float
    cvar_standard_error: float


def _check_count(n, what: str) -> int:
    """n as an int; a bool, a float or a count below one is an error."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"number of {what}s must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"need at least one {what}")
    return int(n)


def _chi_squared(rng: np.random.Generator, nu: float, n: int) -> np.ndarray:
    # chi^2(nu) as twice a gamma(nu/2) variate; numpy's gamma sampler is
    # exact (rejection-based), which matters for tail fidelity
    return 2.0 * rng.standard_gamma(0.5 * nu, n)


def sample_t(nu: float, n: int, seed: int) -> np.ndarray:
    """n i.i.d. standard Student-T draws via the normal/chi-squared mixture.

    All normals are drawn first; the chi-squared mixers are then drawn and
    applied in place one block at a time.
    """
    check_dof(nu)
    n = _check_count(n, "sample")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    for start in range(0, n, _BLOCK):
        block = z[start:start + _BLOCK]
        block *= np.sqrt(nu / _chi_squared(rng, nu, block.size))
    return z


def sample_mvt(spec: MultivariateTSpec, n: int, seed: int) -> np.ndarray:
    """n draws of the standard multivariate T, shape (n, N).

    Each draw shares one chi-squared mixer across all components, so the
    sample covariance converges to (nu/(nu-2)) A A'.
    """
    n = _check_count(n, "sample")
    rng = np.random.default_rng(seed)
    N = spec.mixing.shape[0]
    z = rng.standard_normal((n, N))
    g = _chi_squared(rng, spec.nu, n)
    return spec.mu + (z @ spec.mixing.T) * np.sqrt(spec.nu / g)[:, None]


def empirical_tail(samples: np.ndarray, u: float) -> EmpiricalTailEstimate:
    """Empirical VaR/CVaR of a return sample at tail level u.

    VaR is the negated order statistic at rank ceil(n*u); CVaR is the
    negated mean of the ceil(n*u) smallest values.  Requires a 1-D
    finite sample with n*u >= 100 so the tail mean is meaningful.
    """
    check_probability(u)
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1:
        raise ValueError(f"samples must be 1-D, got shape {samples.shape}")
    if not np.isfinite(samples).all():
        raise ValueError("samples must be finite")
    n = samples.size
    k = math.ceil(n * u)
    if n * u < _MIN_TAIL_POINTS:
        raise ValueError(
            f"insufficient tail mass: n*u = {n * u:.1f} < {_MIN_TAIL_POINTS}")
    # ranks k - m and k + m (clipped to the sample) bracket the density.
    # One full pass selects rank k + m, and a pass over the k + m smallest
    # the other two: three ranks in one full pass cost four times one.
    m = round(math.sqrt(k))
    lo, hi = max(k - 1 - m, 0), min(k - 1 + m, n - 1)
    head = np.partition(samples, hi)[:hi + 1]
    head.partition((lo, k - 1, hi))
    tail = head[:k]
    var_hat, cvar_hat = -float(head[k - 1]), -float(tail.mean())
    sd = float(tail.std(ddof=1))
    return EmpiricalTailEstimate(
        var_hat=var_hat,
        cvar_hat=cvar_hat,
        n_samples=n,
        standard_error=sd / math.sqrt(k),
        var_standard_error=math.sqrt(u * (1.0 - u) / n)
        * float(head[hi] - head[lo]) * n / (hi - lo),
        cvar_standard_error=math.sqrt(
            (sd * sd + (1.0 - u) * (var_hat - cvar_hat) ** 2) / k),
    )


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


def random_portfolio_search(p: PortfolioProblem, n: int, seed: int) -> OptimizationResult:
    """Best of n uniform random simplex portfolios under the risk objective.

    The portfolios are normalized exponential draws, scored in blocks.  The
    objective is positively homogeneous of degree 1, so a draw e with row
    sum s scores f(e)/s and only the winning draw is normalized.  Ties keep
    the first draw.

    No solver runs: the result reports iterations=0 and converged=False,
    and its kkt_residual measures how far the best draw is from the
    optimum.
    """
    n = _check_count(n, "portfolio draw")
    rng = np.random.default_rng(seed)
    psi_val = p.psi()
    best_e, best_s, best_f = None, 0.0, math.inf
    for start in range(0, n, _BLOCK):
        E = rng.standard_exponential((min(_BLOCK, n - start), p.n_assets))
        s = E.sum(axis=1)
        vals = (psi_val * np.sqrt(np.einsum("ij,ij->i", E @ p.cov, E)) - E @ p.mu) / s
        i = int(np.argmin(vals))
        if vals[i] < best_f:
            best_e, best_s, best_f = E[i], s[i], vals[i]
    best_w = best_e / best_s
    expected_return = float(p.mu @ best_w)
    variance = float(best_w @ p.cov @ best_w)
    return OptimizationResult(
        weights=best_w,
        psi=psi_val,
        risk=-expected_return + psi_val * math.sqrt(variance),
        expected_return=expected_return,
        variance=variance,
        iterations=0,
        converged=False,
        kkt_residual=_kkt_residual(p.mu, p.cov, psi_val, best_w),
    )
