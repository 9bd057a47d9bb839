"""Mean-standard-deviation portfolio optimization over the long-only simplex.

The objective is  -mu.w + psi(u) * sqrt(w' C w), which is convex (linear
plus a scaled norm).  On a fixed set S of held assets, with weights
summing to one and no sign constraint, it has a closed-form optimum (the
two-fund theorem: the tangency point of S's mean-sigma hyperbola), which
one Cholesky solve gives.  When psi is below the slope of the hyperbola's
asymptote there is no optimum and the same solve gives a ray along which
the objective falls without bound.

The solver is a primal active-set loop over these face solves, the
critical-line view of the long-only frontier (Markowitz 1956).  It starts
at the single asset of lowest risk.  It moves toward the face optimum, or
along the ray, until a weight reaches zero, and that asset leaves S.  If
no weight reaches zero it jumps to the optimum and prices the unheld
assets: the one with the most negative reduced gradient joins S.  It
stops when no reduced gradient is below a tolerance scaled to the
problem, so the result carries a KKT certificate.  The iteration count is
the number of face solves.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import risk as _risk
from .risk import RiskSpec, check_loss_tail

__all__ = [
    "PortfolioProblem",
    "OptimizationResult",
    "risk_objective",
    "risk_gradient",
    "optimize",
    "frontier",
    "min_variance_weights",
    "default_x_grid",
]

_ACTIVE_TOL = 1e-8  # weights below this count as at the boundary for KKT
# Face solves per run.  A run takes about one per asset it ever holds, so
# the cap stops only a run that has lost its way; it is read at call time.
_MAX_ITER = 10_000
# The loop stops once every reduced gradient is above -_STOP_TOL times
# max|mu| + psi * max sqrt(C_ii), the scale of the gradient.
_STOP_TOL = 1e-13


def _checked_cov(cov, n: int | None = None) -> np.ndarray:
    """cov as a float array; ValueError unless it is a finite, symmetric,
    positive-definite n x n matrix (any n >= 1 when n is None).

    Cholesky pivots diag(L)**2 below 1e-12 * max diagonal count as failure,
    as does a matrix LAPACK cannot factor.  LAPACK alone would accept tiny
    positive pivots and NaN, hence the explicit floor.
    """
    cov = np.asarray(cov, dtype=float)
    if n is None:
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.size == 0:
            raise ValueError(
                f"covariance must be a non-empty square matrix, got shape {cov.shape}")
    elif cov.shape != (n, n):
        raise ValueError(f"covariance shape {cov.shape} does not match {n} assets")
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance must be finite")
    scale = max(float(np.max(np.abs(cov))), 1e-300)
    if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
        raise ValueError("covariance must be symmetric")
    floor = 1e-12 * float(np.max(np.diag(cov)))
    try:
        pivots = np.diag(np.linalg.cholesky(cov)) ** 2
    except np.linalg.LinAlgError:
        raise ValueError("covariance is not positive definite") from None
    bad = np.flatnonzero(~(pivots >= floor))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"covariance is not positive definite "
                         f"(pivot {pivots[i]:.3e} at index {i})")
    return cov


@dataclass(frozen=True)
class PortfolioProblem:
    """Expected returns, covariance, and the risk spec + tail level."""
    mu: np.ndarray
    cov: np.ndarray
    spec: RiskSpec
    u: float

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.ndim != 1 or mu.size < 1:
            raise ValueError("expected returns must be a non-empty vector")
        if not np.all(np.isfinite(mu)):
            raise ValueError("expected returns must be finite")
        object.__setattr__(self, "cov", _checked_cov(self.cov, mu.size))
        check_loss_tail(self.u)

    @property
    def n_assets(self) -> int:
        return self.mu.size

    def psi(self) -> float:
        return _risk.psi(self.spec, self.u)


@dataclass
class OptimizationResult:
    weights: np.ndarray
    psi: float                 # the loss multiplier the objective used
    risk: float
    expected_return: float
    variance: float
    iterations: int
    converged: bool
    kkt_residual: float

    def as_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "risk": self.risk,
            "expected_return": self.expected_return,
            "variance": self.variance,
            "iterations": self.iterations,
            "converged": self.converged,
            "kkt_residual": self.kkt_residual,
        }


def check_weights(w: np.ndarray, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weight vector has shape {w.shape}, expected ({n},)")
    if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValueError("weights must be nonnegative and sum to one")
    return w


def _objective(mu, cov, psi_val, w):
    return -float(mu @ w) + psi_val * math.sqrt(float(w @ cov @ w))


def _gradient(mu, cov, psi_val, w):
    return -mu + psi_val * (cov @ w) / math.sqrt(float(w @ cov @ w))


def risk_objective(p: PortfolioProblem, w: np.ndarray) -> float:
    """-mu.w + psi(u) sqrt(w' C w) at the given feasible weights."""
    w = check_weights(w, p.n_assets)
    return _objective(p.mu, p.cov, p.psi(), w)


def risk_gradient(p: PortfolioProblem, w: np.ndarray) -> np.ndarray:
    """Gradient -mu + psi(u) C w / sqrt(w' C w)."""
    w = check_weights(w, p.n_assets)
    return _gradient(p.mu, p.cov, p.psi(), w)


def _kkt_residual(grad: np.ndarray, w: np.ndarray) -> float:
    lam = float(grad @ w)  # weighted average multiplier (sum w = 1)
    active = w > _ACTIVE_TOL
    res = float(np.max(np.abs(grad[active] - lam)))
    if np.any(~active):
        res = max(res, float(np.max(np.maximum(0.0, lam - grad[~active]))))
    return res


def _face_optimum(mu, cov, psi_val, held):
    """The objective's minimizer over {w : sum w = 1, w = 0 off held}, with
    no sign constraint, as (w, True); or, when psi is too small for one to
    exist, (d, False) with d (sum d = 0) a ray along which the objective
    falls without bound.

    With a = C_S^-1 1, b = C_S^-1 mu_S, A = 1'a and m0 = 1'b / A on the
    held assets S, d = b - m0 a is the direction of the upper asymptote of
    S's mean-sigma hyperbola and s2 = (mu_S - m0)'d its squared slope.  The
    minimizer is the tangency point a/A + d / sqrt(A (psi^2 - s2)) (Merton
    1972), which exists when psi^2 > s2.  Taking d free of its mean and s2
    from mu_S - m0 keeps the sum at one and the sign of psi^2 - s2 exact
    to rounding when the returns on S are nearly equal and psi is small.
    """
    L = np.linalg.cholesky(cov[np.ix_(held, held)])
    rhs = np.column_stack((np.ones(L.shape[0]), mu[held]))
    a, b = np.linalg.solve(L.T, np.linalg.solve(L, rhs)).T
    A = float(a.sum())
    m0 = float(b.sum()) / A
    d = b - m0 * a
    d -= d.mean()
    disc = A * (psi_val * psi_val - float((mu[held] - m0) @ d))
    x = np.zeros(mu.size)
    if not disc > 0.0:
        x[held] = d
        return x, False
    x[held] = a / A + d / math.sqrt(disc)
    return x, True


def _minimize(mu, cov, psi_val, w=None) -> OptimizationResult:
    """Primal active-set descent from the feasible weights w (by default
    the single asset of lowest risk); each iteration is one face solve."""
    if w is None:
        w = np.zeros(mu.size)
        w[np.argmin(psi_val * np.sqrt(np.diag(cov)) - mu)] = 1.0
    held = w > 0.0
    tol = _STOP_TOL * (float(np.max(np.abs(mu)))
                       + psi_val * math.sqrt(float(np.max(np.diag(cov)))))
    converged = False
    iters = 0
    for iters in range(1, _MAX_ITER + 1):
        x, bounded = _face_optimum(mu, cov, psi_val, held)
        d = x - w if bounded else x
        block = np.flatnonzero(x < 0.0 if bounded else d < 0.0)
        if block.size:
            # ratio test: move until the first weight reaches zero; that
            # asset leaves the held set
            ratios = w[block] / -d[block]
            k = int(np.argmin(ratios))
            w = np.maximum(w + ratios[k] * d, 0.0)
            w[block[k]] = 0.0
            held[block[k]] = False
            continue
        # the face optimum is long-only: price the unheld assets there
        w = x
        gw = _gradient(mu, cov, psi_val, w)
        reduced = np.where(held, np.inf, gw - float(gw @ w))
        j = int(np.argmin(reduced))
        if not reduced[j] < -tol:
            converged = True
            break
        held[j] = True
    gw = _gradient(mu, cov, psi_val, w)
    return OptimizationResult(
        weights=w,
        psi=psi_val,
        risk=_objective(mu, cov, psi_val, w),
        expected_return=float(mu @ w),
        variance=float(w @ cov @ w),
        iterations=iters,
        converged=converged,
        kkt_residual=_kkt_residual(gw, w),
    )


def optimize(p: PortfolioProblem) -> OptimizationResult:
    """Minimize the risk objective over the long-only simplex.

    On hitting the iteration cap the last iterate (always feasible) is
    returned with converged=False; the caller decides how to treat it.
    """
    return _minimize(p.mu, p.cov, p.psi())


def default_x_grid() -> list[float]:
    """x in [1, 5] in steps of a half; the tail level is u = 10^-x."""
    return [1.0 + 0.5 * i for i in range(9)]


def frontier(p: PortfolioProblem, x_grid=None) -> list[OptimizationResult]:
    """One optimization per tail level u = 10^-x along the grid.

    Only psi changes along the grid, so every point reuses p's validated
    mu and C, and each solve starts from the previous point's weights;
    each result carries the psi it was solved at.
    """
    if x_grid is None:
        x_grid = default_x_grid()
    psis = [_risk.psi(p.spec, 10.0 ** -x) for x in x_grid]
    results, w = [], None
    for psi_val in psis:
        results.append(_minimize(p.mu, p.cov, psi_val, w))
        w = results[-1].weights
    return results


def min_variance_weights(cov: np.ndarray) -> np.ndarray:
    """Simplex portfolio minimizing w' C w (the psi -> infinity limit)."""
    cov = _checked_cov(cov)
    mu = np.zeros(cov.shape[0])
    return _minimize(mu, cov, 1.0).weights
