"""Mean-standard-deviation portfolio optimization over the long-only simplex.

The objective is  -mu.w + psi(u) * sqrt(w' C w), which is convex (linear
plus a scaled norm).  Projected gradient with an exact Euclidean simplex
projection and Armijo backtracking finds which assets are held.  Once the
held set S stays the same for two iterations, the optimum over S with
weights summing to one has a closed form (the two-fund theorem: the
tangency point of S's mean-sigma hyperbola), which one Cholesky solve
gives.  If it is long-only the solver jumps there; otherwise it steps
toward it as far as the simplex allows.  A jump that leaves a positive
projected gradient hands back to projected gradient, so the result
carries a KKT certificate either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import risk as _risk
from .risk import RiskSpec
from .special import check_probability

__all__ = [
    "PortfolioProblem",
    "SolverOptions",
    "OptimizationResult",
    "project_simplex",
    "risk_objective",
    "risk_gradient",
    "optimize",
    "frontier",
    "min_variance_weights",
    "default_x_grid",
]

_ACTIVE_TOL = 1e-8  # weights below this count as at the boundary for KKT


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
        check_probability(self.u)
        if self.u >= 0.5:
            raise ValueError(f"loss-tail level must satisfy u < 1/2, got {self.u}")

    @property
    def n_assets(self) -> int:
        return self.mu.size

    def psi(self) -> float:
        return _risk.psi(self.spec, self.u)


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 100_000
    grad_tol: float = 1e-9     # projected-gradient norm
    step_tol: float = 1e-12    # weight-change norm
    initial_step: float = 1.0
    step_growth: float = 1.3
    step_shrink: float = 0.5


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


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {w : w >= 0, sum w = 1}."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = ind[u - css / ind > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


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
    """Minimizer of the objective over {w : sum w = 1, w = 0 off held}, with
    no sign constraint, or None if psi is too small for one to exist.

    With a = C_S^-1 1 and b = C_S^-1 mu_S on the held assets S, it is
    (b + lam a) / sqrt(disc), the tangency point of S's mean-sigma
    hyperbola (Merton 1972).
    """
    L = np.linalg.cholesky(cov[np.ix_(held, held)])
    rhs = np.column_stack((np.ones(L.shape[0]), mu[held]))
    a, b = np.linalg.solve(L.T, np.linalg.solve(L, rhs)).T
    A, B = float(a.sum()), float(b.sum())
    disc = B * B - A * float(mu[held] @ b) + A * psi_val * psi_val
    if not disc > 0.0:
        return None
    root = math.sqrt(disc)
    w = np.zeros(mu.size)
    w[held] = (b + (root - B) / A * a) / root
    return w


def _face_step(mu, cov, psi_val, w, held):
    """w moved toward the face optimum of its held assets, as far as the
    simplex allows (all the way if the optimum is long-only)."""
    target = _face_optimum(mu, cov, psi_val, held)
    if target is None:
        return None
    short = np.flatnonzero(target < 0.0)
    if short.size == 0:
        return target
    ratios = w[short] / (w[short] - target[short])
    j = int(np.argmin(ratios))
    wn = np.maximum(w + ratios[j] * (target - w), 0.0)
    wn[short[j]] = 0.0
    return wn


def _minimize(mu, cov, psi_val, opts: SolverOptions,
              w0: np.ndarray | None = None) -> OptimizationResult:
    n = mu.size
    w = np.full(n, 1.0 / n) if w0 is None else project_simplex(w0)
    fw = _objective(mu, cov, psi_val, w)
    gw = _gradient(mu, cov, psi_val, w)
    t = opts.initial_step
    converged = False
    iters = 0
    held, tried = None, set()
    for iters in range(1, opts.max_iter + 1):
        while True:
            wn = project_simplex(w - t * gw)
            d = wn - w
            fn = _objective(mu, cov, psi_val, wn)
            # sufficient decrease for the proximal-gradient model
            if fn <= fw + float(gw @ d) + float(d @ d) / (2.0 * t) + 1e-18:
                break
            t *= opts.step_shrink
        pg_norm = float(np.linalg.norm(w - project_simplex(w - gw)))
        step_norm = float(np.linalg.norm(d))
        w, fw = wn, fn
        gw = _gradient(mu, cov, psi_val, w)
        if pg_norm <= opts.grad_tol or step_norm <= opts.step_tol:
            converged = True
            break
        # the same held assets after two iterations: try that face's optimum
        prev, held = held, w > 0.0
        if prev is not None and np.array_equal(prev, held) \
                and (key := held.tobytes()) not in tried:
            tried.add(key)
            wf = _face_step(mu, cov, psi_val, w, held)
            if wf is not None and (ff := _objective(mu, cov, psi_val, wf)) <= fw:
                w, fw = wf, ff
                gw = _gradient(mu, cov, psi_val, w)
                if np.linalg.norm(w - project_simplex(w - gw)) <= opts.grad_tol:
                    converged = True
                    break
        t *= opts.step_growth
    return OptimizationResult(
        weights=w,
        psi=psi_val,
        risk=fw,
        expected_return=float(mu @ w),
        variance=float(w @ cov @ w),
        iterations=iters,
        converged=converged,
        kkt_residual=_kkt_residual(gw, w),
    )


def optimize(p: PortfolioProblem, opts: SolverOptions | None = None,
             w0: np.ndarray | None = None) -> OptimizationResult:
    """Minimize the risk objective over the long-only simplex.

    Starts from uniform weights (or w0 if given).  On hitting the
    iteration cap the best iterate is returned with converged=False; the
    caller decides how to treat it.
    """
    return _minimize(p.mu, p.cov, p.psi(), opts or SolverOptions(), w0)


def default_x_grid() -> list[float]:
    """x in [1, 5] in steps of a half; the tail level is u = 10^-x."""
    return [1.0 + 0.5 * i for i in range(9)]


def frontier(p: PortfolioProblem, x_grid=None) -> list[OptimizationResult]:
    """One optimization per tail level u = 10^-x along the grid.

    Only psi changes along the grid, so every point reuses p's validated
    mu and C; each result carries the psi it was solved at.
    """
    if x_grid is None:
        x_grid = default_x_grid()
    psis = [_risk.psi(p.spec, 10.0 ** -x) for x in x_grid]
    return [_minimize(p.mu, p.cov, psi_val, SolverOptions()) for psi_val in psis]


def min_variance_weights(cov: np.ndarray,
                         opts: SolverOptions | None = None) -> np.ndarray:
    """Simplex portfolio minimizing w' C w (the psi -> infinity limit)."""
    cov = _checked_cov(cov)
    mu = np.zeros(cov.shape[0])
    return _minimize(mu, cov, 1.0, opts or SolverOptions()).weights
