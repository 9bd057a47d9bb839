"""Mean-standard-deviation portfolio optimization over the long-only simplex.

The objective -mu.w + psi(u) * sqrt(w' C w) is convex.  On a set S of held
assets, with weights summing to one and no sign constraint, its optimum is
the tangency point of S's mean-sigma hyperbola at slope psi (the two-fund
theorem): w = a/A + d/v with v = sqrt(A (psi^2 - s2)), from one LU solve
with C_S, a principal submatrix of the validated positive-definite C.  The
long-only optimum is thus one piecewise closed-form path in psi, the
critical line (Markowitz 1956), which the solver sweeps up from psi = 0,
where the optimum is the asset of highest return.  On each face the next
event is the v where a held weight falls to zero (the asset leaves) or an
unheld reduced gradient does (it joins); requested psis below it are read
off the face.  The path point lies on every face's hyperbola, so
psi^2 > s2 on each face met and none is unbounded.  A result's iteration
count is the number of faces solved up to its psi.

Only psi depends on the risk spec and tail level, so `sweep` serves any
set of multipliers over one (mu, C) in one pass: `frontier` its grid, and
the CLI's frontier command the file's spec and the Gaussian-VaR reference
together.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import risk as _risk
from .risk import RiskSpec, check_loss_tail

__all__ = [
    "PortfolioProblem",
    "OptimizationResult",
    "risk_gradient",
    "optimize",
    "sweep",
    "frontier",
    "min_variance_weights",
    "default_x_grid",
]

_ACTIVE_TOL = 1e-8  # weights below this count as at the boundary for KKT
# Faces per sweep.  A sweep solves about one per asset it ever holds, so
# the cap stops only a sweep that has lost its way; it is read at call time.
_MAX_ITER = 10_000


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


def _gradient(mu, psi_val, cw, var):
    """-mu + psi C w / sqrt(w' C w), from C w and w' C w."""
    return -mu + psi_val * cw / math.sqrt(var)


def risk_gradient(p: PortfolioProblem, w: np.ndarray) -> np.ndarray:
    """Gradient -mu + psi(u) C w / sqrt(w' C w) at the given weights, which
    must be nonnegative and sum to one."""
    w = np.asarray(w, dtype=float)
    if w.shape != (p.n_assets,) or np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-10:
        raise ValueError(f"weights must be {p.n_assets} nonnegative numbers summing to one")
    cw = p.cov @ w
    return _gradient(p.mu, p.psi(), cw, float(w @ cw))


def _kkt_residual(grad: np.ndarray, w: np.ndarray) -> float:
    lam = float(grad @ w)  # weighted average multiplier (sum w = 1)
    active = w > _ACTIVE_TOL
    return max(float(np.max(np.abs(grad[active] - lam))),
               float(np.max(lam - grad[~active], initial=0.0)))


def _face(mu, cov, held):
    """(rows, a, d, A, m0, s2) of the held assets S: rows = C[S, :], the
    held rows, a = C_S^-1 1, A = 1'a, m0 = 1'b / A for b = C_S^-1 mu_S,
    d = b - m0 a (the asymptote of S's mean-sigma hyperbola) and
    s2 = (mu_S - m0)'d (its squared slope).  The optimum on S is
    a/A + d / sqrt(A (psi^2 - s2)) (Merton 1972).  d is made free of its
    mean and s2 taken from mu_S - m0, which keeps the sum at one and
    psi^2 - s2 exact to rounding for nearly equal returns.  a and b come
    from one LU solve: C_S is positive definite as a principal submatrix
    of C.
    """
    rows = cov[held]
    mu_s = mu[held]
    a, b = np.linalg.solve(rows[:, held], np.column_stack((np.ones(mu_s.size), mu_s))).T
    A = float(a.sum())
    m0 = float(b.sum()) / A
    d = b - m0 * a
    d -= d.mean()
    return rows, a, d, A, m0, float((mu_s - m0) @ d)


def _result(mu, cov, psi_val, w, faces, converged) -> OptimizationResult:
    cw = cov @ w
    ret, var = float(mu @ w), float(w @ cw)
    return OptimizationResult(w, psi_val, -ret + psi_val * math.sqrt(var), ret, var, faces,
                              converged, _kkt_residual(_gradient(mu, psi_val, cw, var), w))


def _sweep(mu, cov, psis) -> list[OptimizationResult]:
    """The optimum at each multiplier in psis (positive, any order), read
    off the critical line swept up from psi = 0.  Events are ordered in
    v = sqrt(A (psi^2 - s2)) = psi / sigma, which is continuous across faces.
    """
    n = mu.size
    results = [None] * len(psis)
    pending = sorted(range(len(psis)), key=psis.__getitem__)
    # at psi = 0 the optimum is the asset of highest return; among equal
    # returns the least volatile, then the first
    last = start = int(np.lexsort((np.diag(cov), -mu))[0])
    held = np.arange(n) == start
    v, faces = 0.0, 0
    while True:
        faces += 1
        rows, a, d, A, m0, s2 = _face(mu, cov, held)
        # the v at which each asset changes: a held asset leaves where its
        # weight a_i/A + d_i/v falls to zero, an unheld one joins where its
        # reduced gradient (C_jS a - 1) v/A + C_jS d - mu_j + m0 does.  An
        # event below the current v is due now.  The asset that changed
        # last sits exactly at its event, so it takes no part.  Entries
        # the masks drop may divide by zero
        ca, cd = np.vstack((a, d)) @ rows  # C symmetric: C_jS a = a'C_Sj
        with np.errstate(divide="ignore", invalid="ignore"):
            event = np.where(~held & (ca < 1.0), A * (cd - mu + m0) / (1.0 - ca), np.inf)
            event[held] = np.where(a < 0.0, -A * d / a, np.inf)
        event[last] = np.inf
        last = int(np.argmin(event))
        v = max(v, float(event[last]))
        while pending and psis[pending[0]] ** 2 < v * v / A + s2:
            i = pending.pop(0)
            x = np.zeros(n)
            x[held] = a / A + d / math.sqrt(A * (psis[i] * psis[i] - s2))
            results[i] = _result(mu, cov, psis[i], x, faces, True)
        if not pending:
            return results
        if faces == _MAX_ITER:
            break
        held[last] = not held[last]
    # capped: every psi left gets the path point where the sweep stopped
    x = np.zeros(n)
    if v > 0.0:
        x[held] = np.maximum(a / A + d / v, 0.0)
    else:
        x[start] = 1.0
    for i in pending:
        results[i] = _result(mu, cov, psis[i], x, faces, False)
    return results


def optimize(p: PortfolioProblem) -> OptimizationResult:
    """Minimize the risk objective over the long-only simplex.

    A sweep that hits the face cap returns the path point it reached
    (always feasible) with converged=False; the caller decides how to
    treat it.
    """
    return _sweep(p.mu, p.cov, [p.psi()])[0]


def sweep(p: PortfolioProblem, psis) -> list[OptimizationResult]:
    """The optimum at each loss multiplier in psis, in the given order, from
    one sweep up the critical line of p's validated mu and C (p's spec and
    tail level play no part).  Each result carries the psi it was solved
    at.  ValueError unless psis is a non-empty list of positive finite
    numbers.
    """
    psis = [float(x) for x in psis]
    if not psis:
        raise ValueError("sweep needs at least one psi")
    for x in psis:
        if not 0.0 < x < math.inf:
            raise ValueError(f"psi must be positive and finite, got {x}")
    return _sweep(p.mu, p.cov, psis)


def default_x_grid() -> list[float]:
    """x in [1, 5] in steps of a half; the tail level is u = 10^-x."""
    return [1.0 + 0.5 * i for i in range(9)]


def frontier(p: PortfolioProblem, x_grid=None) -> list[OptimizationResult]:
    """The optimum at each tail level u = 10^-x along the grid.

    Only psi changes along the grid, so one sweep over p's validated mu
    and C serves every point; each result carries the psi it was solved
    at.
    """
    if x_grid is None:
        x_grid = default_x_grid()
    return _sweep(p.mu, p.cov, [_risk.psi(p.spec, 10.0 ** -x) for x in x_grid])


def min_variance_weights(cov: np.ndarray) -> np.ndarray:
    """Simplex portfolio minimizing w' C w (the psi -> infinity limit)."""
    cov = _checked_cov(cov)
    return _sweep(np.zeros(cov.shape[0]), cov, [1.0])[0].weights
