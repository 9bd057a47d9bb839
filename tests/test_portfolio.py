import numpy as np
import pytest
from scipy.optimize import minimize as scipy_minimize

from conftest import THREE_ASSET_MU, three_asset_cov
from tailrisk import portfolio
from tailrisk.portfolio import (
    OptimizationResult,
    PortfolioProblem,
    SolverOptions,
    default_x_grid,
    frontier,
    min_variance_weights,
    optimize,
    project_simplex,
    risk_gradient,
    risk_objective,
)
from tailrisk.risk import CVAR, GAUSSIAN, STUDENT_T, VAR, RiskSpec, psi

GV = RiskSpec(GAUSSIAN, VAR)
T5_CVAR = RiskSpec(STUDENT_T, CVAR, 5.0)


def factor_problem(seed, n, cond, spec, u=1e-3):
    """Seeded k-factor covariance shifted along the identity to condition
    `cond`, expected returns drawn uniformly from [0, 0.12] (the kind of
    problem the optimize_factor benchmark solves)."""
    rng = np.random.default_rng(seed)
    k = max(1, round(n / 10))
    loadings = rng.normal(size=(n, k)) * rng.uniform(0.5, 1.5, size=(1, k))
    f = loadings @ loadings.T + np.diag(rng.uniform(0.5, 1.5, n))
    d = np.sqrt(np.diag(f))
    vol = rng.uniform(0.1, 0.35, n)
    cov = f / np.outer(d, d) * np.outer(vol, vol)
    ev = np.linalg.eigvalsh(cov)
    cov += (ev[-1] - cond * ev[0]) / (cond - 1.0) * np.eye(n)
    return PortfolioProblem(rng.uniform(0.0, 0.12, n), cov, spec, u)


def kkt_residual(p, w):
    """Largest violation of the simplex KKT conditions, computed here
    independently of the solver."""
    cw = p.cov @ w
    grad = -p.mu + p.psi() * cw / np.sqrt(w @ cw)
    lam = grad @ w
    held = w > 1e-8
    return max(np.max(np.abs(grad[held] - lam)),
               np.max(lam - grad[~held], initial=0.0))


def slsqp_min_variance(cov, min_return=None, mu=None):
    """Independent constrained-variance oracle."""
    n = cov.shape[0]
    cons = [{"type": "eq", "fun": lambda w: w.sum() - 1.0}]
    if min_return is not None:
        cons.append({"type": "ineq", "fun": lambda w: mu @ w - min_return})
    # multi-start: SLSQP's line search can stall from a single start point
    starts = [np.full(n, 1.0 / n)] + [np.eye(n)[i] for i in range(n)]
    best = None
    for w0 in starts:
        res = scipy_minimize(lambda w: w @ cov @ w, w0,
                             jac=lambda w: 2.0 * cov @ w,
                             bounds=[(0.0, 1.0)] * n, constraints=cons,
                             method="SLSQP",
                             options={"ftol": 1e-14, "maxiter": 500})
        if res.success and (best is None or res.fun < best.fun):
            best = res
    assert best is not None
    return best.x


class TestProblemValidation:
    def test_asymmetric_cov_rejected(self):
        cov = np.array([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            PortfolioProblem(np.zeros(2), cov, GV, 0.025)

    def test_non_pd_cov_rejected(self):
        # singular, then a pivot of 2e-14 that LAPACK accepts but the
        # 1e-12 * max-diagonal floor rejects
        for off in (1.0, 1.0 - 1e-14):
            cov = np.array([[1.0, off], [off, 1.0]])
            with pytest.raises(ValueError, match="positive definite"):
                PortfolioProblem(np.zeros(2), cov, GV, 0.025)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PortfolioProblem([0.1, bad], np.eye(2), GV, 0.025)
        cov = np.eye(2)
        cov[0, 1] = cov[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            PortfolioProblem(np.zeros(2), cov, GV, 0.025)
        with pytest.raises(ValueError, match="finite"):
            PortfolioProblem(np.zeros(2), np.diag([1.0, bad]), GV, 0.025)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PortfolioProblem(np.zeros(3), np.eye(2), GV, 0.025)

    def test_u_in_loss_tail(self):
        with pytest.raises(ValueError):
            PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.5)


class TestProjection:
    def test_already_feasible(self):
        w = np.array([0.2, 0.3, 0.5])
        assert project_simplex(w) == pytest.approx(w, abs=1e-15)

    def test_random_points_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = project_simplex(rng.normal(size=6, scale=3.0))
            assert np.all(p >= 0.0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)


class TestObjectiveAndGradient:
    def test_single_asset(self):
        p = PortfolioProblem([0.01], [[0.0004]], GV, 0.025)
        assert risk_objective(p, np.array([1.0])) == \
            pytest.approx(-0.01 + 1.95996 * 0.02, abs=1e-6)
        assert risk_gradient(p, np.array([1.0]))[0] == \
            pytest.approx(-0.01 + p.psi() * 0.02, rel=1e-12)

    def test_two_asset_identity_cov(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        w = np.array([0.5, 0.5])
        assert risk_objective(p, w) == pytest.approx(p.psi() * np.sqrt(0.5), rel=1e-13)
        g = risk_gradient(p, w)
        assert g[0] == pytest.approx(g[1], rel=1e-13)

    def test_dimension_mismatch(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        with pytest.raises(ValueError):
            risk_objective(p, np.array([1.0]))

    def test_infeasible_weights_rejected(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        with pytest.raises(ValueError):
            risk_objective(p, np.array([0.9, 0.3]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = 1e-6
        for _ in range(5):
            A = rng.normal(size=(5, 5))
            cov = A @ A.T + 0.5 * np.eye(5)
            mu = rng.normal(size=5, scale=0.05)
            p = PortfolioProblem(mu, cov, GV, 0.01)
            for _ in range(20):
                w = rng.dirichlet(np.ones(5))
                g = risk_gradient(p, w)
                psi_val = p.psi()
                for i in range(5):
                    e = np.zeros(5)
                    e[i] = h
                    wp, wm = w + e, w - e
                    fp = -mu @ wp + psi_val * np.sqrt(wp @ cov @ wp)
                    fm = -mu @ wm + psi_val * np.sqrt(wm @ cov @ wm)
                    assert abs((fp - fm) / (2 * h) - g[i]) <= 1e-6


class TestOptimize:
    def test_single_asset(self):
        p = PortfolioProblem([0.01], [[0.0004]], GV, 0.025)
        res = optimize(p)
        assert res.converged
        assert res.weights == pytest.approx([1.0], abs=1e-12)

    def test_symmetric_two_asset(self):
        p = PortfolioProblem([0.05, 0.05], 0.01 * np.eye(2), GV, 0.025)
        res = optimize(p)
        assert res.weights == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_result_invariants(self, t3_cvar_problem):
        res = optimize(t3_cvar_problem)
        assert res.converged
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
        recomputed = risk_objective(t3_cvar_problem, res.weights)
        assert abs(recomputed - res.risk) <= 1e-10

    def test_against_random_plus_slsqp_oracle(self, t3_cvar_problem):
        p = t3_cvar_problem
        rng = np.random.default_rng(5)
        e = rng.standard_exponential((1_000_000, 3))
        W = e / e.sum(axis=1, keepdims=True)
        psi_val = p.psi()
        vals = -W @ p.mu + psi_val * np.sqrt(np.einsum("ij,jk,ik->i", W, p.cov, W))
        w_best = W[np.argmin(vals)]
        # local polish with an independent solver
        res = scipy_minimize(
            lambda w: -p.mu @ w + psi_val * np.sqrt(w @ p.cov @ w), w_best,
            bounds=[(0.0, 1.0)] * 3,
            constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
            method="SLSQP", options={"ftol": 1e-14, "maxiter": 500})
        assert res.success
        ours = optimize(p)
        assert np.max(np.abs(ours.weights - res.x)) <= 1e-3

    def test_kkt_certificate(self, gauss_var_problem, t3_cvar_problem):
        for p in (gauss_var_problem, t3_cvar_problem):
            res = optimize(p)
            grad = risk_gradient(p, res.weights)
            lam = grad @ res.weights
            for wi, gi in zip(res.weights, grad):
                if wi > 1e-8:
                    assert abs(gi - lam) <= 1e-6
                else:
                    assert gi >= lam - 1e-6

    def test_convexity_restart_consistency(self, t3_cvar_problem):
        rng = np.random.default_rng(3)
        risks = []
        for _ in range(10):
            res = optimize(t3_cvar_problem, w0=rng.dirichlet(np.ones(3)))
            assert res.converged
            risks.append(res.risk)
        assert max(risks) - min(risks) <= 1e-8

    def test_iteration_cap_reports_nonconvergence(self, t3_cvar_problem):
        # one iteration: no held set has been seen twice, so no face solve
        res = optimize(t3_cvar_problem, SolverOptions(max_iter=1))
        assert not res.converged
        assert isinstance(res, OptimizationResult)

    def test_iteration_cap_stops_ill_conditioned_factor_problem(self):
        p = factor_problem(4, 45, 1e4, T5_CVAR)
        assert optimize(p).converged
        res = optimize(p, SolverOptions(max_iter=20))
        assert res.converged is False
        assert res.iterations == 20

    @pytest.mark.parametrize("seed, n, cond", [(1, 10, 1e2), (2, 25, 1e3),
                                               (3, 40, 1e4), (4, 60, 1e3),
                                               (5, 60, 1e4)])
    @pytest.mark.parametrize("spec", [GV, T5_CVAR])
    def test_factor_problems_solved_to_rounding(self, seed, n, cond, spec):
        p = factor_problem(seed, n, cond, spec)
        res = optimize(p)
        assert res.converged
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-14)
        assert kkt_residual(p, res.weights) <= 1e-12
        assert res.kkt_residual <= 1e-12

    def test_face_optimum_with_a_short_weight(self, monkeypatch):
        # assets 1 and 2 are 0.9 correlated and 2 earns less, so the optimum
        # on all three assets shorts asset 2: the solver steps toward it
        # until asset 2 reaches zero, then solves the face of assets 1 and 3
        targets = []

        def spy(*args):
            targets.append(face_optimum(*args))
            return targets[-1]

        face_optimum = portfolio._face_optimum
        monkeypatch.setattr(portfolio, "_face_optimum", spy)
        vol = np.array([0.2, 0.2, 0.15])
        corr = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
        p = PortfolioProblem([0.10, 0.02, 0.05], corr * np.outer(vol, vol), GV, 0.01)
        res = optimize(p)
        assert targets[0][1] < 0.0
        assert res.converged
        assert res.weights[1] == 0.0
        assert kkt_residual(p, res.weights) <= 1e-12
        # the ratio step alone, from uniform weights: a feasible descent step
        w = np.full(3, 1.0 / 3.0)
        step = portfolio._face_step(p.mu, p.cov, p.psi(), w, w > 0.0)
        assert step[1] == 0.0 and step[0] > 0.0 and step[2] > 0.0
        assert step.sum() == pytest.approx(1.0, abs=1e-15)
        assert risk_objective(p, step) < risk_objective(p, w)

    def test_face_optimum_closed_form(self):
        # mu = 0, psi = 1: the minimum-variance weights C^-1 1 / 1'C^-1 1
        cov = three_asset_cov()
        held = np.ones(3, dtype=bool)
        w = portfolio._face_optimum(np.zeros(3), cov, 1.0, held)
        a = np.linalg.solve(cov, np.ones(3))
        assert w == pytest.approx(a / a.sum(), abs=1e-15)
        assert portfolio._face_optimum(np.array([0.01]), np.array([[0.04]]), 2.0,
                                       np.ones(1, dtype=bool)) == pytest.approx([1.0])


class TestFrontier:
    def test_default_grid(self):
        assert default_x_grid() == pytest.approx(
            [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0])

    def test_single_asset_constant(self):
        p = PortfolioProblem([0.01], [[0.0004]], GV, 0.025)
        results = frontier(p)
        assert len(results) == 9
        for res in results:
            assert res.weights == pytest.approx([1.0], abs=1e-12)

    @pytest.mark.parametrize("spec", [GV, RiskSpec(STUDENT_T, CVAR, 3.0)])
    def test_points_equal_single_problems(self, spec):
        p = PortfolioProblem(THREE_ASSET_MU, three_asset_cov(), spec, 0.025)
        grid = [1.0, 2.5, 4.0, 6.0]
        for x, res in zip(grid, frontier(p, grid), strict=True):
            single = optimize(PortfolioProblem(p.mu, p.cov, spec, 10.0 ** -x))
            assert np.array_equal(res.weights, single.weights)
            assert res.psi == single.psi == psi(spec, 10.0 ** -x)

    def test_invalid_x_rejected(self, gauss_var_problem):
        with pytest.raises(ValueError):
            frontier(gauss_var_problem, [0.1])

    @pytest.mark.parametrize("spec", [GV, RiskSpec(STUDENT_T, CVAR, 3.0)])
    def test_variance_monotone_and_minvar_limit(self, spec):
        p = PortfolioProblem(THREE_ASSET_MU, three_asset_cov(), spec, 0.025)
        results = frontier(p)
        variances = [r.variance for r in results]
        for v1, v2 in zip(variances, variances[1:]):
            assert v2 <= v1 + 1e-10
        w_mv = min_variance_weights(p.cov)
        d_first = np.linalg.norm(results[0].weights - w_mv)
        d_last = np.linalg.norm(results[-1].weights - w_mv)
        assert d_last < d_first

    @pytest.mark.parametrize("spec", [GV, RiskSpec(STUDENT_T, CVAR, 3.0)])
    def test_frontier_membership(self, spec):
        p = PortfolioProblem(THREE_ASSET_MU, three_asset_cov(), spec, 0.025)
        for res in frontier(p):
            w_ref = slsqp_min_variance(p.cov, min_return=res.expected_return,
                                       mu=p.mu)
            var_ref = w_ref @ p.cov @ w_ref
            assert abs(res.variance - var_ref) <= 1e-6 * var_ref


class TestMinVariance:
    def test_identity(self):
        assert min_variance_weights(np.eye(3)) == pytest.approx([1 / 3] * 3, abs=1e-9)

    def test_two_asset_diagonal(self):
        assert min_variance_weights(np.diag([1.0, 4.0])) == \
            pytest.approx([0.8, 0.2], abs=1e-14)

    @pytest.mark.parametrize("cov", [[[1.0, 5.0], [0.0, 1.0]],
                                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
                                     [[1.0, np.nan], [np.nan, 1.0]],
                                     [1.0, 2.0]])
    def test_invalid_covariance_rejected(self, cov):
        with pytest.raises(ValueError):
            min_variance_weights(cov)

    def test_three_asset_vs_oracle(self):
        cov = three_asset_cov()
        assert min_variance_weights(cov) == \
            pytest.approx(slsqp_min_variance(cov), abs=1e-4)
