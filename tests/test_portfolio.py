import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from conftest import THREE_ASSET_MU, three_asset_cov
from tailrisk import portfolio
from tailrisk.portfolio import (
    OptimizationResult,
    PortfolioProblem,
    default_x_grid,
    frontier,
    min_variance_weights,
    optimize,
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


@pytest.fixture
def faces(monkeypatch):
    """(held assets, result, bounded) of every face solve, in order."""
    log = []
    face_optimum = portfolio._face_optimum

    def spy(mu, cov, psi_val, held):
        log.append((np.flatnonzero(held).tolist(), *face_optimum(mu, cov, psi_val, held)))
        return log[-1][1:]

    monkeypatch.setattr(portfolio, "_face_optimum", spy)
    return log


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

    def test_iteration_cap_reports_nonconvergence(self, t3_cvar_problem, monkeypatch):
        # one face solve: the single starting asset, after which another
        # asset still prices in
        monkeypatch.setattr(portfolio, "_MAX_ITER", 1)
        res = optimize(t3_cvar_problem)
        assert not res.converged
        assert res.iterations == 1
        assert isinstance(res, OptimizationResult)

    def test_iteration_cap_stops_ill_conditioned_factor_problem(self, monkeypatch):
        p = factor_problem(4, 45, 1e4, T5_CVAR)
        assert optimize(p).converged
        monkeypatch.setattr(portfolio, "_MAX_ITER", 20)
        res = optimize(p)
        assert res.converged is False
        assert res.iterations == 20
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-14)

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

    def test_face_optimum_with_a_short_weight(self, faces, monkeypatch):
        # asset 3 is the least volatile, so the solver starts there; assets
        # 1 and then 2 price in.  Asset 2 is 0.9 correlated with asset 3 and
        # earns more, so the optimum on all three shorts asset 3: the solver
        # steps toward it until asset 3 reaches zero, then solves the face
        # of assets 1 and 2, where symmetry puts the optimum at (1/2, 1/2)
        vol = np.array([0.2, 0.2, 0.15])
        corr = np.array([[1.0, 0.1, 0.5], [0.1, 1.0, 0.9], [0.5, 0.9, 1.0]])
        p = PortfolioProblem([0.05, 0.05, 0.02], corr * np.outer(vol, vol), GV, 0.01)
        res = optimize(p)
        assert [held for held, _, _ in faces] == [[2], [0, 2], [0, 1, 2], [0, 1]]
        assert all(bounded for _, _, bounded in faces)
        target = faces[2][1]
        assert target[2] < 0.0 < min(target[0], target[1])
        assert res.converged and res.iterations == 4
        assert res.weights[2] == 0.0
        assert res.weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
        assert kkt_residual(p, res.weights) <= 1e-12
        # the ratio step itself: capped after the third face solve, the
        # solver has moved from the optimum on assets 1 and 3 toward the
        # target, stopping where asset 3 reaches zero
        monkeypatch.setattr(portfolio, "_MAX_ITER", 2)
        before = optimize(p).weights
        monkeypatch.setattr(portfolio, "_MAX_ITER", 3)
        step = optimize(p).weights
        assert before[1] == 0.0 and before[2] > 0.0
        t = before[2] / (before[2] - target[2])
        assert step == pytest.approx(before + t * (target - before), abs=1e-15)
        assert step[2] == 0.0 and step[0] > 0.0 and step[1] > 0.0
        assert step.sum() == pytest.approx(1.0, abs=1e-15)
        assert risk_objective(p, step) < risk_objective(p, before)

    def test_ratio_step_stops_at_the_first_weight_to_reach_zero(self, faces, monkeypatch):
        # the fifth face solve of this problem shorts two assets; the step
        # toward its optimum stops where the first of them reaches zero
        p = factor_problem(14, 5, 1e2, GV)
        monkeypatch.setattr(portfolio, "_MAX_ITER", 5)
        step = optimize(p).weights
        held, target, bounded = faces[4]
        short = np.flatnonzero(target < 0.0)
        assert bounded and short.size == 2
        monkeypatch.setattr(portfolio, "_MAX_ITER", 4)
        before = optimize(p).weights
        ratios = before[short] / (before[short] - target[short])
        assert step == pytest.approx(before + ratios.min() * (target - before), abs=1e-15)
        assert step[short[np.argmin(ratios)]] == 0.0
        assert step[short[np.argmax(ratios)]] > 0.0
        assert np.all(step >= 0.0)
        assert step.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unbounded_face_takes_the_ray(self, faces):
        # one factor with loadings (-1, 0.5, 2) and little idiosyncratic
        # risk: long-short mixes of the three assets earn far more than
        # psi = 0.126 (Gaussian VaR at u = 0.45) charges for their risk, so
        # the face of all three has no optimum.  The solver moves along
        # the ray until asset 2 reaches zero, then solves assets 1 and 3.
        beta = np.array([-1.0, 0.5, 2.0])
        cov = 0.04 * np.outer(beta, beta) + 0.0004 * np.eye(3)
        p = PortfolioProblem([0.02, 0.02, 0.05], cov, GV, 0.45)
        res = optimize(p)
        assert [held for held, _, _ in faces] == [[1], [0, 1], [0, 1, 2], [0, 2]]
        assert [bounded for _, _, bounded in faces] == [True, True, False, True]
        ray = faces[2][1]
        assert abs(ray.sum()) <= 1e-12 * np.max(np.abs(ray))
        # the objective's slope along the ray at infinity is not positive
        assert -p.mu @ ray + p.psi() * np.sqrt(ray @ cov @ ray) <= 0.0
        assert ray[1] < 0.0
        assert res.converged
        assert res.weights[1] == 0.0
        assert kkt_residual(p, res.weights) <= 1e-12
        # an independent solver from every vertex and the centre agrees
        objective = lambda w: -p.mu @ w + p.psi() * np.sqrt(w @ cov @ w)  # noqa: E731
        best = min((scipy_minimize(objective, w0, bounds=[(0.0, 1.0)] * 3,
                                   constraints=[{"type": "eq",
                                                 "fun": lambda w: w.sum() - 1.0}],
                                   method="SLSQP",
                                   options={"ftol": 1e-15, "maxiter": 500})
                    for w0 in [np.full(3, 1 / 3), *np.eye(3)]),
                   key=lambda r: r.fun)
        assert res.risk <= best.fun + 1e-12
        assert np.max(np.abs(res.weights - best.x)) <= 1e-5

    @pytest.mark.parametrize("u", [0.5 - 4e-7, 0.5 - 4e-9, 0.5 - 4e-13])
    @pytest.mark.parametrize("spread", [0.0, 1e-9])
    def test_tiny_psi_and_nearly_equal_returns(self, u, spread):
        # psi = 1e-6, 1e-8, 1e-12 with returns equal to within 1e-9: the
        # faces' mean-sigma hyperbolas are nearly flat, and 1'C^-1 mu
        # squared cancels against 1'C^-1 1 mu'C^-1 mu to rounding
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = rng.normal(size=(5, 5))
            cov = 0.01 * (a @ a.T + np.eye(5))
            mu = 0.05 + spread * rng.normal(size=5)
            p = PortfolioProblem(mu, cov, GV, u)
            res = optimize(p)
            assert res.converged
            assert np.all(res.weights >= 0.0)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-15)
            assert kkt_residual(p, res.weights) <= 1e-12

    def test_face_optimum_closed_form(self):
        # mu = 0, psi = 1: the minimum-variance weights C^-1 1 / 1'C^-1 1
        cov = three_asset_cov()
        held = np.ones(3, dtype=bool)
        w, bounded = portfolio._face_optimum(np.zeros(3), cov, 1.0, held)
        a = np.linalg.solve(cov, np.ones(3))
        assert bounded
        assert w == pytest.approx(a / a.sum(), abs=1e-15)
        w, bounded = portfolio._face_optimum(np.array([0.01]), np.array([[0.04]]), 2.0,
                                             np.ones(1, dtype=bool))
        assert bounded and w == pytest.approx([1.0])


@st.composite
def long_only_problems(draw):
    """Random factor-model problems of 1-12 assets.  A small idiosyncratic
    share makes assets nearly collinear, so that at low psi (down to 0.126,
    Gaussian VaR at u = 0.45) some faces have no optimum."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    idio = draw(st.floats(1e-2, 1.0))
    spec = draw(st.sampled_from([GV, T5_CVAR, RiskSpec(STUDENT_T, VAR, 3.0)]))
    u = 10.0 ** -draw(st.floats(-math.log10(0.45), 6.0))
    loadings = rng.normal(size=(n, draw(st.integers(1, 3))))
    f = loadings @ loadings.T + idio * np.diag(rng.uniform(0.5, 1.5, n))
    d = np.sqrt(np.diag(f))
    vol = rng.uniform(0.05, 0.4, n)
    cov = f / np.outer(d, d) * np.outer(vol, vol)
    return PortfolioProblem(rng.uniform(-0.05, 0.15, n), (cov + cov.T) / 2.0, spec, u)


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


class TestSolverProperties:
    @PROPERTY_SETTINGS
    @given(long_only_problems())
    def test_converges_to_a_kkt_point(self, p):
        res = optimize(p)
        assert res.converged
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert kkt_residual(p, res.weights) <= 1e-12
        assert res.kkt_residual <= 1e-12

    @PROPERTY_SETTINGS
    @given(long_only_problems(), st.integers(1, 12))
    def test_every_iterate_is_feasible(self, p, cap):
        # stopped after `cap` face solves, the solver returns its current
        # iterate: after a ratio step, a ray step or a jump it is on the
        # simplex
        saved = portfolio._MAX_ITER
        portfolio._MAX_ITER = cap
        try:
            res = optimize(p)
        finally:
            portfolio._MAX_ITER = saved
        assert res.iterations <= cap
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-13)

    @PROPERTY_SETTINGS
    @given(long_only_problems(), st.data())
    def test_asset_order_does_not_matter(self, p, data):
        perm = np.array(data.draw(st.permutations(range(p.n_assets))))
        res = optimize(p)
        permuted = optimize(PortfolioProblem(p.mu[perm], p.cov[np.ix_(perm, perm)],
                                             p.spec, p.u))
        assert np.max(np.abs(permuted.weights - res.weights[perm])) <= 1e-11

    @PROPERTY_SETTINGS
    @given(long_only_problems(), st.floats(-6.0, 6.0))
    def test_scaling_returns_scales_risk(self, p, log_k):
        k = 10.0 ** log_k
        res = optimize(p)
        scaled = optimize(PortfolioProblem(p.mu * k, p.cov * k * k, p.spec, p.u))
        size = np.abs(p.mu) @ res.weights + res.psi * math.sqrt(res.variance)
        assert abs(scaled.risk - k * res.risk) <= 1e-12 * k * size
        assert np.max(np.abs(scaled.weights - res.weights)) <= 1e-11


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

    @pytest.mark.parametrize("p, grid, held_sets", [
        pytest.param(PortfolioProblem(THREE_ASSET_MU, three_asset_cov(), GV, 0.025),
                     [1.0, 2.5, 4.0, 6.0], None, id="spec0"),
        pytest.param(PortfolioProblem(THREE_ASSET_MU, three_asset_cov(),
                                      RiskSpec(STUDENT_T, CVAR, 3.0), 0.025),
                     [1.0, 2.5, 4.0, 6.0], None, id="spec1"),
        # 60 assets: the held set grows from 22 to 53 assets along the grid
        pytest.param(factor_problem(4, 60, 1e3, T5_CVAR), [1.0, 2.0, 3.0, 4.0, 5.0],
                     5, id="factor60"),
    ])
    def test_points_equal_single_problems(self, p, grid, held_sets, faces):
        # each point starts from the previous point's weights, as they are:
        # its first face solve holds exactly the previous point's assets.
        # A cold solve ends on the same face, so the weights match bit for bit
        results = frontier(p, grid)
        starts = np.cumsum([r.iterations for r in results[:-1]])
        assert [faces[s][0] for s in starts] == \
            [np.flatnonzero(r.weights).tolist() for r in results[:-1]]
        cold = [optimize(PortfolioProblem(p.mu, p.cov, p.spec, 10.0 ** -x)) for x in grid]
        for x, res, single in zip(grid, results, cold, strict=True):
            assert np.array_equal(res.weights, single.weights)
            assert res.psi == single.psi == psi(p.spec, 10.0 ** -x)
            assert res.converged
        if held_sets is not None:
            assert len({tuple(np.flatnonzero(r.weights)) for r in results}) == held_sets
            # the warm starts save face solves
            assert sum(r.iterations for r in results) < sum(r.iterations for r in cold)

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
