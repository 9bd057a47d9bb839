import csv
import io
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from conftest import THREE_ASSET_MU, three_asset_cov
from tailrisk import cli, portfolio
from tailrisk.portfolio import (
    OptimizationResult,
    PortfolioProblem,
    default_x_grid,
    frontier,
    min_variance_weights,
    optimize,
    risk_gradient,
    sweep,
)
from tailrisk.risk import CVAR, GAUSSIAN, STUDENT_T, VAR, RiskSpec, psi

DATA = pathlib.Path(__file__).parent / "data"
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


def objective(p, w):
    return -p.mu @ w + p.psi() * np.sqrt(w @ p.cov @ w)


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
    """(held assets, s2) of every face solved, in order."""
    log = []
    face = portfolio._face

    def spy(mu, cov, held):
        out = face(mu, cov, held)
        log.append((np.flatnonzero(held).tolist(), out[-1]))
        return out

    monkeypatch.setattr(portfolio, "_face", spy)
    return log


def changes(faces):
    """The sweep's events, ("join" | "leave", asset), from its faces."""
    events = []
    for (before, _), (after, _) in zip(faces, faces[1:]):
        (asset,) = set(before) ^ set(after)
        events.append(("join" if asset in after else "leave", asset))
    return events


def face_point(p, held, psi_val):
    """The unconstrained optimum on the face `held` at psi_val."""
    _, a, d, A, _, s2 = portfolio._face(p.mu, p.cov, held)
    return a / A + d / np.sqrt(A * (psi_val * psi_val - s2))


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
        assert optimize(p).risk == pytest.approx(-0.01 + 1.95996 * 0.02, abs=1e-6)
        assert risk_gradient(p, np.array([1.0]))[0] == \
            pytest.approx(-0.01 + p.psi() * 0.02, rel=1e-12)

    def test_two_asset_identity_cov(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        w = np.array([0.5, 0.5])
        assert optimize(p).risk == pytest.approx(p.psi() * np.sqrt(0.5), rel=1e-13)
        g = risk_gradient(p, w)
        assert g[0] == pytest.approx(g[1], rel=1e-13)

    def test_dimension_mismatch(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        with pytest.raises(ValueError):
            risk_gradient(p, np.array([1.0]))

    def test_infeasible_weights_rejected(self):
        p = PortfolioProblem(np.zeros(2), np.eye(2), GV, 0.025)
        with pytest.raises(ValueError):
            risk_gradient(p, np.array([0.9, 0.3]))
        with pytest.raises(ValueError):
            risk_gradient(p, np.array([1.1, -0.1]))

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
        recomputed = objective(t3_cvar_problem, res.weights)
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
        # one face: the single starting asset, whose next event (another
        # asset joins) lies below the problem's psi
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

    def test_face_optimum_with_a_short_weight(self, faces):
        # assets 1 and 2 earn 0.05 at equal volatility, so the sweep starts
        # at asset 1 and asset 2 joins at psi = 0 already; on their face
        # symmetry puts the optimum at (1/2, 1/2).  Asset 3 is 0.9
        # correlated with asset 2 and earns less, so the optimum on all
        # three shorts it; the sweep never solves that face, because asset
        # 3 joins only at v = 30, psi = 30 / sqrt(A) = 4.45
        vol = np.array([0.2, 0.2, 0.15])
        corr = np.array([[1.0, 0.1, 0.5], [0.1, 1.0, 0.9], [0.5, 0.9, 1.0]])
        p = PortfolioProblem([0.05, 0.05, 0.02], corr * np.outer(vol, vol), GV, 0.01)
        res = optimize(p)
        assert [held for held, _ in faces] == [[0], [0, 1]]
        assert changes(faces) == [("join", 1)]
        assert res.converged and res.iterations == 2
        assert res.weights[2] == 0.0
        assert res.weights == pytest.approx([0.5, 0.5, 0.0], abs=1e-15)
        assert kkt_residual(p, res.weights) <= 1e-12
        target = face_point(p, np.ones(3, dtype=bool), p.psi())
        assert target[2] < 0.0 < min(target[0], target[1])
        # past psi = 4.45 (u = 1e-6, psi = 4.75) asset 3 is held
        faces.clear()
        low, high = frontier(p, [2.0, 6.0])
        assert changes(faces) == [("join", 1), ("join", 2)]
        assert np.array_equal(low.weights, res.weights)
        assert high.weights[2] > 0.0 and high.iterations == 3
        assert kkt_residual(PortfolioProblem(p.mu, p.cov, GV, 1e-6), high.weights) <= 1e-12

    def test_start_breaks_ties_by_variance(self, faces):
        # three assets tie on the top return: the sweep starts at the less
        # volatile of the two at 0.2, the first of them, and at psi = 0
        # already moves to the minimum-variance mix of the three
        vol = np.array([0.3, 0.2, 0.2, 0.1])
        cov = (0.5 + 0.5 * np.eye(4)) * np.outer(vol, vol)
        p = PortfolioProblem([0.05, 0.05, 0.05, -0.2], cov, GV, 0.1)
        res = optimize(p)
        assert faces[0][0] == [1]
        assert res.converged and res.weights[3] == 0.0
        assert kkt_residual(p, res.weights) <= 1e-12
        tied = np.ix_([0, 1, 2], [0, 1, 2])
        assert res.weights[:3] == pytest.approx(min_variance_weights(cov[tied]), abs=1e-15)

    def test_sweep_joins_and_leaves(self, faces, monkeypatch):
        # up to this problem's psi, assets 1, 5, 2 and 4 join the start
        # asset 3 and then 3 and 2 leave again
        p = factor_problem(14, 5, 1e2, GV)
        res = optimize(p)
        assert [held for held, _ in faces][0] == [2]
        assert changes(faces) == [("join", 0), ("join", 4), ("join", 1),
                                  ("join", 3), ("leave", 2), ("leave", 1)]
        assert res.converged and res.iterations == len(faces) == 7
        assert np.flatnonzero(res.weights).tolist() == [0, 3, 4]
        assert kkt_residual(p, res.weights) <= 1e-12
        # capped at each face, the sweep returns the path point of the next
        # event: the asset that changes there has weight zero
        for cap, (_, asset) in enumerate(changes(faces), start=1):
            monkeypatch.setattr(portfolio, "_MAX_ITER", cap)
            capped = optimize(p)
            assert not capped.converged and capped.iterations == cap
            assert 0.0 <= capped.weights[asset] <= 1e-15
            assert np.all(capped.weights >= 0.0)
            assert capped.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_every_face_has_a_bounded_optimum(self, faces):
        # one factor with loadings (-1, 0.5, 2) and little idiosyncratic
        # risk: long-short mixes of the three assets earn far more than
        # psi = 0.126 (Gaussian VaR at u = 0.45) charges for their risk, so
        # the face of all three has no optimum (psi^2 < s2).  The sweep
        # never meets it: the path point lies on the hyperbola of every face
        # it solves, so psi^2 > s2 there
        beta = np.array([-1.0, 0.5, 2.0])
        cov = 0.04 * np.outer(beta, beta) + 0.0004 * np.eye(3)
        p = PortfolioProblem([0.02, 0.02, 0.05], cov, GV, 0.45)
        res = optimize(p)
        assert [held for held, _ in faces] == [[2], [0, 2]]
        assert all(p.psi() ** 2 > s2 for _, s2 in faces)
        *_, s2 = portfolio._face(p.mu, cov, np.ones(3, dtype=bool))
        assert p.psi() ** 2 < s2
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
        # mu = 0: the minimum-variance weights C^-1 1 / 1'C^-1 1 and no
        # asymptote (d = 0, s2 = 0)
        cov = three_asset_cov()
        held = np.ones(3, dtype=bool)
        _, a, d, A, m0, s2 = portfolio._face(np.zeros(3), cov, held)
        w = np.linalg.solve(cov, np.ones(3))
        assert a / A == pytest.approx(w / w.sum(), abs=1e-15)
        assert not d.any() and m0 == 0.0 and s2 == 0.0
        _, a, d, A, m0, s2 = portfolio._face(np.array([0.01]), np.array([[0.04]]),
                                             np.ones(1, dtype=bool))
        assert a / A == pytest.approx([1.0]) and not d.any() and s2 == 0.0
        # with returns: the tangency point sums to one and the gradient is
        # the same on every asset, the KKT condition without sign bounds
        p = PortfolioProblem(THREE_ASSET_MU, cov, GV, 0.025)
        w = face_point(p, held, 2.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        g = -p.mu + 2.0 * cov @ w / np.sqrt(w @ cov @ w)
        assert np.ptp(g) <= 1e-15


@st.composite
def long_only_problems(draw, tied=False):
    """Random factor-model problems of 1-12 assets.  A small idiosyncratic
    share makes assets nearly collinear, so that at low psi (down to 0.126,
    Gaussian VaR at u = 0.45) some faces have no optimum.  With `tied`, the
    returns are rounded to two decimals or all equal."""
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
    mu = rng.uniform(-0.05, 0.15, n)
    if tied:
        mu = np.round(mu, 2) if draw(st.booleans()) else np.full(n, mu[0])
    return PortfolioProblem(mu, (cov + cov.T) / 2.0, spec, u)


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
    @given(long_only_problems(tied=True))
    def test_tied_returns_converge_to_a_kkt_point(self, p):
        # equal returns tie the start and make events coincide at psi = 0
        res = optimize(p)
        assert res.converged
        assert np.all(res.weights >= 0.0)
        assert res.weights.sum() == pytest.approx(1.0, abs=1e-13)
        assert kkt_residual(p, res.weights) <= 1e-12

    @PROPERTY_SETTINGS
    @given(long_only_problems(), st.integers(1, 12))
    def test_every_iterate_is_feasible(self, p, cap):
        # stopped after `cap` faces, the sweep returns the path point it
        # reached, which is on the simplex
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
        # the frontier is one sweep up to the largest psi, and each cold
        # solve sweeps the same path up to its own psi, so the weights match
        # bit for bit and the last point has solved every face of the sweep
        results = frontier(p, grid)
        sweep = len(faces)
        cold = [optimize(PortfolioProblem(p.mu, p.cov, p.spec, 10.0 ** -x)) for x in grid]
        for x, res, single in zip(grid, results, cold, strict=True):
            assert np.array_equal(res.weights, single.weights)
            assert res.psi == single.psi == psi(p.spec, 10.0 ** -x)
            assert res.iterations == single.iterations
            assert res.converged
        assert results[-1].iterations == sweep
        if held_sets is not None:
            assert len({tuple(np.flatnonzero(r.weights)) for r in results}) == held_sets
            assert sweep < sum(r.iterations for r in cold)

    def test_grid_order_kept(self):
        p = factor_problem(4, 60, 1e3, T5_CVAR)
        grid = [4.0, 1.0, 5.0, 2.5, 1.0]
        results = frontier(p, grid)
        for x, res in zip(grid, results, strict=True):
            assert res.psi == psi(p.spec, 10.0 ** -x)
            assert np.array_equal(res.weights,
                                  optimize(PortfolioProblem(p.mu, p.cov, p.spec,
                                                            10.0 ** -x)).weights)
        assert frontier(p, []) == []

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


class TestSweep:
    @pytest.mark.parametrize("psis", [[], [math.nan], [math.inf], [0.0], [-1.0],
                                      [1.0, -math.inf], [2.0, 0.0]])
    def test_invalid_psis_rejected(self, gauss_var_problem, psis):
        with pytest.raises(ValueError):
            sweep(gauss_var_problem, psis)

    @PROPERTY_SETTINGS
    @given(long_only_problems(),
           st.lists(st.floats(-math.log10(0.45), 6.0), min_size=1, max_size=5), st.data())
    def test_equals_optimize_at_each_psi(self, p, xs, data):
        # every tail level twice, in a drawn order: each result is the
        # cold solve at its psi, bit for bit
        xs = data.draw(st.permutations(xs + xs))
        results = sweep(p, [psi(p.spec, 10.0 ** -x) for x in xs])
        for x, res in zip(xs, results, strict=True):
            single = optimize(PortfolioProblem(p.mu, p.cov, p.spec, 10.0 ** -x))
            assert res.psi == single.psi
            assert np.array_equal(res.weights, single.weights)
            assert res.iterations == single.iterations

    @pytest.mark.parametrize("source", ["three_asset_t3.txt", "two_asset_gauss.txt",
                                        "factor"])
    def test_cli_frontier_is_one_sweep(self, source, faces, capsys, tmp_path):
        # both models' points come from one sweep, which ends at the larger
        # model's top psi: no face is solved twice
        if source == "factor":
            p = factor_problem(4, 60, 1e3, T5_CVAR)
            path = tmp_path / "factor.txt"
            path.write_text("\n".join(
                ["[returns]", " ".join(map(repr, p.mu.tolist())), "[covariance]",
                 *(" ".join(map(repr, row)) for row in p.cov.tolist()),
                 "[spec]", "distribution = student-t", "nu = 5", "measure = cvar",
                 f"u = {p.u!r}"]))
        else:
            path = DATA / source
        assert cli.main(["frontier", str(path)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        shared = len(faces)
        p = cli.parse_problem_file(str(path))
        models = {"problem": p.spec, "gaussian-var": GV}
        single = []
        for spec in models.values():
            faces.clear()
            frontier(PortfolioProblem(p.mu, p.cov, spec, p.u))
            single.append(len(faces))
        assert shared == max(single)
        assert [row["model"] for row in rows] == [m for m in models for _ in range(9)]
        for row in rows:
            x = float(row["x"])
            cold = optimize(PortfolioProblem(p.mu, p.cov, models[row["model"]], 10.0 ** -x))
            w = np.array([float(row[f"w{i + 1}"]) for i in range(p.n_assets)])
            assert np.array_equal(w, cold.weights)
            assert float(row["psi"]) == cold.psi


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

    @PROPERTY_SETTINGS
    @given(long_only_problems())
    def test_kkt_point(self, p):
        # mu = 0 makes every event fall at psi = 0
        w = min_variance_weights(p.cov)
        assert np.all(w >= 0.0)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)
        cw = p.cov @ w
        lam = cw @ w
        held = w > 1e-8
        assert np.max(np.abs(cw[held] - lam)) <= 1e-12 * lam
        assert np.min(cw[~held] - lam, initial=0.0) >= -1e-12 * lam

    def test_three_asset_vs_oracle(self):
        cov = three_asset_cov()
        assert min_variance_weights(cov) == \
            pytest.approx(slsqp_min_variance(cov), abs=1e-4)
