import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from tailrisk.mc_oracle import (
    _BLOCK,
    EmpiricalTailEstimate,
    MultivariateTSpec,
    empirical_tail,
    random_portfolio_search,
    sample_mvt,
    sample_t,
)
from tailrisk.portfolio import PortfolioProblem, optimize
from tailrisk.risk import CVAR, GAUSSIAN, STUDENT_T, VAR, RiskSpec, psi
from tailrisk.tquantile import t_quantile


class TestSampleT:
    def test_deterministic(self):
        a = sample_t(4.0, 1000, seed=123)
        b = sample_t(4.0, 1000, seed=123)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_t(4.0, 1000, seed=124))

    def test_variance(self):
        x = sample_t(4.0, 10 ** 6, seed=1)
        v = x.var()
        # SE of the sample variance from the empirical fourth moment
        se = math.sqrt((np.mean((x - x.mean()) ** 4) - v ** 2) / x.size)
        assert abs(v - 2.0) <= 3 * se

    def test_mean(self):
        x = sample_t(3.0, 10 ** 6, seed=2)
        assert abs(x.mean()) <= 3 * x.std() / math.sqrt(x.size)

    def test_cdf_consistency(self):
        n = 10 ** 6
        x = sample_t(4.0, n, seed=3)
        frac = np.mean(x < t_quantile(0.025, 4.0))
        assert abs(frac - 0.025) <= 3 * math.sqrt(0.025 * 0.975 / n)

    @pytest.mark.parametrize("nu", [0.7, 3.0, 7.5])
    def test_blocks_match_unblocked_draw(self, nu):
        # gamma shape nu/2 below and above 1 takes different samplers
        n = 3 * _BLOCK + 17
        rng = np.random.default_rng(17)
        z = rng.standard_normal(n)
        gamma = rng.standard_gamma(0.5 * nu, n)
        assert np.array_equal(sample_t(nu, n, seed=17), z * np.sqrt(nu / (2 * gamma)))

    def test_peak_memory(self):
        # the 16 MB output plus block-sized mixers; full-size mixers and
        # temporaries would need about 61 MiB
        tracemalloc.start()
        try:
            sample_t(3.0, 2 * 10 ** 6, seed=18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2 ** 20


@pytest.mark.parametrize("bad", [2.5, True, 0, -3, 1e5])
def test_sample_counts_must_be_positive_integers(bad, gauss_var_problem):
    spec = MultivariateTSpec(np.eye(2), 5.0)
    for call in (lambda: sample_t(4.0, bad, seed=0),
                 lambda: sample_mvt(spec, bad, seed=0),
                 lambda: random_portfolio_search(gauss_var_problem, bad, seed=0)):
        with pytest.raises(ValueError):
            call()


def test_numpy_integer_count_accepted():
    assert sample_t(4.0, np.int64(5), seed=0).shape == (5,)


@pytest.mark.parametrize("nu", [math.inf, math.nan, 0.0])
def test_sample_t_rejects_bad_dof(nu):
    with pytest.raises(ValueError, match="degrees of freedom"):
        sample_t(nu, 10, seed=0)


class TestSampleMvt:
    @pytest.mark.parametrize("mixing,nu,mu", [
        ([[1.0, 0.0], [0.0, math.nan]], 5.0, None),
        ([[1.0, 0.0], [math.inf, 1.0]], 5.0, None),
        (np.eye(2), 5.0, [0.0, math.inf]),
        (np.eye(2), 5.0, [math.nan, 0.0]),
        (np.eye(2), math.inf, None),
    ])
    def test_non_finite_spec_rejected(self, mixing, nu, mu):
        with pytest.raises(ValueError):
            MultivariateTSpec(mixing, nu, mu)

    def test_covariance_structure(self):
        spec = MultivariateTSpec(np.eye(3), 5.0)
        x = sample_mvt(spec, 10 ** 6, seed=4)
        target = 5.0 / 3.0
        for i in range(3):
            for j in range(3):
                prod = x[:, i] * x[:, j]
                se = prod.std() / math.sqrt(x.shape[0])
                expected = target if i == j else 0.0
                assert abs(prod.mean() - expected) <= 3 * se

    def test_location_offset(self):
        spec = MultivariateTSpec(np.eye(2), 6.0, mu=np.array([1.0, -2.0]))
        x = sample_mvt(spec, 10 ** 5, seed=5)
        assert x[:, 0].mean() == pytest.approx(1.0, abs=0.05)
        assert x[:, 1].mean() == pytest.approx(-2.0, abs=0.05)

    @pytest.mark.parametrize("nu", [3.0, 5.0])
    def test_linear_closure(self, nu):
        # a weighted sum of shared-mixer components is again T with the same nu
        n = 10 ** 5
        rng = np.random.default_rng(6)
        A = rng.normal(size=(3, 3))
        A = A @ A.T + np.eye(3)  # any nonsingular mixing works
        w = np.array([0.5, 0.3, 0.2])
        x = sample_mvt(MultivariateTSpec(A, nu), n, seed=7)
        scaled = (x @ w) / math.sqrt(w @ (A @ A.T) @ w)
        ref = sample_t(nu, n, seed=8)
        stat = ks_2samp(scaled, ref).statistic
        critical_1pct = 1.628 * math.sqrt(2.0 / n)
        assert stat < critical_1pct


class TestEmpiricalTail:
    def test_gaussian_var(self):
        n = 10 ** 7
        x = np.random.default_rng(9).standard_normal(n)
        est = empirical_tail(x, 0.025)
        assert abs(est.var_hat - 1.95996) <= 3 * est.standard_error
        assert est.n_samples == n

    def test_unit_variance_t4_cvar(self):
        n = 10 ** 7
        x = sample_t(4.0, n, seed=10) * math.sqrt(0.5)
        est = empirical_tail(x, 0.025)
        psi_c = psi(RiskSpec(STUDENT_T, CVAR, 4.0), 0.025)
        assert abs(est.cvar_hat - psi_c) <= 3 * est.standard_error

    def test_constant_sample(self):
        est = empirical_tail(np.full(10 ** 4, 0.7), 0.025)
        assert est.var_hat == -0.7
        assert est.cvar_hat == -0.7
        assert est.standard_error == 0.0

    def test_cvar_at_least_var(self):
        x = sample_t(3.0, 10 ** 5, seed=11)
        est = empirical_tail(x, 0.01)
        assert est.cvar_hat >= est.var_hat
        assert isinstance(est, EmpiricalTailEstimate)

    def test_insufficient_tail_mass(self):
        with pytest.raises(ValueError, match="insufficient tail mass"):
            empirical_tail(np.zeros(100), 1e-4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_rejected(self, bad):
        x = np.random.default_rng(19).standard_normal(10 ** 4)
        x[1234] = bad
        with pytest.raises(ValueError, match="finite"):
            empirical_tail(x, 0.025)

    def test_two_dimensional_sample_rejected(self):
        x = np.random.default_rng(20).standard_normal((100, 100))
        with pytest.raises(ValueError, match="1-D"):
            empirical_tail(x, 0.025)

    def test_cvar_standard_error_formula(self):
        x = sample_t(4.0, 10 ** 4, seed=21)
        u = 0.025
        est = empirical_tail(x, u)
        tail = np.sort(x)[:250]
        s2 = tail.var(ddof=1)
        expected = math.sqrt((s2 + (1 - u) * (est.var_hat - est.cvar_hat) ** 2) / 250)
        assert est.cvar_standard_error == pytest.approx(expected, rel=1e-12)
        assert est.cvar_standard_error > est.standard_error

    def test_var_standard_error_formula(self):
        # sqrt(u(1-u)/n) over a density estimated from the spacing of the
        # order statistics k - m and k + m, m = round(sqrt(k))
        x = sample_t(4.0, 10 ** 4, seed=21)
        s = np.sort(x)
        est = empirical_tail(x, 0.025)
        k, m = 250, 16
        expected = math.sqrt(0.025 * 0.975 / 1e4) * (s[k - 1 + m] - s[k - 1 - m]) \
            * 1e4 / (2 * m)
        assert est.var_hat == -s[k - 1]
        assert est.var_standard_error == pytest.approx(expected, rel=1e-12)
        # near u = 1 the upper rank is clipped to the largest draw
        est = empirical_tail(x[:1000], 0.999)
        s = np.sort(x[:1000])
        expected = math.sqrt(0.999 * 0.001 / 1000) * (s[999] - s[998 - 32]) \
            * 1000 / (999 - (998 - 32))
        assert est.var_standard_error == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_var_bracket_coverage(self, nu):
        # 400 seeded replications, n = 2e4, u = 0.025 (250 tail points).
        # With the tail sample's std/sqrt(k) the z-scores spread 1.21
        # (Gaussian) and 0.60 (T4); with the order statistic's standard
        # error, 0.99 and 1.02.
        u, n, reps = 0.025, 20_000, 400
        if nu is None:
            target = psi(RiskSpec(GAUSSIAN, VAR), u)
        else:
            target = psi(RiskSpec(STUDENT_T, VAR, nu), u)
        z = np.empty(reps)
        for seed in range(reps):
            if nu is None:
                x = np.random.default_rng(seed).standard_normal(n)
            else:
                x = sample_t(nu, n, seed) * math.sqrt((nu - 2.0) / nu)
            est = empirical_tail(x, u)
            z[seed] = (est.var_hat - target) / est.var_standard_error
        assert np.count_nonzero(np.abs(z) > 3.0) <= 4
        assert 0.9 <= z.std() <= 1.1

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_cvar_bracket_coverage(self, nu):
        # 400 seeded replications, n = 2e4, u = 0.025 (250 tail points).
        # With the tail sample's std alone the Gaussian case misses 18 of
        # 400 at 3 SE and its z-scores spread 1.46; with the VaR term the
        # z-scores are standard.
        u, n, reps = 0.025, 20_000, 400
        if nu is None:
            target = psi(RiskSpec(GAUSSIAN, CVAR), u)
        else:
            target = psi(RiskSpec(STUDENT_T, CVAR, nu), u)
        z = np.empty(reps)
        for seed in range(reps):
            if nu is None:
                x = np.random.default_rng(seed).standard_normal(n)
            else:
                x = sample_t(nu, n, seed) * math.sqrt((nu - 2.0) / nu)
            est = empirical_tail(x, u)
            z[seed] = (est.cvar_hat - target) / est.cvar_standard_error
        assert np.count_nonzero(np.abs(z) > 3.0) <= 4
        assert 0.9 <= z.std() <= 1.1

    @pytest.mark.parametrize("nu,u", [(3.0, 0.025), (4.0, 0.01), (6.0, 0.025)])
    def test_brackets_analytic_psi(self, nu, u):
        n = 10 ** 7
        x = sample_t(nu, n, seed=12) * math.sqrt((nu - 2.0) / nu)
        est = empirical_tail(x, u)
        psi_v = psi(RiskSpec(STUDENT_T, VAR, nu), u)
        psi_c = psi(RiskSpec(STUDENT_T, CVAR, nu), u)
        assert abs(est.var_hat - psi_v) <= 3 * est.standard_error
        assert abs(est.cvar_hat - psi_c) <= 3 * est.standard_error


class TestRandomPortfolioSearch:
    def test_blocks_match_unblocked_search(self, t3_cvar_problem):
        p, n = t3_cvar_problem, 3 * _BLOCK + 17
        e = np.random.default_rng(24).standard_exponential((n, p.n_assets))
        W = np.array([row / row.sum() for row in e])
        vals = -W @ p.mu + p.psi() * np.sqrt(np.einsum("ij,jk,ik->i", W, p.cov, W))
        i = int(np.argmin(vals))
        assert i >= 2 * _BLOCK  # this seed's best draw is in the third block
        res = random_portfolio_search(p, n, seed=24)
        assert np.array_equal(res.weights, W[i])
        assert res.risk == pytest.approx(vals[i], rel=1e-15, abs=0)

    def test_peak_memory(self, t3_cvar_problem):
        # block-sized arrays only; full-size arrays of 1e6 draws would
        # need about 84 MiB
        tracemalloc.start()
        try:
            random_portfolio_search(t3_cvar_problem, 2 * 10 ** 6, seed=26)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    def test_reports_no_solver_run(self, t3_cvar_problem):
        res = random_portfolio_search(t3_cvar_problem, 10 ** 4, seed=25)
        assert res.iterations == 0
        assert res.converged is False
        assert res.kkt_residual > 0.0
        assert res.risk == pytest.approx(
            -res.expected_return + res.psi * math.sqrt(res.variance), rel=1e-15)

    def test_single_asset(self):
        p = PortfolioProblem([0.01], [[0.0004]], RiskSpec(GAUSSIAN, VAR), 0.025)
        res = random_portfolio_search(p, 10, seed=0)
        assert res.weights == pytest.approx([1.0], abs=1e-15)

    def test_agrees_with_optimizer(self, t3_cvar_problem):
        res = random_portfolio_search(t3_cvar_problem, 10 ** 5, seed=13)
        opt = optimize(t3_cvar_problem)
        assert abs(res.risk - opt.risk) <= 1e-3
        assert res.risk >= opt.risk - 1e-12

    def test_symmetric_two_asset(self):
        p = PortfolioProblem([0.05, 0.05], 0.01 * np.eye(2),
                             RiskSpec(GAUSSIAN, VAR), 0.025)
        res = random_portfolio_search(p, 10 ** 5, seed=14)
        assert np.max(np.abs(res.weights - 0.5)) <= 0.02

    def test_deterministic(self, gauss_var_problem):
        a = random_portfolio_search(gauss_var_problem, 10 ** 4, seed=16)
        b = random_portfolio_search(gauss_var_problem, 10 ** 4, seed=16)
        assert np.array_equal(a.weights, b.weights)
        assert a.risk == b.risk
