import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tailrisk.risk import (
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
from tailrisk.special import NumericsError, gauss_pdf, gauss_quantile
from tailrisk.tquantile import t_quantile


def gauss(measure):
    return RiskSpec(GAUSSIAN, measure)


def student(measure, nu):
    return RiskSpec(STUDENT_T, measure, nu)


class TestRiskSpec:
    def test_nu_invariant(self):
        with pytest.raises(ValueError):
            RiskSpec(STUDENT_T, VAR, 2.0)
        with pytest.raises(ValueError):
            RiskSpec(STUDENT_T, VAR)
        with pytest.raises(ValueError):
            RiskSpec(GAUSSIAN, VAR, 4.0)
        with pytest.raises(ValueError):
            RiskSpec("lognormal", VAR)

    def test_nu_must_be_finite(self):
        with pytest.raises(ValueError, match="finite nu"):
            RiskSpec(STUDENT_T, CVAR, math.inf)
        with pytest.raises(ValueError):
            RiskSpec(STUDENT_T, VAR, math.nan)


class TestPsi:
    def test_reference_values(self):
        assert psi(gauss(VAR), 0.025) == pytest.approx(1.95996, abs=5e-6)
        assert psi(gauss(CVAR), 1e-6) == pytest.approx(4.94833, abs=5e-6)
        assert psi(student(CVAR, 3.0), 1e-4) == pytest.approx(19.3, abs=0.05)
        assert psi(student(CVAR, 2.25), 1e-4) == pytest.approx(28.54, abs=0.005)

    @pytest.mark.parametrize("u", [0.5, 0.7])
    def test_loss_tail_only(self, u):
        with pytest.raises(ValueError):
            psi(gauss(VAR), u)

    def test_cvar_dominates_var(self):
        specs = [GAUSSIAN] + [2.5, 3.0, 4.0, 6.0]
        for s in specs:
            v = gauss(VAR) if s == GAUSSIAN else student(VAR, s)
            c = gauss(CVAR) if s == GAUSSIAN else student(CVAR, s)
            for u in np.logspace(-5, np.log10(0.49), 25):
                assert psi(c, float(u)) > psi(v, float(u))

    def test_fundamental_identity(self):
        # d/du [u * psi_C(u)] = psi_V(u)
        families = [(gauss(VAR), gauss(CVAR))] + \
            [(student(VAR, nu), student(CVAR, nu)) for nu in (2.5, 3.0, 4.0, 6.0)]
        for spec_v, spec_c in families:
            for u in np.logspace(-5, np.log10(0.4), 15):
                u = float(u)
                h = 1e-6 * u
                deriv = ((u + h) * psi(spec_c, u + h)
                         - (u - h) * psi(spec_c, u - h)) / (2 * h)
                target = psi(spec_v, u)
                assert abs(deriv - target) <= 1e-4 * abs(target)

    def test_gaussian_closed_loop(self):
        for u in (0.025, 0.01, 1e-3):
            assert psi(gauss(CVAR), u) * u == pytest.approx(
                gauss_pdf(gauss_quantile(u)), rel=1e-15)

    def test_gaussian_limit(self):
        for u in (0.025, 1e-3):
            for measure in (VAR, CVAR):
                assert abs(psi(student(measure, 1e6), u)
                           - psi(gauss(measure), u)) <= 1e-4

    def test_low_nu_var_decreases(self):
        # fat tails push the 2.5% quantile *down*: 1.29 < 1.96
        assert psi(student(VAR, 2.25), 0.025) < psi(student(VAR, 4.0), 0.025)


def t_reference(u, nu):
    """(quantile, psi VaR, psi CVaR) of the unit-variance T at 50 digits:
    Newton on log P(T < t) = log u in t from scipy's double-precision root
    (or, where that overflows, the power-law tail), and the closed-form
    tail integral E[T; T < q] = -(nu + q^2) / (nu - 1) * h(q)."""
    with mp.workdps(50):
        uu, v, half = mp.mpf(u), mp.mpf(nu), mp.mpf(1) / 2
        log_norm = -mp.log(mp.beta(v / 2, half)) - mp.log(v) / 2
        start = float(stats.t.ppf(u, nu))
        q = mp.mpf(start) if math.isfinite(start) else \
            -mp.sqrt(v) * mp.exp(-(mp.log(v * uu) + mp.log(mp.beta(v / 2, half))) / v)
        for _ in range(50):
            cdf = mp.betainc(v / 2, half, 0, v / (v + q * q), regularized=True) / 2
            density = mp.exp(log_norm - (v + 1) / 2 * mp.log1p(q * q / v))
            step = (mp.log(cdf) - mp.log(uu)) * cdf / density
            q -= step
            if abs(step) < mp.mpf(10) ** -40 * abs(q):
                break
        density = mp.exp(log_norm - (v + 1) / 2 * mp.log1p(q * q / v))
        scale = mp.sqrt((v - 2) / v)
        return q, -scale * q, scale * (v + q * q) / (v - 1) * density / uu


def gauss_reference(u):
    """(psi VaR, psi CVaR) of the Gaussian at 50 digits, solved in log space
    so that subnormal u keeps its exact value."""
    with mp.workdps(50):
        uu = mp.mpf(u)
        q = mp.findroot(lambda x: mp.log(mp.ncdf(x)) - mp.log(uu), mp.mpf(-38))
        return -q, mp.npdf(q) / uu


def rel_err(x, ref):
    return float(abs(x / ref - 1))


class TestDeepTail:
    @pytest.mark.parametrize("nu", [2.25, 3.0, 5.0, 11.0, 12.0, 40.0, 400.0, 1e3, 1e4,
                                    1e6, 1e8])
    def test_t_against_mpmath(self, nu):
        # nu <= 11 inverts the incomplete beta, whose stop test is relative
        # at every y; above, Cornish-Fisher plus Halley steps in t.  CVaR
        # below u = 1e-20 goes through the beta Mills ratio, with no
        # exponent of the tail's size; exp(log k) reads 2e-13 at nu = 5 and
        # 4e-13 at nu = 1e4, u = 1e-300
        for u in (0.3, 0.025, 1e-3, 1e-6, 1e-12, 1e-15, 1e-19, 1e-21, 1e-50, 1e-100,
                  1e-300):
            q, var, cvar = t_reference(u, nu)
            assert rel_err(t_quantile(u, nu), q) <= 1e-13
            assert rel_err(psi(student(VAR, nu), u), var) <= 1e-13
            assert rel_err(psi(student(CVAR, nu), u), cvar) <= 1e-13

    @pytest.mark.parametrize("nu", [1e20, 1e300])
    def test_huge_nu_meets_the_gaussian_limit(self, nu):
        # the series' fifth term underflows instead of nu**5 overflowing, the
        # beta split is tested on y (its bound on x rounds to 1), and the
        # CVaR ratio does not form nu * (nu + q^2)
        for u in (0.3, 1e-12, 1e-300):
            var, cvar = gauss_reference(u)
            assert rel_err(psi(student(VAR, nu), u), var) <= 1e-15
            assert rel_err(psi(student(CVAR, nu), u), cvar) <= 1e-13

    @pytest.mark.parametrize("u", [1e-310, 1e-315, 1e-320, 5e-324])
    def test_gaussian_subnormal_u(self, u):
        var, cvar = gauss_reference(u)
        assert rel_err(gauss_quantile(u), -var) <= 1e-15
        assert rel_err(psi(gauss(VAR), u), var) <= 1e-15
        assert rel_err(psi(gauss(CVAR), u), cvar) <= 5e-13

    @pytest.mark.parametrize("u", [1e-20, 1e-50, 1e-100, 1e-200, 1e-300, 1e-307])
    def test_gaussian_cvar_deep_tail(self, u):
        # from u = 1e-20 on, 1/M(q) with the Gaussian Mills ratio: phi(q)/u
        # moved by up to q^2 times q's rounding, 2.8e-14 at u = 1e-50 and
        # 1.0e-13 at 1e-300
        _, cvar = gauss_reference(u)
        assert rel_err(psi(gauss(CVAR), u), cvar) <= 1e-15

    def test_t_quantile_overflow_raises(self):
        # nu just above 2 at a subnormal u: nu (1/x - 1) overflows
        with pytest.raises(NumericsError):
            t_quantile(1.6e-317, 2.0001)
        for measure in (VAR, CVAR):
            with pytest.raises(NumericsError):
                psi(student(measure, 2.0001), 1.6e-317)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(st.none(), st.floats(0.32, 8.0)), st.sampled_from([VAR, CVAR]),
           st.floats(0.31, 300.0), st.floats(-9.0, -1.0))
    def test_psi_increases_as_u_falls(self, log_nu, measure, x, log_gap):
        # tail levels down to 1e-300 and apart by factors 1 + 1e-9 .. 1.1;
        # nu from 2.09 to 1e8
        spec = gauss(measure) if log_nu is None else student(measure, 10.0 ** log_nu)
        u = 10.0 ** -x
        assert psi(spec, u / (1.0 + 10.0 ** log_gap)) > psi(spec, u)


class TestKFunction:
    def test_at_zero(self):
        assert k_function(0.0, 4.0) == pytest.approx(0.5, rel=1e-13)

    def test_vanishes_at_infinity(self):
        assert k_function(1e8, 4.0) < 1e-11

    def test_consistent_with_psi(self):
        # k(Q(u),nu) = u * psi_TC(u) / sqrt((nu-2)/nu)
        u, nu = 0.025, 4.0
        expected = u * psi(student(CVAR, nu), u) / math.sqrt((nu - 2.0) / nu)
        assert k_function(-2.7764, nu) == pytest.approx(expected, abs=1e-5)
        assert k_function(-2.7764, nu) == pytest.approx(0.09984212916714066,
                                                        rel=1e-12)

    def test_no_overflow_large_nu(self):
        assert k_function(0.0, 1000.0) > 0.0

    @pytest.mark.parametrize("nu", [12.0, 1e3, 1e4, 1e6, 1e8])
    def test_large_nu_against_mpmath(self, nu):
        # log k = log(nu + t^2)/2 - nu log1p(t^2/nu)/2 + log B((nu-1)/2, 1/2)
        # - log 2 pi: no nu log nu terms left to cancel
        for t in (0.0, -0.5, -2.0, -7.0, -20.0):
            with mp.workdps(50):
                v, tt = mp.mpf(nu), mp.mpf(t)
                ref = mp.sqrt(v + tt * tt) * (1 + tt * tt / v) ** (-v / 2) \
                    * mp.beta((v - 1) / 2, mp.mpf(1) / 2) / (2 * mp.pi)
            assert rel_err(k_function(t, nu), ref) <= 1e-13

    def test_domain(self):
        with pytest.raises(ValueError):
            k_function(0.0, 1.0)

    def test_infinite_nu_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            k_function(0.0, math.inf)


class TestVarCvar:
    def test_gaussian_var(self):
        m = MomentParams(0.0, 1.0)
        assert value_at_risk(m, gauss(VAR), 0.025) == pytest.approx(1.95996, abs=5e-6)

    def test_sigma_invariant(self):
        with pytest.raises(ValueError):
            MomentParams(0.05, 0.0)

    def test_linear_composition(self):
        m = MomentParams(0.01, 0.02)
        v = value_at_risk(m, student(VAR, 4.0), 0.025)
        assert v == pytest.approx(-0.01 + 1.96 * 0.02, abs=1.1e-4)

    def test_measure_forced(self):
        # value_at_risk uses the VaR multiplier even on a CVaR spec
        m = MomentParams(0.0, 1.0)
        assert value_at_risk(m, gauss(CVAR), 0.025) == \
            value_at_risk(m, gauss(VAR), 0.025)

    def test_cvar_values(self):
        m = MomentParams(0.0, 1.0)
        assert conditional_value_at_risk(m, gauss(CVAR), 0.01) == \
            pytest.approx(2.66521, abs=5e-6)
        assert conditional_value_at_risk(m, student(CVAR, 6.0), 1e-4) == \
            pytest.approx(7.95, abs=0.05)
        assert conditional_value_at_risk(m, student(VAR, 5.0), 0.025) == \
            pytest.approx(2.73, abs=0.01)


class TestKurtosis:
    def test_values(self):
        assert total_kurtosis(6.0) == pytest.approx(6.0, rel=1e-14)
        assert total_kurtosis(1e9) == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("nu", [4.0, 3.0])
    def test_domain(self, nu):
        with pytest.raises(ValueError):
            total_kurtosis(nu)
