import math

import numpy as np
import pytest

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
from tailrisk.special import gauss_pdf, gauss_quantile


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
