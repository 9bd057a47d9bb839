import math

import mpmath as mp
import numpy as np
import pytest

from tailrisk.special import (
    gauss_cdf,
    gauss_mills_ratio,
    gauss_pdf,
    gauss_quantile,
    inc_beta_mills,
    inv_reg_inc_beta,
    log_beta,
    reg_inc_beta,
    reg_inc_beta_pair,
)

BETA_AB = (0.25, 0.5, 1.0, 2.0, 5.0, 50.0)


class TestGaussPdfCdf:
    def test_pdf(self):
        assert gauss_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
        assert gauss_pdf(1.0) == pytest.approx(0.24197072451914337, rel=1e-14)
        assert gauss_pdf(-1.0) == gauss_pdf(1.0)

    def test_cdf(self):
        assert gauss_cdf(0.0) == 0.5
        assert gauss_cdf(1.95996) == pytest.approx(0.975, abs=2e-6)
        assert gauss_cdf(-1.95996) == pytest.approx(0.025, abs=2e-6)

    def test_cdf_deep_tail_relative_accuracy(self):
        # erfc route keeps relative accuracy far into the tail
        assert gauss_cdf(-37.0) == pytest.approx(5.725571e-300, rel=1e-5)


class TestGaussQuantile:
    def test_values(self):
        assert gauss_quantile(0.5) == 0.0
        assert gauss_quantile(0.025) == pytest.approx(-1.95996, abs=5e-6)
        assert gauss_quantile(1e-6) == pytest.approx(-4.75342, abs=5e-6)

    @pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.5])
    def test_domain(self, u):
        with pytest.raises(ValueError):
            gauss_quantile(u)

    def test_round_trip(self):
        for u in np.logspace(-12, np.log10(0.5), 80):
            for uu in (u, 1.0 - u):
                err = abs(gauss_cdf(gauss_quantile(uu)) - uu)
                assert err <= 1e-13 * min(uu, 1.0 - uu)

    def test_quantile_ode(self):
        # Q'' = Q (Q')^2 by central differences
        h = 1e-4
        for u in np.linspace(0.05 + h, 0.95 - h, 41):
            qm, q0, qp = (gauss_quantile(v) for v in (u - h, u, u + h))
            d1 = (qp - qm) / (2 * h)
            d2 = (qp - 2 * q0 + qm) / h ** 2
            rhs = q0 * d1 ** 2
            if abs(rhs) > 0:
                assert abs(d2 - rhs) <= 1e-4 * abs(rhs)


class TestGaussMillsRatio:
    def test_against_mpmath(self):
        # a fixed number of fraction terms, sized for x = -9 (13 reach 2e-16
        # there), holds everywhere below
        for x in (-9.0, -9.26, -10.0, -12.5, -15.0, -20.0, -30.0, -37.0, -38.5):
            with mp.workdps(50):
                ref = mp.ncdf(x) / mp.npdf(x)
            assert float(abs(gauss_mills_ratio(x) / ref - 1)) <= 3e-16


class TestRegIncBeta:
    def test_trivial(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0
        assert reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, rel=1e-13)
        assert reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, 0.0)

    def test_large_parameters_converge(self):
        # the iteration cap must not be hit anywhere up to a,b = 1e6
        for a, b in [(1e6, 0.5), (0.5, 1e6), (1e6, 1e6), (1e6, 1.0)]:
            for x in (0.3, 0.5, 0.7, a / (a + b)):
                v = reg_inc_beta(x, a, b)
                assert 0.0 <= v <= 1.0

    @pytest.mark.parametrize("a", BETA_AB)
    @pytest.mark.parametrize("b", BETA_AB)
    def test_monotone_in_x(self, a, b):
        xs = np.linspace(0.0, 1.0, 1000)
        vals = [reg_inc_beta(float(x), a, b) for x in xs]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


class TestInvRegIncBeta:
    def test_trivial(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0
        assert inv_reg_inc_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert inv_reg_inc_beta(0.3, 1.0, 1.0) == pytest.approx(0.3, rel=1e-12)

    def test_against_bisection_oracle(self):
        # independent bisection on the forward function
        y, a, b = 0.05, 2.0, 0.5
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if reg_inc_beta(mid, a, b) < y:
                lo = mid
            else:
                hi = mid
        x = inv_reg_inc_beta(y, a, b)
        assert x == pytest.approx(0.5 * (lo + hi), abs=1e-13)
        assert abs(reg_inc_beta(x, a, b) - y) <= 1e-13

    @pytest.mark.parametrize("a", BETA_AB)
    @pytest.mark.parametrize("b", BETA_AB)
    def test_round_trip(self, a, b):
        # y > 1/2 goes through the complementary pair: the root itself can
        # sit closer to 1 than double spacing allows (e.g. 1 - 1e-39 for
        # a=b=0.25), where a literal forward evaluation saturates at 1.0
        for y in np.concatenate([np.logspace(-10, -1, 10), [0.3, 0.5]]):
            y = float(y)
            x = inv_reg_inc_beta(y, a, b)
            assert abs(reg_inc_beta(x, a, b) - y) <= 1e-12
            assert abs(reg_inc_beta(inv_reg_inc_beta(y, b, a), b, a) - y) <= 1e-12
        # complement identity needs 1-y exactly representable, hence dyadic y
        for y in (2.0 ** -20, 2.0 ** -10, 0.125, 0.25, 0.375):
            x_c = inv_reg_inc_beta(y, b, a)
            assert inv_reg_inc_beta(1.0 - y, a, b) == pytest.approx(
                1.0 - x_c, abs=1e-15)


def beta_reference(x, a, b):
    """(I_x(a,b), 1 - I_x(a,b), x^a (1-x)^b / (a B(a,b))) at 40 digits."""
    with mp.workdps(40):
        x, a, b = mp.mpf(x), mp.mpf(a), mp.mpf(b)
        i = mp.betainc(a, b, 0, x, regularized=True)
        return i, 1 - i, x ** a * (1 - x) ** b / (a * mp.beta(a, b))


def rel_err(x, ref):
    return float(abs(mp.mpf(x) / ref - 1))


class TestLogBeta:
    @pytest.mark.parametrize("a", [0.5, 2.25, 5.5, 19.5, 20.0, 75.0, 5e3, 5e7])
    def test_against_mpmath(self, a):
        # the lgamma difference loses a ln a * eps (4e-14 at a = 75); from
        # a = 20 up the log1p form keeps every term small
        for b in (0.5, 1.0, 3.5):
            with mp.workdps(40):
                ref = mp.log(mp.beta(mp.mpf(a), mp.mpf(b)))
            assert abs(log_beta(a, b) - float(ref)) <= 4e-15 * max(1.0, abs(float(ref)))

    def test_domain(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)


class TestRegIncBetaPair:
    @pytest.mark.parametrize("a, b", [(6.0, 0.5), (200.0, 0.5), (5e3, 0.5), (5e7, 0.5),
                                      (0.5, 40.0), (2.0, 3.0), (50.0, 50.0)])
    def test_against_mpmath(self, a, b):
        # y = 1 - x is given exactly (x = 1 - y is then rounded); near x = 1
        # with a large the continued fraction takes lambda = (a+b) y - b
        for y in (1e-9, 1e-6, 3e-5, 1e-3, 0.02, 0.3, 0.7, 0.999):
            x = 1.0 - y
            if a * y > 700.0:  # I_x below 1e-300, beyond mpmath's series
                continue
            w, w1 = reg_inc_beta_pair(x, y, a, b)
            with mp.workdps(40):
                i, ic, _ = beta_reference(mp.mpf(1) - mp.mpf(y), a, b)
            for got, ref in ((w, i), (w1, ic)):
                if ref > 1e-300:
                    assert rel_err(got, ref) <= 1e-13

    def test_matches_reg_inc_beta(self):
        for x, a, b in [(0.3, 2.0, 3.0), (0.9, 0.5, 0.5), (0.01, 5.5, 0.5)]:
            w, w1 = reg_inc_beta_pair(x, 1.0 - x, a, b)
            assert w == pytest.approx(reg_inc_beta(x, a, b), rel=1e-14)
            assert w + w1 == pytest.approx(1.0, abs=1e-15)

    def test_ends(self):
        assert reg_inc_beta_pair(0.0, 1.0, 2.0, 3.0) == (0.0, 1.0)
        assert reg_inc_beta_pair(1.0, 0.0, 2.0, 3.0) == (1.0, 0.0)

    @pytest.mark.parametrize("x, y", [(0.3, 0.3), (-0.1, 1.1), (0.5, math.nan)])
    def test_domain(self, x, y):
        with pytest.raises(ValueError):
            reg_inc_beta_pair(x, y, 2.0, 3.0)
        with pytest.raises(ValueError):
            inc_beta_mills(x, y, 2.0, 3.0)


class TestIncBetaMills:
    @pytest.mark.parametrize("a", [6.0, 200.0, 5e3, 5e7])
    def test_against_mpmath(self, a):
        # both sides of the split; deep in the tail I_x and its leading term
        # are ~1e-300 apiece, their ratio O(1)
        for x in (1e-12, 1e-3, 0.3, 0.9, 1.0 - 3e-5, 1.0 - 1e-7):
            if a * (1.0 - x) > 700.0:
                continue
            with mp.workdps(40):
                i, _, lead = beta_reference(x, a, 0.5)
            if lead > 1e-300:
                assert rel_err(inc_beta_mills(x, 1.0 - x, a, 0.5), i / lead) <= 1e-13
