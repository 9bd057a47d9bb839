import math

import mpmath as mp
import numpy as np
import pytest

import tailrisk.tquantile as tquantile
from tailrisk.special import gauss_quantile
from tailrisk.tquantile import (
    _t_quantile_beta,
    t_cdf,
    t_pdf,
    t_quantile,
    t_quantile_closed,
    t_quantile_tail_series,
    tail_series_coeffs,
)


class TestPdf:
    def test_values(self):
        assert t_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-13)
        assert t_pdf(0.0, 4.0) == pytest.approx(0.375, rel=1e-13)
        assert t_pdf(1.0, 2.0) == pytest.approx(0.19245008972987526, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            t_pdf(0.0, 0.0)

    def test_infinite_nu_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            t_pdf(0.0, math.inf)

    @pytest.mark.parametrize("nu", [1e4, 1e6, 1e8])
    def test_normalizer_against_mpmath(self, nu):
        # 1 / (sqrt(nu) B(nu/2, 1/2)); an lgamma((nu+1)/2) - lgamma(nu/2)
        # difference reads 9.4e-12, 5.5e-10 and 1e-8 here
        for t in (0.0, -1.0, -7.0):
            with mp.workdps(40):
                v = mp.mpf(nu)
                ref = (1 + mp.mpf(t) ** 2 / v) ** (-(v + 1) / 2) \
                    / (mp.sqrt(v) * mp.beta(v / 2, mp.mpf(1) / 2))
            assert float(abs(t_pdf(t, nu) / ref - 1)) <= 1e-13


class TestCdf:
    def test_values(self):
        assert t_cdf(0.0, 3.7) == 0.5
        assert t_cdf(-2.7764, 4.0) == pytest.approx(0.025, abs=2e-6)
        assert t_cdf(1.0, 1.0) == pytest.approx(0.75, rel=1e-13)

    def test_infinite_nu_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            t_cdf(-2.0, math.inf)

    @pytest.mark.parametrize("nu", [2.25, 12.0, 400.0, 1e4, 1e6, 1e8])
    def test_left_tail_against_mpmath(self, nu):
        # x = nu/(nu + t^2) and its complement are each formed without
        # cancellation (0.5 (1 - I) with I ~ 1 reads 0.0 at t = -10,
        # nu = 400).  Where P(T < t) ~ 1e-260 the front factor's exponent of
        # -600 alone rounds to ~6e-14, so the deep points read up to 1.6e-13
        # at nu >= 1e4
        bound = 1e-13 if nu <= 400.0 else 2e-13
        for t in (-1.5, -2.0, -2.5, -3.0, -4.0, -5.0, -7.0, -10.0, -15.0, -20.0,
                  -30.0, -34.5, -37.0, -40.0):
            with mp.workdps(40):
                v = mp.mpf(nu)
                ref = mp.betainc(v / 2, mp.mpf(1) / 2, 0, v / (v + mp.mpf(t) ** 2),
                                 regularized=True) / 2
            if ref > 1e-300:
                assert float(abs(t_cdf(t, nu) / ref - 1)) <= bound

    @pytest.mark.parametrize("nu", [2.5, 4.0, 8.0])
    def test_pdf_is_cdf_derivative(self, nu):
        h = 1e-6
        for t in np.linspace(-10.0, 10.0, 41):
            deriv = (t_cdf(t + h, nu) - t_cdf(t - h, nu)) / (2 * h)
            assert deriv == pytest.approx(t_pdf(t, nu), abs=1e-6)


class TestClosedForms:
    def test_values(self):
        assert t_quantile_closed(0.75, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert t_quantile_closed(0.25, 2.0) == pytest.approx(-0.8164965809277261,
                                                             rel=1e-14)
        assert t_quantile_closed(0.5, 4.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            t_quantile_closed(0.25, 3.0)

    @pytest.mark.parametrize("nu", [1.0, 2.0, 4.0])
    def test_agrees_with_beta_route(self, nu):
        for u in (np.arange(1000) + 0.5) / 1000.0:
            closed = t_quantile_closed(float(u), nu)
            via_beta = _t_quantile_beta(float(u), nu)
            assert abs(closed - via_beta) <= 1e-11 * max(1.0, abs(closed))


class TestQuantile:
    def test_values(self):
        for nu in (1.0, 2.5, 4.0, 7.0):
            assert t_quantile(0.5, nu) == 0.0
        assert t_quantile(0.025, 4.0) == pytest.approx(-2.7764, abs=5e-5)
        # printed 2.62 unscaled by sqrt((nu-2)/nu)
        assert t_quantile(0.01, 3.0) == pytest.approx(-2.62 / math.sqrt(1.0 / 3.0),
                                                      abs=0.01)

    def test_infinite_nu_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            t_quantile(0.01, math.inf)

    @pytest.mark.parametrize("nu", [2.25, 2.5, 3.0, 4.0, 5.0, 6.0, 12.0])
    def test_round_trip(self, nu):
        for u in np.concatenate([np.logspace(-6, np.log10(0.5), 25)]):
            u = float(min(u, 0.5 - 1e-12))
            q = t_quantile(u, nu)
            assert abs(t_cdf(q, nu) - u) <= 1e-11

    @pytest.mark.parametrize("nu", [2.25, 3.0, 4.0, 6.0])
    def test_antisymmetry(self, nu):
        # dyadic u so 1-u is exactly representable; otherwise the input
        # rounding of 1-u alone moves deep-tail quantiles by ~1e-9
        for m in (1, 3, 11, 41, 157, 601, 2310, 8871, 34067, 130856, 502560):
            u = m / 2.0 ** 20
            assert abs(t_quantile(u, nu) + t_quantile(1.0 - u, nu)) <= 1e-12

    def test_large_nu_route_takes_few_beta_evaluations(self, monkeypatch):
        # Cornish-Fisher start, then Halley steps: no evaluation where the
        # series' fifth term is below rounding, at most two elsewhere (the
        # inverse beta takes 13 to 32 at these nu)
        calls = []
        real = tquantile.reg_inc_beta_pair
        monkeypatch.setattr(tquantile, "reg_inc_beta_pair",
                            lambda *args: calls.append(1) or real(*args))
        for nu in (11.5, 12.0, 40.0, 400.0, 7000.0, 1e5, 1e8):
            for u in (0.3, 0.025, 1e-6, 1e-12, 1e-50, 1e-300, 0.7):
                calls.clear()
                t_quantile(u, nu)
                assert len(calls) <= 2
        calls.clear()
        t_quantile(1e-6, 1e8)
        assert not calls

    def test_small_halley_step_ends_at_the_root(self):
        # a converged step that rounds to nothing ends the loop before the
        # bracket test, which would bisect it away (6e-7 off here)
        u = 10.0 ** -11.5
        assert t_quantile(u, 75.0) == pytest.approx(-8.1448685555356641637, rel=1e-14)
        assert abs(t_cdf(t_quantile(u, 75.0), 75.0) / u - 1.0) <= 1e-13

    def test_gaussian_limit(self):
        nu = 1e6
        scale = math.sqrt((nu - 2.0) / nu)
        for u in (0.025, 0.01, 1e-3):
            assert abs(t_quantile(u, nu) * scale - gauss_quantile(u)) <= 1e-4


class TestTailSeries:
    def test_coefficients(self):
        d = tail_series_coeffs(2.0)
        assert d == pytest.approx((1.0, -0.25, 0.0, 0.0, 0.0, 0.0), abs=1e-15)
        d = tail_series_coeffs(4.0)
        assert d[0] == 1.0
        assert d[1] == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert d[2] == pytest.approx(-7.0 / 288.0, rel=1e-14)
        assert tail_series_coeffs(7.3)[0] == 1.0

    def test_exact_at_nu_2(self):
        assert t_quantile_tail_series(0.01, 2.0) == pytest.approx(
            -6.964556734283274, rel=1e-12)

    def test_nu_4_accuracy(self):
        q = t_quantile_tail_series(0.025, 4.0)
        assert q == pytest.approx(t_quantile(0.025, 4.0), abs=1e-5)
        assert q == pytest.approx(-2.7764, abs=5e-5)

    def test_nu_11(self):
        q = _t_quantile_beta(0.02, 11.0)
        assert abs(t_quantile_tail_series(0.02, 11.0) - q) <= 1e-3 * abs(q)

    def test_domain(self):
        with pytest.raises(ValueError):
            t_quantile_tail_series(0.03, 4.0)
        with pytest.raises(ValueError):
            t_quantile_tail_series(0.01, 1.5)
        with pytest.raises(ValueError):
            t_quantile_tail_series(0.01, 12.0)

    def test_error_envelope_spot_grid(self):
        # coarse version of the acceptance sweep
        us = np.logspace(-6, np.log10(0.025), 40)
        us[-1] = 0.025
        for nu in np.linspace(2.0, 11.0, 10):
            for u in us:
                q = t_quantile(float(u), float(nu))
                ts = t_quantile_tail_series(float(u), float(nu))
                rel = abs(ts - q) / abs(q)
                assert rel <= 1e-3
                if nu <= 4.0:
                    assert rel <= 1e-5
