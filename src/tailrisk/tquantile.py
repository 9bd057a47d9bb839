"""Student-T density, CDF, and quantile function for real degrees of freedom.

Three quantile routes are provided:

* closed forms for nu in {1, 2, 4},
* inversion of the incomplete-beta CDF representation for general nu
  (the canonical production route),
* a six-term tail series for deep left-tail evaluation on 0 < u <= 0.025,
  2 <= nu <= 11, exposed separately so every production number has one
  canonical evaluation route.
"""

import math

from .special import NumericsError, check_probability, inv_reg_inc_beta, reg_inc_beta

__all__ = [
    "t_pdf",
    "t_cdf",
    "t_quantile",
    "t_quantile_closed",
    "tail_series_coeffs",
    "t_quantile_tail_series",
]


def check_dof(nu: float) -> float:
    """nu, or ValueError unless it is positive and finite."""
    if not (0.0 < nu < math.inf):
        raise ValueError(f"degrees of freedom must be positive and finite, got {nu}")
    return nu


def t_pdf(t: float, nu: float) -> float:
    """Student-T density h(t, nu)."""
    check_dof(nu)
    log_norm = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) \
        - 0.5 * math.log(nu * math.pi)
    return math.exp(log_norm - 0.5 * (nu + 1.0) * math.log1p(t * t / nu))


def t_cdf(t: float, nu: float) -> float:
    """Student-T CDF via the regularized incomplete beta representation."""
    check_dof(nu)
    if t == 0.0:
        return 0.5
    t2 = t * t
    # evaluate the beta function on whichever side of the split is formed
    # without subtractive cancellation (t2/(t2+nu) is exact for small t)
    if t2 <= nu:
        tail = 0.5 * (1.0 - reg_inc_beta(t2 / (t2 + nu), 0.5, 0.5 * nu))
    else:
        tail = 0.5 * reg_inc_beta(nu / (t2 + nu), 0.5 * nu, 0.5)
    return tail if t < 0.0 else 1.0 - tail


def t_quantile_closed(u: float, nu: float) -> float:
    """Closed-form T quantile, available only for nu in {1, 2, 4}."""
    check_probability(u)
    if nu == 1.0:
        return math.tan(math.pi * (u - 0.5))
    if nu == 2.0:
        return (2.0 * u - 1.0) / math.sqrt(2.0 * u * (1.0 - u))
    if nu == 4.0:
        if u == 0.5:
            return 0.0
        alpha = 4.0 * u * (1.0 - u)
        q = 4.0 / math.sqrt(alpha) * math.cos(math.acos(math.sqrt(alpha)) / 3.0)
        return math.copysign(math.sqrt(q - 4.0), u - 0.5)
    raise ValueError(f"closed-form T quantile exists only for nu in {{1,2,4}}, got {nu}")


def _t_quantile_beta(u: float, nu: float) -> float:
    """General-nu quantile via inversion of the incomplete beta."""
    arg = 2.0 * u if u < 0.5 else 2.0 * (1.0 - u)
    x = inv_reg_inc_beta(arg, 0.5 * nu, 0.5)
    if u == 0.5:
        return 0.0
    t = math.sqrt(nu * (1.0 / x - 1.0))
    if not math.isfinite(t):
        raise NumericsError(f"T quantile overflows at u={u}, nu={nu}")
    return math.copysign(t, u - 0.5)


def t_quantile(u: float, nu: float) -> float:
    """Student-T quantile for any nu > 0.

    Dispatches to the closed form when nu is exactly 1, 2, or 4; all other
    nu go through the inverse incomplete beta.
    """
    check_probability(u)
    check_dof(nu)
    if nu in (1.0, 2.0, 4.0):
        return t_quantile_closed(u, nu)
    return _t_quantile_beta(u, nu)


def tail_series_coeffs(nu: float):
    """The six tail-series coefficients d_1..d_6, each rational in nu."""
    check_dof(nu)
    d1 = 1.0
    d2 = -1.0 / (nu + 2.0)
    d3 = -(nu - 2.0) * (nu + 3.0) / (2.0 * (nu + 2.0) ** 2 * (nu + 4.0))
    d4 = -(nu - 2.0) * (nu ** 3 + 6.0 * nu ** 2 + 2.0 * nu - 18.0) / \
        (3.0 * (nu + 2.0) ** 3 * (nu + 4.0) * (nu + 6.0))
    d5 = -(nu - 2.0) * (nu + 5.0) * \
        (6.0 * nu ** 5 + 59.0 * nu ** 4 + 95.0 * nu ** 3
         - 284.0 * nu ** 2 - 380.0 * nu + 576.0) / \
        (24.0 * (nu + 2.0) ** 4 * (nu + 4.0) ** 2 * (nu + 6.0) * (nu + 8.0))
    d6 = -(nu - 2.0) * (nu + 3.0) * \
        (2.0 * nu ** 7 + 37.0 * nu ** 6 + 192.0 * nu ** 5 + 26.0 * nu ** 4
         - 1430.0 * nu ** 3 - 48.0 * nu ** 2 + 3576.0 * nu - 2400.0) / \
        (10.0 * (nu + 2.0) ** 5 * (nu + 4.0) ** 2 * (nu + 6.0)
         * (nu + 8.0) * (nu + 10.0))
    return (d1, d2, d3, d4, d5, d6)


def t_quantile_tail_series(u: float, nu: float) -> float:
    """Six-term deep-tail approximation to the T quantile.

    Valid for 0 < u <= 0.025 and 2 <= nu <= 11; exact (to rounding) at
    nu=2, relative error below 1e-5 for nu in [2,4] and below 1e-3 up to
    nu=11.
    """
    if not (0.0 < u <= 0.025):
        raise ValueError(f"tail series requires 0 < u <= 0.025, got {u}")
    if not (2.0 <= nu <= 11.0):
        raise ValueError(f"tail series requires 2 <= nu <= 11, got {nu}")
    w = (u * nu * math.sqrt(math.pi)
         * math.exp(math.lgamma(0.5 * nu) - math.lgamma(0.5 * (nu + 1.0)))) ** (2.0 / nu)
    beta = 0.0
    wk = 1.0
    for dk in tail_series_coeffs(nu):
        wk *= w
        beta += dk * wk
    return -math.sqrt(nu * (1.0 / beta - 1.0))
