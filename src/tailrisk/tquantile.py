"""Student-T density, CDF, and quantile function for real degrees of freedom.

t_quantile takes one of three production routes, by nu:

* closed forms for nu in {1, 2, 4},
* inversion of the incomplete-beta CDF representation for other nu <= 11,
* above nu = 11, the Cornish-Fisher expansion around the Gaussian quantile,
  returned as is where its next term is below rounding, and otherwise
  refined by Halley steps in t on log t_cdf, with the density as slope.

A six-term tail series for deep left-tail evaluation on 0 < u <= 0.025,
2 <= nu <= 11 is exposed separately, so every production number has one
canonical evaluation route.
"""

import math

from .special import (
    NumericsError,
    check_probability,
    gauss_quantile,
    inv_reg_inc_beta,
    log_beta,
    reg_inc_beta_pair,
)

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


def _t_log_pdf(t: float, nu: float) -> float:
    return -log_beta(0.5 * nu, 0.5) - 0.5 * math.log(nu) \
        - 0.5 * (nu + 1.0) * math.log1p(t * t / nu)


def t_pdf(t: float, nu: float) -> float:
    """Student-T density h(t, nu) = (1 + t^2/nu)^(-(nu+1)/2) / (sqrt(nu) B(nu/2, 1/2))."""
    check_dof(nu)
    return math.exp(_t_log_pdf(t, nu))


def t_cdf(t: float, nu: float) -> float:
    """Student-T CDF: P(|T| > |t|) = I_x(nu/2, 1/2) with x = nu/(nu + t^2).

    x and its complement t^2/(nu + t^2) are each formed without
    cancellation, so the tail keeps full relative precision on both sides
    of the incomplete beta's split, for every t and nu.
    """
    check_dof(nu)
    t2 = t * t
    if t2 == 0.0:  # |t| < 1e-162: the CDF is 1/2 to rounding
        return 0.5
    outside = reg_inc_beta_pair(nu / (nu + t2), 1.0 / (1.0 + nu / t2), 0.5 * nu, 0.5)[0]
    tail = 0.5 * outside
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


def _cornish_fisher(z: float, nu: float) -> tuple[float, float]:
    """Four-term Cornish-Fisher T quantile around the Gaussian quantile z
    (Abramowitz & Stegun 26.7.5; Hill 1970), and the size of the fifth
    term, which bounds its error for large nu."""
    z2 = z * z
    g1 = (z2 + 1.0) * z / 4.0
    g2 = ((5.0 * z2 + 16.0) * z2 + 3.0) * z / 96.0
    g3 = (((3.0 * z2 + 19.0) * z2 + 17.0) * z2 - 15.0) * z / 384.0
    g4 = ((((79.0 * z2 + 776.0) * z2 + 1482.0) * z2 - 1920.0) * z2 - 945.0) * z / 92160.0
    g5 = (((((27.0 * z2 + 339.0) * z2 + 930.0) * z2 - 1782.0) * z2 - 765.0) * z2
          + 17955.0) * z / 368640.0
    return z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu, abs(g5) * (1.0 / nu) ** 5


_HALF_ULP = 2.0 ** -53   # Cornish-Fisher values this close are exact to rounding
_CF_START = 1e-2         # beyond this the power-law tail start is nearer
_CUBIC_STOP = 1e-6       # a Halley step this small leaves an error ~ its cube
_MAX_STEPS = 60


def _t_quantile_halley(p: float, nu: float) -> float:
    """Lower-tail quantile (p <= 1/2) for nu > 11.

    Returns the Cornish-Fisher value where its fifth term is below rounding
    (no incomplete beta at all).  Elsewhere that value starts Halley steps
    on log t_cdf(t) - log p, with f''/f' from the density's own
    h'/h = -(nu+1) t / (nu+t^2); working in t avoids t^2 = nu (1/x - 1),
    which costs nu*eps near x = 1.  Where the fifth term says the series is
    more than 1% off (the deep tail at moderate nu: 0.9 at nu = 12,
    u = 1e-50), the start is instead the power law x^(nu/2) = nu/2
    B(nu/2, 1/2) 2p, the inverse beta's start (2e-10 off there).  From
    either start a step below _CUBIC_STOP |t| leaves an error of about its
    cube and ends the loop, so the steps take one or two t_cdf
    evaluations.  A step that leaves the bracket of sign changes bisects.
    """
    t, err = _cornish_fisher(gauss_quantile(p), nu)
    if err <= _HALF_ULP * abs(t):
        return t
    if err > _CF_START * abs(t):
        a = 0.5 * nu
        log_x = (math.log(2.0 * p) + math.log(a) + log_beta(a, 0.5)) / a
        if log_x < 0.0:
            t = -math.sqrt(nu * math.expm1(-log_x))
    log_p = math.log(p)
    lo, hi = -math.inf, 0.0
    for _ in range(_MAX_STEPS):
        cdf = t_cdf(t, nu)
        if cdf == 0.0:                                  # underflow: far left of the root
            resid, t_new = -math.inf, math.inf
        else:
            log_cdf = math.log(cdf)
            resid = log_cdf - log_p
            slope = math.exp(_t_log_pdf(t, nu) - log_cdf)   # d log F / dt
            step = resid / slope
            denom = 1.0 - 0.5 * step * (-(nu + 1.0) * t / (nu + t * t) - slope)
            t_new = t - (step / denom if denom > 0.0 else step)
        if abs(t_new - t) <= _CUBIC_STOP * abs(t):
            return t_new
        if resid < 0.0:
            lo = t
        else:
            hi = t
        if not lo < t_new < hi:
            t_new = 2.0 * hi if lo == -math.inf else 0.5 * (lo + hi)
        t = t_new
    raise NumericsError(f"T quantile failed to converge (u={p}, nu={nu})")


def t_quantile(u: float, nu: float) -> float:
    """Student-T quantile for any nu > 0.

    Dispatches to the closed form when nu is exactly 1, 2, or 4, to the
    inverse incomplete beta for other nu <= 11, and above that to the
    Cornish-Fisher value, refined by Halley steps in t where it is not
    exact to rounding (_t_quantile_halley).
    """
    check_probability(u)
    check_dof(nu)
    if nu in (1.0, 2.0, 4.0):
        return t_quantile_closed(u, nu)
    if nu <= 11.0:
        return _t_quantile_beta(u, nu)
    return math.copysign(_t_quantile_halley(u if u < 0.5 else 1.0 - u, nu), u - 0.5)


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
