"""Scalar special functions: Gaussian PDF/CDF/quantile, log B(a, b), and the
regularized incomplete beta function with its inverse, its exact complement
and its Mills ratio.

Everything here is a pure function of its arguments and safe to call from
any number of threads.
"""

import math

__all__ = [
    "NumericsError",
    "gauss_pdf",
    "gauss_cdf",
    "gauss_quantile",
    "gauss_mills_ratio",
    "log_beta",
    "reg_inc_beta",
    "reg_inc_beta_pair",
    "inc_beta_mills",
    "inv_reg_inc_beta",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
MIN_NORMAL = 2.0 ** -1022  # below it a tail probability loses significant bits

# Lentz continued-fraction controls.  The cap is sized so that the worst
# case within the supported parameter range (a = b = 1e6 at the crossover
# point, ~530 iterations) still converges.
_CF_TINY = 1e-300
_CF_EPS = 1e-15
_CF_MAX_ITER = 700


class NumericsError(RuntimeError):
    """Internal numerical failure (no convergence, or a result beyond double range)."""


def check_probability(u: float) -> float:
    """Validate u in the open interval (0, 1); boundary values are rejected."""
    if not (0.0 < u < 1.0):
        raise ValueError(f"probability must lie strictly in (0,1), got {u}")
    return u


def gauss_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def gauss_cdf(x: float) -> float:
    """Standard normal CDF via erfc, so deep-tail values keep relative accuracy."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Acklam's rational approximation to the normal quantile (~1e-9 accurate),
# used only as the starting point for Halley refinement.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)
_ACKLAM_SPLIT = 0.02425


def _gauss_quantile_estimate(u: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if u < _ACKLAM_SPLIT:
        q = math.sqrt(-2.0 * math.log(u))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if u > 1.0 - _ACKLAM_SPLIT:
        q = math.sqrt(-2.0 * math.log(1.0 - u))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = u - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


# Terms of Laplace's fraction.  Against 50-digit mpmath it reaches 2e-16
# with 13 terms at x = -9 and 5 at x = -37; the rest is margin.
_MILLS_TERMS = 16


def gauss_mills_ratio(x: float) -> float:
    """Phi(x) / phi(x) for x <= -9 (u below about 1e-19), by Laplace's
    continued fraction 1/(t + 1/(t + 2/(t + 3/(t + ...)))), t = -x, whose
    first _MILLS_TERMS terms reach full precision there."""
    f = -x
    for k in range(_MILLS_TERMS, 0, -1):
        f = k / f - x
    return 1.0 / f


def gauss_quantile(u: float) -> float:
    """Inverse of the standard normal CDF.

    Rational-approximation starting value refined by two Halley steps
    against gauss_cdf; accurate to ~1 ulp over (0,1).  For subnormal u,
    where Phi(x) itself is subnormal, two Newton steps solve
    log Phi(x) = log u instead, with Phi = phi * gauss_mills_ratio.
    """
    check_probability(u)
    if u == 0.5:
        return 0.0
    x = _gauss_quantile_estimate(u)
    if u < MIN_NORMAL:
        log_u = math.log(u)
        for _ in range(2):
            m = gauss_mills_ratio(x)
            x -= (math.log(m / _SQRT_2PI) - 0.5 * x * x - log_u) * m
        return x
    for _ in range(2):
        err = gauss_cdf(x) - u
        # Halley step: f=Phi(x)-u, f'=phi(x), f''=-x*phi(x)
        t = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= t / (1.0 + 0.5 * x * t)
    return x


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise NumericsError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})")


def _check_beta_params(a: float, b: float) -> None:
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta parameters must be positive, got a={a}, b={b}")


def _stirling_tail(x: float) -> float:
    """Correction S(x) in lgamma(x) = (x-1/2)ln x - x + ln(2pi)/2 + S(x)."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0
            - (1.0 / 1680.0 - r / 1188.0) * r) * r) * r) / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b) for positive a and b."""
    _check_beta_params(a, b)
    # For a large parameter the naive lgamma(a) - lgamma(a+b) difference
    # cancels terms of size a ln a: ~1e-9 absolute error in the exponent at
    # a = 1e7 and 4e-14 already at a = 75.  The log1p form keeps every term
    # O(b ln a); from 20 up, the Stirling tail's first omitted term is below
    # 1e-17.
    big, small = (a, b) if a >= b else (b, a)
    if big >= 20.0:
        return math.lgamma(small) - small * math.log(big) \
            - (big + small - 0.5) * math.log1p(small / big) + small \
            + _stirling_tail(big) - _stirling_tail(big + small)
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a,b).

    The symmetry I_x(a,b) = 1 - I_{1-x}(b,a) keeps the continued fraction
    in its rapidly convergent region.
    """
    _check_beta_params(a, b)
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_frac(a: float, b: float, x: float, y: float) -> float:
    """I_x(a,b) over x^a y^b / B(a,b), for x below the split, by the even
    part of the continued fraction (DiDonato & Morris 1992, BFRAC).

    Its coefficients take lambda = (a+b) y - b from the exact complement y.
    The Lentz form in _beta_cf instead forms 1 - (a+b) x / (a+1) and its
    like from x alone, which cancels to ~y and costs eps/y: 3e-9 in the
    T tail at nu = 1e8, t = -2.5.
    """
    lam = (a + b) * y - b
    c = 1.0 + lam
    c0 = b / a
    c1 = 1.0 + 1.0 / a
    yp1 = y + 1.0
    p, s = 1.0, a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _CF_MAX_ITER + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = (p * (p + c0) * e * e) * (w * x)
        e = (1.0 + t) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = 1.0 + t
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _CF_EPS * r:
            return r
        an /= bnp1
        bn /= bnp1
        anp1, bnp1 = r, 1.0
    raise NumericsError(
        f"incomplete beta continued fraction failed to converge "
        f"(a={a}, b={b}, x={x})")


def _ratio(a: float, b: float, x: float, y: float) -> float:
    """a I_x(a,b) over x^a y^b / B(a,b) below the split.  For a <= 1 the split
    lies below x = 2/3, where the Lentz form cannot cancel."""
    return a * _beta_frac(a, b, x, y) if a > 1.0 else _beta_cf(a, b, x)


def _check_pair(x: float, y: float, a: float, b: float) -> None:
    _check_beta_params(a, b)
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0 and abs(x + y - 1.0) <= 1e-15):
        raise ValueError(f"x and y must lie in [0,1] and sum to 1, got {x}, {y}")


def _front(x: float, y: float, a: float, b: float) -> float:
    """x^a y^b / B(a,b) for 0 < x, y < 1.  Near 1, log x is taken from the
    exact complement: log of a rounded x costs a*eps in the exponent."""
    log_x = math.log(x) if x <= 0.5 else math.log1p(-y)
    log_y = math.log(y) if y <= 0.5 else math.log1p(-x)
    return math.exp(a * log_x + b * log_y - log_beta(a, b))


def reg_inc_beta_pair(x: float, y: float, a: float, b: float) -> tuple[float, float]:
    """(I_x(a,b), I_y(b,a)), the incomplete beta and its complement, for
    x + y = 1 given separately (DiDonato & Morris 1992, TOMS 708).

    A caller that forms both x and y without cancellation gets both
    results to full relative precision for any a and b.
    """
    _check_pair(x, y, a, b)
    if x == 0.0 or y == 0.0:
        return (0.0, 1.0) if x == 0.0 else (1.0, 0.0)
    front = _front(x, y, a, b)
    # x < (a+1)/(a+b+2), tested on y: the bound on x rounds to 1 from a = 2^53
    if y > (b + 1.0) / (a + b + 2.0):
        w = front * _ratio(a, b, x, y) / a
        return w, 1.0 - w
    w1 = front * _ratio(b, a, y, x) / b
    return 1.0 - w1, w1


def inc_beta_mills(x: float, y: float, a: float, b: float) -> float:
    """I_x(a,b) over its leading term x^a y^b / (a B(a,b)), for x + y = 1
    given separately: the incomplete beta's Mills ratio.

    Below the split x < (a+1)/(a+b+2) this is a continued fraction, with no
    exponential in it.  A tail ratio built on it keeps full precision
    however thin the tail: the leading term's exponent reaches -700 at
    I ~ 1e-300, and its rounding alone costs ~1e-13 there.
    """
    _check_pair(x, y, a, b)
    if y > (b + 1.0) / (a + b + 2.0):
        return _ratio(a, b, x, y)
    if y == 0.0:
        return math.inf
    front = _front(x, y, a, b)
    return a * (1.0 - front * _ratio(b, a, y, x) / b) / front


def _beta_density(x: float, a: float, b: float, log_b: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return math.exp((a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_b)


def inv_reg_inc_beta(y: float, a: float, b: float) -> float:
    """Inverse of reg_inc_beta in its first argument.

    Newton iteration safeguarded by bisection bracketing; the boundary
    values y=0 and y=1 return exactly 0 and 1 without iteration.
    """
    _check_beta_params(a, b)
    if not (0.0 <= y <= 1.0):
        raise ValueError(f"y must lie in [0,1], got {y}")
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    if y > 0.5:
        # work in the small tail for numerical quality
        return 1.0 - inv_reg_inc_beta(1.0 - y, b, a)

    log_b = log_beta(a, b)
    lo, hi = 0.0, 1.0
    # small-y power-law guess: I_x(a,b) ~ x^a / (a B(a,b)) as x -> 0
    log_x0 = (math.log(y) + math.log(a) + log_b) / a
    x = math.exp(log_x0) if log_x0 < 0.0 else 0.5
    if not (lo < x < hi):
        x = 0.5

    fx = 0.0
    deriv = 0.0
    best_x, best_fx = x, math.inf
    for _ in range(200):
        fx = reg_inc_beta(x, a, b) - y
        if abs(fx) < best_fx:
            best_x, best_fx = x, abs(fx)
        if abs(fx) <= 1e-15 * y:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        deriv = _beta_density(x, a, b, log_b)
        step_ok = False
        if deriv > 0.0:
            xn = x - fx / deriv
            if lo < xn < hi:
                if xn == x:
                    break
                x = xn
                step_ok = True
        if not step_ok:
            xn = 0.5 * (lo + hi)
            if xn == x or xn == lo or xn == hi:
                break
            x = xn
    # at a steep root one ulp of x can move I_x by more than any fixed
    # residual target, so accept the best representable root in that case
    ulp_limit = 8.0 * 2.220446049250313e-16 * max(abs(best_x), 1e-300) * deriv
    if best_fx > max(1e-13, ulp_limit):
        raise NumericsError(
            f"inverse incomplete beta failed to converge (y={y}, a={a}, b={b})")
    return best_x
