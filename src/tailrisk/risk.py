"""Loss multipliers (psi functions) and mean/sigma-parametrized VaR and CVaR.

A risk value is always of the form  -mu + psi(u) * sigma, where psi
depends only on the tail level u, the distribution family, and the risk
measure.  The T multipliers carry the sqrt((nu-2)/nu) factor that
normalizes the standard T to unit variance, so Gaussian and T numbers are
comparable like for like.
"""

import math
from dataclasses import dataclass

from .special import (
    check_probability,
    gauss_mills_ratio,
    gauss_pdf,
    gauss_quantile,
    inc_beta_mills,
    log_beta,
)
from .tquantile import t_quantile

__all__ = [
    "GAUSSIAN",
    "STUDENT_T",
    "VAR",
    "CVAR",
    "RiskSpec",
    "MomentParams",
    "psi",
    "check_loss_tail",
    "k_function",
    "value_at_risk",
    "conditional_value_at_risk",
    "total_kurtosis",
]

GAUSSIAN = "gaussian"
STUDENT_T = "student-t"
VAR = "var"
CVAR = "cvar"


@dataclass(frozen=True)
class RiskSpec:
    """Distribution family x risk measure selecting one psi function."""
    distribution: str = GAUSSIAN
    measure: str = VAR
    nu: float | None = None

    def __post_init__(self):
        if self.distribution not in (GAUSSIAN, STUDENT_T):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.measure not in (VAR, CVAR):
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.distribution == STUDENT_T:
            if self.nu is None:
                raise ValueError("student-t spec requires nu")
            if not (self.nu > 2.0):
                raise ValueError(
                    f"student-t risk requires nu > 2 for a finite variance, got {self.nu}")
            if not math.isfinite(self.nu):
                raise ValueError(f"student-t risk requires a finite nu, got {self.nu}; "
                                 f"the limit is distribution {GAUSSIAN!r}")
        elif self.nu is not None:
            raise ValueError("nu is only meaningful for student-t")

    def with_measure(self, measure: str) -> "RiskSpec":
        return RiskSpec(self.distribution, measure, self.nu)


@dataclass(frozen=True)
class MomentParams:
    """Per-period mean and standard deviation."""
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def check_loss_tail(u: float) -> float:
    """u, or ValueError unless 0 < u < 1/2 (the loss tail)."""
    check_probability(u)
    if u >= 0.5:
        raise ValueError(f"loss-tail level must satisfy u < 1/2, got {u}")
    return u


# Below this tail level CVaR psi takes a Mills ratio: the beta one for the T
# instead of exp(log k), where log k < -40, whose rounding alone costs
# ~1e-14, and (from this level on) the Gaussian one instead of phi(q)/u.
_K_MIN_U = 1e-20


def k_function(t: float, nu: float) -> float:
    """Tail-integral kernel for the T CVaR.

    k(t,nu) = nu^(nu/2) Gamma((nu-1)/2) (nu+t^2)^((1-nu)/2)
              / (2 sqrt(pi) Gamma(nu/2)),
    computed in log space since nu^(nu/2) overflows near nu ~ 300.  Above
    nu = 11 the log is taken as log(nu+t^2)/2 - nu log1p(t^2/nu)/2
    + log B((nu-1)/2, 1/2) - log 2 pi, where no nu log nu terms cancel
    (they cost 1e-9 at nu = 1e6); up to 11 the golden CSVs pin the lgamma
    form.
    """
    if not (1.0 < nu < math.inf):
        raise ValueError(f"k_function requires a finite nu > 1, got {nu}")
    if nu <= 11.0:
        log_k = 0.5 * nu * math.log(nu) + math.lgamma(0.5 * (nu - 1.0)) \
            + 0.5 * (1.0 - nu) * math.log(nu + t * t) \
            - math.log(2.0) - 0.5 * math.log(math.pi) - math.lgamma(0.5 * nu)
        return math.exp(log_k)
    t2 = t * t
    return math.exp(0.5 * math.log(nu + t2) - 0.5 * nu * math.log1p(t2 / nu)
                    + log_beta(0.5 * (nu - 1.0), 0.5) - math.log(2.0 * math.pi))


def psi(spec: RiskSpec, u: float) -> float:
    """Loss multiplier psi(u) for the given distribution/measure pair."""
    check_loss_tail(u)
    if spec.distribution == GAUSSIAN:
        q = gauss_quantile(u)
        if spec.measure == VAR:
            return -q
        if u <= _K_MIN_U:
            # phi(q)/u is 1/M(q) at the root.  The ratio would move by up
            # to q^2 times q's rounding (1e-13 at u = 1e-300), the Mills
            # ratio by q's rounding alone, and it holds for subnormal u
            return 1.0 / gauss_mills_ratio(q)
        return gauss_pdf(q) / u
    nu = spec.nu
    scale = math.sqrt((nu - 2.0) / nu)
    q = t_quantile(u, nu)
    if spec.measure == VAR:
        return -scale * q
    if u >= _K_MIN_U:
        return scale * k_function(q, nu) / u
    # deep tail: k(q)/u = (nu + q^2)/(nu - 1) h(q)/F(q) at the root, and
    # h/F = nu/(|q| R) with R the Mills ratio of I_x(nu/2, 1/2).  Unlike
    # exp(log k) it carries no exponent of the tail's size (k ~ e^-550 at
    # u = 1e-300), and a rounded q moves it by q's own rounding, not by up
    # to q^2 times that
    q2 = q * q
    mills = inc_beta_mills(nu / (nu + q2), 1.0 / (1.0 + nu / q2), 0.5 * nu, 0.5)
    return scale * (nu + q2) / ((1.0 - 1.0 / nu) * -q * mills)


def value_at_risk(m: MomentParams, spec: RiskSpec, u: float) -> float:
    """VaR at tail level u for a distribution with the given moments."""
    return -m.mu + psi(spec.with_measure(VAR), u) * m.sigma


def conditional_value_at_risk(m: MomentParams, spec: RiskSpec, u: float) -> float:
    """CVaR (expected shortfall) at tail level u."""
    return -m.mu + psi(spec.with_measure(CVAR), u) * m.sigma


def total_kurtosis(nu: float) -> float:
    """Kurtosis 3 + 6/(nu-4) of the T family; undefined for nu <= 4."""
    if not (nu > 4.0):
        raise ValueError(f"kurtosis requires nu > 4, got {nu}")
    return 3.0 + 6.0 / (nu - 4.0)
