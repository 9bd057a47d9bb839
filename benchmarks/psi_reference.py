"""Regenerate psi_reference.json: psi at every (nu, u) the benchmark reads.

Run from the repository root:  python3 benchmarks/psi_reference.py

Values are computed with mpmath at 50 significant digits, independently
of the tailrisk code: the T quantile is the root of the incomplete-beta
CDF, refined from a scipy double-precision start, and the CVaR uses the
closed-form tail integral  E[T; T < q] = -(nu + q^2) / (nu - 1) * h(q).
Each u is the exact double the CLI evaluates.
"""

import json
import os
import sys

import mpmath as mp
from scipy import stats

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from workloads import nu_key, reference_points  # noqa: E402

DPS = 50
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "psi_reference.json")


def gaussian_psi(u: float):
    uu = mp.mpf(u)
    q = mp.findroot(lambda x: mp.ncdf(x) - uu, mp.mpf(stats.norm.ppf(u)),
                    tol=mp.mpf(10) ** -(DPS - 5))
    return -q, mp.npdf(q) / uu


def t_psi(u: float, nu: float):
    uu, v = mp.mpf(u), mp.mpf(nu)
    half = mp.mpf(1) / 2

    def lower_tail(t):  # P(T < t) for t < 0
        return mp.betainc(v / 2, half, 0, v / (v + t * t), regularized=True) / 2

    q = mp.findroot(lambda t: lower_tail(t) - uu, mp.mpf(stats.t.ppf(u, nu)),
                    tol=mp.mpf(10) ** -(DPS - 5))
    density = mp.exp(mp.loggamma((v + 1) / 2) - mp.loggamma(v / 2)
                     - mp.log(v * mp.pi) / 2 - (v + 1) / 2 * mp.log1p(q * q / v))
    scale = mp.sqrt((v - 2) / v)
    return -scale * q, scale * (v + q * q) / (v - 1) * density / uu


def main() -> int:
    mp.mp.dps = DPS
    nus, us = reference_points()
    table = {}
    for nu in nus:
        row = table[nu_key(nu)] = {}
        for u in us:
            var, cvar = gaussian_psi(u) if nu is None else t_psi(u, nu)
            row[repr(u)] = [mp.nstr(var, 30), mp.nstr(cvar, 30)]
    with open(OUT, "w") as fh:
        json.dump({"digits": DPS, "psi": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(nus) * len(us)} (nu, u) points to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
