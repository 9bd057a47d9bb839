"""Seeded input generators for the four benchmark workloads.

Every workload is a sequence of passes.  A pass is a list of Op objects,
each one `tailrisk` CLI invocation together with the problem files it
reads, the input properties it logs and what the output checks need to
know.  A pass holds one op of each of the workload's input classes, so
runs on different seeds do the same amount of work, and the measuring
loop only stops between passes.
"""

from dataclasses import dataclass, field

import numpy as np

# Tail levels u = 10^-x on the loss-curves grid x = 0.5, 1.0, ..., 12.0,
# computed exactly as the CLI computes them from --x-from/--x-step.
X_FROM, X_TO, X_STEP = 0.5, 12.0, 0.5
U_GRID = [10.0 ** -(X_FROM + i * X_STEP) for i in range(24)]
U_OPTIMIZE = [0.05, 0.025, 10.0 ** -1.5, 10.0 ** -2.0, 10.0 ** -2.5,
              10.0 ** -3.0, 10.0 ** -3.5, 10.0 ** -4.0]
U_VERIFY = [0.05, 0.025, 0.01]

# psi_sweep nu pool, one list per quantile route.  Each pass runs every
# entry once; gaussian and nu=4 appear four times so that the two routes
# which bypass the inverse incomplete beta are an eighth of the ops each.
PSI_ROUTES = {
    "gaussian": [None] * 4,
    "closed_nu4": [4.0] * 4,
    "beta_nu_2_11": [2.05, 2.25, 2.5, 3.0, 3.5, 5.0, 7.5, 11.0],
    "beta_nu_11_1e3": [12.0, 16.0, 25.0, 40.0, 75.0, 150.0, 400.0, 1000.0],
    "beta_nu_1e3_1e6": [1500.0, 3000.0, 7000.0, 15000.0, 40000.0, 1e5, 3e5, 1e6],
}
T_NUS = [3.0, 5.0, 7.5]          # T specs in frontier and verify problems
OPT_T_NUS = [3.0, 5.0, 7.5, 12.0]

FRONTIER_N = [100, 150, 200]
# optimize_factor solves a fixed catalog of problems drawn once from this
# seed; the run seed permutes assets and order.  A seed-drawn set of ~100
# factor-model problems changes the summed solver work by ~20% between
# seeds (op time has a coefficient of variation near 0.9).
CATALOG_SEED = 0
CATALOG_N = [int(n) for n in np.linspace(10, 100, 19).round()]
VERIFY_SAMPLES = [100_000, 200_000, 500_000, 1_000_000, 2_000_000]


def reference_points():
    """Every (nu, u) whose psi any workload reads, nu=None for Gaussian."""
    nus = sorted({nu for pool in PSI_ROUTES.values() for nu in pool
                  if nu is not None} | set(T_NUS) | set(OPT_T_NUS))
    us = sorted(set(U_GRID) | set(U_OPTIMIZE) | set(U_VERIFY))
    return [None] + nus, us


def nu_key(nu: float | None) -> str:
    return "gaussian" if nu is None else repr(float(nu))


@dataclass
class Op:
    """One CLI invocation and what its output is checked against."""
    argv: list[str]
    kind: str                      # psi | frontier | optimize | verify
    input_class: int               # which of the pass's input classes this op is
    props: dict                    # logged input properties, also read by the checks
    files: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)   # arrays the checks need


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def problem_text(mu, cov, nu: float | None, measure: str, u: float) -> str:
    lines = ["[returns]", _fmt_row(mu), "[covariance]"]
    lines += [_fmt_row(row) for row in cov]
    lines += ["[spec]",
              "distribution = " + ("gaussian" if nu is None else "student-t")]
    if nu is not None:
        lines.append(f"nu = {nu!r}")
    lines += [f"measure = {measure}", f"u = {u!r}", ""]
    return "\n".join(lines)


def condition_number(cov: np.ndarray) -> float:
    ev = np.linalg.eigvalsh(cov)
    return float(ev[-1] / ev[0])


def decade(x: float) -> str:
    return f"1e{int(np.floor(np.log10(x)))}"


def constant_correlation_cov(rng, n: int) -> tuple[np.ndarray, float]:
    rho = float(rng.uniform(0.05, 0.3))
    vol = rng.uniform(0.1, 0.4, n)
    corr = np.full((n, n), rho)
    np.fill_diagonal(corr, 1.0)
    return corr * np.outer(vol, vol), rho


def factor_cov(rng, n: int, k: int, cond: float) -> np.ndarray:
    """k-factor covariance shifted along the identity to condition `cond`."""
    loadings = rng.normal(size=(n, k)) * rng.uniform(0.5, 1.5, size=(1, k))
    f = loadings @ loadings.T + np.diag(rng.uniform(0.5, 1.5, n))
    d = np.sqrt(np.diag(f))
    vol = rng.uniform(0.1, 0.35, n)
    cov = f / np.outer(d, d) * np.outer(vol, vol)
    ev = np.linalg.eigvalsh(cov)
    shift = (ev[-1] - cond * ev[0]) / (cond - 1.0)
    return cov + shift * np.eye(n)


class Workload:
    """Seeded source of passes; the same seed yields the same passes."""
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng([seed, self.key])
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return f"{self.workdir}/{stem}-{self.count}.txt"

    def next_pass(self) -> list[Op]:
        raise NotImplementedError


class PsiSweep(Workload):
    name, key = "psi_sweep", 1

    def next_pass(self):
        rng = self.rng
        entries = [(route, nu) for route, pool in PSI_ROUTES.items() for nu in pool]
        ops = []
        for i in rng.permutation(len(entries)):
            route, nu = entries[i]
            fmt = "json" if rng.random() < 0.5 else "csv"
            nu_arg = "gaussian" if nu is None else repr(nu)
            if rng.random() < 0.5:
                cmd = "loss-curves"
                argv = [cmd, "--nu", nu_arg, "--x-from", repr(X_FROM),
                        "--x-to", repr(X_TO), "--x-step", repr(X_STEP)]
            else:
                cmd = "psi-table"
                argv = [cmd, "--nu", nu_arg, "--measure", "var,cvar",
                        "--u", ",".join(repr(u) for u in U_GRID)]
            ops.append(Op(argv + ["--format", fmt], "psi", int(i),
                          {"route": route, "nu": nu, "command": cmd, "format": fmt,
                           "u_min": U_GRID[-1]}))
        return ops


class FrontierWide(Workload):
    name, key = "frontier_wide", 2

    def next_pass(self):
        rng = self.rng
        ops = []
        for i in rng.permutation(len(FRONTIER_N)):
            n = FRONTIER_N[i]
            cov, rho = constant_correlation_cov(rng, n)
            mu = rng.uniform(0.0, 0.12, n)
            nu = float(rng.choice(T_NUS))
            path = self.path("frontier")
            ops.append(Op(["frontier", path], "frontier", int(i),
                          {"n": n, "rho": rho, "cond": (c := condition_number(cov)),
                           "cond_decade": decade(c), "nu": nu},
                          files={path: problem_text(mu, cov, nu, "cvar", 0.01)},
                          data={"mu": mu, "cov": cov}))
        return ops


def optimize_catalog() -> list[dict]:
    """The fixed optimize_factor problems: n, factors, condition, spec, u."""
    rng = np.random.default_rng(CATALOG_SEED)
    conds = 10.0 ** rng.permutation(np.linspace(2.0, 4.0, len(CATALOG_N)))
    us = rng.choice(U_OPTIMIZE, len(CATALOG_N))
    catalog = []
    for i, n in enumerate(CATALOG_N):
        k = max(1, round(n / 10))
        nu = None if i % 2 == 0 else float(OPT_T_NUS[(i // 2) % len(OPT_T_NUS)])
        cov = factor_cov(rng, n, k, float(conds[i]))
        catalog.append({"n": n, "k": k, "cond": condition_number(cov), "cov": cov,
                        "mu": rng.uniform(0.0, 0.12, n), "nu": nu,
                        "measure": "var" if nu is None else "cvar", "u": float(us[i])})
    return catalog


class OptimizeFactor(Workload):
    name, key = "optimize_factor", 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.catalog = optimize_catalog()

    def next_pass(self):
        rng = self.rng
        ops = []
        for i in rng.permutation(len(self.catalog)):
            p = self.catalog[i]
            perm = rng.permutation(p["n"])
            mu, cov = p["mu"][perm], p["cov"][np.ix_(perm, perm)]
            path = self.path("optimize")
            spec = "gaussian-var" if p["nu"] is None else "t-cvar"
            ops.append(Op(["optimize", path], "optimize", int(i),
                          {"n": p["n"], "factors": p["k"], "cond": p["cond"],
                           "cond_decade": decade(p["cond"]),
                           "spec": spec, "nu": p["nu"], "u": p["u"]},
                          files={path: problem_text(mu, cov, p["nu"], p["measure"], p["u"])},
                          data={"mu": mu, "cov": cov, "measure": p["measure"]}))
        return ops


class VerifyMC(Workload):
    name, key = "verify_mc", 4

    def next_pass(self):
        rng = self.rng
        cases = [(s, d) for s in VERIFY_SAMPLES for d in ("gaussian", "student-t")]
        ops = []
        for i in rng.permutation(len(cases)):
            samples, dist = cases[i]
            a = rng.normal(size=(3, 3)) * 0.1
            cov = a @ a.T + np.diag(rng.uniform(0.005, 0.03, 3))
            mu = rng.uniform(0.0, 0.1, 3)
            nu = None if dist == "gaussian" else float(rng.choice(T_NUS))
            u = float(rng.choice(U_VERIFY))
            measure = "var" if rng.random() < 0.5 else "cvar"
            path = self.path("verify")
            cli_seed = int(rng.integers(2**31))
            ops.append(Op(["verify", path, "--samples", str(samples), "--seed", str(cli_seed)],
                          "verify", int(i),
                          {"dist": dist, "nu": nu, "u": u, "measure": measure,
                           "samples": samples, "array_mib": round(samples * 8 / 2**20, 2)},
                          files={path: problem_text(mu, cov, nu, measure, u)}))
        return ops


WORKLOADS = {w.name: w for w in (PsiSweep, FrontierWide, OptimizeFactor, VerifyMC)}


def warmup_problem_text() -> str:
    """A fixed 3-asset problem for the set-up warm-up op."""
    cov = np.array([[0.04, 0.00849, 0.006], [0.00849, 0.02, 0.00424],
                    [0.006, 0.00424, 0.01]])
    return problem_text([0.08, 0.05, 0.03], cov, 3.0, "cvar", 0.025)

