"""Independent checks of CLI outputs.

None of this calls tailrisk: psi values are compared with the mpmath
table in psi_reference.json, and portfolio weights are checked with a
KKT residual and simplex test computed here in numpy.
"""

import csv
import io
import json
import math
import os

import numpy as np

from workloads import U_GRID, X_FROM, X_STEP, nu_key

PSI_REL_TOL = 1e-8     # seed max is ~1e-9 (nu = 1e6 CVaR); a 1e-6 error must fail
KKT_TOL = 1e-6
SIMPLEX_TOL = 1e-10
CONSISTENCY_TOL = 1e-9
ACTIVE_TOL = 1e-8
# verify's bracket uses 3 of its reported standard errors; a deviation up
# to this many is a statistical miss (counted, not failed), beyond it the
# Monte Carlo estimate is wrong.
BRACKET_HARD_SE = 8.0


class CheckError(Exception):
    """An op's output is wrong; the message says how."""


def load_reference() -> dict:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "psi_reference.json")
    with open(path) as fh:
        table = json.load(fh)["psi"]
    return {(nk, float(uk)): (float(v), float(c))
            for nk, row in table.items() for uk, (v, c) in row.items()}


class Checker:
    """Holds the reference table and the running accuracy maxima."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.psi_max_rel_err = 0.0
        self.psi_values = 0
        self.kkt_max = 0.0
        self.kkt_values = 0
        self.bracket_misses = 0

    def check(self, op, rc, stdout: str, stderr: str) -> None:
        if rc is None:
            raise CheckError("traceback: " + stderr.strip().splitlines()[-1])
        if op.kind == "verify":
            self._verify(op, rc, stdout)
            return
        if rc != 0:
            raise CheckError(f"exit code {rc}: {stderr.strip()}")
        getattr(self, "_" + op.kind)(op, stdout)

    # psi ---------------------------------------------------------------
    def _psi_ok(self, nu, measure: str, u: float, value: float) -> None:
        try:
            ref = self.reference[(nu_key(nu), u)][0 if measure == "var" else 1]
        except KeyError:
            raise CheckError(f"no reference for nu={nu} u={u!r}") from None
        err = abs(value - ref) / abs(ref)
        self.psi_values += 1
        self.psi_max_rel_err = max(self.psi_max_rel_err, err)
        if not err <= PSI_REL_TOL:
            raise CheckError(f"psi {measure} nu={nu} u={u!r}: {value!r} vs "
                             f"reference {ref!r} (rel err {err:.2e})")

    def _psi(self, op, stdout: str) -> None:
        nu, command = op.props["nu"], op.props["command"]
        rows = _rows(stdout, op.props["format"])
        dist = "gaussian" if nu is None else "student-t"
        if command == "loss-curves":
            if len(rows) != len(U_GRID):
                raise CheckError(f"{len(rows)} rows, expected {len(U_GRID)}")
            for i, row in enumerate(rows):
                x = float(row["x"])
                if x != X_FROM + i * X_STEP or row["distribution"] != dist \
                        or _nu(row["nu"]) != nu:
                    raise CheckError(f"row {i} labels {row}")
                u = 10.0 ** -x
                self._psi_ok(nu, "var", u, float(row["psi_var"]))
                self._psi_ok(nu, "cvar", u, float(row["psi_cvar"]))
            return
        expected = [(u, m) for u in U_GRID for m in ("var", "cvar")]
        if len(rows) != len(expected):
            raise CheckError(f"{len(rows)} rows, expected {len(expected)}")
        for (u, measure), row in zip(expected, rows):
            if float(row["u"]) != u or row["measure"] != measure \
                    or row["distribution"] != dist or _nu(row["nu"]) != nu:
                raise CheckError(f"row labels {row}")
            self._psi_ok(nu, measure, u, float(row["psi"]))

    # portfolios ----------------------------------------------------------
    def _weights_ok(self, mu, cov, psi_val: float, w: np.ndarray,
                    expected_return: float, variance: float) -> None:
        if w.shape != mu.shape:
            raise CheckError(f"{w.size} weights for {mu.size} assets")
        if not (np.all(w >= 0.0) and abs(float(w.sum()) - 1.0) <= SIMPLEX_TOL):
            raise CheckError(f"weights off the simplex (min {w.min():.3e}, "
                             f"sum - 1 = {float(w.sum()) - 1.0:.3e})")
        kkt = kkt_residual(mu, cov, psi_val, w)
        self.kkt_values += 1
        self.kkt_max = max(self.kkt_max, kkt)
        if not kkt <= KKT_TOL:
            raise CheckError(f"KKT residual {kkt:.3e} > {KKT_TOL}")
        cw = cov @ w
        for name, got, want in (("expected_return", expected_return, float(mu @ w)),
                                ("variance", variance, float(w @ cw))):
            if not abs(got - want) <= CONSISTENCY_TOL * max(abs(want), 1e-12):
                raise CheckError(f"{name} {got!r} does not match weights ({want!r})")

    def _frontier(self, op, stdout: str) -> None:
        mu, cov, nu = op.data["mu"], op.data["cov"], op.props["nu"]
        rows = _rows(stdout, "csv")
        xs = [1.0 + 0.5 * i for i in range(9)]
        models = [("problem", nu, "cvar"), ("gaussian-var", None, "var")]
        expected = [(m, x) for m in models for x in xs]
        if len(rows) != len(expected):
            raise CheckError(f"{len(rows)} rows, expected {len(expected)}")
        n = mu.size
        for ((label, model_nu, measure), x), row in zip(expected, rows):
            if row["model"] != label or float(row["x"]) != x:
                raise CheckError(f"row labels {label} {x}")
            u = 10.0 ** -x
            psi_val = float(row["psi"])
            self._psi_ok(model_nu, measure, u, psi_val)
            w = np.array([float(row[f"w{i + 1}"]) for i in range(n)])
            self._weights_ok(mu, cov, psi_val, w, float(row["expected_return"]),
                             float(row["variance"]))

    def _optimize(self, op, stdout: str) -> None:
        d = op.data
        report = _json(stdout)
        if report.get("converged") is not True:
            raise CheckError("not converged")
        psi_val = report["psi"]
        self._psi_ok(op.props["nu"], d["measure"], op.props["u"], psi_val)
        w = np.array(report["weights"], dtype=float)
        self._weights_ok(d["mu"], d["cov"], psi_val, w, report["expected_return"],
                         report["variance"])
        risk = -float(d["mu"] @ w) + psi_val * math.sqrt(float(w @ d["cov"] @ w))
        if not abs(report["risk"] - risk) <= CONSISTENCY_TOL * max(abs(risk), 1e-12):
            raise CheckError(f"risk {report['risk']!r} does not match weights ({risk!r})")

    # verify --------------------------------------------------------------
    def _verify(self, op, rc, stdout: str) -> None:
        report = _json(stdout)
        checks = {c["name"]: c for c in report["checks"]}
        if set(checks) != {"psi_var_bracket", "psi_cvar_bracket",
                           "random_portfolio_agreement"}:
            raise CheckError(f"unexpected checks {sorted(checks)}")
        for c in checks.values():
            if c["passed"] != (abs(c["observed"] - c["analytic"]) <= c["tolerance"]):
                raise CheckError(f"{c['name']}: passed flag contradicts its numbers")
        if report["passed"] != all(c["passed"] for c in checks.values()) \
                or rc != (0 if report["passed"] else 4):
            raise CheckError(f"exit code {rc} with passed={report['passed']}")
        if not checks["random_portfolio_agreement"]["passed"]:
            raise CheckError("random search and optimizer disagree")
        for measure in ("var", "cvar"):
            c = checks[f"psi_{measure}_bracket"]
            self._psi_ok(op.props["nu"], measure, op.props["u"], c["analytic"])
            se = c["tolerance"] / 3.0
            if not abs(c["observed"] - c["analytic"]) <= BRACKET_HARD_SE * se:
                raise CheckError(f"{c['name']} off by more than {BRACKET_HARD_SE} SE")
            if not c["passed"]:
                self.bracket_misses += 1


def kkt_residual(mu, cov, psi_val: float, w: np.ndarray) -> float:
    """Largest violation of the simplex KKT conditions at weights w."""
    cw = cov @ w
    grad = -mu + psi_val * cw / math.sqrt(float(w @ cw))
    lam = float(grad @ w)
    active = w > ACTIVE_TOL
    res = float(np.max(np.abs(grad[active] - lam)))
    if not active.all():
        res = max(res, float(np.max(lam - grad[~active])))
    return res


def _nu(text):
    return None if text in ("", None) else float(text)


def _rows(stdout: str, fmt: str) -> list[dict]:
    try:
        if fmt == "json":
            return json.loads(stdout)
        return list(csv.DictReader(io.StringIO(stdout)))
    except ValueError as exc:
        raise CheckError(f"unparseable {fmt} output: {exc}") from None


def _json(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"unparseable json output: {exc}") from None
