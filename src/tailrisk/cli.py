"""Command-line front end.

Subcommands: psi-table, loss-curves, optimize, frontier, verify.  All
tabular output goes to stdout (CSV by default, machine numbers with 17
significant digits); diagnostics go to stderr.  Exit codes: 0 success,
2 input validation, 3 solver/numerics failure, 4 verification failure.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import mc_oracle, portfolio
from .risk import CVAR, GAUSSIAN, STUDENT_T, VAR, RiskSpec, psi
from .special import NumericsError

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

GAUSS_TABLE_U = (0.1, 0.025, 0.01, 1e-4, 1e-6)
T_TABLE_NU = (6.0, 5.0, 4.0, 3.0, 2.5, 2.25)
T_TABLE_U = (0.025, 0.01, 1e-3, 1e-4)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_problem_file(path: str) -> portfolio.PortfolioProblem:
    """Parse the header-tagged format into a validated problem.

    Parse errors carry line numbers.
    """
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current in sections:
                raise ValueError(f"{path}:{lineno}: duplicate section [{current}]")
            sections[current] = []
            continue
        if current is None:
            raise ValueError(f"{path}:{lineno}: content before any section header")
        sections[current].append((lineno, line))

    for name in ("returns", "covariance", "spec"):
        if name not in sections:
            raise ValueError(f"{path}: missing required section [{name}]")
    unknown = set(sections) - {"returns", "covariance", "spec"}
    if unknown:
        raise ValueError(f"{path}: unknown section(s) {sorted(unknown)}")

    def numbers(lineno, line, field):
        try:
            return [float(tok) for tok in line.replace(",", " ").split()]
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed number in {field}") from None

    def number(lineno, line, field):
        values = numbers(lineno, line, field)
        if len(values) != 1:
            raise ValueError(f"{path}:{lineno}: {field} takes exactly one number, "
                             f"got {len(values)}")
        return values[0]

    ret_rows = sections["returns"]
    if len(ret_rows) != 1:
        raise ValueError(f"{path}: [returns] must be a single line of numbers")
    mu = np.array(numbers(*ret_rows[0], "returns"))

    cov_rows = [numbers(ln, text, "covariance") for ln, text in sections["covariance"]]
    if len({len(r) for r in cov_rows}) != 1:
        raise ValueError(f"{path}: ragged [covariance] rows")
    cov = np.array(cov_rows)

    kv: dict[str, tuple[int, str]] = {}
    for lineno, line in sections["spec"]:
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value' in [spec]")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise ValueError(f"{path}:{lineno}: duplicate spec key {key!r}")
        kv[key.lower()] = (lineno, value)

    def take(key, default=None):
        if key in kv:
            return kv.pop(key)
        if default is None:
            raise ValueError(f"{path}: [spec] is missing required key {key!r}")
        return (0, default)

    _, dist = take("distribution")
    dist = dist.lower()
    if dist not in (GAUSSIAN, STUDENT_T):
        raise ValueError(f"{path}: distribution must be 'gaussian' or 'student-t', "
                         f"got {dist!r}")
    nu = None
    if "nu" in kv:
        lineno, text = kv.pop("nu")
        nu = number(lineno, text, "nu")
    _, measure = take("measure")
    measure = measure.lower()
    if measure not in (VAR, CVAR):
        raise ValueError(f"{path}: measure must be 'var' or 'cvar', got {measure!r}")
    u = number(*take("u"), "u")
    if kv:
        raise ValueError(f"{path}: unknown spec key(s) {sorted(kv)}")

    return portfolio.PortfolioProblem(mu, cov, RiskSpec(dist, measure, nu), u)


def _parse_nu_token(token: str) -> float | None:
    """'gaussian' means infinite degrees of freedom; otherwise a real nu."""
    if token.strip().lower() == GAUSSIAN:
        return None
    return float(token)


def _csv_list(text: str, flag: str) -> list[str]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"{flag} lists no values")
    return tokens


def _spec_for(nu: float | None, measure: str) -> RiskSpec:
    if nu is None:
        return RiskSpec(GAUSSIAN, measure)
    return RiskSpec(STUDENT_T, measure, nu)


def _emit_rows(header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "json":
        json.dump([dict(zip(header, row)) for row in rows], sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])


def _psi_row(nu: float | None, measure: str, u: float) -> list:
    dist = GAUSSIAN if nu is None else STUDENT_T
    return [dist, "" if nu is None else float(nu), measure, float(u),
            psi(_spec_for(nu, measure), u)]


def cmd_psi_table(args) -> int:
    rows = []
    if args.nu is None and args.u is None and args.measure is None:
        # default run: Gaussian table rows followed by the T table rows
        for u in GAUSS_TABLE_U:
            for measure in (VAR, CVAR):
                rows.append(_psi_row(None, measure, u))
        for nu in T_TABLE_NU:
            for u in T_TABLE_U:
                for measure in (VAR, CVAR):
                    rows.append(_psi_row(nu, measure, u))
    else:
        nus = [_parse_nu_token(t) for t in _csv_list(args.nu, "--nu")] \
            if args.nu is not None else [None]
        us = [float(t) for t in _csv_list(args.u, "--u")] \
            if args.u is not None else list(T_TABLE_U)
        measures = [t.lower() for t in _csv_list(args.measure, "--measure")] \
            if args.measure is not None else [VAR, CVAR]
        for nu in nus:
            for u in us:
                for measure in measures:
                    rows.append(_psi_row(nu, measure, u))
    _emit_rows(["distribution", "nu", "measure", "u", "psi"], rows, args.format)
    return 0


def _x_grid(x_from: float, x_to: float, x_step: float) -> list[float]:
    for flag, value in (("--x-from", x_from), ("--x-to", x_to), ("--x-step", x_step)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    if x_step <= 0 or x_to < x_from:
        raise ValueError("x range requires x-from <= x-to and a positive step")
    count = int(round((x_to - x_from) / x_step)) + 1
    return [x_from + i * x_step for i in range(count)]


def cmd_losscurves(args) -> int:
    nus = [_parse_nu_token(t) for t in _csv_list(args.nu, "--nu")]
    rows = []
    for x in _x_grid(args.x_from, args.x_to, args.x_step):
        u = 10.0 ** -x
        for nu in nus:
            rows.append([
                float(x),
                GAUSSIAN if nu is None else STUDENT_T,
                "" if nu is None else float(nu),
                psi(_spec_for(nu, VAR), u),
                psi(_spec_for(nu, CVAR), u),
            ])
    _emit_rows(["x", "distribution", "nu", "psi_var", "psi_cvar"], rows, args.format)
    return 0


def cmd_optimize(args) -> int:
    problem = parse_problem_file(args.problem_file)
    if args.u is not None:
        problem = replace(problem, u=args.u)
    result = portfolio.optimize(problem)
    report = {"problem_file": args.problem_file,
              "distribution": problem.spec.distribution,
              "nu": problem.spec.nu,
              "measure": problem.spec.measure,
              "u": problem.u,
              "psi": result.psi,
              **result.as_dict()}
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if result.converged else EXIT_SOLVER


def cmd_frontier(args) -> int:
    problem = parse_problem_file(args.problem_file)
    grid = _x_grid(args.x_from, args.x_to, args.x_step)
    header = ["model", "x", "u", "psi", "expected_return", "variance"] \
        + [f"w{i + 1}" for i in range(problem.n_assets)]
    # both models price the file's (mu, C), so one sweep serves every psi
    points = [(label, x, psi(spec, 10.0 ** -x))
              for label, spec in (("problem", problem.spec),
                                  ("gaussian-var", RiskSpec(GAUSSIAN, VAR)))
              for x in grid]
    results = portfolio.sweep(problem, [psi_val for *_, psi_val in points])
    rows = [[label, float(x), 10.0 ** -x, res.psi, res.expected_return, res.variance,
             *res.weights.tolist()]
            for (label, x, _), res in zip(points, results)]
    _emit_rows(header, rows, args.format)
    return 0 if all(res.converged for res in results) else EXIT_SOLVER


def cmd_verify(args) -> int:
    problem = parse_problem_file(args.problem_file)
    if args.samples < 10_000:
        raise ValueError(f"verify needs at least 1e4 samples, got {args.samples}")
    u, spec = problem.u, problem.spec
    checks = []

    # empirical psi bracket on unit-variance draws from the model distribution
    if spec.distribution == GAUSSIAN:
        draws = np.random.default_rng(args.seed).standard_normal(args.samples)
    else:
        draws = mc_oracle.sample_t(spec.nu, args.samples, args.seed)
        draws *= math.sqrt((spec.nu - 2.0) / spec.nu)
    est = mc_oracle.empirical_tail(draws, u)
    for name, analytic, observed, se in (
            ("psi_var_bracket", psi(spec.with_measure(VAR), u), est.var_hat,
             est.var_standard_error),
            ("psi_cvar_bracket", psi(spec.with_measure(CVAR), u), est.cvar_hat,
             est.cvar_standard_error)):
        tol = 3.0 * se
        checks.append({"name": name, "analytic": analytic, "observed": observed,
                       "tolerance": tol, "passed": abs(observed - analytic) <= tol})

    # random-portfolio agreement with the optimizer
    opt = portfolio.optimize(problem)
    rand = mc_oracle.random_portfolio_search(problem, args.samples, args.seed)
    gap = rand.risk - opt.risk
    checks.append({"name": "random_portfolio_agreement",
                   "analytic": opt.risk, "observed": rand.risk,
                   "tolerance": 1e-3, "passed": abs(gap) <= 1e-3})

    passed = all(c["passed"] for c in checks)
    json.dump({"problem_file": args.problem_file, "n_samples": args.samples,
               "seed": args.seed, "passed": passed, "checks": checks},
              sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if passed else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailrisk",
        description="VaR/CVaR loss multipliers and portfolio optimization "
                    "for Gaussian and Student-T return models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("psi-table", help="loss-multiplier table")
    p.add_argument("--nu", help="comma list of nu values or 'gaussian'")
    p.add_argument("--measure", help="comma list from {var,cvar}")
    p.add_argument("--u", help="comma list of tail levels")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_psi_table)

    p = sub.add_parser("loss-curves", help="psi curves vs x where u = 10^-x")
    p.add_argument("--nu", default="gaussian,4,2.25")
    p.add_argument("--x-from", type=float, default=0.5)
    p.add_argument("--x-to", type=float, default=6.0)
    p.add_argument("--x-step", type=float, default=0.1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_losscurves)

    p = sub.add_parser("optimize", help="solve one portfolio problem")
    p.add_argument("problem_file")
    p.add_argument("--u", type=float, help="override the file's tail level")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("frontier", help="efficient-frontier sweep over u = 10^-x")
    p.add_argument("problem_file")
    p.add_argument("--x-from", type=float, default=1.0)
    p.add_argument("--x-to", type=float, default=5.0)
    p.add_argument("--x-step", type=float, default=0.5)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_frontier)

    p = sub.add_parser("verify", help="Monte Carlo cross-checks")
    p.add_argument("problem_file")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
