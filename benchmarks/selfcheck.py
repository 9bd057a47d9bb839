"""Self-checks of the benchmark itself; exits non-zero if any fails.

    python3 benchmarks/selfcheck.py

1. A tiny run (two ops) of every workload passes every output check.
2. Corrupted outputs are counted as failed ops: a psi off by 1e-6
   relative, weights pushed off the simplex, a verify report whose passed
   flag contradicts its checks.
3. run.py exits non-zero without a result line when ./src is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import run as bench
from workloads import WORKLOADS

TINY_OPS = 2


def perturb_psi(op, out: str) -> str:
    """Scale the first psi of the output by 1 + 1e-6."""
    if op.props["format"] == "json":
        rows = json.loads(out)
        key = "psi_var" if "psi_var" in rows[0] else "psi"
        rows[0][key] *= 1.0 + 1e-6
        return json.dumps(rows)
    lines = out.splitlines()
    header = lines[0].split(",")
    col = header.index("psi_var" if "psi_var" in header else "psi")
    fields = lines[1].split(",")
    fields[col] = repr(float(fields[col]) * (1.0 + 1e-6))
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def off_simplex(op, out: str) -> str:
    """Add 1e-6 to the first weight, so the weights sum to 1 + 1e-6."""
    if op.kind == "optimize":
        report = json.loads(out)
        report["weights"][0] += 1e-6
        return json.dumps(report)
    lines = out.splitlines()
    col = lines[0].split(",").index("w1")
    fields = lines[1].split(",")
    fields[col] = repr(float(fields[col]) + 1e-6)
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def flip_passed(op, out: str) -> str:
    report = json.loads(out)
    report["passed"] = not report["passed"]
    return json.dumps(report)


MUTATIONS = {"psi_sweep": perturb_psi, "frontier_wide": off_simplex,
             "optimize_factor": off_simplex, "verify_mc": flip_passed}


def tiny(name: str, workdir: str, mutate=None) -> bench.Run:
    _, cli, checker, _, first = bench.setup(name, 1, workdir)
    run = bench.Run(checker)
    run.run_pass(cli, first[:TINY_OPS], mutate)
    return run


def main() -> int:
    workdir = os.path.join(bench.OUT_DIR, f"selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    try:
        sys.path.insert(0, bench.SRC)
        for name in WORKLOADS:
            run = tiny(name, workdir)
            expect(not run.failures and run.checker.psi_values > 0,
                   f"{name}: tiny run of {TINY_OPS} ops passes its checks {run.failures}")
            run = tiny(name, workdir, MUTATIONS[name])
            expect(len(run.failures) == TINY_OPS,
                   f"{name}: {MUTATIONS[name].__name__} counts as failed "
                   f"(failed_frac {len(run.failures) / run.ops:.2f})")
        bare = os.path.join(workdir, "bare")
        shutil.copytree(bench.BENCH_DIR, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "psi_sweep",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without ./src run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
