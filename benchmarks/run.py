"""tailrisk benchmark: drives the CLI in-process and checks every output.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports tailrisk from ./src.  The load
is a closed loop with one client: one `tailrisk.cli.main(argv)` call after
another, stdout and stderr captured in memory.  Inputs are generated from
--seed in passes (see workloads.py); the loop stops at the first pass
boundary after S seconds of op and reference time.  Between ops the loop runs a fixed reference
snippet owned by the benchmark, a fifth of the op time in all, and the
bounded timings are op times in units of that snippet's mean time in the
same pass, which cancels the host's changes of speed (NOTES.md says why).
Outputs are checked after each op, outside the timed region (checks.py).

--trace 0 prints the end-to-end metrics.  --trace 1 spends half the time
untraced, then replays the same passes with spans around every public
tailrisk function (spans.py) and prints the per-layer metrics, including
the tracing overhead.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import ctypes
import gc
import glob
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

# BLAS runs one thread, fixed before numpy loads.  With a second thread on
# a small shared host, every BLAS or LAPACK call waits for a CPU that
# another process may hold (NOTES.md gives the numbers).
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 11
REF_SHARE = 0.2       # reference time as a share of op time

sys.path.insert(0, BENCH_DIR)
import numpy as np  # noqa: E402

from checks import CheckError, Checker, load_reference  # noqa: E402
from spans import Tracer, layer_metrics, top_spans  # noqa: E402
from workloads import WORKLOADS, warmup_problem_text  # noqa: E402

END_TO_END_UNITS = {"throughput_ops_kref": "1/kref", "op_p50_ref": "ref",
                    "op_p90_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {"calls": "count/op", "self_s": "s/op", "self_share": "fraction",
               "newton_per_inverse": "count", "p50": "count", "max": "count",
               "backtracks": "count/op", "samples_per_s": "1/s",
               "random_draws_per_s": "1/s", "bytes_computed": "B/op",
               "trace_overhead_frac": "fraction"}
RANGE_PROPS = {"cond", "rho"}


# The reference snippet: fixed interpreter arithmetic and small-matrix numpy
# calls, the two kinds of work the tailrisk ops are made of.  It calls no
# tailrisk code, so a change to tailrisk does not change it.
_REF_MAT = np.cos(np.arange(64 * 64, dtype=float)).reshape(64, 64)


def reference_work() -> float:
    s = 0.0
    for i in range(1, 3000):
        s += (i * 0.5) % 3.0 / i
    x = _REF_MAT[0]
    for _ in range(60):
        x = _REF_MAT @ x
        x = x / np.abs(x).max()
    return s + float(x[0])


def fresh_cli():
    """Import tailrisk.cli from ./src, dropping any earlier import first."""
    for name in [m for m in sys.modules if m == "tailrisk" or m.startswith("tailrisk.")]:
        del sys.modules[name]
    cli = importlib.import_module("tailrisk.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"tailrisk imported from {cli.__file__}, not {SRC}")
    return cli


def invoke(cli, argv: list[str]):
    """One op: returns (exit code or None on a traceback, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an op that crashes is a failed op, not a crashed run
            traceback.print_exc()
            rc = None
        t1 = perf_counter()
    return rc, out.getvalue(), err.getvalue(), t1 - t0


def write_files(ops) -> None:
    for op in ops:
        for path, text in op.files.items():
            with open(path, "w") as fh:
                fh.write(text)


def remove_files(ops) -> None:
    for op in ops:
        for path in op.files:
            os.remove(path)


class Run:
    """Ops issued so far: latencies, reference times, properties, failures."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.ops = 0
        self.props: list[dict] = []
        self.failures: list[str] = []
        self.latencies: list[float] = []
        self.ref_times: list[float] = []
        self.op_s = 0.0                  # sums of the two lists
        self.ref_s = 0.0
        self.in_refs: dict[int, list[float]] = {}   # input class -> latencies in ref

    def run_pass(self, cli, ops, mutate=None) -> None:
        """Issue one pass of ops, each followed by its share of reference runs."""
        write_files(ops)
        gc.collect()  # so the previous pass's garbage is not collected inside an op
        first_op, first_ref = len(self.latencies), len(self.ref_times)
        for op in ops:
            rc, out, err, dt = invoke(cli, op.argv)
            self.ops += 1
            self.latencies.append(dt)
            self.op_s += dt
            self.props.append(op.props)
            if mutate is not None:
                out = mutate(op, out)
            try:
                self.checker.check(op, rc, out, err)
            except (CheckError, KeyError, TypeError, ValueError, IndexError) as exc:
                self.failures.append(f"{' '.join(op.argv)[:120]}: "
                                     f"{type(exc).__name__}: {exc}")
            self.reference()
        remove_files(ops)
        if len(self.ref_times) == first_ref:   # no snippet ran in this pass
            self.time_reference()
        ref = statistics.fmean(self.ref_times[first_ref:])
        for op, dt in zip(ops, self.latencies[first_op:]):
            self.in_refs.setdefault(op.input_class, []).append(dt / ref)

    def reference(self) -> None:
        """Run the reference snippet until it has REF_SHARE of the op time."""
        while self.ref_s < REF_SHARE * self.op_s:
            self.time_reference()

    def time_reference(self) -> None:
        t0 = perf_counter()
        reference_work()
        dt = perf_counter() - t0
        self.ref_times.append(dt)
        self.ref_s += dt

    def busy(self) -> float:
        return self.op_s + self.ref_s

    def total_refs(self) -> float:
        return sum(sum(v) for v in self.in_refs.values())

    def class_means(self) -> list[float]:
        """Each input class's mean latency in ref: one pass of the mix."""
        return [statistics.fmean(v) for v in self.in_refs.values()]

    def ref(self) -> float:
        """The snippet's mean time over the whole run, in seconds."""
        return statistics.fmean(self.ref_times)


def setup(name: str, seed: int, workdir: str):
    """One set-up: import, reference table, first pass of inputs, warm-up ops."""
    t0 = perf_counter()
    cli = fresh_cli()
    checker = Checker(load_reference())
    workload = WORKLOADS[name](seed, workdir)
    first = workload.next_pass()
    warm = os.path.join(workdir, "warmup.txt")
    with open(warm, "w") as fh:
        fh.write(warmup_problem_text())
    for argv in (["psi-table"], ["optimize", warm]):
        rc, _, err, _ = invoke(cli, argv)
        if rc != 0:
            raise RuntimeError(f"warm-up op {argv} failed ({rc}): {err}")
    os.remove(warm)
    return perf_counter() - t0, cli, checker, workload, first


def run_for(cli, workload, first, run: Run, seconds: float, between=None) -> int:
    """Whole passes until `seconds` of op and reference time; returns passes.

    `between`, if given, is called after every pass.
    """
    run.run_pass(cli, first)
    passes = 1
    while True:
        if between is not None:
            between()
        if run.busy() >= seconds:
            return passes
        run.run_pass(cli, workload.next_pass())
        passes += 1


def blas_threads() -> str:
    """OpenBLAS's own thread count when it can be asked, else the setting."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
            for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
                if hasattr(lib, fn):
                    return str(getattr(lib, fn)())
        except OSError:
            pass
    return os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"


def env_stamp() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '?')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, blas {blas}, "
            f"blas threads {blas_threads()}, nproc {NPROC}, machine {platform.machine()}")


def mix_lines(props: list[dict]) -> list[str]:
    """Each input property's share of the ops, or its range if continuous."""
    lines = []
    for key in sorted({k for p in props for k in p}):
        values = [p[key] for p in props if key in p]
        if key in RANGE_PROPS:
            q = np.percentile(values, [0, 50, 100])
            lines.append(f"mix {key}: min {q[0]:.4g}, median {q[1]:.4g}, max {q[2]:.4g}")
            continue
        counts: dict[str, int] = {}
        for v in values:
            counts[str(v)] = counts.get(str(v), 0) + 1
        lines.append(f"mix {key}: " + ", ".join(
            f"{k} {100.0 * c / len(values):.1f}%"
            for k, c in sorted(counts.items(), key=lambda kv: -kv[1])))
    return lines


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "tailrisk", "__init__.py")):
        print(f"error: no tailrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        lines, result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def measure(args, workdir: str):
    seconds, cli, checker, workload, first = setup(args.workload, args.seed, workdir)
    setups = [seconds]

    def more_setups():
        """Spread the set-ups over the run, so they see its mix of host speeds."""
        while len(setups) < SETUP_REPEATS and \
                run.busy() >= args.seconds * len(setups) / SETUP_REPEATS:
            setups.append(setup(args.workload, args.seed, workdir)[0])

    lines = [f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
             f"env: {env_stamp()}",
             "load: closed loop, one client, in-process tailrisk.cli.main(argv)"]
    run = Run(checker)
    if not args.trace:
        passes = run_for(cli, workload, first, run, args.seconds, more_setups)
        ref, n = run.ref(), run.ops
        op_s = run.op_s
        p50, p90 = np.percentile(run.latencies, [50, 90])
        classes = run.class_means()
        r50, r90 = np.percentile(classes, [50, 90])
        metrics = {
            "throughput_ops_kref": 1e3 * n / run.total_refs(),
            "op_p50_ref": float(r50),
            "op_p90_ref": float(r90),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        c = run.checker
        how = (f"over {len(classes)} input classes, each at its mean of "
               f"{passes} repeats; {n} ops")
        lines += [f"ran {n} ops in {passes} passes, {op_s:.3f} s of op time; "
                  f"{len(run.ref_times)} reference runs, {run.ref_s:.3f} s",
                  f"reference unit: 1 ref = the snippet's mean time in the op's pass; "
                  f"over the run {ref * 1e3:.6g} ms (fastest {min(run.ref_times) * 1e3:.4g} "
                  f"ms, slowest {max(run.ref_times) * 1e3:.4g} ms)",
                  f"metric throughput_ops_kref = {metrics['throughput_ops_kref']:.6g} 1/kref "
                  f"(ops per 1000 ref of op time)",
                  f"metric op_p50_ref = {r50:.6g} ref ({how})",
                  f"metric op_p90_ref = {r90:.6g} ref ({how})",
                  f"metric throughput_ops_s = {n / op_s:.6g} 1/s (wall time, not bounded)",
                  f"metric op_p50_ms = {p50 * 1e3:.6g} ms (wall time, not bounded; {n} ops)",
                  f"metric op_p90_ms = {p90 * 1e3:.6g} ms (wall time, not bounded; {n} ops)",
                  f"metric failed_frac = {len(run.failures) / n:.6g} fraction "
                  f"({len(run.failures)} of {n} ops)",
                  f"metric psi_max_rel_err = {c.psi_max_rel_err:.6g} relative "
                  f"({c.psi_values} psi values against the mpmath reference)",
                  "metric kkt_max = " + (f"{c.kkt_max:.6g} gradient units ({c.kkt_values} "
                                         f"weight vectors)" if c.kkt_values else
                                         "n/a (no portfolio outputs)"),
                  f"metric setup_s = {metrics['setup_s']:.6g} s "
                  f"(median of {SETUP_REPEATS} set-ups spread over the run)",
                  f"metric peak_rss_mb = {metrics['peak_rss_mb']:.6g} MB"]
        if args.workload == "verify_mc":
            lines.append(f"note verify bracket misses (3 < |dev| <= 8 reported SE): "
                         f"{c.bracket_misses} of {2 * n} brackets")
        units = END_TO_END_UNITS
        runs = [run]
    else:
        passes = run_for(cli, workload, first, run, args.seconds / 2.0)
        # replay the same passes with spans
        _, cli, _, workload, first = setup(args.workload, args.seed, workdir)
        traced = Run(checker)
        tracer = Tracer()
        tracer.install()
        try:
            traced.run_pass(cli, first)
            for _ in range(passes - 1):
                traced.run_pass(cli, workload.next_pass())
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, traced.ops)
        metrics["trace_overhead_frac"] = traced.total_refs() / run.total_refs() - 1.0
        span_file = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.npz")
        tracer.save(span_file)
        lines += [f"traced {traced.ops} ops in {passes} passes ({len(tracer.name)} spans "
                  f"written to {os.path.relpath(span_file, ROOT)})"]
        lines += [f"span {name}: {calls} calls, {self_s:.4f} s self"
                  for name, calls, self_s in top_spans(tracer)]
        lines += [f"layer {k} = {v:.6g}" for k, v in metrics.items()]
        units = {k: LAYER_UNITS.get(k, LAYER_UNITS.get(k.rsplit(".", 1)[-1], "count"))
                 for k in metrics}
        runs = [run, traced]
    lines += mix_lines(run.props)
    failures = [f for r in runs for f in r.failures]
    lines += [f"FAILED {f}" for f in failures[:10]]
    result = {"correct": not failures, "attempted": sum(r.ops for r in runs),
              "failed": len(failures),
              "metrics": {k: metric(v, units[k]) for k, v in metrics.items()}}
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
