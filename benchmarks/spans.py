"""Spans around the public functions of each tailrisk module.

Tracer.install replaces every public function of the traced modules, in
every tailrisk namespace that holds it, with a wrapper that records a span
(name, start, end, parent).  Spans are kept in flat arrays in memory and
written out by Tracer.save.  A span's self time is its duration minus the
time covered by its child spans; calls nest strictly on one thread, so
that is the duration minus the sum of the direct children's durations.
"""

import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

# module -> public functions to wrap (None: the module's __all__)
TRACED = {
    "special": None,
    "tquantile": None,
    "risk": None,
    "portfolio": None,
    "mc_oracle": None,
    "cli": ["main", "parse_problem_file"],
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.work: dict[str, float] = {}       # counters taken at the boundaries
        self.solver_iters: list[int] = []
        self._stack = [-1]
        self._child = [0.0]
        self._patched: list[tuple[object, str, object]] = []

    def _count(self, key: str, amount: float) -> None:
        self.work[key] = self.work.get(key, 0.0) + amount

    def wrap(self, span_name: str, fn, on_result=None):
        nid = len(self.names)
        self.names.append(span_name)
        name, parent, start, end, self_time = \
            self.name, self.parent, self.start, self.end, self.self_time
        stack, child = self._stack, self._child

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            self_time.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                inner = child.pop()
                child[-1] += t1 - t0
                start[idx] = t0
                end[idx] = t1
                self_time[idx] = t1 - t0 - inner
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hooks(self):
        """Work counters read from the arguments or results of some calls."""
        def iters(args, kwargs, result):
            self.solver_iters.append(result.iterations)

        def sampled(args, kwargs, result):
            self._count("samples", result.size)
            self._count("bytes", 3 * 8 * result.size)   # normal, chi-square, output

        def tail(args, kwargs, result):
            self._count("bytes", 8 * result.n_samples)  # partition copy

        def search(args, kwargs, result):
            draws, dim = args[1], args[0].n_assets
            self._count("draws", draws)
            self._count("bytes", 8 * draws * (2 * dim + 2))  # exponentials, weights, values
        return {"portfolio.optimize": iters, "mc_oracle.sample_t": sampled,
                "mc_oracle.empirical_tail": tail,
                "mc_oracle.random_portfolio_search": search}

    def install(self) -> None:
        hooks = self._hooks()
        wrappers = {}
        for short, names in TRACED.items():
            module = sys.modules.get(f"tailrisk.{short}")
            for attr in names or getattr(module, "__all__", []):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn):
                    span = f"{short}.{attr}"
                    wrappers[fn] = self.wrap(span, fn, hooks.get(span))
        portfolio = sys.modules["tailrisk.portfolio"]
        cls = portfolio.PortfolioProblem
        self._patch(cls, "__post_init__",
                    self.wrap("portfolio.problem_init", cls.__post_init__))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "tailrisk" or mod_name.startswith("tailrisk."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "self": np.frombuffer(self.self_time)}

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def layer_metrics(tr: Tracer, ops: int) -> dict:
    """Per-layer metrics (per op unless the name says otherwise)."""
    a = tr.arrays()
    names = list(a["names"])
    nid = {n: i for i, n in enumerate(names)}
    name, parent, self_t = a["name"], a["parent"], a["self"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def sel(span, under=None):
        # a span that no longer exists in the code reads as zero calls
        m = name == nid.get(span, -2)
        if under is not None:
            m &= parent_name == nid.get(under, -2)
        return m

    def calls(span, under=None):
        return int(sel(span, under).sum())

    def self_s(span):
        return float(self_t[sel(span)].sum())

    per = 1.0 / max(ops, 1)
    m = {}
    for span in ("special.reg_inc_beta", "special.inv_reg_inc_beta",
                 "tquantile.t_quantile", "risk.psi", "portfolio.problem_init",
                 "portfolio.optimize", "portfolio.project_simplex"):
        m[f"{span}.calls"] = calls(span) * per
        m[f"{span}.self_s"] = self_s(span) * per
    for span in ("special.gauss_quantile", "risk.k_function", "portfolio.frontier",
                 "mc_oracle.sample_t", "mc_oracle.empirical_tail",
                 "mc_oracle.random_portfolio_search", "cli.main",
                 "cli.parse_problem_file"):
        m[f"{span}.self_s"] = self_s(span) * per
    inverses = calls("special.inv_reg_inc_beta", "tquantile.t_quantile")
    m["special.newton_per_inverse"] = \
        calls("special.reg_inc_beta", "special.inv_reg_inc_beta") / max(inverses, 1)
    m["tquantile.route_closed.calls"] = \
        calls("tquantile.t_quantile_closed", "tquantile.t_quantile") * per
    m["tquantile.route_beta.calls"] = inverses * per
    iters = tr.solver_iters
    m["portfolio.solver_iters.p50"] = float(np.median(iters)) if iters else 0.0
    m["portfolio.solver_iters.max"] = float(max(iters)) if iters else 0.0
    m["portfolio.backtracks"] = \
        (calls("portfolio.project_simplex") - 2 * sum(iters)) * per
    sample_s = self_s("mc_oracle.sample_t")
    search_s = self_s("mc_oracle.random_portfolio_search")
    m["mc_oracle.samples_per_s"] = tr.work.get("samples", 0.0) / sample_s if sample_s else 0.0
    m["mc_oracle.random_draws_per_s"] = tr.work.get("draws", 0.0) / search_s if search_s else 0.0
    m["mc_oracle.bytes_computed"] = tr.work.get("bytes", 0.0) * per
    total = float(self_t.sum())
    for short in TRACED:
        ids = [i for i, n in enumerate(names) if n.startswith(short + ".")]
        share = float(self_t[np.isin(name, ids)].sum()) / total if total else 0.0
        m[f"{short}.self_share"] = share
    return m


def top_spans(tr: Tracer, k: int = 8) -> list[tuple[str, int, float]]:
    a = tr.arrays()
    out = []
    for i, n in enumerate(a["names"]):
        mask = a["name"] == i
        if mask.any():
            out.append((str(n), int(mask.sum()), float(a["self"][mask].sum())))
    return sorted(out, key=lambda t: -t[2])[:k]
