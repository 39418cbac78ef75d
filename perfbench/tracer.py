"""Per-layer tracing from outside the program.

The tracer replaces each layer's public functions with timing wrappers
at every import site: every loaded ``bfslab`` module whose namespace
binds the original function gets the wrapper, so internal calls
(``spaces.norm`` from ``product``, ``spaces.unit_interval`` from
``fundamental``) are seen as well as the benchmark's own.  Methods on
Young nodes and weights are wrapped on their classes.

Each wrapped call records a span (name, start, end, parent) in memory;
the spans are written out when the run ends.  Self time is a span's
duration minus its child spans and the kernel evaluations under it.

Kernel evaluations are counted by wrapping the ``fn`` of each object
``norm_evaluator`` returns, the first time the object is seen; they add
to counters and to the enclosing span's child time, not to the span
list (the optimizer makes hundreds of thousands of them).  A compile
miss is a ``norm_evaluator`` call that returns ``None`` or an object not
returned before.

Known limit: the compiled Orlicz kernel evaluates its base through a
kernel compiled without ``norm_evaluator``, so the modular evaluations
inside it are not visible; ``spaces.gauge.*`` covers public
``luxemburg_norm`` calls only.

The tracer is enabled only while an op runs; setup, input generation and
the output checks are not traced.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

_MODULES = ("bfslab", "bfslab.grid", "bfslab.weights", "bfslab.young", "bfslab.spaces",
            "bfslab.operators", "bfslab.product", "bfslab.verify", "bfslab.cli")

# span name -> (module, function); the span's layer is the part before the dot
_FUNCTIONS = {
    "grid.build": [("bfslab.grid", "unit_interval"), ("bfslab.grid", "half_line"), ("bfslab.grid", "counting")],
    "grid.dilate": [("bfslab.grid", "dilate")],
    "grid.rearrange": [("bfslab.grid", "rearrange")],
    "spaces.norm": [("bfslab.spaces", "norm")],
    "spaces.canonical": [("bfslab.spaces", "canonical")],
    "spaces.gauge": [("bfslab.spaces", "luxemburg_norm")],
    "spaces.fundamental": [("bfslab.spaces", "fundamental")],
    "spaces.modular": [("bfslab.spaces", "modular")],
    "spaces.symmetrization_norm": [("bfslab.spaces", "symmetrization_norm")],
    "product.product_norm": [("bfslab.product", "product_norm")],
    "product.calderon_norm": [("bfslab.product", "calderon_norm")],
    "product.multiplier": [("bfslab.product", "multiplier_norm")],
    "product.dual_norm_numeric": [("bfslab.product", "dual_norm_numeric")],
    "product.lozanovskii_factorize": [("bfslab.product", "lozanovskii_factorize")],
    "product.witness": [("bfslab.product", "orlicz_factor_witness")],
    "product.equalize_norms": [("bfslab.product", "equalize_norms")],
    "product.variational_norm": [("bfslab.product", "variational_norm")],
    "young.inverse": [("bfslab.young", "inverse"), ("bfslab.young", "inverse_batch")],
    "young.check_relation": [("bfslab.young", "check_relation")],
    "operators.call": [("bfslab.operators", f) for f in (
        "operator_norm", "hardy", "hardy_dual", "hardy_identity_residual",
        "dilation_indices", "simonenko_indices", "boyd_indices")],
}
_METHODS = {
    "young.oplus": [("bfslab.young", "Oplus", "eval_scalar")],
    "young.ominus": [("bfslab.young", "Ominus", "eval_scalar")],
    "weights.cell_integral": [("bfslab.weights", c, m) for c in
                              ("_WeightBase", "PowerWeight", "WeightProduct", "WeightRatio")
                              for m in ("cell_integral_pow", "cell_integral")],
    "weights.cell_sup": [("bfslab.weights", c, "cell_sup") for c in ("_WeightBase", "PowerWeight")],
}

FAMILIES = ("lp", "lp_weighted", "lorentz_lambda", "lorentz_lambda_p", "marcinkiewicz",
            "marcinkiewicz_star", "linfty_weighted", "orlicz", "symmetrization")
SIZE_BUCKETS = (32, 256, 1024)

_pc = time.perf_counter


def _family(space) -> str:
    name = type(space).__name__
    if name == "Lp":
        return "lp" if space.weight is None else "lp_weighted"
    return {
        "LorentzLambda": "lorentz_lambda",
        "LorentzLambdaP": "lorentz_lambda_p",
        "Marcinkiewicz": "marcinkiewicz",
        "MarcinkiewiczStar": "marcinkiewicz_star",
        "LInftyWeighted": "linfty_weighted",
        "OrliczCL": "orlicz",
        "Symmetrization": "symmetrization",
    }.get(name, "other")


class Tracer:
    def __init__(self):
        self.enabled = False
        # span: [name, start, end, parent index, self seconds, kernel evals under it]
        self.spans: list = []
        self.stack: list = []  # frames: [span index, child seconds, kernel evals at start]
        self.kernel_evals = 0
        self.kernel_s = 0.0
        self.by_family = defaultdict(lambda: [0, 0.0])
        self.by_size = {n: [0, 0.0] for n in SIZE_BUCKETS}
        self.compile_calls = 0
        self.compile_misses = 0
        self.compile_s = 0.0
        self.paths = {"optimizer": 0, "closed_form": 0, "constructive": 0}
        self.optimizer_converged = 0
        self.inverse_targets = 0
        self._seen: dict = {}  # id -> compiled object (held so ids stay unique)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = [sys.modules[m] for m in _MODULES if m in sys.modules]
        replace = {}
        for name, targets in _FUNCTIONS.items():
            for mod, attr in targets:
                orig = getattr(sys.modules[mod], attr)
                replace[id(orig)] = (orig, self._span_wrapper(name, orig, self._post_hook(name)))
        spaces = sys.modules["bfslab.spaces"]
        ne = spaces.norm_evaluator
        self._canonical = spaces.canonical
        replace[id(ne)] = (ne, self._norm_evaluator_wrapper(ne))
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        for name, targets in _METHODS.items():
            for mod, cls_name, meth in targets:
                cls = getattr(sys.modules[mod], cls_name)
                if meth in vars(cls):
                    setattr(cls, meth, self._span_wrapper(name, vars(cls)[meth]))

    def _post_hook(self, name):
        if name == "product.product_norm":
            return self._record_path
        if name == "young.inverse":
            return self._record_targets
        return None

    def _record_path(self, args, out):
        res, wit = out
        self.paths[wit.method] = self.paths.get(wit.method, 0) + 1
        if wit.method == "optimizer" and res.kind == "upper_bound":
            self.optimizer_converged += 1

    def _record_targets(self, args, out):
        self.inverse_targets += len(out) if hasattr(out, "__len__") else 1

    # -- wrappers ---------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        frame = [idx, 0.0, self.kernel_evals, parent]
        self.stack.append(frame)
        return frame

    def _close(self, frame, name, t0, t1):
        self.stack.pop()
        dur = t1 - t0
        if self.stack:
            self.stack[-1][1] += dur
        self.spans[frame[0]] = (name, t0, t1, frame[3], dur - frame[1], self.kernel_evals - frame[2])

    def _span_wrapper(self, name, fn, post=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            frame = tr._open()
            t0 = _pc()
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._close(frame, name, t0, _pc())
            if post is not None:
                post(args, out)
            return out

        return wrapper

    def _norm_evaluator_wrapper(self, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(space, mspace):
            if not tr.enabled:
                out = fn(space, mspace)
                tr._adopt(out, space, mspace)
                return out
            frame = tr._open()
            t0 = _pc()
            try:
                out = fn(space, mspace)
            finally:
                t1 = _pc()
                tr._close(frame, "spaces.norm_evaluator", t0, t1)
            tr.compile_calls += 1
            if tr._adopt(out, space, mspace):
                tr.compile_misses += 1
                tr.compile_s += t1 - t0
            return out

        return wrapper

    def _adopt(self, compiled, space, mspace) -> bool:
        """Wrap a newly compiled kernel's ``fn``; True on a compile miss."""
        if compiled is None:
            return True
        if id(compiled) in self._seen:
            return False
        self._seen[id(compiled)] = compiled
        was = self.enabled
        self.enabled = False
        try:
            family = _family(self._canonical(space))
        finally:
            self.enabled = was
        compiled.fn = self._kernel_wrapper(compiled.fn, family, mspace.n_cells)
        return True

    def _kernel_wrapper(self, fn, family, n):
        tr = self
        fam = tr.by_family[family]
        size = tr.by_size.get(n)

        def kernel(values):
            if not tr.enabled:
                return fn(values)
            t0 = _pc()
            out = fn(values)
            dt = _pc() - t0
            tr.kernel_evals += 1
            tr.kernel_s += dt
            fam[0] += 1
            fam[1] += dt
            if size is not None:
                size[0] += 1
                size[1] += dt
            if tr.stack:
                tr.stack[-1][1] += dt
            return out

        return kernel

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        """The per-layer metrics, by the names BENCHMARK.json lists."""
        spans = [s for s in self.spans if s is not None]
        names = [s[0] for s in spans]

        def layer(i):
            return names[i].split(".", 1)[0] if i >= 0 else None

        def entering(prefix):
            # spans of `prefix` called from outside their own layer
            own = prefix.split(".", 1)[0]
            return [s for s in spans if s[0].startswith(prefix) and layer(s[3]) != own]

        def of(name):
            return [s for s in spans if s[0] == name]

        def total(ss):
            return sum(s[2] - s[1] for s in ss)

        def mean(x, n):
            return x / n if n else 0.0

        def self_ms(layer_name):
            return 1e3 * sum(s[4] for s in spans if s[0].split(".", 1)[0] == layer_name)

        m = {}
        pn = of("product.product_norm")
        outer_pn = [s for s in pn if s[3] < 0 or names[s[3]] != "product.product_norm"]
        m["product.calls"] = len(pn)
        m["product.ms_per_call"] = 1e3 * mean(total(pn), len(pn))
        m["product.self_ms"] = self_ms("product")
        m["product.kernel_evals_per_call"] = mean(sum(s[5] for s in outer_pn), len(pn))
        m["product.converged_ratio"] = mean(self.optimizer_converged, self.paths.get("optimizer", 0))
        for path in ("optimizer", "closed_form", "constructive"):
            m[f"product.path.{path}"] = self.paths.get(path, 0)
        for key in ("multiplier", "witness"):
            ss = of(f"product.{key}")
            m[f"product.{key}.calls"] = len(ss)
            m[f"product.{key}.ms_per_call"] = 1e3 * mean(total(ss), len(ss))

        m["spaces.kernel.evals"] = self.kernel_evals
        m["spaces.kernel.us_per_eval"] = 1e6 * mean(self.kernel_s, self.kernel_evals)
        for fam in FAMILIES:
            n, s = self.by_family.get(fam, (0, 0.0))
            m[f"spaces.kernel.{fam}.us_per_eval"] = 1e6 * mean(s, n)
        for size in SIZE_BUCKETS:
            n, s = self.by_size[size]
            m[f"spaces.kernel.n{size}.us_per_eval"] = 1e6 * mean(s, n)
        m["spaces.compile.calls"] = self.compile_calls
        m["spaces.compile.misses"] = self.compile_misses
        m["spaces.compile.hit_ratio"] = 1.0 - mean(self.compile_misses, self.compile_calls)
        m["spaces.compile.ms"] = 1e3 * self.compile_s

        for key in ("build", "dilate", "rearrange"):
            ss = entering(f"grid.{key}")
            m[f"grid.{key}.calls"] = len(ss)
            m[f"grid.{key}.us_per_call"] = 1e6 * mean(total(ss), len(ss))
        for key in ("cell_integral", "cell_sup"):
            ss = entering(f"weights.{key}")
            m[f"weights.{key}.calls"] = len(ss)
            m[f"weights.{key}.us_per_call"] = 1e6 * mean(total(ss), len(ss))
        ops = entering("operators.")
        m["operators.calls"] = len(ops)
        m["operators.ms_per_call"] = 1e3 * mean(total(ops), len(ops))
        m["operators.self_ms"] = self_ms("operators")

        gauges = of("spaces.gauge")
        m["spaces.gauge.calls"] = len(gauges)
        m["spaces.gauge.modular_evals_per_call"] = mean(sum(s[5] for s in gauges), len(gauges))
        m["spaces.gauge.ms_per_call"] = 1e3 * mean(total(gauges), len(gauges))
        for node in ("oplus", "ominus"):
            ss = of(f"young.{node}")
            m[f"young.{node}.evals"] = len(ss)
            m[f"young.{node}.us_per_eval"] = 1e6 * mean(total(ss), len(ss))
        inv = entering("young.inverse")
        m["young.inverse.targets"] = self.inverse_targets
        m["young.inverse.us_per_target"] = 1e6 * mean(total(inv), self.inverse_targets)
        m["young.self_ms"] = self_ms("young")

        canon = of("spaces.canonical")
        m["spaces.canonical.calls"] = len(canon)
        m["spaces.canonical.us_per_call"] = 1e6 * mean(total(canon), len(canon))
        m["spaces.norm.calls"] = len(of("spaces.norm"))
        m["spaces.self_ms"] = self_ms("spaces")
        return {k: (v if math.isfinite(v) else 0.0) for k, v in m.items()}
