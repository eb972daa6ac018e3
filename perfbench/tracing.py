"""Spans around calls into conedet's public functions, recorded from outside.

``Tracer.install`` replaces every binding of each traced function in every
loaded ``conedet`` module (``barnes`` imports ``integrate_adaptive`` by name,
``extremal`` imports ``c_beta`` and ``logdet_spindle_area4pi``, and so on),
so calls made inside the library are seen as well as the benchmark's own.
A span records name, start, end, parent and one attribute (points,
evaluations or the radial upper limit).  Spans stay in memory until the
pass ends.  Self time is a span's duration minus its direct children's.

Run as a script, this module is one traced pass in a fresh interpreter:
it runs the workload's fixed op list once untraced and once traced, checks
the outputs, and prints a JSON summary for ``run.py``.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _points(args, out):
    return int(np.size(args[0]))


def _adaptive(args, out):
    return (out.evaluations, args[2])


def _area(args, out):
    return args[0].outer_radius()


# (module, function, span name, attribute recorder); a span name without a
# recorder keeps the attribute None.
SPANS = [
    ("conedet.special", "log_gamma", "special.log_gamma", None),
    ("conedet.special", "dedekind_sum", "special.dedekind_sum", None),
    ("conedet.barnes", "barnes_J", "barnes.J", None),
    ("conedet.barnes", "zprime0_rational", "barnes.rational", None),
    ("conedet.cone", "c_beta", "cone.c_beta", None),
    *[
        ("conedet.determinants", fn, f"determinants.{fn}", None)
        for fn in (
            "logdet_spindle", "logdet_spindle_area4pi", "logdet_flat_sphere",
            "logdet_flat_sphere_AS", "logdet_disk", "logdet_flat_disk",
            "logdet_hyperbolic_sphere", "spindle_distance",
        )
    ],
    ("conedet.extremal", "scan_curve", "extremal.scan_curve", None),
    ("conedet.extremal", "find_local_max", "extremal.find_local_max", None),
    ("conedet.extremal", "taylor_check_at_zero", "extremal.taylor_check_at_zero", None),
    ("conedet.extremal", "_objective", "extremal.objective", None),
    ("conedet.extremal", "_row_value", "extremal.objective", None),
    ("conedet.quadrature", "integrate_adaptive", "quadrature.adaptive", _adaptive),
    ("conedet.quadrature", "flat_sphere_area", "area", _area),
    ("conedet.kernels", "product_density", "kernels.product_density", _points),
    ("conedet.kernels", "j_bracket", "kernels.j_bracket", _points),
]
# Called once per Gauss-Kronrod panel; counted without a span.
COUNTS = [("conedet.quadrature", "_gk15_panel", "quadrature.adaptive.panels")]

# Per-layer metric names and units, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "import.total_s": "s",
    "import.scipy_special_s": "s",
    "import.numpy_s": "s",
    "import.click_s": "s",
    "import.conedet_s": "s",
    "cli.command_self_s": "s",
    "cli.process_overhead_s": "s",
    "constants.first_use_s": "s",
    "special.calls": "count",
    "special.busy_s": "s",
    "barnes.J.calls": "count",
    "barnes.J.busy_s": "s",
    "barnes.J.self_s": "s",
    "barnes.rational.calls": "count",
    "barnes.rational.busy_s": "s",
    "cone.c_beta.calls": "count",
    "cone.c_beta.self_s": "s",
    "determinants.self_s": "s",
    "extremal.busy_s": "s",
    "extremal.objective_calls": "count",
    "quadrature.adaptive.calls": "count",
    "quadrature.adaptive.evaluations": "count",
    "quadrature.adaptive.panels": "count",
    "quadrature.adaptive.self_s": "s",
    "area.patches_s": "s",
    "area.exterior_s": "s",
    "area.middle_s": "s",
    "area.patches.points": "count",
    "area.exterior.points": "count",
    "area.middle.points": "count",
    **{
        f"kernels.{k}.{m}": u
        for k in ("product_density", "j_bracket")
        for m, u in (("calls", "count"), ("points", "count"), ("busy_s", "s"),
                     ("points_per_call", "points/call"))
    },
    "trace.overhead_frac": "frac",
    "check.err_over_tol_max": "frac",
    "failed_frac": "frac",
    "defects.find_max_default.failed": "count",
}


def is_count(name: str) -> bool:
    """Count metrics must repeat exactly across traced passes of one seed."""
    return name.endswith((".calls", ".points", ".evaluations", ".panels", "objective_calls"))


class Tracer:
    """Spans and counts of one traced pass, and the per-layer metrics made
    from them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, attribute]
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def wrap(self, name, fn, attr=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attr is not None:
                rec[4] = attr(args, out)
            return out

        return traced

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "conedet" or n.startswith("conedet.")]
        plan = [(mod, fn, self.wrap(span, getattr(sys.modules[mod], fn), attr))
                for mod, fn, span, attr in SPANS]
        plan += [(mod, fn, self.counted(name, getattr(sys.modules[mod], fn)))
                 for mod, fn, name in COUNTS]
        for mod, fn, replacement in plan:
            original = getattr(sys.modules[mod], fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def span(self, name, fn, *args):
        """Run fn(*args) inside a span opened by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    def layer_metrics(self) -> dict:
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_t = [d - c for d, c in zip(dur, child)]

        def ancestors(i):
            i = spans[i][3]
            while i >= 0:
                yield i
                i = spans[i][3]

        def of(*names):
            return [i for i, s in enumerate(spans) if s[0] in names]

        def busy(*names):
            return sum(dur[i] for i in of(*names)
                       if not any(spans[j][0] in names for j in ancestors(i)))

        def self_sum(*names):
            return sum(self_t[i] for i in of(*names))

        m = {}
        special = ("special.log_gamma", "special.dedekind_sum")
        m["special.calls"] = len(of(*special))
        m["special.busy_s"] = busy(*special)
        m["barnes.J.calls"] = len(of("barnes.J"))
        m["barnes.J.busy_s"] = busy("barnes.J")
        m["barnes.J.self_s"] = self_sum("barnes.J")
        m["barnes.rational.calls"] = len(of("barnes.rational"))
        m["barnes.rational.busy_s"] = busy("barnes.rational")
        m["cone.c_beta.calls"] = len(of("cone.c_beta"))
        m["cone.c_beta.self_s"] = self_sum("cone.c_beta")
        m["determinants.self_s"] = self_sum(*{s[0] for s in spans if s[0].startswith("determinants.")})
        m["extremal.busy_s"] = busy("extremal.scan_curve", "extremal.find_local_max",
                                    "extremal.taylor_check_at_zero")
        m["extremal.objective_calls"] = len(of("extremal.objective"))
        adaptive = of("quadrature.adaptive")
        m["quadrature.adaptive.calls"] = len(adaptive)
        m["quadrature.adaptive.evaluations"] = sum(spans[i][4][0] for i in adaptive)
        m["quadrature.adaptive.panels"] = self.counts["quadrature.adaptive.panels"]
        m["quadrature.adaptive.self_s"] = self_sum("quadrature.adaptive")
        m["cli.command_self_s"] = self_sum("cli.command")

        # Area regions: the two integrate_adaptive children of flat_sphere_area
        # integrate radially up to 2/R (exterior chart) and R (middle region).
        region = {}
        for i in of("area"):
            region[i] = "patches"
        for i in adaptive:
            parent = spans[i][3]
            if parent >= 0 and spans[parent][0] == "area":
                big_r = spans[parent][4]
                upper = spans[i][4][1]
                region[i] = "exterior" if abs(upper - 2.0 / big_r) < abs(upper - big_r) else "middle"
        m["area.patches_s"] = self_sum("area")
        for r in ("exterior", "middle"):
            m[f"area.{r}_s"] = sum(dur[i] for i, v in region.items() if v == r)
        points = Counter()
        for k in ("product_density", "j_bracket"):
            idx = of(f"kernels.{k}")
            calls = len(idx)
            pts = sum(spans[i][4] for i in idx)
            m[f"kernels.{k}.calls"] = calls
            m[f"kernels.{k}.points"] = pts
            m[f"kernels.{k}.busy_s"] = busy(f"kernels.{k}")
            m[f"kernels.{k}.points_per_call"] = pts / calls if calls else 0.0
            if k == "product_density":
                for i in idx:
                    owner = next((region[j] for j in ancestors(i) if j in region), None)
                    if owner is not None:
                        points[owner] += spans[i][4]
        for r in ("patches", "exterior", "middle"):
            m[f"area.{r}.points"] = points[r]
        return m

    def dump(self) -> list:
        return [[s[0], s[1], s[2], s[3]] for s in self.spans]


def traced_pass(workload_name: str, seed: int, workdir: str) -> dict:
    """Fixed op list untraced, then traced; outputs must match."""
    from workloads import WORKLOADS
    from run import digest, run_checks

    wl = WORKLOADS[workload_name](seed, workdir)
    ops = wl.fixed_ops()
    cli = workload_name == "cli-oneshot"
    execute = wl.execute_inprocess if cli else wl.execute

    execute(ops[0])  # warm-up: first-use caches and lazy imports
    untraced, latencies = [], []
    t0 = perf_counter()
    for op in ops:
        t = perf_counter()
        untraced.append(execute(op))
        latencies.append(perf_counter() - t)
    wall_untraced = perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    traced = []
    t0 = perf_counter()
    try:
        for op in ops:
            if cli:
                traced.append(tracer.span("cli.command", execute, op))
            else:
                traced.append(execute(op))
    finally:
        wall_traced = perf_counter() - t0
        tracer.uninstall()

    same = [a.text == b.text and a.code == b.code for a, b in zip(untraced, traced)]
    checks = run_checks(wl, ops, untraced)
    wl.cleanup()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = wall_traced / wall_untraced - 1.0
    return {
        "metrics": metrics,
        "inprocess_latencies": latencies,
        "traced_matches_untraced": all(same),
        "digest": digest(untraced),
        "checks": checks,
        "spans": tracer.dump(),
    }


if __name__ == "__main__":
    import json
    import os

    workload, seed, label, root, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
    sys.path.insert(0, os.path.join(root, "src"))
    result = traced_pass(workload, seed, workdir)
    spans = result.pop("spans")
    with open(os.path.join(workdir, f"spans-{workload}-seed{seed}-{label}.json"), "w") as fh:
        json.dump(spans, fh)
    print(json.dumps(result))
