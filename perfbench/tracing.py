"""Span tracer that wraps jetsuff's public functions from outside the package.

Every wrapped call opens a frame on one stack, so each layer's self time is
its duration minus the time of the wrapped calls directly inside it. Calls
to the layers in ``LEAVES`` are too many to record one by one: they are
kept as count and busy time under the nearest enclosing span. Every other
wrapped call becomes a span (name, start, end, parent, command id). Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

LEAVES = frozenset({
    "poly.eval", "poly.eval_many", "germ.eval", "germ.jacobian",
    "germ.distance", "linmap.nu", "linmap.LinearMap", "linmap.g_prime",
    "trivializer.W", "bl_construct.value",
})

# (metric, unit); the suffix says which aggregate a metric reads:
# .calls/.built -> call count, .busy_s -> inclusive time, .self_s -> self
# time, anything else -> a counter derived from call arguments or results.
PER_LAYER = [
    ("poly.eval.calls", "count"), ("poly.eval.busy_s", "s"),
    ("poly.eval_many.calls", "count"),
    ("germ.jacobian.calls", "count"), ("germ.jacobian.self_s", "s"),
    ("germ.eval.calls", "count"),
    ("germ.distance.calls", "count"), ("germ.distance.busy_s", "s"),
    ("germ.same_k_Z_jet.busy_s", "s"), ("germ.load.busy_s", "s"),
    ("linmap.nu.calls", "count"), ("linmap.nu.busy_s", "s"),
    ("linmap.LinearMap.built", "count"), ("linmap.LinearMap.busy_s", "s"),
    ("linmap.g_prime.calls", "count"), ("linmap.g_prime.busy_s", "s"),
    ("sampling.calls", "count"), ("sampling.busy_s", "s"),
    ("lojasiewicz.estimate_condition.busy_s", "s"),
    ("lojasiewicz.fit_exponent.busy_s", "s"),
    ("lojasiewicz.check_corollary_hypotheses.busy_s", "s"),
    ("lojasiewicz.find_violation_sequence.busy_s", "s"),
    ("lojasiewicz.points.evaluated", "count"),
    ("lojasiewicz.points.skipped", "count"),
    ("lojasiewicz.minimize.calls", "count"),
    ("lojasiewicz.minimize.nfev", "count"),
    ("trivializer.calibrate.busy_s", "s"),
    ("trivializer.calibrate.shrink_steps", "count"),
    ("trivializer.W.calls", "count"), ("trivializer.W.self_s", "s"),
    ("trivializer.solve_ivp.calls", "count"),
    ("trivializer.solve_ivp.nfev", "count"),
    ("trivializer.backward_flow.calls", "count"),
    ("trivializer.flow.busy_s", "s"),
    ("trivializer.backward_flow.busy_s", "s"),
    ("trivializer.isotopy.busy_s", "s"),
    ("trivializer.gronwall.busy_s", "s"),
    ("trivializer.build_F.busy_s", "s"),
    ("bl_construct.choose_lambdas.busy_s", "s"),
    ("bl_construct.assemble.busy_s", "s"),
    ("bl_construct.verify.busy_s", "s"),
    ("bl_construct.value.calls", "count"),
    ("cli.write.busy_s", "s"),
    ("cli.report.bytes", "bytes"),
]


class Tracer:
    """``clock`` is the time source for spans; the benchmark passes one
    that excludes the speed probe's samples."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.frames = []      # child-time accumulators of the open calls
        self.open = []        # indices of the open spans
        self.spans = []       # [name, start, end, parent, cmd, {leaf: [calls, busy]}]
        self.cmd = None
        self.reset()

    def reset(self):
        """Start a fresh set of aggregates (spans are kept)."""
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    def begin_command(self, cmd_id: str):
        self.cmd = cmd_id
        self.span_start("command")

    def end_command(self):
        self.span_end()
        self.cmd = None

    def span_start(self, name: str):
        parent = self.open[-1] if self.open else None
        self.open.append(len(self.spans))
        self.spans.append([name, self.clock() - self.t0, None, parent,
                           self.cmd, {}])

    def span_end(self):
        self.spans[self.open.pop()][2] = self.clock() - self.t0

    def wrap(self, name: str, fn, after=None):
        leaf = name in LEAVES
        frames = self.frames
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if not leaf:
                self.span_start(name)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                self.calls[name] += 1
                self.busy[name] += dt
                self.self_s[name] += dt - frame[0]
                if not leaf:
                    self.span_end()
                elif self.open:
                    agg = self.spans[self.open[-1]][5].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
            if after is not None:
                after(self.counts, out, args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch_attr(self, owner, attr: str, name: str, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def patch_function(self, module, attr: str, name: str, after=None):
        """Replace a function in every jetsuff module that imported it."""
        orig = getattr(module, attr)
        wrapped = self.wrap(name, orig, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "jetsuff":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def layer_metrics(self) -> dict:
        out = {}
        for metric, _ in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            if kind in ("calls", "built"):
                out[metric] = self.calls[base]
            elif kind == "busy_s":
                out[metric] = self.busy[base]
            elif kind == "self_s":
                out[metric] = self.self_s[base]
            else:
                out[metric] = self.counts[metric]
        return out

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "command": c,
                 "leaves": {k: {"calls": v[0], "busy_s": v[1]} for k, v in lv.items()}}
                for n, s, e, p, c, lv in self.spans]


class _OptimizeProxy:
    """Stands in for ``scipy.optimize`` inside one module, with a traced
    ``minimize``."""

    def __init__(self, module, minimize):
        self._module = module
        self.minimize = minimize

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _count_nfev(key):
    def after(counts, out, args, kwargs):
        counts[key] += int(out.nfev)
    return after


def _count_annulus(counts, out, args, kwargs):
    rows = len(args[3])
    skipped = rows if out is None else int(out[3])
    counts["lojasiewicz.points.evaluated"] += rows - skipped
    counts["lojasiewicz.points.skipped"] += skipped


def _count_corollary(counts, out, args, kwargs):
    rows = len(args[1]) * int(args[2])
    counts["lojasiewicz.points.evaluated"] += rows - out.skipped
    counts["lojasiewicz.points.skipped"] += out.skipped


def _count_shrinks(counts, out, args, kwargs):
    # calibrate_constants starts at radius 1 and shrinks by 0.9 per step
    counts["trivializer.calibrate.shrink_steps"] += round(
        math.log(out.U_radius) / math.log(0.9))


def install(tracer: Tracer):
    """Wrap the layer boundaries of an imported jetsuff, for the rest of the
    process."""
    from jetsuff import (bl_construct, cli, germ, linmap, lojasiewicz, poly,
                         sampling, trivializer)

    tracer.patch_attr(poly.Poly, "eval", "poly.eval")
    tracer.patch_attr(poly.Poly, "eval_many", "poly.eval_many")
    tracer.patch_attr(germ.PolyGermMap, "eval", "germ.eval")
    tracer.patch_attr(germ.PolyGermMap, "jacobian", "germ.jacobian")
    tracer.patch_attr(germ.ZSpec, "distance", "germ.distance")
    tracer.patch_function(germ, "same_k_Z_jet", "germ.same_k_Z_jet")
    tracer.patch_function(germ, "load_germ", "germ.load")
    tracer.patch_function(linmap, "nu", "linmap.nu")
    tracer.patch_attr(linmap.LinearMap, "__init__", "linmap.LinearMap")
    tracer.patch_function(linmap, "g_prime", "linmap.g_prime")
    for fn in ("unit_shell_sample", "ball_sample", "sphere_sample"):
        tracer.patch_function(sampling, fn, "sampling")
    for fn in ("estimate_condition", "fit_exponent", "find_violation_sequence"):
        tracer.patch_function(lojasiewicz, fn, f"lojasiewicz.{fn}")
    tracer.patch_function(lojasiewicz, "check_corollary_hypotheses",
                          "lojasiewicz.check_corollary_hypotheses", _count_corollary)
    tracer.patch_function(lojasiewicz, "_ratio_stats", "lojasiewicz.annulus",
                          _count_annulus)
    opt = lojasiewicz.optimize
    lojasiewicz.optimize = _OptimizeProxy(opt, tracer.wrap(
        "lojasiewicz.minimize", opt.minimize, _count_nfev("lojasiewicz.minimize.nfev")))
    tracer.patch_function(trivializer, "calibrate_constants",
                          "trivializer.calibrate", _count_shrinks)
    tracer.patch_attr(trivializer.VectorFieldW, "eval", "trivializer.W")
    tracer.patch_function(trivializer, "solve_ivp", "trivializer.solve_ivp",
                          _count_nfev("trivializer.solve_ivp.nfev"))
    for fn, name in (("flow", "flow"), ("backward_flow", "backward_flow"),
                     ("isotopy", "isotopy"), ("gronwall_check", "gronwall"),
                     ("build_F", "build_F")):
        tracer.patch_function(trivializer, fn, f"trivializer.{name}")
    for fn, name in (("choose_lambdas", "choose_lambdas"), ("assemble_F", "assemble"),
                     ("verify_construction", "verify")):
        tracer.patch_function(bl_construct, fn, f"bl_construct.{name}")
    tracer.patch_attr(bl_construct.PerturbationF, "value", "bl_construct.value")
    tracer.patch_function(cli, "_write_report", "cli.write")
    tracer.patch_attr(lojasiewicz.LojasiewiczReport, "write_csv", "cli.write")
    tracer.patch_attr(trivializer.IsotopyResult, "write_csv", "cli.write")
