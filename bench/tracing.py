"""Spans around the public functions of each bergbal module, from outside.

Inside ``with Tracer():`` every public module-level function of the layers
below is replaced by a wrapper that records a span, in every bergbal
namespace that holds the function (``runner.newton_balance``,
``solvers.section_norms``, ``bergman.bergman_kernel`` and so on), so calls
between modules are seen too.  Leaving the block puts the originals back.
Spans stay in memory; a layer's self time is the span's duration minus the
time covered by its child spans.
"""
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "config", "runner", "report", "model", "bergman", "solvers",
          "circle")

# per-layer metric -> the functions ("module.function") whose self time it sums
SELF_TIME = {
    "cli.self_s": ("cli.main",),
    "config.parse_s": ("config.parse_config",),
    "runner.self_s": ("runner.run_experiment",),
    "report.write_s": ("report.write_report",),
    "report.validate_s": ("report.validate_report", "report.load_schema"),
    "model.build_s": ("model.make_fs_potential",
                      "model.make_perturbed_potential"),
    "solvers.newton_s": ("solvers.newton_balance",),
    "solvers.tbalance_s": ("solvers.t_balance",),
    "solvers.probe_s": ("solvers.uniqueness_probe",),
    "solvers.fp_s": ("solvers.tk_iterate",),
    "bergman.weighted_kernel_s": ("bergman.weighted_bergman",),
    "bergman.fit_s": ("bergman.expansion_fit",),
    "bergman.section_norms_s": ("bergman.section_norms",),
}
# self time of a whole layer, every public function of the module
LAYER_TOTAL = {"solvers.self_s": "solvers", "bergman.self_s": "bergman",
               "model.self_s": "model", "report.self_s": "report",
               "circle.consistency_s": "circle"}
# self time at one level, summed over calls at that level: metric.m<level>
PER_LEVEL = {"bergman.kernel_s": ("bergman.bergman_kernel", (8, 40, 200))}
# self time per solver step at one level
PER_STEP = {"solvers.newton_step_s": ("solvers.newton_balance",
                                      (8, 40, 120, 200)),
            "solvers.fp_iter_s": ("solvers.tk_iterate", (5, 8, 12))}
STEPS = {"solvers.newton_steps": "solvers.newton_balance",
         "solvers.fp_iterations": "solvers.tk_iterate"}
CALLS = {"bergman.kernel_calls": "bergman.bergman_kernel"}
SOLVES = ("solvers.newton_balance", "solvers.tk_iterate", "solvers.t_balance")


def metric_units():
    """Every metric layer_metrics() returns, with its unit."""
    units = {name: "s" for name in list(SELF_TIME) + list(LAYER_TOTAL)}
    for table in (PER_LEVEL, PER_STEP):
        for name, (_, levels) in table.items():
            units.update(("%s.m%d" % (name, m), "s") for m in levels)
    units.update((name, "count") for name in list(STEPS) + list(CALLS))
    units["solvers.unconverged"] = "count"
    return units


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_id", "level",
                 "steps", "converged")

    def __init__(self, name, start, end, parent, pass_id, level, result):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.pass_id = pass_id
        self.level = level
        # BalanceResult carries the step count and the convergence flag
        self.steps = getattr(result, "iterations", None)
        self.converged = getattr(result, "converged", None)

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Context manager: inside ``with tracer:`` every public function of the
    layers records a span into tracer.spans, tagged with tracer.pass_id."""

    def __init__(self):
        self.namespaces = [importlib.import_module("bergbal")]
        self.names = {}
        for layer in LAYERS:
            mod = importlib.import_module("bergbal." + layer)
            self.namespaces.append(mod)
            for name, fn in vars(mod).items():
                if inspect.isfunction(fn) and not name.startswith("_") \
                        and fn.__module__ == mod.__name__:
                    self.names[fn] = "%s.%s" % (layer, name)
        self.spans = []
        self.pass_id = None
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                level = args[0] if args and type(args[0]) is int else None
                spans[index] = Span(name, start, end, parent, self.pass_id,
                                    level, result)

        return traced

    def __enter__(self):
        wrappers = {fn: self._wrap(fn, name) for fn, name in self.names.items()}
        for ns in self.namespaces:
            for attr, value in list(vars(ns).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(ns, attr, wrappers[value])
                    self._patched.append((ns, attr, value))
        return self

    def __exit__(self, *exc):
        for ns, attr, value in self._patched:
            setattr(ns, attr, value)
        self._patched = []

    def write(self, path):
        with open(path, "w") as fh:
            json.dump([s.as_dict() for s in self.spans], fh)


def self_times(spans):
    """Self time of every span of a complete trace, in the same order."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def pass_profile(spans, selfs, pass_id):
    """Per-pass totals: self time and calls per function, self time per
    (function, level), steps per (function, level), unconverged solves, and
    the pass duration (the root spans, which are the CLI calls)."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    level_s = defaultdict(float)
    steps = defaultdict(int)
    unconverged = 0
    duration = 0.0
    for s, own in zip(spans, selfs):
        if s.pass_id != pass_id:
            continue
        self_s[s.name] += own
        calls[s.name] += 1
        level_s[s.name, s.level] += own
        if s.steps is not None:
            steps[s.name, s.level] += s.steps
            steps[s.name, None] += s.steps
        if s.name in SOLVES and s.converged is False:
            unconverged += 1
        if s.parent is None:
            duration += s.end - s.start
    return {"self_s": self_s, "calls": calls, "level_s": level_s,
            "steps": steps, "unconverged": unconverged, "duration": duration}


def layer_self(profile, layer):
    prefix = layer + "."
    return sum(v for k, v in profile["self_s"].items() if k.startswith(prefix))


def layer_metrics(profile):
    """The per-layer metrics of one traced pass (see metric_units)."""
    out = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(profile["self_s"].get(n, 0.0) for n in names)
    for metric, layer in LAYER_TOTAL.items():
        out[metric] = layer_self(profile, layer)
    for metric, (name, levels) in PER_LEVEL.items():
        for m in levels:
            out["%s.m%d" % (metric, m)] = profile["level_s"].get((name, m), 0.0)
    for metric, (name, levels) in PER_STEP.items():
        for m in levels:
            n = profile["steps"].get((name, m), 0)
            t = profile["level_s"].get((name, m), 0.0)
            out["%s.m%d" % (metric, m)] = t / n if n else 0.0
    for metric, name in STEPS.items():
        out[metric] = profile["steps"].get((name, None), 0)
    for metric, name in CALLS.items():
        out[metric] = profile["calls"].get(name, 0)
    out["solvers.unconverged"] = profile["unconverged"]
    return out
