"""Spans and counters recorded around calls into geoksat's modules.

Nothing in the library is edited: a ``Tracer`` replaces module attributes
(functions, and classes by subclass stand-ins) with wrappers for the
duration of one pipeline run, then puts the originals back.  A function
imported by name into several modules is replaced at every import site,
and since intra-module calls look names up in the module globals, calls a
module makes to its own functions are caught as well.  Targets that a
refactor removes are reported as absent instead of failing.

Per span name the tracer keeps the call count, inclusive busy time (only
spans without an enclosing span of the same name, so recursion and
re-entrant method calls are not counted twice) and self time (duration
minus the direct child spans).
"""

import functools
import importlib
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "geoksat"


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.results = defaultdict(list)
        self.top_level_s = 0.0
        self.absent = []
        self._stack = []  # [child time] of each open span
        self._active = {}  # span name -> open spans of that name
        self._installed = []

    def call(self, name, fn, args, kwargs):
        active = self._active
        outermost = name not in active
        active[name] = active.get(name, 0) + 1
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if active[name] == 1:
                del active[name]
            else:
                active[name] -= 1
            self.calls[name] += 1
            self.self_time[name] += dt - frame[0]
            if outermost:
                self.busy[name] += dt
            if stack:
                stack[-1][0] += dt
            else:
                self.top_level_s += dt

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, hook=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = self.call(name, next, (it,), {})
                    except StopIteration:
                        return
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (LookupError, AttributeError, TypeError):
                    # the call's signature or result changed shape: its
                    # counters are absent, the span itself still counts
                    if f"{name} (counters)" not in self.absent:
                        self.absent.append(f"{name} (counters)")
            return result
        return wrapper

    def stand_in(self, cls, methods):
        """Subclass of ``cls`` whose listed methods run inside spans.

        ``methods`` maps method name -> (span name, hook or None).
        """
        ns = {meth: self.wrap(span, getattr(cls, meth), hook)
              for meth, (span, hook) in methods.items()}
        return type(cls.__name__, (cls,), ns)

    # -- installation -----------------------------------------------------

    def install(self, targets):
        """Replace each target at every geoksat module that holds it.

        ``targets`` is a sequence of ``Target``.  A module or attribute
        that does not exist is recorded in ``self.absent``.
        """
        for t in targets:
            try:
                home = importlib.import_module(f"{PACKAGE}.{t.module}")
                orig = getattr(home, t.attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            if t.methods is not None:
                present = {m: v for m, v in t.methods.items() if hasattr(orig, m)}
                self.absent += [f"{t.module}.{t.attr}.{m}"
                                for m in t.methods if m not in present]
                replacement = self.stand_in(orig, present)
            else:
                replacement = self.wrap(t.span, orig, t.hook)
            for mod in _package_modules():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, replacement)
                        self._installed.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._installed):
            setattr(mod, attr, orig)
        self._installed.clear()


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Target:
    """A module attribute to wrap: a function (``span`` and optional
    ``hook``) or a class (``methods``: name -> (span, hook))."""

    def __init__(self, module, attr, span=None, hook=None, methods=None):
        self.module = module
        self.attr = attr
        self.span = span or f"{module}.{attr}"
        self.hook = hook
        self.methods = methods


# -- hooks: exact work counts taken from arguments and results -------------

def _arg(args, kwargs, pos, name):
    """A call's argument by keyword, else by position."""
    return kwargs[name] if name in kwargs else args[pos]


def _on_sampled(tracer, args, kwargs, result):
    formula = getattr(result, "formula", result)
    tracer.counts["generate.clauses_sampled"] += formula.m
    tracer.results["sampled"].append(result)


def _on_race(tracer, args, kwargs, result):
    if _arg(args, kwargs, 3, "T") > 0:
        tracer.counts["generate.race_draws"] += len(result) * _arg(args, kwargs, 1, "sites").n


def _on_draw_pattern(tracer, args, kwargs, result):
    ledger, key = args[0], args[1]
    seen = ledger.__dict__.setdefault("_bench_draws", Counter())
    seen[key] += 1
    if seen[key] == 2:
        tracer.counts["generate.ledger_repeat_sets"] += 1


def _on_scores(tracer, args, kwargs, result):
    tracer.counts["voronoi.weighted_score_matrix.entries"] += result.size
    tracer.counts["voronoi.weighted_score_matrix.bytes_computed"] += result.nbytes


def _on_mc(tracer, args, kwargs, result):
    sites, g = _arg(args, kwargs, 0, "sites"), _arg(args, kwargs, 4, "g")
    tracer.counts["voronoi.mc_queries"] += result.samples
    tracer.counts["voronoi.distinct_keys"] += result.count
    tracer.results["mc"].append((sites, g, result))


def _on_trials(tracer, args, kwargs, result):
    tracer.counts["structure.expansion_trials"] += _arg(args, kwargs, 3, "trials")


def _file_bytes(key, pos, name):
    def hook(tracer, args, kwargs, result):
        path = _arg(args, kwargs, pos, name)
        if isinstance(path, (str, os.PathLike)):
            tracer.counts[key] += os.path.getsize(path)
    return hook


# The three entry points the end-to-end throughput is measured in; the
# untraced run installs only these (one clock pair per call).
ENTRY_TARGETS = (
    Target("generate", "sample_nonuniform_formula", hook=_on_sampled),
    Target("generate", "sample_geometric_formula", hook=_on_sampled),
    Target("voronoi", "count_regions_monte_carlo", hook=_on_mc),
)
# rate kind -> (entry spans, work count)
ENTRY_SPANS = {
    "sampler": (("generate.sample_nonuniform_formula",
                 "generate.sample_geometric_formula"), "generate.clauses_sampled"),
    "mc": (("voronoi.count_regions_monte_carlo",), "voronoi.mc_queries"),
}

GEOMETRY_FUNCTIONS = ("torus_distance", "cross_distances", "coordinate_deltas",
                      "weighted_distance", "connection_weight",
                      "connection_weight_cdf", "dist_cdf",
                      "ball_volume_constant")

LAYER_TARGETS = ENTRY_TARGETS + (
    Target("cli", "main"),
    Target("weights", "power_law_weights"),
    Target("sampling", "SumTree", methods={
        m: ("sampling.SumTree", None) for m in ("__init__", "update", "draw_index")}),
    Target("sampling", "draw_k_from_tree"),
    Target("generate", "draw_geometric_clause_vars", hook=_on_race),
    Target("generate", "_apply_sign_patterns"),
    Target("generate", "SignLedger", methods={
        "draw_pattern": ("generate.SignLedger.draw_pattern", _on_draw_pattern)}),
    Target("voronoi", "weighted_score_matrix", hook=_on_scores),
    Target("voronoi", "rank_k_smallest"),
    Target("voronoi", "_keys_via_scan"),
    Target("voronoi", "cKDTree", methods={
        "query": ("voronoi.cKDTree.query", None)}),
    Target("structure", "incidence_graph"),
    Target("structure", "check_expansion_sampled", hook=_on_trials),
    Target("structure", "find_unsat_core"),
    Target("structure", "brute_force_sat"),
    Target("dimacs", "emit_dimacs",
           hook=_file_bytes("dimacs.emit_dimacs.bytes", 1, "destination")),
    Target("dimacs", "parse_dimacs",
           hook=_file_bytes("dimacs.parse_dimacs.bytes", 0, "source")),
    Target("dimacs", "write_core_certificate"),
    Target("experiments", "run_experiment"),
    Target("experiments", "nice_fraction_audit"),
) + tuple(Target("geometry", fn, span="geometry") for fn in GEOMETRY_FUNCTIONS)
