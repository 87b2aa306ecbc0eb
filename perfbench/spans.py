"""Spans around calls into globkit's public functions, installed from outside.

`install()` replaces module attributes and class methods with wrappers that
record a span per call: name, start, end, parent span and the operation it
belongs to.  Spans are kept in memory and handed back when the pass ends.
A layer's self time is a span's duration minus the time its child spans
cover, summed per metric.

Functions called once per fiber element (`Model.eval`, `coherator.compose`,
`globe.realize_sum`, `Model.interp_for`) are deliberately not wrapped: a
span per element would dominate the run.  Their cost shows as the self time
of the wrapped caller, and `cache_counts()` reads their exact call counts from
the program's own `functools` caches.
"""

import functools
import importlib
import pkgutil
import time
import weakref

# (module, qualified attribute, metric that receives the self time)
TARGETS = [
    ("coherator", "stdlib", "coherator.stdlib_s"),
    ("coherator", "normalize", "coherator.normalize_s"),
    ("coherator", "Tower.declare", "coherator.declare_s"),
    ("coherator", "verify_bundle", "coherator.verify_bundle_s"),
    ("dsl", "parse_tower", "dsl.parse_s"),
    ("dsl", "emit_tower", "dsl.emit_s"),
    ("model", "build_strict", "model.build_s"),
    ("model", "unit_filler", "model.build_s"),
    ("model", "restrict", "model.build_s"),
    ("model", "Model.check", "model.check_s"),
    ("model", "Model.cells", "model.cells_s"),
    ("model", "model_to_json", "model.json_s"),
    ("model", "model_from_json", "model.json_s"),
    ("model", "morphism_from_dims", "model.morphism_s"),
    ("model", "ModelMorphism.validate", "model.morphism_s"),
    ("homotopy", "pi0", "homotopy.pi_s"),
    ("homotopy", "pi_n", "homotopy.pi_s"),
    ("homotopy", "pi_n_at", "homotopy.pi_s"),
    ("homotopy", "pi_groupoid", "homotopy.pi_s"),
    ("homotopy", "hom_classes", "homotopy.hom_classes_s"),
    ("homotopy", "weak_equiv", "homotopy.weq_s"),
    ("homotopy", "divide", "homotopy.divide_s"),
    ("homotopy", "base_change_iso", "homotopy.divide_s"),
    ("gpd", "compare", "gpd.fundamental_s"),
    ("gpd", "fundamental", "gpd.fundamental_s"),
    ("gpd", "TowerGpdInterp.interpret_all", "gpd.fundamental_s"),
    ("gpd", "path_object", "gpd.path_object_s"),
    ("gpd", "build_groupoid", "gpd.build_groupoid_s"),
    ("gpd", "groupoid_from_json", "gpd.build_groupoid_s"),
    ("gpd", "Groupoid.validate", "gpd.validate_s"),
    ("gpd", "GFunctor.validate", "gpd.validate_s"),
    ("gpd", "loop_object", "gpd.quillen_s"),
    ("gpd", "quillen_pi1", "gpd.quillen_s"),
    ("gpd", "quillen_pi_n", "gpd.quillen_s"),
    ("groups", "find_isomorphism", "groups.find_isomorphism_s"),
    ("groups", "recognize", "groups.find_isomorphism_s"),
]

SELF_METRICS = sorted({m for _, _, m in TARGETS})

# Exact counts: (metric, module, lru-cached function whose calls are counted)
CACHE_COUNTS = [
    ("globe.realize_sum_calls", "globe", "realize_sum", "calls"),
    ("globe.realize_sum_misses", "globe", "realize_sum", "misses"),
    ("theta0.leg_gmap_calls", "theta0", "leg_gmap", "calls"),
]

COUNT_METRICS = [
    "model.fiber_elems", "model.violations", "gpd.path_squares", "gpd.arrows",
    "coherator.auto_liftings", "coherator.normalize_calls",
    "coherator.declare_calls", "dsl.script_bytes",
] + [m for m, _, _, _ in CACHE_COUNTS]


class Tracer:
    """Span recorder; inactive (a flag test per call) outside timed ops."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []          # (name, start, end, parent index, op)
        self.self_time = {m: 0.0 for m in SELF_METRICS}
        self.counts = {m: 0 for m in COUNT_METRICS}
        self._stack = []         # [span index, start, child time, metric]
        self._fibers_seen = {}   # id(model) -> tables already counted
        self._paths_seen = set()  # ids of path objects already counted

    def wrap(self, name, metric, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0, metric]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                tracer.self_time[metric] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # count hooks -----------------------------------------------------------

    def _count_cells(self, args, kwargs, result):
        model, table = args[0], args[1]
        seen = self._fibers_seen.get(id(model))
        if seen is None:
            seen = self._fibers_seen[id(model)] = set()
            weakref.finalize(model, self._fibers_seen.pop, id(model), None)
        if table not in seen:
            seen.add(table)
            self.counts["model.fiber_elems"] += len(result)

    def _count_check(self, args, kwargs, result):
        self.counts["model.violations"] += len(result)

    def _count_path(self, args, kwargs, result):
        # `path_object` may return a cached object; count its squares once,
        # so that the figure is squares built, not lookups.
        if id(result) in self._paths_seen:
            return
        self._paths_seen.add(id(result))
        weakref.finalize(result, self._paths_seen.discard, id(result))
        self.counts["gpd.path_squares"] += len(getattr(result, "squares", ()))

    def _count_groupoid(self, args, kwargs, result):
        self.counts["gpd.arrows"] += result.n_arrows

    def _count_declare(self, args, kwargs, result):
        self.counts["coherator.declare_calls"] += 1
        if kwargs.get("auto") or (len(args) > 4 and args[4]):
            self.counts["coherator.auto_liftings"] += 1

    def _count_normalize(self, args, kwargs, result):
        self.counts["coherator.normalize_calls"] += 1

    def _count_emit(self, args, kwargs, result):
        self.counts["dsl.script_bytes"] += len(result.encode("utf-8"))

    def hooks(self):
        return {
            "Model.cells": self._count_cells,
            "Model.check": self._count_check,
            "path_object": self._count_path,
            "build_groupoid": self._count_groupoid,
            "Tower.declare": self._count_declare,
            "normalize": self._count_normalize,
            "emit_tower": self._count_emit,
        }


def globkit_modules():
    import globkit
    mods = {}
    for info in pkgutil.iter_modules(globkit.__path__):
        mods[info.name] = importlib.import_module("globkit." + info.name)
    return mods


def install(tracer):
    """Wrap every target that exists; returns the names that were missing.

    A module-level function is replaced in every globkit module that bound
    it, since `from .x import f` copies the reference.
    """
    mods = globkit_modules()
    hooks = tracer.hooks()
    missing = []
    for modname, qual, metric in TARGETS:
        mod = mods.get(modname)
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append("%s.%s" % (modname, qual))
            continue
        wrapper = tracer.wrap("%s.%s" % (modname, qual), metric, fn, hooks.get(qual))
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for other in mods.values():
            for key, value in list(vars(other).items()):
                if value is fn:
                    setattr(other, key, wrapper)
    return missing


def cache_counts():
    """Exact call counts from the program's lru caches, keyed by metric."""
    mods = globkit_modules()
    out = {}
    for metric, modname, fname, kind in CACHE_COUNTS:
        fn = getattr(mods.get(modname), fname, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        if info is None:
            out[metric] = 0
        elif kind == "misses":
            out[metric] = info.misses
        else:
            out[metric] = info.hits + info.misses
    return out
