"""Timing wrappers around the public functions of each bmx layer.

The wrappers are installed from outside, by rebinding names, and removed
again afterwards; nothing in ``src/bmx`` is edited.  A function is rebound
under every name that holds it in any bmx module, because several modules
bind their neighbours' functions at import time (``stats`` binds the kernels,
``sim`` the disk-time sampler, ``hyperbolic`` scipy's ``dijkstra``, ``cli``
the estimators).  Domain methods are wrapped on each concrete class.

Each call is a span.  A span's self time is its duration minus the time of
the wrapped calls it made; self time is summed per layer.  Counts are taken
from the arguments and return values of the wrapped calls, never from
timers, so they repeat exactly for the same inputs.  ``rng`` and ``maps``
are not layers: their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

GEOMETRY_METHODS = ("contains", "boundary_distance", "project",
                    "label_codes", "first_boundary_crossing")

# Kernel functions get a layer of their own inside ``sim``.
_SIM_LAYERS = {
    "em_exit_batch": "sim.em", "em_exit": "sim.em",
    "wos_exit_batch": "sim.wos", "wos_exit": "sim.wos",
    "sample_halfplane_exit_batch": "sim.exact",
    "sample_halfplane_exit": "sim.exact",
    "sample_disk_exit_batch": "sim.exact", "sample_disk_exit": "sim.exact",
}


class Tracer:
    """Span and count aggregates for one traced pass.

    ``self_s[layer]`` is the summed self time of the layer's spans,
    ``span_s[name]`` the summed duration of the spans of one function (or
    domain method) and ``counts`` the deterministic counters.
    """

    def __init__(self, bmx):
        self._bmx = bmx
        self._modules = [bmx] + [m for m in vars(bmx).values()
                                 if inspect.ismodule(m)
                                 and m.__name__.startswith("bmx.")]
        self._open = []          # child-time accumulator per open span
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.span_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.em_steps = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, layer, name, hook=None):
        """A span around ``fn``: its duration goes to ``span_s[name]`` (or
        to the name ``name`` returns for the call), its self time to
        ``self_s[layer]``.  ``hook(args, kwargs, out)`` updates the counts;
        its cost is charged to no span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._open
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                tracer.self_s[layer] += dur - stack.pop()
                key = name(args, kwargs) if callable(name) else name
                tracer.span_s[key] += dur
            if hook is not None:
                hook(args, kwargs, out)
            if stack:
                stack[-1] += time.perf_counter() - t0
            return out
        return traced

    def _hook_for(self, mod, name, fn):
        """Count hook for the functions whose arguments or results carry a
        count; None for the rest."""
        if mod == "stats" and name == "run_exits":
            sig = inspect.signature(fn)
            chunk_ranges = self._bmx.rng.chunk_ranges

            def hook(args, kwargs, out):
                n = sig.bind(*args, **kwargs).arguments["n"]
                self.counts["stats.chunks"] += len(chunk_ranges(n))
            return hook
        if mod == "sim" and name in ("em_exit_batch", "wos_exit_batch"):
            kind = _SIM_LAYERS[name]

            def hook(args, kwargs, out):
                batch = out[0] if isinstance(out, tuple) else out
                c = self.counts
                c[kind + ".paths"] += len(batch)
                c[kind + ".path_steps"] += int(np.sum(batch.steps))
                c[kind + ".excluded"] += batch.n_excluded
                if kind == "sim.em":
                    self.em_steps.append(np.asarray(batch.steps))
            return hook
        if mod == "sim" and name in ("sample_halfplane_exit_batch",
                                     "sample_disk_exit_batch"):
            def hook(args, kwargs, out):
                self.counts["sim.exact.paths"] += len(out)
            return hook
        if mod == "disk_time" and name == "sample_unit_disk_time":
            def hook(args, kwargs, out):
                self.counts["disk_time.calls"] += 1
                self.counts["disk_time.draws"] += int(np.size(out))
            return hook
        if mod == "hyperbolic" and name == "quasi_hyperbolic_profile":
            def hook(args, kwargs, out):
                self.counts["hyperbolic.rounds"] += len(out[1])
            return hook
        return None

    def _targets(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        bmx = self._bmx
        layer_modules = {"cli": bmx.cli, "stats": bmx.stats, "sim": bmx.sim,
                         "disk_time": bmx.disk_time,
                         "geometry": bmx.geometry, "combs": bmx.combs,
                         "hyperbolic": bmx.hyperbolic}
        wrapped = {}        # id(original function) -> wrapper
        for mod_name, mod in layer_modules.items():
            layer = "geometry" if mod_name == "combs" else mod_name
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                span_layer = _SIM_LAYERS.get(name, layer)
                span_name = f"{layer}.{name}"
                if mod_name == "cli" and name == "run_scenario":
                    span_name = _scenario_span_name
                wrapped[id(fn)] = self._wrap(fn, span_layer, span_name,
                                             self._hook_for(mod_name, name, fn))
        dijkstra = bmx.hyperbolic.dijkstra

        def count_graph(args, kwargs, out):
            graph = args[0] if args else kwargs["csgraph"]
            self.counts["hyperbolic.graph_nodes"] += int(graph.shape[0])
            self.counts["hyperbolic.graph_edges"] += int(graph.nnz)
        wrapped[id(dijkstra)] = self._wrap(
            dijkstra, "hyperbolic.dijkstra", "hyperbolic.dijkstra", count_graph)

        out = []
        for mod in self._modules:
            for attr, val in vars(mod).items():
                if id(val) in wrapped and not attr.startswith("__"):
                    out.append((mod, attr, val, wrapped[id(val)]))
        # Resolve every class's methods before any is replaced, so an
        # inherited method is wrapped once per class, never twice.
        classes = _subclasses(bmx.geometry.Domain)
        originals = [(cls, m, getattr(cls, m)) for cls in classes
                     for m in GEOMETRY_METHODS]
        for cls, method, fn in originals:
            out.append((cls, method, cls.__dict__.get(method),
                        self._wrap(fn, "geometry",
                                   f"geometry.{method}.{cls.__name__}",
                                   self._count_points(method, cls.__name__))))
        return out

    def _count_points(self, method, cls_name):
        calls = f"geometry.{method}.{cls_name}.calls"
        pts = f"geometry.{method}.{cls_name}.pts"

        def hook(args, kwargs, out):
            self.counts[calls] += 1
            self.counts[pts] += int(np.size(out))
        return hook

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block."""
        targets = self._targets()
        for owner, attr, _, wrapper in targets:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original, _ in reversed(targets):
                if original is None:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)


def _scenario_span_name(args, kwargs):
    sc = args[0] if args else kwargs["sc"]
    return f"cli.scenario.{sc.name}"


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
