"""In-process span tracer for one benchmark op.

`install()` wraps the functions that form each module's boundary:
every public function and public method defined in one of the ten
layer modules, plus every private function that another module reaches
(by `from .m import _f` or by `m._f(...)`). A function is wrapped once
and the wrapper is bound under every name the package binds the
function to, so its time lands in the module that defines it, whichever
module calls it. A few private functions are wrapped as well because
the counters need their arguments (see `_HOOKS`).

Spans (name, start, end, parent) are kept in memory in flat arrays and
reduced to per-layer self time, call counts and counters by `summary()`
when the op ends. Self time is a span's duration minus the durations of
its child spans; the bookkeeping a counter hook does is recorded as a
span of the pseudo-layer `trace`, so it is excluded from every layer.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import time
from array import array

import numpy as np

from workloads import LAYERS

COUNTERS = (
    "specfun.zero_calls",
    "packets.modes_computed",
    "packets.modes_kept",
    "dynamics.phase_products",
    "dynamics.big_phase_products",
    "wavefields.grid_points",
    "serialize.bytes",
    "serialize.write_s",
    "billiards.root_s",
)

BIG_PHASE = 1e8  # |omega t| above which reduced_phase leaves the fast path


class Tracer:
    """Span store for one process; `wrap` produces the recording wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.counts["serialize.write_s"] = 0.0
        self.counts["billiards.root_s"] = 0.0

    def _name_id(self, name: str, layer: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def record(self, name: str, layer: str, start: float, end: float, parent: int) -> None:
        self.span_name.append(self._name_id(name, layer))
        self.span_parent.append(parent)
        self.span_start.append(start)
        self.span_end.append(end)

    def wrap(self, fn, qualname: str, layer: str):
        nid = self._name_id(qualname, layer)
        hook = _HOOKS.get(qualname)
        stack = self.stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(self, fn, args, kwargs, result, t1 - t0, parent)
                self.record("trace.hook", "trace", t1, clock(), parent)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def summary(self) -> dict:
        """Per-layer self time and calls, plus the counters."""
        n = len(self.span_name)
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        out.update({f"{layer}.calls": 0 for layer in LAYERS})
        if n:
            name_idx = np.frombuffer(self.span_name, dtype=np.int32)
            parent = np.frombuffer(self.span_parent, dtype=np.int32)
            dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
            self_time = dur - child
            layer_idx = np.array([self._layer_index(layer) for layer in self.layer_of])
            span_layer = layer_idx[name_idx]
            for i, layer in enumerate(LAYERS):
                sel = span_layer == i
                out[f"{layer}.self_s"] = float(self_time[sel].sum())
                out[f"{layer}.calls"] = int(np.count_nonzero(sel))
        out.update(self.counts)
        return out

    @staticmethod
    def _layer_index(layer: str) -> int:
        return LAYERS.index(layer) if layer in LAYERS else -1

    def layer_of_span(self, idx: int) -> str | None:
        if idx < 0:
            return None
        return self.layer_of[self.span_name[idx]]


# ----------------------------------------------------------------------
# Counter hooks: (tracer, fn, args, kwargs, result, duration, parent span)
# ----------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _zero_call(tr, fn, args, kwargs, result, dur, parent):
    tr.counts["specfun.zero_calls"] += 1


def _reduced_phase(tr, fn, args, kwargs, result, dur, parent):
    a = _bound(fn, args, kwargs)
    prod = np.multiply(np.asarray(a["omega"], dtype=float), np.asarray(a["t"], dtype=float))
    tr.counts["dynamics.phase_products"] += int(prod.size)
    tr.counts["dynamics.big_phase_products"] += int(np.count_nonzero(np.abs(prod) > BIG_PHASE))


def _poly_phase_sum(tr, fn, args, kwargs, result, dur, parent):
    a = _bound(fn, args, kwargs)
    tr.counts["dynamics.phase_products"] += len(a["weights"]) * len(np.atleast_1d(a["t_grid"]))


def _trim(tr, fn, args, kwargs, result, dur, parent):
    a = _bound(fn, args, kwargs)
    tr.counts["packets.modes_computed"] += len(a["values"])
    tr.counts["packets.modes_kept"] += len(result[1])


def _circular_coefficients(tr, fn, args, kwargs, result, dur, parent):
    a = _bound(fn, args, kwargs)
    tr.counts["packets.modes_computed"] += (2 * a["m_cap"] + 1) * (a["nr_cap"] + 1)
    tr.counts["packets.modes_kept"] += len(result.coefficients)


def _triangle_coefficients(tr, fn, args, kwargs, result, dur, parent):
    # closed form for every label of the basis; nothing is trimmed
    tr.counts["packets.modes_computed"] += len(result.labels)
    tr.counts["packets.modes_kept"] += len(result.coefficients)


def _grid_result(tr, fn, args, kwargs, result, dur, parent):
    if tr.layer_of_span(parent) == "wavefields":
        return  # counted at the outermost wavefields call
    items = result if isinstance(result, tuple) else (result,)
    for item in items:
        values = getattr(item, "values", None)
        times = getattr(item, "times", None)
        if isinstance(values, np.ndarray) and hasattr(item, "axis1"):
            tr.counts["wavefields.grid_points"] += int(values.size)
        elif isinstance(times, np.ndarray) and hasattr(item, "mean_x"):
            tr.counts["wavefields.grid_points"] += int(times.size)


def _writer(tr, fn, args, kwargs, result, dur, parent):
    path = _bound(fn, args, kwargs)["path"]
    tr.counts["serialize.bytes"] += os.path.getsize(path)
    tr.counts["serialize.write_s"] += dur


def _root_solver(tr, fn, args, kwargs, result, dur, parent):
    tr.counts["billiards.root_s"] += dur


_HOOKS = {
    "specfun.airy_zero": _zero_call,
    "specfun.bessel_zero": _zero_call,
    "dynamics.reduced_phase": _reduced_phase,
    "dynamics._poly_phase_sum": _poly_phase_sum,
    "packets._trim": _trim,
    "packets.circular_coefficients": _circular_coefficients,
    "packets.triangle_coefficients": _triangle_coefficients,
    "wavefields.observables": _grid_result,
    "wavefields.wigner_infinite_well": _grid_result,
    "wavefields.carpet": _grid_result,
    "serialize.write_timeseries_csv": _writer,
    "serialize.write_grid_csv": _writer,
    "serialize.write_pgm": _writer,
    "billiards.annulus_levels": _root_solver,
    "billiards.circular_spectrum": _root_solver,
}


# ----------------------------------------------------------------------
# Installation
# ----------------------------------------------------------------------

def _layer_modules() -> dict:
    return {layer: importlib.import_module(f"revival.{layer}") for layer in LAYERS}


def _cross_module_private(modules: dict) -> set[tuple[str, str]]:
    """(layer, name) of private functions reached as `layer._name` from
    another module's source."""
    found = set()
    for layer, mod in modules.items():
        tree = ast.parse(inspect.getsource(mod))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
                and node.value.id != layer
                and node.attr.startswith("_")
            ):
                found.add((node.value.id, node.attr))
    return found


def install(tracer: Tracer) -> int:
    """Wrap the layer boundaries in place; returns the number of wrapped
    functions."""
    modules = _layer_modules()
    by_module_name = {mod.__name__: layer for layer, mod in modules.items()}
    reached = _cross_module_private(modules)
    hooked = {tuple(key.split(".", 1)) for key in _HOOKS}

    # every binding of every package function: id(fn) -> [(module, name)]
    bindings: dict[int, list] = {}
    functions: dict[int, tuple] = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ in by_module_name:
                bindings.setdefault(id(obj), []).append((mod, name))
                functions[id(obj)] = obj

    wrapped = 0
    for key, fn in functions.items():
        home = by_module_name[fn.__module__]
        name = fn.__name__
        imported_elsewhere = any(m is not modules[home] for m, _ in bindings[key])
        if not (
            not name.startswith("_")
            or imported_elsewhere
            or (home, name) in reached
            or (home, name) in hooked
        ):
            continue
        wrapper = tracer.wrap(fn, f"{home}.{name}", home)
        for mod, bound_name in bindings[key]:
            setattr(mod, bound_name, wrapper)
        wrapped += 1

    seen_classes = set()
    for layer, mod in modules.items():
        for obj in vars(mod).values():
            if not inspect.isclass(obj) or obj.__module__ != mod.__name__ or obj in seen_classes:
                continue
            seen_classes.add(obj)
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_"):
                    continue
                qual = f"{layer}.{obj.__name__}.{attr}"
                if isinstance(raw, staticmethod):
                    setattr(obj, attr, staticmethod(tracer.wrap(raw.__func__, qual, layer)))
                elif isinstance(raw, classmethod):
                    setattr(obj, attr, classmethod(tracer.wrap(raw.__func__, qual, layer)))
                elif inspect.isfunction(raw):
                    setattr(obj, attr, tracer.wrap(raw, qual, layer))
                else:
                    continue
                wrapped += 1
    return wrapped
